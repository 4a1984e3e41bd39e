"""Command-line interface.

Commands mirror the library surface: evaluate diagram files, run the
rule soundness matrix, build gadgets, synthesize normal forms, emit a
Gamma table, and print the numeric constants for a dimension.

Exit codes: 0 success, 1 soundness failure, 2 usage or parse error,
3 semantic error while processing an otherwise well-formed input.

Each command imports the modules it runs inside its body, so a cold
``info`` loads only ``measure`` and never compiles the rule catalog.
"""

from __future__ import annotations

import io
import json
import sys
from typing import Any

import click

from quditzx.measure import MeasureContext, OverflowGuardError

SEMANTIC_EXIT = 3


def _parse_nu(text: str | None) -> float | None:
    if text is None or text == "well-tempered":
        return None
    try:
        value = float(text)
    except ValueError:
        raise click.UsageError(f"--nu must be a real number or 'well-tempered', got {text!r}")
    if value <= 0:
        raise click.UsageError("--nu must be positive")
    return value


def _parse_dims(dim: int | None, dims: str | None, default: tuple[int, int]) -> list[int]:
    if dim is not None and dims is not None:
        raise click.UsageError("give either --dim or --dims, not both")
    if dim is not None:
        lo = hi = dim
    elif dims is not None:
        parts = dims.split("..")
        try:
            if len(parts) == 1:
                lo = hi = int(parts[0])
            elif len(parts) == 2:
                lo, hi = int(parts[0]), int(parts[1])
            else:
                raise ValueError
        except ValueError:
            raise click.UsageError(f"--dims expects A..B, got {dims!r}")
    else:
        lo, hi = default
    if lo < 2 or hi < lo:
        raise click.UsageError(f"bad dimension range {lo}..{hi}")
    return list(range(lo, hi + 1))


def _write_output(text: str, out_path: str | None) -> None:
    if out_path is None:
        click.echo(text, nl=not text.endswith("\n"))
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _parse_param_value(raw: str) -> Any:
    """Best-effort typed parse: JSON amplitude spec, integer, complex."""
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError:
        obj = None
    if isinstance(obj, dict):
        from quditzx.generators import amp_from_json

        try:
            return amp_from_json(obj)
        except ValueError as exc:
            raise click.UsageError(f"bad amplitude spec {raw!r}: {exc}")
    if isinstance(obj, (int, float)):
        return obj
    try:
        value = complex(raw)
    except ValueError:
        raise click.UsageError(f"cannot parse parameter value {raw!r}")
    return value.real if value.imag == 0 and "j" not in raw else value


def _parse_params(pairs: tuple[str, ...]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise click.UsageError(f"--param expects k=v, got {pair!r}")
        out[key] = _parse_param_value(raw)
    return out


@click.group()
def main() -> None:
    """Qudit diagram calculus tools."""


@main.command("eval")
@click.argument("path", type=click.Path())
@click.option("--nu", "nu_text", default=None, help="normalization: real or 'well-tempered'")
@click.option("-o", "out_path", type=click.Path(), default=None, help="write result here")
def cmd_eval(path: str, nu_text: str | None, out_path: str | None) -> None:
    """Evaluate a diagram file to its tensor."""
    from quditzx import diagram, tensor

    nu = _parse_nu(nu_text)
    try:
        with open(path) as fh:
            d = diagram.load_json(fh.read())
    except (OSError, KeyError, TypeError, ValueError) as exc:  # a JSON or diagram error is a ValueError
        raise click.UsageError(f"cannot read diagram {path!r}: {exc}")
    ctx = MeasureContext(d.dim, nu)
    try:
        result = diagram.evaluate(d, ctx)
    except OverflowGuardError as exc:
        click.echo(f"evaluation failed: {exc}", err=True)
        sys.exit(SEMANTIC_EXIT)
    _write_output(tensor.dump_json(result), out_path)


@main.command("check")
@click.argument("rule", required=False, default=None)
@click.option("--dim", type=int, default=None, help="single dimension")
@click.option("--dims", "dims_text", default=None, help="dimension range A..B (default 2..6)")
@click.option("--samples", type=int, default=5, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--tol", type=float, default=1e-8, show_default=True)
@click.option("--nu", "nu_text", default=None, help="normalization: real or 'well-tempered'")
@click.option("-o", "out_path", type=click.Path(), default=None, help="write report here")
def cmd_check(
    rule: str | None,
    dim: int | None,
    dims_text: str | None,
    samples: int,
    seed: int,
    tol: float,
    nu_text: str | None,
    out_path: str | None,
) -> None:
    """Run the rewrite-rule soundness matrix (optionally one RULE)."""
    from quditzx import rewrite

    nu = _parse_nu(nu_text)
    dims = _parse_dims(dim, dims_text, default=(2, 6))
    if tol <= 0:
        raise click.UsageError("--tol must be positive")
    if samples < 1:
        raise click.UsageError("--samples must be at least 1")
    if rule is not None and rule not in rewrite.CATALOG:
        raise click.UsageError(f"unknown rule id {rule!r}")
    rules = None if rule is None else [rule]
    try:
        rows = rewrite.check_all(dims, samples=samples, seed=seed, tol=tol, nu=nu, rules=rules)
    except OverflowGuardError as exc:
        click.echo(f"check failed: {exc}", err=True)
        sys.exit(SEMANTIC_EXIT)
    report = {
        "dims": dims,
        "samples": samples,
        "seed": seed,
        "tol": tol,
        "nu": "well-tempered" if nu is None else nu,
        "resolved_nu": {str(D): MeasureContext(D, nu).nu for D in dims},
        "rows": rows,
        "failures": sum(1 for r in rows if r["status"] == "fail"),
    }
    _write_output(json.dumps(report, indent=2, sort_keys=True) + "\n", out_path)
    if report["failures"]:
        sys.exit(1)


@main.command("gadget")
@click.argument("name")
@click.option("--dim", type=int, required=True)
@click.option("--nu", "nu_text", default=None, help="normalization: real or 'well-tempered'")
@click.option("--param", "param_pairs", multiple=True, help="gadget parameter k=v")
@click.option("--emit-tensor", is_flag=True, help="write the evaluated tensor, not the diagram")
@click.option("-o", "out_path", type=click.Path(), default=None, help="write result here")
def cmd_gadget(
    name: str,
    dim: int,
    nu_text: str | None,
    param_pairs: tuple[str, ...],
    emit_tensor: bool,
    out_path: str | None,
) -> None:
    """Build a named gadget diagram."""
    from quditzx import construct, diagram, tensor
    from quditzx.generators import DomainError, check_amp_dim

    if dim < 2:
        raise click.UsageError("--dim must be at least 2")
    nu = _parse_nu(nu_text)
    ctx = MeasureContext(dim, nu)
    params = _parse_params(param_pairs)
    for key, value in params.items():
        try:
            check_amp_dim(value, dim)
        except DomainError as exc:
            raise click.UsageError(f"--param {key}: {exc}")
    try:
        gid = construct.gadget_id(name, **params)
        d = construct.build(gid, ctx)
    except construct.GadgetError as exc:
        raise click.UsageError(str(exc))
    if emit_tensor:
        try:
            result = diagram.evaluate(d, ctx)
        except OverflowGuardError as exc:
            click.echo(f"evaluation failed: {exc}", err=True)
            sys.exit(SEMANTIC_EXIT)
        _write_output(tensor.dump_json(result), out_path)
    else:
        _write_output(diagram.dump_json(d), out_path)


@main.command("normal-form")
@click.option("--tensor", "tensor_path", type=click.Path(), required=True,
              help="tensor dump to synthesize")
@click.option("--nu", "nu_text", default=None, help="normalization: real or 'well-tempered'")
@click.option("-o", "out_path", type=click.Path(), default=None, help="write diagram here")
def cmd_normal_form(tensor_path: str, nu_text: str | None, out_path: str | None) -> None:
    """Synthesize a diagram evaluating to a given tensor."""
    from quditzx import construct, diagram, tensor

    nu = _parse_nu(nu_text)
    try:
        with open(tensor_path) as fh:
            omega = tensor.load_json(fh.read())
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise click.UsageError(f"cannot read tensor {tensor_path!r}: {exc}")
    ctx = MeasureContext(omega.dim, nu)
    try:
        d = construct.normal_form(omega, ctx)
    except OverflowGuardError as exc:
        click.echo(f"normal form too large: {exc}", err=True)
        sys.exit(SEMANTIC_EXIT)
    _write_output(diagram.dump_json(d), out_path)


@main.command("gamma-table")
@click.option("--dim", type=int, default=None, help="single dimension")
@click.option("--dims", "dims_text", default=None, help="dimension range A..B (default 2..8)")
@click.option("-o", "out_path", type=click.Path(), default=None, help="write CSV here")
def cmd_gamma_table(dim: int | None, dims_text: str | None, out_path: str | None) -> None:
    """Emit the quadratic-integral table as CSV (a,b,D,re,im,magnitude_class)."""
    from quditzx import gauss

    dims = _parse_dims(dim, dims_text, default=(2, 8))
    buf = io.StringIO()
    buf.write("a,b,D,re,im,magnitude_class\n")
    for D in dims:
        ctx = MeasureContext(D)
        for a in range(-D, 2 * D):
            for b in range(-D, 2 * D):
                g = gauss.gamma(a, b, ctx)
                buf.write(
                    f"{a},{b},{D},{g.value.real!r},{g.value.imag!r},{g.label()}\n"
                )
    _write_output(buf.getvalue(), out_path)


@main.command("info")
@click.option("--dim", type=int, required=True)
@click.option("--nu", "nu_text", default=None, help="normalization: real or 'well-tempered'")
def cmd_info(dim: int, nu_text: str | None) -> None:
    """Print the numeric constants for a dimension."""
    if dim < 2:
        raise click.UsageError("--dim must be at least 2")
    ctx = MeasureContext(dim, _parse_nu(nu_text))
    lines = [
        f"dim            {ctx.dim}",
        f"window         [{ctx.lower}, {ctx.upper}]",
        f"sigma          {ctx.sigma}",
        f"nu             {ctx.nu!r}",
        f"well_tempered  {ctx.is_well_tempered}",
        f"total_measure  {ctx.total_measure!r}",
        f"omega          {ctx.omega!r}",
        f"tau            {ctx.tau!r}",
    ]
    click.echo("\n".join(lines))


if __name__ == "__main__":
    main()
