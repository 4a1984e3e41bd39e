"""Command-line interface, on the standard library's ``argparse``.

Commands mirror the library surface: evaluate diagram files, run the
rule soundness matrix, build gadgets, synthesize normal forms, emit a
Gamma table, and print the numeric constants for a dimension.  Each
command takes ``-h``/``--help``.

Exit codes: 0 success, 1 soundness failure, 2 usage or parse error
or output that cannot be written, 3 semantic error while processing an
otherwise well-formed input; a closed stdout pipe ends the output
quietly, with the command's own exit code.  A
command registers the words that head its semantic errors, and ``main``
prints them before the message of any ``OverflowGuardError`` it raises.

Each command imports the modules it runs inside its body, so a cold
``info`` or ``gamma-table`` loads only ``measure`` (and ``gauss``),
never imports numpy and never compiles the rule catalog.
"""

from __future__ import annotations

import argparse
import cmath
import io
import json
import math
import os
import sys
from typing import Any

from quditzx.measure import MeasureContext, OverflowGuardError

SEMANTIC_EXIT = 3
_MAX_DIMS = 1 << 16  # dimensions in one --dims range
# rows of a Gamma table, which has 9 D^2 a dimension, so D <= 341 alone
# (``check`` leaves the cap on its report's rows to ``rewrite.check_all``)
_MAX_ROWS = 1 << 20


class UsageError(Exception):
    """Bad arguments or unreadable input: ``main`` prints the command's usage and exits 2."""


def _parse_nu(text: str | None) -> float | None:
    if text is None or text == "well-tempered":
        return None
    try:
        value = float(text)
    except ValueError:
        raise UsageError(f"--nu must be a real number or 'well-tempered', got {text!r}")
    if not math.isfinite(value):
        raise UsageError(f"--nu must be a finite number, got {text!r}")
    if value <= 0:
        raise UsageError("--nu must be positive")
    return value


def _parse_dims(dim: int | None, dims: str | None, default: tuple[int, int]) -> list[int]:
    if dim is not None and dims is not None:
        raise UsageError("give either --dim or --dims, not both")
    if dim is not None:
        lo = hi = dim
    elif dims is not None:
        parts = dims.split("..")
        try:
            if len(parts) > 2:
                raise ValueError
            lo, hi = int(parts[0]), int(parts[-1])
        except ValueError:
            raise UsageError(f"--dims expects A..B, got {dims!r}")
    else:
        lo, hi = default
    if lo < 2 or hi < lo:
        raise UsageError(f"bad dimension range {lo}..{hi}")
    if hi - lo + 1 > _MAX_DIMS:
        raise UsageError(f"dimension range {lo}..{hi} holds {hi - lo + 1} dimensions, more than {_MAX_DIMS}")
    return list(range(lo, hi + 1))


class OutputError(Exception):
    """Output that cannot be written: ``main`` prints one line naming it and exits 2."""


def _write_output(text: str, out_path: str | None) -> None:
    """Write ``text`` to the file ``out_path``, or to stdout ending in a newline.

    A file that cannot be opened or written raises ``OutputError``, and
    so does a stdout write error other than a closed pipe.  A closed pipe
    ends the output quietly and the command goes on to its own exit code.
    After any stdout error, stdout is pointed at the null device, so that
    the flush at shutdown neither fails again nor prints.
    """
    if out_path is not None:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise OutputError(f"cannot write {out_path!r}: {exc}") from None
        return
    try:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
        sys.stdout.flush()
    except OSError as exc:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        if not isinstance(exc, BrokenPipeError):
            raise OutputError(f"cannot write to stdout: {exc}") from None


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
            raise UsageError(f"bad amplitude spec {raw!r}: {exc}")
    if isinstance(obj, (int, float)):
        return obj
    try:
        value = complex(raw)
    except ValueError:
        raise UsageError(f"cannot parse parameter value {raw!r}")
    return value.real if value.imag == 0 and "j" not in raw else value


def _parse_params(pairs: list[str]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise UsageError(f"--param expects k=v, got {pair!r}")
        try:
            value = _parse_param_value(raw)
        except RecursionError:
            raise UsageError(f"--param {key}: JSON value nested too deeply")
        if isinstance(value, (float, complex)) and not cmath.isfinite(value):
            raise UsageError(f"--param {key} must be a finite number, got {raw!r}")
        out[key] = value
    return out


def cmd_eval(args: argparse.Namespace) -> None:
    """Evaluate a diagram file to its tensor."""
    from quditzx import diagram, tensor

    nu = _parse_nu(args.nu)
    try:
        with open(args.path) as fh:
            d = diagram.load_json(fh.read())
    except (OSError, KeyError, TypeError, ValueError, RecursionError) as exc:  # bad or too deep JSON, bad diagram
        raise UsageError(f"cannot read diagram {args.path!r}: {exc}")
    ctx = MeasureContext(d.dim, nu)
    _write_output(tensor.dump_json(diagram.evaluate(d, ctx)), args.out)


def cmd_check(args: argparse.Namespace) -> None:
    """Run the rewrite-rule soundness matrix (optionally one RULE)."""
    from quditzx import rewrite

    nu = _parse_nu(args.nu)
    dims = _parse_dims(args.dim, args.dims, default=(2, 6))
    if not math.isfinite(args.tol):
        raise UsageError(f"--tol must be a finite number, got {args.tol!r}")
    if args.tol <= 0:
        raise UsageError("--tol must be positive")
    if args.samples < 1:
        raise UsageError("--samples must be at least 1")
    if args.seed < 0:
        raise UsageError("--seed must be at least 0")
    if args.rule is not None and args.rule not in rewrite.CATALOG:
        raise UsageError(f"unknown rule id {args.rule!r}")
    rules = None if args.rule is None else [args.rule]
    try:
        rows = rewrite.check_all(dims, samples=args.samples, seed=args.seed, tol=args.tol, nu=nu, rules=rules)
    except rewrite.ReportSizeError as exc:
        raise UsageError(str(exc))
    report = {
        "dims": dims,
        "samples": args.samples,
        "seed": args.seed,
        "tol": args.tol,
        "nu": "well-tempered" if nu is None else nu,
        "resolved_nu": {str(D): MeasureContext(D, nu).nu for D in dims},
        "rows": rows,
        "failures": sum(1 for r in rows if r["status"] == "fail"),
    }
    _write_output(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    if report["failures"]:
        sys.exit(1)


def cmd_gadget(args: argparse.Namespace) -> None:
    """Build a named gadget diagram."""
    from quditzx import construct, diagram, tensor
    from quditzx.generators import DomainError, check_amp_dim

    if args.dim < 2:
        raise UsageError("--dim must be at least 2")
    nu = _parse_nu(args.nu)
    ctx = MeasureContext(args.dim, nu)
    params = _parse_params(args.param)
    for key, value in params.items():
        try:
            check_amp_dim(value, args.dim)
        except DomainError as exc:
            raise UsageError(f"--param {key}: {exc}")
    try:
        gid = construct.gadget_id(args.name, **params)
        d = construct.build(gid, ctx)
    except construct.GadgetError as exc:
        raise UsageError(str(exc))
    if args.emit_tensor:
        _write_output(tensor.dump_json(diagram.evaluate(d, ctx)), args.out)
    else:
        _write_output(diagram.dump_json(d), args.out)


def cmd_normal_form(args: argparse.Namespace) -> None:
    """Synthesize a diagram evaluating to a given tensor."""
    from quditzx import construct, diagram, tensor

    nu = _parse_nu(args.nu)
    try:
        with open(args.tensor) as fh:
            omega = tensor.load_json(fh.read())
    except (OSError, KeyError, TypeError, ValueError, RecursionError) as exc:
        raise UsageError(f"cannot read tensor {args.tensor!r}: {exc}")
    ctx = MeasureContext(omega.dim, nu)
    _write_output(diagram.dump_json(construct.normal_form(omega, ctx)), args.out)


def cmd_gamma_table(args: argparse.Namespace) -> None:
    """Emit the quadratic-integral table as CSV (a,b,D,re,im,magnitude_class)."""
    from quditzx import gauss

    dims = _parse_dims(args.dim, args.dims, default=(2, 8))
    rows = sum(9 * D * D for D in dims)  # a and b each run over 3D values
    if rows > _MAX_ROWS:
        raise UsageError(f"a Gamma table of {rows} rows is more than {_MAX_ROWS}")
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
    _write_output(buf.getvalue(), args.out)


def cmd_info(args: argparse.Namespace) -> None:
    """Print the numeric constants for a dimension."""
    if args.dim < 2:
        raise UsageError("--dim must be at least 2")
    ctx = MeasureContext(args.dim, _parse_nu(args.nu))
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
    _write_output("\n".join(lines), None)


def main(args: list[str] | None = None, prog_name: str = "quditzx") -> None:
    """Qudit diagram calculus tools."""
    parser = argparse.ArgumentParser(prog=prog_name, description=main.__doc__, allow_abbrev=False)
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def command(name: str, func: Any, refused: str | None = None) -> argparse.ArgumentParser:
        # `refused` heads the message of an OverflowGuardError the command raises
        sub = commands.add_parser(name, help=func.__doc__, description=func.__doc__, allow_abbrev=False)
        sub.set_defaults(func=func, refused=refused)
        return sub

    p = command("eval", cmd_eval, "evaluation failed")
    p.add_argument("path", metavar="PATH", help="diagram file")
    p.add_argument("--nu", help="normalization: real or 'well-tempered'")
    p.add_argument("-o", dest="out", metavar="FILE", help="write result here")
    p = command("check", cmd_check, "check failed")
    p.add_argument("rule", nargs="?", metavar="RULE", help="one rule id (default: every rule)")
    p.add_argument("--dim", type=int, help="single dimension")
    p.add_argument("--dims", help="dimension range A..B (default 2..6)")
    p.add_argument("--samples", type=int, default=5, help="draws per rule and dimension (default 5)")
    p.add_argument("--seed", type=int, default=0, help="seed of the draws, at least 0 (default 0)")
    p.add_argument("--tol", type=float, default=1e-8, help="comparison tolerance (default 1e-08)")
    p.add_argument("--nu", help="normalization: real or 'well-tempered'")
    p.add_argument("-o", dest="out", metavar="FILE", help="write report here")
    p = command("gadget", cmd_gadget, "evaluation failed")
    p.add_argument("name", metavar="NAME", help="gadget name")
    p.add_argument("--dim", type=int, required=True, help="dimension D")
    p.add_argument("--nu", help="normalization: real or 'well-tempered'")
    p.add_argument("--param", action="append", default=[], metavar="K=V", help="gadget parameter (repeatable)")
    p.add_argument("--emit-tensor", action="store_true", help="write the evaluated tensor, not the diagram")
    p.add_argument("-o", dest="out", metavar="FILE", help="write result here")
    p = command("normal-form", cmd_normal_form, "normal form too large")
    p.add_argument("--tensor", required=True, metavar="FILE", help="tensor dump to synthesize")
    p.add_argument("--nu", help="normalization: real or 'well-tempered'")
    p.add_argument("-o", dest="out", metavar="FILE", help="write diagram here")
    p = command("gamma-table", cmd_gamma_table)
    p.add_argument("--dim", type=int, help="single dimension")
    p.add_argument("--dims", help="dimension range A..B (default 2..8)")
    p.add_argument("-o", dest="out", metavar="FILE", help="write CSV here")
    p = command("info", cmd_info, "info failed")
    p.add_argument("--dim", type=int, required=True, help="dimension D")
    p.add_argument("--nu", help="normalization: real or 'well-tempered'")

    ns = parser.parse_args(args)
    try:
        ns.func(ns)
    except UsageError as exc:
        commands.choices[ns.command].error(str(exc))
    except OutputError as exc:
        print(f"{commands.choices[ns.command].prog}: error: {exc}", file=sys.stderr)
        sys.exit(2)
    except OverflowGuardError as exc:
        if ns.refused is None:
            raise
        print(f"{ns.refused}: {exc}", file=sys.stderr)
        sys.exit(SEMANTIC_EXIT)


if __name__ == "__main__":
    main()
