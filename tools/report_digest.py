"""Print digests of the soundness reports, the normal-form round trips,
the soundness matrix past D=9 and three ``quditzx check`` reports.

Usage (from the repository root)::

    PYTHONPATH=src python3 tools/report_digest.py > digests.txt

Each line up to the sweep is ``<what> <sha256>``.  For every rule of the
catalog and each seed s in 0..2 and nu in {None, 1.0}, the digest is of
``json.dumps(check_all(range(2, 10), samples=5, seed=s, nu=nu, rules=[rule]))``.
Then, for every rule, ``<rule> check_soundness`` digests the JSON list of
``[D, max_err]`` that ``check_soundness`` gives for the first draw of
each cell of seed 0 at D=2..min(dim_cap, 7), a cell the rule cannot
draw giving ``[D, None]``; this covers the one-pair path, and at D=6
and D=7 the sides of ZH-O and ZH-ZPL (those of more than
``diagram._TILE`` entries), whose last merges split the boundary alike
and which are compared as one stacked product a block.
The next three lines are over the normal-form benchmark's tensors: D=2, 3,
4 with m+n <= 3, five each, plus (m, n) = (2, 2) twice at D=3 and once at
D=4, drawn as the benchmark draws them for seed 1.  ``normal-form``
digests the tensor bytes of ``evaluate(load_json(dump_json(normal_form(t, ctx))), ctx)``,
and ``normal-form-json`` the ``dump_json`` texts of the normal forms.
``normal-form-size`` then gives their total nodes, edges and ``dump_json``
bytes, as ``normal-form-size nodes=<n> edges=<n> bytes=<n>``.
``diagram-errors`` digests what the loader's wiring check makes of a
fixed corpus (seed ``ERRORS_SEED``) of 600 diagram files, most of them
malformed: for each, the ``DiagramError`` text or the port table, so a
change that moves an error's text or which fault is named first shows
there.

The sweep past D=9 follows, one ``check_all`` call per (rule, D): first
one line per (rule, D) for D=10..64, from ``check_all([D], samples=2,
seed=0, rules=[rule])``; then one line per (rule, D) over a grid of
dimensions to 1024 (primes, prime powers and highly composite numbers)
with ``samples=1``.  A line is ``<rule> D=<D> pass=<n> fail=<n> skip=<n>
<sha256>``, the counts of the cell's row statuses and the digest of
``json.dumps`` of its rows, or ``<rule> D=<D> refused: <text>`` for a
cell that raises ``OverflowGuardError``.  Each cell is its own call, so a
refused cell costs no other cell its rows.  After each part a ``total``
line sums its cells, rows and refusals, and a ``total all`` line sums
both parts.  The sweep takes a few minutes, the lines before it a few
seconds.

The last lines are ``cli check <args> exit=<code> <sha256>``, one per
run of ``CLI_RUNS``: ``quditzx check`` run in-process through
``cli.main``, its exit code and the digest of its stdout.

Run it on two commits and ``diff`` the outputs to see which reports,
tensors, diagram files, errors, cells and CLI reports a change moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from collections import Counter

import numpy as np

from quditzx import cli, construct, diagram
from quditzx.measure import MeasureContext, OverflowGuardError
from quditzx.rewrite import CATALOG, check_all, check_soundness
from quditzx.tensor import Tensor

SEEDS = (0, 1, 2)
SOUNDNESS_DIMS = range(2, 8)
NUS = (None, 1.0)
NF_SEED = 1
ERRORS_SEED = 33
NEAR = range(10, 65)
# primes, prime powers, highly composite numbers
GRID = (67, 97, 127, 257, 509, 1021, 81, 125, 128, 243, 256, 343, 512, 729, 1024, 72, 120, 210, 360, 720, 840)
CLI_RUNS = ((), ("--dims", "7..9", "--samples", "1"), ("--dims", "2..6", "--nu", "1.0", "--seed", "3"))


def json_digest(obj) -> str:
    """The sha256 of ``json.dumps(obj)``."""
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def normal_form_tensors(seed: int) -> list[Tensor]:
    """The normal-form benchmark's tensors for ``seed``, in its order."""
    shapes = [(D, m, n, 5) for D in (2, 3, 4) for m in range(4) for n in range(4 - m)]
    shapes += [(3, 2, 2, 2), (4, 2, 2, 1)]
    out = []
    for D, m, n, count in shapes:
        rng = np.random.default_rng([seed, D, m, n])
        for _ in range(count):
            size = (D,) * (m + n)
            out.append(Tensor(D, m, n, rng.normal(size=size) + 1j * rng.normal(size=size)))
    return out


def wiring_corpus(seed: int) -> list:
    """600 parsed diagram files, drawn from ``seed``.

    Each file starts as a valid wiring of up to three nodes and two
    inputs and outputs, and then up to three edits each drop a reference,
    repeat one, point one at no port, rename a node to a reserved or empty
    name, put in a malformed reference or pair, or wire a boundary
    position through its entry.
    """
    rng = np.random.default_rng(seed)
    malformed = [5, None, ["in", 0], "nocolon", "a:x", "a:1.5", "a:", ":0", "in:x", "out:"]

    def pick(seq):
        return seq[rng.integers(len(seq))]

    cases = []
    for _ in range(600):
        legs = {name: int(rng.integers(0, 4)) for name in ["a", "b", "c"][: rng.integers(0, 4)]}
        if rng.random() < 0.02:
            legs["a"] = int(pick([2**29, 2**29 - 2, 10**12]))
        n_in, n_out = int(rng.integers(0, 3)), int(rng.integers(0, 3))
        ports = [(o, i) for o, n in [*legs.items(), ("in", n_in), ("out", n_out)] for i in range(min(n, 3))]
        ends = [ports[j] for j in rng.permutation(len(ports))]
        inputs, outputs = [f"in:{i}" for i in range(n_in)], [f"out:{i}" for i in range(n_out)]
        bad_pairs = []
        for _ in range(rng.integers(0, 4)):
            edit = int(rng.integers(0, 8))
            at = int(rng.integers(0, len(ends) + 1))
            if edit == 0 and ends:
                del ends[min(at, len(ends) - 1)]
            elif edit == 1 and ends:
                ends.insert(at, pick(ends))
            elif edit == 2:
                ends.insert(at, (pick(["a", "b", "in", "out", "ghost"]), int(pick([-1, 3, 4]))))
            elif edit == 3 and legs:
                name = pick(list(legs))
                legs[pick(["in", "out", ""])] = legs.pop(name)
            elif edit == 4:
                ends.insert(at, pick(ports + [("ghost", 0)]))
            elif edit == 5:
                ends.insert(at, pick(malformed))
            elif edit == 6:
                (inputs if rng.random() < 0.5 else outputs).append(pick(malformed + [f"{o}:{i}" for o, i in ports]))
            elif edit == 7:
                bad_pairs.append(pick([7, ["a:0"], ["a:0", "b:0", "c:0"]]))
        refs = [f"{e[0]}:{e[1]}" if type(e) is tuple else e for e in ends]
        edges = [refs[j : j + 2] for j in range(0, len(refs) - 1, 2)]
        for pair in bad_pairs:
            edges.insert(int(rng.integers(0, len(edges) + 1)), pair)
        cases.append({"dimension": 3, "nodes": {n: {"kind": "white", "legs": m} for n, m in legs.items()},
                      "edges": edges, "inputs": inputs, "outputs": outputs})
    return cases


def wiring_outcomes(seed: int) -> list:
    """For each file of ``wiring_corpus(seed)``, its ``DiagramError`` text or its port table."""
    out = []
    for obj in wiring_corpus(seed):
        try:
            out.append(list(diagram.from_json_obj(obj)._ports))
        except diagram.DiagramError as exc:
            out.append(str(exc))
    return out


def sweep(name: str, dims: range | tuple, samples: int, totals: Counter) -> None:
    """Print one line per (rule, D) of ``dims``, then this part's total; add its counts to ``totals``."""
    part: Counter = Counter()
    for rule in sorted(CATALOG):
        for D in dims:
            part["cells"] += 1
            try:
                rows = check_all([D], samples=samples, seed=0, rules=[rule])
            except OverflowGuardError as exc:
                part["refused"] += 1
                print(f"{rule} D={D} refused: {exc}", flush=True)
                continue
            counts = Counter(r["status"] for r in rows)
            part.update(counts)
            print(f"{rule} D={D} pass={counts['pass']} fail={counts['fail']} skip={counts['skip']} "
                  f"{json_digest(rows)}", flush=True)
    print(f"total {name} {line(part)}", flush=True)
    totals.update(part)


def line(counts: Counter) -> str:
    return " ".join(f"{k}={counts[k]}" for k in ("cells", "pass", "fail", "skip", "refused"))


def cli_line(args: tuple[str, ...]) -> str:
    """``cli check <args> exit=<code> <sha256>``: ``quditzx check`` run
    in-process, its exit code and the digest of its stdout."""
    out, code = io.StringIO(), 0
    with contextlib.redirect_stdout(out):
        try:
            cli.main(["check", *args])
        except SystemExit as exc:
            code = exc.code
    return " ".join(["cli", "check", *args, f"exit={code}", hashlib.sha256(out.getvalue().encode()).hexdigest()])


def main() -> None:
    for rule in sorted(CATALOG):
        for seed in SEEDS:
            for nu in NUS:
                rows = check_all(range(2, 10), samples=5, seed=seed, nu=nu, rules=[rule])
                print(f"{rule} seed={seed} nu={nu} {json_digest(rows)}")
    for rule_key, rule in enumerate(sorted(CATALOG)):
        spec = CATALOG[rule]
        errs = []
        for D in SOUNDNESS_DIMS:
            if spec.dim_cap is not None and D > spec.dim_cap:
                break
            params = spec.sample(D, np.random.default_rng([SEEDS[0], rule_key, D]))
            errs.append([D, None if params is None else check_soundness(spec, params, MeasureContext(D))["max_err"]])
        print(f"{rule} check_soundness {json_digest(errs)}")
    digest, texts, size = hashlib.sha256(), hashlib.sha256(), Counter()
    for t in normal_form_tensors(NF_SEED):
        ctx = MeasureContext(t.dim)
        d = construct.normal_form(t, ctx)
        text = diagram.dump_json(d)
        texts.update(text.encode())
        size.update(nodes=len(d.nodes), edges=len(d._ports) // 2, bytes=len(text.encode()))
        digest.update(diagram.evaluate(diagram.load_json(text), ctx).data.tobytes())
    print(f"normal-form {digest.hexdigest()}")
    print(f"normal-form-json {texts.hexdigest()}")
    print(f"normal-form-size nodes={size['nodes']} edges={size['edges']} bytes={size['bytes']}")
    print(f"diagram-errors {json_digest(wiring_outcomes(ERRORS_SEED))}", flush=True)
    totals: Counter = Counter()
    sweep("D=10..64", NEAR, 2, totals)
    sweep("grid", GRID, 1, totals)
    print(f"total all {line(totals)}", flush=True)
    for args in CLI_RUNS:
        print(cli_line(args), flush=True)


if __name__ == "__main__":
    main()
