"""Sweep the soundness matrix past D=9, one ``check_all`` call per (rule, D).

Usage (from the repository root)::

    PYTHONPATH=src python3 tools/sweep.py > sweep.txt

First one line per (rule, D) for D=10..64, from ``check_all([D],
samples=2, seed=0, rules=[rule])``; then one line per (rule, D) over a
grid of dimensions to 1024 (primes, prime powers and highly composite
numbers) with ``samples=1``.  A line is ``<rule> D=<D> pass=<n> fail=<n>
skip=<n> <sha256>``, the counts of the cell's row statuses and the
digest of ``json.dumps`` of its rows, or ``<rule> D=<D> refused:
<text>`` for a cell that raises ``OverflowGuardError``.  Each cell is its
own call, so a refused cell costs no other cell its rows.  After each
part a ``total`` line sums its cells, rows and refusals, and the last
line sums both parts.  Run it on two commits and ``diff`` the outputs to
see which cells a change moved.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter

from quditzx.measure import OverflowGuardError
from quditzx.rewrite import CATALOG, check_all

NEAR = range(10, 65)
# primes, prime powers, highly composite numbers
GRID = (67, 97, 127, 257, 509, 1021, 81, 125, 128, 243, 256, 343, 512, 729, 1024, 72, 120, 210, 360, 720, 840)


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
            digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
            print(f"{rule} D={D} pass={counts['pass']} fail={counts['fail']} skip={counts['skip']} {digest}",
                  flush=True)
    print(f"total {name} {line(part)}", flush=True)
    totals.update(part)


def line(counts: Counter) -> str:
    return " ".join(f"{k}={counts[k]}" for k in ("cells", "pass", "fail", "skip", "refused"))


def main() -> None:
    totals: Counter = Counter()
    sweep("D=10..64", NEAR, 2, totals)
    sweep("grid", GRID, 1, totals)
    print(f"total all {line(totals)}")


if __name__ == "__main__":
    main()
