"""Print digests of the soundness reports and of the normal-form round trips.

Usage (from the repository root)::

    PYTHONPATH=src python3 tools/report_digest.py > digests.txt

Each line is ``<what> <sha256>``.  For every rule of the catalog and
each seed s in 0..2 and nu in {None, 1.0}, the digest is of
``json.dumps(check_all(range(2, 10), samples=5, seed=s, nu=nu, rules=[rule]))``.
Then, for every rule, ``<rule> check_soundness`` digests the JSON list of
``[D, max_err]`` that ``check_soundness`` gives for the first draw of
each cell of seed 0 at D=2..min(dim_cap, 7), a cell the rule cannot
draw giving ``[D, None]``; this covers the one-pair path, and at D=7 the
sides of ZH-O and ZH-ZPL that are compared block by block.
The last two lines are over the normal-form benchmark's tensors: D=2, 3,
4 with m+n <= 3, five each, plus (m, n) = (2, 2) twice at D=3 and once at
D=4, drawn as the benchmark draws them for seed 1.  ``normal-form``
digests the tensor bytes of ``evaluate(load_json(dump_json(normal_form(t, ctx))), ctx)``,
and ``normal-form-json`` the ``dump_json`` texts of the normal forms.  Run it
on two commits and ``diff`` the outputs to see which reports, tensors and
diagram files a change moved.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from quditzx import construct, diagram
from quditzx.measure import MeasureContext
from quditzx.rewrite import CATALOG, check_all, check_soundness
from quditzx.tensor import Tensor

SEEDS = (0, 1, 2)
SOUNDNESS_DIMS = range(2, 8)
NUS = (None, 1.0)
NF_SEED = 1


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


def main() -> None:
    for rule in sorted(CATALOG):
        for seed in SEEDS:
            for nu in NUS:
                rows = check_all(range(2, 10), samples=5, seed=seed, nu=nu, rules=[rule])
                print(f"{rule} seed={seed} nu={nu} {hashlib.sha256(json.dumps(rows).encode()).hexdigest()}")
    for rule_key, rule in enumerate(sorted(CATALOG)):
        spec = CATALOG[rule]
        errs = []
        for D in SOUNDNESS_DIMS:
            if spec.dim_cap is not None and D > spec.dim_cap:
                break
            params = spec.sample(D, np.random.default_rng([SEEDS[0], rule_key, D]))
            errs.append([D, None if params is None else check_soundness(spec, params, MeasureContext(D))["max_err"]])
        print(f"{rule} check_soundness {hashlib.sha256(json.dumps(errs).encode()).hexdigest()}")
    digest, texts = hashlib.sha256(), hashlib.sha256()
    for t in normal_form_tensors(NF_SEED):
        ctx = MeasureContext(t.dim)
        text = diagram.dump_json(construct.normal_form(t, ctx))
        texts.update(text.encode())
        digest.update(diagram.evaluate(diagram.load_json(text), ctx).data.tobytes())
    print(f"normal-form {digest.hexdigest()}")
    print(f"normal-form-json {texts.hexdigest()}")


if __name__ == "__main__":
    main()
