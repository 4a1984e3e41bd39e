"""A corpus of single-node mutants of the rule sides, and the comparison that must kill them.

Each mutant changes one node of one side of a rule's draw: green<->red,
white<->gray, hplus<->hminus, or not(c) -> not(c+1).  It is made by
editing the side's diagram file and loading it again, never by changing
a ``Diagram``.  A mutant is killed when the error against the other side
exceeds 1e-6 * max(1, max|other side|).  The mutants that survive are
pinned: any comparison path that lets one more through, or kills an
equivalent one, fails here.
"""

from __future__ import annotations

import copy
import json
from typing import Iterator
from unittest import mock

import numpy as np
import pytest

import quditzx.diagram as dg
from quditzx.diagram import Diagram, dump_json, evaluate, from_json_obj, max_abs_diffs
from quditzx.measure import MeasureContext
from quditzx.rewrite import CATALOG, instantiate

DIMS = (3, 4, 5)
NUS = (None, 0.83)
SWAP = {"green": "red", "red": "green", "white": "gray", "gray": "white", "hplus": "hminus", "hminus": "hplus"}
# the sides of ZX-Z and ZX-ZCP are zero by design, so every mutant of them is too
ZERO_SIDES = {"ZX-Z", "ZX-ZCP"}
# mutants that survive for their draw alone, (rule, D, nu, side, node):
# at the default nu, for one, a legless white dot equals a legless gray one
COINCIDENCES = {
    ("ZH-GF", 5, None, "l", "s0"),
    ("ZH-GF", 5, 0.83, "l", "s0"),
    ("ZH-GL", 3, None, "r", "g0"),
    ("ZH-GL", 5, None, "r", "g0"),
    ("ZH-MCA", 3, None, "l", "w0"),
    ("ZH-MCA", 3, 0.83, "l", "w0"),
    ("ZH-MCA", 4, None, "r", "w0"),
    ("ZH-MCA", 4, 0.83, "r", "w0"),
    ("ZH-ME", 3, None, "l", "s0"),
    ("ZH-ME", 3, 0.83, "l", "s0"),
    ("ZH-WF", 3, None, "r", "w0"),
    ("ZH-WNS", 3, None, "l", "g0"),
    ("ZH-WNS", 3, None, "r", "g0"),
    ("ZH-WNS", 5, None, "l", "g0"),
    ("ZH-WNS", 5, None, "r", "g0"),
    ("ZX-SU", 4, None, "l", "g0"),
    ("ZX-SU", 4, None, "l", "r0"),
}

Key = tuple[str, int, "float | None", str, str]


def mutants(d: Diagram) -> Iterator[tuple[str, Diagram]]:
    """One mutant per node of ``d`` that has one, with the node's name, in node order."""
    obj = json.loads(dump_json(d))
    for name, node in obj["nodes"].items():
        if node["kind"] not in SWAP and node["kind"] != "not":
            continue
        edited = copy.deepcopy(obj)
        entry = edited["nodes"][name]
        if entry["kind"] == "not":
            entry["c"] += 1
        else:
            entry["kind"] = SWAP[entry["kind"]]
        yield name, from_json_obj(edited)


def corpus() -> Iterator[tuple[Key, tuple[Diagram, Diagram], MeasureContext, float]]:
    """Every mutant of every rule's first draw, seeded as ``check_all`` seeds seed 0.

    Each comes with its key, the pair of it and the other side, the
    context, and the scale of its kill threshold, max(1, max|other side|).
    """
    for index, rule in enumerate(sorted(CATALOG)):
        spec = CATALOG[rule]
        for dim in DIMS:
            params = spec.sample(dim, np.random.default_rng([0, index, dim]))
            if params is None:
                continue
            for nu in NUS:
                ctx = MeasureContext(dim, nu)
                sides = instantiate(spec, params, ctx)
                for s, side in enumerate("lr"):
                    other = sides[1 - s]
                    scale = max(1.0, float(np.abs(evaluate(other, ctx).data).max()))
                    for name, mutant in mutants(sides[s]):
                        yield (rule, dim, nu, side, name), (mutant, other), ctx, scale


def equivalent(key: Key, mutant: Diagram) -> bool:
    """A legless green<->red swap (both are nu^2 times the sum of the amplitude), or a zero side."""
    node = mutant.nodes[key[4]]
    return key[0] in ZERO_SIDES or (node.kind in ("green", "red") and node.degree == 0)


@pytest.mark.parametrize("tile", [None, 25])
def test_every_mutant_but_the_pinned_ones_is_killed(tile: int | None) -> None:
    # a tile of 25 entries cuts every side of three or more legs, and
    # three-leg sides at D=3 in runs of two values of position 0 and one
    with mock.patch.object(dg, "_TILE", tile or dg._TILE):
        items = list(corpus())
        survivors = set()
        for key, pair, ctx, scale in items:
            (err,) = max_abs_diffs([pair], ctx)
            if not err > 1e-6 * scale:
                survivors.add(key)
    assert len(items) == 1078
    assert survivors == {key for key, (mutant, _), _, _ in items if equivalent(key, mutant)} | COINCIDENCES
    assert len(survivors) == 73
