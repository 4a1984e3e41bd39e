"""Diagram construction, evaluation, and serialization."""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import sys
import threading
import time
import tracemalloc
import warnings
import weakref
from collections import Counter
from dataclasses import FrozenInstanceError
from pathlib import Path
from typing import Any, Iterator
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quditzx.diagram as dg
from quditzx import construct
from quditzx.construct import normal_form
from quditzx.diagram import (
    Diagram,
    DiagramBuilder,
    DiagramError,
    dump_json,
    evaluate,
    load_json,
    max_abs_diffs,
)
from quditzx.generators import (
    Char,
    Generator,
    Indicator,
    MBox,
    One,
    Phase,
    PhaseVec,
    Sign,
    Stab,
    Table,
    UnitPow,
    Zero,
    amp_from_json,
    amp_to_json,
    eval_generator,
    generator_entries,
)
from quditzx.measure import MeasureContext, OverflowGuardError, residue
from quditzx.rewrite import CATALOG, check_all, instantiate
from quditzx.tensor import ShapeError, Tensor, max_abs_diff


def node_diagram(dim: int, gen: Generator) -> Diagram:
    """Wrap one generator: leg k is output k for k < n, else input k - n."""
    b = DiagramBuilder(dim)
    name = b.node(gen)
    for k in range(gen.n):
        b.wire(("out", k), (name, k))
    for i in range(gen.m):
        b.wire(("in", i), (name, gen.n + i))
    return b.build()


def from_edges(dim: int, nodes: dict, edges, n_in: int, n_out: int) -> Diagram:
    """The diagram of ``nodes`` wired by ``edges``, ``(owner, index)`` pairs, built in node and edge order."""
    b = DiagramBuilder(dim)
    for name, gen in nodes.items():
        b.node(gen, name)
    for a, c in edges:
        b.wire(a, c)
    d = b.build()
    assert (d.n_inputs, d.n_outputs) == (n_in, n_out)
    return d


SINGLE_NODE_CASES = [
    Generator.white(1, 1),
    Generator.white(2, 1),
    Generator.white(0, 3),
    Generator.green(Phase(0.37), 1, 2),
    Generator.green(Stab(1, 2), 0, 1),
    Generator.red(One(), 2, 1),
    Generator.red(Stab(1, 1), 1, 1),
    Generator.red(Char(2), 0, 1),
    Generator.gray(2, 2),
    Generator.gray(1, 0),
    Generator.hplus(),
    Generator.hminus(),
    Generator.hbox(UnitPow(0.3 + 0.4j), 2, 1),
    Generator.hbox(Phase(1.1), 0, 1),
    Generator.not_dot(2),
]


@pytest.mark.parametrize("dim", [2, 3, 5])
@pytest.mark.parametrize("nu", [None, 0.7])
def test_single_node_matches_generator_tensor(dim: int, nu: float | None) -> None:
    ctx = MeasureContext(dim, nu)
    for gen in SINGLE_NODE_CASES:
        got = evaluate(node_diagram(dim, gen), ctx)
        want = eval_generator(ctx, gen)
        assert max_abs_diff(got, want) < 1e-12, gen


def test_empty_diagram_is_scalar_one() -> None:
    d = DiagramBuilder(3).build()
    t = evaluate(d, MeasureContext(3))
    assert t.in_legs == 0 and t.out_legs == 0
    assert abs(complex(t.data) - 1) < 1e-15


def test_bare_wire_is_identity() -> None:
    for dim in (2, 5):
        b = DiagramBuilder(dim)
        b.wire("in", "out")
        t = evaluate(b.build(), MeasureContext(dim))
        assert np.allclose(t.data, np.eye(dim))


def test_cup_and_cap_from_boundary_edges() -> None:
    dim = 4
    ctx = MeasureContext(dim)
    b = DiagramBuilder(dim)
    b.wire(("out", 0), ("out", 1))
    cup = evaluate(b.build(), ctx)
    assert cup.in_legs == 0 and cup.out_legs == 2
    assert np.allclose(cup.data, np.eye(dim))
    b = DiagramBuilder(dim)
    b.wire(("in", 0), ("in", 1))
    cap = evaluate(b.build(), ctx)
    assert cap.in_legs == 2 and cap.out_legs == 0
    assert np.allclose(cap.data, np.eye(dim))


def test_crossed_wires_swap() -> None:
    dim = 3
    b = DiagramBuilder(dim)
    b.wire(("in", 0), ("out", 1))
    b.wire(("in", 1), ("out", 0))
    t = evaluate(b.build(), MeasureContext(dim))
    # out0 = in1, out1 = in0
    got_perm = t.data
    expect = np.zeros((dim,) * 4)
    for a in range(dim):
        for c in range(dim):
            expect[c, a, a, c] = 1.0
    assert np.allclose(got_perm, expect)


def test_two_node_chain_matches_einsum() -> None:
    dim = 4
    ctx = MeasureContext(dim)
    red = Generator.red(Stab(1, 1), 1, 2)
    green = Generator.green(Phase(0.9), 2, 1)
    R = eval_generator(ctx, red).data  # [o1, o2, i]
    G = eval_generator(ctx, green).data  # [o, i1, i2]
    b = DiagramBuilder(dim)
    r = b.node(red)
    g = b.node(green)
    b.wire((r, 0), (g, 1))
    b.wire((r, 1), (g, 2))
    b.wire(("in", 0), (r, 2))
    b.wire((g, 0), ("out", 0))
    got = evaluate(b.build(), ctx)
    want = np.einsum("oab,abi->oi", G, R)
    assert np.max(np.abs(got.data - want)) < 1e-12


def test_self_loop_on_green_dot() -> None:
    dim = 5
    ctx = MeasureContext(dim)
    b = DiagramBuilder(dim)
    g = b.node(Generator.green(Phase(0.51), 1, 2))
    b.wire((g, 0), (g, 1))
    b.wire((g, 2), ("out", 0))
    t = evaluate(b.build(), ctx)
    # the loop forces all three legs equal with no extra sum
    want = ctx.nu ** (2 - 3) * np.array([Phase(0.51).eval(ctx, int(x)) for x in ctx.residues()])
    assert np.allclose(t.data, want)


def test_self_loop_on_red_dot_traces() -> None:
    dim = 4
    ctx = MeasureContext(dim)
    gen = Generator.red(Phase(0.23), 1, 2)
    T = eval_generator(ctx, gen).data
    b = DiagramBuilder(dim)
    r = b.node(gen)
    b.wire((r, 0), (r, 1))
    b.wire(("in", 0), (r, 2))
    got = evaluate(b.build(), ctx)
    want = np.einsum("aai->i", T)
    assert np.allclose(got.data, want)


def test_closed_white_loop_scalar() -> None:
    dim = 7
    b = DiagramBuilder(dim)
    w = b.node(Generator.white(0, 2))
    b.wire((w, 0), (w, 1))
    t = evaluate(b.build(), MeasureContext(dim))
    assert abs(complex(t.data) - dim) < 1e-12


def test_huge_copy_dot_stays_cheap() -> None:
    # degree 10000 would be astronomically large as a dense tensor
    dim = 3
    b = DiagramBuilder(dim)
    w = b.node(Generator.white(0, 10_000))
    for k in range(5_000):
        b.wire((w, 2 * k), (w, 2 * k + 1))
    t = evaluate(b.build(), MeasureContext(dim, nu=1.0))
    assert abs(complex(t.data) - dim) < 1e-9


def test_two_white_dots_fuse_over_parallel_wires() -> None:
    dim = 3
    ctx = MeasureContext(dim, nu=0.9)
    b = DiagramBuilder(dim)
    w1 = b.node(Generator.green(Phase(0.4), 1, 2))
    w2 = b.node(Generator.white(2, 1))
    b.wire((w1, 0), (w2, 1))
    b.wire((w1, 1), (w2, 2))
    b.wire(("in", 0), (w1, 2))
    b.wire((w2, 0), ("out", 0))
    got = evaluate(b.build(), ctx)
    A = eval_generator(ctx, Generator.green(Phase(0.4), 1, 2)).data
    B = eval_generator(ctx, Generator.white(2, 1)).data
    want = np.einsum("oab,abi->oi", B, A)
    assert np.allclose(got.data, want)


def test_cx_diagram_is_permutation() -> None:
    # control copied by a green dot, target shifted by a gray dot
    dim = 3
    ctx = MeasureContext(dim)
    b = DiagramBuilder(dim)
    g = b.node(Generator.green(One(), 1, 2))
    a = b.node(Generator.gray(2, 1))
    b.wire(("in", 0), (g, 2))
    b.wire((g, 0), ("out", 0))
    b.wire((g, 1), (a, 1))
    b.wire(("in", 1), (a, 2))
    b.wire((a, 0), ("out", 1))
    t = evaluate(b.build(), ctx)
    res = list(ctx.residues())
    idx = {x: i for i, x in enumerate(res)}
    want = np.zeros((dim,) * 4, dtype=complex)
    for c in res:
        for x in res:
            # gray requires its legs to sum to 0 mod D: out = -(c + x) up to sign
            s = residue(ctx, -(c + x))
            want[idx[c], idx[s], idx[c], idx[x]] = 1.0
    assert np.allclose(t.data, want)


def test_scalar_boxes() -> None:
    ctx = MeasureContext(3)
    alpha = 0.3 - 1.2j
    d = node_diagram(3, Generator.hbox(UnitPow(alpha), 0, 0))
    assert abs(complex(evaluate(d, ctx).data) - alpha) < 1e-12
    d = node_diagram(3, Generator.green(One(), 0, 0))
    assert abs(complex(evaluate(d, ctx).data) - 3 * ctx.nu**2) < 1e-12
    d = node_diagram(3, Generator.gray(0, 0))
    assert abs(complex(evaluate(d, ctx).data) - ctx.nu ** (-2)) < 1e-12


def random_diagram(rng: np.random.Generator, dim: int, n_nodes: int, n_in: int, n_out: int):
    b = DiagramBuilder(dim)
    ports: list = [("in", i) for i in range(n_in)] + [("out", j) for j in range(n_out)]
    for _ in range(n_nodes):
        roll = rng.integers(0, 7)
        if roll == 0:
            deg = int(rng.integers(1, 4))
            gen = Generator.green(Phase(float(rng.uniform(0, 6.28))), 0, deg)
        elif roll == 1:
            deg = int(rng.integers(1, 4))
            gen = Generator.red(Stab(int(rng.integers(0, dim)), int(rng.integers(0, dim))), 0, deg)
        elif roll == 2:
            deg = int(rng.integers(1, 4))
            gen = Generator.white(0, deg)
        elif roll == 3:
            deg = int(rng.integers(1, 4))
            gen = Generator.gray(0, deg)
        elif roll == 4:
            gen = Generator.hplus() if rng.integers(0, 2) else Generator.hminus()
        elif roll == 5:
            gen = Generator.not_dot(int(rng.integers(0, dim)))
        else:
            deg = int(rng.integers(1, 3))
            gen = Generator.hbox(Phase(float(rng.uniform(0, 6.28))), 0, deg)
        name = b.node(gen)
        ports.extend((name, k) for k in range(gen.degree))
    if len(ports) % 2:
        ports.append(("out", n_out))
        n_out += 1
    order = rng.permutation(len(ports))
    for k in range(0, len(ports), 2):
        b.wire(ports[order[k]], ports[order[k + 1]])
    return b.build()


def test_evaluation_independent_of_node_order() -> None:
    dim = 3
    ctx = MeasureContext(dim)
    rng = np.random.default_rng(7)
    d = random_diagram(rng, dim, 4, 1, 1)
    ref = evaluate(d, ctx)
    items = list(d.nodes.items())
    for seed in range(3):
        np.random.default_rng(seed).shuffle(items)
        shuffled = from_edges(d.dim, dict(items), d.edges, d.n_inputs, d.n_outputs)
        assert max_abs_diff(evaluate(shuffled, ctx), ref) < 1e-12


def test_white_subdivision_preserves_value() -> None:
    dim = 4
    ctx = MeasureContext(dim)
    rng = np.random.default_rng(11)
    for trial in range(5):
        d = random_diagram(rng, dim, 3, 1, 1)
        ref = evaluate(d, ctx)
        # split the first edge with a degree-2 white dot
        (p, q), rest = d.edges[0], d.edges[1:]
        nodes = dict(d.nodes)
        name = "mid"
        while name in nodes:
            name += "_"
        nodes[name] = Generator.white(1, 1)
        edges = rest + ((p, (name, 0)), ((name, 1), q))
        sub = from_edges(dim, nodes, edges, d.n_inputs, d.n_outputs)
        assert max_abs_diff(evaluate(sub, ctx), ref) < 1e-10


def test_character_decomposition_agrees_with_dense(monkeypatch) -> None:
    dim = 5
    ctx = MeasureContext(dim, nu=0.8)
    cases = [
        Generator.red(Stab(2, 3), 1, 2),
        Generator.red(Phase(0.77), 2, 2),
        Generator.gray(1, 3),
        Generator.gray(2, 0),
    ]
    for gen in cases:
        d = node_diagram(dim, gen)
        monkeypatch.setattr(dg, "_SPLIT_ABOVE", dg._MAX_DENSE)
        dense = evaluate(d, ctx)
        monkeypatch.setattr(dg, "_SPLIT_ABOVE", 0)
        decomposed = evaluate(d, ctx)
        assert max_abs_diff(decomposed, dense) < 1e-10, gen


def test_split_and_dense_red_gray_agree(monkeypatch) -> None:
    # every red and gray dot split by characters, then every one dense
    # that a dense factor may hold at all (up to _MAX_DENSE), on both
    # sides of every rule at D=2..7
    n = 0
    for label, d, ctx in catalog_cases(range(2, 8)):
        if not any(g.kind in ("red", "gray") for g in d.nodes.values()):
            continue
        monkeypatch.setattr(dg, "_SPLIT_ABOVE", 0)
        split = evaluate(d, ctx).data
        monkeypatch.setattr(dg, "_SPLIT_ABOVE", dg._MAX_DENSE)
        dense = evaluate(d, ctx).data
        scale = max(np.max(np.abs(dense)), 1.0)
        assert np.max(np.abs(split - dense)) <= 1e-12 * scale, label
        n += 1
    assert n > 200


# -- planner, deferred factors and the result budget ----------------------


def flat_einsum(d: Diagram, ctx: MeasureContext, fuse_white: bool = False) -> Tensor:
    """The diagram's tensor as one ``np.einsum`` over dense generator tensors.

    Every wire is one index, and each boundary position gets its own
    output axis through an identity.  With ``fuse_white`` every white dot
    enters as the diagonal of its dense tensor on one index that all its
    wires share, which is the same tensor written with a repeated index;
    this keeps large normal forms under numpy's limit of 52 indices.
    """
    D = d.dim
    port_edge = {port: e for e, edge in enumerate(d.edges) for port in edge}
    parent = list(range(len(d.edges)))

    def find(e: int) -> int:
        while parent[e] != e:
            e = parent[e]
        return e

    if fuse_white:
        for name, gen in d.nodes.items():
            if gen.kind == "white":
                for leg in range(1, gen.degree):
                    parent[find(port_edge[(name, leg)])] = find(port_edge[(name, 0)])
    labels: dict[int, int] = {}

    def label(e: int) -> int:
        return labels.setdefault(find(e), len(labels))

    operands: list = []
    for name, gen in d.nodes.items():
        arr = eval_generator(ctx, gen).data
        legs = [label(port_edge[(name, leg)]) for leg in range(gen.degree)]
        if fuse_white and gen.kind == "white" and gen.degree:
            arr, legs = arr[(np.arange(D),) * gen.degree], legs[:1]
        operands += [arr, legs]
    sides = (("out", d.n_outputs), ("in", d.n_inputs))
    wires = [label(port_edge[(side, pos)]) for side, count in sides for pos in range(count)]
    axes = list(range(len(labels), len(labels) + len(wires)))
    for axis, wire in zip(axes, wires):
        operands += [np.eye(D), [axis, wire]]
    return Tensor(D, d.n_inputs, d.n_outputs, np.einsum(*operands, axes, optimize=True))


def hub_diagram(rng: np.random.Generator, dim: int, n_hubs: int, n_users: int, n_in: int, n_out: int):
    """White hubs joined by rank-2 and rank-3 users that tie on rank."""
    makers = [
        Generator.hplus,
        Generator.hminus,
        lambda: Generator.not_dot(1),
        lambda: Generator.hbox(Phase(0.4), 0, 2),
        lambda: Generator.gray(0, 3),
        lambda: Generator.red(Stab(1, 1), 0, 3),
    ]
    b = DiagramBuilder(dim)
    attach: list[list] = [[] for _ in range(n_hubs)]
    for _ in range(n_users):
        gen = makers[int(rng.integers(len(makers)))]()
        name = b.node(gen)
        for leg in range(gen.degree):
            attach[int(rng.integers(n_hubs))].append((name, leg))
    for side, count in (("out", n_out), ("in", n_in)):
        for pos in range(count):
            attach[int(rng.integers(n_hubs))].append((side, pos))
    for ports in attach:
        hub = b.node(Generator.white(0, len(ports)))
        for port in ports:
            b.wire(hub, port)
    return b.build()


def tied_hub_diagram(dim: int) -> Diagram:
    """Two white hubs sharing six rank-2 users, plus one boundary leg each."""
    b = DiagramBuilder(dim)
    users = [
        Generator.hplus(),
        Generator.hminus(),
        Generator.not_dot(1),
        Generator.not_dot(dim - 1),
        Generator.hbox(Phase(0.9), 1, 1),
        Generator.red(Stab(1, 0), 1, 1),
    ]
    top = b.node(Generator.white(1, len(users)))
    bottom = b.node(Generator.white(len(users), 1))
    b.wire("out", top)
    for gen in users:
        name = b.node(gen)
        b.wire(top, name)
        b.wire(name, bottom)
    b.wire(bottom, "in")
    return b.build()


def random_tensor(rng: np.random.Generator, dim: int, n_in: int, n_out: int) -> Tensor:
    shape = (dim,) * (n_in + n_out)
    return Tensor(dim, n_in, n_out, rng.normal(size=shape) + 1j * rng.normal(size=shape))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n_in,n_out", [(0, 1), (1, 0), (1, 1), (0, 2), (2, 0)])
def test_normal_forms_match_flat_einsum(dim: int, n_in: int, n_out: int) -> None:
    ctx = MeasureContext(dim)
    rng = np.random.default_rng([17, dim, n_in, n_out])
    d = normal_form(random_tensor(rng, dim, n_in, n_out), ctx)
    want = flat_einsum(d, ctx, fuse_white=len(d.edges) + n_in + n_out > 52)
    got = evaluate(d, ctx)
    assert max_abs_diff(got, want) / np.max(np.abs(want.data)) < 1e-10


@pytest.mark.parametrize("dim", [2, 3])
def test_hub_diagrams_match_flat_einsum(dim: int) -> None:
    ctx = MeasureContext(dim)
    d = tied_hub_diagram(dim)
    assert max_abs_diff(evaluate(d, ctx), flat_einsum(d, ctx)) < 1e-10
    rng = np.random.default_rng(40 + dim)
    for trial in range(6):
        d = hub_diagram(rng, dim, int(rng.integers(3, 6)), int(rng.integers(3, 7)), 1, 1)
        want = flat_einsum(d, ctx)
        assert max_abs_diff(evaluate(d, ctx), want) < 1e-10 * max(1.0, np.max(np.abs(want.data)))


AMPS = [One(), Phase(0.7), Stab(1, 2), Char(1), UnitPow(1.1 - 0.2j)]
KINDS = ["white", "green", "red", "gray", "hbox", "hplus", "hminus", "not"]


@st.composite
def small_wirings(draw, max_nodes: int = 4, min_nots: int = 0) -> tuple:
    """A valid wiring at D=2..4, ``(dim, nodes, edges, n_in, n_out)``: a
    red or gray dot and up to ``max_nodes`` more nodes, ``min_nots`` of
    them or more not dots, wired at random, with 0..2 inputs.  It can
    hold rank-0 nodes of every kind, red and gray dots of degree 0..6,
    self-loops, parallel edges and boundary-to-boundary wires."""
    dim = draw(st.integers(2, 4))
    kinds = [draw(st.sampled_from(["red", "gray"]))] + ["not"] * min_nots
    kinds += draw(st.lists(st.sampled_from(KINDS), max_size=max_nodes - min_nots))
    nodes: dict = {}
    for k, kind in enumerate(kinds):
        if kind in ("hplus", "hminus", "not"):
            gen = Generator.not_dot(draw(st.integers(0, dim - 1))) if kind == "not" else Generator(kind, 1, 1)
        else:
            deg = draw(st.integers(0, 6 if kind in ("red", "gray") else 3))
            m = draw(st.integers(0, deg))
            amp = draw(st.sampled_from(AMPS)) if kind in ("green", "red", "hbox") else None
            gen = Generator(kind, m, deg - m, amp=amp)
        nodes[f"{kind}{k}"] = gen
    n_in, n_out = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    ports = [(name, leg) for name, gen in nodes.items() for leg in range(gen.degree)]
    ports += [("in", i) for i in range(n_in)] + [("out", j) for j in range(n_out)]
    if len(ports) % 2:
        nodes["pad"] = Generator.white(0, 1)
        ports.append(("pad", 0))
    ports = draw(st.permutations(ports))
    return dim, nodes, tuple(zip(ports[::2], ports[1::2])), n_in, n_out


def small_diagrams(max_nodes: int = 4, min_nots: int = 0):
    """The diagrams of ``small_wirings``, built through the builder."""
    return small_wirings(max_nodes, min_nots).map(lambda wiring: from_edges(*wiring))


@settings(max_examples=150, deadline=None)
@given(small_diagrams(), st.booleans(), st.sampled_from([None, 0.8]))
def test_random_diagrams_match_flat_einsum(d: Diagram, split_all: bool, nu: float | None) -> None:
    # on a cold plan cache, then on the plan it cached; with the default
    # factor modes and with every red and gray dot split
    ctx = MeasureContext(d.dim, nu)
    want = flat_einsum(d, ctx)
    split_above = 0 if split_all else dg._SPLIT_ABOVE
    with mock.patch.object(dg, "_PLANS", dg._PlanCache()), mock.patch.object(dg, "_SPLIT_ABOVE", split_above):
        cold = evaluate(d, ctx)
        assert len(dg._PLANS.plans) == 1
        warm = evaluate(d, ctx)
    assert warm.data.tobytes() == cold.data.tobytes()
    assert max_abs_diff(cold, want) <= 1e-10 * max(1.0, np.max(np.abs(want.data)))


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 8).flatmap(lambda nots: small_diagrams(max_nodes=8, min_nots=nots)), st.booleans(),
       st.sampled_from([None, 0.8]))
def test_random_not_chains_match_flat_einsum(d: Diagram, split_all: bool, nu: float | None) -> None:
    # up to nine nodes, two to eight of them not dots, wired at random: not
    # dots joined to each other make chains, which the planner absorbs as
    # relabellings, and cycles, which stay dense factors
    test_random_diagrams_match_flat_einsum.hypothesis.inner_test(d, split_all, nu)


def plan_steps(steps) -> list:
    """The steps of a plan from ``_plan`` as a list of ``(i, j, sublists)``, each sublist a list."""
    return [(i, j, [list(sub) for sub in subs]) for i, j, *subs in steps]


def order_digest(steps) -> str:
    return hashlib.sha256(repr(plan_steps(steps)).encode()).hexdigest()[:16]


def pinned_order_cases(ctx: MeasureContext) -> list:
    return [
        (tied_hub_diagram(3), "7840c334f1f011a9"),
        (hub_diagram(np.random.default_rng(8), 3, 3, 8, 1, 1), "492e459b47a5d045"),
        (normal_form(Tensor(3, 2, 2, np.ones((3,) * 4)), ctx), "16b8d669a8e448d2"),
        (normal_form(Tensor(3, 1, 2, np.ones((3,) * 3)), ctx), "20f7ffb10b52507e"),
        (instantiate("ZH-O", {}, ctx)[0], "6bea5aff6b31f0eb"),  # a scalar box and a gray hub
    ]


def test_contraction_order_is_pinned() -> None:
    # digests of every step (slots and index lists) of the greedy plan;
    # the order fixes the tensor bits, so a change of order must update
    # these knowingly
    for d, digest in pinned_order_cases(MeasureContext(3)):
        assert order_digest(dg._plan(dg._structure(d))[0]) == digest


def test_contraction_order_is_pinned_on_the_catalog_and_normal_forms() -> None:
    # one digest over the steps of the plans of both sides of every rule's
    # first draw at D=2..7, seeded as check_all seeds it with seed 0, and of
    # a normal form of each shape the normal-form benchmark draws (seed 1);
    # the catalog's part is pinned on its own too
    digests = []
    ids = sorted(CATALOG)
    for D in range(2, 8):
        ctx = MeasureContext(D)
        for key, rule_id in enumerate(ids):
            spec = CATALOG[rule_id]
            params = spec.sample(D, np.random.default_rng([0, key, D]))
            if params is None or (spec.dim_cap is not None and D > spec.dim_cap):
                continue
            for d in instantiate(spec, params, ctx):
                digests.append(order_digest(dg._plan(dg._structure(d))[0]))
    assert len(digests) == 720
    assert hashlib.sha256(" ".join(digests).encode()).hexdigest()[:16] == "611f4afaa3157aa2"
    shapes = [(D, m, n) for D in (2, 3, 4) for m in range(4) for n in range(4 - m)] + [(3, 2, 2), (4, 2, 2)]
    for D, m, n in shapes:
        rng = np.random.default_rng([1, D, m, n])
        size = (D,) * (m + n)
        d = normal_form(Tensor(D, m, n, rng.normal(size=size) + 1j * rng.normal(size=size)), MeasureContext(D))
        digests.append(order_digest(dg._plan(dg._structure(d))[0]))
    assert len(digests) == 752
    assert hashlib.sha256(" ".join(digests).encode()).hexdigest()[:16] == "5bf87fffc098907a"


# -- boundary positions ---------------------------------------------------


def delta_slots(d: Diagram) -> int:
    """How many boundary deltas the plan of ``d`` reads: its slots past the nodes' factors.

    A plan of no steps reads its one factor, in slot 0, as the result.
    """
    modes = [dg._factor_mode(gen, d.dim) for gen in d.nodes.values()]
    node_slots = sum(1 + gen.degree if mode == dg._SPLIT else 1 for gen, mode in zip(d.nodes.values(), modes))
    steps = plan_steps(dg._plan(dg._structure(d))[0])
    read = {k for i, j, _ in steps for k in (i, j)} if steps else {0}
    return len({k for k in read if k >= node_slots})


def boundary_cases(dim: int) -> list:
    """``(label, diagram, deltas)``: the boundary's edge cases and the deltas each plans."""

    def wired(nodes: dict, edges: list, n_in: int, n_out: int) -> Diagram:
        def port(ref: str) -> tuple:
            owner, _, idx = ref.rpartition(":")
            return owner, int(idx)

        return from_edges(dim, nodes, [(port(a), port(b)) for a, b in edges], n_in, n_out)

    fan = {"g": Generator.green(Phase(0.3), 1, 2)}
    return [
        ("bare wire", wired({}, [("in:0", "out:0")], 1, 1), 1),
        ("cup", wired({}, [("out:0", "out:1")], 0, 2), 1),
        ("cap", wired({}, [("in:0", "in:1")], 2, 0), 1),
        ("green fan-out", wired(fan, [("g:0", "out:0"), ("g:1", "out:1"), ("g:2", "in:0")], 1, 2), 2),
        ("red", wired({"r": Generator.red(Stab(1, 2), 1, 2)}, [("r:0", "out:1"), ("r:1", "in:0"), ("r:2", "out:0")],
                      1, 2), 0),
        ("gray with a loop", wired({"q": Generator.gray(2, 2)}, [("q:0", "q:3"), ("q:1", "in:0"), ("q:2", "out:0")],
                                   1, 1), 0),
        ("boundary wires only", wired({}, [("in:0", "out:1"), ("out:0", "in:1"), ("out:2", "out:3"),
                                           ("in:3", "in:2")], 4, 4), 4),
    ]


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("split_all", [False, True])
def test_boundary_edge_cases_match_flat_einsum(dim: int, split_all: bool) -> None:
    # each shape on a cold plan cache, then on the plan it cached; with
    # the default factor modes and with every red and gray dot split
    ctx = MeasureContext(dim)
    split_above = 0 if split_all else dg._SPLIT_ABOVE
    cases = boundary_cases(dim)
    with mock.patch.object(dg, "_PLANS", dg._PlanCache()), mock.patch.object(dg, "_SPLIT_ABOVE", split_above):
        for label, d, deltas in cases:
            assert delta_slots(d) == deltas, label
            cold = evaluate(d, ctx)
            warm = evaluate(d, ctx)
            assert warm.data.tobytes() == cold.data.tobytes(), label
            want = flat_einsum(d, ctx)
            assert max_abs_diff(cold, want) <= 1e-10 * max(1.0, np.max(np.abs(want.data))), label
        assert len(dg._PLANS.plans) == len(cases)


def test_boundary_on_node_legs_builds_no_delta(monkeypatch) -> None:
    # each boundary position lands on a wire of its own that a node
    # carries, so no plan has a delta slot and no evaluation builds one
    ctx = MeasureContext(3)
    eyes: list = []
    real = np.eye
    monkeypatch.setattr(np, "eye", lambda *args, **kwargs: eyes.append(args) or real(*args, **kwargs))
    diagrams = [
        param_diagram(3, 0.1, (1, 0), 1, 1.0),
        node_diagram(3, Generator.hbox(Phase(0.4), 2, 2)),
        normal_form(random_tensor(np.random.default_rng(3), 3, 1, 1), ctx),
    ]
    for d in diagrams:
        assert delta_slots(d) == 0
        for _ in range(2):
            evaluate(d, ctx)
    assert eyes == []
    # a not dot joins the tied hubs into one label, which out:0 takes;
    # in:0 reads it through the not's map, so it needs a permutation delta
    assert delta_slots(tied_hub_diagram(3)) == 1
    evaluate(boundary_cases(3)[0][1], ctx)
    assert eyes == [(3,)]  # a bare wire's delta goes through the same counter


def test_catalog_plans_take_boundary_labels() -> None:
    # integers only: the plan steps over both sides of one draw of every
    # rule at D=2..9.  One delta per boundary position made 3,741 steps,
    # a final reorder that left its factor as it was 2,374, not dots as
    # dense factors, with a trace step for each repeated label, 1,802,
    # and a reorder after the last merge, which now writes boundary order
    # itself, 1,703.  54 of the steps are ZX-MEH's and ZH-MEH's at D=8
    # and 9, uncapped
    total = sum(len(dg._plan(dg._structure(d))[0]) for _, d, _ in catalog_cases(range(2, 10)))
    assert total == 1480


def test_plans_reorder_only_to_move_axes(plan_calls) -> None:
    # a one-factor step always sums, traces or permutes; a factor already
    # in boundary order is the result as it stands, with no step at all;
    # and a plan with a merge ends in its last merge, which writes the
    # boundary order itself
    rng = np.random.default_rng(72)
    cases = [d for _, d, _ in catalog_cases(range(2, 10))] + [d for _, d, _ in boundary_cases(3)]
    cases += [normal_form(random_tensor(rng, dim, n_in, n_out), MeasureContext(dim))
              for dim in (2, 3, 4) for n_in, n_out in ((1, 0), (0, 2), (1, 1), (2, 1))]
    for d in cases:
        steps = plan_steps(dg._plan(dg._structure(d))[0])
        for i, j, subs in steps:
            assert j >= 0 or subs[0] != subs[1] or len(set(subs[0])) < len(subs[0])
        assert all(j < 0 for _, j, _ in steps) or steps[-1][1] >= 0
    ctx = MeasureContext(3)
    lone = [boundary_cases(3)[0][1], node_diagram(3, Generator.hbox(Phase(0.4), 1, 1)),
            node_diagram(3, Generator.white(0, 0))]
    for d in lone:
        assert dg._plan(dg._structure(d))[0] == ()
        assert evaluate(d, ctx).data.tobytes() == flat_einsum(d, ctx).data.tobytes()
    assert len(dg._PLANS.plans) == 3 and dg._PLANS.size == 3  # one layout or one delta each, no step


@pytest.mark.parametrize("rid", ["ZH-O", "ZH-ZPL"])
def test_widest_rules_plan_about_their_output(rid) -> None:
    # integers only: each step writes D^len(out) entries, and the 8-leg
    # output alone is 7^8 = 5.76 M of them
    spec = CATALOG[rid]
    ctx = MeasureContext(7)
    for d in instantiate(spec, spec.sample(7, np.random.default_rng(0)), ctx):
        written = 0
        for i, j, subs in plan_steps(dg._plan(dg._structure(d))[0]):
            written += 7 ** len(subs[-1])
            if j >= 0:
                low, high = sorted(map(len, subs[:2]))
                assert low > 0 or high <= 2, (i, j, subs)  # a scalar meets only a small factor
        assert written <= 13_000_000


def absorbed_nots(d: Diagram) -> set:
    """The indices of the not dots that the plan of ``d`` reads as relabellings."""
    return {k for _, k in dg._plan(dg._structure(d))[4]}


def test_dense_factors_are_built_once(monkeypatch) -> None:
    # a dense node with an amplitude is built once; equal parameter-free
    # generators (not, hplus, hminus, gray) on equal legs share one
    # array, built once per evaluation; an absorbed not dot is never built
    ctx = MeasureContext(3)
    rng = np.random.default_rng(5)
    diagrams = [
        normal_form(random_tensor(rng, 3, 1, 1), ctx),
        tied_hub_diagram(3),
        hub_diagram(rng, 3, 3, 8, 1, 1),
    ]
    built: Counter = Counter()
    real = dg.generator_entries

    def counting(ctx, gen, legs=None):
        built[id(gen) if gen.amp is not None else (gen, legs and tuple((x.shape, x.tobytes()) for x in legs))] += 1
        return real(ctx, gen, legs)

    monkeypatch.setattr(dg, "generator_entries", counting)
    shared = 0
    for d in diagrams:
        skip = absorbed_nots(d)
        dense = [g for k, g in enumerate(d.nodes.values()) if g.kind not in ("white", "green") and k not in skip]
        for _ in range(2):
            built.clear()
            evaluate(d, ctx)
            assert set(built.values()) == {1}
            assert Counter(k for k in built if type(k) is int) == Counter(id(g) for g in dense if g.amp is not None)
            assert {k[0] for k in built if type(k) is tuple} == {g for g in dense if g.amp is None}
        shared += sum(g.amp is None for g in dense) - sum(type(k) is tuple for k in built)
    assert shared > 0
    # every not dot of the normal form is a relabelling; of the tied hubs'
    # two, the one that closes their cycle is a factor
    nots = [k for k, g in enumerate(diagrams[0].nodes.values()) if g.kind == "not"]
    assert len(nots) == 12 and absorbed_nots(diagrams[0]) == set(nots)
    assert len(absorbed_nots(diagrams[1])) == 1


def test_equal_diagonal_dots_share_one_weight(monkeypatch) -> None:
    ctx = MeasureContext(3)
    d = normal_form(random_tensor(np.random.default_rng(6), 3, 1, 1), ctx)
    want = evaluate(d, ctx)
    built: Counter = Counter()
    real = dg.diagonal_weight

    def counting(ctx, gen):
        built[gen] += 1
        return real(ctx, gen)

    monkeypatch.setattr(dg, "diagonal_weight", counting)
    got = evaluate(d, ctx)
    assert np.array_equal(got.data, want.data)
    whites = [g for g in d.nodes.values() if g.kind == "white"]
    assert built == Counter(set(whites)) and len(whites) > len(set(whites))


def test_normal_form_evaluation_memory_stays_small() -> None:
    # 81 selectors, each with a 6561-entry H-box; built on first use, only
    # a few of them exist at once
    ctx = MeasureContext(3)
    t = random_tensor(np.random.default_rng(9), 3, 2, 2)
    d = normal_form(t, ctx)
    tracemalloc.start()
    try:
        got = evaluate(d, ctx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert max_abs_diff(got, t) / np.max(np.abs(t.data)) < 1e-8
    assert peak < 4_000_000


def test_legless_red_dot_builds_no_square_table() -> None:
    # nu^2 * sum_j A(j); the D x D phase table it once built held 275 MiB at D=3000
    b = DiagramBuilder(3000)
    b.node(Generator.red(One(), 0, 0))
    d = b.build()
    ctx = MeasureContext(3000)
    tracemalloc.start()
    try:
        got = evaluate(d, ctx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert abs(got.data.reshape(()) - 3000 * ctx.nu**2) < 1e-9
    assert peak < 5 * 2**20


@pytest.mark.parametrize("gen, nu, what", [
    (Generator.green(Table([1e308] * 3), 0, 0), None, "the weight of a legless green dot leaves the float range"),
    # the true weight is about 5.8e307, but the sum in order leaves the float range
    (Generator.green(Table([1e308, 1e308, -1e308]), 0, 0), None,
     "the weight of a legless green dot leaves the float range"),
    # the weight, built at nu=1, is 3; the side's nu^2 = 1e308 times it is not in range
    (Generator.white(0, 0), 1e154, "a side times nu\\^2 at nu=1e\\+154 leaves the float range"),
], ids=["green", "green-cancelling", "white"])
def test_legless_dot_past_the_float_range_raises(gen, nu, what) -> None:
    b = DiagramBuilder(3)
    b.node(gen, "dot")
    with pytest.raises(OverflowGuardError, match=what):
        evaluate(b.build(), MeasureContext(3, nu))


@pytest.mark.parametrize("matmul_min", [1, None], ids=["all-matmul", "default"])
def test_result_budget_refuses_wide_results(monkeypatch, matmul_min) -> None:
    # one guard for both kernels, checked before either allocates
    if matmul_min is not None:
        monkeypatch.setattr(dg, "_MATMUL_MIN", matmul_min)
    b = DiagramBuilder(2)
    for _ in range(3):
        b.wire("in", "out")
    d = b.build()
    ctx = MeasureContext(2)
    sizes: list = []
    for name in ("einsum", "matmul", "multiply"):
        real = getattr(np, name)

        def recording(*args, _real=real, _name=name, **kwargs):
            out = _real(*args, **kwargs)
            sizes.append((_name, np.size(out)))
            return out

        monkeypatch.setattr(np, name, recording)
    monkeypatch.setattr(dg, "_MAX_RESULT", 2**6)
    assert np.allclose(evaluate(d, ctx).as_matrix(), np.eye(8))
    kernels = {name for name, _ in sizes}
    assert bool(kernels & {"matmul", "multiply"}) == (matmul_min == 1)
    sizes.clear()
    monkeypatch.setattr(dg, "_MAX_RESULT", 2**6 - 1)
    with pytest.raises(OverflowGuardError, match="exceeds"):
        evaluate(d, ctx)
    assert all(size <= 2**6 - 1 for _, size in sizes)


def catalog_cases(dims):
    """Both sides of one sampled instance of every rule at each D in ``dims``."""
    for rule_key, rid in enumerate(sorted(CATALOG)):
        spec = CATALOG[rid]
        for dim in dims:
            if spec.dim_cap is not None and dim > spec.dim_cap:
                continue
            params = spec.sample(dim, np.random.default_rng([rule_key, dim]))
            if params is not None:
                ctx = MeasureContext(dim)
                for side, d in zip("lr", instantiate(spec, params, ctx)):
                    yield f"{rid} D={dim} {side}", d, ctx


def kernel_cases():
    """Both sides of one sampled instance of every rule at D=2..6, hub
    diagrams, and normal forms at D=2..4."""
    yield from catalog_cases(range(2, 7))
    for dim in (2, 3):
        ctx = MeasureContext(dim)
        yield f"tied hub D={dim}", tied_hub_diagram(dim), ctx
        rng = np.random.default_rng(70 + dim)
        for k in range(3):
            yield f"hub D={dim} #{k}", hub_diagram(rng, dim, 3, 8, 1, 1), ctx
    rng = np.random.default_rng(71)
    for dim in (2, 3, 4):
        ctx = MeasureContext(dim)
        for n_in, n_out in ((1, 0), (0, 2), (1, 1), (2, 1)):
            d = normal_form(random_tensor(rng, dim, n_in, n_out), ctx)
            yield f"normal form D={dim} {n_in}->{n_out}", d, ctx


def test_matmul_and_einsum_kernels_agree(monkeypatch) -> None:
    # every pairwise step as matmul, then every one as einsum: the same
    # order and operands, so the tensors differ only by rounding
    n = 0
    for label, d, ctx in kernel_cases():
        monkeypatch.setattr(dg, "_MATMUL_MIN", 1)
        wide = evaluate(d, ctx).data
        monkeypatch.setattr(dg, "_MATMUL_MIN", 1 << 200)
        narrow = evaluate(d, ctx).data
        # relative to the largest entry, or to 1 for a side that is 0 up
        # to rounding
        scale = max(np.max(np.abs(narrow)), 1.0)
        assert np.max(np.abs(wide - narrow)) <= 1e-12 * scale, label
        n += 1
    assert n > 500


@pytest.mark.parametrize(
    "sa,sb,so",
    [
        ([0, 1, 2, 3], [2, 0, 4, 1], [4, 0, 3]),  # batch 0, summed 1 2, free 3 | 4
        ([0, 1, 2], [2, 1], [0]),  # free labels in a only
        ([0], [1, 0, 2], [2, 1]),  # free labels in b only
        ([0, 1], [2], [2, 0, 1]),  # no shared label: an outer product
        ([0, 1], [1, 2, 0], [2, 1, 0]),  # batch and free, nothing summed
        ([], [0, 1], [1, 0]),  # rank-0 a
        ([0, 1], [], [1, 0]),  # rank-0 b
        ([], [], []),  # two scalars
        ([0, 1], [1, 0], []),  # all summed: a scalar result
        ([0, 1, 2], [1, 2, 0], [2, 0, 1]),  # all batch: an entrywise product
    ],
)
def test_matmul_kernel_matches_einsum(monkeypatch, sa, sb, so) -> None:
    monkeypatch.setattr(dg, "_MATMUL_MIN", 1)
    rng = np.random.default_rng(3)
    dim = 3

    def operand(rank):
        shape = (dim,) * rank
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    a, b = operand(len(sa)), operand(len(sb))
    want = np.einsum(a, sa, b, sb, so)
    # contiguous operands, then transposed views of them
    for x, sx, y, sy in ((a, sa, b, sb), (a.T, sa[::-1], b.T, sb[::-1])):
        got = dg._pairwise(dim, x, sx, y, sy, so)
        assert got.shape == (dim,) * len(so)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_a_large_merge_sums_on_matmul_and_multiplies_where_nothing_is_summed(monkeypatch) -> None:
    # a merge that sums no label is one broadcast np.multiply, not a
    # matmul of inner size 1 (on the last step of ZH-O's whole right side
    # at D=6, one CPU: 0.79 ms against the zgemm's 1.4 ms); a merge that
    # sums is one np.matmul
    monkeypatch.setattr(dg, "_MATMUL_MIN", 1)
    calls: list = []
    for name in ("matmul", "multiply"):
        real = getattr(np, name)
        monkeypatch.setattr(np, name, lambda *args, _real=real, _name=name, **kwargs:
                            calls.append(_name) or _real(*args, **kwargs))
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=(3, 3, 3)) + 1j, rng.normal(size=(3, 3)) - 1j
    for sa, sb, so, kernel in [([0, 1, 2], [2, 3], [0, 1, 3], "matmul"), ([0, 1, 2], [2, 3], [3, 0, 2, 1], "multiply"),
                               ([0, 1, 2], [3, 4], [4, 0, 1, 2, 3], "multiply")]:
        calls.clear()
        got = dg._pairwise(3, a, sa, b, sb, so)
        assert calls == [kernel], (sa, sb, so)
        assert np.allclose(got, np.einsum(a, sa, b, sb, so), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("sa,sb,so", [([0, 1, 2, 3], [2, 0, 4, 1], [4, 0, 3]), ([0, 1], [2], [2, 0, 1]),
                                      ([], [0, 1], [1, 0]), ([0, 1], [1, 0], [])])
@pytest.mark.parametrize("stacked", ["a", "b", "ab"])
def test_matmul_kernel_broadcasts_the_batch_axis(monkeypatch, sa, sb, so, stacked) -> None:
    # one np.matmul over the batch gives each entry the bits of its step alone
    monkeypatch.setattr(dg, "_MATMUL_MIN", 1)
    rng = np.random.default_rng(4)
    dim, n = 3, 4

    def operand(rank, stack):
        shape = (n,) * stack + (dim,) * rank
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    a, b = operand(len(sa), "a" in stacked), operand(len(sb), "b" in stacked)
    got = dg._pairwise(dim, a, sa, b, sb, so)
    assert got.shape == (n,) + (dim,) * len(so)
    for k in range(n):
        alone = dg._pairwise(dim, a[k] if "a" in stacked else a, sa, b[k] if "b" in stacked else b, sb, so)
        assert got[k].tobytes() == alone.tobytes()


@pytest.mark.parametrize("rid", ["ZH-O", "ZH-ZPL"])
def test_widest_rules_evaluate_byte_identically(rid) -> None:
    spec = CATALOG[rid]
    ctx = MeasureContext(6)
    params = spec.sample(6, np.random.default_rng(0))
    for d in instantiate(spec, params, ctx):
        assert evaluate(d, ctx).data.tobytes() == evaluate(d, ctx).data.tobytes()


# -- not dots as relabellings ---------------------------------------------


def not_cases(dim: int, cs: tuple[int, int, int] = (1, 2, -1)) -> list:
    """``(label, diagram, absorbed, deltas)``: not dots in each place the
    planner tells apart, with the number of them it absorbs and of the
    boundary deltas it plans; ``cs`` are the not constants."""
    c1, c2, c3 = cs
    cases = []

    def case(label: str, b: DiagramBuilder, absorbed: int, deltas: int) -> None:
        cases.append((label, b.build(), absorbed, deltas))

    b = DiagramBuilder(dim)
    b.chain([Generator.not_dot(c1), Generator.not_dot(c2), Generator.not_dot(c3)])
    case("a chain between two boundary positions", b, 3, 2)
    b = DiagramBuilder(dim)
    b.chain([Generator.not_dot(c1), Generator.not_dot(c2), Generator.hbox(UnitPow(0.3 + 0.4j), 1, 1)])
    case("a chain into an H-box", b, 2, 0)
    b = DiagramBuilder(dim)
    copy, total = b.node(Generator.white(1, 2)), b.node(Generator.green(Phase(0.4), 2, 1))
    b.wire("in", copy)
    for c in (c1, c2):
        nd = b.node(Generator.not_dot(c))
        b.wire(copy, nd)
        b.wire(nd, total)
    b.wire(total, "out")
    case("a not closing a cycle", b, 1, 1)
    b = DiagramBuilder(dim)
    nd = b.node(Generator.not_dot(c1))
    b.wire(nd, nd)
    b.wire(b.node(Generator.green(Phase(0.3), 0, 1)), "out")
    case("a self-looped not", b, 0, 0)
    b = DiagramBuilder(dim)
    for (end_a, end_b), c in ((("out", "out"), c1), (("in", "in"), c2), (("in", "out"), c3)):
        nd = b.node(Generator.not_dot(c))
        b.wire(end_a, nd)
        b.wire(nd, end_b)
    case("nots between boundary positions", b, 3, 6)
    b = DiagramBuilder(dim)
    nd, copy = b.node(Generator.not_dot(c1)), b.node(Generator.white(1, 2))
    box = b.node(Generator.hbox(Phase(0.7), 2, 1))
    b.wire("in", nd)
    b.wire(nd, copy)
    b.wire(copy, box)
    b.wire(copy, box)
    b.wire(box, "out")
    case("a not feeding an H-box twice through a copy dot", b, 1, 0)
    b = DiagramBuilder(dim)
    hub = b.node(Generator.gray(1, 3))
    b.wire("in", hub)
    for gen in (Generator.not_dot(c1), Generator.hplus(), Generator.red(Stab(1, 1), 1, 1)):
        nd, user = b.node(Generator.not_dot(c2)), b.node(gen)
        b.wire(hub, nd)
        b.wire(nd, user)
        b.wire(user, "out")
    case("nots between a gray hub and its users", b, 4, 0)
    return cases


def test_only_a_not_dot_kept_as_a_factor_counts_toward_the_dense_budget(monkeypatch) -> None:
    # a lone not dot between an input and an output is a relabelling and
    # builds no array; a self-looped one is a factor on its one label, D
    # entries, and evaluates to its trace: the number of x with 2x + c = 0
    # (mod D); it is refused once D passes _MAX_DENSE
    dim = 2000
    b = DiagramBuilder(dim)
    b.chain([Generator.not_dot(3)])
    lone = b.build()
    assert dg._plan(dg._structure(lone))[2:4] == (0, -1)
    got = evaluate(lone, MeasureContext(dim)).data
    assert got.shape == (dim, dim) and np.count_nonzero(got) == dim
    looped = {}
    for c, trace in ((3, 0), (4, 2)):
        b = DiagramBuilder(dim)
        nd = b.node(Generator.not_dot(c))
        b.wire(nd, nd)
        looped[c] = b.build()
        assert dg._plan(dg._structure(looped[c]))[2:4] == (1, 0)
        assert evaluate(looped[c], MeasureContext(dim)).data == trace
    monkeypatch.setattr(dg, "_MAX_DENSE", dim - 1)
    evaluate(lone, MeasureContext(dim))
    with pytest.raises(OverflowGuardError, match=f"^node 'not0': not of degree 2 on 1 label too large at D={dim}$"):
        evaluate(looped[3], MeasureContext(dim))


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("nu", [None, 0.8])
@pytest.mark.parametrize("split_all", [False, True])
def test_not_dots_match_flat_einsum(dim: int, nu: float | None, split_all: bool) -> None:
    # each shape on a cold plan cache, then on the plan it cached; with
    # the default factor modes and with every red and gray dot split
    # where its split form is smaller
    ctx = MeasureContext(dim, nu)
    split_above = 0 if split_all else dg._SPLIT_ABOVE
    with mock.patch.object(dg, "_PLANS", dg._PlanCache()), mock.patch.object(dg, "_SPLIT_ABOVE", split_above):
        for label, d, absorbed, deltas in not_cases(dim):
            assert (len(absorbed_nots(d)), delta_slots(d)) == (absorbed, deltas), label
            cold = evaluate(d, ctx)
            warm = evaluate(d, ctx)
            assert warm.data.tobytes() == cold.data.tobytes(), label
            want = flat_einsum(d, ctx)
            assert max_abs_diff(cold, want) <= 1e-10 * max(1.0, np.max(np.abs(want.data))), label


@pytest.mark.parametrize("split_all", [False, True])
def test_a_batch_with_differing_not_constants_gives_each_diagrams_bits(split_all: bool) -> None:
    # the constants set the maps' offsets, so the factors they feed are
    # stacked per diagram; each entry of the executor's batch still has
    # the bits its diagram has alone
    dim = 4
    ctx = MeasureContext(dim)
    rng = np.random.default_rng(12)
    draws = [tuple(int(c) for c in rng.integers(-dim, 2 * dim, size=3)) for _ in range(6)]
    with mock.patch.object(dg, "_SPLIT_ABOVE", 0 if split_all else dg._SPLIT_ABOVE):
        for k, (label, *_) in enumerate(not_cases(dim)):
            ds = [not_cases(dim, cs)[k][1] for cs in draws]
            _, steps, layout, _ = dg._checked_plan(ds[0], ctx)
            (batch,) = dg._execute(steps, layout, ds, ctx)
            assert batch.shape[0] == len(ds), label
            got = [entry.tobytes() for entry in batch]
            assert got == [evaluate(d, ctx).data.tobytes() for d in ds], label
            assert len(set(got)) > 1, label  # the constants did reach the tensors


def test_a_split_form_is_used_only_where_it_is_smaller() -> None:
    # at D=23 every dot below has more than _SPLIT_ABOVE dense entries: a
    # gray dot of degree 2, or a red one with its 23 x 23 character table,
    # holds no more dense than split (23 + 2 * 23^2 entries); a dot of
    # degree 3 holds far more
    ctx = MeasureContext(23)
    for gen, mode in [
        (Generator.gray(1, 1), dg._DENSE),
        (Generator.red(Stab(1, 2), 1, 1), dg._DENSE),
        (Generator.red(Stab(1, 2), 1, 2), dg._SPLIT),
        (Generator.gray(2, 1), dg._SPLIT),
    ]:
        assert dg._factor_mode(gen, 23) == mode, gen
        d = node_diagram(23, gen)
        want = flat_einsum(d, ctx)
        assert max_abs_diff(evaluate(d, ctx), want) <= 1e-10 * max(1.0, np.max(np.abs(want.data))), gen
    # a red dot of degree 1 past _SPLIT_ABOVE holds D + D^2 entries split,
    # and its table and weight vector as well dense
    assert dg._factor_mode(Generator.red(Phase(0.3), 0, 1), 600) == dg._SPLIT
    assert dg._factor_mode(Generator.gray(0, 1), 600) == dg._DENSE


# -- tiles ----------------------------------------------------------------


def tile_slices(shape: tuple) -> Iterator[tuple]:
    """The index into a side of ``shape`` that each of its tiles stands
    for, in stream order: the fewest k >= 1 leading positions that leave
    at most ``_TILE`` entries a value of position 0, position 0 in runs of
    as many values as fit (at least one), positions 1..k-1 one value each."""
    D, n = shape[0], len(shape)
    k = min(k for k in range(1, n + 1) if D ** (n - k) <= dg._TILE)
    run = max(dg._TILE // D ** (n - 1), 1)
    for lo in range(0, D, run):
        for idx in np.ndindex(shape[1:k]):
            yield (slice(lo, lo + run), *idx)


def side_tiles(d: Diagram, ctx: MeasureContext) -> Iterator[np.ndarray]:
    """``dg._tiles`` of ``d`` alone, a batch of one."""
    _, steps, layout, _ = dg._checked_plan(d, ctx)
    return dg._tiles([d], (steps, layout), ctx)


def assert_tiles_are_slices(d: Diagram, ctx: MeasureContext, rel: float = 0.0) -> None:
    """The n-th tile of ``dg._tiles`` is the n-th of ``tile_slices`` of
    ``evaluate(d, ctx).data``: bit for bit, or with ``rel`` > 0 within
    ``rel`` of the largest entry (or of 1)."""
    whole = evaluate(d, ctx).data
    scale = max(1.0, np.max(np.abs(whole)))
    for number, (got, idx) in enumerate(zip(side_tiles(d, ctx), tile_slices(whole.shape), strict=True)):
        assert got.shape == whole[idx].shape, number
        if rel:
            assert np.max(np.abs(got - whole[idx]), initial=0.0) <= rel * scale, number
        else:
            assert np.asarray(got).tobytes() == whole[idx].tobytes(), number


@pytest.mark.parametrize("rid", ["ZH-O", "ZH-ZPL"])
@pytest.mark.parametrize("dim", [6, 7])
def test_blocks_of_widest_rules_are_slices(rid, dim) -> None:
    # every step but the last runs once, and each tile of the left side
    # runs the last step's matmul on the same values as the whole step:
    # the same bits, at the cut a check makes (one value of position 0
    # at D=6, and of positions 0..2 at D=7) and at D=6 at the next one.
    # The right side's last step sums no label, so its tiles are
    # np.multiply's outer products, which can round apart from the whole
    # side's matmul of inner size 1
    spec = CATALOG[rid]
    ctx = MeasureContext(dim)
    for tile in [dg._TILE, 6**5] if dim == 6 else [dg._TILE]:
        with mock.patch.object(dg, "_TILE", tile):
            for side, d in enumerate(instantiate(spec, spec.sample(dim, np.random.default_rng(0)), ctx)):
                assert_tiles_are_slices(d, ctx, rel=side * 1e-15)


def test_blocks_of_a_wide_random_diagram_are_slices() -> None:
    # 3^13 entries, past _TILE, on hubs the greedy order picks; its tiles
    # at the _TILE cut (3^10 entries, three positions), at two positions,
    # and at one in runs of two values
    ctx = MeasureContext(3)
    rng = np.random.default_rng(23)
    assert 3**13 > dg._TILE
    for _ in range(2):
        d = hub_diagram(rng, 3, 4, 10, 6, 7)
        for tile in (dg._TILE, 3**11, 2 * 3**12):
            with mock.patch.object(dg, "_TILE", tile):
                assert_tiles_are_slices(d, ctx, rel=1e-12)


@settings(max_examples=150, deadline=None)
@given(small_diagrams().filter(lambda d: d.n_inputs + d.n_outputs >= 1), st.sampled_from([1, 2, 3, 8, 30, None]),
       st.booleans(), st.sampled_from([None, 1]))
def test_random_diagram_blocks_are_slices(d: Diagram, tile: int | None, split_all: bool,
                                          matmul_min: int | None) -> None:
    # any boundary of one leg or more, cut at any position by the tile
    # size, in runs or one value a tile: the cut labels on either operand
    # or both, with or without a final reorder, the whole side on either
    # kernel, or no pairwise step.  Without one, a tile is a copy of the
    # whole side's slice.  With one, a tile runs on matmul or np.multiply,
    # so it may round apart from a slice of a whole side made on np.einsum,
    # and even on matmul: a tile of few rows may run as another BLAS call
    ctx = MeasureContext(d.dim)
    split_above = 0 if split_all else dg._SPLIT_ABOVE
    with mock.patch.object(dg, "_SPLIT_ABOVE", split_above), \
            mock.patch.object(dg, "_MATMUL_MIN", matmul_min or dg._MATMUL_MIN), \
            mock.patch.object(dg, "_TILE", tile or dg._TILE):
        copies = all(step[1] < 0 for step in dg._checked_plan(d, ctx)[1][-2:])
        assert_tiles_are_slices(d, ctx, rel=0.0 if copies else 1e-12)


@st.composite
def wide_pairs(draw) -> tuple[Diagram, Diagram]:
    """Two diagrams of one ``small_wirings`` draw with two or more boundary
    legs: its nodes and boundary, wired once as drawn and once at random."""
    dim, nodes, edges, n_in, n_out = draw(small_wirings().filter(lambda w: w[3] + w[4] >= 2))
    ends = draw(st.permutations([end for edge in edges for end in edge]))
    return (from_edges(dim, nodes, edges, n_in, n_out),
            from_edges(dim, nodes, tuple(zip(ends[::2], ends[1::2])), n_in, n_out))


@settings(max_examples=150, deadline=None)
@given(wide_pairs(), st.integers(1, 3), st.data(), st.sampled_from([1, 8, None]), st.sampled_from([None, 0.8]))
def test_random_pairs_compare_in_tiles_as_whole(pair, count: int, data, tile: int | None, nu: float | None) -> None:
    # one to three pairs, run as one batch a side: the drawn pair, then
    # its wirings with each amplitude and not constant drawn again.  With
    # tiles of one entry, of up to 8, or of the default size (one tile
    # here), each error is that of its two whole sides, within rounding:
    # the sides' last steps may run on einsum when whole, and a batch may
    # sum in another order
    lhs, rhs = pair
    pairs = [pair] + [(redrawn(data.draw, lhs), redrawn(data.draw, rhs)) for _ in range(count - 1)]
    ctx = MeasureContext(lhs.dim, nu)
    with mock.patch.object(dg, "_TILE", tile or dg._TILE):
        got = list(max_abs_diffs(pairs, ctx))
    assert len(got) == count
    for err, sides in zip(got, pairs):
        left, right = (evaluate(d, ctx) for d in sides)
        want = max_abs_diff(left, right)
        scale = max(1.0, np.max(np.abs(left.data)), np.max(np.abs(right.data)))
        assert abs(err - want) <= 1e-12 * scale, (err, want)


def test_tiled_comparison_refuses_pairs_of_other_boundaries() -> None:
    # a pair of legless sides has one tile, and is compared
    ctx = MeasureContext(3)
    with pytest.raises(ShapeError, match="differ in their boundary"):
        list(max_abs_diffs([(node_diagram(3, Generator.white(1, 1)), node_diagram(3, Generator.white(2, 0)))], ctx))
    pair = node_diagram(3, Generator.white(0, 0)), node_diagram(3, Generator.green(Phase(0.3), 0, 0))
    (tile,) = side_tiles(pair[0], ctx)
    assert tile.shape == ()
    (err,) = max_abs_diffs([pair], ctx)
    assert err > 0 and err == max_abs_diff(*(evaluate(d, ctx) for d in pair))


def test_a_batch_whose_sides_disagree_on_the_batch_axis(monkeypatch) -> None:
    # ZX-PU's left sides are stacked on a batch axis, its right side, the
    # empty diagram, has none; and a run whose left side is one diagram,
    # shared, and whose right side varies.  Each error is that of its pair
    # alone, bit for bit
    ctx = MeasureContext(3)
    spec = CATALOG["ZX-PU"]
    rng = np.random.default_rng(4)
    pu = [instantiate(spec, spec.sample(3, rng), ctx) for _ in range(5)]
    wire = node_diagram(3, Generator.green(Phase(0.4), 1, 1))
    shared = [(wire, node_diagram(3, Generator.green(Phase(t), 1, 1))) for t in (0.1, 0.4, 2.0)]
    want = [max_abs_diff(*(evaluate(d, ctx) for d in pair)) for pair in pu + shared]
    real, streams = dg._tiles, []  # the shape of each tile, a list per stream

    def tiles(ds, plan, ctx):
        streams.append([])
        for x in real(ds, plan, ctx):
            streams[-1].append(x.shape)
            yield x

    monkeypatch.setattr(dg, "_tiles", tiles)
    got = list(max_abs_diffs(pu + shared, ctx))
    assert streams == [[(5,)], [()], [(3, 3)], [(3, 3, 3)]]
    assert [e.hex() for e in got] == [w.hex() for w in want]
    assert got[6] == 0 < min(got[5], got[7])  # the shared pair at 0.4 has equal sides


# -- batches --------------------------------------------------------------


def alone(d: Diagram, ctx: MeasureContext) -> np.ndarray:
    """The executor's result for ``d`` in a batch of its own."""
    _, steps, node_codes, _ = dg._checked_plan(d, ctx)
    (data,) = dg._execute(steps, node_codes, [d], ctx)
    return data


@pytest.mark.parametrize("nu", [None, 1.0])
def test_catalog_batches_are_bit_identical(monkeypatch, nu) -> None:
    # every side of every rule at D=2..6, five draws a cell, in the runs
    # that max_abs_diffs makes (dg._runs) and alone; ZH-O and ZH-ZPL at
    # D=5 take their matmul-size steps once per batch entry
    real, sizes = dg._execute, Counter()

    def counting(steps, node_codes, ds, ctx, split_last=False):
        sizes[len(ds) > 1] += 1
        return real(steps, node_codes, ds, ctx, split_last)

    monkeypatch.setattr(dg, "_execute", counting)
    ids = sorted(CATALOG)
    for rid in ids:
        spec = CATALOG[rid]
        for dim in range(2, 7):
            if spec.dim_cap is not None and dim > spec.dim_cap:
                continue
            ctx = MeasureContext(dim, nu)
            rng = np.random.default_rng([0, ids.index(rid), dim])
            draws = [spec.sample(dim, rng) for _ in range(5)]
            pairs = [instantiate(spec, params, ctx) for params in draws if params is not None]
            for columns, plans in dg._runs(pairs, ctx):
                for ds, (steps, layout) in zip(columns, plans):
                    (data,) = dg._execute(steps, layout, ds, ctx)
                    batched = data.ndim > ds[0].n_inputs + ds[0].n_outputs
                    for k, d in enumerate(ds):
                        assert (data[k] if batched else data).tobytes() == alone(d, ctx).tobytes(), (rid, dim)
    assert sizes[True] > 100  # most cells ran as batches


def test_a_batch_keeps_input_order_across_shapes() -> None:
    # pairs of sides of other draws, so that the errors lie far apart: a
    # run of two ZX-GFP pairs, then shapes that change at every step
    ctx = MeasureContext(3)
    rng = np.random.default_rng(5)
    gfp = [instantiate("ZX-GFP", CATALOG["ZX-GFP"].sample(3, rng), ctx) for _ in range(4)]
    hm = [instantiate("ZH-HM", CATALOG["ZH-HM"].sample(3, rng), ctx) for _ in range(3)]
    mixed = [(gfp[0][0], gfp[1][0]), (gfp[2][0], gfp[3][0]), (hm[0][1], hm[1][1]), (gfp[0][1], gfp[3][1]),
             (hm[0][0], hm[2][0]), (gfp[3][0], gfp[1][0]), (gfp[2][1], gfp[0][1])]
    got = list(max_abs_diffs(iter(mixed), ctx))
    want = [max_abs_diff(*(evaluate(d, ctx) for d in pair)) for pair in mixed]
    gaps = np.diff(sorted(want))
    assert gaps.min() > 0.01
    assert got == pytest.approx(want, rel=1e-12)


def test_a_batch_refuses_a_dimension_mismatch() -> None:
    ctx = MeasureContext(3)
    wire3, wire4 = node_diagram(3, Generator.hplus()), node_diagram(4, Generator.hplus())
    with pytest.raises(DiagramError, match="context dimension 3 != diagram dimension 4"):
        list(max_abs_diffs([(wire3, wire3), (wire4, wire4)], ctx))


def test_equal_diagrams_in_a_batch_get_their_own_arrays() -> None:
    # each evaluation of one diagram gets an array that no other tensor shares
    ctx = MeasureContext(3)
    d = node_diagram(3, Generator.green(Phase(0.4), 1, 1))
    first, second, third = (evaluate(d, ctx) for _ in range(3))
    want = evaluate(d, ctx).data.tobytes()
    first.data[...] = 0
    assert second.data.tobytes() == third.data.tobytes() == want
    assert not np.shares_memory(second.data, third.data)


@pytest.mark.parametrize("dim", [2, 3])
def test_a_batched_one_factor_sum_keeps_each_diagrams_bits(dim: int) -> None:
    # a dense red dot or H-box with self-loops is summed on its own first, as one
    # np.einsum over the executor's stacked batch, and every entry keeps
    # the bits evaluate gives it (a pairwise step over a batch may round apart)
    ctx = MeasureContext(dim)
    for kind, legs in itertools.product(("red", "hbox"), (3, 5)):
        def looped(amp: Any) -> Diagram:
            b = DiagramBuilder(dim)
            g = b.node(Generator(kind, 0, legs, amp=amp))
            for k in range(0, legs - 1, 2):
                b.wire((g, k), (g, k + 1))
            b.wire((g, legs - 1), "out")
            return b.build()

        diagrams = [looped(amp) for amp in AMPS]
        i, j, sa, so = dg._checked_plan(diagrams[0], ctx)[1][0]
        assert j < 0 and len(so) < len(set(sa))
        _, steps, layout, _ = dg._checked_plan(diagrams[0], ctx)
        (batch,) = dg._execute(steps, layout, diagrams, ctx)
        assert [entry.tobytes() for entry in batch] == [evaluate(d, ctx).data.tobytes() for d in diagrams]


def looped_red(amp: Any) -> Diagram:
    """At D=2, a 3-leg red dot whose legs 0 and 2 are joined through an hplus, leg 1 the output."""
    b = DiagramBuilder(2)
    r, h = b.node(Generator.red(amp, 0, 3)), b.node(Generator.hplus())
    b.wire((r, 2), (h, 0))
    b.wire((h, 1), (r, 0))
    b.wire((r, 1), "out")
    return b.build()


def test_a_run_holds_one_power_of_nu() -> None:
    # an hbox, an hplus, a gray dot and a red dot of degree 2, all built
    # dense, have one shape but three powers of nu (2, 2, 0 and 4): a run
    # ends where K changes, so each batch has one nu^K, and each error is
    # that of its pair alone
    ctx = MeasureContext(3, 0.7)
    ds = []
    for gen in [Generator.hbox(One(), 1, 1), Generator.hplus(), Generator.gray(1, 1), Generator.red(Phase(0.4), 1, 1)]:
        b = DiagramBuilder(3)
        b.chain([gen])
        ds.append(b.build())
    assert len({dg._checked_plan(d, ctx)[0] for d in ds}) == 1
    assert [len(columns[0]) for columns, _ in dg._runs([(d,) for d in ds], ctx)] == [2, 1, 1]
    got = list(max_abs_diffs([(d, ds[0]) for d in ds], ctx))
    want = [max_abs_diff(flat_einsum(d, ctx), flat_einsum(ds[0], ctx)) for d in ds]
    assert got[0] == 0 and np.allclose(got, want, rtol=1e-12, atol=1e-15)


def test_a_batch_may_round_apart_from_each_diagram_alone() -> None:
    # run in one batch after the same diagram with One(), the red dot at
    # Phase(0.6) rounds apart from what evaluate gives it (the example of
    # the module notes)
    ctx = MeasureContext(2)
    ds = [looped_red(One()), looped_red(Phase(0.6))]
    _, steps, layout, _ = dg._checked_plan(ds[0], ctx)
    (batch,) = dg._execute(steps, layout, ds, ctx)
    assert complex(batch[1][0]) == 0.10385606474349275-0.33573842339705506j
    assert complex(evaluate(ds[1], ctx).data[0]) == 0.10385606474349275-0.3357384233970552j


def test_a_side_wider_than_one_tile_runs_alone(monkeypatch) -> None:
    # with tiles of 8 entries, three same-shape pairs of 27-entry sides
    # reach the executor one diagram at a time, and each error has the
    # bits of its pair compared alone
    ctx = MeasureContext(3)

    def side(kind: str, t: float) -> Diagram:
        b = DiagramBuilder(3)
        b.chain([Generator.green(Phase(t), 1, 1), Generator(kind, 1, 2, amp=Phase(t))])
        return b.build()

    pairs = [(side("red", t), side("hbox", t)) for t in (0.1, 0.4, 2.0)]
    monkeypatch.setattr(dg, "_TILE", 8)
    want = [e for pair in pairs for e in max_abs_diffs([pair], ctx)]
    real, sizes = dg._execute, []

    def counting(steps, layout, ds, ctx, split_last=False):
        out = real(steps, layout, ds, ctx, split_last)
        sizes.append((len(ds), len(out) == 2))
        return out

    monkeypatch.setattr(dg, "_execute", counting)
    got = list(max_abs_diffs(pairs, ctx))
    assert sizes == [(1, True)] * 6  # each side stops before its last merge, whose blocks are its tiles
    assert [e.hex() for e in got] == [w.hex() for w in want]
    assert len(set(got)) == 3


def redrawn(draw, d: Diagram) -> Diagram:
    """``d`` with each amplitude and each not-dot constant drawn again: same shape, new numbers."""
    nodes = {}
    for name, gen in d.nodes.items():
        if gen.amp is not None:
            gen = Generator(gen.kind, gen.m, gen.n, amp=draw(st.sampled_from(AMPS)))
        elif gen.kind == "not":
            gen = Generator.not_dot(draw(st.integers(0, d.dim - 1)))
        nodes[name] = gen
    return from_edges(d.dim, nodes, d.edges, d.n_inputs, d.n_outputs)


@settings(max_examples=150, deadline=None)
@given(small_diagrams(), st.data(), st.booleans(), st.sampled_from([None, 1]), st.sampled_from([None, 0.8]))
def test_random_batches_match_each_diagram(d, data, split_all, matmul_min, nu) -> None:
    # copies of one diagram with re-drawn numbers, run as one batch by the
    # executor, each entry within rounding of the diagram alone; with
    # matmul_min=1 every pairwise step over the batch is one broadcasting
    # np.matmul or np.multiply (_blocks)
    copies = [d] + [redrawn(data.draw, d) for _ in range(3)]
    ctx = MeasureContext(d.dim, nu)
    split_above = 0 if split_all else dg._SPLIT_ABOVE
    with mock.patch.object(dg, "_SPLIT_ABOVE", split_above), \
            mock.patch.object(dg, "_MATMUL_MIN", matmul_min or dg._MATMUL_MIN):
        want = [evaluate(c, ctx) for c in copies]
        _, steps, node_codes, _ = dg._checked_plan(d, ctx)
        (batch,) = dg._execute(steps, node_codes, copies, ctx)
    for k, w in enumerate(want):
        got = Tensor(d.dim, d.n_inputs, d.n_outputs, batch[k] if batch.ndim > w.data.ndim else batch)
        assert max_abs_diff(got, w) <= 1e-12 * max(1.0, np.max(np.abs(w.data)))


# -- the plan cache -------------------------------------------------------


@pytest.fixture()
def plan_calls(monkeypatch) -> list:
    """An empty plan cache for the test, and a list that grows per plan made."""
    monkeypatch.setattr(dg, "_PLANS", dg._PlanCache())
    calls: list = []
    real = dg._plan

    def counting(codes):
        calls.append(len(codes))
        return real(codes)

    monkeypatch.setattr(dg, "_plan", counting)
    return calls


def test_cached_plan_replays_the_pinned_order(monkeypatch, plan_calls) -> None:
    ctx = MeasureContext(3)
    run: list = []
    real = dg._execute

    def recording(steps, *args):
        run.append(order_digest(steps))
        return real(steps, *args)

    monkeypatch.setattr(dg, "_execute", recording)
    for k, (d, digest) in enumerate(pinned_order_cases(ctx)):
        tensors = []
        for _ in range(2):
            run.clear()
            tensors.append(evaluate(d, ctx).data)
            assert run == [digest]
        assert len(plan_calls) == k + 1  # the second run planned nothing
        assert tensors[0].tobytes() == tensors[1].tobytes()


def param_diagram(dim: int, theta: float, stab: tuple[int, int], c: int, z: complex) -> Diagram:
    """One fixed shape; the arguments change only generator parameters."""
    b = DiagramBuilder(dim)
    g = b.node(Generator.green(Phase(theta), 1, 2))
    r = b.node(Generator.red(Stab(*stab), 2, 1))
    x = b.node(Generator.not_dot(c))
    h = b.node(Generator.hbox(UnitPow(z), 1, 1))
    p = b.node(Generator.hplus())
    q = b.node(Generator.gray(1, 2))
    b.wire("in", g)
    b.wire(g, r)
    b.wire(g, r)
    b.wire(r, x)
    b.wire(x, h)
    b.wire(h, p)
    b.wire(p, q)
    b.wire(q, "out")
    b.wire(q, "out")
    return b.build()


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_same_shape_reuses_plan_bit_for_bit(monkeypatch, plan_calls, dim: int) -> None:
    rng = np.random.default_rng(60 + dim)
    variants = [
        (param_diagram(dim, *args), MeasureContext(dim, nu))
        for args, nu in [
            ((0.3, (1, 0), 0, 0.5 + 0.5j), None),
            ((1.7, (0, 1), 1, -2.0), 0.7),
            ((float(rng.normal()), (1, 1), dim - 1, complex(*rng.normal(size=2))), 1.3),
        ]
    ]
    warm = [evaluate(d, ctx).data.tobytes() for d, ctx in variants]
    assert len(plan_calls) == 1  # one shape, one plan
    for (d, ctx), got in zip(variants, warm):
        monkeypatch.setattr(dg, "_PLANS", dg._PlanCache())
        assert evaluate(d, ctx).data.tobytes() == got
    assert len(warm) == len(set(warm))  # the parameters did reach the tensor


def test_huge_dimension_is_refused_before_any_factor(monkeypatch) -> None:
    # the residue window alone would not fit: refused by name, with no
    # factor built, whenever the diagram has a node or a boundary position
    def no_factor(*args, **kwargs):
        raise AssertionError("a factor was built")

    for name in ("diagonal_weight", "generator_entries", "_split_factors"):
        monkeypatch.setattr(dg, name, no_factor)
    dim = dg._MAX_RESULT + 1
    wire = from_edges(dim, {}, [(("in", 0), ("out", 0))], 1, 1)
    for d in (node_diagram(10**30, Generator.white(0, 0)), node_diagram(dim, Generator.hplus()), wire):
        with pytest.raises(OverflowGuardError, match=f"dimension D={d.dim} exceeds"):
            evaluate(d, MeasureContext(d.dim))
    assert complex(evaluate(DiagramBuilder(10**30).build(), MeasureContext(10**30)).data) == 1


def table_dot(dim: int, value: float, degree: int, kind: str = "green") -> Diagram:
    """A green (or ``kind``) ``Table`` dot of all-``value`` entries with every leg an output."""
    b = DiagramBuilder(dim)
    g = b.node(Generator(kind, 0, degree, amp=Table((value,) * dim)))
    for _ in range(degree):
        b.wire(g, "out")
    return b.build()


@pytest.mark.parametrize("case", ["hbox", "table product", "table product on matmul", "table power", "shared gray",
                                  "red table"])
def test_factor_past_the_float_range_is_refused(monkeypatch, case: str) -> None:
    # factors are built at nu=1 and each side's nu^K is applied once.  A
    # side's product with nu^K past the float range (nu^2 * 1.7e308,
    # 1e300 * nu^-2) names K and nu; so does a nu^K past it (nu^-4, and
    # nu^-2 where two legless gray dots and an hplus give K = -2); a
    # factor entry past it (a red dot's 3e308) is named by its node.  On
    # einsum the product is the result's, on matmul the smaller operand's,
    # and the last merge's np.multiply, which then overflows, keeps numpy's
    # text.  All are refused, with no warning and no NaN
    if case == "hbox":
        ctx = MeasureContext(2, 2.0)
        d = from_edges(2, {"box": Generator.hbox(UnitPow(1.7e308), 0, 2)},
                       [(("box", 0), ("out", 0)), (("box", 1), ("out", 1))], 0, 2)
        what = "a side times nu\\^2 at nu=2.0 leaves the float range"
    elif case == "shared gray":
        ctx = MeasureContext(3, 1e-160)
        b = DiagramBuilder(3)
        b.chain([Generator.hplus()], ["h"])
        for name in ("g1", "g2"):
            b.node(Generator.gray(0, 0), name)
        d = b.build()
        what = "a side's power of nu, nu\\^-2 at nu=1e-160, leaves the float range"
    elif case == "red table":
        ctx = MeasureContext(3)
        d = table_dot(3, 1e308, 1, "red")
        what = "a factor entry is out of range: node 'red0': red of degree 1 leaves the float range at D=3"
    else:
        if case == "table product on matmul":
            monkeypatch.setattr(dg, "_MATMUL_MIN", 1)
        product = case.startswith("table product")
        ctx = MeasureContext(3, 1e-5 if product else 1e-100)
        d = table_dot(3, 1e300 if product else 1.0, 4 if product else 6)
        what = {"table product": "a side times nu\\^-2 at nu=1e-05 leaves the float range",
                "table product on matmul": "a factor entry is out of range: overflow encountered in multiply",
                "table power": "a side's power of nu, nu\\^-4 at nu=1e-100, leaves the float range"}[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowGuardError, match=f"^{what}$"):
            evaluate(d, ctx)
        with pytest.raises(OverflowGuardError, match=f"^{what}$"):
            list(max_abs_diffs([(d, d)], ctx))


def test_an_overflow_in_a_steps_kernel_names_no_node(monkeypatch) -> None:
    # each box's factor is finite; their outer product, one np.multiply
    # on the matmul kernel, is not
    monkeypatch.setattr(dg, "_MATMUL_MIN", 1)
    b = DiagramBuilder(3)
    for name in ("x", "y"):
        b.wire(b.node(Generator.hbox(Table([1e200] * 3), 0, 1), name), "out")
    with pytest.raises(OverflowGuardError, match="^a factor entry is out of range: overflow encountered in multiply$"):
        evaluate(b.build(), MeasureContext(3, 1.0))
    # np.einsum does not trap an overflow: the result is refused for its
    # first entry that is not finite.  Two scalar boxes of 1e200 give inf.
    # The normal form of a (3, 3) tensor at D=3 overflowed in its steps
    # while each factor carried its own power of nu, and every entry came
    # out NaN with no error; built at nu=1, it evaluates back
    monkeypatch.undo()
    b = DiagramBuilder(3)
    for _ in range(2):
        b.node(Generator.hbox(UnitPow(1e200), 0, 0))
    with pytest.raises(OverflowGuardError, match=r"^entry 0 of the tensor is not finite: \(inf\+0j\)$"):
        evaluate(b.build(), MeasureContext(3))
    ctx = MeasureContext(3)
    t = Tensor(3, 3, 3, np.random.default_rng(0).normal(size=(3,) * 6))
    assert max_abs_diff(evaluate(normal_form(t, ctx), ctx), t) <= 1e-12 * np.max(np.abs(t.data))


def test_disconnected_pieces_are_refused_before_any_factor(monkeypatch) -> None:
    # each piece's result fits the budget, their outer product does not:
    # refused from the plan's ranks, before a weight, a piece or a step exists
    def no_factor(*args, **kwargs):
        raise AssertionError("an array was built")

    for name in ("diagonal_weight", "generator_entries", "_split_factors"):
        monkeypatch.setattr(dg, name, no_factor)
    monkeypatch.setattr(np, "einsum", no_factor)
    monkeypatch.setattr(dg, "_MAX_RESULT", 2**16)
    b = DiagramBuilder(4)
    for k in range(8):
        g = b.node(Generator.green(Phase(0.1 * k), 0, 8))  # 4^8 = 2^16 entries once contracted
        for _ in range(8):
            b.wire(g, "out")
    with pytest.raises(OverflowGuardError, match="rank 64 at dimension D=4 exceeds"):
        evaluate(b.build(), MeasureContext(4))


def test_cached_plan_still_checks_result_budget(monkeypatch, plan_calls) -> None:
    b = DiagramBuilder(2)
    for _ in range(3):
        b.wire("in", "out")
    d = b.build()
    ctx = MeasureContext(2)
    evaluate(d, ctx)
    monkeypatch.setattr(dg, "_MAX_RESULT", 2**6 - 1)
    with pytest.raises(OverflowGuardError):
        evaluate(d, ctx)
    assert len(plan_calls) == 1  # refused on the cached plan


def test_dense_limit_change_gets_its_own_plan(monkeypatch, plan_calls) -> None:
    ctx = MeasureContext(5, nu=0.8)
    d = node_diagram(5, Generator.gray(1, 2))  # 125 entries: dense by default
    dense = evaluate(d, ctx)
    built: list = []
    real = dg.generator_entries

    def counting(ctx, gen, legs=None):
        built.append(gen)
        return real(ctx, gen, legs)

    monkeypatch.setattr(dg, "generator_entries", counting)
    monkeypatch.setattr(dg, "_SPLIT_ABOVE", 0)
    split = evaluate(d, ctx)
    assert len(plan_calls) == 2
    assert built == []  # decomposed, not the cached dense plan
    assert max_abs_diff(split, dense) < 1e-10


def test_plan_cache_holds_no_diagram_or_array(monkeypatch, plan_calls) -> None:
    ctx = MeasureContext(3)
    arrays: list = []
    for name in ("generator_entries", "diagonal_weight"):
        real = getattr(dg, name)

        def keeping(ctx, gen, *legs, real=real):
            arr = real(ctx, gen, *legs)
            arrays.append(weakref.ref(arr))
            return arr

        monkeypatch.setattr(dg, name, keeping)
    real_einsum = np.einsum

    def keeping_einsum(*operands):
        arr = real_einsum(*operands)
        arrays.append(weakref.ref(arr))
        return arr

    monkeypatch.setattr(np, "einsum", keeping_einsum)
    d = normal_form(random_tensor(np.random.default_rng(2), 3, 1, 1), ctx)
    evaluate(d, ctx)
    refs = [weakref.ref(d)] + [weakref.ref(g) for g in d.nodes.values()]
    assert dg._PLANS.plans and arrays
    del d
    gc.collect()
    assert all(ref() is None for ref in refs + arrays)


def test_plan_cache_keeps_to_its_step_budget(monkeypatch, plan_calls) -> None:
    ctx = MeasureContext(3)
    rng = np.random.default_rng(4)
    # sizes: steps + chain entries + layouts + deltas
    first = normal_form(random_tensor(rng, 3, 0, 1), ctx)  # 6 + 6 + 13 + 0
    second = tied_hub_diagram(3)  # 7 + 1 + 8 + 1
    third = param_diagram(3, 0.1, (1, 0), 1, 1.0)  # 4 + 1 + 6 + 0
    big = normal_form(random_tensor(rng, 3, 1, 1), ctx)  # 22 + 12 + 35 + 0
    monkeypatch.setattr(dg, "_MAX_PLAN_SIZE", 48)

    def stored() -> int:
        assert dg._PLANS.size == sum(map(dg._plan_size, dg._PLANS.plans.values()))
        return dg._PLANS.size

    for d in (first, second, third):
        evaluate(d, ctx)
        assert stored() <= 48
    assert stored() == 28  # the third plan pushed the first out, oldest first
    evaluate(second, ctx)
    evaluate(third, ctx)
    assert len(plan_calls) == 3
    evaluate(first, ctx)
    assert len(plan_calls) == 4
    before = dict(dg._PLANS.plans)
    evaluate(big, ctx)
    evaluate(big, ctx)
    assert len(plan_calls) == 6  # larger than the budget: used, never stored
    assert dg._PLANS.plans == before and stored() <= 48


def test_plan_cache_counts_absorbed_not_dots(monkeypatch, plan_calls) -> None:
    # 1,000 not dots between two boundary positions plan one step, but
    # the plan holds a chain entry and a layout per dot, and the budget
    # counts them: with room for 2,000 entries it is used, never stored
    ctx = MeasureContext(3)
    consts = [k * k % 3 for k in range(1000)]
    b = DiagramBuilder(3)
    b.chain([Generator.not_dot(c) for c in consts])
    d = b.build()
    plan = dg._plan(dg._structure(d))
    steps, _, _, _, chain, layouts, deltas = plan
    assert (len(steps), len(chain), len(layouts)) == (1, 1000, 1000)
    want = np.eye(3)
    for c in consts:
        want = evaluate(node_diagram(3, Generator.not_dot(c)), ctx).data @ want
    monkeypatch.setattr(dg, "_PLANS", dg._PlanCache())
    got = evaluate(d, ctx)
    assert np.abs(got.data - want).max() <= 1e-12
    assert dg._PLANS.size == dg._plan_size(plan) == 2001 + len(deltas)
    monkeypatch.setattr(dg, "_MAX_PLAN_SIZE", 2000)
    monkeypatch.setattr(dg, "_PLANS", dg._PlanCache())
    assert evaluate(d, ctx).data.tobytes() == got.data.tobytes()
    assert not dg._PLANS.plans and dg._PLANS.size == 0


def test_plan_cache_under_threads(monkeypatch, plan_calls) -> None:
    ctx = MeasureContext(3)
    rng = np.random.default_rng(6)
    diagrams = [normal_form(random_tensor(rng, 3, 0, 1), ctx), tied_hub_diagram(3)]
    diagrams += [param_diagram(3, 0.2 * k, (1, k % 3), k, 1.0 + k) for k in range(3)]
    want = [evaluate(d, ctx).data.tobytes() for d in diagrams]
    monkeypatch.setattr(dg, "_MAX_PLAN_SIZE", 40)  # every round evicts: the three plans hold 25, 17 and 12
    monkeypatch.setattr(dg, "_PLANS", dg._PlanCache())
    wrong: list = []

    def work(seed: int) -> None:
        order = np.random.default_rng(seed).permutation(len(diagrams) * 20) % len(diagrams)
        for k in order:
            if evaluate(diagrams[k], ctx).data.tobytes() != want[k]:
                wrong.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert dg._PLANS.size == sum(map(dg._plan_size, dg._PLANS.plans.values())) <= 40


def test_cached_plans_are_tuples_of_ints_with_shared_sublists(plan_calls) -> None:
    # the plan format: tuples of plain ints only, each distinct sublist one
    # object within its plan, and the cache counting each plan's steps,
    # chain entries, layouts and deltas, at least 1
    check_all(range(2, 6), samples=1)
    ctx = MeasureContext(4)
    evaluate(normal_form(random_tensor(np.random.default_rng(9), 4, 2, 2), ctx), ctx)

    def ints_only(obj) -> bool:
        return type(obj) is int or (type(obj) is tuple and all(map(ints_only, obj)))

    assert len(dg._PLANS.plans) > 100
    for plan in dg._PLANS.plans.values():
        assert ints_only(plan)
        seen: dict = {}
        for i, j, *subs in plan[0]:
            assert len(subs) == (3 if j >= 0 else 2)
            for sub in subs:
                assert seen.setdefault(sub, sub) is sub
    sizes = [max(len(steps) + len(chain) + len(layouts) + len(deltas), 1)
             for steps, _, _, _, chain, layouts, deltas in dg._PLANS.plans.values()]
    assert dg._PLANS.size == sum(sizes)


def test_json_round_trip_preserves_value() -> None:
    dim = 3
    ctx = MeasureContext(dim)
    rng = np.random.default_rng(42)
    for trial in range(5):
        d = random_diagram(rng, dim, 3, 1, 2)
        text = dump_json(d)
        back = load_json(text)
        assert back.dim == d.dim
        assert back.n_inputs == d.n_inputs and back.n_outputs == d.n_outputs
        assert max_abs_diff(evaluate(back, ctx), evaluate(d, ctx)) < 1e-12


def test_a_diagram_equals_its_file() -> None:
    # a file keeps each node's degree, not its in/out split, and == compares what it keeps
    sides = []
    for dim in (2, 3, 5):
        rng = np.random.default_rng(dim)
        for nu in (None, 1.0):
            ctx = MeasureContext(dim, nu)
            for spec in CATALOG.values():
                params = spec.sample(dim, rng)
                if params is not None and (spec.dim_cap is None or dim <= spec.dim_cap):
                    sides += instantiate(spec, params, ctx)
        sides += [normal_form(random_tensor(rng, dim, m, n), MeasureContext(dim)) for m, n in ((0, 1), (1, 1))]
    assert len(sides) == 726
    split = sum(any(g.m for g in d.nodes.values()) for d in sides)
    assert split > 500  # most sides hold a node with inputs, which a file drops
    for d in sides:
        assert load_json(dump_json(d)) == d
    b = DiagramBuilder(3)
    b.node(Generator.white(0, 2), "w")
    b.wire("w", "out")
    b.wire("w", "out")
    assert b.build() == from_edges(3, {"w": Generator.white(2, 0)}, [(("w", 0), ("out", 0)), (("w", 1), ("out", 1))], 0, 2)


def test_diagrams_that_differ_in_one_amplitude_or_one_edge_are_unequal() -> None:
    def two_dots(amp, edges):
        return from_edges(3, {"g": Generator.green(amp, 1, 1), "h": Generator.hbox(Phase(0.5), 1, 0)}, edges, 1, 0)

    wiring = [(("in", 0), ("g", 0)), (("g", 1), ("h", 0))]
    d = two_dots(Phase(0.25), wiring)
    assert d == two_dots(Phase(0.25), wiring) == load_json(dump_json(d))
    assert d != two_dots(Phase(0.75), wiring)
    assert d != two_dots(Phase(0.25), [(("in", 0), ("h", 0)), (("g", 1), ("g", 0))])


def test_a_diagram_is_frozen_and_unequal_to_what_is_no_diagram() -> None:
    b = DiagramBuilder(3)
    b.chain([Generator.not_dot(1)], ["n"])
    d = b.build()
    for field in ("dim", "nodes", "_ports", "n_inputs", "n_outputs", "other"):
        with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{field}'$"):
            setattr(d, field, 4)
        with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{field}'$"):
            delattr(d, field)
    assert d.dim == 3 and d.n_inputs == d.n_outputs == 1 and list(d.nodes) == ["n"]
    assert d != "x" and not d == "x"
    assert repr(d) == ("Diagram(dim=3, nodes={'n': Generator(kind='not', m=1, n=1, amp=None, c=1)}, "
                       "edges=((('in', 0), ('n', 0)), (('n', 1), ('out', 0))), n_inputs=1, n_outputs=1)")


def test_diagrams_whose_nodes_come_in_another_order_are_unequal() -> None:
    # the same nodes, wired alike, added in another order: their files
    # list the nodes in another order, and their port tables differ
    nodes = {"g": Generator.green(Phase(0.25), 1, 1), "h": Generator.hbox(Phase(0.5), 1, 0)}
    wiring = [(("in", 0), ("g", 0)), (("g", 1), ("h", 0))]
    d = from_edges(3, nodes, wiring, 1, 0)
    swapped = from_edges(3, dict(reversed(nodes.items())), wiring, 1, 0)
    assert d.edges == swapped.edges and dump_json(d) != dump_json(swapped)
    assert d != swapped and swapped != d
    assert swapped == load_json(dump_json(swapped))


def test_equality_derives_no_edge_tuples(monkeypatch) -> None:
    def derive(d):
        raise AssertionError("edges derived")

    rng = np.random.default_rng(12)
    ds = [random_diagram(rng, 3, 4, 1, 1) for _ in range(3)]
    monkeypatch.setattr(dg, "_derive_edges", derive)
    for d in ds:
        assert d == load_json(dump_json(d))
    assert ds[0] != ds[1]


AMP_VARIANTS = [
    One(),
    Zero(),
    Phase(1.25),
    Phase(-0.0),
    # a residue-indexed amplitude holds one entry per residue at D=3
    PhaseVec((5e-324, -1.7976931348623157e308, 0.1)),
    Stab(-1, 2),
    Char(3),
    UnitPow(1 - 2j),
    Table((1e-300 + 0j, 2j, complex(0.1, -7e22))),
    MBox(3, 0.5 + 0.5j),
    Sign(frozenset({-1, 2})),
    Indicator(frozenset()),
]


def dump_cases():
    """Diagrams whose files cover the whole layout, named for the failure message."""
    rng = np.random.default_rng(9)
    for dim in (2, 3, 4):
        ctx = MeasureContext(dim)
        for n_in, n_out in ((0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (2, 1)):
            yield f"normal form D={dim} {n_in}->{n_out}", normal_form(random_tensor(rng, dim, n_in, n_out), ctx)
    for rule_key, rid in enumerate(sorted(CATALOG)):
        spec = CATALOG[rid]
        for dim in (2, 3, 5, 8):
            if spec.dim_cap is not None and dim > spec.dim_cap:
                continue
            params = spec.sample(dim, np.random.default_rng([rule_key, dim]))
            if params is not None:
                for side, d in zip("lr", instantiate(spec, params, MeasureContext(dim))):
                    yield f"{rid} D={dim} {side}", d
    yield "empty", DiagramBuilder(2).build()
    yield "bare wire", from_edges(3, {}, [(("in", 0), ("out", 0))], 1, 1)
    yield "state", node_diagram(3, Generator.green(Phase(0.5), 0, 2))
    yield "effect", node_diagram(3, Generator.red(Stab(1, 1), 2, 0))
    # the loader, as the builder refuses a name with a colon
    names = ['q"uote', "back\\slash", "co:lon", "ctl\x01\n\t\x7f", "\u00fcn\u00efc\u00f6de \u20ac \U0001f600"]
    refs = ["in:0"] + [f"{name}:{leg}" for name in names for leg in (0, 1)] + ["out:0"]
    yield "odd names", dg.from_json_obj({"dimension": 3, "nodes": {name: {"kind": "white", "legs": 2} for name in names},
                                         "edges": [refs[k : k + 2] for k in range(0, len(refs), 2)],
                                         "inputs": ["in:0"], "outputs": ["out:0"]})
    b = DiagramBuilder(3)
    for amp in AMP_VARIANTS:
        b.wire(b.node(Generator.green(amp, 0, 1)), "out")
    for c in (0, -4, 7):
        nd = b.node(Generator.not_dot(c))
        b.wire(nd, b.node(Generator.hbox(UnitPow(2j), 0, 1)))
        b.wire(nd, "in")
    for gen in (Generator.gray(0, 0), Generator.hplus(), Generator.hminus()):
        name = b.node(gen)
        for _ in range(gen.degree):
            b.wire(name, "in")
    yield "every kind and amplitude", b.build()


def test_dump_json_is_json_dumps() -> None:
    # the file is json.dumps of its object, one line, and loads back to the diagram
    n = 0
    for label, d in dump_cases():
        text = dump_json(d)
        assert text == json.dumps(json.loads(text)), label
        assert "\n" not in text, label
        assert load_json(text) == d, label
        assert dump_json(load_json(text)) == text, label
        n += 1
    assert n > 150


def readme_diagram_example() -> str:
    """The hand-indented JSON example of README's "Diagram files" section."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("## Diagram files"):]
    start = section.index("```json\n") + 8
    return section[start:section.index("\n```", start)]


def test_files_in_any_layout_load() -> None:
    # files written indented, as json.dumps(obj, indent=1) lays them out,
    # and README's hand-indented example load to the diagram of the one-line text
    for label, d in dump_cases():
        text = dump_json(d)
        assert load_json(json.dumps(json.loads(text), indent=1)) == load_json(text) == d, label
    example = readme_diagram_example()
    assert "\n " in example
    d = load_json(example)
    assert load_json(dump_json(d)) == d
    assert json.loads(dump_json(d)) == {**json.loads(example), "edges": [["in:0", "g:0"], ["g:1", "x:0"],
                                                                         ["out:0", "x:1"]],
                                        "outputs": ["out:0"]}


@pytest.mark.parametrize("amp", [Phase(float("nan")), PhaseVec((0.0, float("inf"), 1.0)),
                                 UnitPow(complex(1, float("-inf"))), Table((1j, complex("nan"), 0j)),
                                 MBox(1, complex(float("inf"), 0))], ids=repr)
def test_dump_json_refuses_a_non_finite_amplitude(amp) -> None:
    # a diagram file never holds NaN or Infinity, which are not JSON
    d = node_diagram(3, Generator.green(amp, 0, 1))
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        dump_json(d)


@pytest.mark.parametrize("ref", [5, None, ["in", 0], "in:x", "in:", "nocolon", ":3", "a:1.5"])
def test_json_rejects_bad_port_references(ref) -> None:
    obj = {"dimension": 2, "nodes": {"a": {"kind": "white", "legs": 1}}, "edges": [["a:0", ref]]}
    with pytest.raises(DiagramError, match="bad port reference"):
        dg.from_json_obj(obj)
    obj = {"dimension": 2, "nodes": {}, "edges": [], "inputs": [], "outputs": [ref]}
    with pytest.raises(DiagramError, match="bad port reference"):
        dg.from_json_obj(obj)


def test_json_inputs_may_point_at_node_ports() -> None:
    obj = {
        "dimension": 2,
        "nodes": {"w": {"kind": "white", "legs": 2}},
        "edges": [],
        "inputs": ["w:0"],
        "outputs": ["w:1"],
    }
    import json

    d = load_json(json.dumps(obj))
    t = evaluate(d, MeasureContext(2))
    assert np.allclose(t.data, np.eye(2))


def test_validation_rejects_dangling_leg() -> None:
    b = DiagramBuilder(3)
    b.node(Generator.white(1, 1), name="w")
    with pytest.raises(DiagramError):
        b.build()


def test_validation_rejects_double_use() -> None:
    with pytest.raises(DiagramError, match=r"port \('w', 0\) used 2 times"):
        from_edges(3, {"w": Generator.white(1, 1)},
                   [(("in", 0), ("w", 0)), (("out", 0), ("w", 0)), (("w", 1), ("out", 1))], 1, 2)


def test_validation_rejects_unknown_node() -> None:
    with pytest.raises(DiagramError, match="edge references unknown node 'ghost'"):
        from_edges(3, {}, [(("in", 0), ("ghost", 0))], 1, 0)


def wiring_file(nodes: dict, edges, n_in: int, n_out: int) -> dict:
    """A diagram file of white nodes of the given leg counts and ``(owner, index)`` edges."""
    return {"dimension": 3, "nodes": {name: {"kind": "white", "legs": legs} for name, legs in nodes.items()},
            "edges": [[f"{o}:{i}", f"{p}:{j}"] for (o, i), (p, j) in edges],
            "inputs": [f"in:{k}" for k in range(n_in)], "outputs": [f"out:{k}" for k in range(n_out)]}


@pytest.mark.parametrize(
    "nodes, edges, n_in, n_out, message",
    [
        ({"e": 0, "w": 2}, ((("in", 0), ("w", 0)), (("out", 0), ("w", 0)), (("w", 1), ("out", 1))),
         1, 2, "port ('w', 0) used 2 times"),
        ({"e": 0, "w": 2, "f": 0}, ((("in", 0), ("w", 0)),), 1, 0, "leg 1 of node 'w' is dangling"),
        ({"w": 2, "f": 0}, ((("w", 0), ("w", 1)),), 1, 0, "boundary port in:0 is dangling"),
        ({}, ((("in", 0), ("out", 0)),), 2, 1, "boundary port in:1 is dangling"),
        ({}, ((("in", 0), ("out", 0)),), 1, 2, "boundary port out:1 is dangling"),
        ({}, (), 1, 1, "boundary port out:0 is dangling"),
        ({"w": 2}, ((("in", 0), ("w", 5)),), 1, 0, "leg 5 out of range for node 'w'"),
        ({}, ((("in", 3), ("out", 0)),), 1, 1, "input position 3 out of range"),
        ({}, ((("in", 0), ("out", 2)),), 1, 1, "output position 2 out of range"),
    ],
    ids=["double", "leg-among-empty-nodes", "input", "second-input", "second-output", "lowest-first",
         "leg-out-of-range", "input-out-of-range", "output-out-of-range"],
)
def test_validation_names_the_first_bad_port(nodes, edges, n_in, n_out, message) -> None:
    # a file can declare boundary positions that no edge wires, which
    # the builder, counting up to the last position wired, cannot
    with pytest.raises(DiagramError) as err:
        dg.from_json_obj(wiring_file(nodes, edges, n_in, n_out))
    assert str(err.value) == message


def test_validation_of_huge_leg_counts_is_quick() -> None:
    # naming the bad port costs what the edges cost, not what the legs
    # claim; past the port bound the diagram is refused outright
    start = time.perf_counter()
    for legs, others, edges, n_out, message in [
        (5 * 10**8, {"b": 1}, (), 1, "leg 0 of node 'a' is dangling"),
        (5 * 10**8, {"b": 1}, ((("a", 0), ("a", 1)),), 1, "leg 2 of node 'a' is dangling"),
        (10**12, {"b": 1}, (), 1, "the diagram has 1000000000002 ports, more than 536870912"),
        (2**31, {"b": 1}, ((("b", 0), ("out", 0)),), 1, "the diagram has 2147483650 ports, more than 536870912"),
        (2**29, {}, (), 0, "node 'a' has 536870912 legs, more than 536870911"),  # one node holds every port
    ]:
        with pytest.raises(DiagramError) as err:
            dg.from_json_obj(wiring_file({"a": legs, **others}, edges, 0, n_out))
        assert str(err.value) == message
    assert time.perf_counter() - start < 2  # a walk over the legs takes minutes


@pytest.mark.parametrize("edge", [["in:0"], ["in:0", "out:0", "w:0"], []], ids=["one", "three", "none"])
def test_validation_rejects_edges_that_are_not_pairs(edge) -> None:
    obj = {"dimension": 3, "nodes": {"w": {"kind": "white", "legs": 1}}, "edges": [edge, ["w:0", "out:0"]],
           "inputs": ["in:0"], "outputs": ["out:0"]}
    with pytest.raises(DiagramError, match="does not join two ports"):
        dg.from_json_obj(obj)


@pytest.mark.parametrize("dim", [1, 0, -3])
def test_json_rejects_dimension_below_two(dim: int) -> None:
    obj = {"dimension": dim, "nodes": {}, "edges": [], "inputs": [], "outputs": []}
    with pytest.raises(DiagramError):
        dg.from_json_obj(obj)


def test_evaluate_rejects_dimension_mismatch() -> None:
    b = DiagramBuilder(3)
    b.wire("in", "out")
    with pytest.raises(DiagramError):
        evaluate(b.build(), MeasureContext(4))


def test_builder_rejects_reserved_names() -> None:
    b = DiagramBuilder(3)
    with pytest.raises(DiagramError):
        b.node(Generator.white(1, 1), name="in")
    with pytest.raises(DiagramError):
        b.node(Generator.white(1, 1), name="a:b")


def test_builder_chain_and_multiedge_wiring() -> None:
    b = DiagramBuilder(3)
    ids = b.chain([Generator.green(One(), 2, 1), Generator.hminus()])
    assert ids == ["green0", "hminus1"]
    assert b.build().edges == (
        (("in", 0), ("green0", 0)),
        (("in", 1), ("green0", 1)),
        (("green0", 2), ("hminus1", 0)),
        (("hminus1", 1), ("out", 0)),
    )
    b = DiagramBuilder(3)
    assert b.chain([]) == []
    assert b.build().edges == ((("in", 0), ("out", 0)),)

    b = DiagramBuilder(3)
    r = b.multiedge(Generator.white(1, 2), Generator.gray(2, 1), ("w", "s"), tail=True)
    b.wire(r, "out")
    assert r == "s"
    assert b.build().edges == (
        (("in", 0), ("w", 0)),
        (("w", 1), ("s", 0)),
        (("w", 2), ("s", 1)),
        (("s", 2), ("out", 0)),
    )


# -- the port table -------------------------------------------------------


def reference_ports(nodes: dict, edges, n_out: int) -> list[int]:
    """The port numbers of the ends of ``edges``, ``(owner, index)``
    pairs: legs node by node, then the outputs, then the inputs."""
    first: dict[str, int] = {}
    n = 0
    for name, gen in nodes.items():
        first[name] = n
        n += gen.degree
    first["out"] = n
    first["in"] = n + n_out
    return [first[owner] + idx for edge in edges for owner, idx in edge]


def reference_structure(d: Diagram) -> list[int]:
    """``_structure`` as it was computed before diagrams kept a port table:
    the edges' ports numbered by walking the nodes on every call."""
    codes = [d.n_inputs, d.n_outputs, len(d.nodes)]
    codes += [4 * gen.degree + dg._factor_mode(gen, d.dim) for gen in d.nodes.values()]
    return codes + reference_ports(d.nodes, d.edges, d.n_outputs)


def table_cases():
    """Both sides of one sampled instance of every rule at D=2..5, and
    normal forms at D=2..4."""
    for label, d, ctx in catalog_cases(range(2, 6)):
        yield label, d, ctx
    rng = np.random.default_rng(73)
    for dim in (2, 3, 4):
        ctx = MeasureContext(dim)
        for n_in, n_out in ((0, 0), (1, 0), (0, 2), (1, 1), (2, 1)):
            yield f"normal form D={dim} {n_in}->{n_out}", normal_form(random_tensor(rng, dim, n_in, n_out), ctx), ctx


def renamed(d: Diagram) -> Diagram:
    """Every node under a new name, in the same order."""
    names = {name: f"v{len(d.nodes) - k}" for k, name in enumerate(d.nodes)}
    edges = tuple(tuple((names.get(o, o), i) for o, i in edge) for edge in d.edges)
    return from_edges(d.dim, {names[k]: g for k, g in d.nodes.items()}, edges, d.n_inputs, d.n_outputs)


def shuffled(d: Diagram, rng: np.random.Generator) -> Diagram:
    """The edges in another order, each with its endpoints swapped or not."""
    edges = [d.edges[k] for k in rng.permutation(len(d.edges))]
    edges = tuple(edge[::-1] if rng.integers(2) else edge for edge in edges)
    return from_edges(d.dim, d.nodes, edges, d.n_inputs, d.n_outputs)


def assert_table_properties(d: Diagram, ctx: MeasureContext, rng: np.random.Generator, label: str = "") -> None:
    codes = dg._structure(d)
    assert codes.typecode == "i" and list(codes) == reference_structure(d), label
    want = evaluate(d, ctx)
    same = renamed(d)
    assert list(dg._structure(same)) == list(codes), label
    assert evaluate(same, ctx).data.tobytes() == want.data.tobytes(), label
    back = load_json(dump_json(d))
    assert list(dg._structure(back)) == list(codes), label
    assert evaluate(back, ctx).data.tobytes() == want.data.tobytes(), label
    scale = max(float(np.max(np.abs(want.data))), 1.0)
    assert max_abs_diff(evaluate(shuffled(d, rng), ctx), want) <= 1e-12 * scale, label


def test_port_table_on_catalog_and_normal_forms() -> None:
    rng = np.random.default_rng(74)
    n = 0
    for label, d, ctx in table_cases():
        assert_table_properties(d, ctx, rng, label)
        n += 1
    assert n > 400


@settings(max_examples=100, deadline=None)
@given(small_diagrams(), st.integers(0, 2**32 - 1))
def test_port_table_on_random_diagrams(d: Diagram, seed: int) -> None:
    assert_table_properties(d, MeasureContext(d.dim), np.random.default_rng(seed))


def test_port_table_is_built_once_per_diagram() -> None:
    d = from_edges(3, {"h": Generator.hplus()}, [(("in", 0), ("h", 0)), (("h", 1), ("out", 0))], 1, 1)
    table = d._ports
    assert table.typecode == "i" and list(table) == [3, 0, 1, 2]  # legs, then out:0, then in:0
    evaluate(d, MeasureContext(3))
    assert d._ports is table


def numbering_cases():
    """Built diagrams: both sides of every rule at D=2..6, every gadget, and
    normal forms with m + n <= 3."""
    for label, d, _ in catalog_cases(range(2, 7)):
        yield label, d
    values = {"a": 2, "u": -2, "c": 1, "alpha": 1.5 - 2j, "amp": Stab(1, 2)}
    for dim in (2, 3, 5):
        ctx = MeasureContext(dim)
        for name in construct.GADGET_NAMES:
            gid = construct.gadget_id(name, **{key: values[key] for key in construct._PARAMS[name]})
            yield f"{gid} D={dim}", construct.build(gid, ctx)
    rng = np.random.default_rng(76)
    for dim in (2, 3):
        for n_in in range(4):
            for n_out in range(4 - n_in):
                yield f"normal form D={dim} {n_in}->{n_out}", normal_form(
                    random_tensor(rng, dim, n_in, n_out), MeasureContext(dim))


BORN = {"dim", "nodes", "_ports", "n_inputs", "n_outputs"}  # what a built or loaded diagram holds


def test_numbered_port_tables_equal_validated_ones() -> None:
    # build() and load_json number ports as they wire or parse; each table
    # must be the one reference_ports numbers from the same diagram's edges
    n = 0
    for label, d in numbering_cases():
        assert set(vars(d)) == BORN, label  # born of its table, holding no edge tuples
        want = reference_ports(d.nodes, d.edges, d.n_outputs)
        assert list(d._ports) == want, label
        assert list(load_json(dump_json(d))._ports) == want, label
        n += 1
    assert n > 650


@settings(max_examples=100, deadline=None)
@given(small_wirings())
def test_numbered_port_tables_equal_validated_ones_on_random_diagrams(wiring: tuple) -> None:
    # against the numbering of the drawn edges, not of edges derived from a table
    _, nodes, edges, _, n_out = wiring
    want = reference_ports(nodes, edges, n_out)
    d = from_edges(*wiring)
    for made in (d, load_json(dump_json(d))):
        assert set(vars(made)) == BORN and list(made._ports) == want
        assert made.edges == edges


def test_normal_form_round_trip_never_derives_edges(monkeypatch) -> None:
    def derive(d):
        raise AssertionError("edges derived")

    monkeypatch.setattr(dg, "_derive_edges", derive)
    ctx = MeasureContext(3)
    t = random_tensor(np.random.default_rng(77), 3, 1, 2)
    back = load_json(dump_json(normal_form(t, ctx)))
    assert max_abs_diff(evaluate(back, ctx), t) < 1e-9


def test_a_bad_reference_is_named_before_an_unknown_node() -> None:
    # parsing names a malformed reference anywhere in the file before
    # validation names the first unknown owner
    obj = {"dimension": 2, "nodes": {"a": {"kind": "white", "legs": 2}},
           "edges": [["ghost:0", "a:0"], ["a:1.5", "a:1"]]}
    with pytest.raises(DiagramError, match="bad port reference 'a:1.5'"):
        dg.from_json_obj(obj)


@pytest.mark.parametrize("legs, edges, inputs, outputs, message", [
    # as many references as ports, so only the check for repeats sees it
    ({"w": 2}, [["w:0", "in:0"], ["w:0", "out:0"]], ["in:0"], ["out:0"], "port ('w', 0) used 2 times"),
    ({"w": 2}, [["w:0", "in:0"], ["w:0", "out:0"], ["w:1", "out:1"]], ["in:0"], ["out:0", "out:1"],
     "port ('w', 0) used 2 times"),
    # one past the last leg or position, which a numbering could take for the next owner's first port
    ({"w": 1}, [["w:0", "w:1"]], [], ["out:0"], "leg 1 out of range for node 'w'"),
    ({"w": 1}, [["w:0", "out:1"]], ["in:0"], ["out:0"], "output position 1 out of range"),
    ({}, [["out:0", "in:1"]], ["in:0"], ["out:0"], "input position 1 out of range"),
    ({"a": 1, "b": 1}, [["a:0", "out:1"]], [], ["a:1", "out:1"], "leg 1 out of range for node 'a'"),
    # names the numbering cannot tell from a boundary side or a bad reference
    ({"out": 0}, [], [], [], "node name 'out' is reserved for the boundary"),
    ({"": 1}, [[":0", "out:0"]], [], ["out:0"], "bad port reference ':0'"),
], ids=["double", "double-and-more", "leg", "output", "input", "boundary-list", "reserved", "empty-name"])
def test_json_loader_names_the_first_bad_port(legs, edges, inputs, outputs, message) -> None:
    obj = {"dimension": 3, "nodes": {name: {"kind": "white", "legs": k} for name, k in legs.items()},
           "edges": edges, "inputs": inputs, "outputs": outputs}
    with pytest.raises(DiagramError) as err:
        dg.from_json_obj(obj)
    assert str(err.value) == message


def past_degree(b: DiagramBuilder) -> None:
    w = b.node(Generator.white(1, 1), "w")
    b.wire("in", w)
    b.wire(w, "out")
    b.wire(w, "out")


def past_degree_explicit(b: DiagramBuilder) -> None:
    b.node(Generator.white(1, 1), "w")
    b.wire("in", ("w", 0))
    b.wire(("w", 1), "out")
    b.wire(("w", -1), "out")


def double_use(b: DiagramBuilder) -> None:
    # as many ends as ports, so only the check for repeats sees it
    b.node(Generator.white(1, 1), "w")
    b.wire(("w", 0), "in")
    b.wire(("w", 0), "out")


def dangling(b: DiagramBuilder) -> None:
    b.wire("in", b.node(Generator.white(1, 1), "w"))


def huge_node(b: DiagramBuilder) -> None:
    b.wire(b.node(Generator.white(0, 10**12), "a"), "out")


def unknown_node(b: DiagramBuilder) -> None:
    b.wire(("ghost", 0), "out")


@pytest.mark.parametrize("wiring, message", [
    (past_degree, "leg 2 out of range for node 'w'"),
    (past_degree_explicit, "leg -1 out of range for node 'w'"),
    (double_use, "port ('w', 0) used 2 times"),
    (dangling, "leg 1 of node 'w' is dangling"),
    (huge_node, "the diagram has 1000000000001 ports, more than 536870912"),
    (unknown_node, "edge references unknown node 'ghost'"),
], ids=lambda v: getattr(v, "__name__", ""))
def test_builder_names_the_first_bad_port_at_build(wiring, message) -> None:
    b = DiagramBuilder(3)
    wiring(b)  # wire() takes every one of these
    with pytest.raises(DiagramError) as err:
        b.build()
    assert str(err.value) == message


def test_builder_wires_a_node_added_after_its_port() -> None:
    # an explicit port may name a node that comes later; build() then
    # validates the edges, as it always did
    b = DiagramBuilder(3)
    b.wire("in", ("h", 0))
    b.node(Generator.hplus(), "h")
    b.wire(("h", 1), "out")
    d = b.build()
    assert d.edges == ((("in", 0), ("h", 0)), (("h", 1), ("out", 0)))
    assert list(d._ports) == [3, 0, 1, 2]


@pytest.mark.parametrize("wiring, message", [
    (past_degree, "leg 2 out of range for node 'w'"),
    (double_use, "port ('w', 0) used 2 times"),
    (dangling, "leg 1 of node 'w' is dangling"),
    (unknown_node, "edge references unknown node 'ghost'"),
], ids=lambda v: getattr(v, "__name__", ""))
def test_build_and_load_name_faults_without_validate(monkeypatch, wiring, message) -> None:
    # the builder and the loader name a fault from port numbers: no
    # diagram of edge tuples is made and validated to word it
    def validate(self):
        raise AssertionError("validate called")

    monkeypatch.setattr(Diagram, "validate", validate)
    monkeypatch.setattr(dg, "_derive_edges", validate)
    b = DiagramBuilder(3)
    wiring(b)
    with pytest.raises(DiagramError) as err:
        b.build()
    assert str(err.value) == message
    ok = DiagramBuilder(3)
    ok.wire("in", ok.node(Generator.white(1, 1), "w"))
    ok.wire("w", "out")
    obj = {"dimension": 3, "nodes": {"w": {"kind": "white", "legs": 2}}, "edges": [["in:0", "w:0"], ["w:1", "out:0"]],
           "inputs": ["in:0"], "outputs": ["out:0"]}
    assert list(ok.build()._ports) == list(dg.from_json_obj(obj)._ports) == [3, 0, 1, 2]
    obj["edges"][1][1] = "out:1"
    with pytest.raises(DiagramError, match="output position 1 out of range"):
        dg.from_json_obj(obj)


@pytest.mark.parametrize("ref", [("w", 1.5), ("in", 0.9), ("w", "x"), ("w",), ("w", True), ("w", 0, 1), ("", 0),
                                 (("w",), 0)], ids=repr)
def test_builder_takes_a_port_index_only_as_an_int(ref) -> None:
    # a float is never rounded into a leg or a position: wire() refuses it
    b = DiagramBuilder(3)
    b.node(Generator.white(1, 2), "w")
    with pytest.raises(DiagramError) as err:
        b.wire(ref, "out")
    assert str(err.value) == f"bad port reference {ref!r}"


def test_builder_reads_a_port_index_through_operator_index() -> None:
    b = DiagramBuilder(3)
    b.node(Generator.hplus(), "h")
    b.wire(("in", np.int64(0)), ("h", np.int8(0)))
    b.wire(("h", 1), ("out", np.uint16(0)))
    d = b.build()
    assert d.edges == ((("in", 0), ("h", 0)), (("h", 1), ("out", 0)))
    assert all(type(idx) is int for edge in d.edges for _, idx in edge)


def test_builder_refuses_an_empty_node_name() -> None:
    # no reference can name it: a file's ":0" is a bad reference
    with pytest.raises(DiagramError, match="bad or duplicate node name ''"):
        DiagramBuilder(3).node(Generator.white(0, 1), "")


@pytest.mark.parametrize("end", [("w", 1.0), (["w"], 1), ("w", True), ("w",), ("w", 0, 0), ("", 0)], ids=repr)
def test_validation_takes_a_port_index_only_as_an_int(end) -> None:
    # as the second end of a wire, after a good first end
    b = DiagramBuilder(3)
    b.node(Generator.white(1, 1), "w")
    with pytest.raises(DiagramError) as err:
        b.wire(("in", 0), end)
    assert str(err.value) == f"bad port reference {end!r}"


@pytest.mark.parametrize("ends", [("w", ("w", 1.5)), (("in", 5), ("w", "x")), ("w", "ghost"), ("ghost", "out"),
                                  ("out", None), ("in", ("w",)), ("in", ["w", 0]), (["w", 0], "out"), ("in", {"w": 0}),
                                  ({"w": 0}, "out")], ids=repr)
def test_a_refused_wire_leaves_the_builder_unchanged(ends) -> None:
    # one end is refused: no counter moves, so a valid wiring after it
    # builds what it builds on a fresh builder
    fresh, b = DiagramBuilder(3), DiagramBuilder(3)
    for builder in (fresh, b):
        builder.node(Generator.white(1, 1), "w")
    with pytest.raises(DiagramError):
        b.wire(*ends)
    for builder in (fresh, b):
        builder.wire("in", "w")
        builder.wire("w", "out")
    assert list(b.build()._ports) == list(fresh.build()._ports) == [3, 0, 1, 2]


@pytest.mark.parametrize("name, message", [
    ("w", None), ("a b", None), ("\u00e9", None), ("in0", None),
    (5, "bad or duplicate node name 5"), (2.5, "bad or duplicate node name 2.5"),
    (b"x", "bad or duplicate node name b'x'"), (("a",), "bad or duplicate node name ('a',)"),
    ("a:b", "bad or duplicate node name 'a:b'"), ("out", "bad or duplicate node name 'out'"),
], ids=repr)
def test_the_builder_takes_a_node_name_a_file_can_hold(name, message) -> None:
    # a refused name leaves the builder as it was; an accepted one dumps and loads back
    b = DiagramBuilder(3)
    if message is not None:
        with pytest.raises(DiagramError) as err:
            b.node(Generator.white(1, 1), name)
        assert str(err.value) == message
        name = "w"
    b.chain([Generator.white(1, 1)], [name])
    d = b.build()
    assert list(d.nodes) == [name] and list(d._ports) == [3, 0, 1, 2]
    assert load_json(dump_json(d)) == d and dump_json(load_json(dump_json(d))) == dump_json(d)


@pytest.mark.parametrize("gen", [None, "white", 3], ids=repr)
def test_the_builder_refuses_a_node_that_is_not_a_generator(gen) -> None:
    # named in a DiagramError, not an AttributeError; the builder stays as it was
    b = DiagramBuilder(3)
    with pytest.raises(DiagramError) as err:
        b.node(gen)
    assert str(err.value) == f"a node must be a Generator, got {gen!r}"
    b.chain([Generator.white(1, 1)], ["w"])
    assert list(b.build()._ports) == [3, 0, 1, 2]


@pytest.mark.parametrize("dim, message", [
    (2, None), (np.int64(3), None), (np.uint8(5), None), (10**30, None),
    (1, "dimension must be at least 2, got 1"), (0, "dimension must be at least 2, got 0"),
    (True, "a dimension must be an integer, got True"), (2.0, "a dimension must be an integer, got 2.0"),
    ("3", "a dimension must be an integer, got '3'"), (None, "a dimension must be an integer, got None"),
], ids=repr)
def test_the_builder_takes_a_dimension_a_file_can_hold(dim, message) -> None:
    # the loader's words for a dimension below 2; an accepted one is an int, written as one
    if message is not None:
        with pytest.raises(DiagramError) as err:
            DiagramBuilder(dim)
        assert str(err.value) == message
        return
    b = DiagramBuilder(dim)
    b.chain([Generator.white(1, 1)])
    d = b.build()
    assert type(d.dim) is int and d.dim == dim
    text = dump_json(d)
    assert f'"dimension": {int(dim)},' in text
    assert load_json(text) == d and dump_json(load_json(text)) == text


@pytest.mark.parametrize("legs, edges, inputs, outputs, message", [
    # a malformed reference anywhere comes first, the outputs' included
    ({"w": 1}, [["ghost:0", "w:0"]], [], ["w:x"], "bad port reference 'w:x'"),
    ({"out": 1}, [["ghost:0", "out:0"]], [], ["out:0", "out:"], "bad port reference 'out:'"),
    # then a reserved name or the port count
    ({"in": 1}, [["ghost:0", "in:0"]], [], [], "node name 'in' is reserved for the boundary"),
    ({"w": 2**29}, [["ghost:0", "w:0"]], [], [], "node 'w' has 536870912 legs, more than 536870911"),
    # then the first reference to no port, the edges' before the inputs'
    ({"w": 2}, [["w:0", "w:0"], ["w:2", "ghost:0"]], ["w:5"], [], "leg 2 out of range for node 'w'"),
    ({"w": 2}, [["w:0", "w:0"]], ["ghost:1"], ["w:5"], "edge references unknown node 'ghost'"),
    # then the first repeated port, before the lowest unwired one
    ({"w": 3}, [["w:2", "w:1"], ["w:1", "w:2"]], [], [], "port ('w', 2) used 2 times"),
], ids=["malformed-output", "malformed-own-side", "reserved", "every-port", "edges-first", "inputs-first",
        "repeat-first"])
def test_json_loader_names_faults_in_order(legs, edges, inputs, outputs, message) -> None:
    obj = {"dimension": 3, "nodes": {name: {"kind": "white", "legs": k} for name, k in legs.items()},
           "edges": edges, "inputs": inputs, "outputs": outputs}
    with pytest.raises(DiagramError) as err:
        dg.from_json_obj(obj)
    assert str(err.value) == message


@st.composite
def wirings(draw) -> tuple:
    """Up to four white nodes, 0..2 inputs and outputs, and up to eight
    reference pairs that mix ports, indices out of range, unknown owners,
    repeats and omissions: ``(legs, n_in, n_out, pairs)``."""
    legs = {f"w{k}": draw(st.integers(0, 3)) for k in range(draw(st.integers(0, 4)))}
    n_in, n_out = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    sizes = {**legs, "in": n_in, "out": n_out}
    ports = [(owner, i) for owner, size in sizes.items() for i in range(size)]
    wrong = st.tuples(st.sampled_from([*sizes, "ghost"]), st.integers(-1, 4))
    end = st.sampled_from(ports) | wrong if ports else wrong
    return legs, n_in, n_out, draw(st.lists(st.tuples(end, end), max_size=8))


def outcome(make) -> Any:
    """The port table that ``make()`` gives, or its ``DiagramError`` text."""
    try:
        return list(make()._ports)
    except DiagramError as exc:
        return str(exc)


def reference_outcome(gens: dict, n_in: int, n_out: int, pairs) -> Any:
    """What the wiring check must make of ``pairs`` of well-formed ends,
    worked out here: the first reference to no port, else the first port
    used twice, in the order ports are first referenced, else the lowest
    port left unwired; with no fault, the port table."""
    sizes = {**{name: gen.degree for name, gen in gens.items()}, "out": n_out, "in": n_in}  # in port order
    ends = [end for pair in pairs for end in pair]
    for owner, idx in ends:
        if owner not in sizes:
            return f"edge references unknown node {owner!r}"
        if not 0 <= idx < sizes[owner]:
            side = {"in": "input", "out": "output"}.get(owner)
            return f"{side} position {idx} out of range" if side else f"leg {idx} out of range for node {owner!r}"
    uses = Counter(ends)
    for port, count in uses.items():
        if count > 1:
            return f"port {port!r} used {count} times"
    for owner, size in sizes.items():
        for idx in range(size):
            if (owner, idx) not in uses:
                return (f"boundary port {owner}:{idx} is dangling" if owner in ("in", "out")
                        else f"leg {idx} of node {owner!r} is dangling")
    return reference_ports(gens, pairs, n_out)


@settings(max_examples=300, deadline=None)
@given(wirings())
def test_loader_and_builder_name_the_same_fault(wiring) -> None:
    # one rule, two entry points: a file and a builder that wires the
    # same references in the same order give the table or the error that
    # the rule, worked out in the test, gives
    legs, n_in, n_out, pairs = wiring
    gens = {name: Generator.white(0, k) for name, k in legs.items()}
    want = reference_outcome(gens, n_in, n_out, pairs)
    assert outcome(lambda: dg.from_json_obj(wiring_file(legs, pairs, n_in, n_out))) == want
    # the builder counts a boundary side up to the last position wired,
    # so it agrees where that is the side's last position
    ends = [end for pair in pairs for end in pair]
    for side, n in (("in", n_in), ("out", n_out)):
        if max((i for owner, i in ends if owner == side), default=-1) != n - 1:
            return
    b = DiagramBuilder(2)
    for name, gen in gens.items():
        b.node(gen, name)
    for a, c in pairs:
        b.wire(a, c)
    assert outcome(b.build) == want


# floats the encoder writes in every form: signed zero, the smallest
# subnormal, exponents both ways, the largest finite values
AMP_FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, 1e-7, 1e16, 1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
AMP_INTS = st.integers(-(2**70), 2**70)
AMP_COMPLEXES = st.builds(complex, AMP_FLOATS, AMP_FLOATS)


def amplitudes(dim: int):
    """Every amplitude type, one through indicator, at dimension ``dim``."""
    return st.one_of(
        st.just(One()),
        st.just(Zero()),
        st.builds(Phase, AMP_FLOATS),
        st.builds(PhaseVec, st.tuples(*[AMP_FLOATS] * dim)),
        st.builds(Stab, AMP_INTS, AMP_INTS),
        st.builds(Char, AMP_INTS),
        st.builds(UnitPow, AMP_COMPLEXES.filter(lambda z: z != 0)),
        st.builds(Table, st.tuples(*[AMP_COMPLEXES] * dim)),
        st.builds(MBox, st.integers(0, 2**70), AMP_COMPLEXES),
        st.builds(Sign, st.frozensets(AMP_INTS, max_size=4)),
        st.builds(Indicator, st.frozensets(AMP_INTS, max_size=4)),
    )


@settings(max_examples=300, deadline=None)
@given(amplitudes(3))
def test_amplitude_writer_is_json_dumps(amp) -> None:
    text = dump_json(node_diagram(3, Generator.green(amp, 0, 1)))
    (entry,) = json.loads(text)["nodes"].values()
    assert entry["amp"] == amp_to_json(amp)
    assert text == json.dumps(json.loads(text))


def test_normal_form_builds_each_box_on_its_fan_labels(monkeypatch) -> None:
    # each selector box reads its 2w legs through not dots from the w fan
    # labels, so it is built once per evaluation with D^w entries, not D^2w
    ctx = MeasureContext(3)
    d = normal_form(random_tensor(np.random.default_rng(75), 3, 2, 1), ctx)
    assert sum(g.kind == "hbox" for g in d.nodes.values()) == 27
    built: list = []
    real = dg.generator_entries

    def recording(ctx, gen, legs=None):
        arr = real(ctx, gen, legs)
        built.append((gen.degree, arr.shape))
        return arr

    monkeypatch.setattr(dg, "generator_entries", recording)
    for _ in range(2):
        built.clear()
        evaluate(d, ctx)
        assert built == [(6, (3, 3, 3))] * 27


@pytest.mark.parametrize(
    "obj, what",
    [
        ([1], "must hold a JSON object"),
        ({"nodes": {}}, "has no 'dimension'"),
        ({"dimension": 3, "nodes": {"a": 5}}, "node 'a' must be an object"),
        ({"dimension": 3, "nodes": {"a": {"legs": 1}}}, "node 'a' has no 'kind'"),
        ({"dimension": 3, "nodes": {"a": {"kind": "white"}}}, "node 'a' has no 'legs'"),
        ({"dimension": 3, "edges": 5}, "edges must be a list"),
        ({"dimension": 3, "outputs": "out:0"}, "outputs must be a list"),
        ({"dimension": 3, "edges": [5]}, "edge 5 does not join two ports"),
        ({"dimension": 3, "nodes": {"h": {"kind": "hbox", "legs": 1, "amp": {"type": "phase"}}},
          "edges": [["h:0", "out:0"]], "outputs": ["out:0"]}, "node 'h': phase amplitude has no 'theta'"),
        ({"dimension": 3, "nodes": {"h": {"kind": "hbox", "legs": 1, "amp": [1]}},
          "edges": [["h:0", "out:0"]], "outputs": ["out:0"]}, "node 'h': an amplitude must be an object"),
        ({"dimension": 3, "nodes": {"in": {"kind": "white", "legs": 2}}, "edges": [["in:0", "in:1"]]},
         "node name 'in' is reserved"),
        ({"dimension": 3, "nodes": {"out": {"kind": "white", "legs": 1}}, "edges": [["out:0", "out:0"]],
          "outputs": ["out:0"]}, "node name 'out' is reserved"),
        ({"dimension": 3, "nodes": {"a": {"kind": "foo", "legs": 1}}}, "node 'a': unknown generator kind 'foo'"),
        ({"dimension": 3, "nodes": {"a": {"kind": "hplus", "legs": 3}}}, "node 'a': hplus has exactly 2 legs"),
        ({"dimension": 3, "nodes": {"h": {"kind": "hbox", "legs": 1, "amp": {"type": "phasevec", "thetas": 5}}},
          "edges": [["h:0", "out:0"]], "outputs": ["out:0"]},
         "node 'h': phasevec amplitude field 'thetas': value must be a list, got 5"),
        ({"dimension": 3, "nodes": {"h": {"kind": "hbox", "legs": 1, "amp": {"type": "table", "values": [1]}}},
          "edges": [["h:0", "out:0"]], "outputs": ["out:0"]},
         r"node 'h': table amplitude field 'values': value must be a \[re, im\] pair, got 1"),
        ({"dimension": 3, "nodes": {"h": {"kind": "hbox", "legs": 1, "amp": {"type": "mbox", "k": 1, "alpha": [1.0]}}},
          "edges": [["h:0", "out:0"]], "outputs": ["out:0"]},
         r"node 'h': mbox amplitude field 'alpha': value must be a \[re, im\] pair, got \[1.0\]"),
        ({"dimension": 3, "nodes": {"g": {"kind": "green", "legs": 1, "amp": {"type": "phasevec", "thetas": []}}},
          "edges": [["g:0", "out:0"]], "outputs": ["out:0"]}, "node 'g': PhaseVec has 0 angles but D=3"),
        ({"dimension": 2, "nodes": {"r": {"kind": "red", "legs": 1,
                                          "amp": {"type": "table", "values": [[1, 0]] * 3}}},
          "edges": [["r:0", "out:0"]], "outputs": ["out:0"]}, "node 'r': Table has 3 values but D=2"),
        ({"dimension": 3, "nodes": {"g": {"kind": "white", "legs": 2, "c": 4}}, "edges": [["g:0", "in:0"], ["g:1", "out:0"]],
          "inputs": ["in:0"], "outputs": ["out:0"]}, "node 'g': only a 'not' node takes a 'c'"),
        ({"dimension": 3, "nodes": {"h": {"kind": "hbox", "legs": 0, "amp": {"type": "phase", "theta": float("nan")}}}},
         "node 'h': phase amplitude field 'theta': value must be a finite number, got nan"),
        ({"dimension": 3, "nodes": {"h": {"kind": "hbox", "legs": 0, "amp": {"type": "unit", "re": 2.0, "im": float("-inf")}}}},
         "node 'h': unit amplitude field 're/im': value must be a finite number, got -inf"),
    ],
)
def test_json_loader_names_the_bad_field(obj, what) -> None:
    with pytest.raises(DiagramError, match=what):
        dg.from_json_obj(obj)


def test_json_loader_shares_equal_amplitude_free_generators() -> None:
    # amplitude-free nodes with equal (kind, legs, c) load as one object;
    # a node that differs in any one of the three, a node with an
    # amplitude, or a node of another file gets its own
    phase = {"type": "phase", "theta": 0.3}
    entries = {
        "a": {"kind": "white", "legs": 2}, "b": {"kind": "white", "legs": 2},
        "legs": {"kind": "white", "legs": 4}, "kind": {"kind": "gray", "legs": 2},
        "n1": {"kind": "not", "legs": 2, "c": 1}, "n2": {"kind": "not", "legs": 2, "c": 1},
        "c": {"kind": "not", "legs": 2, "c": 2}, "n0": {"kind": "not", "legs": 2}, "z": {"kind": "not", "legs": 2, "c": 0},
        "g1": {"kind": "green", "legs": 2, "amp": phase}, "g2": {"kind": "green", "legs": 2, "amp": phase},
    }
    edges = [[f"{name}:{k}", f"{name}:{k + 1}"] for name, e in entries.items() for k in range(0, e["legs"], 2)]
    obj = {"dimension": 3, "nodes": entries, "edges": edges}
    nodes = dg.from_json_obj(obj).nodes
    assert nodes["a"] is nodes["b"] and nodes["n1"] is nodes["n2"] and nodes["n0"] is nodes["z"]
    for other in ("legs", "kind"):
        assert nodes[other] is not nodes["a"]
    assert nodes["c"] is not nodes["n1"]
    assert nodes["g1"] == nodes["g2"] and nodes["g1"] is not nodes["g2"]
    assert dg.from_json_obj(obj).nodes["a"] is not nodes["a"]


def test_json_loader_keeps_colons_in_node_names() -> None:
    # the builder refuses them, but a port reference splits at the last colon
    d = dg.from_json_obj({"dimension": 3, "nodes": {"a:b": {"kind": "white", "legs": 2}},
                          "edges": [["a:b:0", "in:0"], ["a:b:1", "out:0"]],
                          "inputs": ["in:0"], "outputs": ["out:0"]})
    assert d.edges == ((("a:b", 0), ("in", 0)), (("a:b", 1), ("out", 0)))
    assert dg.load_json(dg.dump_json(d)).edges == d.edges
