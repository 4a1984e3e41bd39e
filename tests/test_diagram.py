"""Diagram construction, evaluation, composition, and serialization."""

from __future__ import annotations

import gc
import hashlib
import json
import sys
import threading
import tracemalloc
import weakref
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quditzx.diagram as dg
from quditzx.construct import normal_form
from quditzx.diagram import (
    Diagram,
    DiagramBuilder,
    DiagramError,
    adjoint,
    compose_parallel,
    compose_serial,
    dump_json,
    evaluate,
    load_json,
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
    eval_generator,
    generator_entries,
)
from quditzx.measure import MeasureContext, OverflowGuardError, residue
from quditzx.rewrite import CATALOG, instantiate
from quditzx.tensor import Tensor, compose, max_abs_diff, tensor_product


def node_diagram(dim: int, gen: Generator) -> Diagram:
    """Wrap one generator: leg k is output k for k < n, else input k - n."""
    b = DiagramBuilder(dim)
    name = b.node(gen)
    for k in range(gen.n):
        b.wire(("out", k), (name, k))
    for i in range(gen.m):
        b.wire(("in", i), (name, gen.n + i))
    return b.build()


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


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_serial_composition_is_functorial(dim: int) -> None:
    ctx = MeasureContext(dim)
    rng = np.random.default_rng(100 + dim)
    for trial in range(8):
        mid = int(rng.integers(0, 3))
        a = random_diagram(rng, dim, int(rng.integers(1, 4)), int(rng.integers(0, 3)), mid)
        bdiag = random_diagram(rng, dim, int(rng.integers(1, 4)), a.n_outputs, int(rng.integers(0, 3)))
        fused = compose_serial(a, bdiag)
        got = evaluate(fused, ctx)
        want = compose(evaluate(a, ctx), evaluate(bdiag, ctx))
        assert max_abs_diff(got, want) < 1e-9


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_parallel_composition_is_monoidal(dim: int) -> None:
    ctx = MeasureContext(dim)
    rng = np.random.default_rng(200 + dim)
    for trial in range(6):
        a = random_diagram(rng, dim, 2, int(rng.integers(0, 3)), int(rng.integers(0, 3)))
        c = random_diagram(rng, dim, 2, int(rng.integers(0, 3)), int(rng.integers(0, 3)))
        got = evaluate(compose_parallel(a, c), ctx)
        want = tensor_product(evaluate(a, ctx), evaluate(c, ctx))
        assert max_abs_diff(got, want) < 1e-9


def test_snake_composition_gives_identity() -> None:
    dim = 3
    ctx = MeasureContext(dim)
    cup = DiagramBuilder(dim)
    cup.wire(("out", 0), ("out", 1))
    idw = DiagramBuilder(dim)
    idw.wire("in", "out")
    top = compose_parallel(cup.build(), idw.build())  # 1 -> 3
    cap = DiagramBuilder(dim)
    cap.wire(("in", 0), ("in", 1))
    idw2 = DiagramBuilder(dim)
    idw2.wire("in", "out")
    bottom = compose_parallel(idw2.build(), cap.build())  # 3 -> 1
    snake = compose_serial(top, bottom)
    t = evaluate(snake, ctx)
    assert np.allclose(t.data, np.eye(dim))


def test_cup_then_cap_makes_closed_loop() -> None:
    dim = 5
    cup = DiagramBuilder(dim)
    cup.wire(("out", 0), ("out", 1))
    cap = DiagramBuilder(dim)
    cap.wire(("in", 0), ("in", 1))
    loop = compose_serial(cup.build(), cap.build())
    t = evaluate(loop, MeasureContext(dim))
    assert abs(complex(t.data) - dim) < 1e-12


def _side_by_side(k: int, dim: int, side: str) -> Diagram:
    one = DiagramBuilder(dim)
    one.wire((side, 0), (side, 1))
    d = one.build()
    for _ in range(k - 1):
        d = compose_parallel(d, one.build())
    return d


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_cups_then_caps_make_k_closed_loops(dim: int, k: int) -> None:
    loops = compose_serial(_side_by_side(k, dim, "out"), _side_by_side(k, dim, "in"))
    assert len(loops.nodes) == k
    for name, gen in loops.nodes.items():
        assert gen.kind == "white" and ((name, 0), (name, 1)) in loops.edges
    t = evaluate(loops, MeasureContext(dim))
    assert abs(complex(t.data) - dim**k) < 1e-9


def test_serial_composition_rejects_bad_seam() -> None:
    b = DiagramBuilder(3)
    b.wire("in", "out")
    b.wire("in", "out")
    pair = b.build()
    # out:1 is never wired, so its seam point has one end
    dangling = Diagram(3, {}, ((("in", 0), ("out", 0)),), 1, 2)
    with pytest.raises(DiagramError, match="wired 1 times"):
        compose_serial(dangling, pair)
    # out:0 is wired twice, so its seam point has three ends
    double = Diagram(
        3, {}, ((("in", 0), ("out", 0)), (("in", 1), ("out", 0)), (("in", 2), ("out", 1))), 3, 2
    )
    with pytest.raises(DiagramError, match="wired 3 times"):
        compose_serial(double, pair)
    # out:1 of a and in:1 of b are both unwired, so its seam point has no end
    half = Diagram(3, {}, ((("in", 0), ("out", 0)),), 2, 1)
    with pytest.raises(DiagramError, match="wired 0 times"):
        compose_serial(dangling, half)


def test_evaluation_independent_of_node_order() -> None:
    dim = 3
    ctx = MeasureContext(dim)
    rng = np.random.default_rng(7)
    d = random_diagram(rng, dim, 4, 1, 1)
    ref = evaluate(d, ctx)
    items = list(d.nodes.items())
    for seed in range(3):
        np.random.default_rng(seed).shuffle(items)
        shuffled = Diagram(d.dim, dict(items), d.edges, d.n_inputs, d.n_outputs)
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
        sub = Diagram(dim, nodes, edges, d.n_inputs, d.n_outputs)
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
    port_edge = d.port_edges()
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
        arr = generator_entries(ctx, gen)
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
def small_diagrams(draw) -> Diagram:
    """A valid diagram at D=2..4: a red or gray dot and up to four more
    nodes, wired at random.  It can hold rank-0 nodes of every kind, red
    and gray dots of degree 0..6, self-loops, parallel edges and
    boundary-to-boundary wires."""
    dim = draw(st.integers(2, 4))
    kinds = [draw(st.sampled_from(["red", "gray"]))] + draw(st.lists(st.sampled_from(KINDS), max_size=4))
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
    return Diagram(dim, nodes, tuple(zip(ports[::2], ports[1::2])), n_in, n_out)


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


def plan_steps(steps) -> list:
    """A flat plan from ``_plan`` as a list of ``(i, j, sublists)``."""
    out, pos = [], 0
    while pos < len(steps):
        i, j = steps[pos], steps[pos + 1]
        pos += 2
        subs = []
        for _ in range(3 if j >= 0 else 2):
            n = steps[pos]
            subs.append(steps[pos + 1 : pos + 1 + n].tolist())
            pos += n + 1
        out.append((i, j, subs))
    return out


def order_digest(steps) -> str:
    return hashlib.sha256(repr(plan_steps(steps)).encode()).hexdigest()[:16]


def pinned_order_cases(ctx: MeasureContext) -> list:
    return [
        (tied_hub_diagram(3), "438659fbf65de7f6"),
        (hub_diagram(np.random.default_rng(8), 3, 3, 8, 1, 1), "9935189a0a376747"),
        (normal_form(Tensor(3, 2, 2, np.ones((3,) * 4)), ctx), "9df939d467e8262c"),
        (normal_form(Tensor(3, 1, 2, np.ones((3,) * 3)), ctx), "fa66a8dad705a71a"),
        (instantiate("ZH-O", {}, ctx)[0], "01012de14178567a"),  # a scalar box and a gray hub
    ]


def test_contraction_order_is_pinned() -> None:
    # digests of every step (slots and index lists) of the greedy plan;
    # the order fixes the tensor bits, so a change of order must update
    # these knowingly
    for d, digest in pinned_order_cases(MeasureContext(3)):
        n_steps, steps = dg._plan(dg._structure(d))
        assert len(plan_steps(steps)) == n_steps
        assert order_digest(steps) == digest


@pytest.mark.parametrize("rid", ["ZH-O", "ZH-ZPL"])
def test_widest_rules_plan_about_their_output(rid) -> None:
    # integers only: each step writes D^len(out) entries, and the 8-leg
    # output alone is 7^8 = 5.76 M of them
    spec = CATALOG[rid]
    ctx = MeasureContext(7)
    for d in instantiate(spec, spec.sample(7, np.random.default_rng(0)), ctx):
        written = 0
        for i, j, subs in plan_steps(dg._plan(dg._structure(d))[1]):
            written += 7 ** len(subs[-1])
            if j >= 0:
                low, high = sorted(map(len, subs[:2]))
                assert low > 0 or high <= 2, (i, j, subs)  # a scalar meets only a small factor
        assert written <= 13_000_000


def test_dense_factors_are_built_once(monkeypatch) -> None:
    # a dense node with an amplitude is built once; equal parameter-free
    # generators (not, hplus, hminus, gray) share one array, built once
    # per evaluation
    ctx = MeasureContext(3)
    rng = np.random.default_rng(5)
    diagrams = [
        normal_form(random_tensor(rng, 3, 1, 1), ctx),
        tied_hub_diagram(3),
        hub_diagram(rng, 3, 3, 8, 1, 1),
    ]
    built: Counter = Counter()
    real = dg.generator_entries

    def counting(ctx, gen):
        built[id(gen) if gen.amp is not None else gen] += 1
        return real(ctx, gen)

    monkeypatch.setattr(dg, "generator_entries", counting)
    for d in diagrams:
        dense = [g for g in d.nodes.values() if g.kind not in ("white", "green")]
        want = Counter(id(g) for g in dense if g.amp is not None)
        want.update({g for g in dense if g.amp is None})
        for _ in range(2):
            built.clear()
            evaluate(d, ctx)
            assert built == want
    # the normal form has many equal not-dots
    dense = [g for g in diagrams[0].nodes.values() if g.kind == "not"]
    assert len(dense) > 3 * len(set(dense))


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
    for name in ("einsum", "matmul"):
        real = getattr(np, name)

        def recording(*args, _real=real, _name=name, **kwargs):
            out = _real(*args, **kwargs)
            sizes.append((_name, np.size(out)))
            return out

        monkeypatch.setattr(np, name, recording)
    monkeypatch.setattr(dg, "_MAX_RESULT", 2**6)
    assert np.allclose(evaluate(d, ctx).as_matrix(), np.eye(8))
    kernels = {name for name, _ in sizes}
    assert ("matmul" in kernels) == (matmul_min == 1)
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


@pytest.mark.parametrize("rid", ["ZH-O", "ZH-ZPL"])
def test_widest_rules_evaluate_byte_identically(rid) -> None:
    spec = CATALOG[rid]
    ctx = MeasureContext(6)
    params = spec.sample(6, np.random.default_rng(0))
    for d in instantiate(spec, params, ctx):
        assert evaluate(d, ctx).data.tobytes() == evaluate(d, ctx).data.tobytes()


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
def test_same_shape_reuses_plan_bit_for_bit(plan_calls, dim: int) -> None:
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
        dg._PLANS.clear()
        assert evaluate(d, ctx).data.tobytes() == got
    assert len(warm) == len(set(warm))  # the parameters did reach the tensor


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

    def counting(ctx, gen):
        built.append(gen)
        return real(ctx, gen)

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

        def keeping(ctx, gen, real=real):
            arr = real(ctx, gen)
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
    first = normal_form(random_tensor(rng, 3, 0, 1), ctx)  # 14 steps
    second = tied_hub_diagram(3)  # 10 steps
    third = param_diagram(3, 0.1, (1, 0), 1, 1.0)  # 10 steps
    big = normal_form(random_tensor(rng, 3, 1, 1), ctx)  # 67 steps
    monkeypatch.setattr(dg, "_MAX_PLAN_STEPS", 30)

    def stored() -> int:
        assert dg._PLANS.steps == sum(size for size, _ in dg._PLANS.plans.values())
        return dg._PLANS.steps

    for d in (first, second, third):
        evaluate(d, ctx)
        assert stored() <= 30
    assert stored() == 20  # the third plan pushed the first out, oldest first
    evaluate(second, ctx)
    evaluate(third, ctx)
    assert len(plan_calls) == 3
    evaluate(first, ctx)
    assert len(plan_calls) == 4
    before = dict(dg._PLANS.plans)
    evaluate(big, ctx)
    evaluate(big, ctx)
    assert len(plan_calls) == 6  # larger than the budget: used, never stored
    assert dg._PLANS.plans == before and stored() <= 30


def test_plan_cache_under_threads(monkeypatch, plan_calls) -> None:
    ctx = MeasureContext(3)
    rng = np.random.default_rng(6)
    diagrams = [normal_form(random_tensor(rng, 3, 0, 1), ctx), tied_hub_diagram(3)]
    diagrams += [param_diagram(3, 0.2 * k, (1, k % 3), k, 1.0 + k) for k in range(3)]
    want = [evaluate(d, ctx).data.tobytes() for d in diagrams]
    monkeypatch.setattr(dg, "_MAX_PLAN_STEPS", 20)  # every round evicts
    dg._PLANS.clear()
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
    assert dg._PLANS.steps == sum(size for size, _ in dg._PLANS.plans.values()) <= 20


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_adjoint_evaluates_to_conjugate_transpose(dim: int) -> None:
    ctx = MeasureContext(dim)
    rng = np.random.default_rng(300 + dim)
    for trial in range(6):
        d = random_diagram(rng, dim, 3, int(rng.integers(0, 3)), int(rng.integers(0, 3)))
        got = evaluate(adjoint(d), ctx)
        want = evaluate(d, ctx).adjoint()
        assert max_abs_diff(got, want) < 1e-9


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


AMP_VARIANTS = [
    One(),
    Zero(),
    Phase(1.25),
    Phase(-0.0),
    PhaseVec((0.0, float("nan"), float("inf"), -float("inf"), 1e-300)),
    Stab(-1, 2),
    Char(3),
    UnitPow(1 - 2j),
    Table((1 + 0j, 2j, complex(0.1, -7e22))),
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
    yield "empty", Diagram(2, {}, (), 0, 0)
    yield "bare wire", Diagram(3, {}, ((("in", 0), ("out", 0)),), 1, 1)
    yield "state", node_diagram(3, Generator.green(Phase(0.5), 0, 2))
    yield "effect", node_diagram(3, Generator.red(Stab(1, 1), 2, 0))
    names = ['q"uote', "back\\slash", "co:lon", "ctl\x01\n\t\x7f", "\u00fcn\u00efc\u00f6de \u20ac \U0001f600"]
    nodes = {name: Generator.white(1, 1) for name in names}
    ports = [("in", 0)] + [(name, leg) for name in names for leg in (0, 1)] + [("out", 0)]
    yield "odd names", Diagram(3, nodes, tuple(zip(ports[::2], ports[1::2])), 1, 1)
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


def test_dump_json_is_json_dumps_with_indent_one() -> None:
    # the file is written by hand; it must be the bytes json.dumps writes
    n = 0
    for label, d in dump_cases():
        text = dump_json(d)
        assert text == json.dumps(json.loads(text), indent=1), label
        assert dump_json(load_json(text)) == text, label
        n += 1
    assert n > 150


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
    d = Diagram(
        3,
        {"w": Generator.white(1, 1)},
        ((("in", 0), ("w", 0)), (("out", 0), ("w", 0)), (("w", 1), ("out", 1))),
        1,
        2,
    )
    with pytest.raises(DiagramError):
        d.validate()


def test_validation_rejects_unknown_node() -> None:
    d = Diagram(3, {}, ((("in", 0), ("ghost", 0)),), 1, 0)
    with pytest.raises(DiagramError):
        d.validate()


@pytest.mark.parametrize(
    "edge", [(("in", 0),), (("in", 0), ("out", 0), ("w", 0)), ()], ids=["one", "three", "none"]
)
def test_validation_rejects_edges_that_are_not_pairs(edge) -> None:
    d = Diagram(3, {"w": Generator.white(0, 1)}, (edge, (("w", 0), ("out", 0))), 1, 1)
    with pytest.raises(DiagramError, match="does not join two ports"):
        d.validate()
    with pytest.raises(DiagramError, match="does not join two ports"):
        evaluate(d, MeasureContext(3))


def dangling_diagram() -> Diagram:
    """Made by hand, never validated: leg 1 of ``w`` is not wired."""
    return Diagram(3, {"w": Generator.white(1, 1)}, ((("in", 0), ("w", 0)),), 1, 0)


def test_invalid_diagram_fails_every_evaluation() -> None:
    d = dangling_diagram()
    ctx = MeasureContext(3)
    for _ in range(3):
        with pytest.raises(DiagramError, match="dangling"):
            evaluate(d, ctx)
        with pytest.raises(DiagramError, match="dangling"):
            d.validate()


def test_derived_diagrams_are_validated_on_first_evaluation() -> None:
    ctx = MeasureContext(3)
    b = DiagramBuilder(3)
    b.wire("in", "out")
    good, bad = b.build(), dangling_diagram()
    for d in (compose_parallel(good, bad), compose_parallel(bad, good), adjoint(bad), bad.with_fresh_ids("p.")):
        for _ in range(2):
            with pytest.raises(DiagramError, match="dangling"):
                evaluate(d, ctx)
    for d in (compose_parallel(good, good), adjoint(good), good.with_fresh_ids("p.")):
        assert evaluate(d, ctx).data.shape == (3,) * (d.n_inputs + d.n_outputs)


def test_validated_diagram_is_not_checked_again() -> None:
    # a diagram that passed is marked (by build, load_json or a first
    # evaluate) and not walked again, so a later edit of its node dict,
    # which diagrams do not allow, goes unseen; an unmarked copy sees it
    ctx = MeasureContext(3)
    made = Diagram(3, {"h": Generator.hplus()}, ((("in", 0), ("h", 0)), (("h", 1), ("out", 0))), 1, 1)
    evaluate(made, ctx)
    for d in (node_diagram(3, Generator.hplus()), load_json(dump_json(made)), made):
        d.nodes["extra"] = Generator.white(0, 1)
        d.validate()
        copy = Diagram(d.dim, d.nodes, d.edges, d.n_inputs, d.n_outputs)
        with pytest.raises(DiagramError, match="dangling"):
            copy.validate()


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
