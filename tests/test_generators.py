"""Amplitude-function and semantic-map tests.

Oracle values were computed by independent brute force (explicit sums
over the residue window) and frozen into the assertions.
"""

import json

import numpy as np
import pytest

from quditzx.generators import (
    Char,
    DomainError,
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
    amp_multiply,
    amp_to_json,
    eval_generator,
)
from quditzx.measure import MeasureContext
from quditzx.tensor import compose, identity_wire, max_abs_diff, tensor_product

DIMS = [2, 3, 4, 5]


# ---------------------------------------------------------------- amplitudes


def test_amp_examples():
    assert abs(Stab(0, 1).eval(MeasureContext(2), 1) - 1j) < 1e-12
    assert abs(Char(1).eval(MeasureContext(3), 3) - 1) < 1e-12
    ctx5 = MeasureContext(5)
    assert abs(MBox(2, 7).eval(ctx5, ctx5.upper**2) - 7) < 1e-12
    assert abs(MBox(2, 7).eval(ctx5, 0) - 1) < 1e-12


@pytest.mark.parametrize("D", DIMS)
def test_char_is_quadratic_free_stab(D):
    ctx = MeasureContext(D)
    for c in range(-D, D + 1):
        for t in range(-2 * D, 2 * D + 1):
            assert abs(Char(c).eval(ctx, t) - Stab(c, 0).eval(ctx, t)) < 1e-12


def test_unitpow_integer_powers():
    ctx = MeasureContext(5)
    a = UnitPow(0.5 + 0.25j)
    for t in [-3, -1, 0, 1, 2, 7]:
        assert abs(a.eval(ctx, t) - (0.5 + 0.25j) ** t) < 1e-12
    with pytest.raises(ValueError):
        UnitPow(0)


def test_unitpow_conjugate_negative_real_base():
    # integer powers commute with conjugation even across the log branch cut
    ctx = MeasureContext(4)
    a = UnitPow(-2.0 + 0j)
    for t in ctx.residues():
        lhs = a.conjugate().eval(ctx, int(t))
        rhs = a.eval(ctx, int(t)).conjugate()
        assert abs(lhs - rhs) < 1e-12


def test_residues_only_domain_errors():
    ctx = MeasureContext(3)
    with pytest.raises(DomainError):
        Table((1, 2, 3)).eval(ctx, 5)
    with pytest.raises(DomainError):
        PhaseVec((0.0, 0.1, 0.2)).eval(ctx, -2)
    # in-window is fine
    assert abs(Table((1, 2, 3)).eval(ctx, -1) - 1) < 1e-12  # index L_D


def test_sign_indicator_literal_membership():
    ctx = MeasureContext(5)
    s = Sign(frozenset({1, 4}))
    ind = Indicator(frozenset({0}))
    assert s.eval(ctx, 1) == -1
    assert s.eval(ctx, -1) == 1  # literal: -1 is not a member even though -1 = 4 mod 5
    assert ind.eval(ctx, 0) == 1
    assert ind.eval(ctx, 5) == 0


@pytest.mark.parametrize("D", DIMS)
def test_conjugate_is_pointwise_conjugate(D):
    ctx = MeasureContext(D)
    amps = [
        One(),
        Zero(),
        Phase(0.37),
        PhaseVec(tuple(np.linspace(0, 1, D))),
        Stab(2, 3),
        Char(1),
        UnitPow(0.3 - 1.1j),
        Table(tuple(np.exp(2j * np.linspace(0, 1, D)))),
        MBox(2, 5 - 2j),
        Sign(frozenset({1})),
        Indicator(frozenset({0, 1})),
    ]
    for a in amps:
        for t in ctx.residues():
            assert abs(a.conjugate().eval(ctx, int(t)) - a.eval(ctx, int(t)).conjugate()) < 1e-12


def test_amp_multiply_closed_forms():
    assert amp_multiply(Stab(1, 0), Stab(2, 1)) == Stab(3, 1)
    assert amp_multiply(Char(1), Char(2)) == Char(3)
    p = amp_multiply(Phase(0.5), Phase(-0.5))
    assert isinstance(p, Phase) and abs(p.theta) < 1e-15
    u = amp_multiply(UnitPow(2j), UnitPow(3))
    assert isinstance(u, UnitPow) and abs(u.alpha - 6j) < 1e-15
    assert amp_multiply(One(), Zero()) == Zero()
    assert amp_multiply(Stab(1, 1), One()) == Stab(1, 1)


def test_amp_multiply_fallback_table():
    ctx = MeasureContext(4)
    prod = amp_multiply(Phase(0.3), Char(1), ctx)
    assert isinstance(prod, Table)
    for t in ctx.residues():
        want = Phase(0.3).eval(ctx, int(t)) * Char(1).eval(ctx, int(t))
        assert abs(prod.eval(ctx, int(t)) - want) < 1e-12
    with pytest.raises(ValueError):
        amp_multiply(Phase(0.3), Char(1))  # no ctx, no closed form


def test_amp_json_round_trip():
    amps = [
        One(),
        Zero(),
        Phase(1.25),
        PhaseVec((0.0, 0.5)),
        Stab(-1, 2),
        Char(3),
        UnitPow(1 - 2j),
        Table((1 + 0j, 2j)),
        MBox(3, 0.5 + 0.5j),
        Sign(frozenset({-1, 2})),
        Indicator(frozenset({0})),
    ]
    for a in amps:
        assert amp_from_json(amp_to_json(a)) == a


# the diagram file format embeds these dicts verbatim and does not sort keys
AMP_JSON_FORMAT = [
    (One(), {"type": "one"}),
    (Zero(), {"type": "zero"}),
    (Phase(1.25), {"type": "phase", "theta": 1.25}),
    (PhaseVec((0.0, 0.5)), {"type": "phasevec", "thetas": [0.0, 0.5]}),
    (Stab(-1, 2), {"type": "stab", "a": -1, "b": 2}),
    (Char(3), {"type": "char", "c": 3}),
    (UnitPow(1 - 2j), {"type": "unit", "re": 1.0, "im": -2.0}),
    (Table((1 + 0j, 2j)), {"type": "table", "values": [[1.0, 0.0], [0.0, 2.0]]}),
    (MBox(3, 0.5 + 0.5j), {"type": "mbox", "k": 3, "alpha": [0.5, 0.5]}),
    (Sign(frozenset({2, -1})), {"type": "sign", "set": [-1, 2]}),
    (Indicator(frozenset({0})), {"type": "indicator", "set": [0]}),
]


@pytest.mark.parametrize("amp, literal", AMP_JSON_FORMAT, ids=lambda x: type(x).__name__)
def test_amp_json_format_is_pinned(amp, literal):
    got = amp_to_json(amp)
    assert list(got.items()) == list(literal.items())
    assert json.dumps(got) == json.dumps(literal)  # also pins int vs float
    assert amp_from_json(literal) == amp


def test_amp_json_rejects_unknown_input():
    with pytest.raises(ValueError, match="unknown amplitude type"):
        amp_from_json({"type": "bogus"})
    with pytest.raises(TypeError):
        amp_to_json(1.5)


# ---------------------------------------------------------------- generators


def test_white_dot_is_identity():
    for D in DIMS:
        t = eval_generator(MeasureContext(D), Generator.white(1, 1))
        assert np.allclose(t.data, np.eye(D), atol=1e-12)


def test_degree_zero_green_is_sqrt_D():
    for D in DIMS:
        t = eval_generator(MeasureContext(D), Generator.green(One(), 0, 0))
        assert abs(complex(t.data) - np.sqrt(D)) < 1e-12


def test_scalar_hbox_is_alpha():
    alpha = 0.3 - 1.7j
    t = eval_generator(MeasureContext(5), Generator.hbox(UnitPow(alpha), 0, 0))
    assert abs(complex(t.data) - alpha) < 1e-12


def test_hplus_d2_is_hadamard():
    t = eval_generator(MeasureContext(2), Generator.hplus())
    want = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.allclose(t.data, want, atol=1e-12)


def test_hplus_is_adjoint_of_hminus():
    for D in DIMS:
        ctx = MeasureContext(D)
        hp = eval_generator(ctx, Generator.hplus())
        hm = eval_generator(ctx, Generator.hminus())
        assert max_abs_diff(hp.adjoint(), hm) < 1e-12


def test_hplus_compose_hminus_identity_default_nu():
    for D in DIMS:
        ctx = MeasureContext(D)
        hp = eval_generator(ctx, Generator.hplus())
        hm = eval_generator(ctx, Generator.hminus())
        assert max_abs_diff(compose(hp, hm), identity_wire(ctx)) < 1e-12


def test_not_dot_is_negation_permutation():
    ctx = MeasureContext(3)
    t = eval_generator(ctx, Generator.not_dot(0))
    # |x> -> |-x>: entry [y, x] = 1 iff y = -x
    for x in ctx.residues():
        for y in ctx.residues():
            want = 1.0 if (x + y) % 3 == 0 else 0.0
            assert abs(t.data[y - ctx.lower, x - ctx.lower] - want) < 1e-12


def test_not_dot_label_reduced_mod_D():
    ctx = MeasureContext(4)
    a = eval_generator(ctx, Generator.not_dot(1))
    b = eval_generator(ctx, Generator.not_dot(5))
    assert max_abs_diff(a, b) < 1e-12


def test_gray_dot_zero_sum_support():
    ctx = MeasureContext(4)
    t = eval_generator(ctx, Generator.gray(2, 1))
    nu = ctx.nu
    for x1 in ctx.residues():
        for x2 in ctx.residues():
            for y in ctx.residues():
                want = nu ** (3 - 2) if (x1 + x2 + y) % 4 == 0 else 0.0
                got = t.data[y - ctx.lower, x1 - ctx.lower, x2 - ctx.lower]
                assert abs(got - want) < 1e-12


@pytest.mark.parametrize("D", DIMS)
def test_red_is_green_conjugated_by_hplus(D):
    ctx = MeasureContext(D)
    amp = Table(tuple(np.exp(1j * np.linspace(0.2, 1.9, D))))
    m, n = 2, 1
    red = eval_generator(ctx, Generator.red(amp, m, n))
    green = eval_generator(ctx, Generator.green(amp, m, n))
    hp = eval_generator(ctx, Generator.hplus())
    hp_m = hp
    for _ in range(m - 1):
        hp_m = tensor_product(hp_m, hp)
    rhs = compose(hp_m, green)
    rhs = compose(rhs, hp)  # n = 1 output leg
    assert max_abs_diff(red, rhs) < 1e-10


def test_red_point_state():
    # red dot with Char(a), no inputs, one output: D*nu^4 * nu^(-1) |-a>
    D = 5
    for nu in [None, 1.0, 0.7]:
        ctx = MeasureContext(D) if nu is None else MeasureContext(D, nu=nu)
        a = 2
        t = eval_generator(ctx, Generator.red(Char(a), 0, 1))
        want = np.zeros(D, dtype=complex)
        want[(-a) - ctx.lower] = D * ctx.nu**3
        assert np.allclose(t.data, want, atol=1e-10)


@pytest.mark.parametrize("D", [2, 3, 4, 5])
@pytest.mark.parametrize("nu", [1.0, 0.7, None])
def test_scale_factors(D, nu):
    # white = nu^(2-deg) on the diagonal; hbox = nu^deg * A; gray = nu^(deg-2)
    ctx = MeasureContext(D) if nu is None else MeasureContext(D, nu=nu)
    for m, n in [(0, 1), (1, 1), (2, 1), (2, 2), (1, 0), (0, 2)]:
        deg = m + n
        if deg > 4:
            continue
        w = eval_generator(ctx, Generator.white(m, n))
        diag = w.data[(np.arange(D),) * deg]
        assert np.allclose(diag, ctx.nu ** (2 - deg), atol=1e-10)
        h = eval_generator(ctx, Generator.hbox(One(), m, n))
        assert np.allclose(h.data, ctx.nu**deg, atol=1e-10)
        g = eval_generator(ctx, Generator.gray(m, n))
        nonzero = np.abs(g.data[np.abs(g.data) > 1e-14])
        assert np.allclose(nonzero, ctx.nu ** (deg - 2), atol=1e-10)


@pytest.mark.parametrize("D", [2, 3, 5])
def test_flexsymmetry_all_kinds(D):
    """Bending the last input to the front output leaves the entries in place."""
    ctx = MeasureContext(D)
    amp = Table(tuple(np.exp(1j * np.linspace(0.1, 2.0, D)))) if D else None
    kinds = []
    for m, n in [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1), (1, 2), (3, 0), (0, 3)]:
        for mk in ("white", "gray"):
            kinds.append(Generator(mk, m, n))
        kinds.append(Generator.green(amp, m, n))
        kinds.append(Generator.red(amp, m, n))
        if m + n <= 3:
            kinds.append(Generator.hbox(UnitPow(0.8 + 0.3j), m, n))
    for m, n in [(1, 1), (2, 0), (0, 2)]:
        kinds.append(Generator("hplus", m, n))
        kinds.append(Generator("hminus", m, n))
        kinds.append(Generator("not", m, n, c=1))
    for g in kinds:
        if g.m == 0:
            continue
        t = eval_generator(ctx, g)
        bent = eval_generator(ctx, Generator(g.kind, g.m - 1, g.n + 1, amp=g.amp, c=g.c))
        # cup-bending the last input makes it the first output; the cup is a
        # plain delta, so this is an axis move of the dense entries
        moved = np.moveaxis(t.data, g.n + g.m - 1, 0)
        assert np.max(np.abs(bent.data - moved)) < 1e-10


def test_flexsymmetry_via_explicit_cup():
    # independent check of the bending convention through real wire tensors
    from quditzx.tensor import cup

    ctx = MeasureContext(3)
    g = Generator.green(Table((1, 2j, -0.5)), 1, 1)
    t = eval_generator(ctx, g)  # 1 -> 1
    bent = eval_generator(ctx, Generator.green(g.amp, 0, 2))  # 0 -> 2
    # wire the cup's second leg into t's input: U[a, y] = sum_b cup[a,b] t[y, b]
    u = np.einsum("ab,yb->ay", cup(ctx).data, t.data)
    assert np.max(np.abs(u - bent.data)) < 1e-12


def test_generator_validation():
    with pytest.raises(ValueError):
        Generator("hplus", 1, 2)
    with pytest.raises(ValueError):
        Generator("white", 1, 1, amp=One())
    with pytest.raises(ValueError):
        Generator("green", 1, 1)
    with pytest.raises(ValueError):
        Generator.hbox(Table((1, 2, 3)), 1, 1)  # residues-only amp, 2 legs
    # 1-leg hbox with a residues-only amp is fine
    t = eval_generator(MeasureContext(3), Generator.hbox(Table((1, 2, 3)), 0, 1))
    assert t.data.shape == (3,)


def test_generator_conjugate_matches_tensor_adjoint():
    ctx = MeasureContext(4)
    gens = [
        Generator.green(Phase(0.7), 2, 1),
        Generator.red(Stab(1, 2), 1, 1),
        Generator.hbox(UnitPow(0.2 + 0.9j), 1, 1),
        Generator.hplus(),
        Generator.not_dot(1),
        Generator.gray(1, 2),
    ]
    for g in gens:
        lhs = eval_generator(ctx, g.conjugate(ctx.dim))
        # conjugate generator keeps the same (m, n); adjoint swaps, so compare
        # entries against plain conjugation (all formulas are leg-symmetric)
        rhs_data = np.conj(eval_generator(ctx, g).data)
        assert np.max(np.abs(lhs.data - rhs_data)) < 1e-12


def test_red_conjugate_reflects_through_window():
    # even D: the window is asymmetric, so red conjugation must reflect the
    # amplitude arguments, not just conjugate the values
    for D in [2, 4, 6]:
        ctx = MeasureContext(D)
        for amp in [Phase(0.83), UnitPow(0.6 + 0.4j), Stab(1, 1), Char(2)]:
            g = Generator.red(amp, 1, 1)
            lhs = eval_generator(ctx, g.conjugate(D)).data
            rhs = np.conj(eval_generator(ctx, g).data)
            assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_green_phase_adjoint_example():
    ctx = MeasureContext(5)
    lhs = eval_generator(ctx, Generator.green(Phase(0.9), 1, 1)).adjoint()
    rhs = eval_generator(ctx, Generator.green(Phase(-0.9), 1, 1))
    assert max_abs_diff(lhs, rhs) < 1e-12
