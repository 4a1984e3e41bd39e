"""Amplitude-function and semantic-map tests.

Oracle values were computed by independent brute force (explicit sums
over the residue window) and frozen into the assertions.
"""

import json
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import quditzx.diagram as dg
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
    diagonal_weight,
    eval_generator,
    generator_entries,
)
from quditzx.measure import MeasureContext, OverflowGuardError, omega_pow, tau_pow
from quditzx.tensor import max_abs_diff

from oracles import adjoint, compose, cup, identity_wire, tensor_product

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


HUGE_LABELS = (0, 1, -7, 2**62 + 1, 2**63, -(2**63) - 5, 10**23, -(10**23) + 2)


@pytest.mark.parametrize("D", range(2, 9))
def test_label_eval_arr_matches_eval_for_huge_labels(D):
    # the reference formulas work in Python ints; eval_arr must reduce labels before int64
    ctx = MeasureContext(D)
    t = np.concatenate([ctx.residues(), [-(2**40), 3 * 2**40 + 1]])
    for x in HUGE_LABELS:
        for amp in (Char(x), Stab(x, 1), Stab(1, x), Stab(x, -x)):
            if isinstance(amp, Char):
                want = np.array([omega_pow(ctx, amp.c * v) for v in t.tolist()])
            else:
                want = np.array([tau_pow(ctx, 2 * amp.a * v + amp.b * v * v) for v in t.tolist()])
            assert np.array_equal(amp.eval_arr(ctx, t), want), (amp, D)
        assert np.array_equal(Char(x).eval_arr(ctx, t), Char(x % D).eval_arr(ctx, t))
        assert np.array_equal(Stab(x, x).eval_arr(ctx, t), Stab(x % D, x % (2 * D)).eval_arr(ctx, t))


def test_unitpow_integer_powers():
    ctx = MeasureContext(5)
    a = UnitPow(0.5 + 0.25j)
    for t in [-3, -1, 0, 1, 2, 7]:
        assert abs(a.eval(ctx, t) - (0.5 + 0.25j) ** t) < 1e-12
    with pytest.raises(ValueError):
        UnitPow(0)


ALL_VARIANTS = (
    One(),
    Zero(),
    Phase(0.37),
    PhaseVec((0.0, 0.1, 0.2)),
    Stab(2, 3),
    Char(1),
    UnitPow(0.3 - 1.1j),
    Table((1, 2, 3)),
    MBox(2, 5 - 2j),
    Sign(frozenset({1})),
    Indicator(frozenset({0, 1})),
)


@pytest.mark.parametrize("amp", ALL_VARIANTS, ids=lambda a: type(a).__name__)
def test_scalar_eval_outside_int64_raises(amp):
    ctx = MeasureContext(3)
    assert isinstance(amp.eval(ctx, 1), complex)
    for t in (2**63, -(2**63) - 1, 10**30):
        with pytest.raises(OverflowGuardError):
            amp.eval(ctx, t)


@pytest.mark.parametrize("amp", [PhaseVec((0.0, 0.1, 0.2)), Table((1, 2, 3))], ids=lambda a: type(a).__name__)
def test_residue_indexed_eval_arr_checks_window_and_length(amp):
    ctx = MeasureContext(3)
    assert amp.eval_arr(ctx, np.array([[-1, 0], [1, 1]])).shape == (2, 2)
    for t in ([-1, 0, 2], [[0], [-2]], [1, 5 * 2**40]):
        with pytest.raises(DomainError):
            amp.eval_arr(ctx, np.array(t, dtype=np.int64))
    for dim in (2, 4):
        with pytest.raises(DomainError):
            amp.eval_arr(MeasureContext(dim), np.array([0, 1]))


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


# one of each amplitude variant that a product once took in closed form
FUSED_AMPS = [One(), Zero(), Phase(0.7), Stab(1, 2), Char(1), UnitPow(1.1 - 0.2j)]


@pytest.mark.parametrize("dim", [2, 5])
def test_amp_multiply_is_the_table_of_pointwise_products(dim):
    ctx = MeasureContext(dim)
    window = [int(t) for t in ctx.residues()]
    for a in FUSED_AMPS:
        for b in FUSED_AMPS:
            want = Table(tuple(a.eval(ctx, t) * b.eval(ctx, t) for t in window))
            assert amp_multiply(a, b, ctx) == want, (a, b)


def test_amp_multiply_fallback_table():
    ctx = MeasureContext(4)
    prod = amp_multiply(Phase(0.3), Char(1), ctx)
    assert isinstance(prod, Table)
    for t in ctx.residues():
        want = Phase(0.3).eval(ctx, int(t)) * Char(1).eval(ctx, int(t))
        assert abs(prod.eval(ctx, int(t)) - want) < 1e-12


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


@pytest.mark.parametrize(
    "obj",
    [
        {"type": "char", "c": 2.5},
        {"type": "stab", "a": 1, "b": True},
        {"type": "mbox", "k": "1", "alpha": [1.0, 0.0]},
        {"type": "indicator", "set": [0.5]},
        {"type": "sign", "set": [1, "2"]},
        {"type": "phase", "theta": "1.5"},
        {"type": "phase", "theta": True},
        {"type": "phase", "theta": 10**400},
        {"type": "phasevec", "thetas": [0.0, None]},
        {"type": "unit", "re": "1", "im": 0},
        {"type": "mbox", "k": 1, "alpha": [1.0, False]},
        {"type": "table", "values": [[1.0, 0.0], ["2", 0.0]]},
        {"type": "phase", "theta": float("nan")},
        {"type": "phasevec", "thetas": [0.0, float("inf"), 1.0]},
        {"type": "unit", "re": 1.0, "im": float("-inf")},
        {"type": "table", "values": [[1.0, 0.0], [float("nan"), 0.0], [0.0, 1.0]]},
        {"type": "mbox", "k": 1, "alpha": [float("inf"), 0.0]},
    ],
)
def test_amp_json_rejects_bad_values(obj):
    with pytest.raises(ValueError, match="must be"):
        amp_from_json(obj)


@pytest.mark.parametrize(
    "obj, what",
    [
        ([1], "an amplitude must be an object, got [1]"),
        ("phase", "an amplitude must be an object, got 'phase'"),
        ({"theta": 1.0}, "amplitude has no 'type'"),
        ({"type": "phase"}, "phase amplitude has no 'theta'"),
        ({"type": "unit", "re": 1.0}, "unit amplitude has no 'im'"),
        ({"type": "mbox", "k": 1}, "mbox amplitude has no 'alpha'"),
    ],
)
def test_amp_json_names_the_missing_field(obj, what):
    with pytest.raises(ValueError) as info:
        amp_from_json(obj)
    assert str(info.value) == what


def test_amp_json_reads_integral_float_labels():
    assert amp_from_json({"type": "char", "c": 2.0}) == Char(2)
    assert amp_from_json({"type": "indicator", "set": [1.0, -2]}) == Indicator(frozenset({1, -2}))


# ---------------------------------------------------------------- generators


NU_KINDS = [
    ("green", Phase(0.3)), ("white", None), ("red", Phase(0.7)), ("hbox", Phase(0.4)), ("gray", None),
    ("hplus", None), ("hminus", None), ("not", None),
]


@pytest.mark.parametrize("kind,amp", NU_KINDS, ids=[k for k, _ in NU_KINDS])
def test_nu_power_is_the_power_of_nu_in_the_entries(kind, amp):
    # the builders read no nu: at nu=2 they give the bits they give at
    # nu=1, the dense entries, a red or gray dot's character factors and a
    # diagonal dot's weight, on the window and on mapped residues; and
    # eval_generator's tensor at nu=2 is 2^k times those unit entries, bit
    # for bit
    def same(a, b) -> bool:
        a, b = np.asarray(a), np.asarray(b)
        return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()

    for D in (3, 4, 7):
        one, two = MeasureContext(D, 1.0), MeasureContext(D, 2.0)
        v = one.residues()
        # leg j reads s * v + t for the j-th (s, t); legs 0 and 3 share one array
        mapped = [(s * v + t - one.lower) % D + one.lower for s, t in [(-1, 1), (1, 2), (-1, 0)]]
        mapped.append(mapped[0])
        for deg in [2] if kind in ("hplus", "hminus", "not") else range(5):
            g = Generator(kind, deg // 2, deg - deg // 2, amp=amp, c=1 if kind == "not" else 0)
            unit = generator_entries(one, g)
            assert same(generator_entries(two, g), unit), (D, deg)
            assert same(eval_generator(two, g).data, 2.0**g.nu_power * unit), (D, deg)
            assert same(eval_generator(one, g).data, unit), (D, deg)
            if kind in ("red", "gray"):
                for legs in (None, mapped[:deg]):
                    one_split, two_split = dg._split_factors(one, g, legs), dg._split_factors(two, g, legs)
                    assert len(one_split) == deg + 1 and all(map(same, one_split, two_split)), (D, deg)
            if kind in ("green", "white") and deg:
                for vals in (None, mapped[0], mapped[1]):
                    assert same(diagonal_weight(two, g, vals), diagonal_weight(one, g, vals)), (D, deg)


@pytest.mark.parametrize("gen, nu, power", [
    (Generator.green(One(), 0, 30), 1e-15, -28),  # nu^-28 itself
    (Generator.gray(0, 0), 1e-160, -2),
    (Generator.hbox(UnitPow(1.7e308), 1, 1), 2.0, 2),  # an entry times nu^2
    (Generator.red(Table([1e308] * 3), 0, 1), 1.0, 3),  # an entry, 3e308
], ids=["green", "gray", "hbox", "red"])
def test_a_generator_past_the_float_range_is_refused_by_name(gen, nu, power):
    # nu^k is taken first: the green dot's 3^30 dense entries are never built
    what = f"^{gen.kind} of degree {gen.degree}, whose entries carry nu\\^{power}, leaves the float range at nu={nu!r}$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowGuardError, match=what):
            eval_generator(MeasureContext(3, nu), gen)


def test_white_dot_is_identity():
    for D in DIMS:
        t = eval_generator(MeasureContext(D), Generator.white(1, 1))
        assert np.allclose(t.data, np.eye(D), atol=1e-12)


def test_degree_zero_green_is_sqrt_D():
    for D in DIMS:
        t = eval_generator(MeasureContext(D), Generator.green(One(), 0, 0))
        assert abs(complex(t.data) - np.sqrt(D)) < 1e-12


@pytest.mark.parametrize("D", [2, 7, 4096, 4097, 3 * 4096 + 5])
def test_legless_dot_weight_is_one_python_sum_of_the_entries(D):
    # the entries are summed a slice at a time, in order, by one sum():
    # the bits of summing the list of all of them
    ctx = MeasureContext(D, 0.83)
    for gen in (Generator.white(0, 0), Generator.green(Phase(0.7), 0, 0), Generator.green(Stab(1, 2), 0, 0)):
        amp = gen.amp if gen.kind == "green" else One()
        want = np.asarray(complex(ctx.nu**2 * sum(amp.eval_arr(ctx, ctx.residues()).tolist())))
        got = eval_generator(ctx, gen).data
        assert got.shape == () and got.tobytes() == want.tobytes()


def test_legless_dot_weight_holds_no_list_of_all_entries():
    # a list of D complex numbers costs about 40 bytes an entry: 40 MiB here
    ctx = MeasureContext(2**20)
    tracemalloc.start()
    try:
        got = eval_generator(ctx, Generator.green(One(), 0, 0)).data
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert complex(got) == 2**20 * ctx.nu**2
    assert peak < 32 * 2**20


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
        assert max_abs_diff(adjoint(hp), hm) < 1e-12


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
    for c in HUGE_LABELS:
        for D in (3, 4):
            ctx = MeasureContext(D)
            got = eval_generator(ctx, Generator.not_dot(c)).data
            assert np.array_equal(got, eval_generator(ctx, Generator.not_dot(c % D)).data), (c, D)


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


@pytest.mark.parametrize("D", DIMS)
@pytest.mark.parametrize("nu", [None, 0.83])
def test_legless_red_dot_matches_the_dense_red_path(D, nu):
    # nu^2 * sum_j A(j) is the one-leg red node's entry at leg value 0, over nu
    ctx = MeasureContext(D, nu)
    thetas = np.linspace(0.3, 2.9, D)
    for amp in (One(), Zero(), Char(2), Stab(1, 3), PhaseVec(tuple(thetas)), Table(tuple(np.exp(1j * thetas)))):
        legless = eval_generator(ctx, Generator.red(amp, 0, 0)).data
        one_leg = eval_generator(ctx, Generator.red(amp, 0, 1)).data
        assert legless.shape == ()
        assert abs(legless - one_leg[-ctx.lower] / ctx.nu) < 1e-12


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
    with pytest.raises(ValueError, match="^leg counts must be nonnegative$"):
        Generator("green", -1, 1, amp=One())
    with pytest.raises(ValueError):
        Generator("white", 1, 1, amp=One())
    with pytest.raises(ValueError):
        Generator("green", 1, 1)
    with pytest.raises(ValueError):
        Generator.hbox(Table((1, 2, 3)), 1, 1)  # residues-only amp, 2 legs
    # 1-leg hbox with a residues-only amp is fine
    t = eval_generator(MeasureContext(3), Generator.hbox(Table((1, 2, 3)), 0, 1))
    assert t.data.shape == (3,)


@pytest.mark.parametrize("kind, amp", [("green", One()), ("red", One()), ("white", None), ("gray", None),
                                       ("hbox", One()), ("hplus", None), ("hminus", None)])
def test_only_a_not_dot_takes_a_nonzero_c(kind, amp):
    # as the loader words it; a file drops the c of any other kind, so
    # such a generator would not equal its own diagram file
    with pytest.raises(ValueError, match=r"^only a 'not' node takes a 'c'$"):
        Generator(kind, 1, 1, amp=amp, c=5)
    assert Generator(kind, 1, 1, amp=amp, c=0) == Generator(kind, 1, 1, amp=amp)
    assert Generator("not", 1, 1, c=5).c == 5


def test_green_phase_adjoint_example():
    ctx = MeasureContext(5)
    lhs = adjoint(eval_generator(ctx, Generator.green(Phase(0.9), 1, 1)))
    rhs = eval_generator(ctx, Generator.green(Phase(-0.9), 1, 1))
    assert max_abs_diff(lhs, rhs) < 1e-12


def test_mbox_pivot_refuses_huge_k_before_computing_it():
    ctx = MeasureContext(4)
    amp = MBox(10**10, 2)
    start = time.perf_counter()
    with pytest.raises(OverflowGuardError):
        amp.eval(ctx, 2)
    with pytest.raises(OverflowGuardError):
        amp.eval_arr(ctx, ctx.residues())
    assert time.perf_counter() - start < 2  # computing U_D^k first takes about a minute
    # U_D = 1 at D = 2 and 3, so every k has the pivot 1
    for dim in (2, 3):
        assert amp.eval(MeasureContext(dim), 1) == 2


@pytest.mark.parametrize("dim", range(2, 10))
def test_mbox_pivot_accepts_exactly_the_int64_powers(dim):
    ctx = MeasureContext(dim)
    for k in range(80):
        fits = ctx.upper**k < 2**63
        try:
            MBox(k, 2).eval(ctx, 0)
        except OverflowGuardError:
            assert not fits, k
        else:
            assert fits, k


@pytest.mark.parametrize("cls", [Indicator, Sign])
def test_membership_ignores_members_outside_int64(cls):
    ctx = MeasureContext(3)
    amp = cls(frozenset({10**23, -(10**30), 2**63, 1, -(2**63)}))
    t = np.array([-(2**63), -1, 0, 1, 2**63 - 1], dtype=np.int64)
    assert list(amp.eval_arr(ctx, t)) == [cls.HIT if x in amp.members else cls.MISS for x in t.tolist()]
    assert amp.eval(ctx, 1) != amp.eval(ctx, 0)
