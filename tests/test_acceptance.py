"""End-to-end acceptance suite.

Each test pins one headline guarantee of the package at a fixed
tolerance: Fourier unitarity, the full rule soundness matrix, the
normalization-independent rule subset, the quadratic-integral closed
form, generator scale factors, gadget fidelity, normal-form synthesis,
the D=2 reduction, and flexsymmetry.  Stated runtime budgets are
asserted with a monotonic clock.
"""

import math
import time

import numpy as np
import pytest

from quditzx import construct, gauss, rewrite
from quditzx.construct import build, gadget_id, normal_form, target_tensor
from quditzx.diagram import evaluate
from quditzx.generators import (
    Char,
    Generator,
    One,
    Phase,
    Stab,
    UnitPow,
    eval_generator,
)
from quditzx.measure import MeasureContext
from quditzx.tensor import Tensor, max_abs_diff


# -- 1: Fourier unitarity ----------------------------------------------


def test_fourier_unitarity_and_general_nu_product():
    start = time.monotonic()
    for D in range(2, 10):
        ctx = MeasureContext(D)
        m = evaluate(build(gadget_id("fourier"), ctx), ctx).as_matrix()
        gram = m.conj().T @ m
        assert np.max(np.abs(gram - np.eye(D))) < 1e-12
    for nu in (1.0, 0.7):
        for D in range(2, 10):
            ctx = MeasureContext(D, nu=nu)
            m = evaluate(build(gadget_id("fourier"), ctx), ctx).as_matrix()
            gram = m.conj().T @ m
            assert np.max(np.abs(gram - D * nu**4 * np.eye(D))) < 1e-12
    assert time.monotonic() - start < 1.0


# -- 2: full soundness matrix ------------------------------------------


def test_soundness_matrix_all_rules():
    start = time.monotonic()
    rows = rewrite.check_all(range(2, 7), samples=5, seed=0, tol=1e-8)
    seen = {(row["rule"], row["dim"]) for row in rows}
    assert seen == {(rid, D) for rid in rewrite.CATALOG for D in range(2, 7)}
    per_pair = {}
    for row in rows:
        per_pair.setdefault((row["rule"], row["dim"]), []).append(row["status"])
    for statuses_here in per_pair.values():
        # five sampled parameter sets, or a single explicit skip marker
        assert len(statuses_here) == 5 or statuses_here == ["skip"]
    statuses = {row["status"] for row in rows}
    assert "fail" not in statuses
    assert statuses <= {"pass", "skip"}
    # the composite-modulus rule has no valid parameters below D=8
    zsp = [row for row in rows if row["rule"] == "ZX-ZSP"]
    assert zsp and all(row["status"] == "skip" for row in zsp)
    # size-capped rules stay runnable through D=6
    for rid in ("ZX-MEH", "ZH-MEH", "ZH-O", "ZH-ZPL"):
        capped = [row for row in rows if row["rule"] == rid]
        assert capped and all(row["status"] == "pass" for row in capped)
    assert time.monotonic() - start < 300.0


def test_size_capped_rules_pass_at_their_cap():
    # ZX-MEH and ZH-MEH, whose degree-(D+1) dots enter split by
    # characters, are no longer capped and pass past the old cap too
    capped, meh = ["ZH-O", "ZH-ZPL"], ["ZX-MEH", "ZH-MEH"]
    assert all(rewrite.CATALOG[rid].dim_cap == 7 for rid in capped)
    assert all(rewrite.CATALOG[rid].dim_cap is None for rid in meh)
    rows = rewrite.check_all([7], samples=1, rules=capped + meh) + rewrite.check_all([8], samples=1, rules=meh)
    assert [row["rule"] for row in rows] == sorted(capped + meh) + sorted(meh)
    assert all(row["status"] == "pass" for row in rows)


# -- 3: normalization-independent subset -------------------------------


@pytest.mark.parametrize("nu", [1.0, 0.7, None])
def test_nu_independent_rules(nu):
    rules = sorted(rewrite.NU_ANY_RULES)
    assert rules == [
        "ZH-AI", "ZH-HM", "ZH-WGB", "ZH-WNS", "ZX-CPY", "ZX-GF", "ZX-PU",
    ]
    rows = rewrite.check_all(range(2, 6), samples=5, seed=0, tol=1e-8, nu=nu, rules=rules)
    assert rows and all(row["status"] == "pass" for row in rows)


# -- 4: quadratic integral closed form ---------------------------------


def test_gamma_closed_form_against_oracle():
    start = time.monotonic()
    for D in range(2, 13):
        ctx = MeasureContext(D)
        assert abs(gauss.gamma(0, 0, ctx).value - math.sqrt(D)) < 1e-10
        for a in range(-D, 2 * D):
            for b in range(-D, 2 * D):
                got = gauss.gamma(a, b, ctx)
                want = gauss.gamma_oracle(a, b, ctx)
                assert abs(got.value - want) < 1e-9
                mag = abs(got.value)
                if got.magnitude_class == "zero":
                    assert mag < 1e-9
                else:
                    assert abs(mag - math.sqrt(math.gcd(b, D))) < 1e-9
    assert time.monotonic() - start < 10.0


# -- 5: scale factors of the plain generators --------------------------


@pytest.mark.parametrize("D", [2, 3, 4, 5])
@pytest.mark.parametrize("nu", [None, 1.0, 0.7])
def test_entry_magnitude_scale_factors(D, nu):
    ctx = MeasureContext(D, nu=nu) if nu is not None else MeasureContext(D)
    unit_amp = UnitPow(np.exp(0.9j))
    for m, n in [(0, 1), (1, 0), (1, 1), (0, 2), (2, 1), (1, 3), (2, 2), (0, 4)]:
        k = m + n
        w = eval_generator(ctx, Generator.white(m, n)).data
        w_nonzero = np.abs(w[np.abs(w) > 1e-14])
        assert np.allclose(w_nonzero, ctx.nu ** (2 - k), atol=1e-10)
        h = eval_generator(ctx, Generator.hbox(unit_amp, m, n)).data
        assert np.allclose(np.abs(h), ctx.nu**k, atol=1e-10)
        g = eval_generator(ctx, Generator.gray(m, n)).data
        g_nonzero = np.abs(g[np.abs(g) > 1e-14])
        assert np.allclose(g_nonzero, ctx.nu ** (k - 2), atol=1e-10)


# -- 6: gadget fidelity ------------------------------------------------


def _acceptance_gadget_ids(D):
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
    ]
    for a in {0, 1, -1, D // 2}:
        ids.append(gadget_id("ket_a", a=a))
        ids.append(gadget_id("ket_omega_a", a=a))
    for u in {0, 1, 2, -1, D + 1}:
        ids.append(gadget_id("m_mult", u=u))
    for c in {0, 1, 2, -1}:
        ids.append(gadget_id("cx_pow", c=c))
        ids.append(gadget_id("cz_pow", c=c))
        ids.append(gadget_id("multiplier", c=c))
        ids.append(gadget_id("fourier_box", c=c))
    for c in {1, 2, -1}:
        ids.append(gadget_id("ccx_pow", c=c))
        ids.append(gadget_id("ccz_pow", c=c))
    return ids


@pytest.mark.parametrize("D", [2, 3, 4, 5, 6])
def test_every_gadget_matches_closed_form(D):
    ctx = MeasureContext(D)
    ids = _acceptance_gadget_ids(D)
    assert {gid.name for gid in ids} == set(construct.GADGET_NAMES)
    for gid in ids:
        got = evaluate(build(gid, ctx), ctx)
        want = target_tensor(gid, ctx)
        assert max_abs_diff(got, want) < 1e-9, gid


@pytest.mark.parametrize("D", [2, 3, 4, 5, 6])
def test_unitary_gadgets_are_unitary(D):
    ctx = MeasureContext(D)
    units = [u for u in range(1, D) if math.gcd(u, D) == 1]
    ids = [
        gadget_id("pauli_x"),
        gadget_id("pauli_z"),
        gadget_id("s_gate"),
        gadget_id("fourier"),
        gadget_id("cx"),
        gadget_id("cz"),
        gadget_id("cx_pow", c=2),
        gadget_id("cz_pow", c=-1),
        gadget_id("ccx_pow", c=1),
        gadget_id("ccz_pow", c=2),
    ]
    ids += [gadget_id("m_mult", u=u) for u in units]
    ids += [gadget_id("multiplier", c=u) for u in units]
    ids += [gadget_id("fourier_box", c=u) for u in units]
    for gid in ids:
        m = evaluate(build(gid, ctx), ctx).as_matrix()
        assert m.shape[0] == m.shape[1]
        gram = m.conj().T @ m
        assert np.max(np.abs(gram - np.eye(m.shape[0]))) < 1e-9, gid


# -- 7: normal-form round trip -----------------------------------------


def test_normal_form_round_trip_random_operators():
    start = time.monotonic()
    for D in (2, 3, 4):
        ctx = MeasureContext(D)
        for m in range(4):
            for n in range(4 - m):
                rng = np.random.default_rng([2026, D, m, n])
                for _ in range(20):
                    arr = rng.normal(size=(D,) * (m + n)) + 1j * rng.normal(
                        size=(D,) * (m + n)
                    )
                    t = Tensor(D, m, n, arr)
                    back = evaluate(normal_form(t, ctx), ctx)
                    scale = np.max(np.abs(t.data))
                    assert max_abs_diff(back, t) / scale < 1e-8
    assert time.monotonic() - start < 30.0


# -- 8: the two-level special case -------------------------------------


def test_qubit_reduction():
    ctx = MeasureContext(2)
    h = eval_generator(ctx, Generator.hplus()).as_matrix()
    expected = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    assert np.max(np.abs(h - expected)) < 1e-12

    dot = eval_generator(ctx, Generator.green(One(), 0, 0)).data.reshape(())
    assert abs(dot - math.sqrt(2)) < 1e-12

    alpha = 0.3 - 1.2j
    box = eval_generator(ctx, Generator.hbox(UnitPow(alpha), 0, 0)).data.reshape(())
    assert abs(box - alpha) < 1e-12


# -- 9: flexsymmetry ---------------------------------------------------


def _as_all_outputs(arr, n_inputs):
    # bend inputs one at a time: the last input leg becomes the first output
    for _ in range(n_inputs):
        arr = np.moveaxis(arr, -1, 0)
    return arr


@pytest.mark.parametrize("D", [2, 3, 5])
def test_flexsymmetry_all_kinds(D):
    ctx = MeasureContext(D)
    amp = Phase(0.45)
    unit_amp = UnitPow(np.exp(0.35j))
    for k in (1, 2, 3):
        variants = []
        for m in range(k + 1):
            n = k - m
            variants.append([
                Generator.white(m, n),
                Generator.gray(m, n),
                Generator.green(amp, m, n),
                Generator.red(amp, m, n),
                Generator.hbox(unit_amp, m, n),
            ])
            if k == 2:
                variants[-1] += [
                    Generator("hplus", m, n),
                    Generator("hminus", m, n),
                    Generator("not", m, n, c=1),
                ]
        base = [_as_all_outputs(eval_generator(ctx, g).data, g.m) for g in variants[0]]
        for split in variants[1:]:
            for g, want in zip(split, base):
                got = _as_all_outputs(eval_generator(ctx, g).data, g.m)
                assert np.max(np.abs(got - want)) < 1e-10, g
