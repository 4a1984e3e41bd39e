"""Residue window, measure, and phase-constant tests.

Oracle values below were computed by independent brute force (direct
summation over the window with Python complex arithmetic) and frozen.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditzx.measure import (
    MeasureContext,
    OverflowGuardError,
    checked_i64,
    integrate,
    omega_pow,
    omega_pow_arr,
    residue,
    tau_pow,
    tau_pow_arr,
)

DIMS = [2, 3, 4, 5, 6, 7, 8, 9]


# ---------------------------------------------------------------- context


@pytest.mark.parametrize("D", DIMS)
def test_window_bounds(D):
    ctx = MeasureContext(D)
    assert ctx.lower <= 0 < ctx.upper or (ctx.lower <= 0 and ctx.upper > 0)
    assert ctx.upper - ctx.lower + 1 == D
    assert ctx.sigma == (1 if D % 2 == 0 else 0)


@pytest.mark.parametrize("D", DIMS)
def test_tau_squares_to_omega(D):
    ctx = MeasureContext(D)
    assert abs(ctx.tau**2 - ctx.omega) < 1e-12
    assert abs(ctx.tau ** (2 * D) - 1) < 1e-12


def test_phase_constants_are_numpys_bit_for_bit():
    # omega and tau come from cmath, so reading them never imports numpy
    for D in range(2, 4097):
        ctx = MeasureContext(D)
        assert np.complex128(ctx.omega).tobytes() == np.exp(2j * np.pi / D).tobytes(), D
        assert np.complex128(ctx.tau).tobytes() == np.exp(1j * np.pi * (D**2 + 1) / D).tobytes(), D


@pytest.mark.parametrize("D", [100000001, 4294967297])
def test_tau_of_a_dimension_past_the_floats_exact_integers(D):
    # D^2 + 1 > 2^53 would round as a float; tau reduces it mod 2D first
    assert D * D + 1 > 2**53
    assert MeasureContext(D).tau == cmath.exp(1j * math.pi * ((D * D + 1) % (2 * D)) / D)


@pytest.mark.parametrize("D", DIMS)
def test_default_weight(D):
    ctx = MeasureContext(D)
    assert ctx.is_well_tempered
    assert abs(ctx.total_measure - np.sqrt(D)) < 1e-12
    assert abs(ctx.nu**2 - 1 / np.sqrt(D)) < 1e-12
    assert not MeasureContext(D, nu=1.0).is_well_tempered


def test_context_validation():
    with pytest.raises(ValueError):
        MeasureContext(1)
    with pytest.raises(ValueError):
        MeasureContext(3, nu=0.0)
    with pytest.raises(ValueError):
        MeasureContext(3, nu=-0.5)


@pytest.mark.parametrize("dim", [2.5, 3.0, "3", True, False])
def test_context_refuses_a_dimension_that_is_not_an_integer(dim):
    # MeasureContext(2.5) gave the window [-0.0, 1.0] and omega = e^(2 pi i / 2.5)
    with pytest.raises(TypeError, match="a dimension must be an integer"):
        MeasureContext(dim)


@pytest.mark.parametrize("nu, error, match", [
    (True, TypeError, "^nu must be a real number, got True$"),
    ("0.5", TypeError, "^nu must be a real number, got '0.5'$"),
    (1j, TypeError, "^nu must be a real number, got 1j$"),
    (float("inf"), ValueError, "^nu must be finite, got inf$"),
])
def test_context_refuses_a_weight_that_is_not_a_finite_positive_real(nu, error, match):
    # an infinite nu passed ZX-GI, ZX-GFP and ZH-AI, True gave nu = 1.0,
    # and a str or a complex raised a bare comparison TypeError
    with pytest.raises(error, match=match):
        MeasureContext(3, nu)


@pytest.mark.parametrize("nu", [2, np.int64(2), np.float32(0.5), np.float64(0.5), 1e200, 1e-320])
def test_context_stores_a_real_weight_as_a_float(nu):
    ctx = MeasureContext(3, nu)
    assert type(ctx.nu) is float and ctx.nu == float(nu)


def test_context_stores_a_python_int_dimension():
    ctx = MeasureContext(np.int64(5))
    assert type(ctx.dim) is int and ctx == MeasureContext(5)
    assert (ctx.lower, ctx.upper) == (-2, 2)


@pytest.mark.parametrize("nu", [1e200, 1e-320])
def test_total_measure_refuses_a_value_past_the_float_range(nu):
    # D * nu^2 overflows at 1e200 and underflows to 0 at 1e-320
    with pytest.raises(OverflowGuardError, match="the total measure D \\* nu\\^2 leaves the float range"):
        MeasureContext(3, nu).total_measure


# ---------------------------------------------------------------- residue


def test_residue_examples():
    assert residue(MeasureContext(5), 7) == 2
    assert residue(MeasureContext(4), 3) == -1
    assert residue(MeasureContext(2), -1) == 1


@given(st.integers(2, 12), st.integers(-10**6, 10**6))
def test_residue_congruent_and_in_window(D, t):
    ctx = MeasureContext(D)
    r = residue(ctx, t)
    assert (r - t) % D == 0
    assert ctx.lower <= r <= ctx.upper
    assert residue(ctx, t + D) == r
    assert residue(ctx, r) == r


# ---------------------------------------------------------------- sigma


@pytest.mark.parametrize("D", DIMS)
def test_negate_involution(D):
    # sigma = U_D + L_D, so x -> sigma - x maps the window onto itself
    # with no reduction mod D
    ctx = MeasureContext(D)
    window = ctx.residues().tolist()
    assert ctx.sigma == (D + 1) % 2
    assert sorted(ctx.sigma - x for x in window) == window
    assert all(residue(ctx, ctx.sigma - x) == ctx.sigma - x for x in window)


# ---------------------------------------------------------------- integrate


def test_integrate_counting():
    assert abs(integrate(MeasureContext(4), lambda x: 1) - 2.0) < 1e-12
    assert abs(integrate(MeasureContext(3, nu=1.0), lambda x: 1) - 3.0) < 1e-12


def test_integrate_roots_of_unity_cancel():
    ctx = MeasureContext(3)
    val = integrate(ctx, lambda x: ctx.omega**x)
    assert abs(val) < 1e-12


@settings(max_examples=50)
@given(st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_integrate_linearity(D, seed):
    ctx = MeasureContext(D)
    rng = np.random.default_rng(seed)
    f = dict(zip(ctx.residues().tolist(), rng.normal(size=D) + 1j * rng.normal(size=D)))
    g = dict(zip(ctx.residues().tolist(), rng.normal(size=D) + 1j * rng.normal(size=D)))
    a, b = complex(*rng.normal(size=2)), complex(*rng.normal(size=2))
    lhs = integrate(ctx, lambda x: a * f[x] + b * g[x])
    rhs = a * integrate(ctx, f.__getitem__) + b * integrate(ctx, g.__getitem__)
    assert abs(lhs - rhs) < 1e-12


@pytest.mark.parametrize("D", [2, 3, 4, 7, 12, 64])
@pytest.mark.parametrize("nu", [None, 1.0, 0.7])
def test_integrate_is_the_array_sum_bit_for_bit(D, nu):
    # the window sum over range() is the sum over the int64 window it replaced
    ctx = MeasureContext(D, nu)
    rng = np.random.default_rng(D)
    table = dict(zip(ctx.residues().tolist(), rng.normal(size=D) + 1j * rng.normal(size=D)))
    for f in (lambda x: 1, lambda x: x * x - 0.5, table.__getitem__,
              lambda x: omega_pow(ctx, 3 * x), lambda x: tau_pow(ctx, x * x + 2 * x)):
        want = ctx.nu**2 * sum(complex(f(int(x))) for x in ctx.residues())
        assert np.complex128(integrate(ctx, f)).tobytes() == np.complex128(want).tobytes()


# ---------------------------------------------------------------- exponential integral


@pytest.mark.parametrize("D", DIMS)
@pytest.mark.parametrize("nu", [None, 1.0, 0.7])
def test_exp_integral_matches_bruteforce(D, nu):
    # nu**2 times the integral of omega**(E k) is D nu**4 where E = 0
    # (mod D), else 0: one unit at the default weight, as the generator
    # tensors' point-mass pairing needs
    ctx = MeasureContext(D) if nu is None else MeasureContext(D, nu=nu)
    for E in range(-2 * D, 2 * D + 1):
        value = ctx.nu**2 * integrate(ctx, lambda k: omega_pow(ctx, E * k))
        closed = D * ctx.nu**4 if E % D == 0 else 0.0
        assert abs(value - closed) < 1e-12, E


# ---------------------------------------------------------------- phase powers


def test_phase_power_examples():
    assert abs(omega_pow(MeasureContext(3), 3) - 1) < 1e-12
    assert abs(tau_pow(MeasureContext(2), 1) - 1j) < 1e-12
    assert abs(tau_pow(MeasureContext(3), 6) - 1) < 1e-12


@pytest.mark.parametrize("D", DIMS)
def test_tau_even_powers_are_omega_powers(D):
    ctx = MeasureContext(D)
    for e in range(-2 * D, 2 * D + 1):
        assert abs(tau_pow(ctx, 2 * e) - omega_pow(ctx, e)) < 1e-12
        assert abs(abs(tau_pow(ctx, e)) - 1) < 1e-12


@given(st.integers(2, 9), st.integers(-10**9, 10**9))
def test_phase_powers_reduce_exponents(D, e):
    ctx = MeasureContext(D)
    assert abs(omega_pow(ctx, e) - omega_pow(ctx, e % D)) < 1e-12
    assert abs(tau_pow(ctx, e) - tau_pow(ctx, e % (2 * D))) < 1e-12


def test_vectorized_phase_powers_agree():
    ctx = MeasureContext(6)
    es = np.arange(-30, 30, dtype=np.int64)
    om = omega_pow_arr(ctx, es)
    ta = tau_pow_arr(ctx, es)
    for i, e in enumerate(es):
        assert abs(om[i] - omega_pow(ctx, int(e))) < 1e-12
        assert abs(ta[i] - tau_pow(ctx, int(e))) < 1e-12


def test_checked_i64():
    assert checked_i64(2**62, "x") == 2**62
    with pytest.raises(OverflowGuardError, match="^x = 9223372036854775808 exceeds"):
        checked_i64(2**63, "x")


def test_checked_i64_names_a_huge_value_by_its_bit_length():
    # the decimal of 10^5000 is past Python's 4,300-digit int-to-str limit
    with pytest.raises(OverflowGuardError, match="a 16610-bit integer exceeds"):
        checked_i64(10**5000, "x")
    with pytest.raises(OverflowGuardError, match="= -9223372036854775809 exceeds"):
        checked_i64(-(2**63) - 1, "x")
