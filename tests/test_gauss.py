"""Number-theoretic closed forms checked against brute-force summation."""

from __future__ import annotations

import math

import pytest

from quditzx.gauss import (
    GammaValue,
    gamma,
    gamma_oracle,
    gauss_sum,
    jacobi,
)
from quditzx.measure import MeasureContext

from oracles import gauss_sum_oracle

CLOSED_FORM_MODULI = [1, 3, 4, 5, 7, 8, 9, 11, 12, 13, 15, 16]


def legendre_brute(k: int, p: int) -> int:
    # Euler criterion for odd prime p
    v = pow(k, (p - 1) // 2, p)
    return {0: 0, 1: 1, p - 1: -1}[v]


def test_jacobi_examples() -> None:
    assert jacobi(2, 15) == 1
    assert jacobi(0, 9) == 0
    for m in (1, 3, 5, 7, 9, 15):
        assert jacobi(1, m) == 1


def test_jacobi_matches_euler_criterion_on_primes() -> None:
    for p in (3, 5, 7, 11, 13):
        for k in range(-p, 2 * p):
            assert jacobi(k, p) == legendre_brute(k % p, p)


def test_jacobi_is_multiplicative_in_the_denominator() -> None:
    for k in range(-10, 20):
        assert jacobi(k, 15) == jacobi(k, 3) * jacobi(k, 5)
        assert jacobi(k, 21) == jacobi(k, 3) * jacobi(k, 7)


def prime_factors(m: int) -> list[int]:
    # trial division, with multiplicity
    out, p = [], 2
    while p * p <= m:
        while m % p == 0:
            out.append(p)
            m //= p
        p += 1
    if m > 1:
        out.append(m)
    return out


def test_jacobi_matches_legendre_product_over_factorization() -> None:
    # prime-power and multi-factor moduli reach the reciprocity and
    # power-of-two branches that prime moduli alone do not
    for m in range(1, 400, 2):
        primes = prime_factors(m)
        for k in range(-2 * m, 2 * m + 1):
            want = math.prod(legendre_brute(k % p, p) for p in primes)
            assert jacobi(k, m) == want, (k, m)


def test_jacobi_on_big_integers() -> None:
    p, q = 2**61 - 1, 2**89 - 1  # Mersenne primes
    ks = [2, 3, -1, 10**30 + 7, -(10**30) - 3, 3**70, 2**100 + 1]
    for k in ks:
        lp, lq = legendre_brute(k % p, p), legendre_brute(k % q, q)
        assert jacobi(k, p) == lp
        assert jacobi(k, q) == lq
        assert jacobi(k, p * q) == lp * lq
        assert jacobi(k, p * p * q) == (lq if k % p else 0)
    m = 10**30 + 57
    for k1, k2 in [(10**30 + 7, 10**29 + 3), (-(3**60), 2**97), (5, 10**31 + 1)]:
        assert jacobi(k1 * k2, m) == jacobi(k1, m) * jacobi(k2, m)
    assert jacobi(m + 2, m) == jacobi(2, m)


def test_jacobi_rejects_non_integers() -> None:
    with pytest.raises(TypeError):
        jacobi(1.0, 3)
    with pytest.raises(TypeError):
        jacobi(1, 3.0)


def test_jacobi_rejects_even_or_nonpositive_modulus() -> None:
    with pytest.raises(ValueError):
        jacobi(1, 4)
    with pytest.raises(ValueError):
        jacobi(1, 0)
    with pytest.raises(ValueError):
        jacobi(1, -3)


def test_gauss_sum_examples() -> None:
    assert abs(gauss_sum(1, 0, 4) - (2 + 2j)) < 1e-12
    assert abs(gauss_sum(1, 0, 3) - 1j * math.sqrt(3)) < 1e-12
    assert gauss_sum(2, 1, 4) == 0


def test_gauss_sum_rejects_twice_odd_modulus() -> None:
    for N in (2, 6, 10, 14):
        with pytest.raises(ValueError):
            gauss_sum(1, 0, N)
    with pytest.raises(ValueError):
        gauss_sum(1, 0, 0)
    gauss_sum_oracle(1, 0, 6)  # oracle is unrestricted


@pytest.mark.parametrize("N", CLOSED_FORM_MODULI)
def test_gauss_sum_matches_oracle_on_grid(N: int) -> None:
    for r in range(2 * N):
        for s in range(2 * N):
            closed = gauss_sum(r, s, N)
            brute = gauss_sum_oracle(r, s, N)
            assert abs(closed - brute) < 1e-9, (r, s, N)


def test_gauss_sum_handles_negative_arguments() -> None:
    for N in (3, 4, 8, 9):
        for r in range(-N, 0):
            for s in range(-N, 0):
                assert abs(gauss_sum(r, s, N) - gauss_sum_oracle(r, s, N)) < 1e-9


def test_twice_odd_modulus_vanishes_for_odd_combination() -> None:
    for M in (1, 3, 5):
        for r in range(2 * M):
            for s in range(2 * M):
                if (M * r + s) % 2 == 1:
                    assert abs(gauss_sum_oracle(r, s, 2 * M)) < 1e-9


def test_gamma_examples() -> None:
    g = gamma(0, 0, MeasureContext(7))
    assert abs(g.value - math.sqrt(7)) < 1e-10
    assert g.magnitude_class == "sqrt_t" and g.t == 7

    g = gamma(0, 1, MeasureContext(2))
    assert abs(g.value - cmath_exp_quarter()) < 1e-10

    g = gamma(1, 2, MeasureContext(4))
    assert g.value == 0 and g.magnitude_class == "zero" and g.t == 2


def cmath_exp_quarter() -> complex:
    import cmath

    return cmath.exp(1j * cmath.pi / 4)


@pytest.mark.parametrize("dim", range(2, 13))
def test_gamma_matches_oracle_and_magnitude_law(dim: int) -> None:
    ctx = MeasureContext(dim)
    for a in range(-dim, 2 * dim):
        for b in range(-dim, 2 * dim):
            got = gamma(a, b, ctx)
            brute = gamma_oracle(a, b, ctx)
            assert abs(got.value - brute) < 1e-9, (a, b, dim)
            t = math.gcd(b, dim)
            assert got.t == t
            mag = abs(got.value)
            if got.magnitude_class == "zero":
                assert mag < 1e-10
            else:
                assert abs(mag - math.sqrt(t)) < 1e-10


def test_gamma_at_origin_is_sqrt_dim() -> None:
    for dim in range(2, 13):
        g = gamma(0, 0, MeasureContext(dim))
        assert abs(g.value - math.sqrt(dim)) < 1e-10


def test_gamma_unit_second_argument_has_unit_magnitude() -> None:
    for dim in range(2, 10):
        ctx = MeasureContext(dim)
        for u in range(1, dim):
            if math.gcd(u, dim) != 1:
                continue
            g = gamma(0, u, ctx)
            assert abs(g.value * g.value.conjugate() - 1) < 1e-9


def test_gamma_rejects_non_default_normalization() -> None:
    ctx = MeasureContext(3, nu=1.0)
    with pytest.raises(ValueError):
        gamma(0, 1, ctx)
    with pytest.raises(ValueError):
        gamma_oracle(0, 1, ctx)


def test_gamma_value_label() -> None:
    assert GammaValue(0j, "zero", 3).label() == "zero"
    assert GammaValue(1 + 0j, "sqrt_t", 4).label() == "sqrt_t(4)"
