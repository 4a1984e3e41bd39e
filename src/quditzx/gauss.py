"""Quadratic Gauss sums and the normalized Gaussian integral, in closed form.

Provides the Jacobi symbol, the quadratic Gauss sum
G(r,s,N) = sum_{x=0}^{N-1} e^(2 pi i (r x^2 + s x)/N), and the
measure-weighted integral
Gamma(a,b,D) = integral of tau^(2ax + bx^2) over the residue window.
The Jacobi symbol is computed in-house by the binary algorithm, so the
module needs no computer-algebra package.
Every closed form is paired with a brute-force oracle (G's, summed
term by term, lives with the tests); the oracles are the ground truth in
the test suite, so a transcription slip in a phase formula is caught
rather than trusted.

The closed form for G is restricted to N odd or divisible by 4.  For
N = 2M with M odd the sum vanishes identically whenever it would be
needed, and the oracle covers that case anyway.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass

from quditzx.measure import MeasureContext, integrate, tau_pow


def jacobi(k: int, m: int) -> int:
    """Jacobi symbol (k/m) for odd m >= 1.

    Binary algorithm (Cohen, A Course in Computational Algebraic Number
    Theory, Alg. 1.4.10): strip factors of 2 from k, each flipping the
    sign when m = 3, 5 mod 8, then swap k and m by quadratic reciprocity,
    flipping the sign when both are 3 mod 4.  Non-integers raise TypeError.
    """
    k, m = operator.index(k), operator.index(m)
    if m < 1 or m % 2 == 0:
        raise ValueError(f"Jacobi symbol needs odd m >= 1, got {m}")
    k %= m
    sign = 1
    while k:
        while k % 2 == 0:
            k //= 2
            if m % 8 in (3, 5):
                sign = -sign
        k, m = m, k
        if k % 4 == 3 and m % 4 == 3:
            sign = -sign
        k %= m
    return sign if m == 1 else 0


def _inv(x: int, m: int) -> int:
    """Modular inverse with a multiplication check; m = 1 gives 0."""
    inv = pow(x, -1, m) if m > 1 else 0
    if (x * inv - 1) % m != 0:
        raise ValueError(f"{x} has no inverse modulo {m}")
    return inv


def _phase_odd(r: int, s: int, N: int) -> complex:
    # unit phase of G(r,s,N) for N odd, gcd(r,N) = 1; completing the
    # square leaves the constant r*(uhs)^2 - s*(uhs) = u(h^2 - h)s^2 mod N
    r %= N
    u = _inv(r, N)
    h = _inv(2, N)
    e = (r * u * u * (h * h - h) * s * s) % N
    k = ((N - 1) ** 2 // 4) % 4
    return cmath.exp(2j * cmath.pi * e / N) * 1j**k * jacobi(r, N)


def _phase_even(r: int, s: int, N: int) -> complex:
    # unit phase of G(r,s,N) for N = 0 mod 4, r odd, gcd(r,N) = 1, s even.
    # Reciprocity flips the sum to modulus 2|r|, which reduces by the
    # shared factor 2 to an odd-modulus sum handled by _phase_odd.
    sg = 1 if r > 0 else -1
    ar = abs(r)
    phi = _phase_odd(N // 4, s // 2, ar)
    if sg > 0:
        phi = phi.conjugate()
    num = (s * s) % (4 * ar * N)
    return (
        cmath.exp(1j * cmath.pi * sg / 4)
        * cmath.exp(-1j * cmath.pi * sg * num / (2 * ar * N))
        * phi
    )


def _coprime_gauss(r: int, s: int, N: int) -> complex:
    # G(r,s,N) for gcd(r,N) = 1, any N >= 1
    if N % 2 == 1:
        return _phase_odd(r, s, N) * math.sqrt(N)
    if N % 4 == 0:
        if s % 2:
            return 0j
        return _phase_even(r, s, N) * math.sqrt(2 * N)
    # N = 2M with M odd: split off the mod-2 part as a two-term factor
    M = N // 2
    if (M * r + s) % 2:
        return 0j
    return 2 * _phase_odd(2 * r, s, M) * math.sqrt(M)


def gauss_sum(r: int, s: int, N: int) -> complex:
    """Closed form of sum_{x=0}^{N-1} e^(2 pi i (r x^2 + s x)/N).

    N must be odd or divisible by 4; N = 2 mod 4 raises ``ValueError``.
    """
    if N < 1:
        raise ValueError(f"modulus must be positive, got {N}")
    if N % 4 == 2:
        raise ValueError(f"closed form excludes N = 2 mod 4, got {N}")
    t = math.gcd(r, N)
    if s % t:
        return 0j
    return t * _coprime_gauss(r // t, s // t, N // t)


@dataclass(frozen=True)
class GammaValue:
    """Closed-form integral value and which magnitude branch it landed in.

    magnitude_class is "zero" or "sqrt_t"; t records gcd(b, D) either way.
    """

    value: complex
    magnitude_class: str
    t: int

    def label(self) -> str:
        return "zero" if self.magnitude_class == "zero" else f"sqrt_t({self.t})"


def gamma(a: int, b: int, ctx: MeasureContext) -> GammaValue:
    """Closed form of the integral of tau^(2ax + bx^2) over the window.

    Only defined against the default (well-tempered) normalization.
    For odd D the phase factor tau is the h-th power of the D-th root
    of unity (h the half inverse), so the integral is a plain Gauss sum
    over D; for even D it is half of a Gauss sum over 2D.  The zero
    branches of the closed-form sum return exact zeros, which is what
    the magnitude classification keys on.
    """
    if not ctx.is_well_tempered:
        raise ValueError("gamma requires the default normalization")
    D = ctx.dim
    t = math.gcd(b, D)
    if D % 2 == 1:
        h = _inv(2, D)
        val = gauss_sum(b * h, a, D) / math.sqrt(D)
    else:
        val = gauss_sum(b, 2 * a, 2 * D) / (2 * math.sqrt(D))
    if val == 0:
        return GammaValue(0j, "zero", t)
    return GammaValue(val, "sqrt_t", t)


def gamma_oracle(a: int, b: int, ctx: MeasureContext) -> complex:
    """Brute-force integral of tau^(2ax + bx^2)."""
    if not ctx.is_well_tempered:
        raise ValueError("gamma requires the default normalization")
    return integrate(ctx, lambda x: tau_pow(ctx, 2 * a * x + b * x * x))
