"""Signed residues mod D, the weighted counting measure, and phase constants.

The residue ring Z_D is represented by the signed window
``[D] = {L_D, ..., U_D}`` with ``L_D = -floor((D-1)/2)`` and
``U_D = floor(D/2)``; note ``0`` is always in the window and for even D
the window is asymmetric (it contains ``D/2`` but not ``-D/2``).
Subsets carry the measure ``mu(S) = #S * nu**2`` for a tunable weight
``nu > 0``.  The default ``nu = D**(-1/4)`` is the unique choice that
makes the Fourier-box generators unitary; we call it the well-tempered
weight, and ``mu([D]) = sqrt(D)`` there.

Phase constants:

- ``omega = exp(2*pi*i/D)``, the principal D-th root of unity;
- ``tau = exp(pi*i*(D**2+1)/D)``, a square root of omega whose powers
  are well defined on residues (``tau**(2D) = 1`` for every D, odd or
  even, because ``D**2 + 1`` flips parity with D).

All integer exponents are reduced modulo D (for omega) or 2D (for tau)
before any floating-point exponentiation, so large labels never lose
precision.

numpy is imported on first array use (``residues``, the root tables and
the ``*_pow`` helpers), so the scalar constants and ``integrate`` run on
the standard library alone.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    import numpy as np

_I64_MAX = 2**63 - 1


class OverflowGuardError(OverflowError):
    """A value or size left its checked range: 64-bit integers, floats, or an evaluation budget."""


def checked_i64(value: int, what: str) -> int:
    """Pass `value` through, raising OverflowGuardError if it exceeds 64-bit range."""
    if not -_I64_MAX - 1 <= value <= _I64_MAX:
        if isinstance(value, int) and value.bit_length() > 256:  # a long decimal trips Python's digit limit
            value = f"a {value.bit_length()}-bit integer"
        raise OverflowGuardError(f"{what} = {value} exceeds the checked 64-bit range")
    return value


def dimension(value: object) -> int:
    """``value`` read as a dimension: a Python int, by ``operator.index``.

    A bool, a float or a string raises ``TypeError``; nothing is rounded.
    """
    if isinstance(value, bool):
        raise TypeError(f"a dimension must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"a dimension must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class MeasureContext:
    """Dimension, measure weight, and derived constants. Immutable.

    Parameters
    ----------
    dim:
        Qudit dimension D > 1.  A D whose square leaves the float range
        (the phase constants need it) raises ``OverflowGuardError``.
    nu:
        Positive finite measure weight, a real number; defaults to
        ``dim**(-1/4)``.  A bool, a str or a complex raises ``TypeError``.
    """

    dim: int
    nu: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dim", dimension(self.dim))
        if self.dim < 2:
            raise ValueError(f"dimension must be at least 2, got {self.dim}")
        try:
            float(self.dim**2 + 1)  # tau's exponent; omega and the default nu convert D itself
        except OverflowError:
            raise OverflowGuardError(
                f"D^2 for a {self.dim.bit_length()}-bit dimension D leaves the float range"
            ) from None
        if self.nu is None:
            object.__setattr__(self, "nu", float(self.dim) ** -0.25)
        else:
            import numbers  # here, as numpy is: a scalar command at the default weight never loads it

            if isinstance(self.nu, bool) or not isinstance(self.nu, numbers.Real):
                raise TypeError(f"nu must be a real number, got {self.nu!r}")
        if not self.nu > 0:
            raise ValueError(f"nu must be positive, got {self.nu}")
        if math.isinf(self.nu):
            raise ValueError(f"nu must be finite, got {self.nu}")
        object.__setattr__(self, "nu", float(self.nu))

    # -- derived constants -------------------------------------------------

    @property
    def lower(self) -> int:
        """L_D, the smallest signed residue."""
        return -((self.dim - 1) // 2)

    @property
    def upper(self) -> int:
        """U_D, the largest signed residue."""
        return self.dim // 2

    @property
    def sigma(self) -> int:
        """1 for even D, 0 for odd D: U_D + L_D, so x -> sigma - x maps the window onto itself."""
        return self.upper + self.lower

    @property
    def total_measure(self) -> float:
        """N = mu([D]) = D * nu**2; past the float range, or 0 by underflow, it raises ``OverflowGuardError``."""
        try:
            value = self.dim * self.nu**2
        except OverflowError:  # nu**2 itself
            value = math.inf
        if not 0 < value < math.inf:
            raise OverflowGuardError(f"the total measure D * nu^2 leaves the float range at D={self.dim}, nu={self.nu!r}")
        return value

    @property
    def omega(self) -> complex:
        return cmath.exp(2j * math.pi / self.dim)

    @property
    def tau(self) -> complex:
        e = self.dim**2 + 1
        if e > 2**53:  # a float would round it: reduce it mod 2D first, as tau's powers are
            e %= 2 * self.dim
        return cmath.exp(1j * math.pi * e / self.dim)

    @property
    def is_well_tempered(self) -> bool:
        """True when nu is (numerically) the default D**(-1/4)."""
        return abs(self.nu - float(self.dim) ** -0.25) < 1e-12

    def residues(self) -> np.ndarray:
        """The window [D] as an int64 array, enumerated L_D..U_D."""
        import numpy as np

        return np.arange(self.lower, self.upper + 1, dtype=np.int64)

    # root tables, built lazily once per context
    def _omega_table(self) -> np.ndarray:
        tab = getattr(self, "_omega_tab", None)
        if tab is None:
            import numpy as np

            tab = np.exp(2j * np.pi * np.arange(self.dim) / self.dim)
            object.__setattr__(self, "_omega_tab", tab)
        return tab

    def _tau_table(self) -> np.ndarray:
        tab = getattr(self, "_tau_tab", None)
        if tab is None:
            import numpy as np

            e = np.arange(2 * self.dim)
            tab = np.exp(1j * np.pi * (((self.dim**2 + 1) * e) % (2 * self.dim)) / self.dim)
            object.__setattr__(self, "_tau_tab", tab)
        return tab


def residue(ctx: MeasureContext, t: int) -> int:
    """Reduce an integer into the signed window [D]."""
    return (int(t) - ctx.lower) % ctx.dim + ctx.lower


def integrate(ctx: MeasureContext, f: Callable[[int], complex]) -> complex:
    """Integrate f over [D]: nu**2 * sum of f on the window."""
    return ctx.nu**2 * sum(complex(f(x)) for x in range(ctx.lower, ctx.upper + 1))


def omega_pow(ctx: MeasureContext, e: int) -> complex:
    """omega**e with the exponent reduced mod D first."""
    return complex(ctx._omega_table()[int(e) % ctx.dim])


def tau_pow(ctx: MeasureContext, e: int) -> complex:
    """tau**e with the exponent reduced mod 2D first."""
    return complex(ctx._tau_table()[int(e) % (2 * ctx.dim)])


def omega_pow_arr(ctx: MeasureContext, e: np.ndarray) -> np.ndarray:
    """Vectorized `omega_pow` for int64 exponent arrays."""
    import numpy as np

    return ctx._omega_table()[np.asarray(e, dtype=np.int64) % ctx.dim]


def tau_pow_arr(ctx: MeasureContext, e: np.ndarray) -> np.ndarray:
    """Vectorized `tau_pow` for int64 exponent arrays."""
    import numpy as np

    return ctx._tau_table()[np.asarray(e, dtype=np.int64) % (2 * ctx.dim)]
