"""Amplitude functions and the semantic map for the eight generators.

Generator kinds and their tensor entries (deg = total legs, all axes
enumerated over the residue window; nu is the measure weight):

==========  =========================================================
green(T)    diagonal: entry nu^(2-deg) * T(v) when every leg equals v
white       green with the constant-1 amplitude
red(T)      entry nu^(2+deg) * sum_j T(j) omega^(j * sum of legs)
hplus       2 legs: entry nu^2 * omega^(v1*v2)
hminus      2 legs: entry nu^2 * omega^(-v1*v2)
hbox(A)     entry nu^deg * A(product of legs, as integers)
gray        entry nu^(deg-2) when the legs sum to 0 mod D, else 0
not(c)      2 legs: entry 1 when v1 + v2 + c = 0 mod D, else 0
==========  =========================================================

Every formula is symmetric under permuting legs, so a generator's
meaning does not depend on which legs face the input or output side
("flexsymmetry"); the input/output split only fixes the returned
Tensor's axis layout.

Degree-0 cases integrate out completely: green 0-leg = nu^2 * sum T,
red 0-leg = nu^2 * sum T, hbox 0-leg = A(1), gray 0-leg = nu^(-2).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from quditzx.measure import (
    MeasureContext,
    checked_i64,
    omega_pow,
    omega_pow_arr,
    residue,
    tau_pow,
    tau_pow_arr,
)
from quditzx.tensor import Tensor


class DomainError(ValueError):
    """An amplitude function was queried outside its domain."""


# =====================================================================
# Amplitude functions
# =====================================================================


class AmplitudeFn:
    """Base for the closed union of amplitude functions A : Z -> C.

    `residues_only` variants are defined only on the window [D]; the
    rest accept any integer (needed by H-boxes, whose argument is a
    product of leg values which can leave the window).
    """

    residues_only: bool = False

    def eval(self, ctx: MeasureContext, t: int) -> complex:
        raise NotImplementedError

    def eval_arr(self, ctx: MeasureContext, t: np.ndarray) -> np.ndarray:
        # default: scalar loop; vectorized in the hot variants
        flat = np.array([self.eval(ctx, int(x)) for x in t.reshape(-1)])
        return flat.reshape(t.shape)

    def conjugate(self) -> "AmplitudeFn":
        raise NotImplementedError

    def _check_domain(self, ctx: MeasureContext, t: np.ndarray | int) -> None:
        if not self.residues_only:
            return
        arr = np.asarray(t)
        if arr.size and (arr.min() < ctx.lower or arr.max() > ctx.upper):
            raise DomainError(
                f"{type(self).__name__} is defined on residues only; got argument outside [{ctx.lower}, {ctx.upper}]"
            )


@dataclass(frozen=True)
class One(AmplitudeFn):
    def eval(self, ctx: MeasureContext, t: int) -> complex:
        return 1.0 + 0j

    def eval_arr(self, ctx: MeasureContext, t: np.ndarray) -> np.ndarray:
        return np.ones(t.shape, dtype=complex)

    def conjugate(self) -> AmplitudeFn:
        return self


@dataclass(frozen=True)
class Zero(AmplitudeFn):
    """The constant-0 amplitude (distinct from UnitPow, which rejects 0)."""

    def eval(self, ctx: MeasureContext, t: int) -> complex:
        return 0j

    def eval_arr(self, ctx: MeasureContext, t: np.ndarray) -> np.ndarray:
        return np.zeros(t.shape, dtype=complex)

    def conjugate(self) -> AmplitudeFn:
        return self


@dataclass(frozen=True)
class Phase(AmplitudeFn):
    """t -> exp(i*theta*t)."""

    theta: float

    def eval(self, ctx: MeasureContext, t: int) -> complex:
        return cmath.exp(1j * self.theta * t)

    def eval_arr(self, ctx: MeasureContext, t: np.ndarray) -> np.ndarray:
        return np.exp(1j * self.theta * t.astype(np.float64))

    def conjugate(self) -> AmplitudeFn:
        return Phase(-self.theta)


@dataclass(frozen=True)
class PhaseVec(AmplitudeFn):
    """t -> exp(i*thetas[t]) with thetas indexed by residue L_D..U_D. Residues only."""

    thetas: tuple[float, ...]
    residues_only = True

    def eval(self, ctx: MeasureContext, t: int) -> complex:
        self._check_domain(ctx, t)
        if len(self.thetas) != ctx.dim:
            raise DomainError(f"PhaseVec has {len(self.thetas)} angles but D={ctx.dim}")
        return cmath.exp(1j * self.thetas[residue(ctx, t) - ctx.lower])

    def conjugate(self) -> AmplitudeFn:
        return PhaseVec(tuple(-x for x in self.thetas))


@dataclass(frozen=True)
class Stab(AmplitudeFn):
    """t -> tau^(2*a*t + b*t^2), the quadratic-phase label [a|b]."""

    a: int
    b: int

    def eval(self, ctx: MeasureContext, t: int) -> complex:
        # t mod 2D preserves both 2at and b t^2 mod 2D
        tr = checked_i64(int(t), "Stab argument") % (2 * ctx.dim)
        return tau_pow(ctx, 2 * self.a * tr + self.b * tr * tr)

    def eval_arr(self, ctx: MeasureContext, t: np.ndarray) -> np.ndarray:
        tr = t.astype(np.int64) % (2 * ctx.dim)
        return tau_pow_arr(ctx, 2 * self.a * tr + self.b * tr * tr)

    def conjugate(self) -> AmplitudeFn:
        return Stab(-self.a, -self.b)


@dataclass(frozen=True)
class Char(AmplitudeFn):
    """t -> omega^(c*t); pointwise equal to Stab(c, 0)."""

    c: int

    def eval(self, ctx: MeasureContext, t: int) -> complex:
        return omega_pow(ctx, self.c * (checked_i64(int(t), "Char argument") % ctx.dim))

    def eval_arr(self, ctx: MeasureContext, t: np.ndarray) -> np.ndarray:
        return omega_pow_arr(ctx, self.c * (t.astype(np.int64) % ctx.dim))

    def conjugate(self) -> AmplitudeFn:
        return Char(-self.c)


@dataclass(frozen=True)
class UnitPow(AmplitudeFn):
    """t -> alpha^t for nonzero alpha (integer powers, so conjugation is exact)."""

    alpha: complex

    def __post_init__(self) -> None:
        if self.alpha == 0:
            raise ValueError("UnitPow requires alpha != 0; use Indicator({0}) instead")
        object.__setattr__(self, "alpha", complex(self.alpha))

    def eval(self, ctx: MeasureContext, t: int) -> complex:
        return complex(self.alpha) ** int(t)

    def eval_arr(self, ctx: MeasureContext, t: np.ndarray) -> np.ndarray:
        return np.power(complex(self.alpha), t.astype(np.int64))

    def conjugate(self) -> AmplitudeFn:
        return UnitPow(self.alpha.conjugate())


@dataclass(frozen=True)
class Table(AmplitudeFn):
    """t -> values[t] with values indexed by residue L_D..U_D. Residues only."""

    values: tuple[complex, ...]
    residues_only = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(complex(v) for v in self.values))

    def eval(self, ctx: MeasureContext, t: int) -> complex:
        self._check_domain(ctx, t)
        if len(self.values) != ctx.dim:
            raise DomainError(f"Table has {len(self.values)} values but D={ctx.dim}")
        return self.values[residue(ctx, t) - ctx.lower]

    def conjugate(self) -> AmplitudeFn:
        return Table(tuple(v.conjugate() for v in self.values))


@dataclass(frozen=True)
class MBox(AmplitudeFn):
    """t -> alpha when t equals U_D^k, else 1 (the coefficient-selector amplitude)."""

    k: int
    alpha: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", complex(self.alpha))

    def _pivot(self, ctx: MeasureContext) -> int:
        return checked_i64(ctx.upper**self.k, "MBox pivot U_D^k")

    def eval(self, ctx: MeasureContext, t: int) -> complex:
        return complex(self.alpha) if int(t) == self._pivot(ctx) else 1.0 + 0j

    def eval_arr(self, ctx: MeasureContext, t: np.ndarray) -> np.ndarray:
        return np.where(t == self._pivot(ctx), complex(self.alpha), 1.0 + 0j)

    def conjugate(self) -> AmplitudeFn:
        return MBox(self.k, self.alpha.conjugate())


@dataclass(frozen=True)
class Sign(AmplitudeFn):
    """t -> -1 when t is a member of the set, else +1 (literal membership)."""

    members: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", frozenset(int(x) for x in self.members))

    def eval(self, ctx: MeasureContext, t: int) -> complex:
        return -1.0 + 0j if int(t) in self.members else 1.0 + 0j

    def eval_arr(self, ctx: MeasureContext, t: np.ndarray) -> np.ndarray:
        mask = np.isin(t, np.array(sorted(self.members), dtype=np.int64))
        return np.where(mask, -1.0 + 0j, 1.0 + 0j)

    def conjugate(self) -> AmplitudeFn:
        return self


@dataclass(frozen=True)
class Indicator(AmplitudeFn):
    """t -> 1 when t is a member of the set, else 0 (literal membership)."""

    members: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", frozenset(int(x) for x in self.members))

    def eval(self, ctx: MeasureContext, t: int) -> complex:
        return 1.0 + 0j if int(t) in self.members else 0j

    def eval_arr(self, ctx: MeasureContext, t: np.ndarray) -> np.ndarray:
        mask = np.isin(t, np.array(sorted(self.members), dtype=np.int64))
        return np.where(mask, 1.0 + 0j, 0j)

    def conjugate(self) -> AmplitudeFn:
        return self


def amp_multiply(a: AmplitudeFn, b: AmplitudeFn, ctx: MeasureContext | None = None) -> AmplitudeFn:
    """Pointwise product, in closed form when the variants match.

    Falls back to a residues-only Table built by evaluating on [D];
    the fallback needs `ctx` to know the window.
    """
    if isinstance(a, One):
        return b
    if isinstance(b, One):
        return a
    if isinstance(a, Zero) or isinstance(b, Zero):
        return Zero()
    if isinstance(a, Phase) and isinstance(b, Phase):
        return Phase(a.theta + b.theta)
    if isinstance(a, Stab) and isinstance(b, Stab):
        return Stab(a.a + b.a, a.b + b.b)
    if isinstance(a, Char) and isinstance(b, Char):
        return Char(a.c + b.c)
    if isinstance(a, UnitPow) and isinstance(b, UnitPow):
        return UnitPow(a.alpha * b.alpha)
    if ctx is None:
        raise ValueError(
            f"no closed-form product for {type(a).__name__} * {type(b).__name__}; pass ctx for the Table fallback"
        )
    vals = tuple(a.eval(ctx, int(x)) * b.eval(ctx, int(x)) for x in ctx.residues())
    return Table(vals)


def amp_reflect_conjugate(a: AmplitudeFn, dim: int) -> AmplitudeFn:
    """t -> conj(a(rho(-t))) on the window, where rho reduces mod `dim`.

    This is the amplitude transform under which a red dot's tensor is
    entrywise conjugated: the red sum runs over the window, so negating
    the summation variable reflects arguments through the window (which
    is asymmetric for even D).  Closed forms exist for the D-periodic
    variants; the rest fall back to a residues-only Table, which is
    always legal inside a red dot.
    """
    if isinstance(a, (One, Zero)):
        return a
    if isinstance(a, Char):
        return a  # conj(omega^(-c t)) = omega^(c t)
    if isinstance(a, Stab):
        return Stab(a.a, -a.b)  # conj(tau^(-2at + bt^2))
    lower = -((dim - 1) // 2)

    def rho_neg(x: int) -> int:
        return (-x - lower) % dim + lower

    window = range(lower, lower + dim)
    if isinstance(a, Phase):
        return PhaseVec(tuple(-a.theta * rho_neg(x) for x in window))
    if isinstance(a, PhaseVec):
        if len(a.thetas) != dim:
            raise DomainError(f"PhaseVec has {len(a.thetas)} angles but D={dim}")
        return PhaseVec(tuple(-a.thetas[rho_neg(x) - lower] for x in window))
    if isinstance(a, Table):
        if len(a.values) != dim:
            raise DomainError(f"Table has {len(a.values)} values but D={dim}")
        return Table(tuple(a.values[rho_neg(x) - lower].conjugate() for x in window))
    if isinstance(a, UnitPow):
        return Table(tuple((complex(a.alpha) ** rho_neg(x)).conjugate() for x in window))
    ctx = MeasureContext(dim)
    return Table(tuple(a.eval(ctx, rho_neg(x)).conjugate() for x in window))


# -- JSON encoding (format shared with the diagram file format) --------


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


# value codecs: (to JSON, from JSON)
_FLOAT = (lambda v: v, float)
_INT = (lambda v: v, int)
_FLOATS = (list, lambda v: tuple(float(x) for x in v))
_COMPLEX = (_pair, lambda v: complex(v[0], v[1]))
_COMPLEXES = (lambda v: [_pair(z) for z in v], lambda v: tuple(complex(re, im) for re, im in v))
_SET = (sorted, frozenset)

# JSON tag -> (variant, its fields as (attribute, JSON key, codec)); a
# tuple of keys spreads the encoded value over several keys, in order
_AMP_JSON: dict[str, tuple[type, tuple]] = {
    "one": (One, ()),
    "zero": (Zero, ()),
    "phase": (Phase, (("theta", "theta", _FLOAT),)),
    "phasevec": (PhaseVec, (("thetas", "thetas", _FLOATS),)),
    "stab": (Stab, (("a", "a", _INT), ("b", "b", _INT))),
    "char": (Char, (("c", "c", _INT),)),
    "unit": (UnitPow, (("alpha", ("re", "im"), _COMPLEX),)),
    "table": (Table, (("values", "values", _COMPLEXES),)),
    "mbox": (MBox, (("k", "k", _INT), ("alpha", "alpha", _COMPLEX))),
    "sign": (Sign, (("members", "set", _SET),)),
    "indicator": (Indicator, (("members", "set", _SET),)),
}
_AMP_TAG = {cls: tag for tag, (cls, _) in _AMP_JSON.items()}


def amp_to_json(a: AmplitudeFn) -> dict[str, Any]:
    tag = _AMP_TAG.get(type(a))
    if tag is None:
        raise TypeError(f"not an amplitude function: {a!r}")
    out: dict[str, Any] = {"type": tag}
    for attr, key, (encode, _) in _AMP_JSON[tag][1]:
        value = encode(getattr(a, attr))
        if isinstance(key, tuple):
            out.update(zip(key, value))
        else:
            out[key] = value
    return out


def amp_from_json(obj: dict[str, Any]) -> AmplitudeFn:
    kind = obj["type"]
    entry = _AMP_JSON.get(kind) if isinstance(kind, str) else None
    if entry is None:
        raise ValueError(f"unknown amplitude type {kind!r}")
    cls, fields = entry
    kwargs = {}
    for attr, key, (_, decode) in fields:
        value = [obj[k] for k in key] if isinstance(key, tuple) else obj[key]
        kwargs[attr] = decode(value)
    return cls(**kwargs)


# =====================================================================
# Generators
# =====================================================================

KINDS = ("green", "red", "hplus", "hminus", "white", "hbox", "gray", "not")
_AMP_KINDS = ("green", "red", "hbox")
_TWO_LEG_KINDS = ("hplus", "hminus", "not")


@dataclass(frozen=True)
class Generator:
    """One node of the calculus: kind, arity split, and parameters.

    `amp` is required for green/red/hbox and forbidden elsewhere; `c`
    is meaningful for `not` only.  hplus/hminus/not have exactly two
    legs in total (any input/output split, by flexsymmetry).
    """

    kind: str
    m: int
    n: int
    amp: AmplitudeFn | None = None
    c: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.m < 0 or self.n < 0:
            raise ValueError("leg counts must be nonnegative")
        if self.kind in _TWO_LEG_KINDS and self.m + self.n != 2:
            raise ValueError(f"{self.kind} has exactly 2 legs, got {self.m}+{self.n}")
        if self.kind in _AMP_KINDS:
            if self.amp is None:
                raise ValueError(f"{self.kind} requires an amplitude function")
        elif self.amp is not None:
            raise ValueError(f"{self.kind} takes no amplitude function")
        if self.kind == "hbox" and self.m + self.n > 1 and self.amp.residues_only:
            raise ValueError(
                "an hbox with more than one leg needs an all-integers amplitude "
                "(its argument is a product that can leave the residue window)"
            )

    @property
    def degree(self) -> int:
        return self.m + self.n

    # convenience constructors
    @staticmethod
    def green(amp: AmplitudeFn, m: int, n: int) -> "Generator":
        return Generator("green", m, n, amp=amp)

    @staticmethod
    def red(amp: AmplitudeFn, m: int, n: int) -> "Generator":
        return Generator("red", m, n, amp=amp)

    @staticmethod
    def white(m: int, n: int) -> "Generator":
        return Generator("white", m, n)

    @staticmethod
    def gray(m: int, n: int) -> "Generator":
        return Generator("gray", m, n)

    @staticmethod
    def hbox(amp: AmplitudeFn, m: int, n: int) -> "Generator":
        return Generator("hbox", m, n, amp=amp)

    @staticmethod
    def hplus() -> "Generator":
        return Generator("hplus", 1, 1)

    @staticmethod
    def hminus() -> "Generator":
        return Generator("hminus", 1, 1)

    @staticmethod
    def not_dot(c: int) -> "Generator":
        return Generator("not", 1, 1, c=c)

    def conjugate(self, dim: int | None = None) -> "Generator":
        """The generator whose tensor is the entrywise conjugate of this one's.

        hplus and hminus swap; green and hbox conjugate their amplitude
        pointwise; red reflects it through the window as well (needs
        `dim`); white/gray/not have real entries and return themselves.
        """
        if self.kind == "hplus":
            return Generator("hminus", self.m, self.n)
        if self.kind == "hminus":
            return Generator("hplus", self.m, self.n)
        if self.kind == "red":
            if dim is None:
                raise ValueError("conjugating a red dot needs the dimension")
            return Generator("red", self.m, self.n, amp=amp_reflect_conjugate(self.amp, dim))
        amp = self.amp.conjugate() if self.amp is not None else None
        return Generator(self.kind, self.m, self.n, amp=amp, c=self.c)


# ---------------------------------------------------------------- entry builders


def _leg_sum_array(ctx: MeasureContext, deg: int) -> np.ndarray:
    """deg-dimensional int64 array whose entry is the sum of the leg residues."""
    vals = ctx.residues()
    s = np.zeros((), dtype=np.int64)
    for _ in range(deg):
        s = s[..., None] + vals
    return s


def _leg_prod_array(ctx: MeasureContext, deg: int) -> np.ndarray:
    """deg-dimensional int64 array of products of leg residues, overflow-guarded."""
    bound = max(abs(ctx.lower), ctx.upper, 1) ** deg
    checked_i64(bound, "hbox leg product bound")
    vals = ctx.residues()
    p = np.ones((), dtype=np.int64)
    for _ in range(deg):
        p = p[..., None] * vals
    return p


def red_weight_vector(ctx: MeasureContext, amp: AmplitudeFn, deg: int) -> np.ndarray:
    """w[s] for s = L_D..U_D: nu^(2+deg) * sum_j amp(j) * omega^(j*s)."""
    jv = ctx.residues()
    sv = ctx.residues()
    amps = np.array([amp.eval(ctx, int(j)) for j in jv])
    mat = omega_pow_arr(ctx, np.outer(jv, sv))
    return ctx.nu ** (2 + deg) * (amps @ mat)


def diagonal_weight(ctx: MeasureContext, g: Generator) -> np.ndarray:
    """A green or white dot's entries where all legs equal v, for v = L_D..U_D.

    With no legs the dot integrates out, and this is the scalar
    nu^2 * sum_v T(v) as a 0-d array.
    """
    amp = g.amp if g.kind == "green" else One()
    if g.degree == 0:
        return np.asarray(complex(ctx.nu**2 * sum(amp.eval(ctx, int(x)) for x in ctx.residues())))
    return np.asarray(amp.eval_arr(ctx, ctx.residues()) * ctx.nu ** (2 - g.degree), dtype=complex)


def generator_entries(ctx: MeasureContext, g: Generator) -> np.ndarray:
    """Dense entry array over all deg legs (order-symmetric formulas)."""
    D, deg, nu = ctx.dim, g.degree, ctx.nu
    if g.kind in ("green", "white"):
        w = diagonal_weight(ctx, g)
        if deg == 0:
            return w
        arr = np.zeros((D,) * deg, dtype=complex)
        arr[(np.arange(D),) * deg] = w
        return arr
    if g.kind == "red":
        w = red_weight_vector(ctx, g.amp, deg)
        if deg == 0:
            return np.asarray(w[(0 - ctx.lower) % D])
        s = _leg_sum_array(ctx, deg)
        return w[(s - ctx.lower) % D]
    if g.kind == "gray":
        if deg == 0:
            return np.asarray(complex(nu**-2))
        s = _leg_sum_array(ctx, deg)
        return np.where(s % D == 0, complex(nu ** (deg - 2)), 0j)
    if g.kind in ("hplus", "hminus"):
        sign = 1 if g.kind == "hplus" else -1
        vals = ctx.residues()
        return nu**2 * omega_pow_arr(ctx, sign * np.outer(vals, vals))
    if g.kind == "hbox":
        if deg == 0:
            return np.asarray(complex(g.amp.eval(ctx, 1)))
        p = _leg_prod_array(ctx, deg)
        if g.amp.residues_only:
            g.amp._check_domain(ctx, p)
        return nu**deg * g.amp.eval_arr(ctx, p)
    if g.kind == "not":
        s = _leg_sum_array(ctx, 2)
        return np.where((s + g.c) % D == 0, 1.0 + 0j, 0j)
    raise ValueError(f"unknown kind {g.kind!r}")


def eval_generator(ctx: MeasureContext, g: Generator) -> Tensor:
    """The generator's tensor, with output axes first then input axes."""
    return Tensor(ctx.dim, g.m, g.n, generator_entries(ctx, g))
