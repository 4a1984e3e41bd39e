"""Amplitude functions and the semantic map for the eight generators.

Generator kinds and their tensor entries (deg = total legs, all axes
enumerated over the residue window; nu is the measure weight).  Each
entry is a unit entry, the one at nu = 1, times nu^k, with k = a + b *
deg the kind's power of nu, its ``(a, b)`` in ``_NU_POWER``, read
through ``Generator.nu_power``.  The entry builders (``generator_entries``,
``diagonal_weight``) give the unit entries alone, and nu^k is applied
once: by ``eval_generator`` to one generator, and by the evaluator to a
whole diagram, as nu^K with K the sum of its nodes' powers (see
``diagram``).

==========  ===========  ============================================
kind        nu^k         unit entry
==========  ===========  ============================================
green(T)    nu^(2-deg)   diagonal: T(v) when every leg equals v
white       nu^(2-deg)   green with the constant-1 amplitude
red(T)      nu^(2+deg)   sum_j T(j) omega^(j * sum of legs)
hplus       nu^2         2 legs: omega^(v1*v2)
hminus      nu^2         2 legs: omega^(-v1*v2)
hbox(A)     nu^deg       A(product of legs, as integers)
gray        nu^(deg-2)   1 when the legs sum to 0 mod D, else 0
not(c)      1            2 legs: 1 when v1 + v2 + c = 0 mod D, else 0
==========  ===========  ============================================

Every formula is symmetric under permuting legs, so a generator's
meaning does not depend on which legs face the input or output side
("flexsymmetry"); the input/output split only fixes the returned
Tensor's axis layout.  A gray dot is a not dot's formula with c = 0.

Degree-0 cases integrate out completely: green 0-leg = nu^2 * sum T,
red 0-leg = nu^2 * sum T, hbox 0-leg = A(1) (the empty product), gray
0-leg = nu^(-2) (the empty sum is 0).
"""

from __future__ import annotations

import functools
import itertools
import math
import reprlib
import sys
from dataclasses import dataclass
from typing import Any

import numpy as np

from quditzx.measure import (
    MeasureContext,
    OverflowGuardError,
    checked_i64,
    omega_pow_arr,
    tau_pow_arr,
)
from quditzx.tensor import Tensor, strict_int


_MAX_DENSE = 2_000_000  # entries; a generator or diagram node whose dense tensor has more is refused


class DomainError(ValueError):
    """An amplitude function was queried outside its domain."""


# =====================================================================
# Amplitude functions
# =====================================================================


class AmplitudeFn:
    """Base for the closed union of amplitude functions A : Z -> C.

    Each variant has one evaluation, the vectorized `eval_arr` on int64
    arrays; the scalar `eval` derives from it, on int64 arguments.
    `residues_only` variants are defined only on the window [D]; the
    rest accept any int64 (needed by H-boxes, whose argument is a
    product of leg values which can leave the window).
    """

    residues_only: bool = False

    def eval(self, ctx: MeasureContext, t: int) -> complex:
        arg = checked_i64(int(t), f"{type(self).__name__} argument")
        return complex(self.eval_arr(ctx, np.asarray(arg, dtype=np.int64)))

    def eval_arr(self, ctx: MeasureContext, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _check_domain(self, ctx: MeasureContext, t: np.ndarray) -> None:
        if t.size and (t.min() < ctx.lower or t.max() > ctx.upper):
            raise DomainError(
                f"{type(self).__name__} is defined on residues only; got argument outside [{ctx.lower}, {ctx.upper}]"
            )


@dataclass(frozen=True)
class One(AmplitudeFn):
    def eval_arr(self, ctx: MeasureContext, t: np.ndarray) -> np.ndarray:
        return np.ones(t.shape, dtype=complex)


@dataclass(frozen=True)
class Zero(AmplitudeFn):
    """The constant-0 amplitude (distinct from UnitPow, which rejects 0)."""

    def eval_arr(self, ctx: MeasureContext, t: np.ndarray) -> np.ndarray:
        return np.zeros(t.shape, dtype=complex)


@dataclass(frozen=True)
class Phase(AmplitudeFn):
    """t -> exp(i*theta*t)."""

    theta: float

    def eval_arr(self, ctx: MeasureContext, t: np.ndarray) -> np.ndarray:
        return np.exp(1j * self.theta * t.astype(np.float64))


@dataclass(frozen=True)
class PhaseVec(AmplitudeFn):
    """t -> exp(i*thetas[t]) with thetas indexed by residue L_D..U_D. Residues only."""

    thetas: tuple[float, ...]
    residues_only = True

    def eval_arr(self, ctx: MeasureContext, t: np.ndarray) -> np.ndarray:
        self._check_domain(ctx, t)
        check_amp_dim(self, ctx.dim)
        return np.exp(1j * np.array(self.thetas)[t - ctx.lower])


@dataclass(frozen=True)
class Stab(AmplitudeFn):
    """t -> tau^(2*a*t + b*t^2), the quadratic-phase label [a|b]."""

    a: int
    b: int

    def eval_arr(self, ctx: MeasureContext, t: np.ndarray) -> np.ndarray:
        # t mod 2D preserves both 2at and bt^2 mod 2D, which depend only on
        # a mod D and b mod 2D; reduced labels keep the int64 products exact
        tr = t.astype(np.int64) % (2 * ctx.dim)
        return tau_pow_arr(ctx, 2 * (self.a % ctx.dim) * tr + (self.b % (2 * ctx.dim)) * tr * tr)


@dataclass(frozen=True)
class Char(AmplitudeFn):
    """t -> omega^(c*t); pointwise equal to Stab(c, 0)."""

    c: int

    def eval_arr(self, ctx: MeasureContext, t: np.ndarray) -> np.ndarray:
        return omega_pow_arr(ctx, (self.c % ctx.dim) * (t.astype(np.int64) % ctx.dim))


@dataclass(frozen=True)
class UnitPow(AmplitudeFn):
    """t -> alpha^t for nonzero alpha, at integer t."""

    alpha: complex

    def __post_init__(self) -> None:
        if self.alpha == 0:
            raise ValueError("UnitPow requires alpha != 0; use Indicator({0}) instead")
        object.__setattr__(self, "alpha", complex(self.alpha))

    def eval_arr(self, ctx: MeasureContext, t: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.power(complex(self.alpha), t.astype(np.int64))
        if not np.isfinite(out).all():
            raise OverflowGuardError(f"a power of UnitPow({self.alpha}) leaves the float range")
        return out


@dataclass(frozen=True)
class Table(AmplitudeFn):
    """t -> values[t] with values indexed by residue L_D..U_D. Residues only."""

    values: tuple[complex, ...]
    residues_only = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(complex(v) for v in self.values))

    def eval_arr(self, ctx: MeasureContext, t: np.ndarray) -> np.ndarray:
        self._check_domain(ctx, t)
        check_amp_dim(self, ctx.dim)
        return np.array(self.values)[t - ctx.lower]


@dataclass(frozen=True)
class MBox(AmplitudeFn):
    """t -> alpha when t equals U_D^k, else 1 (the coefficient-selector amplitude)."""

    k: int
    alpha: complex

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError(f"MBox field 'k' must be at least 0, got {self.k}")
        object.__setattr__(self, "alpha", complex(self.alpha))

    def _pivot(self, ctx: MeasureContext) -> int:
        # U_D^k has at least k * (bits of U_D - 1) bits: refuse before computing it
        if (abs(ctx.upper).bit_length() - 1) * self.k >= 63:
            raise OverflowGuardError(f"MBox pivot U_D^k = {ctx.upper}^k exceeds the checked 64-bit range")
        return checked_i64(ctx.upper**self.k, "MBox pivot U_D^k")

    def eval_arr(self, ctx: MeasureContext, t: np.ndarray) -> np.ndarray:
        return np.where(t == self._pivot(ctx), complex(self.alpha), 1.0 + 0j)


@dataclass(frozen=True)
class _Members(AmplitudeFn):
    """t -> HIT when t is a member of the set, else MISS (literal membership)."""

    members: frozenset[int]
    HIT, MISS = 1.0 + 0j, 0j

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", frozenset(int(x) for x in self.members))

    def eval_arr(self, ctx: MeasureContext, t: np.ndarray) -> np.ndarray:
        # an int64 argument never equals a member outside int64
        inside = sorted(x for x in self.members if -(1 << 63) <= x < 1 << 63)
        return np.where(np.isin(t, np.array(inside, dtype=np.int64)), self.HIT, self.MISS)


class Sign(_Members):
    """t -> -1 when t is a member of the set, else +1 (literal membership)."""

    HIT, MISS = -1.0 + 0j, 1.0 + 0j


class Indicator(_Members):
    """t -> 1 when t is a member of the set, else 0 (literal membership)."""


def check_amp_dim(a: AmplitudeFn, dim: int) -> None:
    """Raise ``DomainError`` unless a residue-indexed amplitude has one entry per residue mod ``dim``."""
    if isinstance(a, PhaseVec) and len(a.thetas) != dim:
        raise DomainError(f"PhaseVec has {len(a.thetas)} angles but D={dim}")
    if isinstance(a, Table) and len(a.values) != dim:
        raise DomainError(f"Table has {len(a.values)} values but D={dim}")


def amp_multiply(a: AmplitudeFn, b: AmplitudeFn, ctx: MeasureContext) -> AmplitudeFn:
    """Pointwise product, as a residues-only Table of both amplitudes' values on the window of `ctx`.

    Each entry is Python's complex product, which can differ from
    numpy's in the last bit.
    """
    window = ctx.residues()
    return Table(tuple(x * y for x, y in zip(a.eval_arr(ctx, window).tolist(), b.eval_arr(ctx, window).tolist())))


# -- JSON encoding (format shared with the diagram file format) --------


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _real(v: Any) -> float:
    """A JSON number as a finite float; strings, bools, NaN, infinities and out-of-range ints raise."""
    in_range_int = isinstance(v, int) and not isinstance(v, bool) and abs(v) <= sys.float_info.max
    if not (isinstance(v, float) or in_range_int):
        raise ValueError(f"value must be a real number, got {reprlib.repr(v)}")
    if not math.isfinite(v):
        raise ValueError(f"value must be a finite number, got {v!r}")
    return float(v)


def _integer(v: Any) -> int:
    return strict_int(v, "value", ValueError)


def _list(v: Any) -> list:
    """A JSON array; a string or an object raises."""
    if not isinstance(v, list):
        raise ValueError(f"value must be a list, got {reprlib.repr(v)}")
    return v


def _complex(v: Any) -> complex:
    """A JSON ``[re, im]`` pair as a complex number."""
    if not (isinstance(v, list) and len(v) == 2):
        raise ValueError(f"value must be a [re, im] pair, got {reprlib.repr(v)}")
    return complex(_real(v[0]), _real(v[1]))


# value codecs: (to JSON, from JSON)
_FLOAT = (lambda v: v, _real)
_INT = (lambda v: v, _integer)
_FLOATS = (list, lambda v: tuple(_real(x) for x in _list(v)))
_COMPLEX = (_pair, _complex)
_COMPLEXES = (lambda v: [_pair(z) for z in v], lambda v: tuple(_complex(z) for z in _list(v)))
_SET = (sorted, lambda v: frozenset(_integer(x) for x in _list(v)))

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


def amp_from_json(obj: Any) -> AmplitudeFn:
    """The amplitude a JSON object encodes; a malformed one raises ``ValueError``."""
    if not isinstance(obj, dict):
        raise ValueError(f"an amplitude must be an object, got {obj!r}")
    if "type" not in obj:
        raise ValueError("amplitude has no 'type'")
    kind = obj["type"]
    entry = _AMP_JSON.get(kind) if isinstance(kind, str) else None
    if entry is None:
        raise ValueError(f"unknown amplitude type {kind!r}")
    cls, fields = entry
    kwargs = {}
    for attr, key, (_, decode) in fields:
        try:
            value = [obj[k] for k in key] if isinstance(key, tuple) else obj[key]
        except KeyError as exc:
            raise ValueError(f"{kind} amplitude has no {exc.args[0]!r}") from None
        try:
            kwargs[attr] = decode(value)
        except (TypeError, ValueError) as exc:
            field = "/".join(key) if isinstance(key, tuple) else key
            raise ValueError(f"{kind} amplitude field {field!r}: {exc}") from None
    return cls(**kwargs)


# =====================================================================
# Generators
# =====================================================================

KINDS = ("green", "red", "hplus", "hminus", "white", "hbox", "gray", "not")
_AMP_KINDS = ("green", "red", "hbox")
_TWO_LEG_KINDS = ("hplus", "hminus", "not")
# each kind's power of nu as (at no legs, per leg): degree deg carries
# nu^(at no legs + deg * per leg), as in the module table
_NU_POWER = {"green": (2, -1), "white": (2, -1), "red": (2, 1), "hbox": (0, 1), "gray": (-2, 1),
             "hplus": (2, 0), "hminus": (2, 0), "not": (0, 0)}


@dataclass(frozen=True)
class Generator:
    """One node of the calculus: kind, arity split, and parameters.

    `amp` is required for green/red/hbox and forbidden elsewhere; `c`
    is 0 but on `not`.  hplus/hminus/not have exactly two legs in total
    (any input/output split, by flexsymmetry).
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
        if self.c and self.kind != "not":
            raise ValueError("only a 'not' node takes a 'c'")
        if self.kind == "hbox" and self.m + self.n > 1 and self.amp.residues_only:
            raise ValueError(
                "an hbox with more than one leg needs an all-integers amplitude "
                "(its argument is a product that can leave the residue window)"
            )

    @property
    def degree(self) -> int:
        return self.m + self.n

    @property
    def nu_power(self) -> int:
        """The exponent of nu in the generator's entries (see ``_NU_POWER``)."""
        at_no_legs, per_leg = _NU_POWER[self.kind]
        return at_no_legs + per_leg * self.degree

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


# ---------------------------------------------------------------- entry builders


def diagonal_weight(ctx: MeasureContext, g: Generator, vals: np.ndarray | None = None) -> np.ndarray:
    """A green or white dot's unit entries where all legs equal v, for v in ``vals``.

    ``vals`` defaults to the window L_D..U_D; where the dot's wires are a
    relabelling of another label, it holds the residue each value of that
    label stands for.  With no legs the dot integrates out, and this is
    the scalar sum_v T(v) as a 0-d array; past the float range it raises
    ``OverflowGuardError``.
    """
    amp = g.amp if g.kind == "green" else One()
    if g.degree == 0:
        # Python's sum, which can differ from numpy's in the last bit, over
        # the entries a slice at a time: no list of all D of them is made
        w = amp.eval_arr(ctx, ctx.residues())
        weight = np.asarray(complex(sum(itertools.chain.from_iterable(
            w[k : k + 4096].tolist() for k in range(0, len(w), 4096)))))
        if not np.isfinite(weight):
            raise OverflowGuardError(f"the weight of a legless {g.kind} dot leaves the float range")
        return weight
    return amp.eval_arr(ctx, ctx.residues() if vals is None else vals)


def generator_entries(ctx: MeasureContext, g: Generator, legs: list[np.ndarray] | None = None) -> np.ndarray:
    """Dense unit entry array of a generator, its entries at nu = 1 (order-symmetric formulas).

    ``legs`` holds one int64 array per leg: the residue the leg takes at
    each point of the factor's labels, all broadcastable to the factor's
    shape.  Several legs may read one label (a repeated label gives the
    diagonal directly), and a leg may read a label through a map, so a
    factor is built on the labels it is contracted on.  By default each
    leg has a label of its own, axis j holding leg j's window, which gives
    the generator's tensor over all deg legs.
    """
    D, deg = ctx.dim, g.degree
    if legs is None:
        legs = [ctx.residues().reshape((-1,) + (1,) * (deg - 1 - j)) for j in range(deg)]
    if g.kind in ("green", "white"):
        w = diagonal_weight(ctx, g)
        if deg == 0:
            return w
        equal = functools.reduce(np.logical_and, [leg == legs[0] for leg in legs[1:]], True)
        return np.where(equal, w[legs[0] - ctx.lower], 0j)
    if g.kind == "red":
        jv = ctx.residues()
        if deg == 0:
            # only s = 0 is read, where every omega^(j*s) is 1
            return np.asarray(g.amp.eval_arr(ctx, jv).sum())
        # w[s] for s = L_D..U_D: sum_j A(j) * omega^(j*s)
        w = g.amp.eval_arr(ctx, jv) @ omega_pow_arr(ctx, np.outer(jv, jv))
        return w[(functools.reduce(np.add, legs) - ctx.lower) % D]
    if g.kind in ("gray", "not"):  # a gray dot has c = 0
        return np.where(functools.reduce(np.add, legs, g.c % D) % D == 0, 1.0 + 0j, 0j)
    if g.kind in ("hplus", "hminus"):
        return omega_pow_arr(ctx, (1 if g.kind == "hplus" else -1) * functools.reduce(np.multiply, legs))
    # an hbox
    checked_i64(max(abs(ctx.lower), ctx.upper, 1) ** deg, "hbox leg product bound")
    return g.amp.eval_arr(ctx, functools.reduce(np.multiply, legs, np.ones((), dtype=np.int64)))


def eval_generator(ctx: MeasureContext, g: Generator) -> Tensor:
    """The generator's tensor, its unit entries times nu^k, with output axes first then input axes.

    nu^k is taken before the entries are built.  Where it, an entry, or
    an entry times it leaves the float range, this raises
    ``OverflowGuardError`` naming the generator and nu^k.  A generator
    of more than ``_MAX_DENSE`` entries raises it too, naming its kind,
    degree and D, before any entry is built.
    """
    try:
        with np.errstate(over="raise"):
            scale = ctx.nu**g.nu_power
            if ctx.dim**g.degree > _MAX_DENSE:
                raise OverflowGuardError(f"{g.kind} of degree {g.degree} has {ctx.dim}^{g.degree} entries "
                                         f"at D={ctx.dim}, more than {_MAX_DENSE}")
            return Tensor(ctx.dim, g.m, g.n, scale * generator_entries(ctx, g))
    except (OverflowError, FloatingPointError) as exc:
        if isinstance(exc, OverflowGuardError):
            raise
        raise OverflowGuardError(f"{g.kind} of degree {g.degree}, whose entries carry nu^{g.nu_power}, "
                                 f"leaves the float range at nu={ctx.nu!r}") from None
