"""Dense complex tensors for multi-linear maps H^m -> H^n over H = C^D.

A ``Tensor`` stores its entries as a numpy array of shape ``(D,) * (n+m)``
with output axes first (in order) followed by input axes; every axis is
enumerated over the signed residue window ``L_D..U_D``, so array index
``i`` on any axis refers to residue value ``L_D + i``.  A 0->0 tensor is
a single complex scalar (0-dimensional array).

Wires carry no measure weight: identity, cup, and cap are plain
Kronecker deltas.  All normalization bookkeeping lives in the generator
tensors (see :mod:`quditzx.generators`).
"""

from __future__ import annotations

import cmath
import json
import reprlib
from dataclasses import dataclass
from typing import Any

import numpy as np

from quditzx.measure import MeasureContext, OverflowGuardError


_DIFF_BLOCK = 1 << 16  # entries per sub-block in max_abs_diff
_REAL = (int, float)  # the types of a JSON number; bool is a subclass of int, not one of these


class ShapeError(ValueError):
    """Leg-count or dimension mismatch between tensors."""


@dataclass(frozen=True)
class Tensor:
    """A dense map H^in_legs -> H^out_legs; immutable by convention."""

    dim: int
    in_legs: int
    out_legs: int
    data: np.ndarray

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise ShapeError(f"dimension must be at least 2, got {self.dim}")
        if self.in_legs < 0 or self.out_legs < 0:
            raise ShapeError(f"leg counts must be nonnegative, got {self.in_legs}->{self.out_legs}")
        expected = (self.dim,) * (self.in_legs + self.out_legs)
        arr = np.asarray(self.data, dtype=np.complex128)
        if arr.shape != expected:
            raise ShapeError(f"entries shape {arr.shape} != expected {expected}")
        object.__setattr__(self, "data", arr)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def scalar(dim: int, value: complex) -> "Tensor":
        return Tensor(dim, 0, 0, np.asarray(complex(value)))

    # -- views -------------------------------------------------------------

    def as_matrix(self) -> np.ndarray:
        """Reshape to a (D^out x D^in) matrix."""
        return self.data.reshape(self.dim**self.out_legs, self.dim**self.in_legs)

    def adjoint(self) -> "Tensor":
        """Conjugate transpose: inputs and outputs swap roles."""
        n, m = self.out_legs, self.in_legs
        perm = tuple(range(n, n + m)) + tuple(range(n))
        return Tensor(self.dim, n, m, np.conj(np.transpose(self.data, perm)))


# ---------------------------------------------------------------- wires


def identity_wire(ctx: MeasureContext) -> Tensor:
    return Tensor(ctx.dim, 1, 1, np.eye(ctx.dim))


def cup(ctx: MeasureContext) -> Tensor:
    """0->2 state pairing the two outputs: sum_x |x,x>."""
    return Tensor(ctx.dim, 0, 2, np.eye(ctx.dim))


def cap(ctx: MeasureContext) -> Tensor:
    """2->0 effect pairing the two inputs: sum_x <x,x|."""
    return Tensor(ctx.dim, 2, 0, np.eye(ctx.dim))


# ---------------------------------------------------------------- algebra


def tensor_product(a: Tensor, b: Tensor) -> Tensor:
    """Kronecker composite with a's legs before b's on both sides."""
    if a.dim != b.dim:
        raise ShapeError(f"dimension mismatch: {a.dim} != {b.dim}")
    raw = np.tensordot(a.data, b.data, axes=0)
    # raw axes: (a.out, a.in, b.out, b.in) -> want (a.out, b.out, a.in, b.in)
    an, am, bn, bm = a.out_legs, a.in_legs, b.out_legs, b.in_legs
    perm = (
        tuple(range(an))
        + tuple(range(an + am, an + am + bn))
        + tuple(range(an, an + am))
        + tuple(range(an + am + bn, an + am + bn + bm))
    )
    return Tensor(a.dim, am + bm, an + bn, np.transpose(raw, perm))


def compose(first: Tensor, second: Tensor) -> Tensor:
    """Run `first`, then `second`: contract first's outputs with second's inputs."""
    if first.dim != second.dim:
        raise ShapeError(f"dimension mismatch: {first.dim} != {second.dim}")
    if first.out_legs != second.in_legs:
        raise ShapeError(
            f"leg mismatch: first has {first.out_legs} outputs, second expects {second.in_legs}"
        )
    n2, m2 = second.out_legs, second.in_legs
    contracted = np.tensordot(
        second.data, first.data, axes=(tuple(range(n2, n2 + m2)), tuple(range(first.out_legs)))
    )
    return Tensor(first.dim, first.in_legs, second.out_legs, contracted)


def max_abs_diff(a: Tensor, b: Tensor) -> float:
    """The largest entrywise ``|a - b|``, or NaN if any of them is NaN.

    An array of more than ``_DIFF_BLOCK`` entries is compared in
    sub-blocks of at most that many, one for each index of its
    widest-strided axes, so no temporary is as large as the arrays and
    each sub-block reads short runs of memory in both.  The max of the
    same abs values is exact, so the result is bit for bit
    ``float(np.max(np.abs(a.data - b.data)))``; ``np.maximum`` carries a
    NaN from any sub-block to the end.  Entries past the float range give
    inf or NaN with no warning.
    """
    if (a.dim, a.in_legs, a.out_legs) != (b.dim, b.in_legs, b.out_legs):
        raise ShapeError("tensors differ in dimension or leg counts")
    x, y = a.data, b.data
    with np.errstate(invalid="ignore", over="ignore"):
        if x.size <= _DIFF_BLOCK:
            return float(np.abs(x - y).max())
        order = sorted(range(x.ndim), key=lambda k: -abs(x.strides[k]) - abs(y.strides[k]))
        x, y = x.transpose(order), y.transpose(order)
        lead, size = 0, x.size
        while size > _DIFF_BLOCK:
            size //= x.shape[lead]
            lead += 1
        worst = -np.inf
        for idx in np.ndindex(x.shape[:lead]):
            worst = np.maximum(worst, np.abs(x[idx] - y[idx]).max())
    return float(worst)


# ---------------------------------------------------------------- dump format


def to_dump(t: Tensor) -> dict[str, Any]:
    """Serializable dict: entries flattened outputs-major then inputs, axes L_D..U_D."""
    flat = t.data.reshape(-1)
    return {
        "dim": t.dim,
        "in_legs": t.in_legs,
        "out_legs": t.out_legs,
        "entries": [[float(z.real), float(z.imag)] for z in flat],
    }


def strict_int(value: Any, what: str, error: type[ValueError] = ShapeError) -> int:
    """An integer field read from a file, never truncated: bools, strings
    and non-integral numbers raise `error`."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise error(f"{what} must be an integer, got {value!r}")
    return int(value)


def from_dump(obj: Any) -> Tensor:
    """The tensor a parsed dump holds; a malformed one raises ``ShapeError``, naming the bad field."""
    if not isinstance(obj, dict):
        raise ShapeError("a tensor dump must hold a JSON object")
    for key in ("dim", "in_legs", "out_legs", "entries"):
        if key not in obj:
            raise ShapeError(f"the tensor dump has no {key!r}")
    dim = strict_int(obj["dim"], "dim")
    m, n = strict_int(obj["in_legs"], "in_legs"), strict_int(obj["out_legs"], "out_legs")
    entries = obj["entries"]
    if not isinstance(entries, list):
        raise ShapeError("entries must be a list")
    # D >= 2, so more legs than this would need more entries than there
    # are; refuse them before D^(m+n) can grow into a huge integer
    if m + n > len(entries).bit_length():
        raise ShapeError(f"{m + n} legs need more than the {len(entries)} entries given")
    if len(entries) != dim ** (m + n):
        raise ShapeError(f"entry count {len(entries)} != {dim}^{m + n}")
    try:
        # bools and strings are dropped here, so the count below no longer matches
        flat = np.array(
            [complex(re, im) for re, im in entries if type(re) in _REAL and type(im) in _REAL],
            dtype=np.complex128,
        )
        valid = len(flat) == len(entries) and np.isfinite(flat).all()
    except (TypeError, ValueError, OverflowError):  # not a pair, or an int past the float range
        valid = False
    if not valid:
        for k, entry in enumerate(entries):
            if not _finite_pair(entry):
                raise ShapeError(f"entry {k} must be a pair of finite real numbers, got {reprlib.repr(entry)}")
    return Tensor(dim, m, n, flat.reshape((dim,) * (n + m)))


def _finite_pair(entry: Any) -> bool:
    """Whether a dump entry is ``[re, im]`` with both parts finite JSON numbers."""
    try:
        re, im = entry
        return type(re) in _REAL and type(im) in _REAL and cmath.isfinite(complex(re, im))
    except (TypeError, ValueError, OverflowError):
        return False


def dump_json(t: Tensor) -> str:
    """The dump as JSON text; a NaN or infinite entry raises ``OverflowGuardError``, naming it."""
    try:
        return json.dumps(to_dump(t), allow_nan=False)
    except ValueError:
        flat = t.data.reshape(-1)
        k = int(np.flatnonzero(~np.isfinite(flat))[0])
        raise OverflowGuardError(f"entry {k} of the tensor is not finite: {complex(flat[k])}") from None


def load_json(text: str) -> Tensor:
    return from_dump(json.loads(text))
