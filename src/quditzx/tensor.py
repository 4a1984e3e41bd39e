"""Dense complex tensors for multi-linear maps H^m -> H^n over H = C^D.

A ``Tensor`` stores its entries as a numpy array of shape ``(D,) * (n+m)``
with output axes first (in order) followed by input axes; every axis is
enumerated over the signed residue window ``L_D..U_D``, so array index
``i`` on any axis refers to residue value ``L_D + i``.  A 0->0 tensor is
a single complex scalar (0-dimensional array).

All normalization bookkeeping lives in the generator tensors (see
:mod:`quditzx.generators`); a bare wire is a plain Kronecker delta.
"""

from __future__ import annotations

import cmath
import json
import reprlib
from dataclasses import dataclass
from typing import Any

import numpy as np

from quditzx.measure import OverflowGuardError


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


def max_abs_diff(a: Tensor, b: Tensor) -> float:
    """The largest entrywise ``|a - b|``, or NaN if any of them is NaN.

    This is ``float(np.max(np.abs(a.data - b.data)))``, in one go.
    Entries past the float range give inf or NaN with no warning.
    """
    if (a.dim, a.in_legs, a.out_legs) != (b.dim, b.in_legs, b.out_legs):
        raise ShapeError("tensors differ in dimension or leg counts")
    with np.errstate(invalid="ignore", over="ignore"):
        return float(np.abs(a.data - b.data).max())


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


def finite(t: Tensor) -> Tensor:
    """``t``; a NaN or infinite entry raises ``OverflowGuardError``, naming the first."""
    flat = t.data.reshape(-1)
    bad = ~np.isfinite(flat)
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        raise OverflowGuardError(f"entry {k} of the tensor is not finite: {complex(flat[k])}")
    return t


def dump_json(t: Tensor) -> str:
    """The dump as JSON text; a NaN or infinite entry raises ``OverflowGuardError``, naming it."""
    return json.dumps(to_dump(finite(t)))


def load_json(text: str) -> Tensor:
    return from_dump(json.loads(text))
