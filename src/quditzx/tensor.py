"""Dense complex tensors for multi-linear maps H^m -> H^n over H = C^D.

A ``Tensor`` stores its entries as a numpy array of shape ``(D,) * (n+m)``
with output axes first (in order) followed by input axes; every axis is
enumerated over the signed residue window ``L_D..U_D``, so array index
``i`` on any axis refers to residue value ``L_D + i``.  A 0->0 tensor is
a single complex scalar (0-dimensional array).

Wires carry no measure weight: identity, swap, cup, and cap are plain
Kronecker deltas.  All normalization bookkeeping lives in the generator
tensors (see :mod:`quditzx.generators`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

import numpy as np

from quditzx.measure import MeasureContext


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

    @staticmethod
    def zeros(dim: int, in_legs: int, out_legs: int) -> "Tensor":
        return Tensor(dim, in_legs, out_legs, np.zeros((dim,) * (in_legs + out_legs)))

    # -- views -------------------------------------------------------------

    def as_matrix(self) -> np.ndarray:
        """Reshape to a (D^out x D^in) matrix."""
        return self.data.reshape(self.dim**self.out_legs, self.dim**self.in_legs)

    def adjoint(self) -> "Tensor":
        """Conjugate transpose: inputs and outputs swap roles."""
        n, m = self.out_legs, self.in_legs
        perm = tuple(range(n, n + m)) + tuple(range(n))
        return Tensor(self.dim, n, m, np.conj(np.transpose(self.data, perm)))

    def scaled(self, factor: complex) -> "Tensor":
        return Tensor(self.dim, self.in_legs, self.out_legs, self.data * factor)


# ---------------------------------------------------------------- wires


def identity_wire(ctx: MeasureContext) -> Tensor:
    return Tensor(ctx.dim, 1, 1, np.eye(ctx.dim))


def swap(ctx: MeasureContext) -> Tensor:
    D = ctx.dim
    data = np.zeros((D, D, D, D))
    for x in range(D):
        for y in range(D):
            data[y, x, x, y] = 1.0
    return Tensor(D, 2, 2, data)


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
    if (a.dim, a.in_legs, a.out_legs) != (b.dim, b.in_legs, b.out_legs):
        raise ShapeError("tensors differ in dimension or leg counts")
    if a.data.size == 0:
        return 0.0
    return float(np.max(np.abs(a.data - b.data)))


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


def from_dump(obj: dict[str, Any]) -> Tensor:
    dim = strict_int(obj["dim"], "dim")
    m, n = strict_int(obj["in_legs"], "in_legs"), strict_int(obj["out_legs"], "out_legs")
    entries = obj["entries"]
    if len(entries) != dim ** (m + n):
        raise ShapeError(f"entry count {len(entries)} != {dim}^{m + n}")
    flat = np.array([complex(re, im) for re, im in entries])
    return Tensor(dim, m, n, flat.reshape((dim,) * (n + m)))


def dump_json(t: Tensor) -> str:
    return json.dumps(to_dump(t))


def load_json(text: str) -> Tensor:
    return from_dump(json.loads(text))
