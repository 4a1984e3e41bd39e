"""Slow, direct forms that the tests check the package against.

The wire tensors and the tensor algebra build a diagram's meaning by
hand, and ``gauss_sum_oracle`` sums a Gauss sum term by term; the
package itself needs none of them.
"""

from __future__ import annotations

import cmath

import numpy as np

from quditzx.measure import MeasureContext
from quditzx.tensor import ShapeError, Tensor


def adjoint(t: Tensor) -> Tensor:
    """Conjugate transpose: inputs and outputs swap roles."""
    n, m = t.out_legs, t.in_legs
    perm = tuple(range(n, n + m)) + tuple(range(n))
    return Tensor(t.dim, n, m, np.conj(np.transpose(t.data, perm)))


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


# ---------------------------------------------------------------- Gauss sums


def gauss_sum_oracle(r: int, s: int, N: int) -> complex:
    """Direct summation; no restriction on N."""
    if N < 1:
        raise ValueError(f"modulus must be positive, got {N}")
    total = 0j
    for x in range(N):
        total += cmath.exp(2j * cmath.pi * ((r * x * x + s * x) % N) / N)
    return total
