"""Named gadget diagrams and their closed-form target tensors.

Each gadget id names a small diagram (a state, a gate, or a scalar)
assembled from the calculus generators.  Alongside every builder there
is an independently computed target: ``build`` wires up generators and
never consults the closed forms, while ``target_tensor`` evaluates the
defining basis sums directly and never touches diagram code, so
agreement between the two routes is a genuine check rather than a
tautology.

Gadgets are built from shared shapes: one ``DiagramBuilder.chain``
(``_CHAINS``: kets, Paulis, Fourier pieces, multipliers, scalar and
diagonal), k control copy dots feeding a chain (``_CONTROLLED``: the
cz and cx families and ``diag_a2``; an x-type chain ends in a summing
red dot on the target, then an antipode), and
``DiagramBuilder.multiedge`` (``m_mult``).  Only ``ccz_pow`` is
hand-wired, as its box precedes its copy dots.

Also here: ``normal_form``, which writes an arbitrary small tensor as a
diagram of copy-dot fan-outs, not-dot index shifts, and one
coefficient selector per entry, whose H-box fires a chosen amplitude
exactly on the all-``U_D`` basis input.  Each wire's shift, copy and
flip for a value is shared by the selectors of every entry with that
value there, so a normal form has 4(m+n) D + m+n parameter-free nodes
(3D + 1 for one wire) beside its D^(m+n) selectors.  It makes each
parameter-free generator (the fan and copy dots by degree, each not
dot) once per call and shares it among the nodes that hold it, so they
hold at most D + 4 generators.  ``diagram.load_json`` shares them the
same way within one diagram file.  Nothing is cached across calls.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from quditzx.diagram import Diagram, DiagramBuilder
from quditzx.generators import (
    AmplitudeFn,
    Char,
    Generator,
    MBox,
    One,
    Stab,
    UnitPow,
)
from quditzx.measure import (
    MeasureContext,
    OverflowGuardError,
    omega_pow,
    omega_pow_arr,
    residue,
    tau_pow,
)
from quditzx.tensor import Tensor

# Coefficient cap for normal_form: one selector gadget per entry of the
# target tensor, so D**(m+n) may not exceed this, which keeps a
# selector's pivot U_D**(2(m+n)) <= D**(2(m+n)) inside 64 bits.  It also
# caps m_mult's |u|, its number of parallel wires.
_MAX_COEFFS = 4096


class GadgetError(ValueError):
    """Unknown gadget name or invalid parameter."""


_PARAMS: dict[str, tuple[str, ...]] = {
    "ket_a": ("a",),
    "ket_omega_a": ("a",),
    "pauli_x": (),
    "pauli_z": (),
    "s_gate": (),
    "fourier": (),
    "m_mult": ("u",),
    "cx": (),
    "cz": (),
    "cx_pow": ("c",),
    "cz_pow": ("c",),
    "ccx_pow": ("c",),
    "ccz_pow": ("c",),
    "multiplier": ("c",),
    "fourier_box": ("c",),
    "scalar": ("alpha",),
    "diag_theta": ("amp",),
    "diag_a2": ("amp",),
}

GADGET_NAMES: tuple[str, ...] = tuple(sorted(_PARAMS))


@dataclass(frozen=True)
class GadgetId:
    """A gadget name with its parameters, hashable and order-normalized."""

    name: str
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.name not in _PARAMS:
            raise GadgetError(f"unknown gadget {self.name!r}")
        object.__setattr__(self, "params", tuple(sorted(self.params)))
        got = tuple(k for k, _ in self.params)
        want = tuple(sorted(_PARAMS[self.name]))
        if got != want:
            raise GadgetError(f"gadget {self.name!r} takes parameters {want}, got {got}")

    def param(self, key: str) -> Any:
        for k, v in self.params:
            if k == key:
                return v
        raise KeyError(key)

    def __str__(self) -> str:
        if not self.params:
            return self.name
        inner = ", ".join(f"{k}={v}" for k, v in self.params)
        return f"{self.name}({inner})"


def gadget_id(name: str, **params: Any) -> GadgetId:
    """Convenience constructor: ``gadget_id("ket_a", a=1)``."""
    return GadgetId(name, tuple(params.items()))


def _int_param(gid: GadgetId, key: str) -> int:
    v = gid.param(key)
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise GadgetError(f"gadget {gid.name!r} parameter {key}={v!r} must be an integer")
    return int(v)

def _complex_param(gid: GadgetId, key: str) -> complex:
    v = gid.param(key)
    if isinstance(v, (str, bool)) or not isinstance(v, (int, float, complex, np.number)):
        raise GadgetError(f"gadget {gid.name!r} parameter {key}={v!r} must be a number")
    try:
        return complex(v)
    except OverflowError:  # an int past the float range
        raise GadgetError(f"gadget {gid.name!r} parameter {key} must be a finite number, got an integer "
                          f"of {int(v).bit_length()} bits") from None

def _amp_param(gid: GadgetId) -> AmplitudeFn:
    v = gid.param("amp")
    if not isinstance(v, AmplitudeFn):
        raise GadgetError(f"gadget {gid.name!r} parameter amp={v!r} must be an amplitude function")
    return v


# =====================================================================
# Diagram builders
# =====================================================================


def _a2_amp(gid: GadgetId) -> AmplitudeFn:
    amp = _amp_param(gid)
    if amp.residues_only:
        raise GadgetError("diag_a2 needs an all-integers amplitude (its argument is a product)")
    return amp


def _scalar_amp(gid: GadgetId) -> AmplitudeFn:
    alpha = _complex_param(gid, "alpha")
    # UnitPow rejects 0; the selector amplitude covers that case
    return UnitPow(alpha) if alpha != 0 else MBox(0, alpha)


def _box(gid: GadgetId, m: int, n: int) -> Generator:
    """The multiplier H-box: character amplitude omega^(c t)."""
    return Generator.hbox(Char(_int_param(gid, "c")), m, n)


# degree-2 flat red dot: D*nu^4 times the negation permutation
_ANTIPODE = Generator.red(One(), 1, 1)
# the summing red dot of the x-type gadgets; it negates the sum
_SUM = Generator.red(One(), 2, 1)

# gadgets that are one chain of pieces (DiagramBuilder.chain)
_CHAINS: dict[str, Callable[[GadgetId], list[Generator]]] = {
    # basis state through an antipode; red state alone lands on -a
    "ket_a": lambda gid: [Generator.red(Char(_int_param(gid, "a")), 0, 1), _ANTIPODE],
    # green phase state through an antipode gives the Fourier vector
    "ket_omega_a": lambda gid: [Generator.green(Char(_int_param(gid, "a")), 0, 1), _ANTIPODE],
    # antipode then a phased red dot: the cyclic shift |t> -> |t+1>
    "pauli_x": lambda gid: [_ANTIPODE, Generator.red(Char(-1), 1, 1)],
    "pauli_z": lambda gid: [Generator.green(Char(1), 1, 1)],
    "s_gate": lambda gid: [Generator.green(Stab(0, 1), 1, 1)],
    "fourier": lambda gid: [Generator.hminus()],
    "multiplier": lambda gid: [_box(gid, 1, 1), Generator.hminus()],
    "fourier_box": lambda gid: [_box(gid, 1, 1)],
    "scalar": lambda gid: [Generator.hbox(_scalar_amp(gid), 0, 0)],
    "diag_theta": lambda gid: [Generator.green(_amp_param(gid), 1, 1)],
}

# controlled gadgets: (number of control copy dots, the chain they feed)
_CONTROLLED: dict[str, tuple[int, Callable[[GadgetId], list[Generator]]]] = {
    "cz": (2, lambda gid: [Generator.hplus()]),
    "cz_pow": (2, lambda gid: [_box(gid, 1, 1)]),
    "diag_a2": (2, lambda gid: [Generator.hbox(_a2_amp(gid), 2, 0)]),
    "cx": (1, lambda gid: [_SUM]),
    # control copy -> multiplier bridge -> summing red dot on target
    "cx_pow": (1, lambda gid: [_box(gid, 1, 1), Generator.hminus(), _SUM]),
    "ccx_pow": (2, lambda gid: [_box(gid, 2, 1), Generator.hminus(), _SUM]),
}


def _antipode_out(b: DiagramBuilder, src: str) -> None:
    """src through an antipode to the next output, undoing a sum's negation."""
    anti = b.node(_ANTIPODE)
    b.wire(src, anti)
    b.wire(anti, "out")


def _controlled(b: DiagramBuilder, k: int, pieces: list[Generator]) -> None:
    """k copy dots, input j to output j, each feeding the first of a
    chain of pieces.  A chain that ends in the summing red dot takes
    the target input there and leaves through an antipode."""
    copies = [b.node(Generator.white(1, 2)) for _ in range(k)]
    ids = [b.node(gen) for gen in pieces]
    for j, w in enumerate(copies):
        b.wire(("in", j), w)
        b.wire(w, ("out", j))
        b.wire(w, ids[0])
    for a, c in zip(ids, ids[1:]):
        b.wire(a, c)
    if pieces[-1] == _SUM:
        b.wire("in", ids[-1])
        _antipode_out(b, ids[-1])


def build(gid: GadgetId, ctx: MeasureContext) -> Diagram:
    """Assemble the named gadget as a diagram over ctx.dim.

    At well-tempered nu the evaluation equals ``target_tensor`` for
    every gadget; several (the diagonal family, fourier, fourier_box,
    scalar, and both kets) match at any nu.
    """
    b = DiagramBuilder(ctx.dim)
    name = gid.name
    if name in _CHAINS:
        b.chain(_CHAINS[name](gid))
    elif name in _CONTROLLED:
        k, pieces = _CONTROLLED[name]
        _controlled(b, k, pieces(gid))
    elif name == "m_mult":
        u = _int_param(gid, "u")
        if abs(u) > _MAX_COEFFS:
            raise GadgetError(f"gadget 'm_mult' parameter u needs |u| <= {_MAX_COEFFS} (one wire per unit of |u|)")
        tot = b.multiedge(Generator.white(1, abs(u)), Generator.red(One(), abs(u), 1), tail=u > 0)
        if u > 0:
            _antipode_out(b, tot)
    else:  # ccz_pow: its box comes before its copy dots
        box = b.node(_box(gid, 3, 0))
        for j in range(3):
            w = b.node(Generator.white(1, 2))
            b.wire(("in", j), w)
            b.wire(w, ("out", j))
            b.wire(w, box)
    return b.build()


# =====================================================================
# Closed-form targets
# =====================================================================


def _pos(ctx: MeasureContext, x: int) -> int:
    """Axis index of the residue class of x."""
    return residue(ctx, int(x)) - ctx.lower


def _basis_kket(ctx: MeasureContext, x: int) -> np.ndarray:
    """The normalized basis vector: 1/nu at the residue class of x."""
    v = np.zeros(ctx.dim, dtype=complex)
    v[_pos(ctx, x)] = 1.0 / ctx.nu
    return v


def _fourier_kket(ctx: MeasureContext, k: int) -> np.ndarray:
    """The normalized Fourier vector: nu * omega^(-k x) over the window."""
    return ctx.nu * omega_pow_arr(ctx, (-int(k)) * ctx.residues())


def target_tensor(gid: GadgetId, ctx: MeasureContext) -> Tensor:
    """The gadget's defining sum, computed directly (no diagram code)."""
    D, nu = ctx.dim, ctx.nu
    res = [int(x) for x in ctx.residues()]
    name = gid.name

    if name == "ket_a":
        a = _int_param(gid, "a")
        vec = np.zeros(D, dtype=complex)
        for h in res:
            for k in res:
                inner = np.vdot(_fourier_kket(ctx, k), _fourier_kket(ctx, -h))
                vec += nu**4 * tau_pow(ctx, 2 * a * h) * inner * _fourier_kket(ctx, -k)
        return Tensor(D, 0, 1, vec)

    if name == "ket_omega_a":
        a = _int_param(gid, "a")
        vec = np.zeros(D, dtype=complex)
        for x in res:
            for k in res:
                inner = np.vdot(_fourier_kket(ctx, k), _basis_kket(ctx, x))
                vec += nu**4 * tau_pow(ctx, 2 * a * x) * inner * _fourier_kket(ctx, -k)
        return Tensor(D, 0, 1, vec)

    if name == "pauli_x":
        arr = np.zeros((D, D), dtype=complex)
        for h in res:
            f = _fourier_kket(ctx, h)
            arr += nu**2 * tau_pow(ctx, 2 * h) * np.outer(f, f.conj())
        return Tensor(D, 1, 1, arr)

    if name == "pauli_z":
        arr = np.zeros((D, D), dtype=complex)
        for x in res:
            e = _basis_kket(ctx, x)
            arr += nu**2 * tau_pow(ctx, 2 * x) * np.outer(e, e)
        return Tensor(D, 1, 1, arr)

    if name == "s_gate":
        arr = np.zeros((D, D), dtype=complex)
        for x in res:
            e = _basis_kket(ctx, x)
            arr += nu**2 * tau_pow(ctx, x * x) * np.outer(e, e)
        return Tensor(D, 1, 1, arr)

    if name == "fourier":
        arr = np.zeros((D, D), dtype=complex)
        for k in res:
            for x in res:
                arr += nu**4 * tau_pow(ctx, -2 * k * x) * np.outer(
                    _basis_kket(ctx, k), _basis_kket(ctx, x)
                )
        return Tensor(D, 1, 1, arr)

    if name in ("m_mult", "multiplier"):
        u = _int_param(gid, "u" if name == "m_mult" else "c")
        arr = np.zeros((D, D), dtype=complex)
        for x in res:
            arr += nu**2 * np.outer(_basis_kket(ctx, u * x), _basis_kket(ctx, x))
        return Tensor(D, 1, 1, arr)

    if name == "cx":
        arr = np.zeros((D,) * 4, dtype=complex)
        for x in res:
            for y in res:
                arr[_pos(ctx, x), _pos(ctx, x + y), _pos(ctx, x), _pos(ctx, y)] = 1.0
        return Tensor(D, 2, 2, arr)

    if name == "cz":
        arr = np.zeros((D,) * 4, dtype=complex)
        for x in res:
            for y in res:
                arr[_pos(ctx, x), _pos(ctx, y), _pos(ctx, x), _pos(ctx, y)] = omega_pow(ctx, x * y)
        return Tensor(D, 2, 2, arr)

    if name == "cx_pow":
        c = _int_param(gid, "c")
        arr = np.zeros((D,) * 4, dtype=complex)
        for x in res:
            for y in res:
                arr[_pos(ctx, x), _pos(ctx, y + c * x), _pos(ctx, x), _pos(ctx, y)] = 1.0
        return Tensor(D, 2, 2, arr)

    if name == "cz_pow":
        c = _int_param(gid, "c")
        arr = np.zeros((D,) * 4, dtype=complex)
        for x in res:
            for y in res:
                arr[_pos(ctx, x), _pos(ctx, y), _pos(ctx, x), _pos(ctx, y)] = omega_pow(
                    ctx, c * x * y
                )
        return Tensor(D, 2, 2, arr)

    if name == "ccx_pow":
        c = _int_param(gid, "c")
        arr = np.zeros((D,) * 6, dtype=complex)
        for x in res:
            for y in res:
                for z in res:
                    arr[
                        _pos(ctx, x),
                        _pos(ctx, y),
                        _pos(ctx, z + c * x * y),
                        _pos(ctx, x),
                        _pos(ctx, y),
                        _pos(ctx, z),
                    ] = 1.0
        return Tensor(D, 3, 3, arr)

    if name == "ccz_pow":
        c = _int_param(gid, "c")
        arr = np.zeros((D,) * 6, dtype=complex)
        for x in res:
            for y in res:
                for z in res:
                    arr[
                        _pos(ctx, x),
                        _pos(ctx, y),
                        _pos(ctx, z),
                        _pos(ctx, x),
                        _pos(ctx, y),
                        _pos(ctx, z),
                    ] = omega_pow(ctx, c * x * y * z)
        return Tensor(D, 3, 3, arr)

    if name == "fourier_box":
        c = _int_param(gid, "c")
        arr = np.zeros((D, D), dtype=complex)
        for x in res:
            for y in res:
                arr[_pos(ctx, y), _pos(ctx, x)] = nu**2 * omega_pow(ctx, c * x * y)
        return Tensor(D, 1, 1, arr)

    if name == "scalar":
        return Tensor.scalar(D, _complex_param(gid, "alpha"))

    if name == "diag_theta":
        amp = _amp_param(gid)
        arr = np.zeros((D, D), dtype=complex)
        for x in res:
            arr[_pos(ctx, x), _pos(ctx, x)] = amp.eval(ctx, x)
        return Tensor(D, 1, 1, arr)

    if name == "diag_a2":
        amp = _a2_amp(gid)
        arr = np.zeros((D,) * 4, dtype=complex)
        for x in res:
            for y in res:
                arr[_pos(ctx, x), _pos(ctx, y), _pos(ctx, x), _pos(ctx, y)] = amp.eval(ctx, x * y)
        return Tensor(D, 2, 2, arr)

    raise GadgetError(f"unknown gadget {name!r}")  # pragma: no cover


# =====================================================================
# Coefficient selector and normal form
# =====================================================================


def normal_form(omega: Tensor, ctx: MeasureContext) -> Diagram:
    """A diagram evaluating exactly to `omega`, one selector per entry.

    Every boundary wire gets a white fan-out dot of degree D + 1, with
    one branch per value i: a not dot shifts i onto U_D, and a copy dot
    of degree D**(m+n-1) + 2 sends it straight to the selector of each
    entry whose point has value i on that wire, and through the
    (1 - sigma)-not-dot to a copy dot of degree D**(m+n-1) + 1 that
    sends it flipped to the same selectors.  With one wire, the flip
    meets its one selector directly.  Each tensor entry, enumerated in
    row-major order with output axes first, gets its own selector H-box,
    which fires on the all-U_D input; it takes each wire's straight leg,
    then its flipped leg, in wire order.  The fan-out, copy and
    selector scalings cancel, so the construction is exact at any nu.
    """
    if omega.dim != ctx.dim:
        raise ValueError(f"tensor dimension {omega.dim} != context dimension {ctx.dim}")
    D = ctx.dim
    n_out, n_in = omega.out_legs, omega.in_legs
    wires = n_out + n_in
    n_coeffs = D**wires
    if n_coeffs > _MAX_COEFFS:
        raise OverflowGuardError(
            f"normal form needs D^(m+n) = {n_coeffs} selector gadgets (cap {_MAX_COEFFS})"
        )

    # one generator per distinct parameter-free node, shared by all the
    # nodes that hold it: the fan and copy dots by degree, the not dot
    # that shifts each axis index i onto U_D, and the (1 - sigma)-not-dot
    per = n_coeffs // D  # the selectors that read one value of a wire
    whites = {k: Generator.white(1, k) for k in {D, per + 1, per}}
    consts = [residue(ctx, -(ctx.lower + i) - ctx.upper) for i in range(D)]
    nots = {c: Generator.not_dot(c) for c in {*consts, 1 - ctx.sigma}}
    flip = nots[1 - ctx.sigma]

    # each wire's fan feeds one branch per value i: the shift onto U_D,
    # a copy dot whose legs go straight to the selectors of points with
    # value i there, and one through the flip, copied for them in turn
    b = DiagramBuilder(D)
    branches = []  # per wire, per value: the straight and the flipped copy
    for w in range(wires):
        fan = b.node(whites[D], name=f"fan{w}")
        if w < n_out:
            b.wire(("out", w), fan)
        else:
            b.wire(("in", w - n_out), fan)
        values = []
        for c in consts:
            shift, dot, nd = b.node(nots[c]), b.node(whites[per + 1]), b.node(flip)
            b.wire(fan, shift)
            b.wire(shift, dot)
            b.wire(dot, nd)
            if per > 1:  # a lone selector takes the flip itself
                flipped = b.node(whites[per])
                b.wire(nd, flipped)
                nd = flipped
            values.append((dot, nd))
        branches.append(values)

    try:
        scale = complex(ctx.nu) ** (-wires)
    except (OverflowError, ZeroDivisionError):  # nu^wires past the float range, or 0
        raise OverflowGuardError(f"nu^-{wires} = {ctx.nu!r}^-{wires} leaves the float range") from None
    flat = omega.data.reshape(-1)
    # row-major points, the order of ``flat``
    for k, point in enumerate(itertools.product(range(D), repeat=wires)):
        alpha = complex(flat[k]) * scale
        if not cmath.isfinite(alpha):  # a diagram file holds finite numbers only
            raise OverflowGuardError(f"entry {k} times nu^-{wires} leaves the float range: {alpha}")
        # a scalar's one box keeps an automatic id
        box = b.node(Generator.hbox(MBox(2 * wires, alpha), 2 * wires, 0), f"sel{k}" if wires else None)
        for values, i in zip(branches, point):
            # the straight leg, then the flipped one, of the branch of value i
            for end in values[i]:
                b.wire(end, box)
    return b.build()
