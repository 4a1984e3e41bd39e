"""Rule catalog, soundness checking, and anchored rewriting.

Every rule is a :class:`RuleSpec`: a pair of parameterized diagram
builders (left side, right side), a parameter validator, and a sampler
used by the soundness matrix.  Rule ids follow the standard short names
(ZX-*, ZXH-*, ZH-*).

Scalar bookkeeping: many rules balance only up to a closed-form scalar
(typically an integer power of D*nu^4, which is 1 at the default
normalization).  Builders compute that factor from the context and, when
it differs from 1, attach it as a degree-0 H-box named ``scale`` on the
side that needs it.  At the default normalization those boxes vanish and
the builders emit the plain figure form; at any other nu they emit the
balanced form, so both sides always evaluate equal.

Application is anchored: the caller names which host node plays each
left-side node.  No pattern search happens; the anchor is validated
(kinds, labels, arities, internal wiring) and the match is then excised
and replaced by the right side, splicing its boundary into the cut
wires.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable

import numpy as np

from quditzx.diagram import Diagram, DiagramBuilder, DiagramError, _splice, evaluate
from quditzx.gauss import gamma
from quditzx.generators import (
    AmplitudeFn,
    Char,
    Generator,
    One,
    Phase,
    PhaseVec,
    Stab,
    UnitPow,
    Zero,
    amp_multiply,
    amp_to_json,
)
from quditzx.measure import MeasureContext, residue, tau_pow
from quditzx.tensor import max_abs_diff


class RewriteError(ValueError):
    """Base for rule lookup, parameter, and application failures."""


class ParamError(RewriteError):
    """A parameter assignment is outside the rule's domain."""


class MatchError(RewriteError):
    """An anchor does not embed the rule's left side in the host."""


Params = dict[str, Any]
PairBuilder = Callable[[Params, MeasureContext], tuple[Diagram, Diagram]]
# A string, so that loading the module does not import numpy.random.
Sampler = Callable[[int, "np.random.Generator"], Params | None]
Validator = Callable[[Params, int], None]


@dataclass(frozen=True)
class RuleSpec:
    """One rewrite rule: both sides, domain, and sampling.

    `build_pair` constructs both sides for a valid parameter assignment.
    `param_domain` is the boolean form of the validator.  `dim_cap` marks
    rules whose diagrams grow with D (parallel-edge and branch-per-residue
    shapes); the checker skips larger dimensions.
    """

    id: str
    params: tuple[str, ...]
    nu_requirement: str  # "any" | "well_tempered"
    build_pair: PairBuilder
    validate: Validator
    sample: Sampler
    dim_cap: int | None = None

    def param_domain(self, params: Params, dim: int) -> bool:
        try:
            self.validate(params, dim)
        except ParamError:
            return False
        return True


# =====================================================================
# Small construction helpers
# =====================================================================


def _wire(dim: int) -> Diagram:
    b = DiagramBuilder(dim)
    b.wire("in", "out")
    return b.build()


def _empty(dim: int) -> Diagram:
    return DiagramBuilder(dim).build()


def _scale(b: DiagramBuilder, value: complex) -> None:
    """Attach the closed-form balancing scalar when it is not 1."""
    value = complex(value)
    if abs(value - 1.0) > 1e-12:
        b.node(Generator.hbox(UnitPow(value), 0, 0), "scale")


def _dnu4(ctx: MeasureContext) -> float:
    return ctx.dim * ctx.nu**4


def _chain(dim: int, gens: Iterable[Generator]) -> Diagram:
    """1 -> 1 chain of two-leg pieces; empty chain is a bare wire."""
    b = DiagramBuilder(dim)
    prev = "in"
    for i, gen in enumerate(gens):
        name = b.node(gen, f"n{i}")
        b.wire(prev, name)
        prev = name
    b.wire(prev, "out")
    return b.build()


def _dressed_spider(
    dim: int, core: Generator, dress: Generator | None, m: int, n: int
) -> Diagram:
    """core with an optional two-leg piece on every boundary leg."""
    b = DiagramBuilder(dim)
    g = b.node(core, "g0")
    for i in range(m):
        if dress is None:
            b.wire("in", g)
        else:
            d = b.node(dress, f"di{i}")
            b.wire("in", d)
            b.wire(d, g)
    for j in range(n):
        if dress is None:
            b.wire(g, "out")
        else:
            d = b.node(dress, f"do{j}")
            b.wire(g, d)
            b.wire(d, "out")
    return b.build()


def _uinv(u: int, dim: int) -> int:
    """Inverse of a unit, taken mod 2D for even D so quadratic-label
    arithmetic stays exact, mod D otherwise."""
    mod = 2 * dim if dim % 2 == 0 else dim
    return pow(u % mod, -1, mod)


# =====================================================================
# Parameter validation / sampling helpers
# =====================================================================


def _need(cond: bool, msg: str) -> None:
    if not cond:
        raise ParamError(msg)


def _need_keys(p: Params, names: tuple[str, ...]) -> None:
    missing = [k for k in names if k not in p]
    _need(not missing, f"missing parameter(s): {', '.join(missing)}")
    extra = [k for k in p if k not in names]
    _need(not extra, f"unexpected parameter(s): {', '.join(extra)}")


def _need_int(p: Params, k: str) -> int:
    v = p[k]
    _need(isinstance(v, (int, np.integer)) and not isinstance(v, bool), f"{k} must be an integer")
    return int(v)


def _need_nat(p: Params, k: str, hi: int | None = None) -> int:
    v = _need_int(p, k)
    _need(v >= 0, f"{k} must be nonnegative, got {v}")
    if hi is not None:
        _need(v <= hi, f"{k}={v} too large (max {hi})")
    return v


def _need_real(p: Params, k: str) -> float:
    v = p[k]
    _need(isinstance(v, (int, float, np.floating)) and not isinstance(v, bool), f"{k} must be real")
    return float(v)

def _need_amp(p: Params, k: str) -> AmplitudeFn:
    v = p[k]
    _need(isinstance(v, AmplitudeFn), f"{k} must be an amplitude function")
    return v


def _need_unit(p: Params, k: str, dim: int) -> int:
    v = _need_int(p, k)
    _need(math.gcd(v % dim, dim) == 1, f"{k}={v} is not a unit mod {dim}")
    return v


def _units(dim: int) -> list[int]:
    return [u for u in range(1, dim) if math.gcd(u, dim) == 1]


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _ri(rng: np.random.Generator, dim: int) -> int:
    return int(rng.integers(-dim, dim + 1))


def _runit(rng: np.random.Generator, dim: int) -> int:
    us = _units(dim)
    return us[int(rng.integers(len(us)))]


def _rtheta(rng: np.random.Generator) -> float:
    return float(rng.uniform(0.0, 2.0 * math.pi))


def _rarity(rng: np.random.Generator, hi: int = 2) -> int:
    return int(rng.integers(0, hi + 1))


def _ramp(rng: np.random.Generator, dim: int) -> AmplitudeFn:
    return PhaseVec(tuple(float(x) for x in rng.uniform(0.0, 2.0 * math.pi, dim)))


# =====================================================================
# Rule builders
# =====================================================================

_SPECS: list[RuleSpec] = []


def _register(
    rule_id: str,
    params: tuple[str, ...],
    pair: PairBuilder,
    validate: Validator,
    sample: Sampler,
    nu: str = "well_tempered",
    dim_cap: int | None = None,
) -> None:
    def checked_validate(p: Params, dim: int) -> None:
        _need_keys(p, params)
        validate(p, dim)

    def checked_pair(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
        checked_validate(p, ctx.dim)
        return pair(p, ctx)

    _SPECS.append(RuleSpec(rule_id, params, nu, checked_pair, checked_validate, sample, dim_cap))


def _v_none(p: Params, dim: int) -> None:
    pass


def _s_none(dim: int, rng: np.random.Generator) -> Params:
    return {}


# ----------------------------------------------------------------- ZX


def _zx_gi(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    return _chain(ctx.dim, [Generator.green(One(), 1, 1)]), _wire(ctx.dim)


_register("ZX-GI", (), _zx_gi, _v_none, _s_none)


def _zx_ri(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    lhs = _chain(ctx.dim, [Generator.red(One(), 1, 1), Generator.red(One(), 1, 1)])
    b = DiagramBuilder(ctx.dim)
    b.wire("in", "out")
    _scale(b, _dnu4(ctx) ** 2)
    return lhs, b.build()


_register("ZX-RI", (), _zx_ri, _v_none, _s_none)


def _zx_hi(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    lhs = _chain(ctx.dim, [Generator.hplus(), Generator.hminus()])
    b = DiagramBuilder(ctx.dim)
    b.wire("in", "out")
    _scale(b, _dnu4(ctx))
    return lhs, b.build()


_register("ZX-HI", (), _zx_hi, _v_none, _s_none)


def _v_zx_gf(p: Params, dim: int) -> None:
    _need_amp(p, "Theta")
    _need_amp(p, "Phi")
    for k in ("m1", "n1", "m2", "n2"):
        _need_nat(p, k)


def _zx_gf(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    m1, n1, m2, n2 = (int(p[k]) for k in ("m1", "n1", "m2", "n2"))
    b = DiagramBuilder(ctx.dim)
    g1 = b.node(Generator.green(p["Theta"], m1, n1 + 1), "g0")
    g2 = b.node(Generator.green(p["Phi"], m2 + 1, n2), "g1")
    for _ in range(m1):
        b.wire("in", g1)
    for i in range(m2):
        b.wire("in", (g2, 1 + i))
    b.wire((g1, m1 + n1), (g2, 0))  # the fusing wire
    for j in range(n1):
        b.wire((g1, m1 + j), "out")
    for j in range(n2):
        b.wire((g2, m2 + 1 + j), "out")
    lhs = b.build()
    b2 = DiagramBuilder(ctx.dim)
    g = b2.node(Generator.green(amp_multiply(p["Theta"], p["Phi"], ctx), m1 + m2, n1 + n2), "g0")
    for _ in range(m1 + m2):
        b2.wire("in", g)
    for _ in range(n1 + n2):
        b2.wire(g, "out")
    return lhs, b2.build()


def _s_zx_gf(dim: int, rng: np.random.Generator) -> Params:
    return {
        "Theta": _ramp(rng, dim),
        "Phi": _ramp(rng, dim),
        "m1": _rarity(rng, 1),
        "n1": _rarity(rng, 1),
        "m2": _rarity(rng, 1),
        "n2": _rarity(rng, 1),
    }


_register("ZX-GF", ("Theta", "Phi", "m1", "n1", "m2", "n2"), _zx_gf, _v_zx_gf, _s_zx_gf, nu="any")


def _v_zx_gfp(p: Params, dim: int) -> None:
    _need_real(p, "theta")
    _need_real(p, "phi")


def _zx_gfp(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    th, ph = float(p["theta"]), float(p["phi"])
    lhs = _chain(ctx.dim, [Generator.green(Phase(th), 1, 1), Generator.green(Phase(ph), 1, 1)])
    rhs = _chain(ctx.dim, [Generator.green(Phase(th + ph), 1, 1)])
    return lhs, rhs


_register(
    "ZX-GFP",
    ("theta", "phi"),
    _zx_gfp,
    _v_zx_gfp,
    lambda dim, rng: {"theta": _rtheta(rng), "phi": _rtheta(rng)},
)


def _v_zx_gfs(p: Params, dim: int) -> None:
    for k in ("a1", "b1", "a2", "b2"):
        _need_int(p, k)


def _zx_gfs(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    a1, b1, a2, b2 = (int(p[k]) for k in ("a1", "b1", "a2", "b2"))
    lhs = _chain(ctx.dim, [Generator.green(Stab(a1, b1), 1, 1), Generator.green(Stab(a2, b2), 1, 1)])
    rhs = _chain(ctx.dim, [Generator.green(Stab(a1 + a2, b1 + b2), 1, 1)])
    return lhs, rhs


_register(
    "ZX-GFS",
    ("a1", "b1", "a2", "b2"),
    _zx_gfs,
    _v_zx_gfs,
    lambda dim, rng: {k: _ri(rng, dim) for k in ("a1", "b1", "a2", "b2")},
)


def _v_amp_mn(p: Params, dim: int) -> None:
    _need_amp(p, "Theta")
    _need_nat(p, "m")
    _need_nat(p, "n")


def _zx_rgc(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    m, n = int(p["m"]), int(p["n"])
    lhs = _dressed_spider(ctx.dim, Generator.red(p["Theta"], m, n), None, m, n)
    rhs = _dressed_spider(ctx.dim, Generator.green(p["Theta"], m, n), Generator.hplus(), m, n)
    return lhs, rhs


_register(
    "ZX-RGC",
    ("Theta", "m", "n"),
    _zx_rgc,
    _v_amp_mn,
    lambda dim, rng: {"Theta": _ramp(rng, dim), "m": _rarity(rng), "n": _rarity(rng)},
)


def _v_mn(p: Params, dim: int) -> None:
    _need_nat(p, "m")
    _need_nat(p, "n")


def _s_mn(dim: int, rng: np.random.Generator) -> Params:
    return {"m": _rarity(rng), "n": _rarity(rng)}


def _zx_rgb(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    m, n = int(p["m"]), int(p["n"])
    b = DiagramBuilder(ctx.dim)
    greens = [b.node(Generator.green(One(), 1, n), f"g{i}") for i in range(m)]
    reds = [b.node(Generator.red(One(), m, 1), f"r{j}") for j in range(n)]
    for g in greens:
        b.wire("in", (g, 0))
    for i, g in enumerate(greens):
        for j, r in enumerate(reds):
            b.wire((g, 1 + j), (r, i))
    for r in reds:
        b.wire((r, m), "out")
    lhs = b.build()

    b2 = DiagramBuilder(ctx.dim)
    r = b2.node(Generator.red(One(), m, 1), "r0")
    g = b2.node(Generator.green(One(), 1, n), "g0")
    for _ in range(m):
        b2.wire("in", r)
    b2.wire((r, m), (g, 0))
    for j in range(n):
        b2.wire((g, 1 + j), "out")
    _scale(b2, _dnu4(ctx) ** (n - 1))
    return lhs, b2.build()


_register("ZX-RGB", ("m", "n"), _zx_rgb, _v_mn, _s_mn)


def _v_zx_cpy(p: Params, dim: int) -> None:
    _need_int(p, "a")
    _need_nat(p, "n")


def _zx_cpy(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    a, n = int(p["a"]), int(p["n"])
    b = DiagramBuilder(ctx.dim)
    r = b.node(Generator.red(Char(a), 0, 1), "r0")
    g = b.node(Generator.green(One(), 1, n), "g0")
    b.wire(r, (g, 0))
    for j in range(n):
        b.wire((g, 1 + j), "out")
    _scale(b, _dnu4(ctx) ** (n - 1))
    lhs = b.build()
    b2 = DiagramBuilder(ctx.dim)
    for j in range(n):
        r = b2.node(Generator.red(Char(a), 0, 1), f"r{j}")
        b2.wire(r, "out")
    return lhs, b2.build()


_register(
    "ZX-CPY",
    ("a", "n"),
    _zx_cpy,
    _v_zx_cpy,
    lambda dim, rng: {"a": _ri(rng, dim), "n": _rarity(rng)},
    nu="any",
)


def _v_zx_ns(p: Params, dim: int) -> None:
    _need_real(p, "theta")
    _need_nat(p, "m")
    _need_nat(p, "n")


def _zx_ns(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    th, m, n = float(p["theta"]), int(p["m"]), int(p["n"])
    neg = Generator.red(Char(-ctx.sigma), 1, 1)
    lhs = _dressed_spider(ctx.dim, Generator.green(Phase(th), m, n), neg, m, n)
    b = DiagramBuilder(ctx.dim)
    g = b.node(Generator.green(Phase(-th), m, n), "g0")
    for _ in range(m):
        b.wire("in", g)
    for _ in range(n):
        b.wire(g, "out")
    _scale(b, cmath.exp(1j * th * ctx.sigma) * _dnu4(ctx) ** (m + n))
    return lhs, b.build()


_register(
    "ZX-NS",
    ("theta", "m", "n"),
    _zx_ns,
    _v_zx_ns,
    lambda dim, rng: {"theta": _rtheta(rng), "m": _rarity(rng), "n": _rarity(rng)},
)


def _v_zx_rs(p: Params, dim: int) -> None:
    for k in ("a", "b", "c"):
        _need_int(p, k)


def _zx_rs(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    a, bb, c = int(p["a"]), int(p["b"]), int(p["c"])
    lhs = _chain(
        ctx.dim,
        [
            Generator.green(Char(c), 1, 1),
            Generator.red(Stab(a, bb), 1, 1),
            Generator.green(Char(c), 1, 1),
        ],
    )
    b = DiagramBuilder(ctx.dim)
    r = b.node(Generator.red(Stab(a - bb * c, bb), 1, 1), "n0")
    b.wire("in", r)
    b.wire(r, "out")
    _scale(b, tau_pow(ctx, bb * c * c - 2 * a * c))
    return lhs, b.build()


_register(
    "ZX-RS",
    ("a", "b", "c"),
    _zx_rs,
    _v_zx_rs,
    lambda dim, rng: {"a": _ri(rng, dim), "b": _ri(rng, dim), "c": _ri(rng, dim)},
)


def _zx_z(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    n = int(p["n"])
    out = []
    for kind in ("green", "red"):
        b = DiagramBuilder(ctx.dim)
        g = b.node(Generator(kind, 0, n, amp=Zero()), "z0")
        for _ in range(n):
            b.wire(g, "out")
        out.append(b.build())
    return out[0], out[1]


_register(
    "ZX-Z",
    ("n",),
    _zx_z,
    lambda p, dim: (_need_nat(p, "n"), None)[1],
    lambda dim, rng: {"n": _rarity(rng, 3)},
)


def _v_zx_zcp(p: Params, dim: int) -> None:
    a = _need_int(p, "a")
    _need(a % dim != 0, f"a={a} must not be a multiple of {dim}")


def _zx_zcp(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    b = DiagramBuilder(ctx.dim)
    b.node(Generator.green(Char(int(p["a"])), 0, 0), "z0")
    b2 = DiagramBuilder(ctx.dim)
    b2.node(Generator.green(Zero(), 0, 0), "z0")
    return b.build(), b2.build()


def _s_zx_zcp(dim: int, rng: np.random.Generator) -> Params:
    while True:
        a = _ri(rng, dim)
        if a % dim != 0:
            return {"a": a}


_register("ZX-ZCP", ("a",), _zx_zcp, _v_zx_zcp, _s_zx_zcp)


def _v_zx_zsp(p: Params, dim: int) -> None:
    _need_unit(p, "u", dim)
    t = _need_int(p, "t")
    tp = _need_int(p, "tp")
    _need(1 < t < dim and dim % t == 0, f"t={t} must be a proper divisor of {dim} with 1 < t < {dim}")
    _need(1 < tp < t and t % tp == 0, f"tp={tp} must be a proper divisor of t={t} with 1 < tp < t")


def _zx_zsp(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    u, t, tp = int(p["u"]), int(p["t"]), int(p["tp"])
    b = DiagramBuilder(ctx.dim)
    b.node(Generator.green(Stab(u * tp, t), 0, 0), "z0")
    b2 = DiagramBuilder(ctx.dim)
    b2.node(Generator.green(Zero(), 0, 0), "z0")
    return b.build(), b2.build()


def _s_zx_zsp(dim: int, rng: np.random.Generator) -> Params | None:
    pairs = [
        (t, tp)
        for t in _divisors(dim)
        if 1 < t < dim
        for tp in _divisors(t)
        if 1 < tp < t
    ]
    if not pairs:
        return None
    t, tp = pairs[int(rng.integers(len(pairs)))]
    return {"u": _runit(rng, dim), "t": t, "tp": tp}


_register("ZX-ZSP", ("u", "t", "tp"), _zx_zsp, _v_zx_zsp, _s_zx_zsp)


def _v_unit_only(p: Params, dim: int) -> None:
    _need_unit(p, "u", dim)


def _s_unit_only(dim: int, rng: np.random.Generator) -> Params:
    return {"u": _runit(rng, dim)}


def _multiedge(b: DiagramBuilder, k: int, tail: bool = False) -> tuple[str, str]:
    """in -> green -(k parallel wires)-> red; red keeps one extra leg
    (wired to out unless `tail`, in which case the caller wires it)."""
    g = b.node(Generator.green(One(), 1, k), "g0")
    r = b.node(Generator.red(One(), k, 1), "r0")
    b.wire("in", (g, 0))
    for i in range(k):
        b.wire((g, 1 + i), (r, i))
    if not tail:
        b.wire((r, k), "out")
    return g, r


def _zx_mh(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    u = int(p["u"])
    b = DiagramBuilder(ctx.dim)
    _multiedge(b, u)
    _scale(b, _dnu4(ctx))
    lhs = b.build()

    ui = _uinv(u, ctx.dim)
    b2 = DiagramBuilder(ctx.dim)
    names = []
    for i, q in enumerate((u, ui, u)):
        names.append(b2.node(Generator.green(Stab(0, q), 1, 1), f"s{i}"))
        names.append(b2.node(Generator.hminus(), f"h{i}"))
    prev = "in"
    for name in names:
        b2.wire(prev, name)
        prev = name
    b2.wire(prev, "out")
    b2.node(Generator.green(Stab(0, -u), 0, 0), "gamma0")
    return lhs, b2.build()


_register("ZX-MH", ("u",), _zx_mh, _v_unit_only, _s_unit_only)


def _v_zx_me(p: Params, dim: int) -> None:
    _need_int(p, "a")
    _need_int(p, "b")
    _need_unit(p, "u", dim)


def _zx_me(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    a, bb, u = int(p["a"]), int(p["b"]), int(p["u"])
    b = DiagramBuilder(ctx.dim)
    _, r = _multiedge(b, u, tail=True)
    lolly = b.node(Generator.red(Stab(a, bb), 1, 0), "q0")
    b.wire((r, u), (lolly, 0))
    lhs = b.build()

    ui = _uinv(u, ctx.dim)
    b2 = DiagramBuilder(ctx.dim)
    lolly2 = b2.node(Generator.red(Stab(-a * ui, bb * ui * ui), 1, 0), "q0")
    b2.wire("in", lolly2)
    _scale(b2, _dnu4(ctx))
    return lhs, b2.build()


_register(
    "ZX-ME",
    ("a", "b", "u"),
    _zx_me,
    _v_zx_me,
    lambda dim, rng: {"a": _ri(rng, dim), "b": _ri(rng, dim), "u": _runit(rng, dim)},
)


def _zx_meh(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    b = DiagramBuilder(ctx.dim)
    _multiedge(b, ctx.dim)
    lhs = b.build()
    b2 = DiagramBuilder(ctx.dim)
    g = b2.node(Generator.green(One(), 1, 0), "g0")
    r = b2.node(Generator.red(One(), 0, 1), "r0")
    b2.wire("in", g)
    b2.wire(r, "out")
    return lhs, b2.build()


_register("ZX-MEH", (), _zx_meh, _v_none, _s_none, dim_cap=7)


def _zx_a(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    b = DiagramBuilder(ctx.dim)
    g = b.node(Generator.green(One(), 1, 2), "g0")
    mid = b.node(Generator.red(One(), 1, 1), "s0")
    r = b.node(Generator.red(One(), 2, 1), "r0")
    b.wire("in", (g, 0))
    b.wire((g, 1), (r, 0))
    b.wire((g, 2), (mid, 0))
    b.wire((mid, 1), (r, 1))
    b.wire((r, 2), "out")
    lhs = b.build()
    b2 = DiagramBuilder(ctx.dim)
    g2 = b2.node(Generator.green(One(), 1, 0), "g0")
    r2 = b2.node(Generator.red(One(), 0, 1), "r0")
    b2.wire("in", g2)
    b2.wire(r2, "out")
    _scale(b2, _dnu4(ctx))
    return lhs, b2.build()


_register("ZX-A", (), _zx_a, _v_none, _s_none)


def _zx_pu(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    th = float(p["theta"])
    b = DiagramBuilder(ctx.dim)
    g = b.node(Generator.green(Phase(th), 0, 1), "g0")
    r = b.node(Generator.red(One(), 1, 0), "r0")
    b.wire(g, r)
    _scale(b, 1.0 / _dnu4(ctx))
    return b.build(), _empty(ctx.dim)


_register(
    "ZX-PU",
    ("theta",),
    _zx_pu,
    lambda p, dim: (_need_real(p, "theta"), None)[1],
    lambda dim, rng: {"theta": _rtheta(rng)},
    nu="any",
)


def _v_zx_su(p: Params, dim: int) -> None:
    _need_int(p, "a")
    _need_int(p, "b")


def _zx_su(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    a, bb = int(p["a"]), int(p["b"])
    b = DiagramBuilder(ctx.dim)
    g = b.node(Generator.green(Stab(a, bb), 0, 1), "g0")
    r = b.node(Generator.red(One(), 1, 0), "r0")
    b.wire(g, r)
    _scale(b, 1.0 / _dnu4(ctx))
    return b.build(), _empty(ctx.dim)


_register(
    "ZX-SU",
    ("a", "b"),
    _zx_su,
    _v_zx_su,
    lambda dim, rng: {"a": _ri(rng, dim), "b": _ri(rng, dim)},
)


def _v_zx_gu(p: Params, dim: int) -> None:
    _need_int(p, "a")
    _need_unit(p, "u", dim)


def _zx_gu(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    a, u = int(p["a"]), int(p["u"])
    b = DiagramBuilder(ctx.dim)
    b.node(Generator.green(Stab(a, u), 0, 0), "g0")
    b.node(Generator.green(Stab(-a, -u), 0, 0), "g1")
    _scale(b, 1.0 / _dnu4(ctx))
    return b.build(), _empty(ctx.dim)


_register(
    "ZX-GU",
    ("a", "u"),
    _zx_gu,
    _v_zx_gu,
    lambda dim, rng: {"a": _ri(rng, dim), "u": _runit(rng, dim)},
)


# ----------------------------------------------------------------- ZXH


def _zxh_gw(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    m, n = int(p["m"]), int(p["n"])
    lhs = _dressed_spider(ctx.dim, Generator.green(One(), m, n), None, m, n)
    rhs = _dressed_spider(ctx.dim, Generator.white(m, n), None, m, n)
    return lhs, rhs


_register("ZXH-GW", ("m", "n"), _zxh_gw, _v_mn, _s_mn)


def _zxh_rg(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    m, n = int(p["m"]), int(p["n"])
    lhs = _dressed_spider(ctx.dim, Generator.red(One(), m, n), None, m, n)
    b = DiagramBuilder(ctx.dim)
    g = b.node(Generator.gray(m, n), "g0")
    for _ in range(m):
        b.wire("in", g)
    for _ in range(n):
        b.wire(g, "out")
    _scale(b, _dnu4(ctx))
    return lhs, b.build()


_register("ZXH-RG", ("m", "n"), _zxh_rg, _v_mn, _s_mn)


def _v_zxh_gp(p: Params, dim: int) -> None:
    _need_real(p, "theta")
    _need_nat(p, "m")
    _need_nat(p, "n")


def _zxh_gp(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    th, m, n = float(p["theta"]), int(p["m"]), int(p["n"])
    lhs = _dressed_spider(ctx.dim, Generator.green(Phase(th), m, n), None, m, n)
    b = DiagramBuilder(ctx.dim)
    w = b.node(Generator.white(m, n + 1), "w0")
    h = b.node(Generator.hbox(Phase(th), 1, 0), "h0")
    for _ in range(m):
        b.wire("in", w)
    for j in range(n):
        b.wire((w, m + j), "out")
    b.wire((w, m + n), h)
    return lhs, b.build()


_register(
    "ZXH-GP",
    ("theta", "m", "n"),
    _zxh_gp,
    _v_zxh_gp,
    lambda dim, rng: {"theta": _rtheta(rng), "m": _rarity(rng), "n": _rarity(rng)},
)


def _zxh_wh(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    b = DiagramBuilder(ctx.dim)
    g = b.node(Generator.green(p["Theta"], 0, 1), "g0")
    b.wire(g, "out")
    b2 = DiagramBuilder(ctx.dim)
    h = b2.node(Generator.hbox(p["Theta"], 0, 1), "h0")
    b2.wire(h, "out")
    return b.build(), b2.build()


_register(
    "ZXH-WH",
    ("Theta",),
    _zxh_wh,
    lambda p, dim: (_need_amp(p, "Theta"), None)[1],
    lambda dim, rng: {"Theta": _ramp(rng, dim)},
)


def _zxh_rn(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    c = int(p["c"])
    lhs = _chain(ctx.dim, [Generator.red(Char(c), 1, 1)])
    b = DiagramBuilder(ctx.dim)
    nd = b.node(Generator.not_dot(c), "n0")
    b.wire("in", nd)
    b.wire(nd, "out")
    _scale(b, _dnu4(ctx))
    return lhs, b.build()


_register(
    "ZXH-RN",
    ("c",),
    _zxh_rn,
    lambda p, dim: (_need_int(p, "c"), None)[1],
    lambda dim, rng: {"c": _ri(rng, dim)},
)


def _zxh_ra(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    lhs = _chain(ctx.dim, [Generator.red(One(), 1, 1)])
    b = DiagramBuilder(ctx.dim)
    g = b.node(Generator.gray(1, 1), "g0")
    b.wire("in", g)
    b.wire(g, "out")
    _scale(b, _dnu4(ctx))
    return lhs, b.build()


_register("ZXH-RA", (), _zxh_ra, _v_none, _s_none)


def _zxh_hp(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    return _chain(ctx.dim, [Generator.hplus()]), _chain(ctx.dim, [Generator.hbox(Char(1), 1, 1)])


_register("ZXH-HP", (), _zxh_hp, _v_none, _s_none)


def _zxh_hm(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    return _chain(ctx.dim, [Generator.hminus()]), _chain(ctx.dim, [Generator.hbox(Char(-1), 1, 1)])


_register("ZXH-HM", (), _zxh_hm, _v_none, _s_none)


def _gh_pair(amp: AmplitudeFn, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    b = DiagramBuilder(ctx.dim)
    b.node(Generator.green(amp, 0, 0), "g0")
    b2 = DiagramBuilder(ctx.dim)
    w = b2.node(Generator.white(0, 1), "w0")
    h = b2.node(Generator.hbox(amp, 1, 0), "h0")
    b2.wire(w, h)
    return b.build(), b2.build()


_register("ZXH-GH0", (), lambda p, ctx: _gh_pair(One(), ctx), _v_none, _s_none)
_register(
    "ZXH-GH",
    ("Theta",),
    lambda p, ctx: _gh_pair(p["Theta"], ctx),
    lambda p, dim: (_need_amp(p, "Theta"), None)[1],
    lambda dim, rng: {"Theta": _ramp(rng, dim)},
)


def _scalar_gadget_pair(
    amp: AmplitudeFn, c: int | None, ctx: MeasureContext
) -> tuple[Diagram, Diagram]:
    """Degree-0 gadget equality: point a char state at an amplitude cap,
    against the sharp-state form of the same evaluation."""
    b = DiagramBuilder(ctx.dim)
    r = b.node(Generator.red(One() if c is None else Char(c), 0, 1), "r0")
    g = b.node(Generator.green(amp, 1, 0), "g0")
    b.wire(r, g)
    lhs = b.build()
    b2 = DiagramBuilder(ctx.dim)
    gr = b2.node(Generator.gray(0, 1), "z0")
    h = b2.node(Generator.hbox(amp, 1, 0), "h0")
    if c is None:
        b2.wire(gr, h)
    else:
        nd = b2.node(Generator.not_dot(c), "n0")
        b2.wire(gr, nd)
        b2.wire(nd, h)
    _scale(b2, _dnu4(ctx))
    return lhs, b2.build()


_register(
    "ZXH-S0",
    ("Theta",),
    lambda p, ctx: _scalar_gadget_pair(p["Theta"], None, ctx),
    lambda p, dim: (_need_amp(p, "Theta"), None)[1],
    lambda dim, rng: {"Theta": _ramp(rng, dim)},
)


def _v_zxh_s(p: Params, dim: int) -> None:
    _need_amp(p, "Theta")
    _need_int(p, "c")


_register(
    "ZXH-S",
    ("Theta", "c"),
    lambda p, ctx: _scalar_gadget_pair(p["Theta"], int(p["c"]), ctx),
    _v_zxh_s,
    lambda dim, rng: {"Theta": _ramp(rng, dim), "c": _ri(rng, dim)},
)


# ----------------------------------------------------------------- ZH


def _zh_wi(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    return _chain(ctx.dim, [Generator.white(1, 1)]), _wire(ctx.dim)


_register("ZH-WI", (), _zh_wi, _v_none, _s_none)


def _zh_wqs(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    b = DiagramBuilder(ctx.dim)
    w1 = b.node(Generator.white(1, 2), "w0")
    w2 = b.node(Generator.white(2, 1), "w1")
    b.wire("in", (w1, 0))
    b.wire((w1, 1), (w2, 0))
    b.wire((w1, 2), (w2, 1))
    b.wire((w2, 2), "out")
    _scale(b, ctx.nu**2)
    return b.build(), _wire(ctx.dim)


_register("ZH-WQS", (), _zh_wqs, _v_none, _s_none)


def _zh_ai(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    lhs = _chain(ctx.dim, [Generator.gray(1, 1), Generator.gray(1, 1)])
    return lhs, _wire(ctx.dim)


_register("ZH-AI", (), _zh_ai, _v_none, _s_none, nu="any")


def _zh_hi(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    u = int(p["u"])
    b = DiagramBuilder(ctx.dim)
    h1 = b.node(Generator.hbox(Char(u), 1, 1), "n0")
    h2 = b.node(Generator.hbox(Char(-u), 1, 1), "n1")
    b.wire("in", h1)
    b.wire(h1, h2)
    b.wire(h2, "out")
    _scale(b, 1.0 / _dnu4(ctx))
    return b.build(), _wire(ctx.dim)


_register("ZH-HI", ("u",), _zh_hi, _v_unit_only, _s_unit_only)


def _v_zh_wf(p: Params, dim: int) -> None:
    for k in ("k", "m", "l", "n"):
        _need_nat(p, k)


def _zh_wf(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    k, m, l, n = (int(p[x]) for x in ("k", "m", "l", "n"))
    b = DiagramBuilder(ctx.dim)
    w1 = b.node(Generator.white(k, m + 1), "w0")
    w2 = b.node(Generator.white(l + 1, n), "w1")
    for _ in range(k):
        b.wire("in", w1)
    for _ in range(l):
        b.wire("in", (w2, 1 + _))
    b.wire((w1, k + m), (w2, 0))
    for j in range(m):
        b.wire((w1, k + j), "out")
    for j in range(n):
        b.wire((w2, l + 1 + j), "out")
    lhs = b.build()
    b2 = DiagramBuilder(ctx.dim)
    w = b2.node(Generator.white(k + l, m + n), "w0")
    for _ in range(k + l):
        b2.wire("in", w)
    for _ in range(m + n):
        b2.wire(w, "out")
    return lhs, b2.build()


_register(
    "ZH-WF",
    ("k", "m", "l", "n"),
    _zh_wf,
    _v_zh_wf,
    lambda dim, rng: {x: _rarity(rng, 1) for x in ("k", "m", "l", "n")},
)


def _v_umn(p: Params, dim: int) -> None:
    _need_unit(p, "u", dim)
    _need_nat(p, "m")
    _need_nat(p, "n")


def _s_umn(dim: int, rng: np.random.Generator) -> Params:
    return {"u": _runit(rng, dim), "m": _rarity(rng), "n": _rarity(rng)}


def _zh_gwc(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    u, m, n = int(p["u"]), int(p["m"]), int(p["n"])
    box = Generator.hbox(Char(u), 1, 1)
    lhs = _dressed_spider(ctx.dim, Generator.gray(m, n), box, m, n)
    b = DiagramBuilder(ctx.dim)
    w = b.node(Generator.white(m, n), "g0")
    for _ in range(m):
        b.wire("in", w)
    for _ in range(n):
        b.wire(w, "out")
    _scale(b, _dnu4(ctx) ** (m + n - 1))
    return lhs, b.build()


_register("ZH-GWC", ("u", "m", "n"), _zh_gwc, _v_umn, _s_umn)


def _v_cmn(p: Params, dim: int) -> None:
    _need_int(p, "c")
    _need_nat(p, "m")
    _need_nat(p, "n")


def _zh_wns(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    c, m, n = int(p["c"]), int(p["m"]), int(p["n"])
    lhs = _dressed_spider(ctx.dim, Generator.white(m, n), Generator.not_dot(c), m, n)
    rhs = _dressed_spider(ctx.dim, Generator.white(m, n), None, m, n)
    return lhs, rhs


_register(
    "ZH-WNS",
    ("c", "m", "n"),
    _zh_wns,
    _v_cmn,
    lambda dim, rng: {"c": _ri(rng, dim), "m": _rarity(rng), "n": _rarity(rng)},
    nu="any",
)


def _v_zh_gf(p: Params, dim: int) -> None:
    for k in ("a1", "a2", "b1", "b2"):
        _need_nat(p, k)


def _zh_gf(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    a1, a2, b1, b2 = (int(p[k]) for k in ("a1", "a2", "b1", "b2"))
    bl = DiagramBuilder(ctx.dim)
    g1 = bl.node(Generator.gray(a1, a2 + 1), "g0")
    anti = bl.node(Generator.gray(1, 1), "s0")
    g2 = bl.node(Generator.gray(b1 + 1, b2), "g1")
    for _ in range(a1):
        bl.wire("in", g1)
    for i in range(b1):
        bl.wire("in", (g2, 1 + i))
    bl.wire((g1, a1 + a2), (anti, 0))
    bl.wire((anti, 1), (g2, 0))
    for j in range(a2):
        bl.wire((g1, a1 + j), "out")
    for j in range(b2):
        bl.wire((g2, b1 + 1 + j), "out")
    lhs = bl.build()
    br = DiagramBuilder(ctx.dim)
    g = br.node(Generator.gray(a1 + b1, a2 + b2), "g0")
    for _ in range(a1 + b1):
        br.wire("in", g)
    for _ in range(a2 + b2):
        br.wire(g, "out")
    return lhs, br.build()


_register(
    "ZH-GF",
    ("a1", "a2", "b1", "b2"),
    _zh_gf,
    _v_zh_gf,
    lambda dim, rng: {k: _rarity(rng, 1) for k in ("a1", "a2", "b1", "b2")},
)


def _zh_gl(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    m, n = int(p["m"]), int(p["n"])
    b = DiagramBuilder(ctx.dim)
    g = b.node(Generator.gray(m, n + 1), "g0")
    lolly = b.node(Generator.gray(1, 0), "q0")
    for _ in range(m):
        b.wire("in", g)
    for j in range(n):
        b.wire((g, m + j), "out")
    b.wire((g, m + n), lolly)
    lhs = b.build()
    rhs = _dressed_spider(ctx.dim, Generator.gray(m, n), None, m, n)
    return lhs, rhs


_register("ZH-GL", ("m", "n"), _zh_gl, _v_mn, _s_mn)


def _zh_wgc(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    u, m, n = int(p["u"]), int(p["m"]), int(p["n"])
    box = Generator.hbox(Char(u), 1, 1)
    lhs = _dressed_spider(ctx.dim, Generator.white(m, n), box, m, n)
    b = DiagramBuilder(ctx.dim)
    g = b.node(Generator.gray(m, n), "g0")
    for _ in range(m):
        b.wire("in", g)
    for _ in range(n):
        b.wire(g, "out")
    _scale(b, _dnu4(ctx))
    return lhs, b.build()


_register("ZH-WGC", ("u", "m", "n"), _zh_wgc, _v_umn, _s_umn)


def _zh_meh(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    D = ctx.dim
    b = DiagramBuilder(D)
    w = b.node(Generator.white(1, D), "g0")
    g = b.node(Generator.gray(D, 1), "r0")
    b.wire("in", (w, 0))
    for i in range(D):
        b.wire((w, 1 + i), (g, i))
    b.wire((g, D), "out")
    lhs = b.build()
    b2 = DiagramBuilder(D)
    w2 = b2.node(Generator.white(1, 0), "g0")
    g2 = b2.node(Generator.gray(0, 1), "r0")
    b2.wire("in", w2)
    b2.wire(g2, "out")
    return lhs, b2.build()


_register("ZH-MEH", (), _zh_meh, _v_none, _s_none, dim_cap=7)


def _zh_a(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    b = DiagramBuilder(ctx.dim)
    w = b.node(Generator.white(1, 2), "g0")
    anti = b.node(Generator.gray(1, 1), "s0")
    g = b.node(Generator.gray(2, 1), "r0")
    b.wire("in", (w, 0))
    b.wire((w, 1), (g, 0))
    b.wire((w, 2), (anti, 0))
    b.wire((anti, 1), (g, 1))
    b.wire((g, 2), "out")
    lhs = b.build()
    b2 = DiagramBuilder(ctx.dim)
    w2 = b2.node(Generator.white(1, 0), "g0")
    g2 = b2.node(Generator.gray(0, 1), "r0")
    b2.wire("in", w2)
    b2.wire(g2, "out")
    return lhs, b2.build()


_register("ZH-A", (), _zh_a, _v_none, _s_none)


def _zh_wgb(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    m, n = int(p["m"]), int(p["n"])
    b = DiagramBuilder(ctx.dim)
    whites = [b.node(Generator.white(1, n), f"w{i}") for i in range(m)]
    grays = [b.node(Generator.gray(m, 1), f"g{j}") for j in range(n)]
    for w in whites:
        b.wire("in", (w, 0))
    for i, w in enumerate(whites):
        for j, g in enumerate(grays):
            b.wire((w, 1 + j), (g, i))
    for g in grays:
        b.wire((g, m), "out")
    lhs = b.build()

    b2 = DiagramBuilder(ctx.dim)
    g = b2.node(Generator.gray(m, 1), "g0")
    w = b2.node(Generator.white(1, n), "w0")
    for _ in range(m):
        b2.wire("in", g)
    b2.wire((g, m), (w, 0))
    for _ in range(n):
        b2.wire((w, 1 + _), "out")
    return lhs, b2.build()


_register("ZH-WGB", ("m", "n"), _zh_wgb, _v_mn, _s_mn, nu="any")


def _v_zh_hm(p: Params, dim: int) -> None:
    _need_amp(p, "A")
    _need_amp(p, "B")


def _zh_hm(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    b = DiagramBuilder(ctx.dim)
    ha = b.node(Generator.hbox(p["A"], 0, 1), "h0")
    hb = b.node(Generator.hbox(p["B"], 0, 1), "h1")
    w = b.node(Generator.white(2, 1), "w0")
    b.wire(ha, (w, 0))
    b.wire(hb, (w, 1))
    b.wire((w, 2), "out")
    lhs = b.build()
    b2 = DiagramBuilder(ctx.dim)
    h = b2.node(Generator.hbox(amp_multiply(p["A"], p["B"], ctx), 0, 1), "h0")
    b2.wire(h, "out")
    return lhs, b2.build()


_register(
    "ZH-HM",
    ("A", "B"),
    _zh_hm,
    _v_zh_hm,
    lambda dim, rng: {"A": _ramp(rng, dim), "B": _ramp(rng, dim)},
    nu="any",
)


def _zh_hu(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    b = DiagramBuilder(ctx.dim)
    h = b.node(Generator.hbox(Char(0), 0, 1), "h0")
    b.wire(h, "out")
    b2 = DiagramBuilder(ctx.dim)
    w = b2.node(Generator.white(0, 1), "w0")
    b2.wire(w, "out")
    return b.build(), b2.build()


_register("ZH-HU", (), _zh_hu, _v_none, _s_none)


def _v_zh_ec(p: Params, dim: int) -> None:
    v = p.get("alpha")
    _need(isinstance(v, (int, float, complex, np.complexfloating)) and complex(v) != 0, "alpha must be a nonzero complex number")
    _need_nat(p, "m")


def _zh_ec(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    alpha, m = complex(p["alpha"]), int(p["m"])
    sg = ctx.sigma
    b = DiagramBuilder(ctx.dim)
    h = b.node(Generator.hbox(UnitPow(alpha), m, 1), "h0")
    nd = b.node(Generator.not_dot(-sg), "n0")
    for _ in range(m):
        b.wire("in", h)
    b.wire((h, m), nd)
    b.wire(nd, "out")
    lhs = b.build()

    b2 = DiagramBuilder(ctx.dim)
    whites = [b2.node(Generator.white(1, 2), f"w{i}") for i in range(m)]
    hs = b2.node(Generator.hbox(UnitPow(alpha**sg if sg else 1.0 + 0j), m, 0), "h1")
    hi = b2.node(Generator.hbox(UnitPow(1.0 / alpha), m, 1), "h2")
    for w in whites:
        b2.wire("in", (w, 0))
    for i, w in enumerate(whites):
        b2.wire((w, 1), (hs, i))
        b2.wire((w, 2), (hi, i))
    b2.wire((hi, m), "out")
    return lhs, b2.build()


def _s_zh_ec(dim: int, rng: np.random.Generator) -> Params:
    mod = float(rng.uniform(0.8, 1.25))
    return {"alpha": mod * cmath.exp(1j * _rtheta(rng)), "m": _rarity(rng)}


_register("ZH-EC", ("alpha", "m"), _zh_ec, _v_zh_ec, _s_zh_ec)


def _v_zh_mf(p: Params, dim: int) -> None:
    _need_int(p, "c1")
    _need_int(p, "c2")
    _need_unit(p, "u", dim)
    for k in ("k", "l", "m", "n"):
        _need_nat(p, k)


def _zh_mf(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    c1, c2, u = int(p["c1"]), int(p["c2"]), int(p["u"])
    k, l, m, n = (int(p[x]) for x in ("k", "l", "m", "n"))
    b = DiagramBuilder(ctx.dim)
    h1 = b.node(Generator.hbox(Char(c1), k, m + 1), "h0")
    mid = b.node(Generator.hbox(Char(-u), 1, 1), "n0")
    h2 = b.node(Generator.hbox(Char(c2), l + 1, n), "h1")
    for _ in range(k):
        b.wire("in", h1)
    for _ in range(l):
        b.wire("in", (h2, 1 + _))
    b.wire((h1, k + m), (mid, 0))
    b.wire((mid, 1), (h2, 0))
    for j in range(m):
        b.wire((h1, k + j), "out")
    for j in range(n):
        b.wire((h2, l + 1 + j), "out")
    lhs = b.build()

    ui = pow(u % ctx.dim, -1, ctx.dim)
    b2 = DiagramBuilder(ctx.dim)
    h = b2.node(Generator.hbox(Char(residue(ctx, ui * c1 * c2)), k + l, m + n), "h0")
    for _ in range(k + l):
        b2.wire("in", h)
    for _ in range(m + n):
        b2.wire(h, "out")
    _scale(b2, _dnu4(ctx))
    return lhs, b2.build()


def _s_zh_mf(dim: int, rng: np.random.Generator) -> Params:
    return {
        "c1": _ri(rng, dim),
        "c2": _ri(rng, dim),
        "u": _runit(rng, dim),
        "k": _rarity(rng, 1),
        "l": _rarity(rng, 1),
        "m": _rarity(rng, 1),
        "n": _rarity(rng, 1),
    }


_register("ZH-MF", ("c1", "c2", "u", "k", "l", "m", "n"), _zh_mf, _v_zh_mf, _s_zh_mf)


def _v_zh_mca(p: Params, dim: int) -> None:
    _need_int(p, "c1")
    _need_int(p, "c2")
    _need_nat(p, "m")


def _zh_mca(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    c1, c2, m = int(p["c1"]), int(p["c2"]), int(p["m"])
    b = DiagramBuilder(ctx.dim)
    w = b.node(Generator.white(0, m + 2), "w0")
    h1 = b.node(Generator.hbox(Char(c1), 1, 0), "h0")
    h2 = b.node(Generator.hbox(Char(c2), 1, 0), "h1")
    b.wire((w, 0), h1)
    b.wire((w, 1), h2)
    for j in range(m):
        b.wire((w, 2 + j), "out")
    lhs = b.build()
    b2 = DiagramBuilder(ctx.dim)
    w2 = b2.node(Generator.white(0, m + 1), "w0")
    h = b2.node(Generator.hbox(Char(c1 + c2), 1, 0), "h0")
    b2.wire((w2, 0), h)
    for j in range(m):
        b2.wire((w2, 1 + j), "out")
    return lhs, b2.build()


_register(
    "ZH-MCA",
    ("c1", "c2", "m"),
    _zh_mca,
    _v_zh_mca,
    lambda dim, rng: {"c1": _ri(rng, dim), "c2": _ri(rng, dim), "m": _rarity(rng)},
)


def _unit_test_gadget(b: DiagramBuilder, tag: str, in_port) -> None:
    """One multiplicative-unit tester: a degree-3 box probing its input
    against a free white leg, capped by a [-1] box."""
    h = b.node(Generator.hbox(Char(1), 1, 2), f"h{tag}")
    w = b.node(Generator.white(1, 0), f"w{tag}")
    cap = b.node(Generator.hbox(Char(-1), 1, 0), f"c{tag}")
    b.wire(in_port, (h, 0))
    b.wire((h, 1), w)
    b.wire((h, 2), cap)


def _zh_um(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    b = DiagramBuilder(ctx.dim)
    _unit_test_gadget(b, "0", ("in", 0))
    _unit_test_gadget(b, "1", ("in", 1))
    lhs = b.build()

    b2 = DiagramBuilder(ctx.dim)
    h = b2.node(Generator.hbox(Char(1), 2, 2), "h0")
    w = b2.node(Generator.white(1, 0), "w0")
    cap = b2.node(Generator.hbox(Char(-1), 1, 0), "c0")
    b2.wire(("in", 0), (h, 0))
    b2.wire(("in", 1), (h, 1))
    b2.wire((h, 2), w)
    b2.wire((h, 3), cap)
    _scale(b2, _dnu4(ctx))
    return lhs, b2.build()


_register("ZH-UM", (), _zh_um, _v_none, _s_none)


def _zh_o(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    D = ctx.dim
    b = DiagramBuilder(D)
    w = b.node(Generator.white(D, 1), "w0")
    g = b.node(Generator.gray(D, 0), "g0")
    for j in range(D):
        h = b.node(Generator.hbox(Char(1), 1, 2), f"h{j}")
        nd = b.node(Generator.not_dot(j), f"n{j}")
        b.wire(("in", j), (h, 0))
        b.wire((h, 1), (nd, 0))
        b.wire((nd, 1), (w, j))
        b.wire((h, 2), (g, j))
    b.wire((w, D), ("out", 0))
    _scale(b, D * ctx.nu**2)
    lhs = b.build()

    b2 = DiagramBuilder(D)
    w2 = b2.node(Generator.white(D, 1), "w0")
    for j in range(D):
        h = b2.node(Generator.hbox(Char(1), 1, 2), f"h{j}")
        nd = b2.node(Generator.not_dot(j), f"n{j}")
        lolly = b2.node(Generator.white(1, 0), f"q{j}")
        b2.wire(("in", j), (h, 0))
        b2.wire((h, 1), (nd, 0))
        b2.wire((nd, 1), (w2, j))
        b2.wire((h, 2), lolly)
    b2.wire((w2, D), ("out", 0))
    return lhs, b2.build()


_register("ZH-O", (), _zh_o, _v_none, _s_none, dim_cap=7)


def _zh_hwb(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    u, m, n = int(p["u"]), int(p["m"]), int(p["n"])
    b = DiagramBuilder(ctx.dim)
    whites = [b.node(Generator.white(1, n), f"w{i}") for i in range(m)]
    for w in whites:
        b.wire("in", (w, 0))
    for j in range(n):
        h = b.node(Generator.hbox(Char(u), m, 1), f"h{j}")
        c = b.node(Generator.hbox(Char(-u), 1, 1), f"c{j}")
        for i, w in enumerate(whites):
            b.wire((w, 1 + j), (h, i))
        b.wire((h, m), (c, 0))
        b.wire((c, 1), ("out", j))
    lhs = b.build()

    b2 = DiagramBuilder(ctx.dim)
    h = b2.node(Generator.hbox(Char(u), m, 1), "h0")
    c = b2.node(Generator.hbox(Char(-u), 1, 1), "c0")
    w = b2.node(Generator.white(1, n), "w0")
    for _ in range(m):
        b2.wire("in", h)
    b2.wire((h, m), (c, 0))
    b2.wire((c, 1), (w, 0))
    for j in range(n):
        b2.wire((w, 1 + j), "out")
    _scale(b2, _dnu4(ctx) ** (n - 1))
    return lhs, b2.build()


_register("ZH-HWB", ("u", "m", "n"), _zh_hwb, _v_umn, _s_umn)


def _zh_hmb(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    u, m, n = int(p["u"]), int(p["m"]), int(p["n"])
    b = DiagramBuilder(ctx.dim)
    whites = [b.node(Generator.white(1, n), f"w{i}") for i in range(m)]
    boxes = [b.node(Generator.hbox(Char(u), m, 1), f"h{j}") for j in range(n)]
    for w in whites:
        b.wire("in", (w, 0))
    for i, w in enumerate(whites):
        for j, h in enumerate(boxes):
            b.wire((w, 1 + j), (h, i))
    for h in boxes:
        b.wire((h, m), "out")
    lhs = b.build()

    b2 = DiagramBuilder(ctx.dim)
    h = b2.node(Generator.hbox(Char(-u), m, 1), "h0")
    g = b2.node(Generator.gray(1, n), "g0")
    for _ in range(m):
        b2.wire("in", h)
    b2.wire((h, m), (g, 0))
    for j in range(n):
        b2.wire((g, 1 + j), "out")
    return lhs, b2.build()


_register("ZH-HMB", ("u", "m", "n"), _zh_hmb, _v_umn, _s_umn)


def _v_zh_me(p: Params, dim: int) -> None:
    _need_nat(p, "k")
    _need_unit(p, "u", dim)


def _zh_me(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    k, u = int(p["k"]), int(p["u"])
    b = DiagramBuilder(ctx.dim)
    w = b.node(Generator.white(1, k), "g0")
    g1 = b.node(Generator.gray(k, 1), "r0")
    anti = b.node(Generator.gray(1, 1), "s0")
    b.wire("in", (w, 0))
    for i in range(k):
        b.wire((w, 1 + i), (g1, i))
    b.wire((g1, k), (anti, 0))
    b.wire((anti, 1), "out")
    _scale(b, _dnu4(ctx))
    lhs = b.build()

    rhs = _chain(
        ctx.dim,
        [
            Generator.hbox(Char(residue(ctx, u * k)), 1, 1),
            Generator.hbox(Char(-u), 1, 1),
        ],
    )
    return lhs, rhs


_register(
    "ZH-ME",
    ("k", "u"),
    _zh_me,
    _v_zh_me,
    lambda dim, rng: {"k": int(rng.integers(0, dim + 2)), "u": _runit(rng, dim)},
)


def _v_zh_nd(p: Params, dim: int) -> None:
    _need_int(p, "c1")
    _need_int(p, "c2")


def _zh_nd(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    c1, c2 = int(p["c1"]), int(p["c2"])
    lhs = _chain(ctx.dim, [Generator.not_dot(c1), Generator.not_dot(c2)])
    rhs = _chain(ctx.dim, [Generator.gray(1, 1), Generator.not_dot(residue(ctx, c2 - c1))])
    return lhs, rhs


_register(
    "ZH-ND",
    ("c1", "c2"),
    _zh_nd,
    _v_zh_nd,
    lambda dim, rng: {"c1": _ri(rng, dim), "c2": _ri(rng, dim)},
)


def _v_zh_nh(p: Params, dim: int) -> None:
    _need_unit(p, "u", dim)
    _need_int(p, "c")


def _zh_nh(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    u, c = int(p["u"]), int(p["c"])
    b = DiagramBuilder(ctx.dim)
    h1 = b.node(Generator.hbox(Char(u), 1, 1), "h0")
    w = b.node(Generator.white(1, 2), "w0")
    cap = b.node(Generator.hbox(Char(c), 1, 0), "c0")
    h2 = b.node(Generator.hbox(Char(u), 1, 1), "h1")
    b.wire("in", (h1, 0))
    b.wire((h1, 1), (w, 0))
    b.wire((w, 1), cap)
    b.wire((w, 2), (h2, 0))
    b.wire((h2, 1), "out")
    lhs = b.build()

    ui = pow(u % ctx.dim, -1, ctx.dim)
    b2 = DiagramBuilder(ctx.dim)
    nd = b2.node(Generator.not_dot(residue(ctx, ui * c)), "n0")
    b2.wire("in", nd)
    b2.wire(nd, "out")
    _scale(b2, _dnu4(ctx))
    return lhs, b2.build()


_register(
    "ZH-NH",
    ("u", "c"),
    _zh_nh,
    _v_zh_nh,
    lambda dim, rng: {"u": _runit(rng, dim), "c": _ri(rng, dim)},
)


def _zh_na(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    return _chain(ctx.dim, [Generator.not_dot(0)]), _chain(ctx.dim, [Generator.gray(1, 1)])


_register("ZH-NA", (), _zh_na, _v_none, _s_none)


def _zh_dh(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    u = int(p["u"])
    lhs = _chain(ctx.dim, [Generator.hbox(Char(u), 1, 1), Generator.hbox(Char(u), 1, 1)])
    b = DiagramBuilder(ctx.dim)
    g = b.node(Generator.gray(1, 1), "g0")
    b.wire("in", g)
    b.wire(g, "out")
    _scale(b, _dnu4(ctx))
    return lhs, b.build()


_register("ZH-DH", ("u",), _zh_dh, _v_unit_only, _s_unit_only)


def _zh_zpl(p: Params, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    D = ctx.dim

    def half(shared_sink: bool) -> Diagram:
        b = DiagramBuilder(D)
        w = b.node(Generator.white(D, 1), "w0")
        sink = b.node(Generator.white(D, 0), "z0") if shared_sink else None
        for j in range(D):
            h = b.node(Generator.hbox(Char(1), 1, 2), f"h{j}")
            nd = b.node(Generator.not_dot(j), f"n{j}")
            mb = b.node(Generator.hbox(Char(-1), 1, 1), f"m{j}")
            b.wire(("in", j), (h, 0))
            b.wire((h, 1), (nd, 0))
            b.wire((nd, 1), (w, j))
            b.wire((h, 2), (mb, 0))
            if shared_sink:
                b.wire((mb, 1), (sink, j))
            else:
                lolly = b.node(Generator.gray(1, 0), f"q{j}")
                b.wire((mb, 1), lolly)
        b.wire((w, D), ("out", 0))
        if not shared_sink:
            _scale(b, ctx.nu**2)
        return b.build()

    return half(True), half(False)


_register("ZH-ZPL", (), _zh_zpl, _v_none, _s_none, dim_cap=7)


# =====================================================================
# Catalog access
# =====================================================================

CATALOG: dict[str, RuleSpec] = {spec.id: spec for spec in _SPECS}
assert len(CATALOG) == len(_SPECS), "duplicate rule id in catalog"

NU_ANY_RULES = tuple(spec.id for spec in _SPECS if spec.nu_requirement == "any")


def get_rule(rule_id: str) -> RuleSpec:
    try:
        return CATALOG[rule_id]
    except KeyError:
        raise RewriteError(f"unknown rule id {rule_id!r}") from None


def rule_ids() -> tuple[str, ...]:
    return tuple(CATALOG)


# =====================================================================
# Operations
# =====================================================================


def instantiate(
    rule: RuleSpec | str, params: Params, ctx: MeasureContext
) -> tuple[Diagram, Diagram]:
    """Both sides of a rule for one parameter assignment.

    Raises ParamError when the assignment is outside the rule's domain.
    The builders consult ctx.nu, so the returned pair always evaluates
    equal; away from the default normalization this means balancing
    scalar boxes appear.
    """
    spec = get_rule(rule) if isinstance(rule, str) else rule
    lhs, rhs = spec.build_pair(params, ctx)
    if (lhs.n_inputs, lhs.n_outputs) != (rhs.n_inputs, rhs.n_outputs):
        raise RewriteError(
            f"{spec.id}: boundary mismatch "
            f"({lhs.n_inputs}->{lhs.n_outputs} vs {rhs.n_inputs}->{rhs.n_outputs})"
        )
    return lhs, rhs


def check_soundness(
    rule: RuleSpec | str,
    params: Params,
    ctx: MeasureContext,
    tol: float = 1e-8,
) -> dict[str, Any]:
    """Evaluate both sides and compare entrywise."""
    lhs, rhs = instantiate(rule, params, ctx)
    err = max_abs_diff(evaluate(lhs, ctx), evaluate(rhs, ctx))
    return {"max_err": err, "pass": bool(err <= tol)}


def params_jsonable(params: Params) -> dict[str, Any]:
    """Report-friendly copy of a parameter assignment."""
    out: dict[str, Any] = {}
    for k, v in params.items():
        if isinstance(v, AmplitudeFn):
            out[k] = amp_to_json(v)
        elif isinstance(v, (complex, np.complexfloating)):
            out[k] = {"re": float(v.real), "im": float(v.imag)}
        elif isinstance(v, (bool, int, np.integer)):
            out[k] = int(v)
        else:
            out[k] = float(v)
    return out


def check_all(
    dims: Iterable[int],
    samples: int = 5,
    seed: int = 0,
    tol: float = 1e-8,
    nu: float | None = None,
    rules: Iterable[str] | None = None,
) -> list[dict[str, Any]]:
    """Soundness matrix: every rule, every dimension, sampled parameters.

    Rows are ordered by rule id, then dimension, then sample index.
    Rules with no valid parameters at some D (or whose diagram family
    outgrows its dimension cap) get a single "skip" row there.
    """
    dims = sorted(set(int(d) for d in dims))
    if any(d < 2 for d in dims):
        raise ValueError("dimensions must be at least 2")
    if samples < 1:
        raise ValueError("need at least one sample")
    all_ids = sorted(CATALOG)
    wanted = all_ids if rules is None else [get_rule(r).id for r in rules]
    rows: list[dict[str, Any]] = []
    for rule_id in sorted(set(wanted)):
        spec = CATALOG[rule_id]
        rule_key = all_ids.index(rule_id)
        for D in dims:
            ctx = MeasureContext(D, nu)
            if spec.dim_cap is not None and D > spec.dim_cap:
                rows.append(
                    {"rule": rule_id, "dim": D, "sample": 0, "params": {},
                     "max_err": None, "status": "skip"}
                )
                continue
            rng = np.random.default_rng([seed, rule_key, D])
            for i in range(samples):
                params = spec.sample(D, rng)
                if params is None:
                    rows.append(
                        {"rule": rule_id, "dim": D, "sample": i, "params": {},
                         "max_err": None, "status": "skip"}
                    )
                    break
                rep = check_soundness(spec, params, ctx, tol)
                rows.append(
                    {
                        "rule": rule_id,
                        "dim": D,
                        "sample": i,
                        "params": params_jsonable(params),
                        "max_err": rep["max_err"],
                        "status": "pass" if rep["pass"] else "fail",
                    }
                )
    return rows


# ---------------------------------------------------------------- application


def apply(
    d: Diagram,
    rule: RuleSpec | str,
    params: Params,
    anchor: dict[str, str],
    ctx: MeasureContext | None = None,
) -> Diagram:
    """Rewrite `d` in place of an anchored occurrence of the rule's left side.

    `anchor` maps every left-side node id to a distinct host node id.
    Kinds, labels, arities, and the left side's internal wiring must
    match exactly; the left side's boundary legs locate the cut wires
    where the right side is spliced in.  `ctx` selects the builder mode
    (default: the well-tempered context for d's dimension).
    """
    spec = get_rule(rule) if isinstance(rule, str) else rule
    if ctx is None:
        ctx = MeasureContext(d.dim)
    elif ctx.dim != d.dim:
        raise MatchError(f"context dimension {ctx.dim} != diagram dimension {d.dim}")
    lhs, rhs = instantiate(spec, params, ctx)

    # -- validate the anchor ------------------------------------------------
    missing = sorted(set(lhs.nodes) - set(anchor))
    if missing:
        raise MatchError(f"anchor is missing bindings for left-side node(s) {missing}")
    extra = sorted(set(anchor) - set(lhs.nodes))
    if extra:
        raise MatchError(f"anchor binds unknown left-side node(s) {extra}")
    host_ids = list(anchor.values())
    if len(set(host_ids)) != len(host_ids):
        raise MatchError("anchor binds two left-side nodes to the same host node")
    for lid, hid in anchor.items():
        if hid not in d.nodes:
            raise MatchError(f"host has no node named {hid!r}")
        lg, hg = lhs.nodes[lid], d.nodes[hid]
        if lg.kind != hg.kind:
            raise MatchError(f"node {hid!r} has kind {hg.kind}, rule wants {lg.kind}")
        if (lg.m, lg.n) != (hg.m, hg.n):
            raise MatchError(
                f"node {hid!r} has arity {hg.m}->{hg.n}, rule wants {lg.m}->{lg.n}"
            )
        if lg != hg:
            raise MatchError(f"node {hid!r} does not carry the rule's label/amplitude")

    host_port_edge = d.port_edges()

    def host_far(port) -> tuple:
        e = d.edges[host_port_edge[port]]
        return e[1] if e[0] == port else e[0]

    # classify left-side edges; find the hosts of internal edges and the
    # host cut points behind boundary legs
    matched_ports: set[tuple] = set()
    for lid, hid in anchor.items():
        for leg in range(lhs.nodes[lid].degree):
            matched_ports.add((hid, leg))

    internal_host_edges: set[int] = set()
    cut: dict[tuple, tuple] = {}  # lhs boundary port -> host port just outside
    for a, b in lhs.edges:
        ends = [a, b]
        node_ends = [p for p in ends if p[0] not in ("in", "out")]
        bnd_ends = [p for p in ends if p[0] in ("in", "out")]
        if not node_ends:
            raise MatchError("left side has a wire not attached to any node; cannot anchor")
        if len(node_ends) == 2:
            (na, la), (nb, lb) = node_ends
            pa, pb = (anchor[na], la), (anchor[nb], lb)
            ea = host_port_edge.get(pa)
            if ea is None or ea != host_port_edge.get(pb) or set(d.edges[ea]) != {pa, pb}:
                raise MatchError(
                    f"host is missing the rule's internal wire {pa} -- {pb}"
                )
            internal_host_edges.add(ea)
        else:
            (nn, ll) = node_ends[0]
            cut[bnd_ends[0]] = (anchor[nn], ll)

    # -- splice -------------------------------------------------------------
    rhs = rhs.with_fresh_ids("rw.")
    new_nodes = {k: v for k, v in d.nodes.items() if k not in set(anchor.values())}
    for k, v in rhs.nodes.items():
        if k in new_nodes:
            raise MatchError(f"name collision splicing replacement node {k!r}")
        new_nodes[k] = v

    # each left boundary position is a junction joining the host wire cut
    # behind it to whatever the right side plugs into that position
    cut_by_port = {hp: bp for bp, hp in cut.items()}

    def end_of(port) -> tuple:
        """Half-edge endpoint for a host port: a junction if the port
        belongs to a matched node (it must then sit behind a left-side
        boundary leg), otherwise a plain terminal."""
        if port in matched_ports:
            bp = cut_by_port.get(port)
            if bp is None:
                raise MatchError(
                    f"host wire at {port} has no counterpart on the rule's left side"
                )
            return ("J", bp)
        return ("T", port)

    def rhs_end(port) -> tuple:
        return ("J", port) if port[0] in ("in", "out") else ("T", port)

    halves = [
        (end_of(a), end_of(b))
        for idx, (a, b) in enumerate(d.edges)
        if idx not in internal_host_edges
    ]
    halves += [(rhs_end(a), rhs_end(b)) for a, b in rhs.edges]

    try:
        new_edges = _splice(halves, new_nodes, "rw.loop")
    except DiagramError as exc:
        raise MatchError(str(exc)) from exc

    out = Diagram(d.dim, new_nodes, tuple(new_edges), d.n_inputs, d.n_outputs)
    out.validate()
    return out
