"""Rule catalog and soundness checking.

Every rule is a :class:`RuleSpec`: a pair builder for its two sides and
its parameters, declared once in order, each with a :class:`Kind`:
``INT`` (any integer), ``UNIT`` (an integer prime to D), ``REAL`` (an
angle), ``AMP`` (an amplitude function) or ``NAT(hi)`` (an arity).  A
kind pairs the domain check with the draw the soundness matrix samples
from, so a rule's validator and sampler both follow from that one
declaration.  The check also parses the value, once: an ``int`` for
``INT``, ``UNIT`` and ``NAT``, a finite ``float`` for ``REAL``, the
amplitude itself for ``AMP``.  A pair builder takes the context, then each
parameter as a keyword of its declared name, already of that type.
Only ZX-ZCP and ZX-ZSP, whose domains are not a product of kinds, add a
hand-written check (on the parsed values) and draw; ZH-EC declares one
kind of its own, a nonzero complex alpha, parsed as a finite ``complex``.  Rule
ids follow the standard short names (ZX-*, ZXH-*, ZH-*).

The ZX and ZH fragments state many rules as one diagram shape over
different generators, so rule sides are built from shared shapes:
`_chain` (``DiagramBuilder.chain``, every input into a first piece, a
chain, every output from a last piece: a wire, a chain of two-leg
pieces, or a bialgebra's funnel), `_dressed_spider`,
``DiagramBuilder.multiedge`` (copy and sum joined by k parallel wires),
`_cut_wire`, `_antipode_loop`, `_joined` (two spiders fused by one
wire), `_bipartite`, `_capped` (a spider with one leg into a cap),
`_charged_copy` (both sides of ZH-MCA) and `_oracle` (ZH-O and ZH-ZPL's
D-branch diagram).  A shape with one user stays hand-wired.

Scalar bookkeeping: many rules balance only up to a closed-form scalar
(typically an integer power of D*nu^4, which is 1 at the default
normalization).  Builders compute that factor from the context and, when
it differs from 1, attach it as a degree-0 H-box named ``scale`` on the
side that needs it.  At the default normalization those boxes vanish and
the builders emit the plain figure form; at any other nu they emit the
balanced form, so both sides always evaluate equal.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, NamedTuple

import numpy as np

from quditzx.diagram import Diagram, DiagramBuilder, max_abs_diffs
from quditzx.diagram import evaluate  # noqa: F401
# Unused here, as are ``evaluate`` above and ``max_abs_diff`` below:
# bench/tracer.py patches quditzx.rewrite.gamma, quditzx.rewrite.evaluate
# and quditzx.rewrite.max_abs_diff, so the traced benchmark run fails if
# these imports go.
from quditzx.gauss import gamma  # noqa: F401
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
from quditzx.measure import MeasureContext, OverflowGuardError, dimension, residue, tau_pow
from quditzx.tensor import max_abs_diff  # noqa: F401


class RewriteError(ValueError):
    """Base for rule lookup and parameter failures."""


class ParamError(RewriteError):
    """A parameter assignment is outside the rule's domain."""


class ReportSizeError(ValueError):
    """A ``check_all`` report would hold more than ``_MAX_ROWS`` rows."""


Params = dict[str, Any]
PairBuilder = Callable[..., tuple[Diagram, Diagram]]
# A string, so that loading the module does not import numpy.random.
Sampler = Callable[[int, "np.random.Generator"], Params | None]
Validator = Callable[[Params, int], None]


# =====================================================================
# Parameter kinds
# =====================================================================


class Kind(NamedTuple):
    """What one parameter may be: `check(value, key, dim)` returns the
    value parsed (an int, a float, the amplitude itself) and raises
    ParamError outside the domain, `draw(rng, dim)` samples inside it."""

    check: Callable[[Any, str, int], Any]
    draw: Callable[["np.random.Generator", int], Any]


def _need(cond: bool, msg: str) -> None:
    if not cond:
        raise ParamError(msg)


def _need_keys(p: Params, names: tuple[str, ...]) -> None:
    missing = [k for k in names if k not in p]
    _need(not missing, f"missing parameter(s): {', '.join(missing)}")
    extra = [k for k in p if k not in names]
    _need(not extra, f"unexpected parameter(s): {', '.join(extra)}")


def _need_int(v: Any, k: str, dim: int) -> int:
    _need(isinstance(v, (int, np.integer)) and not isinstance(v, bool), f"{k} must be an integer")
    return int(v)


def _need_nat(v: Any, k: str, dim: int) -> int:
    v = _need_int(v, k, dim)
    _need(v >= 0, f"{k} must be nonnegative, got {v}")
    return v


def _need_unit(v: Any, k: str, dim: int) -> int:
    v = _need_int(v, k, dim)
    _need(math.gcd(v % dim, dim) == 1, f"{k}={v} is not a unit mod {dim}")
    return v


def _need_finite(v: Any, k: str, parse: Callable[[Any], Any]) -> Any:
    """``parse(v)``; an int past the float range, inf or NaN raises ParamError."""
    try:
        x = parse(v)
    except OverflowError:
        raise ParamError(f"{k} must be finite, got an integer of {int(v).bit_length()} bits") from None
    _need(cmath.isfinite(x), f"{k} must be finite, got {x}")
    return x


def _need_real(v: Any, k: str, dim: int) -> float:
    _need(isinstance(v, (int, float, np.floating)) and not isinstance(v, bool), f"{k} must be real")
    return _need_finite(v, k, float)


def _need_amp(v: Any, k: str, dim: int) -> AmplitudeFn:
    _need(isinstance(v, AmplitudeFn), f"{k} must be an amplitude function")
    return v


def _draw_unit(rng: np.random.Generator, dim: int) -> int:
    units = [u for u in range(1, dim) if math.gcd(u, dim) == 1]
    return units[int(rng.integers(len(units)))]


def _draw_angle(rng: np.random.Generator, dim: int) -> float:
    return float(rng.uniform(0.0, 2.0 * math.pi))


def _draw_amp(rng: np.random.Generator, dim: int) -> AmplitudeFn:
    return PhaseVec(tuple(float(x) for x in rng.uniform(0.0, 2.0 * math.pi, dim)))


INT = Kind(_need_int, lambda rng, dim: int(rng.integers(-dim, dim + 1)))
UNIT = Kind(_need_unit, _draw_unit)
REAL = Kind(_need_real, _draw_angle)
AMP = Kind(_need_amp, _draw_amp)


def NAT(hi: int | Callable[[int], int]) -> Kind:
    """A nonnegative arity, drawn from 0..hi (`hi` may be a function of D)."""
    top = hi if callable(hi) else lambda dim: hi
    return Kind(_need_nat, lambda rng, dim: int(rng.integers(0, top(dim) + 1)))


# =====================================================================
# Rules
# =====================================================================


@dataclass(frozen=True)
class RuleSpec:
    """One rewrite rule: both sides, parameter kinds, domain, and sampling.

    `build(ctx, **parsed)` makes both sides of a valid assignment, each
    parameter a keyword named as declared and typed as its kind parses
    it (`instantiate` validates first).  `validate` checks the key set
    against `params`, then parses each value by its kind in declaration
    order, then runs the rule's own cross-parameter `check`, if it has
    one, on the parsed assignment, which it returns.  `sample` draws
    each value by its kind in the same order, unless the rule brings its
    own `draw`; None means the rule has no valid parameters at that D.
    Reports print the drawn values, not the parsed ones.  `dim_cap`
    marks rules whose sides have D+1 boundary legs, so their tensors
    grow as D^(D+1); the checker skips larger dimensions.
    """

    id: str
    params: tuple[str, ...]
    kinds: tuple[Kind, ...]
    nu_requirement: str  # "any" | "well_tempered"
    build: PairBuilder
    check: Validator | None = None
    draw: Sampler | None = None
    dim_cap: int | None = None

    def validate(self, params: Params, dim: int) -> Params:
        _need_keys(params, self.params)
        parsed = {k: kind.check(params[k], k, dim) for k, kind in zip(self.params, self.kinds)}
        if self.check is not None:
            self.check(parsed, dim)
        return parsed

    def sample(self, dim: int, rng: np.random.Generator) -> Params | None:
        if self.draw is not None:
            return self.draw(dim, rng)
        return {k: kind.draw(rng, dim) for k, kind in zip(self.params, self.kinds)}


CATALOG: dict[str, RuleSpec] = {}


def _rule(
    rule_id: str,
    kinds: dict[str, Kind],
    nu: str = "well_tempered",
    dim_cap: int | None = None,
    check: Validator | None = None,
    draw: Sampler | None = None,
) -> Callable[[PairBuilder], PairBuilder]:
    """Register the decorated pair builder in `CATALOG` as rule `rule_id`
    whose parameters, in order, are the keys of `kinds`; an id already
    there raises ``RewriteError``."""

    def register(pair: PairBuilder) -> PairBuilder:
        if rule_id in CATALOG:
            raise RewriteError(f"duplicate rule id {rule_id!r} in catalog")
        CATALOG[rule_id] = RuleSpec(rule_id, tuple(kinds), tuple(kinds.values()), nu, pair, check, draw, dim_cap)
        return pair

    return register


# =====================================================================
# Small construction helpers
# =====================================================================


def _empty(dim: int) -> Diagram:
    return DiagramBuilder(dim).build()


def _scale(b: DiagramBuilder, value: complex) -> None:
    """Attach the closed-form balancing scalar when it is not 1; one that is 0 or not finite is refused."""
    value = complex(value)
    if value == 0 or not cmath.isfinite(value):
        raise OverflowGuardError(f"the balancing scalar {value} leaves the float range")
    if abs(value - 1.0) > 1e-12:
        b.node(Generator.hbox(UnitPow(value), 0, 0), "scale")


def _dnu4(ctx: MeasureContext) -> float:
    value = ctx.dim * ctx.nu**4
    if not 0 < value < math.inf:
        raise OverflowGuardError(f"D * nu^4 = {value} leaves the float range")
    return value


def _chain(
    dim: int, gens: list[Generator], scale: complex = 1.0, names: Iterable[str] | None = None
) -> Diagram:
    """``DiagramBuilder.chain`` with the balancing scalar.  Pieces are
    n0, n1, ... unless `names` says otherwise."""
    b = DiagramBuilder(dim)
    b.chain(gens, names or [f"n{i}" for i in range(len(gens))])
    _scale(b, scale)
    return b.build()


def _dressed_spider(
    dim: int,
    core: Generator,
    dress: Generator | None = None,
    scale: complex = 1.0,
    name: str = "g0",
) -> Diagram:
    """core on core.m inputs and core.n outputs, with an optional two-leg
    piece on every boundary leg and the balancing scalar."""
    b = DiagramBuilder(dim)
    g = b.node(core, name)
    for i in range(core.m):
        if dress is None:
            b.wire("in", g)
        else:
            d = b.node(dress, f"di{i}")
            b.wire("in", d)
            b.wire(d, g)
    for j in range(core.n):
        if dress is None:
            b.wire(g, "out")
        else:
            d = b.node(dress, f"do{j}")
            b.wire(g, d)
            b.wire(d, "out")
    _scale(b, scale)
    return b.build()


def _uinv(u: int, dim: int) -> int:
    """Inverse of a unit, taken mod 2D for even D so quadratic-label
    arithmetic stays exact, mod D otherwise."""
    mod = 2 * dim if dim % 2 == 0 else dim
    return pow(u % mod, -1, mod)


# =====================================================================
# Shared diagram shapes
# =====================================================================
#
# A copy dot is a ZX green or a ZH white and a sum dot a ZX red or a ZH
# gray, so each builder takes its generators as arguments.  `_joined`,
# `_bipartite` and `_capped` name a spider by its kind's initial and an
# index; the rest use fixed ids.


def _green(m: int, n: int) -> Generator:
    return Generator.green(One(), m, n)


def _red(m: int, n: int) -> Generator:
    return Generator.red(One(), m, n)


def _cut_wire(dim: int, effect: Generator, state: Generator, scale: complex = 1.0) -> Diagram:
    """The input into a one-leg `effect`, a one-leg `state` onto the output."""
    b = DiagramBuilder(dim)
    b.wire("in", b.node(effect, "g0"))
    b.wire(b.node(state, "r0"), "out")
    _scale(b, scale)
    return b.build()


def _antipode_loop(dim: int, copy: Generator, anti: Generator, total: Generator) -> Diagram:
    """in -> copy (1 -> 2); one branch straight, the other through the
    two-leg `anti`, both into total (2 -> 1) -> out."""
    b = DiagramBuilder(dim)
    g = b.node(copy, "g0")
    mid = b.node(anti, "s0")
    r = b.node(total, "r0")
    b.wire("in", (g, 0))
    b.wire((g, 1), (r, 0))
    b.wire((g, 2), (mid, 0))
    b.wire((mid, 1), (r, 1))
    b.wire((r, 2), "out")
    return b.build()


def _joined(
    dim: int, first: Generator, second: Generator, mid: tuple[str, Generator] | None = None
) -> Diagram:
    """`first`'s last leg wired to `second`'s leg 0, through the two-leg
    `mid` (id, generator) if given; every other leg on the boundary."""
    m1, n1, m2, n2 = first.m, first.n - 1, second.m - 1, second.n
    b = DiagramBuilder(dim)
    g1 = b.node(first, f"{first.kind[0]}0")
    link = b.node(mid[1], mid[0]) if mid else None
    g2 = b.node(second, f"{second.kind[0]}1")
    for _ in range(m1):
        b.wire("in", g1)
    for i in range(m2):
        b.wire("in", (g2, 1 + i))
    if link is None:
        b.wire((g1, m1 + n1), (g2, 0))
    else:
        b.wire((g1, m1 + n1), (link, 0))
        b.wire((link, 1), (g2, 0))
    for j in range(n1):
        b.wire((g1, m1 + j), "out")
    for j in range(n2):
        b.wire((g2, m2 + 1 + j), "out")
    return b.build()


def _bipartite(dim: int, top: Generator, bottom: Generator) -> Diagram:
    """m copies of `top` (1 -> n) over n copies of `bottom` (m -> 1),
    every top wired to every bottom."""
    m, n = bottom.m, top.n
    b = DiagramBuilder(dim)
    tops = [b.node(top, f"{top.kind[0]}{i}") for i in range(m)]
    bottoms = [b.node(bottom, f"{bottom.kind[0]}{j}") for j in range(n)]
    for t in tops:
        b.wire("in", (t, 0))
    for i, t in enumerate(tops):
        for j, s in enumerate(bottoms):
            b.wire((t, 1 + j), (s, i))
    for s in bottoms:
        b.wire((s, m), "out")
    return b.build()


def _capped(dim: int, spider: Generator, cap: Generator, cap_id: str) -> Diagram:
    """`spider` (m -> n+1) on the boundary, its last leg into a one-leg `cap`."""
    b = DiagramBuilder(dim)
    g = b.node(spider, f"{spider.kind[0]}0")
    c = b.node(cap, cap_id)
    for _ in range(spider.m):
        b.wire("in", g)
    for _ in range(spider.n - 1):
        b.wire(g, "out")
    b.wire(g, c)
    return b.build()


def _oracle(
    dim: int, mid: Generator | None, end: Generator | tuple[str, Generator], scale: complex = 1.0
) -> Diagram:
    """D branches j: (in, j) -> [1] box h{j} -> not-dot n{j} -> leg j of
    white(D, 1) -> out.  Each box's third leg runs through `mid` (m{j})
    when given, into `end`: one shared D-leg sink given as (id,
    generator), or a one-leg cap q{j} per branch."""
    b = DiagramBuilder(dim)
    w = b.node(Generator.white(dim, 1), "w0")
    sink = b.node(end[1], end[0]) if isinstance(end, tuple) else None
    for j in range(dim):
        h = b.node(Generator.hbox(Char(1), 1, 2), f"h{j}")
        nd = b.node(Generator.not_dot(j), f"n{j}")
        b.wire(("in", j), (h, 0))
        b.wire((h, 1), (nd, 0))
        b.wire((nd, 1), (w, j))
        leg = (h, 2)
        if mid is not None:
            mb = b.node(mid, f"m{j}")
            b.wire(leg, (mb, 0))
            leg = (mb, 1)
        if sink is None:
            b.wire(leg, b.node(end, f"q{j}"))
        else:
            b.wire(leg, (sink, j))
    b.wire((w, dim), ("out", 0))
    _scale(b, scale)
    return b.build()


# ----------------------------------------------------------------- ZX


@_rule("ZX-GI", {})
def _zx_gi(ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    return _chain(ctx.dim, [Generator.green(One(), 1, 1)]), _chain(ctx.dim, [])


@_rule("ZX-RI", {})
def _zx_ri(ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    lhs = _chain(ctx.dim, [Generator.red(One(), 1, 1), Generator.red(One(), 1, 1)])
    return lhs, _chain(ctx.dim, [], _dnu4(ctx) ** 2)


@_rule("ZX-HI", {})
def _zx_hi(ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    lhs = _chain(ctx.dim, [Generator.hplus(), Generator.hminus()])
    return lhs, _chain(ctx.dim, [], _dnu4(ctx))


@_rule(
    "ZX-GF",
    {"Theta": AMP, "Phi": AMP, "m1": NAT(1), "n1": NAT(1), "m2": NAT(1), "n2": NAT(1)},
    nu="any",
)
def _zx_gf(
    ctx: MeasureContext, Theta: AmplitudeFn, Phi: AmplitudeFn, m1: int, n1: int, m2: int, n2: int
) -> tuple[Diagram, Diagram]:
    g1 = Generator.green(Theta, m1, n1 + 1)
    g2 = Generator.green(Phi, m2 + 1, n2)
    fused = Generator.green(amp_multiply(Theta, Phi, ctx), m1 + m2, n1 + n2)
    return _joined(ctx.dim, g1, g2), _dressed_spider(ctx.dim, fused)


@_rule("ZX-GFP", {"theta": REAL, "phi": REAL})
def _zx_gfp(ctx: MeasureContext, theta: float, phi: float) -> tuple[Diagram, Diagram]:
    lhs = _chain(ctx.dim, [Generator.green(Phase(theta), 1, 1), Generator.green(Phase(phi), 1, 1)])
    rhs = _chain(ctx.dim, [Generator.green(Phase(theta + phi), 1, 1)])
    return lhs, rhs


@_rule("ZX-GFS", {"a1": INT, "b1": INT, "a2": INT, "b2": INT})
def _zx_gfs(ctx: MeasureContext, a1: int, b1: int, a2: int, b2: int) -> tuple[Diagram, Diagram]:
    lhs = _chain(ctx.dim, [Generator.green(Stab(a1, b1), 1, 1), Generator.green(Stab(a2, b2), 1, 1)])
    rhs = _chain(ctx.dim, [Generator.green(Stab(a1 + a2, b1 + b2), 1, 1)])
    return lhs, rhs


@_rule("ZX-RGC", {"Theta": AMP, "m": NAT(2), "n": NAT(2)})
def _zx_rgc(ctx: MeasureContext, Theta: AmplitudeFn, m: int, n: int) -> tuple[Diagram, Diagram]:
    lhs = _dressed_spider(ctx.dim, Generator.red(Theta, m, n))
    rhs = _dressed_spider(ctx.dim, Generator.green(Theta, m, n), Generator.hplus())
    return lhs, rhs


@_rule("ZX-RGB", {"m": NAT(2), "n": NAT(2)})
def _zx_rgb(ctx: MeasureContext, m: int, n: int) -> tuple[Diagram, Diagram]:
    lhs = _bipartite(ctx.dim, _green(1, n), _red(m, 1))
    return lhs, _chain(ctx.dim, [_red(m, 1), _green(1, n)], _dnu4(ctx) ** (n - 1), ("r0", "g0"))


@_rule("ZX-CPY", {"a": INT, "n": NAT(2)}, nu="any")
def _zx_cpy(ctx: MeasureContext, a: int, n: int) -> tuple[Diagram, Diagram]:
    copied = [Generator.red(Char(a), 0, 1), _green(1, n)]
    lhs = _chain(ctx.dim, copied, _dnu4(ctx) ** (n - 1), ("r0", "g0"))
    b2 = DiagramBuilder(ctx.dim)
    for j in range(n):
        r = b2.node(Generator.red(Char(a), 0, 1), f"r{j}")
        b2.wire(r, "out")
    return lhs, b2.build()


@_rule("ZX-NS", {"theta": REAL, "m": NAT(2), "n": NAT(2)})
def _zx_ns(ctx: MeasureContext, theta: float, m: int, n: int) -> tuple[Diagram, Diagram]:
    neg = Generator.red(Char(-ctx.sigma), 1, 1)
    lhs = _dressed_spider(ctx.dim, Generator.green(Phase(theta), m, n), neg)
    scale = cmath.exp(1j * theta * ctx.sigma) * _dnu4(ctx) ** (m + n)
    return lhs, _dressed_spider(ctx.dim, Generator.green(Phase(-theta), m, n), scale=scale)


@_rule("ZX-RS", {"a": INT, "b": INT, "c": INT})
def _zx_rs(ctx: MeasureContext, a: int, b: int, c: int) -> tuple[Diagram, Diagram]:
    lhs = _chain(
        ctx.dim,
        [
            Generator.green(Char(c), 1, 1),
            Generator.red(Stab(a, b), 1, 1),
            Generator.green(Char(c), 1, 1),
        ],
    )
    rhs = _chain(ctx.dim, [Generator.red(Stab(a - b * c, b), 1, 1)], tau_pow(ctx, b * c * c - 2 * a * c))
    return lhs, rhs


@_rule("ZX-Z", {"n": NAT(3)})
def _zx_z(ctx: MeasureContext, n: int) -> tuple[Diagram, Diagram]:
    green, red = (
        _dressed_spider(ctx.dim, Generator(kind, 0, n, amp=Zero()), name="z0")
        for kind in ("green", "red")
    )
    return green, red


def _zx_zcp_check(p: Params, dim: int) -> None:
    a = p["a"]
    _need(a % dim != 0, f"a={a} must not be a multiple of {dim}")


def _zx_zcp_draw(dim: int, rng: np.random.Generator) -> Params:
    while True:
        a = INT.draw(rng, dim)
        if a % dim != 0:
            return {"a": a}


@_rule("ZX-ZCP", {"a": INT}, check=_zx_zcp_check, draw=_zx_zcp_draw)
def _zx_zcp(ctx: MeasureContext, a: int) -> tuple[Diagram, Diagram]:
    lhs = _dressed_spider(ctx.dim, Generator.green(Char(a), 0, 0), name="z0")
    return lhs, _dressed_spider(ctx.dim, Generator.green(Zero(), 0, 0), name="z0")


def _zx_zsp_error(t: int, tp: int, dim: int) -> str | None:
    """Why (t, tp) is outside ZX-ZSP's domain at D, or None.  The scalar
    green [u*tp | t] is 0 on the divisor tower except where t == 2*tp
    and D/t is odd; there it has modulus sqrt(t)."""
    if not (1 < t < dim and dim % t == 0):
        return f"t={t} must be a proper divisor of {dim} with 1 < t < {dim}"
    if not (1 < tp < t and t % tp == 0):
        return f"tp={tp} must be a proper divisor of t={t} with 1 < tp < t"
    if t == 2 * tp and (dim // t) % 2 == 1:
        return f"t={t} = 2*tp with {dim}/t odd leaves the left side nonzero"
    return None


def _zx_zsp_check(p: Params, dim: int) -> None:
    err = _zx_zsp_error(p["t"], p["tp"], dim)
    if err is not None:
        raise ParamError(err)


def _zx_zsp_pairs(dim: int) -> list[tuple[int, int]]:
    """Every (t, tp) in ZX-ZSP's domain at D, by t, then tp, ascending.

    t divides D and tp divides t, so both run over the divisors of D:
    d(D)^2 pairs to test, not D^2.
    """
    divisors = [t for t in range(2, dim) if dim % t == 0]
    return [(t, tp) for t in divisors for tp in divisors if _zx_zsp_error(t, tp, dim) is None]


def _zx_zsp_draw(dim: int, rng: np.random.Generator) -> Params | None:
    pairs = _zx_zsp_pairs(dim)
    if not pairs:
        return None
    t, tp = pairs[int(rng.integers(len(pairs)))]
    return {"u": UNIT.draw(rng, dim), "t": t, "tp": tp}


@_rule("ZX-ZSP", {"u": UNIT, "t": INT, "tp": INT}, check=_zx_zsp_check, draw=_zx_zsp_draw)
def _zx_zsp(ctx: MeasureContext, u: int, t: int, tp: int) -> tuple[Diagram, Diagram]:
    lhs = _dressed_spider(ctx.dim, Generator.green(Stab(u * tp, t), 0, 0), name="z0")
    return lhs, _dressed_spider(ctx.dim, Generator.green(Zero(), 0, 0), name="z0")


@_rule("ZX-MH", {"u": UNIT})
def _zx_mh(ctx: MeasureContext, u: int) -> tuple[Diagram, Diagram]:
    b = DiagramBuilder(ctx.dim)
    b.multiedge(_green(1, u), _red(u, 1), ("g0", "r0"))
    _scale(b, _dnu4(ctx))
    lhs = b.build()

    ui = _uinv(u, ctx.dim)
    b2 = DiagramBuilder(ctx.dim)
    pieces, names = [], []
    for i, q in enumerate((u, ui, u)):
        pieces += [Generator.green(Stab(0, q), 1, 1), Generator.hminus()]
        names += [f"s{i}", f"h{i}"]
    b2.chain(pieces, names)
    b2.node(Generator.green(Stab(0, -u), 0, 0), "gamma0")
    return lhs, b2.build()


@_rule("ZX-ME", {"a": INT, "b": INT, "u": UNIT})
def _zx_me(ctx: MeasureContext, a: int, b: int, u: int) -> tuple[Diagram, Diagram]:
    bd = DiagramBuilder(ctx.dim)
    r = bd.multiedge(_green(1, u), _red(u, 1), ("g0", "r0"), tail=True)
    lolly = bd.node(Generator.red(Stab(a, b), 1, 0), "q0")
    bd.wire((r, u), (lolly, 0))
    lhs = bd.build()

    ui = _uinv(u, ctx.dim)
    lolly2 = Generator.red(Stab(-a * ui, b * ui * ui), 1, 0)
    return lhs, _dressed_spider(ctx.dim, lolly2, scale=_dnu4(ctx), name="q0")


def _meh_pair(
    copy: Callable[[int, int], Generator],
    total: Callable[[int, int], Generator],
    ctx: MeasureContext,
) -> tuple[Diagram, Diagram]:
    """D parallel wires between a copy and a sum dot cut the wire."""
    b = DiagramBuilder(ctx.dim)
    b.multiedge(copy(1, ctx.dim), total(ctx.dim, 1), ("g0", "r0"))
    return b.build(), _cut_wire(ctx.dim, copy(1, 0), total(0, 1))


_rule("ZX-MEH", {})(lambda ctx: _meh_pair(_green, _red, ctx))


@_rule("ZX-A", {})
def _zx_a(ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    lhs = _antipode_loop(ctx.dim, _green(1, 2), _red(1, 1), _red(2, 1))
    return lhs, _cut_wire(ctx.dim, _green(1, 0), _red(0, 1), _dnu4(ctx))


def _unit_pair(amp: AmplitudeFn, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    """A green state with amplitude `amp` into the red unit effect."""
    lhs = _chain(ctx.dim, [Generator.green(amp, 0, 1), _red(1, 0)], 1.0 / _dnu4(ctx), ("g0", "r0"))
    return lhs, _empty(ctx.dim)


_rule("ZX-PU", {"theta": REAL}, nu="any")(lambda ctx, theta: _unit_pair(Phase(theta), ctx))
_rule("ZX-SU", {"a": INT, "b": INT})(lambda ctx, a, b: _unit_pair(Stab(a, b), ctx))


@_rule("ZX-GU", {"a": INT, "u": UNIT})
def _zx_gu(ctx: MeasureContext, a: int, u: int) -> tuple[Diagram, Diagram]:
    b = DiagramBuilder(ctx.dim)
    b.node(Generator.green(Stab(a, u), 0, 0), "g0")
    b.node(Generator.green(Stab(-a, -u), 0, 0), "g1")
    _scale(b, 1.0 / _dnu4(ctx))
    return b.build(), _empty(ctx.dim)


# ----------------------------------------------------------------- ZXH


@_rule("ZXH-GW", {"m": NAT(2), "n": NAT(2)})
def _zxh_gw(ctx: MeasureContext, m: int, n: int) -> tuple[Diagram, Diagram]:
    lhs = _dressed_spider(ctx.dim, Generator.green(One(), m, n))
    return lhs, _dressed_spider(ctx.dim, Generator.white(m, n))


@_rule("ZXH-RG", {"m": NAT(2), "n": NAT(2)})
def _zxh_rg(ctx: MeasureContext, m: int, n: int) -> tuple[Diagram, Diagram]:
    lhs = _dressed_spider(ctx.dim, Generator.red(One(), m, n))
    return lhs, _dressed_spider(ctx.dim, Generator.gray(m, n), scale=_dnu4(ctx))


@_rule("ZXH-GP", {"theta": REAL, "m": NAT(2), "n": NAT(2)})
def _zxh_gp(ctx: MeasureContext, theta: float, m: int, n: int) -> tuple[Diagram, Diagram]:
    lhs = _dressed_spider(ctx.dim, Generator.green(Phase(theta), m, n))
    return lhs, _capped(ctx.dim, Generator.white(m, n + 1), Generator.hbox(Phase(theta), 1, 0), "h0")


@_rule("ZXH-WH", {"Theta": AMP})
def _zxh_wh(ctx: MeasureContext, Theta: AmplitudeFn) -> tuple[Diagram, Diagram]:
    lhs = _dressed_spider(ctx.dim, Generator.green(Theta, 0, 1))
    return lhs, _dressed_spider(ctx.dim, Generator.hbox(Theta, 0, 1), name="h0")


@_rule("ZXH-RN", {"c": INT})
def _zxh_rn(ctx: MeasureContext, c: int) -> tuple[Diagram, Diagram]:
    lhs = _chain(ctx.dim, [Generator.red(Char(c), 1, 1)])
    return lhs, _chain(ctx.dim, [Generator.not_dot(c)], _dnu4(ctx))


@_rule("ZXH-RA", {})
def _zxh_ra(ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    lhs = _chain(ctx.dim, [Generator.red(One(), 1, 1)])
    return lhs, _dressed_spider(ctx.dim, Generator.gray(1, 1), scale=_dnu4(ctx))


@_rule("ZXH-HP", {})
def _zxh_hp(ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    return _chain(ctx.dim, [Generator.hplus()]), _chain(ctx.dim, [Generator.hbox(Char(1), 1, 1)])


@_rule("ZXH-HM", {})
def _zxh_hm(ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    return _chain(ctx.dim, [Generator.hminus()]), _chain(ctx.dim, [Generator.hbox(Char(-1), 1, 1)])


def _gh_pair(amp: AmplitudeFn, ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    rhs = _chain(ctx.dim, [Generator.white(0, 1), Generator.hbox(amp, 1, 0)], names=("w0", "h0"))
    return _dressed_spider(ctx.dim, Generator.green(amp, 0, 0)), rhs


_rule("ZXH-GH0", {})(lambda ctx: _gh_pair(One(), ctx))
_rule("ZXH-GH", {"Theta": AMP})(lambda ctx, Theta: _gh_pair(Theta, ctx))


def _scalar_gadget_pair(
    amp: AmplitudeFn, c: int | None, ctx: MeasureContext
) -> tuple[Diagram, Diagram]:
    """Degree-0 gadget equality: point a char state at an amplitude cap,
    against the sharp-state form of the same evaluation."""
    state = Generator.red(One() if c is None else Char(c), 0, 1)
    lhs = _chain(ctx.dim, [state, Generator.green(amp, 1, 0)], names=("r0", "g0"))
    b = DiagramBuilder(ctx.dim)
    gr = b.node(Generator.gray(0, 1), "z0")
    h = b.node(Generator.hbox(amp, 1, 0), "h0")
    if c is None:
        b.wire(gr, h)
    else:
        nd = b.node(Generator.not_dot(c), "n0")
        b.wire(gr, nd)
        b.wire(nd, h)
    _scale(b, _dnu4(ctx))
    return lhs, b.build()


_rule("ZXH-S0", {"Theta": AMP})(lambda ctx, Theta: _scalar_gadget_pair(Theta, None, ctx))
_rule("ZXH-S", {"Theta": AMP, "c": INT})(lambda ctx, Theta, c: _scalar_gadget_pair(Theta, c, ctx))


# ----------------------------------------------------------------- ZH


@_rule("ZH-WI", {})
def _zh_wi(ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    return _chain(ctx.dim, [Generator.white(1, 1)]), _chain(ctx.dim, [])


@_rule("ZH-WQS", {})
def _zh_wqs(ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    b = DiagramBuilder(ctx.dim)
    b.multiedge(Generator.white(1, 2), Generator.white(2, 1), ("w0", "w1"))
    _scale(b, ctx.nu**2)
    return b.build(), _chain(ctx.dim, [])


@_rule("ZH-AI", {}, nu="any")
def _zh_ai(ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    lhs = _chain(ctx.dim, [Generator.gray(1, 1), Generator.gray(1, 1)])
    return lhs, _chain(ctx.dim, [])


@_rule("ZH-HI", {"u": UNIT})
def _zh_hi(ctx: MeasureContext, u: int) -> tuple[Diagram, Diagram]:
    boxes = [Generator.hbox(Char(u), 1, 1), Generator.hbox(Char(-u), 1, 1)]
    return _chain(ctx.dim, boxes, 1.0 / _dnu4(ctx)), _chain(ctx.dim, [])


@_rule("ZH-WF", {"k": NAT(1), "m": NAT(1), "l": NAT(1), "n": NAT(1)})
def _zh_wf(ctx: MeasureContext, k: int, m: int, l: int, n: int) -> tuple[Diagram, Diagram]:
    lhs = _joined(ctx.dim, Generator.white(k, m + 1), Generator.white(l + 1, n))
    return lhs, _dressed_spider(ctx.dim, Generator.white(k + l, m + n), name="w0")


@_rule("ZH-GWC", {"u": UNIT, "m": NAT(2), "n": NAT(2)})
def _zh_gwc(ctx: MeasureContext, u: int, m: int, n: int) -> tuple[Diagram, Diagram]:
    box = Generator.hbox(Char(u), 1, 1)
    lhs = _dressed_spider(ctx.dim, Generator.gray(m, n), box)
    return lhs, _dressed_spider(ctx.dim, Generator.white(m, n), scale=_dnu4(ctx) ** (m + n - 1))


@_rule("ZH-WNS", {"c": INT, "m": NAT(2), "n": NAT(2)}, nu="any")
def _zh_wns(ctx: MeasureContext, c: int, m: int, n: int) -> tuple[Diagram, Diagram]:
    lhs = _dressed_spider(ctx.dim, Generator.white(m, n), Generator.not_dot(c))
    return lhs, _dressed_spider(ctx.dim, Generator.white(m, n))


@_rule("ZH-GF", {"a1": NAT(1), "a2": NAT(1), "b1": NAT(1), "b2": NAT(1)})
def _zh_gf(ctx: MeasureContext, a1: int, a2: int, b1: int, b2: int) -> tuple[Diagram, Diagram]:
    anti = ("s0", Generator.gray(1, 1))
    lhs = _joined(ctx.dim, Generator.gray(a1, a2 + 1), Generator.gray(b1 + 1, b2), anti)
    return lhs, _dressed_spider(ctx.dim, Generator.gray(a1 + b1, a2 + b2))


@_rule("ZH-GL", {"m": NAT(2), "n": NAT(2)})
def _zh_gl(ctx: MeasureContext, m: int, n: int) -> tuple[Diagram, Diagram]:
    lhs = _capped(ctx.dim, Generator.gray(m, n + 1), Generator.gray(1, 0), "q0")
    return lhs, _dressed_spider(ctx.dim, Generator.gray(m, n))


@_rule("ZH-WGC", {"u": UNIT, "m": NAT(2), "n": NAT(2)})
def _zh_wgc(ctx: MeasureContext, u: int, m: int, n: int) -> tuple[Diagram, Diagram]:
    box = Generator.hbox(Char(u), 1, 1)
    lhs = _dressed_spider(ctx.dim, Generator.white(m, n), box)
    return lhs, _dressed_spider(ctx.dim, Generator.gray(m, n), scale=_dnu4(ctx))


_rule("ZH-MEH", {})(lambda ctx: _meh_pair(Generator.white, Generator.gray, ctx))


@_rule("ZH-A", {})
def _zh_a(ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    lhs = _antipode_loop(ctx.dim, Generator.white(1, 2), Generator.gray(1, 1), Generator.gray(2, 1))
    return lhs, _cut_wire(ctx.dim, Generator.white(1, 0), Generator.gray(0, 1))


@_rule("ZH-WGB", {"m": NAT(2), "n": NAT(2)}, nu="any")
def _zh_wgb(ctx: MeasureContext, m: int, n: int) -> tuple[Diagram, Diagram]:
    lhs = _bipartite(ctx.dim, Generator.white(1, n), Generator.gray(m, 1))
    return lhs, _chain(ctx.dim, [Generator.gray(m, 1), Generator.white(1, n)], names=("g0", "w0"))


@_rule("ZH-HM", {"A": AMP, "B": AMP}, nu="any")
def _zh_hm(ctx: MeasureContext, A: AmplitudeFn, B: AmplitudeFn) -> tuple[Diagram, Diagram]:
    b = DiagramBuilder(ctx.dim)
    ha = b.node(Generator.hbox(A, 0, 1), "h0")
    hb = b.node(Generator.hbox(B, 0, 1), "h1")
    w = b.node(Generator.white(2, 1), "w0")
    b.wire(ha, (w, 0))
    b.wire(hb, (w, 1))
    b.wire((w, 2), "out")
    product = Generator.hbox(amp_multiply(A, B, ctx), 0, 1)
    return b.build(), _dressed_spider(ctx.dim, product, name="h0")


@_rule("ZH-HU", {})
def _zh_hu(ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    lhs = _dressed_spider(ctx.dim, Generator.hbox(Char(0), 0, 1), name="h0")
    return lhs, _dressed_spider(ctx.dim, Generator.white(0, 1), name="w0")


def _need_nonzero_complex(v: Any, k: str, dim: int) -> complex:
    number = isinstance(v, (int, float, complex, np.integer, np.floating, np.complexfloating))
    _need(number and not isinstance(v, bool), f"{k} must be a nonzero complex number")
    v = _need_finite(v, k, complex)
    _need(v != 0, f"{k} must be a nonzero complex number")
    return v


def _draw_alpha(rng: np.random.Generator, dim: int) -> complex:
    """A modulus in [0.8, 1.25] times a phase, so UnitPow(alpha)
    raised to products of legs stays in range."""
    mod = float(rng.uniform(0.8, 1.25))
    return mod * cmath.exp(1j * REAL.draw(rng, dim))


@_rule("ZH-EC", {"alpha": Kind(_need_nonzero_complex, _draw_alpha), "m": NAT(2)})
def _zh_ec(ctx: MeasureContext, alpha: complex, m: int) -> tuple[Diagram, Diagram]:
    sg = ctx.sigma
    lhs = _chain(ctx.dim, [Generator.hbox(UnitPow(alpha), m, 1), Generator.not_dot(-sg)], names=("h0", "n0"))

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


@_rule(
    "ZH-MF",
    {"c1": INT, "c2": INT, "u": UNIT, "k": NAT(1), "l": NAT(1), "m": NAT(1), "n": NAT(1)},
)
def _zh_mf(
    ctx: MeasureContext, c1: int, c2: int, u: int, k: int, l: int, m: int, n: int
) -> tuple[Diagram, Diagram]:
    h1, h2 = Generator.hbox(Char(c1), k, m + 1), Generator.hbox(Char(c2), l + 1, n)
    lhs = _joined(ctx.dim, h1, h2, ("n0", Generator.hbox(Char(-u), 1, 1)))
    ui = pow(u % ctx.dim, -1, ctx.dim)
    merged = Generator.hbox(Char(residue(ctx, ui * c1 * c2)), k + l, m + n)
    return lhs, _dressed_spider(ctx.dim, merged, scale=_dnu4(ctx), name="h0")


def _charged_copy(dim: int, charges: list[int], m: int) -> Diagram:
    """A copy dot w0 whose first legs end in one-leg ``Char`` H-boxes h0,
    h1, ..., one per charge, and whose other m legs are the outputs."""
    b = DiagramBuilder(dim)
    w = b.node(Generator.white(0, len(charges) + m), "w0")
    for i, c in enumerate(charges):
        b.wire((w, i), b.node(Generator.hbox(Char(c), 1, 0), f"h{i}"))
    for j in range(len(charges), len(charges) + m):
        b.wire((w, j), "out")
    return b.build()


@_rule("ZH-MCA", {"c1": INT, "c2": INT, "m": NAT(2)})
def _zh_mca(ctx: MeasureContext, c1: int, c2: int, m: int) -> tuple[Diagram, Diagram]:
    return _charged_copy(ctx.dim, [c1, c2], m), _charged_copy(ctx.dim, [c1 + c2], m)


def _unit_test_gadget(b: DiagramBuilder, tag: str, in_port) -> None:
    """One multiplicative-unit tester: a degree-3 box probing its input
    against a free white leg, capped by a [-1] box."""
    h = b.node(Generator.hbox(Char(1), 1, 2), f"h{tag}")
    w = b.node(Generator.white(1, 0), f"w{tag}")
    cap = b.node(Generator.hbox(Char(-1), 1, 0), f"c{tag}")
    b.wire(in_port, (h, 0))
    b.wire((h, 1), w)
    b.wire((h, 2), cap)


@_rule("ZH-UM", {})
def _zh_um(ctx: MeasureContext) -> tuple[Diagram, Diagram]:
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


@_rule("ZH-O", {}, dim_cap=7)
def _zh_o(ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    D = ctx.dim
    lhs = _oracle(D, None, ("g0", Generator.gray(D, 0)), D * ctx.nu**2)
    return lhs, _oracle(D, None, Generator.white(1, 0))


@_rule("ZH-HWB", {"u": UNIT, "m": NAT(2), "n": NAT(2)})
def _zh_hwb(ctx: MeasureContext, u: int, m: int, n: int) -> tuple[Diagram, Diagram]:
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

    funnel = [Generator.hbox(Char(u), m, 1), Generator.hbox(Char(-u), 1, 1), Generator.white(1, n)]
    return lhs, _chain(ctx.dim, funnel, _dnu4(ctx) ** (n - 1), ("h0", "c0", "w0"))


@_rule("ZH-HMB", {"u": UNIT, "m": NAT(2), "n": NAT(2)})
def _zh_hmb(ctx: MeasureContext, u: int, m: int, n: int) -> tuple[Diagram, Diagram]:
    lhs = _bipartite(ctx.dim, Generator.white(1, n), Generator.hbox(Char(u), m, 1))
    funnel = [Generator.hbox(Char(-u), m, 1), Generator.gray(1, n)]
    return lhs, _chain(ctx.dim, funnel, names=("h0", "g0"))


@_rule("ZH-ME", {"k": NAT(lambda dim: dim + 1), "u": UNIT})
def _zh_me(ctx: MeasureContext, k: int, u: int) -> tuple[Diagram, Diagram]:
    b = DiagramBuilder(ctx.dim)
    r = b.multiedge(Generator.white(1, k), Generator.gray(k, 1), ("g0", "r0"), tail=True)
    anti = b.node(Generator.gray(1, 1), "s0")
    b.wire((r, k), (anti, 0))
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


@_rule("ZH-ND", {"c1": INT, "c2": INT})
def _zh_nd(ctx: MeasureContext, c1: int, c2: int) -> tuple[Diagram, Diagram]:
    lhs = _chain(ctx.dim, [Generator.not_dot(c1), Generator.not_dot(c2)])
    rhs = _chain(ctx.dim, [Generator.gray(1, 1), Generator.not_dot(residue(ctx, c2 - c1))])
    return lhs, rhs


@_rule("ZH-NH", {"u": UNIT, "c": INT})
def _zh_nh(ctx: MeasureContext, u: int, c: int) -> tuple[Diagram, Diagram]:
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
    return lhs, _chain(ctx.dim, [Generator.not_dot(residue(ctx, ui * c))], _dnu4(ctx))


@_rule("ZH-NA", {})
def _zh_na(ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    return _chain(ctx.dim, [Generator.not_dot(0)]), _chain(ctx.dim, [Generator.gray(1, 1)])


@_rule("ZH-DH", {"u": UNIT})
def _zh_dh(ctx: MeasureContext, u: int) -> tuple[Diagram, Diagram]:
    lhs = _chain(ctx.dim, [Generator.hbox(Char(u), 1, 1), Generator.hbox(Char(u), 1, 1)])
    return lhs, _dressed_spider(ctx.dim, Generator.gray(1, 1), scale=_dnu4(ctx))


@_rule("ZH-ZPL", {}, dim_cap=7)
def _zh_zpl(ctx: MeasureContext) -> tuple[Diagram, Diagram]:
    D, minus = ctx.dim, Generator.hbox(Char(-1), 1, 1)
    lhs = _oracle(D, minus, ("z0", Generator.white(D, 0)))
    return lhs, _oracle(D, minus, Generator.gray(1, 0), ctx.nu**2)


# =====================================================================
# Catalog access
# =====================================================================

NU_ANY_RULES = tuple(spec.id for spec in CATALOG.values() if spec.nu_requirement == "any")


def get_rule(rule_id: str) -> RuleSpec:
    try:
        return CATALOG[rule_id]
    except KeyError:
        raise RewriteError(f"unknown rule id {rule_id!r}") from None


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
    scalar boxes appear.  A balancing scalar past the float range raises
    ``OverflowGuardError`` naming nu.
    """
    spec = get_rule(rule) if isinstance(rule, str) else rule
    parsed = spec.validate(params, ctx.dim)
    try:
        lhs, rhs = spec.build(ctx, **parsed)
    except OverflowGuardError:
        raise
    except OverflowError as exc:  # a float power of nu, bare
        raise OverflowGuardError(f"a balancing scalar, a power of nu, leaves the float range at nu={ctx.nu!r}") from exc
    if (lhs.n_inputs, lhs.n_outputs) != (rhs.n_inputs, rhs.n_outputs):
        raise RewriteError(
            f"{spec.id}: boundary mismatch "
            f"({lhs.n_inputs}->{lhs.n_outputs} vs {rhs.n_inputs}->{rhs.n_outputs})"
        )
    return lhs, rhs


_MAX_ROWS = 1 << 20  # rows of one check_all report: samples * rules * dimensions


def check_soundness(
    rule: RuleSpec | str,
    params: Params,
    ctx: MeasureContext,
    tol: float = 1e-8,
) -> dict[str, Any]:
    """Evaluate both sides of one assignment and compare entrywise.

    The error is ``diagram.max_abs_diffs`` of the one pair, so it is the
    number ``check_all`` reports for the same draw.  A NaN entry gives a
    NaN ``max_err``, which no tolerance passes; ``check_all`` refuses such
    a cell instead.  A ``tol`` that is not a positive finite number raises
    ``ValueError`` before the sides are built.
    """
    _check_tol(tol)
    (err,) = max_abs_diffs([instantiate(rule, params, ctx)], ctx)
    return {"max_err": err, "pass": bool(err <= tol)}


def _check_tol(tol: Any) -> None:
    """Refuse a tolerance that is not a positive finite number: inf passes every row, NaN or 0 fails every one."""
    if isinstance(tol, bool) or not (isinstance(tol, (int, float, np.integer, np.floating)) and 0 < tol < math.inf):
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")


def _finite(err: float) -> float:
    """``err``; NaN or inf raises ``OverflowGuardError``."""
    if not math.isfinite(err):
        raise OverflowGuardError("a side left the float range")
    return err


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
    Each (rule, D) cell is ``_cell_rows``: a rule that has no valid
    parameters at some D, or whose diagram family outgrows its dimension
    cap there, gets a single "skip" row.  A cell's distinct samples are
    checked through ``diagram.max_abs_diffs`` in batches of one shape,
    and each row holds the numbers ``check_soundness`` gives for its
    sample alone.  A cell refused by a size budget or the float range (any
    ``OverflowError`` while its sides are built or checked, or a
    comparison that is not finite) raises ``OverflowGuardError`` with the
    rule id and D in front.  Each dimension is read by
    ``measure.dimension``, so a bool, a float or a string raises
    ``TypeError``.  A report of more than ``_MAX_ROWS`` rows (samples
    times distinct rules times distinct dimensions) raises
    ``ReportSizeError``, and a bad argument an error that names it, both
    before anything is drawn: a ``tol`` that is not a positive finite
    number (``ValueError``), a ``samples`` or ``seed`` that is a bool or
    not an int (``TypeError``), a negative ``seed`` (``ValueError``), or a
    str for ``rules``, which would be read letter by letter (``TypeError``).
    """
    dims = sorted(set(map(dimension, dims)))
    if any(d < 2 for d in dims):
        raise ValueError("dimensions must be at least 2")
    _check_tol(tol)
    if isinstance(samples, bool) or not isinstance(samples, (int, np.integer)):
        raise TypeError(f"samples must be an integer, got {samples!r}")
    if samples < 1:
        raise ValueError("need at least one sample")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ValueError(f"seed must be at least 0, got {seed!r}")
    if isinstance(rules, str):
        raise TypeError(f"rules must be a collection of rule ids, not the str {rules!r}")
    all_ids = sorted(CATALOG)
    wanted = sorted(set(all_ids if rules is None else [get_rule(r).id for r in rules]))
    count = samples * len(wanted) * len(dims)
    if count > _MAX_ROWS:
        raise ReportSizeError(f"a report of {count} rows is more than {_MAX_ROWS}")
    rows: list[dict[str, Any]] = []
    for rule_id in wanted:
        spec = CATALOG[rule_id]
        rule_key = all_ids.index(rule_id)
        for D in dims:
            ctx = MeasureContext(D, nu)
            try:
                rows += _cell_rows(spec, ctx, samples, tol, [seed, rule_key, D])
            except OverflowError as exc:
                raise OverflowGuardError(f"{rule_id} at D={D}: {exc}") from exc
    return rows


def _cell_rows(
    spec: RuleSpec, ctx: MeasureContext, samples: int, tol: float, seed: list[int]
) -> list[dict[str, Any]]:
    """The rows of one (rule, D) cell of ``check_all``.

    The cell's assignments are drawn first, in sample order, from one
    generator seeded with ``seed`` that only ``spec.sample`` reads, up to
    the first the rule cannot draw, which gets a skip row.  Past the
    rule's ``dim_cap`` nothing is drawn, so the cell is its skip row.  A
    draw whose row would print the same ``params`` as an earlier draw of
    the cell (compared as canonical JSON text, so floats by repr) builds
    the same sides, so it reuses that draw's error and is not checked
    again.  The distinct draws are checked in order through
    ``diagram.max_abs_diffs``.  A refusal replays the distinct draws not
    yet checked one at a time, so the error raised is that of the first
    failing sample, as when each sample is checked alone.
    """
    drawn: list[Params] = []
    if spec.dim_cap is None or ctx.dim <= spec.dim_cap:
        rng = np.random.default_rng(seed)
        for _ in range(samples):
            params = spec.sample(ctx.dim, rng)
            if params is None:
                break
            drawn.append(params)
    shown = [params_jsonable(params) for params in drawn]
    seen: dict[str, int] = {}
    # each draw's first draw with the same params
    firsts = [seen.setdefault(json.dumps(p, sort_keys=True), i) for i, p in enumerate(shown)]
    unique = list(dict.fromkeys(firsts))
    distinct = [drawn[i] for i in unique]
    checked: list[float] = []
    try:
        checked.extend(map(_finite, max_abs_diffs((instantiate(spec, params, ctx) for params in distinct), ctx)))
    except OverflowError:
        for params in distinct[len(checked):]:
            _finite(check_soundness(spec, params, ctx, tol)["max_err"])
        raise
    error = dict(zip(unique, checked))
    rows = [
        {
            "rule": spec.id,
            "dim": ctx.dim,
            "sample": i,
            "params": shown[i],
            "max_err": error[first],
            "status": "pass" if error[first] <= tol else "fail",
        }
        for i, first in enumerate(firsts)
    ]
    if len(drawn) < samples:
        rows.append({"rule": spec.id, "dim": ctx.dim, "sample": len(drawn), "params": {}, "max_err": None,
                     "status": "skip"})
    return rows
