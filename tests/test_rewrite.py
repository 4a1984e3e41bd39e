"""Rewrite catalog tests: soundness and parameter domains.

Soundness is always judged the same way: build both sides, contract
both sides, compare entrywise.  The builders and the contraction engine
are independent code paths, so agreement is meaningful.  Catalog-level
invariants (id inventory, boundary arities, normalization-free subset)
are frozen here so accidental edits to the rule table fail loudly.
"""

import hashlib
import json
import math
import time
import tracemalloc
import warnings
import weakref
from collections import Counter

import numpy as np
import pytest

import quditzx.diagram as dg
import quditzx.rewrite as rw
from quditzx.diagram import DiagramBuilder, dump_json, evaluate
from quditzx.generators import Char, Generator, One, Phase, Stab, Table, UnitPow, Zero
from quditzx.measure import MeasureContext, OverflowGuardError
from quditzx.rewrite import (
    CATALOG,
    NU_ANY_RULES,
    ParamError,
    RewriteError,
    check_all,
    check_soundness,
    get_rule,
    instantiate,
    params_jsonable,
)
from quditzx.tensor import Tensor, max_abs_diff

ALL_RULE_IDS = [
    "ZX-GI", "ZX-RI", "ZX-HI", "ZX-GF", "ZX-GFP", "ZX-GFS", "ZX-RGC",
    "ZX-RGB", "ZX-CPY", "ZX-NS", "ZX-RS", "ZX-Z", "ZX-ZCP", "ZX-ZSP",
    "ZX-MH", "ZX-ME", "ZX-MEH", "ZX-A", "ZX-PU", "ZX-SU", "ZX-GU",
    "ZXH-GW", "ZXH-RG", "ZXH-GP", "ZXH-WH", "ZXH-RN", "ZXH-RA",
    "ZXH-HP", "ZXH-HM", "ZXH-GH0", "ZXH-GH", "ZXH-S0", "ZXH-S",
    "ZH-WI", "ZH-WQS", "ZH-AI", "ZH-HI", "ZH-WF", "ZH-GWC", "ZH-WNS",
    "ZH-GF", "ZH-GL", "ZH-WGC", "ZH-MEH", "ZH-A", "ZH-WGB", "ZH-HM",
    "ZH-HU", "ZH-EC", "ZH-MF", "ZH-MCA", "ZH-UM", "ZH-O", "ZH-HWB",
    "ZH-HMB", "ZH-ME", "ZH-ND", "ZH-NH", "ZH-NA", "ZH-DH", "ZH-ZPL",
]

FREE_NORMALIZATION_RULES = {
    "ZX-GF", "ZX-CPY", "ZX-PU", "ZH-AI", "ZH-WNS", "ZH-WGB", "ZH-HM",
}


# ---------------------------------------------------------------------
# catalog shape
# ---------------------------------------------------------------------


def test_catalog_inventory():
    assert sorted(CATALOG) == sorted(ALL_RULE_IDS)
    assert len(CATALOG) == 61
    assert len(set(ALL_RULE_IDS)) == 61


def test_normalization_free_subset():
    assert set(NU_ANY_RULES) == FREE_NORMALIZATION_RULES
    for rid in ALL_RULE_IDS:
        spec = get_rule(rid)
        assert spec.nu_requirement in ("any", "well_tempered")


def test_get_rule_unknown():
    with pytest.raises(RewriteError):
        get_rule("ZX-NOPE")


@pytest.mark.parametrize("rule_id", ALL_RULE_IDS)
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_boundary_arities_agree(rule_id, dim):
    spec = get_rule(rule_id)
    if spec.dim_cap is not None and dim > spec.dim_cap:
        pytest.skip("dimension above the rule's cap")
    ctx = MeasureContext(dim)
    rng = np.random.default_rng([11, dim])
    for _ in range(3):
        params = spec.sample(dim, rng)
        if params is None:
            return
        spec.validate(params, dim)
        lhs, rhs = instantiate(spec, params, ctx)
        assert (lhs.n_inputs, lhs.n_outputs) == (rhs.n_inputs, rhs.n_outputs)


# ---------------------------------------------------------------------
# parameter domains
# ---------------------------------------------------------------------


def test_param_errors_unit():
    ctx = MeasureContext(4)
    with pytest.raises(ParamError, match="unit"):
        instantiate("ZX-MH", {"u": 2}, ctx)
    with pytest.raises(ParamError, match="unit"):
        instantiate("ZH-HI", {"u": 0}, ctx)
    instantiate("ZX-MH", {"u": 3}, ctx)  # valid


def test_param_errors_divisor_tower():
    ctx = MeasureContext(5)
    with pytest.raises(ParamError, match="divisor"):
        instantiate("ZX-ZSP", {"u": 1, "t": 2, "tp": 2}, ctx)
    ctx8 = MeasureContext(8)
    with pytest.raises(ParamError):
        instantiate("ZX-ZSP", {"u": 1, "t": 8, "tp": 2}, ctx8)
    with pytest.raises(ParamError):
        instantiate("ZX-ZSP", {"u": 2, "t": 4, "tp": 2}, ctx8)
    lhs, rhs = instantiate("ZX-ZSP", {"u": 3, "t": 4, "tp": 2}, ctx8)
    assert lhs.nodes["z0"].amp == Stab(6, 4)


def test_zx_zsp_holds_on_its_whole_domain():
    """Every divisor-tower tuple up to D=48: sound where the rule accepts
    it; outside, a ParamError, and a left side of modulus sqrt(t)."""
    spec = get_rule("ZX-ZSP")
    sound = excluded = 0
    for dim in range(2, 49):
        ctx = MeasureContext(dim)
        for t in range(2, dim):
            for tp in range(2, t):
                if dim % t or t % tp:
                    continue
                for u in (u for u in range(1, dim) if math.gcd(u, dim) == 1):
                    params = {"u": u, "t": t, "tp": tp}
                    if t == 2 * tp and (dim // t) % 2 == 1:
                        with pytest.raises(ParamError):
                            spec.validate(params, dim)
                        with pytest.raises(ParamError):
                            instantiate(spec, params, ctx)
                        b = DiagramBuilder(dim)
                        b.node(Generator.green(Stab(u * tp, t), 0, 0), "z0")
                        value = complex(evaluate(b.build(), ctx).data)
                        assert abs(abs(value) - math.sqrt(t)) < 1e-9, (dim, params)
                        excluded += 1
                    else:
                        assert check_soundness(spec, params, ctx)["pass"], (dim, params)
                        sound += 1
    assert (sound, excluded) == (978, 154)


def test_param_errors_misc():
    ctx = MeasureContext(4)
    with pytest.raises(ParamError, match="multiple"):
        instantiate("ZX-ZCP", {"a": 4}, ctx)
    with pytest.raises(ParamError, match="missing"):
        instantiate("ZX-GFP", {"theta": 0.5}, ctx)
    with pytest.raises(ParamError, match="unexpected"):
        instantiate("ZX-GI", {"x": 1}, ctx)
    with pytest.raises(ParamError, match="integer"):
        instantiate("ZX-RS", {"a": 0.5, "b": 1, "c": 1}, ctx)
    with pytest.raises(ParamError, match="nonneg"):
        instantiate("ZX-CPY", {"a": 1, "n": -1}, ctx)
    with pytest.raises(ParamError, match="nonzero"):
        instantiate("ZH-EC", {"alpha": 0, "m": 1}, ctx)
    with pytest.raises(ParamError, match="unit"):
        get_rule("ZX-MH").validate({"u": 2}, 4)
    get_rule("ZX-MH").validate({"u": 3}, 4)
    # every declared parameter of every rule: a bool, a string, or a
    # missing key is a ParamError naming it (D=8 has a ZX-ZSP domain)
    ctx8 = MeasureContext(8)
    for rid in ALL_RULE_IDS:
        spec = get_rule(rid)
        valid = spec.sample(8, np.random.default_rng(0))
        spec.validate(valid, 8)
        for k in spec.params:
            for bad in (True, False, "1"):
                with pytest.raises(ParamError, match=rf"^{k} must be"):
                    instantiate(spec, {**valid, k: bad}, ctx8)
            with pytest.raises(ParamError, match=rf"^missing parameter\(s\): {k}$"):
                instantiate(spec, {j: v for j, v in valid.items() if j != k}, ctx8)


@pytest.mark.parametrize("rule, params, message", [
    ("ZX-GFP", {"theta": 10**400, "phi": 0.0}, "theta must be finite, got an integer of 1329 bits"),
    ("ZX-GFP", {"theta": 10**400, "phi": "x"}, "theta must be finite, got an integer of 1329 bits"),
    ("ZX-GFP", {"theta": math.inf, "phi": 0.0}, "theta must be finite, got inf"),
    ("ZX-GFP", {"theta": 0.0, "phi": np.float64(-math.inf)}, "phi must be finite, got -inf"),
    ("ZX-GFP", {"theta": math.nan, "phi": 0.0}, "theta must be finite, got nan"),
    ("ZH-EC", {"alpha": 10**400, "m": 1}, "alpha must be finite, got an integer of 1329 bits"),
    ("ZH-EC", {"alpha": math.inf, "m": 1}, r"alpha must be finite, got \(inf\+0j\)"),
    ("ZH-EC", {"alpha": complex(1, math.nan), "m": 1}, r"alpha must be finite, got \(1\+nanj\)"),
])
def test_a_real_or_complex_parameter_must_be_finite(rule, params, message):
    # an int past the float range, inf or NaN is refused by name, the
    # first declared parameter first, before any side is built
    with pytest.raises(ParamError, match=f"^{message}$"):
        check_soundness(rule, params, MeasureContext(3))


def test_a_repeated_rule_id_is_refused():
    before = dict(CATALOG)
    with pytest.raises(RewriteError, match="^duplicate rule id 'ZX-GFP' in catalog$"):
        rw._rule("ZX-GFP", {})(lambda ctx: (None, None))
    assert CATALOG == before


@pytest.mark.parametrize("nu", [1e50, 1e100])
def test_a_balancing_scalar_past_the_float_range_names_nu(nu):
    # a power of nu that overflows in a builder is named, never a bare errno tuple
    named = 0
    for rule in ALL_RULE_IDS:
        for D in range(2, 10):
            try:
                check_all([D], samples=1, nu=nu, rules=[rule])
            except OverflowGuardError as exc:
                assert "Numerical result out of range" not in str(exc), str(exc)
                named += str(exc).endswith(f"a balancing scalar, a power of nu, leaves the float range at nu={nu!r}")
    assert named == {1e50: 16, 1e100: 200}[nu]


def test_zh_ec_alpha_accepts_numpy_numbers():
    # like INT and REAL, alpha takes numpy scalars; booleans stay out
    spec = get_rule("ZH-EC")
    for alpha in (np.float32(1.0), np.float64(-0.5), np.int64(2), np.int8(-1), np.complex64(1j)):
        spec.validate({"alpha": alpha, "m": 1}, 3)
    for alpha in (np.float32(0.0), np.int64(0), np.bool_(True), np.bool_(False), True):
        with pytest.raises(ParamError):
            spec.validate({"alpha": alpha, "m": 1}, 3)
    ctx = MeasureContext(3)
    assert check_soundness(spec, {"alpha": np.float32(1.25), "m": 2}, ctx)["pass"]


def test_sampled_params_always_valid():
    rng = np.random.default_rng(5)
    for rid in ALL_RULE_IDS:
        spec = get_rule(rid)
        for dim in (2, 3, 4, 5, 6):
            params = spec.sample(dim, rng)
            if params is not None:
                spec.validate(params, dim)
    zsp = get_rule("ZX-ZSP")
    for dim in range(2, 49):
        for _ in range(20):
            params = zsp.sample(dim, rng)
            if params is None:
                break
            zsp.validate(params, dim)


def test_catalog_instances_are_pinned():
    """Sampled parameters and both sides of every rule, byte for byte.

    Each (rule, D) is seeded as check_all seeds it; D=2..9 up to the
    rule's cap, well-tempered and nu=0.83, three samples each.  The
    digest was recorded from the rule table before its parameter kinds
    were declared in one place, and recorded again when ZX-MEH and
    ZH-MEH lost their cap at D=7, which adds their D=8 and 9 pairs, and
    again when diagram files came to be written on one line by
    ``json.dumps``, a digest that the last indented writer gave for its
    texts re-encoded by ``json.dumps(json.loads(text))``.
    """
    h = hashlib.sha256()
    pairs = 0
    for rule_key, rid in enumerate(sorted(CATALOG)):
        spec = CATALOG[rid]
        for dim in range(2, 10 if spec.dim_cap is None else spec.dim_cap + 1):
            for nu in (None, 0.83):
                rng = np.random.default_rng([0, rule_key, dim])
                ctx = MeasureContext(dim, nu)
                for _ in range(3):
                    params = spec.sample(dim, rng)
                    if params is None:
                        break
                    lhs, rhs = instantiate(spec, params, ctx)
                    for text in (dump_json(lhs), dump_json(rhs), json.dumps(params_jsonable(params))):
                        h.update(text.encode())
                    pairs += 1
    assert pairs == 2862
    assert h.hexdigest() == "8768a64c20a14412ff27a62441c8f46ebefdf1ea376af91a5e784a6c6963f94f"


# ---------------------------------------------------------------------
# named instantiation shapes
# ---------------------------------------------------------------------


def test_instantiate_green_identity():
    lhs, rhs = instantiate("ZX-GI", {}, MeasureContext(3))
    assert len(lhs.nodes) == 1
    (gen,) = lhs.nodes.values()
    assert gen.kind == "green" and (gen.m, gen.n) == (1, 1) and gen.amp == One()
    assert len(rhs.nodes) == 0
    assert rhs.edges == ((("in", 0), ("out", 0)),)


def test_instantiate_phased_pair_elimination():
    lhs, rhs = instantiate("ZX-GU", {"a": 1, "u": 1}, MeasureContext(5))
    amps = sorted(
        (g.amp.a, g.amp.b) for g in lhs.nodes.values() if g.kind == "green"
    )
    assert len(lhs.nodes) == 2  # default normalization: no scalar box
    assert amps == [(-1, -1), (1, 1)]
    assert all((g.m, g.n) == (0, 0) for g in lhs.nodes.values())
    assert len(rhs.nodes) == 0 and len(rhs.edges) == 0


def test_instantiate_char_cap_merge():
    lhs, rhs = instantiate("ZH-MCA", {"c1": 1, "c2": 2, "m": 1}, MeasureContext(4))
    lhs_caps = [g for g in lhs.nodes.values() if g.kind == "hbox"]
    assert sorted(g.amp.c for g in lhs_caps) == [1, 2]
    rhs_caps = [g for g in rhs.nodes.values() if g.kind == "hbox"]
    assert len(rhs_caps) == 1 and rhs_caps[0].amp == Char(3)


def test_instantiate_respects_builder_mode():
    # away from the default normalization a balancing box appears
    lhs_def, rhs_def = instantiate("ZX-HI", {}, MeasureContext(4))
    assert "scale" not in rhs_def.nodes
    lhs_gen, rhs_gen = instantiate("ZX-HI", {}, MeasureContext(4, 1.0))
    assert "scale" in rhs_gen.nodes
    box = rhs_gen.nodes["scale"]
    assert box.kind == "hbox" and box.degree == 0
    assert box.amp.alpha == pytest.approx(4.0)


# ---------------------------------------------------------------------
# soundness
# ---------------------------------------------------------------------


def test_check_soundness_examples():
    assert check_soundness("ZX-HI", {}, MeasureContext(5), tol=1e-9)["pass"]
    assert check_soundness("ZH-WQS", {}, MeasureContext(3), tol=1e-9)["pass"]
    rep = check_soundness("ZX-GFP", {"theta": 0.4, "phi": 1.2}, MeasureContext(6))
    assert rep["pass"] and rep["max_err"] <= 1e-12


def test_check_soundness_honest_tolerance():
    # rounding noise is nonzero, so an absurd tolerance must fail
    rep = check_soundness("ZX-MH", {"u": 3}, MeasureContext(5), tol=1e-30)
    assert rep["max_err"] > 0 and not rep["pass"]


@pytest.mark.parametrize("tile", [dg._TILE, 25])
@pytest.mark.parametrize("side", [0, 1])
@pytest.mark.parametrize("entry", [0, -1])
def test_check_soundness_fails_a_nan_side(monkeypatch, tile, side, entry):
    # a NaN at the first or last entry of either side of ZH-O, compared in
    # one tile (5^6 entries a side at D=5) or, with tiles of 25, in 64
    # tiles of 16 at D=4, where its last merges split apart and the tiles
    # zip, is an error that no tolerance passes
    monkeypatch.setattr(dg, "_TILE", tile)
    dim, n_tiles = (4, 64) if tile == 25 else (5, 1)
    real_tiles = dg._tiles
    counts: list = []

    def poisoned_tiles(ds, plan, ctx):
        s = len(counts)  # 0 for the stream read first, the left sides'
        counts.append(0)
        for number, x in enumerate(real_tiles(ds, plan, ctx)):
            counts[s] += 1
            if s == side and number == entry % n_tiles:  # the first or the last tile
                x.flat[entry] = np.nan
            yield x

    monkeypatch.setattr(dg, "_tiles", poisoned_tiles)
    rep = check_soundness("ZH-O", {}, MeasureContext(dim), tol=1.0)
    assert counts == [n_tiles] * 2
    assert math.isnan(rep["max_err"]) and rep["pass"] is False


def whole_bound(sides) -> float:
    """The bound on a stacked error's rounding: 1e-12 times the largest entry of either whole side."""
    return 1e-12 * max(np.max(np.abs(t.data)) for t in sides)


def stacked_calls(monkeypatch) -> list:
    """Record each call of ``dg._stacked``, the comparison of a wide pair whose last merges split alike."""
    real, calls = dg._stacked, []

    def stacked(runs, lay, ctx):
        calls.append(ctx.dim)
        return real(runs, lay, ctx)

    monkeypatch.setattr(dg, "_stacked", stacked)
    return calls


@pytest.mark.parametrize("rid", ["ZH-O", "ZH-ZPL"])
@pytest.mark.parametrize("dim", [6, 7], ids=["D=6, all blocked", "D=7"])
def test_blocked_check_is_the_whole_comparison(monkeypatch, rid, dim):
    # past _TILE entries (6^7 at D=6, 7^8 at D=7) a side never runs its
    # last step whole: both sides' last merges split the boundary alike,
    # so L - R is one stacked product a block, and the error is that of
    # the two whole sides within rounding (the stacked product sums in
    # another order)
    spec = CATALOG[rid]
    ctx = MeasureContext(dim)
    params = spec.sample(dim, np.random.default_rng(0))
    lhs, rhs = instantiate(spec, params, ctx)
    whole = [evaluate(lhs, ctx), evaluate(rhs, ctx)]
    want = max_abs_diff(*whole)
    real = dg._execute

    def execute(steps, layout, ds, ctx, split_last=False):
        out = real(steps, layout, ds, ctx, split_last)
        assert len(out) == 2, "a wide side was evaluated whole"
        return out

    monkeypatch.setattr(dg, "_execute", execute)
    calls = stacked_calls(monkeypatch)
    rep = check_soundness(spec, params, ctx)
    assert calls == [dim]
    assert abs(rep["max_err"] - want) <= whole_bound(whole)
    assert rep["pass"]


@pytest.mark.parametrize("rid, dim, tile", [("ZH-O", 4, 25), ("ZH-GWC", 257, None)], ids=["ZH-O D=4", "ZH-GWC D=257"])
def test_a_zipped_check_is_the_whole_comparison(monkeypatch, rid, dim, tile):
    # a wide pair whose last merges split the boundary apart (ZH-O at D=4
    # with tiles of 25 entries, ZH-GWC at D=257) is compared tile by tile,
    # each side stopping before its last merge, and the error is bit for
    # bit that of the two whole sides
    monkeypatch.setattr(dg, "_TILE", tile or dg._TILE)
    spec = CATALOG[rid]
    ctx = MeasureContext(dim)
    params = spec.sample(dim, np.random.default_rng(0))
    lhs, rhs = instantiate(spec, params, ctx)
    want = max_abs_diff(evaluate(lhs, ctx), evaluate(rhs, ctx))
    real = dg._execute

    def execute(steps, layout, ds, ctx, split_last=False):
        out = real(steps, layout, ds, ctx, split_last)
        assert len(out) == 2, "a wide side was evaluated whole"
        return out

    monkeypatch.setattr(dg, "_execute", execute)
    calls = stacked_calls(monkeypatch)
    rep = check_soundness(spec, params, ctx)
    assert calls == []
    assert np.float64(rep["max_err"]).tobytes() == np.float64(want).tobytes()
    assert rep["pass"]


NAN, INF = float("nan"), float("inf")
# (side, tile, entry in the tile, value); tile 0 is the first, -1 the last
BLOCK_EDITS = [
    [(0, 0, 0, NAN)],
    [(1, -1, -1, NAN)],
    [(0, -1, 7, INF), (1, -1, 7, INF)],  # inf - inf is NaN
    [(1, 0, 11, 1e3)],
]


@pytest.mark.parametrize("edits", BLOCK_EDITS, ids=range(len(BLOCK_EDITS)))
def test_blocked_check_carries_nan_and_inf(monkeypatch, edits):
    # an edited tile gives the error of the whole sides edited alike,
    # bit for bit: NaN from a NaN anywhere or from inf - inf.  With tiles
    # of 25 entries, ZH-O's 4^5-entry sides at D=4, whose last merges
    # split apart, are compared in 64 tiles of 4^2, one value each of
    # positions 0..2
    monkeypatch.setattr(dg, "_TILE", 25)
    ctx = MeasureContext(4)
    real = dg._tiles
    shapes: list = []

    def poisoned(ds, plan, ctx):
        side = len(shapes)
        shapes.append([])
        for number, x in enumerate(real(ds, plan, ctx)):
            shapes[side].append(x.shape)
            for s, at, entry, value in edits:
                if s == side and number == at % 64:
                    x[np.unravel_index(entry % x.size, x.shape)] = value
            yield x

    monkeypatch.setattr(dg, "_tiles", poisoned)
    with np.errstate(invalid="ignore"):  # inf - inf
        rep = check_soundness("ZH-O", {}, ctx, tol=1.0)
        whole = [evaluate(d, ctx) for d in instantiate("ZH-O", {}, ctx)]
        for side, at, entry, value in edits:
            lo, i1, i2 = np.unravel_index(at % 64, (4, 4, 4))
            tile = whole[side].data[lo : lo + 1, i1, i2]
            tile[np.unravel_index(entry % tile.size, tile.shape)] = value
        want = max_abs_diff(*whole)
    assert shapes == [[(1, 4, 4)] * 64] * 2
    assert np.float64(rep["max_err"]).tobytes() == np.float64(want).tobytes()
    assert math.isnan(rep["max_err"]) == (edits != BLOCK_EDITS[-1])
    assert rep["pass"] is False


# (side, operand of its last merge, entry, value); -1 is the last entry
OPERAND_EDITS = [
    [(0, 0, 0, NAN)],
    [(1, 1, -1, NAN)],
    [(0, 0, 7, INF), (1, 0, 7, INF)],  # inf - inf is NaN
    [(1, 0, 11, 1e3)],
]


@pytest.mark.parametrize("edits", OPERAND_EDITS, ids=range(len(OPERAND_EDITS)))
@pytest.mark.parametrize("rid", ["ZH-O", "ZH-ZPL"])
def test_a_stacked_check_carries_nan_and_inf(monkeypatch, rid, edits):
    # the sides of ZH-O and ZH-ZPL at D=6 are compared as one stacked
    # product a block, so an edit goes into an operand of a side's last
    # merge: NaN from a NaN anywhere or from inf - inf, and a finite edit
    # the error of the whole sides made from the same edited operands,
    # within rounding
    ctx = MeasureContext(6)
    real = dg._execute
    operands: list = []  # each side's edited last-merge operands

    def execute(steps, layout, ds, ctx, split_last=False):
        out = real(steps, layout, ds, ctx, split_last)
        side = len(operands)
        for s, k, entry, value in edits:
            if s == side:
                out[k] = out[k].copy()
                out[k].flat[entry % out[k].size] = value
        operands.append((steps[-1][2:], list(out)))
        return out

    monkeypatch.setattr(dg, "_execute", execute)
    calls = stacked_calls(monkeypatch)
    rep = check_soundness(rid, {}, ctx, tol=1.0)
    assert calls == [6]
    with np.errstate(invalid="ignore"):  # inf - inf
        whole = [np.einsum(a, sa, b, sb, so) for (sa, sb, so), (a, b) in operands]
        want = np.max(np.abs(whole[0] - whole[1]))
    assert math.isnan(rep["max_err"]) == math.isnan(want) == (edits != OPERAND_EDITS[-1])
    if edits == OPERAND_EDITS[-1]:
        assert abs(rep["max_err"] - want) <= 1e-12 * max(np.max(np.abs(w)) for w in whole)
    assert rep["pass"] is False


def test_a_cell_of_blocked_and_batched_draws(monkeypatch):
    # with _TILE at 9, ZH-HMB's sides at D=3 are compared in tiles where
    # m+n >= 3; seed 13 draws six distinct params whose pairs alternate
    # between several tiles and one, each pair a run of its own.  Tiles
    # may round apart from a whole evaluation on the einsum kernel
    want = check_all([3], samples=6, seed=13, rules=["ZH-HMB"])
    monkeypatch.setattr(dg, "_TILE", 9)
    real = dg._tiles
    streams: list = []  # per stream: legs, diagrams and tiles

    def tiles(ds, plan, ctx):
        stream = [ds[0].n_inputs + ds[0].n_outputs, len(ds), 0]
        streams.append(stream)
        for x in real(ds, plan, ctx):
            stream[2] += 1
            yield x

    monkeypatch.setattr(dg, "_tiles", tiles)
    rows = check_all([3], samples=6, seed=13, rules=["ZH-HMB"])
    assert streams == [[n, 1, count] for n, count in [(4, 9), (2, 1), (3, 3), (0, 1), (4, 9), (2, 1)] for _ in "lr"]
    assert [r["params"] for r in rows] == [r["params"] for r in want]
    assert all(r["status"] == "pass" for r in rows)
    for r, w in zip(rows, want, strict=True):
        assert abs(r["max_err"] - w["max_err"]) <= 1e-12


def broken(rid: str, side: int, edit, ctx: MeasureContext) -> list:
    """The sides of ``rid`` with side ``side`` edited through its file: ``"scale"`` drops that box, ``(node, kind)`` swaps a kind."""
    sides = list(instantiate(rid, {}, ctx))
    obj = json.loads(dump_json(sides[side]))
    if edit == "scale":
        del obj["nodes"]["scale"]  # a legless box: its removal leaves the wiring valid
    else:
        obj["nodes"][edit[0]]["kind"] = edit[1]
    sides[side] = dg.from_json_obj(obj)
    return sides


@pytest.mark.parametrize("rid, side, edit", [
    ("ZH-ZPL", 1, "scale"),
    ("ZH-ZPL", 1, ("q0", "white")),
    ("ZH-ZPL", 0, ("z0", "gray")),
    ("ZH-O", 0, ("g0", "white")),
], ids=["ZH-ZPL without its scale", "ZH-ZPL q0 white", "ZH-ZPL z0 gray", "ZH-O g0 white"])
def test_a_broken_wide_pair_still_fails(monkeypatch, rid, side, edit):
    # at D=7 and nu=0.83 the sides are compared as one stacked product a
    # block: a right side without its nu^2 scalar box, or a side with one
    # node's kind swapped (gray and white), fails with the error of the
    # whole sides, within rounding
    ctx = MeasureContext(7, 0.83)
    sides = broken(rid, side, edit, ctx)
    calls = stacked_calls(monkeypatch)
    (err,) = dg.max_abs_diffs([tuple(sides)], ctx)
    whole = [evaluate(d, ctx) for d in sides]
    assert calls == [7]
    assert abs(err - max_abs_diff(*whole)) <= whole_bound(whole)
    assert err > 1e-3 * np.max(np.abs(whole[0].data))


@pytest.mark.parametrize("rid, side, edit", [
    ("ZH-O", 0, "scale"),
    ("ZH-O", 1, ("q0", "gray")),
    ("ZH-ZPL", 0, ("z0", "gray")),
    ("ZH-ZPL", 1, ("w0", "gray")),
], ids=["ZH-O without its scale", "ZH-O q0 gray", "ZH-ZPL z0 gray", "ZH-ZPL w0 gray"])
def test_a_broken_zipped_pair_still_fails(monkeypatch, rid, side, edit):
    # at D=4 and nu=0.83 with tiles of 25 entries, these edits leave the
    # two sides' last merges split apart, so the sides are compared in
    # tiles, and the pair fails with the error of the whole sides, bit
    # for bit
    monkeypatch.setattr(dg, "_TILE", 25)
    ctx = MeasureContext(4, 0.83)
    sides = broken(rid, side, edit, ctx)
    calls = stacked_calls(monkeypatch)
    (err,) = dg.max_abs_diffs([tuple(sides)], ctx)
    whole = [evaluate(d, ctx) for d in sides]
    assert calls == []
    assert err == max_abs_diff(*whole)
    assert err > 1e-3 * np.max(np.abs(whole[0].data))


def test_wide_check_holds_no_whole_side():
    # each side of ZH-O and ZH-ZPL is 6^7 complex entries at D=6 (4.3
    # MiB) and 7^8 at D=7 (88 MiB).  ZH-O's two whole sides peaked at 9.6
    # and 176.3 MiB, one block per value of the first boundary position
    # at D=7 at 40 MiB, and zipped tiles of 6^6 and 7^5 entries at 2.9
    # and 3.9 MiB.  The stacked product peaks at 2.0 and 3.9 MiB, the
    # latter as the left side lays out its 7^6-entry operand
    for rid in ("ZH-O", "ZH-ZPL"):
        for dim in (6, 7):
            ctx = MeasureContext(dim)
            tracemalloc.start()
            try:
                rep = check_soundness(rid, {}, ctx)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert rep["pass"]
            assert peak <= 4 * 2**20, (rid, dim, peak)


def test_only_the_widest_cells_are_tiled(monkeypatch):
    # with default constants, each cell at D=2..7 is compared as one
    # tile a side, but ZH-O's and ZH-ZPL's at D=6 and D=7 (6^7 and 7^8
    # entries a side), whose last merges split alike and which are
    # compared as one stacked product a block; no cell zips tiles
    real = dg._tiles
    paths: dict = {}
    widest = [0]

    def tiles(ds, plan, ctx):
        size = ctx.dim ** (ds[0].n_inputs + ds[0].n_outputs)
        for number, x in enumerate(real(ds, plan, ctx)):
            yield x
        paths[rule, ctx.dim] = "tiles" if number else paths.get((rule, ctx.dim), "one tile")
        widest[0] = max(widest[0], size)

    calls = stacked_calls(monkeypatch)
    monkeypatch.setattr(dg, "_tiles", tiles)
    for rule in sorted(CATALOG):
        for dim in range(2, 8):
            before = len(calls)
            rows = check_all([dim], samples=1, rules=[rule])
            assert all(r["status"] in ("pass", "skip") for r in rows), rule
            if len(calls) > before:
                paths[rule, dim] = "stacked"
    assert 0 < widest[0] <= dg._TILE
    assert {cell: path for cell, path in paths.items() if path != "one tile"} == {
        (rid, dim): "stacked" for rid in ("ZH-O", "ZH-ZPL") for dim in (6, 7)}
    assert len(paths) > 300


def test_a_two_leg_side_past_a_tile_is_compared_in_runs(monkeypatch):
    # at D=300 the sides of ZX-NS with m = n = 1 have 300^2 entries, past
    # one tile, and their last merges split apart; a tile takes a run of
    # 218 values of position 0 (218 * 300 <= 2^16), and then the other
    # 82, not 300 tiles of one value, and the error is the whole sides'
    # to rounding.  ZH-A's sides, whose last merges split alike, are
    # compared in blocks of 218 and then 82 columns, within the same bound
    ctx = MeasureContext(300)
    params = {"theta": 0.5, "m": 1, "n": 1}
    lhs, rhs = instantiate("ZX-NS", params, ctx)
    whole = [evaluate(lhs, ctx), evaluate(rhs, ctx)]
    want = max_abs_diff(*whole)
    real, seen = dg._tiles, []

    def tiles(ds, plan, ctx):
        for x in real(ds, plan, ctx):
            seen.append(x.shape)
            yield x

    monkeypatch.setattr(dg, "_tiles", tiles)
    rep = check_soundness("ZX-NS", params, ctx)
    assert seen == [(218, 300)] * 2 + [(82, 300)] * 2
    assert abs(rep["max_err"] - want) <= 1e-12 * max(np.max(np.abs(t.data)) for t in whole)
    seen.clear()
    calls = stacked_calls(monkeypatch)
    whole = [evaluate(d, ctx) for d in instantiate("ZH-A", {}, ctx)]
    rep = check_soundness("ZH-A", {}, ctx)
    assert seen == [] and calls == [300]
    assert abs(rep["max_err"] - max_abs_diff(*whole)) <= whole_bound(whole)


@pytest.mark.parametrize("nu", [None, 0.83])
def test_stacked_pairs_give_the_whole_sides_error(monkeypatch, nu):
    # the pairs whose last merges split alike, compared as one stacked
    # product a block: among each rule's first draw (seeded as check_all
    # seeds seed 0) at D=3..5 with tiles of 25 entries, ZH-O and ZH-ZPL at
    # D=6 and 7, ZH-NH at D=257, whose right side's operands swap, and
    # ZH-A at D=300, in blocks of columns.  Each error is the whole sides'
    # within 1e-12 times their largest entry, with the same status
    calls = stacked_calls(monkeypatch)
    ids = sorted(CATALOG)
    cells = [(rid, dim, 25) for rid in ids for dim in (3, 4, 5)]
    cells += [(rid, dim, None) for rid in ("ZH-O", "ZH-ZPL") for dim in (6, 7)] + [("ZH-NH", 257, None),
                                                                                    ("ZH-A", 300, None)]
    stacked = []
    for rid, dim, tile in cells:
        spec = CATALOG[rid]
        params = spec.sample(dim, np.random.default_rng([0, ids.index(rid), dim]))
        if params is None:
            continue
        ctx = MeasureContext(dim, nu)
        pair = instantiate(spec, params, ctx)
        with monkeypatch.context() as m:
            m.setattr(dg, "_TILE", tile or dg._TILE)
            before = len(calls)
            (err,) = dg.max_abs_diffs([pair], ctx)
        if len(calls) == before:
            continue
        stacked.append((rid, dim))
        whole = [evaluate(d, ctx) for d in pair]
        want = max_abs_diff(*whole)
        assert abs(err - want) <= whole_bound(whole), (rid, dim)
        assert (err <= 1e-8) == (want <= 1e-8), (rid, dim)
    assert len(stacked) == 16 and stacked[-2:] == [("ZH-NH", 257), ("ZH-A", 300)]
    ctx = MeasureContext(257)
    plans = [dg._checked_plan(d, ctx)[1] for d in instantiate("ZH-NH", CATALOG["ZH-NH"].sample(
        257, np.random.default_rng([0, ids.index("ZH-NH"), 257])), ctx)]
    assert [side[0] for side in dg._alike(*plans, 257)] == [False, True]


# each rule's one-sample outcome (seed 0) past D=64 where it is not a
# pass; ZH-EC's failure at D=97 is ROADMAP item 2's
OUTCOMES_PAST_ONE_TILE = {
    97: {"ZH-O": "skip", "ZH-ZPL": "skip", "ZX-ZSP": "skip", "ZH-UM": "refused", "ZX-RGB": "refused",
         "ZH-EC": "fail"},
    128: {"ZH-O": "skip", "ZH-ZPL": "skip", "ZH-MF": "refused", "ZH-UM": "refused", "ZH-WNS": "refused",
          "ZXH-GW": "refused"},
    257: {"ZH-O": "skip", "ZH-ZPL": "skip", "ZX-ZSP": "skip", "ZH-HWB": "refused", "ZH-MF": "refused",
          "ZH-UM": "refused", "ZH-WGB": "refused", "ZH-WNS": "refused", "ZX-RGB": "refused", "ZX-RGC": "refused",
          "ZXH-GW": "refused"},
}


def test_zh_na_passes_where_a_dense_not_dot_would_be_refused():
    # ZH-NA's left side is one not dot between the boundary: a
    # relabelling, which builds no D x D array, so D=1415 (D^2 past
    # _MAX_DENSE) passes as D=1414 does
    rows = check_all([1415], samples=1, rules=["ZH-NA"])
    assert [r["status"] for r in rows] == ["pass"]


@pytest.mark.parametrize("dim", sorted(OUTCOMES_PAST_ONE_TILE))
def test_the_catalog_past_one_tile_keeps_its_outcomes(monkeypatch, dim):
    # three-leg sides at these D, and two-leg ones at D=257, are compared
    # in tiles that a last merge's blocks give; at D=257 one-factor sides
    # are built whole and their tiles are slices.  Each side wider than a
    # tile runs alone
    real, paths = dg._execute, Counter()

    def recording(steps, layout, ds, ctx, split_last=False):
        out = real(steps, layout, ds, ctx, split_last)
        if len(out) == 2 or np.size(out[0]) > dg._TILE:
            paths["blocks" if len(out) == 2 else "slices", len(ds)] += 1
        return out

    monkeypatch.setattr(dg, "_execute", recording)
    got = {}
    for rid in sorted(CATALOG):
        try:
            (row,) = check_all([dim], samples=1, seed=0, rules=[rid])
            got[rid] = row["status"]
        except OverflowGuardError:
            got[rid] = "refused"
    assert {rid: s for rid, s in got.items() if s != "pass"} == OUTCOMES_PAST_ONE_TILE[dim]
    assert paths == {97: {("blocks", 1): 4}, 128: {("blocks", 1): 6},
                     257: {("blocks", 1): 46, ("slices", 1): 20}}[dim]


def test_tiled_check_keeps_the_whole_side_budget(monkeypatch):
    # tiles never build a whole side, but a pair is still refused by its
    # whole side's size, before any step runs: ZX-RGB with m = n = 2 has
    # rank-4 sides (257^4 entries at D=257), and ZH-O at D=6 (rank 7)
    # passes at a budget of 6^7 entries, bit for bit, and not one below
    def no_step(*args):
        raise AssertionError("a step ran")

    with monkeypatch.context() as m:
        m.setattr(dg, "_execute", no_step)
        with pytest.raises(OverflowGuardError, match="rank 4 at dimension D=257 exceeds 67108864 entries"):
            check_soundness("ZX-RGB", {"m": 2, "n": 2}, MeasureContext(257))
    ctx = MeasureContext(6)
    want = check_soundness("ZH-O", {}, ctx)["max_err"]
    monkeypatch.setattr(dg, "_MAX_RESULT", 6**7)
    rep = check_soundness("ZH-O", {}, ctx)
    assert np.float64(rep["max_err"]).tobytes() == np.float64(want).tobytes()
    monkeypatch.setattr(dg, "_MAX_RESULT", 6**7 - 1)
    with pytest.raises(OverflowGuardError, match="rank 7 at dimension D=6 exceeds 279935 entries"):
        check_soundness("ZH-O", {}, ctx)


def test_a_side_past_the_result_budget_is_refused_before_its_plan(monkeypatch):
    # a plan's widest array is never below its boundary rank, so ZX-MEH at
    # D=10^5 (rank-2 sides of 10^10 entries) is refused on its boundary
    # alone, with the text the plan's own check gives, and no side is
    # planned: planning its D-leg dots took seconds, twice
    def poisoned(*args):
        raise AssertionError("a side was planned")

    monkeypatch.setattr(dg, "_structure", poisoned)
    monkeypatch.setattr(dg, "_plan", poisoned)
    with pytest.raises(OverflowGuardError) as exc:
        check_all([10**5], samples=1, rules=["ZX-MEH"])
    assert str(exc.value) == ("ZX-MEH at D=100000: an array of rank 2 at dimension D=100000 "
                              "exceeds 67108864 entries")


def test_check_all_matrix_default():
    rows = check_all(range(2, 7), samples=5, seed=42)
    assert {r["rule"] for r in rows} == set(ALL_RULE_IDS)
    for r in rows:
        assert set(r) == {"rule", "dim", "sample", "params", "max_err", "status"}
        if r["status"] == "skip":
            assert r["max_err"] is None
        else:
            assert r["status"] == "pass", r
            assert r["max_err"] <= 1e-8
    # divisor-tower rule has no valid parameters below D=8
    zsp = [r for r in rows if r["rule"] == "ZX-ZSP"]
    assert [r["status"] for r in zsp] == ["skip"] * 5
    # deterministic merge order: rule id, then dimension, then sample
    keys = [(r["rule"], r["dim"], r["sample"]) for r in rows]
    assert keys == sorted(keys)


def test_check_all_deterministic_and_jsonable():
    rows1 = check_all([2, 3], samples=2, seed=9)
    rows2 = check_all([2, 3], samples=2, seed=9)
    assert json.dumps(rows1, sort_keys=True) == json.dumps(rows2, sort_keys=True)
    rows3 = check_all([2, 3], samples=2, seed=10)
    assert json.dumps(rows1, sort_keys=True) != json.dumps(rows3, sort_keys=True)


def test_check_all_dim_cap_skips():
    rows = check_all([8], samples=2, seed=0, rules=["ZH-O", "ZH-ZPL"])
    assert rows and all(r["status"] == "skip" for r in rows)
    rows = check_all([8], samples=2, seed=0, rules=["ZX-MEH", "ZH-MEH"])
    assert rows and all(r["status"] == "pass" for r in rows)


def test_check_all_rejects_bad_args():
    with pytest.raises(ValueError):
        check_all([1, 2])
    with pytest.raises(ValueError):
        check_all([2], samples=0)
    with pytest.raises(RewriteError):
        check_all([2], rules=["ZX-NOPE"])


@pytest.mark.parametrize("kwargs, error, match", [
    ({"tol": float("inf")}, ValueError, "^tol must be a positive finite number, got inf$"),
    ({"tol": float("nan")}, ValueError, "^tol must be a positive finite number, got nan$"),
    ({"tol": -1}, ValueError, "^tol must be a positive finite number, got -1$"),
    ({"tol": 0.0}, ValueError, "^tol must be a positive finite number, got 0.0$"),
    ({"tol": "1e-8"}, ValueError, "^tol must be a positive finite number, got '1e-8'$"),
    ({"tol": True}, ValueError, "^tol must be a positive finite number, got True$"),
    ({"samples": True}, TypeError, "^samples must be an integer, got True$"),
    ({"samples": 2.0}, TypeError, "^samples must be an integer, got 2.0$"),
    ({"seed": -1}, ValueError, "^seed must be at least 0, got -1$"),
    ({"seed": True}, TypeError, "^seed must be an integer, got True$"),
    ({"seed": 1.5}, TypeError, "^seed must be an integer, got 1.5$"),
    ({"seed": "1"}, TypeError, "^seed must be an integer, got '1'$"),
    ({"rules": "ZX-GI"}, TypeError, "^rules must be a collection of rule ids, not the str 'ZX-GI'$"),
])
def test_check_all_refuses_bad_arguments_before_anything_is_drawn(monkeypatch, kwargs, error, match):
    # an infinite tol passed every row, a broken rule's too; a NaN, 0 or
    # negative one failed every row; samples=True ran one sample;
    # seed=-1 raised numpy's own error at the first cell, seed=True ran
    # as seed 1, seed=1.5 passed a capped cell, seed="1" raised a bare
    # comparison error; and rules="ZX-GI" was read letter by letter
    def refused(*args):
        raise AssertionError("drew or built a sample")

    monkeypatch.setattr(rw.RuleSpec, "sample", refused)
    monkeypatch.setattr(rw, "instantiate", refused)
    with pytest.raises(error, match=match):
        check_all([3], **{"rules": ["ZX-GI"], **kwargs})
    if "seed" in kwargs:  # a capped cell draws nothing, and is refused too
        with pytest.raises(error, match=match):
            check_all([8], rules=["ZH-O"], **kwargs)
    if "tol" in kwargs:
        with pytest.raises(error, match=match):
            check_soundness("ZX-GI", {}, MeasureContext(3), tol=kwargs["tol"])


def test_check_all_refuses_a_report_past_its_row_cap(monkeypatch):
    # samples x distinct rules x distinct dimensions, refused before
    # anything is drawn; 10^8 samples of one cell used to end in a
    # MemoryError under an 800 MB cap
    def sample(self, dim, rng):
        raise AssertionError("drew a sample")

    monkeypatch.setattr(rw.RuleSpec, "sample", sample)
    start = time.perf_counter()
    for dims, samples, rules, rows in [
        ([2], 10**8, ["ZX-GI"], 10**8),
        ([2, 3, 3], 2**19 + 1, ["ZX-GI", "ZX-GI"], 2**20 + 2),
        (range(2, 7), 3438, None, 3438 * 61 * 5),
    ]:
        with pytest.raises(rw.ReportSizeError) as err:
            check_all(dims, samples=samples, rules=rules)
        assert str(err.value) == f"a report of {rows} rows is more than 1048576"
    assert time.perf_counter() - start < 1
    with pytest.raises(AssertionError, match="drew a sample"):  # the cap itself is allowed
        check_all([2], samples=2**20, rules=["ZX-GI"])


@pytest.mark.parametrize("dim", [2.9, 3.0, "3", True])
def test_check_all_refuses_a_dimension_that_is_not_an_integer(dim):
    # int() would run 2.9 as D=2 and "3" as D=3
    with pytest.raises(TypeError, match="a dimension must be an integer"):
        check_all([dim], samples=1, rules=["ZX-GI"])


def test_check_all_reads_numpy_integer_dimensions():
    rows = check_all(np.arange(2, 4), samples=1, rules=["ZX-GI"])
    assert [type(r["dim"]) for r in rows] == [int, int]
    assert json.dumps(rows) == json.dumps(check_all([2, 3], samples=1, rules=["ZX-GI"]))


@pytest.mark.parametrize("samples", [1, 5])  # checked alone, and in batches
def test_check_all_rows_are_each_samples_own_check(samples):
    # every row holds the error check_soundness gives its sample alone,
    # bit for bit; ZH-O and ZH-ZPL run matmul-size steps at D=5, 6
    rules = ["ZH-HMB", "ZH-ME", "ZH-O", "ZH-ZPL", "ZX-GFP"]
    ids = sorted(CATALOG)
    want = []
    for rid in rules:
        spec = CATALOG[rid]
        for dim in range(2, 7):
            rng = np.random.default_rng([3, ids.index(rid), dim])
            for _ in range(samples):
                params = spec.sample(dim, rng)
                if params is None:
                    want.append((rid, dim, None))
                    break
                want.append((rid, dim, check_soundness(spec, params, MeasureContext(dim))["max_err"]))
    rows = check_all(range(2, 7), samples=samples, seed=3, rules=rules)
    assert [(r["rule"], r["dim"], r["max_err"]) for r in rows] == want


@pytest.mark.parametrize("samples", [1, 2])  # checked alone, and in batches
def test_check_all_refuses_a_comparison_past_the_float_range(monkeypatch, samples):
    # at nu=1e100 each side of ZH-HMB at D=2 carries nu^4, past the float
    # range: a refused cell, not a failing row, and no warning; so is
    # check_soundness of that one pair
    what = r"a side's power of nu, nu\^4 at nu=1e\+100, leaves the float range$"
    spec = CATALOG["ZH-HMB"]
    params = spec.sample(2, np.random.default_rng([0, sorted(CATALOG).index("ZH-HMB"), 2]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowGuardError, match=f"^ZH-HMB at D=2: {what}"):
            check_all([2, 3], samples=samples, nu=1e100, rules=["ZH-HMB"])
        with pytest.raises(OverflowGuardError, match=f"^{what}"):
            check_soundness(spec, params, MeasureContext(2, 1e100))
    # sides whose entries are inf give inf - inf, NaN: refused too
    real = dg._tiles

    def infinite(ds, plan, ctx):
        for x in real(ds, plan, ctx):
            x.flat[0] = np.inf
            yield x

    monkeypatch.setattr(dg, "_tiles", infinite)
    with pytest.raises(OverflowGuardError, match=r"^ZH-HMB at D=2: a side left the float range$"):
        check_all([2, 3], samples=samples, rules=["ZH-HMB"])


def test_a_refused_cell_names_its_first_failing_sample(monkeypatch):
    # sample 3 is refused as it is built, sample 1 only when its right
    # side is evaluated.  The batch builds all five sides before it
    # evaluates any, so sample 3 fails first; the cell still reports
    # sample 1, as when each sample is checked alone
    spec = CATALOG["ZX-GFP"]
    rng = np.random.default_rng([0, sorted(CATALOG).index("ZX-GFP"), 3])
    draws = [spec.sample(3, rng) for _ in range(5)]
    real_instantiate, real_execute = rw.instantiate, dg._execute
    poisoned: list = []

    def instantiate(rule, params, ctx):
        if params == draws[3]:
            raise OverflowGuardError("sample 3 is refused")
        pair = real_instantiate(rule, params, ctx)
        if params == draws[1]:
            poisoned.append(pair[1])
        return pair

    def execute(steps, layout, ds, ctx, split_last=False):
        if any(d is p for d in ds for p in poisoned):
            raise OverflowGuardError("sample 1 is refused")
        return real_execute(steps, layout, ds, ctx, split_last)

    monkeypatch.setattr(rw, "instantiate", instantiate)
    monkeypatch.setattr(dg, "_execute", execute)
    with pytest.raises(OverflowGuardError, match=r"^ZX-GFP at D=3: sample 1 is refused$"):
        check_all([3], samples=5, rules=["ZX-GFP"])


def test_a_refused_cell_names_the_first_sample_of_a_repeated_draw(monkeypatch):
    # ZX-GU at D=3 draws samples 1, 3 and 4 alike.  Sample 2 is refused as
    # it is built, the repeated draw only when its right side is evaluated;
    # the message names the draw object actually checked, and the cell
    # reports sample 1, the first with those params
    real_sample, real_instantiate, real_execute = rw.RuleSpec.sample, rw.instantiate, dg._execute
    drawn: list = []
    poisoned: dict = {}

    def sample(self, dim, rng):
        params = real_sample(self, dim, rng)
        drawn.append(params)
        return params

    def instantiate(rule, params, ctx):
        i = next(i for i, p in enumerate(drawn) if p is params)
        if i == 2:
            raise OverflowGuardError("sample 2 is refused")
        pair = real_instantiate(rule, params, ctx)
        if params == drawn[1]:
            poisoned[id(pair[1])] = (pair[1], i)
        return pair

    def execute(steps, layout, ds, ctx, split_last=False):
        for d in ds:
            if id(d) in poisoned:
                raise OverflowGuardError(f"sample {poisoned[id(d)][1]} is refused")
        return real_execute(steps, layout, ds, ctx, split_last)

    monkeypatch.setattr(rw.RuleSpec, "sample", sample)
    monkeypatch.setattr(rw, "instantiate", instantiate)
    monkeypatch.setattr(dg, "_execute", execute)
    with pytest.raises(OverflowGuardError, match=r"^ZX-GU at D=3: sample 1 is refused$"):
        check_all([3], samples=5, rules=["ZX-GU"])
    assert drawn[1] == drawn[3] == drawn[4] and len({json.dumps(p, sort_keys=True) for p in drawn}) == 3


def test_a_parameter_free_cell_is_checked_once(monkeypatch):
    # ZH-O takes no parameter, so its five draws are one: one pair is
    # built, and each row holds the error check_soundness gives it alone
    real_instantiate = rw.instantiate
    calls = []

    def instantiate(rule, params, ctx):
        calls.append(params)
        return real_instantiate(rule, params, ctx)

    monkeypatch.setattr(rw, "instantiate", instantiate)
    rows = check_all([3], samples=5, rules=["ZH-O"])
    assert calls == [{}]
    alone = check_soundness("ZH-O", {}, MeasureContext(3))["max_err"]
    assert [r["sample"] for r in rows] == [0, 1, 2, 3, 4]
    assert [r["max_err"].hex() for r in rows] == [alone.hex()] * 5


def test_draws_with_the_same_params_build_the_same_sides():
    # check_all checks a draw whose row prints the params of an earlier
    # draw of its cell only once; that is sound because the two build
    # byte-identical sides, over the catalog at D=2..6, both nu
    ids = sorted(CATALOG)
    repeats = 0
    for rule_key, rid in enumerate(ids):
        spec = CATALOG[rid]
        for dim in range(2, 7 if spec.dim_cap is None else min(spec.dim_cap, 6) + 1):
            for nu in (None, 1.0):
                ctx = MeasureContext(dim, nu)
                for seed in range(3):
                    rng = np.random.default_rng([seed, rule_key, dim])
                    sides: dict[str, tuple[str, str]] = {}
                    for _ in range(5):
                        params = spec.sample(dim, rng)
                        if params is None:
                            break
                        key = json.dumps(params_jsonable(params), sort_keys=True)
                        lhs, rhs = instantiate(spec, params, ctx)
                        texts = (dump_json(lhs), dump_json(rhs))
                        if key in sides:
                            repeats += 1
                            assert sides[key] == texts, (rid, dim, nu, seed, key)
                        sides[key] = texts
    assert repeats > 1000


def test_batched_cells_peak_like_one_sample():
    # ZH-O and ZH-ZPL at D=6 have 6^7-entry sides, so they run in batches
    # of one: the cells peak as their worst sample checked alone
    rules = ["ZH-O", "ZH-ZPL"]
    check_all([6], samples=1, rules=rules)  # plans cached, as below
    single = 0
    for rid in rules:
        spec = CATALOG[rid]
        rng = np.random.default_rng([0, sorted(CATALOG).index(rid), 6])
        for _ in range(5):
            params = spec.sample(6, rng)
            tracemalloc.start()
            try:
                check_soundness(spec, params, MeasureContext(6))
                single = max(single, tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    tracemalloc.start()
    try:
        check_all([6], samples=5, rules=rules)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= single + 2 * 2**20


@pytest.mark.parametrize("rid, extra", [("ZX-GF", {"m1": 1, "n1": 1, "m2": 1, "n2": 1}), ("ZH-HM", {})],
                         ids=["ZX-GF", "ZH-HM"])
def test_fusion_rules_pass_on_every_pair_of_explicit_amplitudes(rid, extra):
    # the fused node's amplitude is the Table of pointwise products, and
    # the rule holds, for each pair of the variants that a product once
    # took in closed form
    amps = [One(), Zero(), Phase(0.7), Stab(1, 2), Char(1), UnitPow(1.1 - 0.2j)]
    keys = ("Theta", "Phi") if rid == "ZX-GF" else ("A", "B")
    for dim in range(2, 7):
        ctx = MeasureContext(dim)
        for a in amps:
            for b in amps:
                params = {keys[0]: a, keys[1]: b, **extra}
                _, rhs = instantiate(rid, params, ctx)
                assert [type(g.amp) for g in rhs.nodes.values() if g.amp is not None] == [Table], (a, b)
                row = check_soundness(rid, params, ctx)
                assert row["pass"], (dim, a, b, row)


def test_check_all_holds_one_batch_of_sides(monkeypatch):
    # ZX-GFP draws two real angles, so its 200 draws are distinct; its
    # sides at D=3 have 3^2-entry arrays, so a cap of 72 entries makes
    # batches of 8; at each run no more than one batch of pairs is alive,
    # however many samples the cell has
    monkeypatch.setattr(dg, "_TILE", 8 * 9)
    real_instantiate, real_execute = rw.instantiate, dg._execute
    built: list = []
    sizes, live = [], []

    def instantiate(rule, params, ctx):
        pair = real_instantiate(rule, params, ctx)
        built.extend(weakref.ref(d) for d in pair)
        return pair

    def execute(steps, node_codes, ds, ctx, split_last=False):
        sizes.append(len(ds))
        live.append(sum(ref() is not None for ref in built))
        return real_execute(steps, node_codes, ds, ctx, split_last)

    monkeypatch.setattr(rw, "instantiate", instantiate)
    monkeypatch.setattr(dg, "_execute", execute)
    rows = check_all([3], samples=200, rules=["ZX-GFP"])
    assert [r["status"] for r in rows] == ["pass"] * 200
    assert len(built) == 400 and sizes == [8] * 50
    assert max(live) <= 2 * 8
    # ZX-GI takes no parameter: its 200 draws are one, checked once
    built.clear()
    rows = check_all([3], samples=200, rules=["ZX-GI"])
    assert [r["status"] for r in rows] == ["pass"] * 200
    assert len(built) == 2


@pytest.mark.parametrize("nu", [1.0, 0.7, None])
@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_normalization_free_rules(nu, dim):
    rng = np.random.default_rng([21, dim, int((nu or 0) * 10)])
    ctx = MeasureContext(dim, nu)
    for rid in sorted(FREE_NORMALIZATION_RULES):
        spec = get_rule(rid)
        for _ in range(3):
            params = spec.sample(dim, rng)
            rep = check_soundness(spec, params, ctx, tol=1e-8)
            assert rep["pass"], (rid, dim, nu, params, rep)


@pytest.mark.parametrize("dim", [2, 3])
def test_generic_normalization_whole_catalog(dim):
    # stronger than required: with balancing boxes every rule holds at
    # an arbitrary normalization, not just the seven exact ones
    rows = check_all([dim], samples=2, seed=13, nu=0.83)
    for r in rows:
        assert r["status"] in ("pass", "skip"), r


@pytest.mark.parametrize("dim", [4, 5])  # one even, one odd
def test_parity_sensitive_rules(dim):
    ctx = MeasureContext(dim)
    rng = np.random.default_rng([31, dim])
    for rid in ("ZX-NS", "ZH-WNS", "ZH-EC"):
        spec = get_rule(rid)
        for _ in range(4):
            params = spec.sample(dim, rng)
            rep = check_soundness(spec, params, ctx, tol=1e-8)
            assert rep["pass"], (rid, dim, params, rep)


def test_zero_divisor_pairs_are_the_brute_force_list():
    # the same pairs in the same order, so the same draws from the same rng
    for dim in range(2, 301):
        brute = [(t, tp) for t in range(2, dim) for tp in range(2, t) if rw._zx_zsp_error(t, tp, dim) is None]
        assert rw._zx_zsp_pairs(dim) == brute, dim


def test_zero_divisor_rule_checks_a_large_dimension_quickly():
    # listing every (t, tp) below D took 0.93 s a draw at D=2000
    start = time.perf_counter()
    rows = check_all([20000], samples=1, rules=["ZX-ZSP"])
    assert time.perf_counter() - start < 2
    assert [r["status"] for r in rows] == ["pass"]


def test_zero_divisor_rule_first_valid_dimension():
    rep = check_soundness("ZX-ZSP", {"u": 3, "t": 4, "tp": 2}, MeasureContext(8))
    assert rep["pass"]
    lhs, _ = instantiate("ZX-ZSP", {"u": 3, "t": 4, "tp": 2}, MeasureContext(8))
    val = evaluate(lhs, MeasureContext(8))
    assert abs(complex(val.data)) <= 1e-12
