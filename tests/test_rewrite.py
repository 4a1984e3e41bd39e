"""Rewrite catalog tests: soundness, parameter domains, and application.

Soundness is always judged the same way: build both sides, contract
both sides, compare entrywise.  The builders and the contraction engine
are independent code paths, so agreement is meaningful.  Catalog-level
invariants (id inventory, boundary arities, normalization-free subset)
are frozen here so accidental edits to the rule table fail loudly.
"""

import hashlib
import json
import math

import numpy as np
import pytest

import quditzx.rewrite as rw
import quditzx.tensor as tn
from quditzx.diagram import Diagram, DiagramBuilder, dump_json, evaluate
from quditzx.generators import Char, Generator, One, Phase, Stab
from quditzx.measure import MeasureContext
from quditzx.rewrite import (
    CATALOG,
    NU_ANY_RULES,
    MatchError,
    ParamError,
    RewriteError,
    apply,
    check_all,
    check_soundness,
    get_rule,
    instantiate,
    params_jsonable,
    rule_ids,
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
    assert sorted(rule_ids()) == sorted(ALL_RULE_IDS)
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
        assert spec.param_domain(params, dim)
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
                        assert not spec.param_domain(params, dim)
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
    assert not get_rule("ZX-MH").param_domain({"u": 2}, 4)
    assert get_rule("ZX-MH").param_domain({"u": 3}, 4)
    # every declared parameter of every rule: a bool, a string, or a
    # missing key is a ParamError naming it (D=8 has a ZX-ZSP domain)
    ctx8 = MeasureContext(8)
    for rid in ALL_RULE_IDS:
        spec = get_rule(rid)
        valid = spec.sample(8, np.random.default_rng(0))
        assert spec.param_domain(valid, 8)
        for k in spec.params:
            for bad in (True, False, "1"):
                with pytest.raises(ParamError, match=rf"^{k} must be"):
                    instantiate(spec, {**valid, k: bad}, ctx8)
            with pytest.raises(ParamError, match=rf"^missing parameter\(s\): {k}$"):
                instantiate(spec, {j: v for j, v in valid.items() if j != k}, ctx8)


def test_zh_ec_alpha_accepts_numpy_numbers():
    # like INT and REAL, alpha takes numpy scalars; booleans stay out
    spec = get_rule("ZH-EC")
    for alpha in (np.float32(1.0), np.float64(-0.5), np.int64(2), np.int8(-1), np.complex64(1j)):
        assert spec.param_domain({"alpha": alpha, "m": 1}, 3), alpha
    for alpha in (np.float32(0.0), np.int64(0), np.bool_(True), np.bool_(False), True):
        assert not spec.param_domain({"alpha": alpha, "m": 1}, 3), alpha
    ctx = MeasureContext(3)
    assert check_soundness(spec, {"alpha": np.float32(1.25), "m": 2}, ctx)["pass"]


def test_sampled_params_always_valid():
    rng = np.random.default_rng(5)
    for rid in ALL_RULE_IDS:
        spec = get_rule(rid)
        for dim in (2, 3, 4, 5, 6):
            params = spec.sample(dim, rng)
            if params is not None:
                assert spec.param_domain(params, dim), (rid, dim, params)
    zsp = get_rule("ZX-ZSP")
    for dim in range(2, 49):
        for _ in range(20):
            params = zsp.sample(dim, rng)
            if params is None:
                break
            assert zsp.param_domain(params, dim), (dim, params)


def test_catalog_instances_are_pinned():
    """Sampled parameters and both sides of every rule, byte for byte.

    Each (rule, D) is seeded as check_all seeds it; D=2..9 up to the
    rule's cap, well-tempered and nu=0.83, three samples each.  The
    digest was recorded from the rule table before its parameter kinds
    were declared in one place.
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
    assert pairs == 2838
    assert h.hexdigest() == "d6496e2b147bf81a29d4e459e2165eba5117297a3eb834d5392e48049bcf6dec"


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


@pytest.mark.parametrize("block", [tn._DIFF_BLOCK, 25])
@pytest.mark.parametrize("side", [0, 1])
@pytest.mark.parametrize("entry", [0, -1])
def test_check_soundness_fails_a_nan_side(monkeypatch, block, side, entry):
    # a NaN at the first or last entry of either side, compared in one
    # go or in blocks, is an error that no tolerance passes
    monkeypatch.setattr(tn, "_DIFF_BLOCK", block)
    real = rw.evaluate
    calls: list = []

    def poisoned(d, ctx):
        t = real(d, ctx)
        if len(calls) == side:
            data = t.data.copy()
            data.flat[entry] = np.nan
            t = Tensor(t.dim, t.in_legs, t.out_legs, data)
        calls.append(d)
        return t

    monkeypatch.setattr(rw, "evaluate", poisoned)
    rep = check_soundness("ZH-O", {}, MeasureContext(5), tol=1.0)
    assert len(calls) == 2
    assert math.isnan(rep["max_err"]) and rep["pass"] is False


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
    rows = check_all([8], samples=2, seed=0, rules=["ZX-MEH", "ZH-O", "ZH-ZPL", "ZH-MEH"])
    assert all(r["status"] == "skip" for r in rows)


def test_check_all_rejects_bad_args():
    with pytest.raises(ValueError):
        check_all([1, 2])
    with pytest.raises(ValueError):
        check_all([2], samples=0)
    with pytest.raises(RewriteError):
        check_all([2], rules=["ZX-NOPE"])


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


def test_zero_divisor_rule_first_valid_dimension():
    rep = check_soundness("ZX-ZSP", {"u": 3, "t": 4, "tp": 2}, MeasureContext(8))
    assert rep["pass"]
    lhs, _ = instantiate("ZX-ZSP", {"u": 3, "t": 4, "tp": 2}, MeasureContext(8))
    val = evaluate(lhs, MeasureContext(8))
    assert abs(complex(val.data)) <= 1e-12


# ---------------------------------------------------------------------
# application
# ---------------------------------------------------------------------


def _phase_chain_host(dim=5):
    b = DiagramBuilder(dim)
    p1 = b.node(Generator.green(Phase(0.3), 1, 1), "p1")
    p2 = b.node(Generator.green(Phase(0.5), 1, 1), "p2")
    h = b.node(Generator.hplus(), "h")
    b.wire("in", p1)
    b.wire(p1, p2)
    b.wire(p2, h)
    b.wire(h, "out")
    return b.build()


def test_apply_phase_fusion_preserves_tensor():
    host = _phase_chain_host()
    ctx = MeasureContext(5)
    out = apply(host, "ZX-GFP", {"theta": 0.3, "phi": 0.5}, {"n0": "p1", "n1": "p2"}, ctx)
    assert "p1" not in out.nodes and "p2" not in out.nodes and "h" in out.nodes
    fused = [g for name, g in out.nodes.items() if name.startswith("rw.")]
    assert len(fused) == 1 and fused[0].amp == Phase(0.8)
    assert max_abs_diff(evaluate(host, ctx), evaluate(out, ctx)) <= 1e-10


def test_apply_wire_rhs_rewires_through():
    b = DiagramBuilder(5)
    g = b.node(Generator.green(One(), 1, 1), "gid")
    p = b.node(Generator.green(Phase(1.1), 1, 1), "p")
    b.wire("in", g)
    b.wire(g, p)
    b.wire(p, "out")
    host = b.build()
    ctx = MeasureContext(5)
    out = apply(host, "ZX-GI", {}, {"n0": "gid"}, ctx)
    assert sorted(out.nodes) == ["p"]
    assert max_abs_diff(evaluate(host, ctx), evaluate(out, ctx)) <= 1e-12


def test_apply_self_loop_becomes_free_loop():
    # tracing out an identity dot leaves a scalar loop worth D
    b = DiagramBuilder(5)
    g = b.node(Generator.green(One(), 1, 1), "gloop")
    b.wire((g, 0), (g, 1))
    b.wire("in", "out")
    host = b.build()
    ctx = MeasureContext(5)
    out = apply(host, "ZX-GI", {}, {"n0": "gloop"}, ctx)
    assert any(name.startswith("rw.loop") for name in out.nodes)
    assert max_abs_diff(evaluate(host, ctx), evaluate(out, ctx)) <= 1e-12


def test_apply_free_loop_name_avoids_host_names():
    b = DiagramBuilder(5)
    g = b.node(Generator.green(One(), 1, 1), "gloop")
    b.wire((g, 0), (g, 1))
    w = b.node(Generator.green(Phase(0.4), 1, 1), "rw.loop0")
    b.wire("in", w)
    b.wire(w, "out")
    host = b.build()
    ctx = MeasureContext(5)
    out = apply(host, "ZX-GI", {}, {"n0": "gloop"}, ctx)
    assert out.nodes["rw.loop0"] == host.nodes["rw.loop0"]
    (loop,) = set(out.nodes) - {"rw.loop0"}
    assert loop.startswith("rw.loop") and out.nodes[loop] == Generator.white(1, 1)
    free = Diagram(5, {loop: out.nodes[loop]}, (((loop, 0), (loop, 1)),), 0, 0)
    assert abs(complex(evaluate(free, ctx).data) - 5) < 1e-12
    assert max_abs_diff(evaluate(host, ctx), evaluate(out, ctx)) <= 1e-12


def test_apply_disconnecting_rule():
    # copying a char state through a branch dot splits the diagram
    ctx = MeasureContext(3)
    b = DiagramBuilder(3)
    r = b.node(Generator.red(Char(1), 0, 1), "st")
    g = b.node(Generator.green(One(), 1, 2), "br")
    b.wire(r, (g, 0))
    b.wire((g, 1), "out")
    b.wire((g, 2), "out")
    host = b.build()
    out = apply(host, "ZX-CPY", {"a": 1, "n": 2}, {"r0": "st", "g0": "br"}, ctx)
    assert len(out.nodes) == 2
    assert all(g.kind == "red" for g in out.nodes.values())
    assert max_abs_diff(evaluate(host, ctx), evaluate(out, ctx)) <= 1e-12


@pytest.mark.parametrize("nu", [None, 0.7])
def test_apply_mode_matches_context(nu):
    ctx = MeasureContext(4, nu)
    b = DiagramBuilder(4)
    h1 = b.node(Generator.hplus(), "a")
    h2 = b.node(Generator.hminus(), "b")
    p = b.node(Generator.green(Phase(0.9), 1, 1), "p")
    b.wire("in", h1)
    b.wire(h1, h2)
    b.wire(h2, p)
    b.wire(p, "out")
    host = b.build()
    out = apply(host, "ZX-HI", {}, {"n0": "a", "n1": "b"}, ctx)
    assert max_abs_diff(evaluate(host, ctx), evaluate(out, ctx)) <= 1e-10
    has_box = any(name.endswith("scale") for name in out.nodes)
    assert has_box == (nu is not None)


def test_apply_inner_rule_in_larger_host():
    # double negation collapse inside a longer chain
    ctx = MeasureContext(6)
    b = DiagramBuilder(6)
    pre = b.node(Generator.hplus(), "pre")
    n1 = b.node(Generator.not_dot(2), "x1")
    n2 = b.node(Generator.not_dot(5), "x2")
    post = b.node(Generator.green(Phase(0.2), 1, 1), "post")
    b.wire("in", pre)
    b.wire(pre, n1)
    b.wire(n1, n2)
    b.wire(n2, post)
    b.wire(post, "out")
    host = b.build()
    out = apply(host, "ZH-ND", {"c1": 2, "c2": 5}, {"n0": "x1", "n1": "x2"}, ctx)
    assert max_abs_diff(evaluate(host, ctx), evaluate(out, ctx)) <= 1e-10
    kinds = sorted(g.kind for g in out.nodes.values())
    assert "gray" in kinds and "not" in kinds


def test_apply_error_reports_first_failure():
    host = _phase_chain_host()
    ctx = MeasureContext(5)
    ok = {"theta": 0.3, "phi": 0.5}
    with pytest.raises(MatchError, match="missing bindings"):
        apply(host, "ZX-GFP", ok, {"n0": "p1"}, ctx)
    with pytest.raises(MatchError, match="unknown left-side"):
        apply(host, "ZX-GFP", ok, {"n0": "p1", "n1": "p2", "zz": "h"}, ctx)
    with pytest.raises(MatchError, match="no node named"):
        apply(host, "ZX-GFP", ok, {"n0": "p1", "n1": "ghost"}, ctx)
    with pytest.raises(MatchError, match="same host node"):
        apply(host, "ZX-GFP", ok, {"n0": "p1", "n1": "p1"}, ctx)
    with pytest.raises(MatchError, match="kind"):
        apply(host, "ZX-GFP", ok, {"n0": "p1", "n1": "h"}, ctx)
    with pytest.raises(MatchError, match="label/amplitude"):
        apply(host, "ZX-GFP", {"theta": 0.3, "phi": 0.9}, {"n0": "p1", "n1": "p2"}, ctx)
    with pytest.raises(MatchError, match="dimension"):
        apply(host, "ZX-GFP", ok, {"n0": "p1", "n1": "p2"}, MeasureContext(4))


def test_apply_checks_internal_wiring():
    # two dots with matching labels that are not actually adjacent
    b = DiagramBuilder(5)
    p1 = b.node(Generator.green(Phase(0.3), 1, 1), "p1")
    h = b.node(Generator.hplus(), "h")
    p2 = b.node(Generator.green(Phase(0.5), 1, 1), "p2")
    b.wire("in", p1)
    b.wire(p1, h)
    b.wire(h, p2)
    b.wire(p2, "out")
    host = b.build()
    with pytest.raises(MatchError, match="internal wire"):
        apply(host, "ZX-GFP", {"theta": 0.3, "phi": 0.5}, {"n0": "p1", "n1": "p2"}, MeasureContext(5))


def test_apply_checks_arity():
    b = DiagramBuilder(5)
    g = b.node(Generator.green(One(), 1, 2), "big")
    b.wire("in", g)
    b.wire(g, "out")
    b.wire(g, "out")
    host = b.build()
    with pytest.raises(MatchError, match="arity"):
        apply(host, "ZX-GI", {}, {"n0": "big"}, MeasureContext(5))


def test_apply_rejects_extra_wire_between_matched_nodes():
    # a second wire between the matched dots has no rule counterpart;
    # with both dots 1->1 this shows up as an arity mismatch
    b = DiagramBuilder(5)
    p1 = b.node(Generator.green(Phase(0.3), 1, 2), "p1")
    p2 = b.node(Generator.green(Phase(0.5), 2, 1), "p2")
    b.wire("in", p1)
    b.wire((p1, 1), (p2, 0))
    b.wire((p1, 2), (p2, 1))
    b.wire((p2, 2), "out")
    host = b.build()
    with pytest.raises(MatchError):
        apply(host, "ZX-GFP", {"theta": 0.3, "phi": 0.5}, {"n0": "p1", "n1": "p2"}, MeasureContext(5))


def test_apply_random_rule_instances_preserve_semantics():
    # splice each rule's own left side into a small host, rewrite, and
    # compare against the right side composed the same way
    rng = np.random.default_rng(77)
    dim = 4
    ctx = MeasureContext(dim)
    for rid in ("ZX-RGC", "ZH-GWC", "ZH-MF", "ZH-HWB", "ZX-NS", "ZH-GF"):
        spec = get_rule(rid)
        params = spec.sample(dim, rng)
        lhs, _ = instantiate(spec, params, ctx)
        anchor = {name: name for name in lhs.nodes}
        out = apply(lhs, spec, params, anchor, ctx)
        err = max_abs_diff(evaluate(lhs, ctx), evaluate(out, ctx))
        assert err <= 1e-8, (rid, params, err)
