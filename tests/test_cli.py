"""CLI behavior: exit codes, file round-trips, and deterministic reports."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from quditzx import cli, construct, diagram, gauss, tensor
from quditzx.diagram import DiagramBuilder
from quditzx.generators import Generator, UnitPow
from quditzx.measure import MeasureContext


@pytest.fixture()
def runner():
    return CliRunner()


def write_diagram(path, d):
    path.write_text(diagram.dump_json(d))
    return str(path)


def scalar_box_diagram(dim, *values):
    b = DiagramBuilder(dim)
    for v in values:
        b.node(Generator("hbox", 0, 0, UnitPow(v)))
    return b.build()


# -- info ---------------------------------------------------------------


def test_info_prints_constants(runner):
    res = runner.invoke(cli.main, ["info", "--dim", "4"])
    assert res.exit_code == 0
    assert "window         [-1, 2]" in res.output
    assert "sigma          1" in res.output
    assert "well_tempered  True" in res.output


def test_info_custom_nu(runner):
    res = runner.invoke(cli.main, ["info", "--dim", "5", "--nu", "1.0"])
    assert res.exit_code == 0
    assert "nu             1.0" in res.output
    assert "well_tempered  False" in res.output


def test_info_rejects_small_dim(runner):
    res = runner.invoke(cli.main, ["info", "--dim", "1"])
    assert res.exit_code == 2


def run_fresh_python(*args):
    # a new interpreter, so modules imported by this test session do not count
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


def test_cli_import_leaves_heavy_modules_out():
    proc = run_fresh_python(
        "-c",
        "import sys, quditzx.cli; "
        "print(sorted(m for m in ('sympy', 'numpy.random', 'hashlib') if m in sys.modules))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_module_runs_info():
    proc = run_fresh_python("-m", "quditzx.cli", "info", "--dim", "5")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 8
    assert lines[0] == "dim            5"


# -- eval ---------------------------------------------------------------


def test_eval_empty_diagram_is_one(runner, tmp_path):
    path = write_diagram(tmp_path / "d.json", DiagramBuilder(3).build())
    res = runner.invoke(cli.main, ["eval", path])
    assert res.exit_code == 0
    t = tensor.load_json(res.output)
    assert t.in_legs == 0 and t.out_legs == 0
    assert abs(t.data.reshape(()) - 1.0) < 1e-14


def test_eval_two_scalar_boxes_multiply(runner, tmp_path):
    path = write_diagram(tmp_path / "d.json", scalar_box_diagram(3, 2.0, 3.0))
    res = runner.invoke(cli.main, ["eval", path])
    assert res.exit_code == 0
    t = tensor.load_json(res.output)
    assert abs(t.data.reshape(()) - 6.0) < 1e-14


def test_eval_missing_file_is_usage_error(runner, tmp_path):
    res = runner.invoke(cli.main, ["eval", str(tmp_path / "nope.json")])
    assert res.exit_code == 2


def test_eval_malformed_json_is_usage_error(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    res = runner.invoke(cli.main, ["eval", str(path)])
    assert res.exit_code == 2


def test_eval_writes_readable_output(runner, tmp_path):
    src = write_diagram(tmp_path / "d.json", scalar_box_diagram(4, 5.0))
    out = tmp_path / "t.json"
    res = runner.invoke(cli.main, ["eval", src, "-o", str(out)])
    assert res.exit_code == 0
    t = tensor.load_json(out.read_text())
    assert abs(t.data.reshape(()) - 5.0) < 1e-14


def test_eval_respects_nu(runner, tmp_path):
    # a bare copy dot with no legs integrates to nu^2 * D
    b = DiagramBuilder(3)
    b.node(Generator.white(0, 0))
    path = write_diagram(tmp_path / "d.json", b.build())
    res = runner.invoke(cli.main, ["eval", path, "--nu", "1.0"])
    assert res.exit_code == 0
    t = tensor.load_json(res.output)
    assert abs(t.data.reshape(()) - 3.0) < 1e-12


# -- check --------------------------------------------------------------


def test_check_unknown_rule_is_usage_error(runner):
    res = runner.invoke(cli.main, ["check", "NO-SUCH-RULE", "--dims", "2..2"])
    assert res.exit_code == 2


def test_check_composite_unreachable_rule_skips(runner):
    res = runner.invoke(cli.main, ["check", "ZX-ZSP", "--dims", "5..5"])
    assert res.exit_code == 0
    report = json.loads(res.output)
    assert report["failures"] == 0
    assert report["rows"]
    assert {row["status"] for row in report["rows"]} == {"skip"}


def test_check_nu_independent_rule_at_unit_nu(runner):
    res = runner.invoke(
        cli.main, ["check", "ZH-HM", "--nu", "1.0", "--dims", "2..5"]
    )
    assert res.exit_code == 0
    report = json.loads(res.output)
    assert report["nu"] == 1.0
    assert all(row["status"] == "pass" for row in report["rows"])


def test_check_reports_resolved_default_nu(runner):
    res = runner.invoke(cli.main, ["check", "ZX-GI", "--dims", "4..4"])
    assert res.exit_code == 0
    report = json.loads(res.output)
    assert report["nu"] == "well-tempered"
    assert abs(report["resolved_nu"]["4"] - 4 ** -0.25) < 1e-15


def test_check_absurd_tolerance_fails_with_exit_one(runner):
    res = runner.invoke(
        cli.main, ["check", "ZX-MH", "--dims", "4..4", "--tol", "1e-30"]
    )
    assert res.exit_code == 1
    report = json.loads(res.output)
    assert report["failures"] > 0


def test_check_report_is_byte_identical_across_runs(runner, tmp_path):
    args = ["check", "ZX-GF", "--dims", "2..4", "--seed", "3", "--samples", "4"]
    a = runner.invoke(cli.main, args + ["-o", str(tmp_path / "a.json")])
    b = runner.invoke(cli.main, args + ["-o", str(tmp_path / "b.json")])
    assert a.exit_code == 0 and b.exit_code == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_check_of_widest_rule_is_byte_identical_across_runs(runner):
    # ZH-O's large contraction steps run as matmul; the report must not move
    args = ["check", "ZH-O", "--dims", "5..6", "--seed", "3"]
    a = runner.invoke(cli.main, args)
    b = runner.invoke(cli.main, args)
    assert a.exit_code == 0 and b.exit_code == 0
    assert a.stdout_bytes == b.stdout_bytes


def test_check_zx_zsp_at_d12_passes(runner):
    # seed 1 draws t=4, tp=2 at D=12 unless the rule's domain excludes it
    res = runner.invoke(cli.main, ["check", "ZX-ZSP", "--dims", "12..12", "--seed", "1"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["failures"] == 0


def test_check_rejects_conflicting_dim_flags(runner):
    res = runner.invoke(cli.main, ["check", "--dim", "3", "--dims", "2..4"])
    assert res.exit_code == 2


def test_check_rejects_bad_range_text(runner):
    res = runner.invoke(cli.main, ["check", "--dims", "2..x"])
    assert res.exit_code == 2


def test_check_rejects_nonpositive_tol(runner):
    res = runner.invoke(cli.main, ["check", "ZX-GI", "--dim", "3", "--tol", "0"])
    assert res.exit_code == 2


def test_check_rejects_bad_nu_text(runner):
    res = runner.invoke(cli.main, ["check", "ZX-GI", "--dim", "3", "--nu", "fast"])
    assert res.exit_code == 2


# -- gadget -------------------------------------------------------------


def test_gadget_emit_tensor_matches_closed_form(runner):
    res = runner.invoke(cli.main, ["gadget", "cz", "--dim", "4", "--emit-tensor"])
    assert res.exit_code == 0
    got = tensor.load_json(res.output)
    ctx = MeasureContext(4)
    want = construct.target_tensor(construct.gadget_id("cz"), ctx)
    assert tensor.max_abs_diff(got, want) < 1e-12


def test_gadget_diagram_file_reevaluates_identically(runner, tmp_path):
    out = tmp_path / "cx.json"
    res = runner.invoke(cli.main, ["gadget", "cx", "--dim", "3", "-o", str(out)])
    assert res.exit_code == 0
    d = diagram.load_json(out.read_text())
    ctx = MeasureContext(3)
    got = diagram.evaluate(d, ctx)
    want = construct.target_tensor(construct.gadget_id("cx"), ctx)
    assert tensor.max_abs_diff(got, want) < 1e-9


def test_gadget_with_integer_param(runner):
    res = runner.invoke(
        cli.main,
        ["gadget", "m_mult", "--dim", "5", "--param", "u=2", "--emit-tensor"],
    )
    assert res.exit_code == 0
    got = tensor.load_json(res.output)
    want = construct.target_tensor(construct.gadget_id("m_mult", u=2), MeasureContext(5))
    assert tensor.max_abs_diff(got, want) < 1e-9


def test_gadget_with_complex_param(runner):
    res = runner.invoke(
        cli.main,
        ["gadget", "scalar", "--dim", "3", "--param", "alpha=2+1j", "--emit-tensor"],
    )
    assert res.exit_code == 0
    got = tensor.load_json(res.output)
    assert abs(got.data.reshape(()) - (2 + 1j)) < 1e-9


def test_gadget_unknown_name_is_usage_error(runner):
    res = runner.invoke(cli.main, ["gadget", "warp_drive", "--dim", "3"])
    assert res.exit_code == 2


def test_gadget_invalid_param_is_usage_error(runner):
    res = runner.invoke(
        cli.main, ["gadget", "m_mult", "--dim", "4", "--param", "u=1.5"]
    )
    assert res.exit_code == 2


def test_gadget_wrong_param_name_is_usage_error(runner):
    res = runner.invoke(
        cli.main, ["gadget", "m_mult", "--dim", "4", "--param", "q=2"]
    )
    assert res.exit_code == 2


def test_gadget_malformed_param_syntax_is_usage_error(runner):
    res = runner.invoke(cli.main, ["gadget", "m_mult", "--dim", "5", "--param", "u"])
    assert res.exit_code == 2


# -- normal-form --------------------------------------------------------


def test_normal_form_round_trips_random_tensor(runner, tmp_path):
    rng = np.random.default_rng(11)
    arr = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    t = tensor.Tensor(3, 1, 1, arr)
    src = tmp_path / "t.json"
    src.write_text(tensor.dump_json(t))
    out = tmp_path / "d.json"
    res = runner.invoke(
        cli.main, ["normal-form", "--tensor", str(src), "-o", str(out)]
    )
    assert res.exit_code == 0
    d = diagram.load_json(out.read_text())
    back = diagram.evaluate(d, MeasureContext(3))
    assert tensor.max_abs_diff(back, t) < 1e-10


def test_normal_form_overflow_is_semantic_error(runner, tmp_path):
    # 4^7 coefficient slots exceed the synthesis cap
    arr = np.ones((4,) * 7, dtype=complex)
    t = tensor.Tensor(4, 0, 7, arr)
    src = tmp_path / "t.json"
    src.write_text(tensor.dump_json(t))
    res = runner.invoke(cli.main, ["normal-form", "--tensor", str(src)])
    assert res.exit_code == 3


def test_eval_result_past_size_budget_is_semantic_error(runner, tmp_path, monkeypatch):
    b = DiagramBuilder(2)
    for _ in range(3):
        b.wire("in", "out")
    path = write_diagram(tmp_path / "d.json", b.build())
    monkeypatch.setattr(diagram, "_MAX_RESULT", 2**6 - 1)
    res = runner.invoke(cli.main, ["eval", path])
    assert res.exit_code == 3
    assert "exceeds" in res.stderr


def test_normal_form_refuses_huge_leg_count_as_usage_error(runner, tmp_path):
    src = tmp_path / "t.json"
    src.write_text('{"dim": 3, "in_legs": 1000000000000, "out_legs": 0, "entries": [[1, 0]]}')
    res = runner.invoke(cli.main, ["normal-form", "--tensor", str(src)])
    assert res.exit_code == 2
    assert "legs need more" in res.output


def test_normal_form_bad_input_is_usage_error(runner, tmp_path):
    src = tmp_path / "t.json"
    src.write_text("[1, 2, 3]")
    res = runner.invoke(cli.main, ["normal-form", "--tensor", str(src)])
    assert res.exit_code == 2


@pytest.mark.parametrize(
    "text",
    [
        '{"dim": 3, "in_legs": -1, "out_legs": 1, "entries": [[1, 0]]}',
        '{"dim": 1, "in_legs": 1, "out_legs": 1, "entries": [[1, 0]]}',
    ],
)
def test_normal_form_rejects_bad_shape_as_usage_error(runner, tmp_path, text):
    src = tmp_path / "t.json"
    src.write_text(text)
    res = runner.invoke(cli.main, ["normal-form", "--tensor", str(src)])
    assert res.exit_code == 2
    assert res.output.startswith("Usage")


def test_eval_rejects_unit_dimension_as_usage_error(runner, tmp_path):
    src = tmp_path / "d.json"
    src.write_text('{"dimension": 1, "nodes": {}, "edges": [], "inputs": [], "outputs": []}')
    res = runner.invoke(cli.main, ["eval", str(src)])
    assert res.exit_code == 2
    assert "dimension must be at least 2" in res.output


def hplus_file(dimension="3", legs="2", c=None):
    node = f'"kind": "hplus", "legs": {legs}' if c is None else f'"kind": "not", "legs": {legs}, "c": {c}'
    return (f'{{"dimension": {dimension}, "nodes": {{"h": {{{node}}}}}, "edges": [], '
            '"inputs": ["h:0"], "outputs": ["h:1"]}')


@pytest.mark.parametrize(
    "text, what",
    [
        (hplus_file(dimension="3.9"), "dimension"),
        (hplus_file(dimension="true"), "dimension"),
        (hplus_file(dimension='"3"'), "dimension"),
        (hplus_file(dimension="null"), "dimension"),
        (hplus_file(legs="2.5"), "legs"),
        (hplus_file(legs="false"), "legs"),
        (hplus_file(legs="2", c="1.5"), "c of node"),
        (hplus_file(legs="2", c='"1"'), "c of node"),
    ],
)
def test_eval_rejects_non_integer_fields_as_usage_error(runner, tmp_path, text, what):
    src = tmp_path / "d.json"
    src.write_text(text)
    res = runner.invoke(cli.main, ["eval", str(src)])
    assert res.exit_code == 2
    assert what in res.output and "must be an integer" in res.output


@pytest.mark.parametrize(
    "edges, n_boundary, what",
    [
        ([["in:0", "out:0", "a:0"]], 1, "does not join two ports"),
        ([["a:0"]], 0, "does not join two ports"),
        ([[5, "out:0"]], 1, "bad port reference 5"),
        ([["in:x", "out:0"]], 1, "bad port reference 'in:x'"),
        ([["in:0", None]], 1, "bad port reference None"),
    ],
)
def test_eval_rejects_bad_edges_as_usage_error(runner, tmp_path, edges, n_boundary, what):
    # every other port is wired once, so only the named edge is at fault
    src = tmp_path / "d.json"
    src.write_text(json.dumps({"dimension": 3, "nodes": {"a": {"kind": "white", "legs": 1}},
                               "edges": edges, "inputs": ["in:0"] * n_boundary,
                               "outputs": ["out:0"] * n_boundary}))
    res = runner.invoke(cli.main, ["eval", str(src)])
    assert res.exit_code == 2
    assert res.output.startswith("Usage") and what in res.output


def test_eval_reads_integral_float_fields(runner, tmp_path):
    out = []
    for text in (hplus_file(), hplus_file(dimension="3.0", legs="2.0")):
        src = tmp_path / "d.json"
        src.write_text(text)
        res = runner.invoke(cli.main, ["eval", str(src)])
        assert res.exit_code == 0
        out.append(res.output)
    assert out[0] == out[1]


@pytest.mark.parametrize(
    "text",
    [
        '{"dim": 2.5, "in_legs": 1, "out_legs": 0, "entries": [[1, 0], [0, 0]]}',
        '{"dim": 2, "in_legs": 1.9, "out_legs": 0, "entries": [[1, 0], [0, 0]]}',
        '{"dim": 2, "in_legs": 1, "out_legs": true, "entries": [[1, 0], [0, 0]]}',
        '{"dim": "2", "in_legs": 1, "out_legs": 0, "entries": [[1, 0], [0, 0]]}',
    ],
)
def test_normal_form_rejects_non_integer_shape_as_usage_error(runner, tmp_path, text):
    src = tmp_path / "t.json"
    src.write_text(text)
    res = runner.invoke(cli.main, ["normal-form", "--tensor", str(src)])
    assert res.exit_code == 2
    assert "must be an integer" in res.output


# -- gamma-table --------------------------------------------------------


def test_gamma_table_matches_library(runner):
    res = runner.invoke(cli.main, ["gamma-table", "--dim", "5"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "a,b,D,re,im,magnitude_class"
    assert len(lines) == 1 + (3 * 5) ** 2
    ctx = MeasureContext(5)
    for line in lines[1:]:
        a_s, b_s, d_s, re_s, im_s, label = line.split(",")
        g = gauss.gamma(int(a_s), int(b_s), ctx)
        assert int(d_s) == 5
        assert abs(complex(float(re_s), float(im_s)) - g.value) < 1e-15
        assert label == g.label()


def test_gamma_table_magnitudes_are_zero_or_sqrt_gcd(runner):
    res = runner.invoke(cli.main, ["gamma-table", "--dims", "2..6"])
    assert res.exit_code == 0
    for line in res.output.strip().splitlines()[1:]:
        a_s, b_s, d_s, re_s, im_s, label = line.split(",")
        mag = abs(complex(float(re_s), float(im_s)))
        if label == "zero":
            assert mag < 1e-12
        else:
            t = int(label[len("sqrt_t("):-1])
            assert t == math.gcd(int(b_s), int(d_s))
            assert abs(mag - math.sqrt(t)) < 1e-10


def test_gamma_table_deterministic(runner, tmp_path):
    a = runner.invoke(cli.main, ["gamma-table", "--dims", "2..4", "-o", str(tmp_path / "a.csv")])
    b = runner.invoke(cli.main, ["gamma-table", "--dims", "2..4", "-o", str(tmp_path / "b.csv")])
    assert a.exit_code == 0 and b.exit_code == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
