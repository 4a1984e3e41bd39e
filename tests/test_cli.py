"""CLI behavior: exit codes, file round-trips, and deterministic reports."""

import contextlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import quditzx
from quditzx import cli, construct, diagram, gauss, rewrite, tensor
from quditzx.diagram import DiagramBuilder
from quditzx.generators import Generator, Table, UnitPow
from quditzx.measure import MeasureContext


@dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str
    output: str  # stdout and stderr, interleaved as written

    @property
    def stdout_bytes(self) -> bytes:
        return self.stdout.encode()


class Capture(io.StringIO):
    """A text stream that also appends each write to a log shared with another."""

    def __init__(self, log):
        super().__init__()
        self.log = log

    def write(self, text):
        self.log.append(text)
        return super().write(text)


class Runner:
    """Runs ``main(args)`` in this process with stdout and stderr captured."""

    def invoke(self, main, args):
        log = []
        out, err = Capture(log), Capture(log)
        code = 0
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                main(args)
            except SystemExit as exc:
                code = 0 if exc.code is None else exc.code
        return Result(code, out.getvalue(), err.getvalue(), "".join(log))

    @contextlib.contextmanager
    def isolated_filesystem(self, temp_dir):
        """Run the block in a new directory under ``temp_dir``."""
        cwd = os.getcwd()
        os.chdir(tempfile.mkdtemp(dir=temp_dir))
        try:
            yield
        finally:
            os.chdir(cwd)


@pytest.fixture()
def runner():
    return Runner()


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


def test_info_past_the_float_range_is_a_semantic_error(runner):
    res = runner.invoke(cli.main, ["info", "--dim", "3", "--nu", "1e200"])
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr == "info failed: the total measure D * nu^2 leaves the float range at D=3, nu=1e+200\n"


def test_info_with_an_underflowed_total_measure_is_a_semantic_error(runner):
    # D * nu^2 underflows to 0, which info used to print with exit 0
    res = runner.invoke(cli.main, ["info", "--dim", "3", "--nu", "1e-320"])
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr == "info failed: the total measure D * nu^2 leaves the float range at D=3, nu=1e-320\n"


_HUGE_DIM = "1" + "0" * 400  # a 1,329-bit integer, past float; its square is too


@pytest.mark.parametrize("args, head", [(["info", "--dim", _HUGE_DIM], "info failed"),
                                        (["check", "ZX-GI", "--dim", _HUGE_DIM, "--samples", "1"], "check failed"),
                                        (["info", "--dim", "1" + "0" * 200], "info failed")])
def test_a_dimension_past_the_float_range_is_a_semantic_error(runner, args, head):
    # these used to exit 1 with "OverflowError: int too large to convert to float"
    res = runner.invoke(cli.main, args)
    assert res.exit_code == 3
    assert res.stdout == ""
    bits = int(args[args.index("--dim") + 1]).bit_length()
    assert res.stderr == f"{head}: D^2 for a {bits}-bit dimension D leaves the float range\n"


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
        "print(sorted(m for m in ('sympy', 'click', 'numpy', 'hashlib') if m in sys.modules))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def loaded_modules(*args):
    """The ``quditzx`` modules, and ``numpy`` if loaded, a fresh interpreter holds after the command ``args``."""
    code = ("import atexit, sys; atexit.register(lambda: print(*("
            "m for m in sys.modules if m.startswith('quditzx') or m == 'numpy'), file=sys.stderr)); "
            "from quditzx.cli import main; main(sys.argv[1:])")
    proc = run_fresh_python("-c", code, *args)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.splitlines()[-1].split())


def test_package_import_loads_no_submodule():
    proc = run_fresh_python(
        "-c", "import sys, quditzx; print([m for m in sys.modules if m.startswith('quditzx.')])"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_each_command_imports_only_what_it_runs(tmp_path):
    # info and gamma-table compute scalars only, so they never import numpy
    base = {"quditzx", "quditzx.cli", "quditzx.measure"}
    assert loaded_modules("info", "--dim", "5") == base
    assert loaded_modules("gamma-table", "--dim", "3") == base | {"quditzx.gauss"}
    gadget, tensor_file = tmp_path / "g.json", tmp_path / "t.json"
    for args in (("gadget", "cz", "--dim", "3", "-o", str(gadget)),
                 ("gadget", "cz", "--dim", "3", "--emit-tensor", "-o", str(tensor_file)),
                 ("normal-form", "--tensor", str(tensor_file))):
        mods = loaded_modules(*args)
        assert "quditzx.construct" in mods and "quditzx.rewrite" not in mods, args
        assert "numpy" in mods, args
    mods = loaded_modules("eval", str(gadget))
    assert "quditzx.diagram" in mods and not mods & {"quditzx.rewrite", "quditzx.construct"}
    assert "numpy" in mods
    mods = loaded_modules("check", "ZX-GF", "--dim", "3")
    assert "quditzx.rewrite" in mods and "quditzx.construct" not in mods
    assert "numpy" in mods


def test_package_names_resolve_to_their_home_modules():
    # the home module is where each name is defined (CATALOG, a dict, has no __module__)
    for name in quditzx.__all__:
        home = importlib.import_module(f"quditzx.{quditzx._HOMES[name]}")
        obj = getattr(quditzx, name)
        assert obj is getattr(home, name), name
        assert getattr(obj, "__module__", home.__name__) == home.__name__, name
    with pytest.raises(AttributeError, match="no attribute 'rewrite_all'"):
        quditzx.__getattr__("rewrite_all")
    assert not hasattr(quditzx, "rewrite_all")
    assert quditzx.__getattr__("diagram") is diagram  # the submodules the eager imports loaded


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


def test_check_past_a_node_size_limit_is_semantic_error(runner):
    # ZH-UM's degree-4 H-box has 38^4 entries, past the dense limit
    res = runner.invoke(cli.main, ["check", "--dims", "38..38", "--samples", "1"])
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr == "check failed: ZH-UM at D=38: node 'h0': hbox of degree 4 too large at D=38\n"


@pytest.mark.parametrize("nu, what", [
    ("1e-100", "D * nu^4 = 0.0 leaves the float range"),
    ("1e100", "a balancing scalar, a power of nu, leaves the float range at nu=1e+100"),
])
def test_check_at_an_extreme_nu_is_a_semantic_error(runner, nu, what):
    # D * nu^4 underflows to 0 or overflows: the first cell to need it is named
    res = runner.invoke(cli.main, ["check", "--dims", "2..3", "--samples", "1", "--nu", nu])
    assert res.exit_code == 3, res.output
    assert res.stdout == ""
    assert res.stderr == f"check failed: ZH-DH at D=2: {what}\n"


@pytest.mark.parametrize("args, what", [
    (["--dims", "2..3", "--samples", "1", "--nu", "1e50"],
     "ZH-GWC at D=3: a balancing scalar, a power of nu, leaves the float range at nu=1e+50"),
    (["ZH-WQS", "--dim", "3", "--nu", "1e-200"], "ZH-WQS at D=3: the balancing scalar 0j leaves the float range"),
])
def test_check_names_a_balancing_scalar_past_the_float_range(runner, args, what):
    # D * nu^4 is finite at nu=1e50, but its square is not; ZH-WQS's
    # nu^2 is 0 at nu=1e-200
    res = runner.invoke(cli.main, ["check", *args])
    assert res.exit_code == 3, res.output
    assert res.stdout == ""
    assert res.stderr == f"check failed: {what}\n"


def test_check_refuses_a_comparison_past_the_float_range():
    # each side of ZH-HMB at D=2 carries nu^4, which is past the float
    # range at this nu: a refused cell, not a failing row with "max_err":
    # NaN (which is not JSON), and no RuntimeWarning
    proc = run_fresh_python("-m", "quditzx.cli", "check", "ZH-HMB", "--dims", "2..3", "--samples", "1",
                            "--nu", "1e100")
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == ("check failed: ZH-HMB at D=2: a side's power of nu, nu^4 at nu=1e+100, "
                           "leaves the float range\n")


def test_check_names_the_refused_cell(runner):
    # seed 0 draws a ZH-EC alpha whose power at D=32 leaves the float range
    res = runner.invoke(cli.main, ["check", "--dims", "32..32", "--samples", "1"])
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr.startswith("check failed: ZH-EC at D=32: a factor entry is out of range: a power of UnitPow(")


def test_check_passes_a_cell_whose_factor_once_left_the_float_range(runner):
    # the draw at D=720 has a green dot of 572 legs whose nu^(2-572) is
    # about 1e814, which was refused while each factor carried its own
    # power of nu; built at nu=1, each side carries nu^4 in all, and the
    # cell passes
    res = runner.invoke(cli.main, ["check", "ZX-MH", "--dim", "720"])
    assert res.exit_code == 0, res.output
    assert res.stderr == ""
    report = json.loads(res.stdout)
    assert report["failures"] == 0
    assert [(r["sample"], r["status"]) for r in report["rows"]] == [(k, "pass") for k in range(5)]


NON_FINITE = ["nan", "inf", "-inf", "1e400"]
FLOAT_OPTIONS = [
    (["check", "ZH-HM", "--dims", "2..2"], "--nu"),
    (["check", "ZH-HM", "--dims", "2..2"], "--tol"),
    (["eval", "missing.json"], "--nu"),
    (["gadget", "cz", "--dim", "3"], "--nu"),
    (["normal-form", "--tensor", "missing.json"], "--nu"),
    (["info", "--dim", "3"], "--nu"),
]


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("args,option", FLOAT_OPTIONS, ids=[f"{a[0]}{o}" for a, o in FLOAT_OPTIONS])
def test_non_finite_float_option_is_usage_error(runner, args, option, value):
    # refused before any input is read or any cell runs, naming the option
    res = runner.invoke(cli.main, [*args, f"{option}={value}"])
    assert res.exit_code == 2, res.output
    assert res.stdout == ""
    assert f"error: {option} must be a finite number" in res.stderr


@pytest.mark.parametrize("value", NON_FINITE + ["nanj", "1-infj"])
def test_non_finite_param_is_usage_error(runner, value):
    res = runner.invoke(cli.main, ["gadget", "scalar", "--dim", "3", "--param", f"alpha={value}", "--emit-tensor"])
    assert res.exit_code == 2, res.output
    assert res.stdout == ""
    assert f"error: --param alpha must be a finite number, got {value!r}" in res.stderr


def test_integer_param_past_the_float_range_is_usage_error(runner):
    res = runner.invoke(cli.main, ["gadget", "scalar", "--dim", "3", "--param", f"alpha={10**400}", "--emit-tensor"])
    assert res.exit_code == 2, res.output
    assert "parameter alpha must be a finite number, got an integer of 1329 bits" in res.stderr


def test_gadget_amplitude_param_that_is_a_number_is_usage_error(runner):
    res = runner.invoke(cli.main, ["gadget", "diag_theta", "--dim", "3", "--param", "amp=5"])
    assert res.exit_code == 2, res.output
    assert res.stdout == ""
    assert "error: gadget 'diag_theta' parameter amp=5 must be an amplitude function" in res.stderr


@pytest.mark.parametrize("amp", ['{"type": "phase", "theta": NaN}', '{"type": "unit", "re": 1e400, "im": 0}',
                                 '{"type": "phasevec", "thetas": [0, -Infinity, 1]}'])
def test_non_finite_param_amplitude_is_usage_error(runner, amp):
    res = runner.invoke(cli.main, ["gadget", "diag_theta", "--dim", "3", "--param", f"amp={amp}"])
    assert res.exit_code == 2, res.output
    assert res.stdout == ""
    assert "amplitude field" in res.stderr and "value must be a finite number" in res.stderr


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_non_finite_amplitude_in_a_diagram_file_is_usage_error(runner, tmp_path, value):
    path = tmp_path / "d.json"
    path.write_text('{"dimension": 3, "nodes": {"p": {"kind": "green", "legs": 1, '
                    f'"amp": {{"type": "phase", "theta": {value}}}}}}}, "outputs": ["p:0"]}}')
    res = runner.invoke(cli.main, ["eval", str(path)])
    assert res.exit_code == 2, res.output
    assert res.stdout == ""
    assert "node 'p': phase amplitude field 'theta': value must be a finite number" in res.stderr


BAD_NODES = [
    ({"kind": ["white"], "legs": 2}, "node 'x': unknown generator kind ['white']"),
    ({"kind": {"white": 1}, "legs": 2}, "node 'x': unknown generator kind {'white': 1}"),
    ({"kind": 1, "legs": 2}, "node 'x': unknown generator kind 1"),
    ({"kind": "white", "legs": True}, "legs of node 'x' must be an integer, got True"),
    ({"kind": "white", "legs": 2.5}, "legs of node 'x' must be an integer, got 2.5"),
    ({"kind": "white", "legs": "2"}, "legs of node 'x' must be an integer, got '2'"),
    ({"kind": "white", "legs": 2, "c": 1}, "node 'x': only a 'not' node takes a 'c'"),
    ({"kind": "hplus", "legs": 2, "c": 0}, "node 'x': only a 'not' node takes a 'c'"),
    ({"kind": ["not"], "legs": 2, "c": 1}, "node 'x': only a 'not' node takes a 'c'"),
]


@pytest.mark.parametrize("node,message", BAD_NODES, ids=[json.dumps(n) for n, _ in BAD_NODES])
def test_bad_node_in_a_diagram_file_is_usage_error(runner, tmp_path, node, message):
    # after a good amplitude-free node, so the bad one meets the loader's
    # shared generators; an unhashable kind is refused by name, not a TypeError
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"dimension": 3, "nodes": {"w": {"kind": "white", "legs": 2}, "x": node},
                                "edges": [["w:0", "w:1"], ["x:0", "x:1"]]}))
    res = runner.invoke(cli.main, ["eval", str(path)])
    assert res.exit_code == 2, res.output
    assert res.stdout == ""
    assert res.stderr.endswith(f"d.json': {message}\n")


@pytest.mark.parametrize("entry", ["[1e400, 0]", "[0, NaN]", "[-Infinity, 0]", '["x"]'])
def test_non_finite_tensor_file_entry_is_usage_error(runner, tmp_path, entry):
    src, out = tmp_path / "t.json", tmp_path / "nf.json"
    src.write_text(f'{{"dim": 2, "in_legs": 1, "out_legs": 0, "entries": [[1, 0], {entry}]}}')
    res = runner.invoke(cli.main, ["normal-form", "--tensor", str(src), "-o", str(out)])
    assert res.exit_code == 2, res.output
    assert "entry 1 must be a pair of finite real numbers" in res.stderr
    assert not out.exists()


def test_a_non_finite_result_is_a_semantic_error(runner, tmp_path):
    # every factor is finite; the product of the two boxes, 1e400, is not
    res = runner.invoke(cli.main, ["eval", write_diagram(tmp_path / "d.json", scalar_box_diagram(3, 1e200, 1e200))])
    assert res.exit_code == 3, res.output
    assert res.stdout == ""
    assert res.stderr.startswith("evaluation failed: entry 0 of the tensor is not finite: ")
    # the hbox of 1.7e308 times nu^2 was refused as it was built, but the
    # gadget's nu powers cancel (two white dots' nu^-1, the box's nu^2):
    # built at nu=1, its tensor is in range, with no warning
    amp = 'amp={"type": "unit", "re": 1.7e308, "im": 0}'
    proc = run_fresh_python("-m", "quditzx.cli", "gadget", "diag_a2", "--dim", "2", "--nu", "2", "--param", amp,
                            "--emit-tensor")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["entries"][-1] == [1.7e308, 0.0]
    # a factor entry past the float range, a red dot's weight 3e308, is refused as it is built, and named
    b = DiagramBuilder(3)
    b.wire(b.node(Generator.red(Table([1e308] * 3), 0, 1), "r"), "out")
    res = runner.invoke(cli.main, ["eval", write_diagram(tmp_path / "r.json", b.build())])
    assert res.exit_code == 3, res.output
    assert res.stdout == ""
    assert res.stderr == ("evaluation failed: a factor entry is out of range: node 'r': red of degree 1 "
                          "leaves the float range at D=3\n")


def test_eval_of_a_legless_dot_past_the_float_range_is_a_semantic_error(runner, tmp_path):
    # each entry is finite; their sum is not
    b = DiagramBuilder(3)
    b.node(Generator.green(Table([1e308] * 3), 0, 0))
    res = runner.invoke(cli.main, ["eval", write_diagram(tmp_path / "d.json", b.build())])
    assert res.exit_code == 3, res.output
    assert res.stdout == ""
    assert res.stderr == ("evaluation failed: a factor entry is out of range: "
                          "the weight of a legless green dot leaves the float range\n")


@pytest.mark.parametrize("entry, nu, what", [("[1, 0]", "1e-200", "nu^-2 = 1e-200^-2 leaves the float range"),
                                             ("[1.7e308, 0]", "0.1", "entry 3 times nu^-2 leaves the float range")])
def test_normal_form_past_the_float_range_is_a_semantic_error(runner, tmp_path, entry, nu, what):
    # a selector amplitude is entry * nu^-(m+n); the diagram file must not hold an infinity
    src = tmp_path / "t.json"
    src.write_text(f'{{"dim": 2, "in_legs": 1, "out_legs": 1, "entries": [[1, 0], [0, 0], [0, 0], {entry}]}}')
    res = runner.invoke(cli.main, ["normal-form", "--tensor", str(src), "--nu", nu])
    assert res.exit_code == 3, res.output
    assert res.stdout == ""
    assert res.stderr.startswith(f"normal form too large: {what}")


def test_check_rejects_conflicting_dim_flags(runner):
    res = runner.invoke(cli.main, ["check", "--dim", "3", "--dims", "2..4"])
    assert res.exit_code == 2


def test_check_rejects_bad_range_text(runner):
    res = runner.invoke(cli.main, ["check", "--dims", "2..x"])
    assert res.exit_code == 2


@pytest.mark.parametrize("command", ["check", "gamma-table"])
@pytest.mark.parametrize("hi", ["999999999999", "99999999999999999999"])
def test_a_dimension_range_too_long_to_hold_is_a_usage_error(runner, command, hi):
    # refused by its count before the list is built: it used to end in a
    # MemoryError or an OverflowError traceback
    res = runner.invoke(cli.main, [command, "--dims", f"2..{hi}"])
    assert res.exit_code == 2
    assert f"dimension range 2..{hi} holds {int(hi) - 1} dimensions, more than 65536" in res.stderr
    assert res.stdout == ""


def test_check_rejects_nonpositive_tol(runner):
    res = runner.invoke(cli.main, ["check", "ZX-GI", "--dim", "3", "--tol", "0"])
    assert res.exit_code == 2


def test_check_rejects_bad_nu_text(runner):
    res = runner.invoke(cli.main, ["check", "ZX-GI", "--dim", "3", "--nu", "fast"])
    assert res.exit_code == 2


def test_check_rejects_a_negative_seed(runner):
    res = runner.invoke(cli.main, ["check", "ZX-GI", "--dims", "2..2", "--seed", "-1"])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "--seed must be at least 0" in res.stderr


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


def test_gadget_with_huge_integer_param(runner):
    # labels past int64 reduce to their residue: 10^23 = 1 and 2^62 + 1 = 2 mod 3
    def emit(a):
        args = ["gadget", "ket_omega_a", "--dim", "3", "--param", f"a={a}", "--emit-tensor"]
        res = runner.invoke(cli.main, args)
        assert res.exit_code == 0, res.output
        return res.output

    assert emit(10**23) == emit(1) != emit(2) == emit(2**62 + 1)
    assert emit(-(10**23)) == emit(-1)


def test_gadget_with_complex_param(runner):
    res = runner.invoke(
        cli.main,
        ["gadget", "scalar", "--dim", "3", "--param", "alpha=2+1j", "--emit-tensor"],
    )
    assert res.exit_code == 0
    got = tensor.load_json(res.output)
    assert abs(got.data.reshape(()) - (2 + 1j)) < 1e-9


@pytest.mark.parametrize("emit", [["-o", "g.json"], ["--emit-tensor"]], ids=["diagram", "tensor"])
def test_gadget_checks_amplitudes_against_dim(runner, tmp_path, emit):
    amp = '{"type": "phasevec", "thetas": [0.1]}'
    with runner.isolated_filesystem(temp_dir=tmp_path):
        res = runner.invoke(cli.main, ["gadget", "diag_theta", "--dim", "3", "--param", f"amp={amp}", *emit])
        assert res.exit_code == 2
        assert "--param amp: PhaseVec has 1 angles but D=3" in res.output
        assert not os.path.exists("g.json") and res.stdout == ""


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


def test_gadget_m_mult_past_the_wire_cap_is_usage_error(runner):
    # one parallel wire per unit of |u|: this u would ask for 10^20 wires
    start = time.perf_counter()
    res = runner.invoke(cli.main, ["gadget", "m_mult", "--dim", "4", "--param", "u=-99999999999999999999"])
    assert time.perf_counter() - start < 2
    assert res.exit_code == 2
    assert "parameter u" in res.stderr and res.stdout == ""


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


def test_eval_huge_dimension_is_refused_by_name(runner, tmp_path):
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"dimension": 10**30, "nodes": {"w": {"kind": "white", "legs": 0}}}))
    res = runner.invoke(cli.main, ["eval", str(path)])
    assert res.exit_code == 3
    assert f"dimension D={10**30} exceeds" in res.stderr


def test_eval_of_a_huge_red_state_is_a_quick_semantic_error(runner, tmp_path):
    # its result has D entries, but each split leg's phase matrix has D^2
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"dimension": 10**5, "nodes": {"r": {"kind": "red", "legs": 1,
                                                                   "amp": {"type": "phase", "theta": 0.5}}},
                                "outputs": ["r:0"]}))
    start = time.perf_counter()
    res = runner.invoke(cli.main, ["eval", str(path)])
    assert time.perf_counter() - start < 2
    assert res.exit_code == 3
    assert f"dimension D={10**5} exceeds" in res.stderr


def test_eval_of_a_legless_red_dot_at_huge_dimension(runner, tmp_path):
    # nu^2 * sum_j A(j) at D=10^5 needs no D x D table
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"dimension": 10**5, "nodes": {"r": {"kind": "red", "legs": 0,
                                                                   "amp": {"type": "one"}}}}))
    res = runner.invoke(cli.main, ["eval", str(path)])
    assert res.exit_code == 0, res.output
    assert abs(tensor.load_json(res.output).data.reshape(()) - math.sqrt(10**5)) < 1e-9


def test_an_entry_past_the_float_range_is_a_semantic_error(runner, tmp_path):
    # a side's power of nu (0.001^-198) and one of an amplitude (1e300^2) past the float range
    b = DiagramBuilder(2)
    w = b.node(Generator.white(1, 199))
    b.wire("in", w)
    for _ in range(99):
        b.wire(w, w)
    b.wire(w, "out")
    path = write_diagram(tmp_path / "d.json", b.build())
    for args, what in [(["eval", "--nu", "0.001", path], "a side's power of nu, nu^-198 at nu=0.001"),
                       (["gadget", "diag_theta", "--dim", "4", "--param",
                         'amp={"type": "unit", "re": 1e300, "im": 0}', "--emit-tensor"],
                        "a factor entry is out of range")]:
        res = runner.invoke(cli.main, args)
        assert res.exit_code == 3, args
        assert what in res.stderr


def test_a_unit_power_past_the_float_range_is_a_semantic_error(runner, tmp_path):
    # 10.0 to a leg product of up to 8^3 = 512 overflows a float
    b = DiagramBuilder(16)
    box = b.node(Generator.hbox(UnitPow(10.0), 0, 3))
    for _ in range(3):
        b.wire(box, "out")
    res = runner.invoke(cli.main, ["eval", write_diagram(tmp_path / "d.json", b.build())])
    assert res.exit_code == 3
    assert "a factor entry is out of range" in res.stderr and res.stdout == ""


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


@pytest.mark.parametrize("text, message", [
    ("[1, 2, 3]", "a tensor dump must hold a JSON object"),
    ('{"dim": 2, "in_legs": 0, "out_legs": 1}', "the tensor dump has no 'entries'"),
    ('{"dim": 2, "in_legs": 0, "out_legs": 1, "entries": 5}', "entries must be a list"),
])
def test_normal_form_names_the_bad_tensor_field(runner, tmp_path, text, message):
    src = tmp_path / "t.json"
    src.write_text(text)
    res = runner.invoke(cli.main, ["normal-form", "--tensor", str(src)])
    assert res.exit_code == 2
    assert f"cannot read tensor {str(src)!r}: {message}" in res.stderr


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
    assert res.output.startswith("usage:")


@pytest.mark.parametrize("command, what", [("eval", "cannot read diagram"),
                                           ("normal-form --tensor", "cannot read tensor")])
def test_deeply_nested_json_file_is_usage_error(runner, tmp_path, command, what):
    src = tmp_path / "deep.json"
    src.write_text("[" * 100_000 + "]" * 100_000)
    res = runner.invoke(cli.main, [*command.split(), str(src)])
    assert res.exit_code == 2
    assert f"{what} {str(src)!r}" in res.stderr


def test_deeply_nested_json_param_is_usage_error(runner):
    amp = '{"type": "table", "values": ' + "[" * 30_000 + "]" * 30_000 + "}"
    res = runner.invoke(cli.main, ["gadget", "diag_theta", "--dim", "3", "--param", f"amp={amp}"])
    assert res.exit_code == 2
    assert "--param amp: JSON value nested too deeply" in res.stderr


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
    assert res.output.startswith("usage:") and what in res.output


@pytest.mark.parametrize(
    "amp",
    [
        {"type": "char", "c": 2.5},
        {"type": "indicator", "set": [0.5]},
        {"type": "phase", "theta": "1.5"},
        {"type": "phase", "theta": True},
        {"type": "phasevec", "thetas": 5},
        {"type": "sign", "set": "12"},
        {"type": "table", "values": [[1.0, 0.0], [2.0]]},
    ],
)
def test_eval_and_gadget_reject_bad_amplitude_values(runner, tmp_path, amp):
    src = tmp_path / "d.json"
    src.write_text(json.dumps({"dimension": 3, "nodes": {"h": {"kind": "hbox", "legs": 1, "amp": amp}},
                               "edges": [["h:0", "out:0"]], "outputs": ["out:0"]}))
    (field,) = set(amp) - {"type"}
    named = f"{amp['type']} amplitude field {field!r}: value must be"
    res = runner.invoke(cli.main, ["eval", str(src)])
    assert res.exit_code == 2 and "must be" in res.output and named in res.output
    res = runner.invoke(cli.main, ["gadget", "diag_theta", "--dim", "3", "--param", f"amp={json.dumps(amp)}"])
    assert res.exit_code == 2 and "must be" in res.output and named in res.output


def test_eval_rejects_non_object_nodes_as_usage_error(runner, tmp_path):
    src = tmp_path / "d.json"
    src.write_text('{"dimension": 3, "nodes": [], "edges": []}')
    res = runner.invoke(cli.main, ["eval", str(src)])
    assert res.exit_code == 2 and "nodes must be an object" in res.output


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


@pytest.mark.parametrize("dim", [342, 10**20])
def test_a_gamma_table_past_its_row_cap_is_a_usage_error(runner, dim):
    # 9 D^2 rows: D=342 is the first past the cap; D=10^20 used to run forever
    start = time.perf_counter()
    res = runner.invoke(cli.main, ["gamma-table", "--dim", str(dim)])
    assert time.perf_counter() - start < 2
    assert res.exit_code == 2
    assert f"a Gamma table of {9 * dim * dim} rows is more than 1048576" in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize(
    "args, rows",
    [
        (["ZX-GI", "--dim", "2", "--samples", "100000000"], 10**8),
        (["ZX-GI", "--dims", "2..3", "--samples", str(2**19 + 1)], 2**20 + 2),
        (["--dims", "2..6", "--samples", "3438"], 3438 * 61 * 5),
    ],
    ids=["one-cell", "two-cells", "every-rule"],
)
def test_a_check_report_past_its_row_cap_is_a_usage_error(runner, monkeypatch, args, rows):
    # samples x rules x dimensions rows, refused before anything is drawn;
    # 10^8 samples of one cell used to end in a MemoryError
    def sample(self, dim, rng):
        raise AssertionError("a refused report drew a sample")

    monkeypatch.setattr(rewrite.RuleSpec, "sample", sample)
    res = runner.invoke(cli.main, ["check", *args])
    assert res.exit_code == 2
    assert f"a report of {rows} rows is more than 1048576" in res.stderr
    assert res.stdout == ""


def test_the_check_row_cap_is_the_librarys(runner, monkeypatch):
    # check keeps no count of its own: it prints check_all's refusal
    monkeypatch.setattr(rewrite, "_MAX_ROWS", 10)
    res = runner.invoke(cli.main, ["check", "ZX-GI", "--dims", "2..3", "--samples", "6"])
    assert res.exit_code == 2
    assert res.stderr.splitlines()[-1].endswith("error: a report of 12 rows is more than 10")
    assert res.stdout == ""
    assert runner.invoke(cli.main, ["check", "ZX-GI", "--dims", "2..3", "--samples", "5"]).exit_code == 0


def test_gamma_table_deterministic(runner, tmp_path):
    a = runner.invoke(cli.main, ["gamma-table", "--dims", "2..4", "-o", str(tmp_path / "a.csv")])
    b = runner.invoke(cli.main, ["gamma-table", "--dims", "2..4", "-o", str(tmp_path / "b.csv")])
    assert a.exit_code == 0 and b.exit_code == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def one_hbox_file(tmp_path, dim, amp):
    src = tmp_path / "d.json"
    src.write_text(json.dumps({"dimension": dim, "nodes": {"h": {"kind": "hbox", "legs": 1, "amp": amp}},
                               "edges": [["h:0", "out:0"]], "outputs": ["out:0"]}))
    return str(src)


def test_eval_of_mbox_with_huge_k_is_a_quick_semantic_error(runner, tmp_path):
    path = one_hbox_file(tmp_path, 4, {"type": "mbox", "k": 10**10, "alpha": [2.0, 0.0]})
    start = time.perf_counter()
    res = runner.invoke(cli.main, ["eval", path])
    assert time.perf_counter() - start < 2  # computing U_D^k first takes about a minute
    assert res.exit_code == 3
    assert "MBox pivot" in res.output and "64-bit range" in res.output


def test_eval_of_indicator_with_members_outside_int64(runner, tmp_path):
    path = one_hbox_file(tmp_path, 3, {"type": "indicator", "set": [10**23, 1]})
    res = runner.invoke(cli.main, ["eval", path])
    assert res.exit_code == 0
    t = tensor.load_json(res.output)
    want = diagram.evaluate(diagram.load_json(Path(path).read_text()), MeasureContext(3))
    assert np.array_equal(t.data, want.data)
    assert np.count_nonzero(t.data) == 1


@pytest.mark.parametrize(
    "text, what",
    [
        ("[1]", "must hold a JSON object"),
        ('{"nodes": {}}', "has no 'dimension'"),
        ('{"dimension": 3, "nodes": {"a": 5}}', "node 'a' must be an object"),
        ('{"dimension": 3, "nodes": {"a": {"legs": 1}}}', "node 'a' has no 'kind'"),
        ('{"dimension": 3, "nodes": {"a": {"kind": "white"}}}', "node 'a' has no 'legs'"),
        ('{"dimension": 3, "edges": 5}', "edges must be a list"),
        ('{"dimension": 3, "nodes": {"h": {"kind": "hbox", "legs": 1, "amp": {"type": "phase"}}},'
         ' "edges": [["h:0", "out:0"]], "outputs": ["out:0"]}', "node 'h': phase amplitude has no 'theta'"),
        ('{"dimension": 3, "nodes": {"h": {"kind": "hbox", "legs": 1, "amp": [1]}},'
         ' "edges": [["h:0", "out:0"]], "outputs": ["out:0"]}', "node 'h': an amplitude must be an object, got [1]"),
        ('{"dimension": 3, "nodes": {"in": {"kind": "white", "legs": 2}},'
         ' "edges": [["in:0", "in:0"], ["in:1", "out:0"]], "inputs": ["in:0"], "outputs": ["out:0"]}',
         "node name 'in' is reserved for the boundary"),
        ('{"dimension": 3, "nodes": {"out": {"kind": "white", "legs": 1}}, "edges": [["out:0", "out:0"]],'
         ' "outputs": ["out:0"]}', "node name 'out' is reserved for the boundary"),
        ('{"dimension": 3, "nodes": {"g": {"kind": "green", "legs": 1, "amp": {"type": "phasevec", "thetas": []}}},'
         ' "edges": [["g:0", "out:0"]], "outputs": ["out:0"]}', "node 'g': PhaseVec has 0 angles but D=3"),
        ('{"dimension": 3, "nodes": {"g": {"kind": "white", "legs": 2, "c": 4}},'
         ' "edges": [["g:0", "in:0"], ["g:1", "out:0"]], "inputs": ["in:0"], "outputs": ["out:0"]}',
         "node 'g': only a 'not' node takes a 'c'"),
        ('{"dimension": 3, "nodes": {"h": {"kind": "hbox", "legs": 1, "amp": {"type": "mbox", "k": 1, "alpha": [1.0]}}},'
         ' "edges": [["h:0", "out:0"]], "outputs": ["out:0"]}',
         "node 'h': mbox amplitude field 'alpha': value must be a [re, im] pair, got [1.0]"),
        ('{"dimension": 5, "nodes": {"h": {"kind": "hbox", "legs": 1, "amp": {"type": "mbox", "k": -1, "alpha": [2, 0]}}},'
         ' "edges": [["h:0", "out:0"]], "outputs": ["out:0"]}', "node 'h': MBox field 'k' must be at least 0, got -1"),
    ],
)
def test_eval_names_the_bad_field_of_a_malformed_file(runner, tmp_path, text, what):
    src = tmp_path / "d.json"
    src.write_text(text)
    res = runner.invoke(cli.main, ["eval", str(src)])
    assert res.exit_code == 2
    assert what in res.output


@pytest.mark.parametrize(
    "legs, what",
    [(5 * 10**8, "leg 1 of node 'a' is dangling"), (10**12, "the diagram has 1000000000001 ports")],
)
def test_eval_of_a_node_with_huge_legs_is_a_quick_file_error(runner, tmp_path, legs, what):
    src = tmp_path / "d.json"
    src.write_text(json.dumps({"dimension": 2, "nodes": {"a": {"kind": "white", "legs": legs}},
                               "edges": [["a:0", "out:0"]], "outputs": ["out:0"]}))
    start = time.perf_counter()
    res = runner.invoke(cli.main, ["eval", str(src)])
    assert time.perf_counter() - start < 2  # a walk over the legs takes minutes
    assert res.exit_code == 2
    assert what in res.output


# -- output that cannot be written ----------------------------------------


@pytest.mark.parametrize("args", [["gadget", "cz", "--dim", "3", "-o"], ["gamma-table", "--dims", "2..3", "-o"]],
                         ids=["gadget", "gamma-table"])
def test_an_output_path_that_cannot_be_written_exits_2(runner, tmp_path, args):
    # -o naming a directory used to end in an IsADirectoryError traceback
    # and exit 1, which reads as a soundness failure
    out = f"{tmp_path}{os.sep}"
    res = runner.invoke(cli.main, args + [out])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == f"quditzx {args[0]}: error: cannot write {out!r}: [Errno 21] Is a directory: {out!r}\n"


def run_cli(args, **kwargs):
    """``python -m quditzx.cli ARGS`` in a new interpreter, on this checkout's source."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.Popen([sys.executable, "-m", "quditzx.cli", *args], env=env, stderr=subprocess.PIPE, **kwargs)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command", [["info", "--dim", "3"], ["normal-form", "--tensor"]], ids=["info", "normal-form"])
def test_a_stdout_write_error_exits_2(tmp_path, command):
    # a full device used to end in an OSError traceback and exit 1, or in
    # an "Exception ignored" line at shutdown
    path = tmp_path / "cz.json"
    ctx = MeasureContext(3)
    path.write_text(tensor.dump_json(diagram.evaluate(construct.build(construct.gadget_id("cz"), ctx), ctx)))
    args = command + [str(path)] * (command[0] == "normal-form")
    with open("/dev/full", "w") as full:
        proc = run_cli(args, stdout=full)
        _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    assert err.decode() == f"quditzx {command[0]}: error: cannot write to stdout: [Errno 28] No space left on device\n"


@pytest.mark.parametrize("args, code", [(["eval"], 0), (["gamma-table", "--dims", "2..12"], 0),
                                        (["check", "--dims", "2..4", "--tol", "1e-300"], 1)],
                         ids=["eval", "gamma-table", "check with failures"])
def test_a_closed_pipe_ends_quietly_with_the_commands_exit_code(tmp_path, args, code):
    # each writes past a pipe's 64 KiB, and the reader leaves after 200
    # bytes: eval (a 16^4-entry tensor) used to end in a BrokenPipeError
    # traceback and exit 1
    if args == ["eval"]:
        b = DiagramBuilder(16)
        b.wire("in", "out")
        b.wire("in", "out")
        args = args + [write_diagram(tmp_path / "wires.json", b.build())]
    proc = run_cli(args, stdout=subprocess.PIPE)
    assert len(proc.stdout.read(200)) == 200
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == code
    assert err == b""
