"""One benchmark process: set up a workload, run its passes, report.

Started by ``bench/run.py`` with one thread per numeric library and
``PYTHONPATH`` set to ``src/``; the CLI processes it starts inherit
both.  It imports quditzx, writes the workload's inputs (made from
the seed) into a scratch directory, prints ``ready`` and then runs the
timed passes.  The last line of stdout is a JSON object with pass wall
times, per-op latencies, failure counts, peak RSS and, in a traced run,
the spans.  With ``--setup-only`` it stops after ``ready`` and the
host speed; ``run.py`` uses such processes to take the median set-up
time.

A pass runs every op of the workload once, so each op is repeated
once per pass; matrix passes draw their rule parameters from their own
seed, so a run samples each cell's parameters once per pass.
Latencies are reported by op, in the workload's op order.  The number
of passes in an untraced run is fixed from ``--seconds`` and a nominal
pass time per workload, measured on the seed code, so a faster program
runs the same ops the same number of times; only a run that would go
past 1.25 times ``--seconds`` stops early.  Each pass runs the ops in its own
seeded order, so the repeats of an op are spread over the whole run
rather than bunched in one stretch of it.  A traced run makes untraced
and traced passes in turn, two of each, all alike; the computed
counters of the two traced passes must agree exactly.

Between ops, at most every ``SPEED_EVERY_S`` seconds, a pass samples
the host speed (``hostspeed.py``).  Each op's latency is reported both
as measured and calibrated: multiplied by the mean host speed sampled
within ``SPEED_WINDOW_S`` of the op (see bench/README.md).  After
``ready`` the worker prints ``speed <host speed>``, sampled just after
set-up by ``setup_speed``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

from quditzx import construct, diagram, rewrite, tensor  # noqa: E402
from quditzx.measure import MeasureContext  # noqa: E402

from hostspeed import host_speed, setup_speed  # noqa: E402

# seconds one untraced pass takes on the seed code when the shared
# 2-core x86 box runs at about half its best speed, the slowest it was
# seen to run: the pass count then holds at any speed it showed
NOMINAL_PASS_S = {"matrix-small": 3.6, "matrix-wide": 3.6, "normal-form": 7.3, "cli": 7.3}
CAP_FACTOR = 1.25
TINY_OPS = 12
# random tensors per normal-form shape with m+n <= 3; with 20, as in the
# acceptance test, a pass took 11.5 s, too long to repeat within a run
NF_PER_SHAPE = 5
NF_TOL = 1e-8
GAMMA_TABLE_LINES = 5842
SPEED_EVERY_S = 0.1
SPEED_WINDOW_S = 0.3


# =====================================================================
# Soundness matrix: one op is one (rule, D, nu) cell
# =====================================================================


class Matrix:
    ordered = False

    def __init__(self, dims, nus, samples: int, seed: int):
        self.seed = seed
        self.pass_seed = seed
        self.samples = samples
        self.ops = [(rule, D, nu) for nu in nus for rule in sorted(rewrite.CATALOG) for D in dims]
        # skips the catalog declares: a dimension cap, or no valid parameters
        self.allowed_skips = set()
        for rule, D, _ in self.ops:
            spec = rewrite.CATALOG[rule]
            capped = spec.dim_cap is not None and D > spec.dim_cap
            if capped or spec.sample(D, np.random.default_rng(0)) is None:
                self.allowed_skips.add((rule, D))

    def begin_pass(self, p: int) -> None:
        # fresh parameter draws per pass: parameter-dependent peaks (the
        # arity of ZH-ME's gray node sets peak RSS) show up in every run
        self.pass_seed = self.seed * 1000 + p

    def run(self, op) -> bool:
        rule, D, nu = op
        rows = rewrite.check_all([D], samples=self.samples, rules=[rule], nu=nu,
                                 seed=self.pass_seed)
        if [r["status"] for r in rows] == ["skip"]:
            return (rule, D) in self.allowed_skips
        return len(rows) == self.samples and all(r["status"] == "pass" for r in rows)


# =====================================================================
# Normal-form round trip: one op is one random tensor
# =====================================================================


class NormalForm:
    ordered = False

    def __init__(self, seed: int, workdir: str):
        lines = []
        shapes = [(D, m, n, NF_PER_SHAPE) for D in (2, 3, 4) for m in range(4)
                  for n in range(4 - m)]
        shapes += [(3, 2, 2, 2), (4, 2, 2, 1)]
        for D, m, n, count in shapes:
            rng = np.random.default_rng([seed, D, m, n])
            for _ in range(count):
                size = (D,) * (m + n)
                arr = rng.normal(size=size) + 1j * rng.normal(size=size)
                lines.append(tensor.dump_json(tensor.Tensor(D, m, n, arr)))
        path = os.path.join(workdir, "tensors.jsonl")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with open(path) as fh:
            self.ops = fh.read().splitlines()
        self.contexts = {D: MeasureContext(D) for D in (2, 3, 4)}

    def begin_pass(self, p: int) -> None:
        pass

    def run(self, op) -> bool:
        t = tensor.load_json(op)
        ctx = self.contexts[t.dim]
        text = diagram.dump_json(construct.normal_form(t, ctx))
        back = diagram.evaluate(diagram.load_json(text), ctx)
        scale = float(np.max(np.abs(t.data)))
        return tensor.max_abs_diff(back, t) / scale < NF_TOL


# =====================================================================
# CLI: one op is one cold `python -m quditzx.cli` invocation
# =====================================================================


def _read_tensor(text: str) -> np.ndarray:
    obj = json.loads(text)
    flat = np.array([complex(re_, im) for re_, im in obj["entries"]])
    return flat.reshape((obj["dim"],) * (obj["in_legs"] + obj["out_legs"]))


class Cli:
    ordered = True  # later ops read files earlier ones wrote

    def __init__(self, seed: int, workdir: str):
        self.cz = os.path.join(workdir, "cz.json")
        self.nf = os.path.join(workdir, "nf.json")
        dim = 2 + seed % 11
        check = ["check", "ZH-HM", "--dims", "2..4", "--seed", str(seed)]
        # (command, argv, checker); every command's documented exit code is 0
        self.ops = [
            ("info", ["info", "--dim", str(dim)], self._check_info),
            ("gamma-table", ["gamma-table", "--dims", "2..12"], self._check_gamma),
            ("check", check, self._check_report),
            ("check", check, self._check_repeat),
            ("gadget", ["gadget", "cz", "--dim", "3", "--emit-tensor", "-o", self.cz],
             self._check_gadget),
            ("normal-form", ["normal-form", "--tensor", self.cz, "-o", self.nf],
             self._check_normal_form),
            ("eval", ["eval", self.nf], self._check_eval),
        ]
        self.info_head = f"dim            {dim}"
        ctx = MeasureContext(3)
        self.cz_want = construct.target_tensor(construct.gadget_id("cz"), ctx).data
        self.tracer_dir: str | None = None
        self.spans: list[list] = []
        self.last_report = b""

    def begin_pass(self, p: int) -> None:
        pass

    def _check_info(self, out: bytes) -> bool:
        lines = out.decode().splitlines()
        return len(lines) == 8 and lines[0] == self.info_head

    def _check_gamma(self, out: bytes) -> bool:
        lines = out.decode().splitlines()
        return len(lines) == GAMMA_TABLE_LINES and lines[0] == "a,b,D,re,im,magnitude_class"

    def _check_report(self, out: bytes) -> bool:
        self.last_report = out
        report = json.loads(out)
        rows = report["rows"]
        return report["failures"] == 0 and len(rows) == 15 and all(
            r["status"] == "pass" for r in rows)

    def _check_repeat(self, out: bytes) -> bool:
        # reports must be byte-identical for the same flags and seed
        return out == self.last_report and self._check_report(out)

    def _check_gadget(self, out: bytes) -> bool:
        with open(self.cz) as fh:
            got = _read_tensor(fh.read())
        return got.shape == self.cz_want.shape and np.max(np.abs(got - self.cz_want)) < NF_TOL

    def _check_normal_form(self, out: bytes) -> bool:
        with open(self.nf) as fh:
            return json.load(fh)["dimension"] == 3

    def _check_eval(self, out: bytes) -> bool:
        with open(self.cz) as fh:
            want = _read_tensor(fh.read())
        got = _read_tensor(out.decode())
        return got.shape == want.shape and np.max(np.abs(got - want)) < NF_TOL

    def run(self, op) -> bool:
        command, argv, checker = op
        if command == "info":  # a new cycle: outputs of the last one must not leak in
            for path in (self.cz, self.nf):
                if os.path.exists(path):
                    os.remove(path)
        if self.tracer_dir is None:
            cmd = [sys.executable, "-m", "quditzx.cli", *argv]
        else:
            spans_path = os.path.join(self.tracer_dir, "spans.json")
            launcher = os.path.join(ROOT, "bench", "cli_launcher.py")
            cmd = [sys.executable, launcher, spans_path, *argv]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              cwd=ROOT, timeout=60)
        lat = time.perf_counter() - t0
        if self.tracer_dir is not None and os.path.exists(spans_path):
            with open(spans_path) as fh:
                self.spans.append({"command": command, "lat": lat, "spans": json.load(fh)})
            os.remove(spans_path)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            return False
        return checker(proc.stdout)


# =====================================================================
# Passes
# =====================================================================


def make_workload(name: str, seed: int, workdir: str):
    if name == "matrix-small":
        return Matrix(range(2, 7), (None, 1.0), 5, seed)
    if name == "matrix-wide":
        # one sample per cell: a 5-sample pass takes 12-15 s, too long to
        # repeat within a run, and its p94.5 tail jumped between op kinds
        return Matrix(range(7, 10), (None,), 1, seed)
    if name == "normal-form":
        return NormalForm(seed, workdir)
    if name == "cli":
        return Cli(seed, workdir)
    raise SystemExit(f"unknown workload {name!r}")


def run_pass(work, ops, seed: int, p: int, tracer=None) -> dict:
    """Run every op once; ``lat[i]`` is the latency of ``ops[i]``.

    ``cal[i]`` is that latency calibrated: multiplied by the mean of the
    host speeds sampled within ``SPEED_WINDOW_S`` before its start or
    after its end, and always by the last sample before it and the first
    after it.
    """
    work.begin_pass(p)
    order = list(range(len(ops)))
    if not work.ordered:
        random.Random(seed * 1000 + p).shuffle(order)
    gc.collect()
    lat = [0.0] * len(ops)
    span = [(0.0, 0.0)] * len(ops)
    sample_t: list[float] = []
    speeds: list[float] = []

    def sample() -> None:
        speeds.append(host_speed())
        sample_t.append(time.perf_counter())

    failed = 0
    start = time.perf_counter()
    sample()
    for i in order:
        if time.perf_counter() - sample_t[-1] >= SPEED_EVERY_S:
            sample()
        if tracer is not None:
            tracer.op = i
            op_span = tracer.begin("op")
        t0 = time.perf_counter()
        try:
            ok = work.run(ops[i])
        except Exception:
            traceback.print_exc()
            ok = False
        t1 = time.perf_counter()
        lat[i] = t1 - t0
        span[i] = (t0, t1)
        if tracer is not None:
            tracer.end(op_span)
        failed += not ok
    sample()
    wall = time.perf_counter() - start
    cal = []
    for x, (t0, t1) in zip(lat, span):
        lo = min(bisect.bisect_left(sample_t, t0 - SPEED_WINDOW_S),
                 bisect.bisect_left(sample_t, t0) - 1)
        hi = max(bisect.bisect_right(sample_t, t1 + SPEED_WINDOW_S),
                 bisect.bisect_right(sample_t, t1) + 1)
        near = speeds[lo:hi]
        cal.append(x * sum(near) / len(near))
    return {"wall": wall, "lat": lat, "cal": cal, "speeds": speeds, "failed": failed}


IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def import_profile(samples: int = 3) -> dict[str, float]:
    """Median `-X importtime` breakdown of `import quditzx.cli`, in ms."""
    runs = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import quditzx.cli"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              cwd=ROOT, timeout=60, check=True)
        out = {"total": 0.0, "sympy": 0.0, "numpy": 0.0, "click": 0.0, "quditzx_self": 0.0}
        for line in proc.stderr.decode().splitlines():
            m = IMPORTTIME.match(line)
            if not m:
                continue
            self_us, cum_us, indent, name = int(m[1]), int(m[2]), len(m[3]), m[4]
            top = name.split(".")[0]
            if top == "quditzx":
                out["quditzx_self"] += self_us / 1e3
                if indent == 1:
                    out["total"] += cum_us / 1e3
            elif name in ("sympy", "numpy", "click"):
                out[name] += cum_us / 1e3
        runs.append(out)
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    os.makedirs(args.workdir, exist_ok=True)
    try:
        work = make_workload(args.workload, args.seed, args.workdir)
        ops = work.ops[:TINY_OPS] if args.tiny and args.workload != "cli" else work.ops
        print("ready", flush=True)
        print(f"speed {setup_speed()!r}", flush=True)
        if args.setup_only:
            return
        result: dict = {"ops_per_pass": len(ops)}
        if not args.trace:
            n = max(1, int(args.seconds / NOMINAL_PASS_S[args.workload]))
            start = time.perf_counter()
            result["passes"] = []
            for p in range(n):
                result["passes"].append(run_pass(work, ops, args.seed, p))
                # a much slower host or program ends the run early: no
                # pass starts that would, at the last one's pace, end
                # past CAP_FACTOR times --seconds
                last = result["passes"][-1]["wall"]
                if time.perf_counter() - start + last > CAP_FACTOR * args.seconds:
                    break
            who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
            result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
        else:
            from tracer import Tracer

            result["untraced"], result["traced"] = [], []
            tracer = Tracer()
            for _ in range(2):
                result["untraced"].append(run_pass(work, ops, args.seed, 0))
                if args.workload == "cli":
                    work.tracer_dir = args.workdir
                    res = run_pass(work, ops, args.seed, 0)
                    work.tracer_dir = None
                    # each child's spans carry that child's clock
                    res["children"], work.spans = work.spans, []
                else:
                    tracer.install()
                    try:
                        res = run_pass(work, ops, args.seed, 0, tracer)
                    finally:
                        tracer.uninstall()
                res["spans"] = tracer.take()
                result["traced"].append(res)
            result["imports"] = import_profile()
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
