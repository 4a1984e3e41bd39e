"""quditzx benchmark: one workload, one seed, one run.

Usage (from the repository root)::

    python3 bench/run.py --workload matrix-small --seed 1 --seconds 22 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that gives the per-layer metrics.  Every op's output
is checked; failures are counted, never fatal.  The last line of stdout
is ``{"correct", "attempted", "failed", "metrics"}``; the full record,
with the environment, goes to ``bench/results/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

from hostspeed import setup_speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("matrix-small", "matrix-wide", "normal-form", "cli")
# set-up probes before and after the main worker, which gives one more
SETUP_PROBES_BEFORE = 2
SETUP_PROBES_AFTER = 2
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CLI_COMMANDS = ("info", "gamma-table", "check", "gadget", "normal-form", "eval")

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "import.total_ms": "ms",
    "import.sympy_ms": "ms",
    "import.numpy_ms": "ms",
    "import.click_ms": "ms",
    "import.quditzx_self_ms": "ms",
    **{f"cli.{c.replace('-', '_')}_ms": "ms" for c in CLI_COMMANDS},
    "rewrite.instantiate_calls": "count",
    "rewrite.instantiate_s": "s",
    "diagram.validate_calls": "count",
    "diagram.validate_s": "s",
    "generators.entries_calls": "count",
    "generators.entries_s": "s",
    "generators.entries_mb": "MB",
    "diagram.evaluate_calls": "count",
    "diagram.evaluate_s": "s",
    "diagram.evaluate_self_s": "s",
    "diagram.repeat_structure_frac": "share",
    "contraction.einsum_calls": "count",
    "contraction.einsum_s": "s",
    "contraction.peak_result_mb": "MB",
    "contraction.peak_result_rank": "legs",
    "contraction.result_mb_total": "MB",
    "tensor.max_abs_diff_calls": "count",
    "tensor.max_abs_diff_s": "s",
    "construct.normal_form_s": "s",
    "diagram.dump_json_s": "s",
    "diagram.load_json_s": "s",
    "diagram.json_mb": "MB",
    "tensor.dump_json_s": "s",
    "tensor.load_json_s": "s",
    "gauss.gamma_calls": "count",
    "gauss.gamma_s": "s",
    "trace.overhead_s": "s",
}

# counters computed from call counts and array sizes: identical on every
# traced pass over the same inputs
COMPUTED = sorted(k for k, u in LAYER_UNITS.items()
                  if u in ("count", "MB", "legs") or k.endswith("_frac"))

# which layer a span's self time belongs to
LAYER_OF = {
    "op": "bench",
    "import": "import",
    "cli.main": "cli",
    "rewrite.check_all": "rewrite",
    "rewrite.instantiate": "rewrite",
    "diagram.validate": "diagram.validate",
    "generators.entries": "generators",
    "diagram.evaluate": "diagram.evaluate",
    "contraction.einsum": "contraction",
    "tensor.max_abs_diff": "tensor",
    "diagram.dump_json": "serialization",
    "diagram.load_json": "serialization",
    "tensor.dump_json": "serialization",
    "tensor.load_json": "serialization",
    "construct.normal_form": "construct",
    "gauss.gamma": "gauss",
}

NAME, START, END, PARENT, OP, EXTRA = range(6)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


# =====================================================================
# Processes
# =====================================================================


def pin_cpu() -> int | None:
    """Pin this process, and so every process it starts, to one CPU.

    The workers sample the host speed between ops; on one CPU the
    samples and the ops (CLI children included) run on the same core.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def start_worker(args, workdir: str, extra: list[str], deadline: float):
    """Start a worker and wait for its ``ready`` line.

    Returns the worker, its set-up time and the host speed during
    set-up: the mean of the speed sampled here just before and the one
    the worker sampled just after.

    A timer kills the worker's process group, CLI children included, at
    the deadline, so no wait below can hang.
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, *extra]
    if args.tiny:
        cmd.append("--tiny")
    speed_before = setup_speed()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(), cwd=ROOT, text=True,
                            start_new_session=True)

    def kill() -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    proc.watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), kill)
    proc.watchdog.start()
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    speed = proc.stdout.readline().split() if line.strip() == "ready" else []
    if len(speed) != 2 or speed[0] != "speed":
        kill()
        finish(proc)
        raise BenchError("worker did not start")
    return proc, setup, (speed_before + float(speed[1])) / 2


def finish(proc) -> str:
    out, _ = proc.communicate()
    proc.watchdog.cancel()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return out


# =====================================================================
# End-to-end metrics
# =====================================================================


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (percentile, value, beyond).

    With fewer than eleven samples no percentile has ten beyond it, and
    the largest sample is returned.
    """
    ordered = sorted(values)
    idx = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return 100.0 * (idx + 1) / len(ordered), ordered[idx], len(ordered) - 1 - idx


def timings(setups: list[tuple[float, float]], passes: list[dict], key: str) -> dict:
    """Timing metrics from set-up times and per-op latencies ``p[key]``.

    Each op has one latency per pass.  ``pass_s`` sums each op's median
    over the passes; the percentiles are over every latency of the run.
    """
    op_lat = [statistics.median(x) for x in zip(*(p[key] for p in passes))]
    lat = [x for p in passes for x in p[key]]
    pct, tail_s, beyond = tail(lat)
    setup = [t * speed for t, speed in setups] if key == "cal" else [t for t, _ in setups]
    return {
        "setup_s": statistics.median(setup),
        "pass_s": sum(op_lat),
        "op_ms_p50": 1e3 * central_mean(lat),
        "op_ms_tail": 1e3 * tail_s,
        "tail_percentile": pct,
        "tail_beyond": beyond,
        "op_count": len(lat),
    }


def central_mean(values: list[float]) -> float:
    """Median estimate: the mean of the central fifth (p40 to p60) of ``values``.

    A workload's ops come in kinds of very different cost, and the plain
    median can sit on the step between two kinds, where noise moves it
    by the whole step; the central fifth moves by a small share of it.
    """
    ordered = sorted(values)
    lo = int(0.4 * len(ordered))
    hi = max(lo + 1, len(ordered) - lo)
    return statistics.fmean(ordered[lo:hi])


def end_to_end(res: dict, setups: list[tuple[float, float]]) -> tuple[dict, dict]:
    """Calibrated metrics; the record also gets them as measured."""
    passes = res["passes"]
    cal = timings(setups, passes, "cal")
    metrics = {k: cal[k] for k in END_TO_END_UNITS if k in cal}
    metrics["peak_rss_mb"] = res["peak_rss_mb"]
    speeds = [v for p in passes for v in p["speeds"]]
    detail = {
        "passes": len(passes),
        "ops_per_pass": res["ops_per_pass"],
        "pass_wall_s": [p["wall"] for p in passes],
        "setup_samples_s": [t for t, _ in setups],
        "setup_host_speed": [v for _, v in setups],
        "host_speed": {"min": min(speeds), "median": statistics.median(speeds),
                       "max": max(speeds), "samples": len(speeds)},
        "tail_percentile": cal["tail_percentile"],
        "tail_beyond": cal["tail_beyond"],
        "op_count": cal["op_count"],
        "as_measured": timings(setups, passes, "lat"),
    }
    return metrics, detail


# =====================================================================
# Per-layer metrics
# =====================================================================


def layer_counters(span_lists: list[list[list]]) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, and self time per layer.

    ``span_lists`` holds one span list per process; parents index into
    the same list.
    """
    m = {k: 0 if LAYER_UNITS[k] in ("count", "legs") else 0.0
         for k in LAYER_UNITS if not k.startswith(("import.", "cli.", "trace."))}
    self_by_layer: dict[str, float] = {}
    seen: set[str] = set()
    repeats = 0
    for spans in span_lists:
        dur = [s[END] - s[START] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[PARENT] is not None:
                child[s[PARENT]] += dur[i]
        for i, s in enumerate(spans):
            name, extra = s[NAME], s[EXTRA] or {}
            layer = LAYER_OF[name]
            self_by_layer[layer] = self_by_layer.get(layer, 0.0) + dur[i] - child[i]
            # a span's name is the prefix of its layer's metrics
            if name + "_calls" in m:
                m[name + "_calls"] += 1
            if name + "_s" in m:
                m[name + "_s"] += dur[i]
            if name == "diagram.evaluate":
                m["diagram.evaluate_self_s"] += dur[i] - child[i]
                repeats += extra["key"] in seen
                seen.add(extra["key"])
            elif name == "contraction.einsum":
                m["contraction.result_mb_total"] += extra["mb"]
                m["contraction.peak_result_mb"] = max(m["contraction.peak_result_mb"], extra["mb"])
                m["contraction.peak_result_rank"] = max(
                    m["contraction.peak_result_rank"], extra["rank"])
            elif name == "generators.entries":
                m["generators.entries_mb"] += extra["mb"]
            elif name == "diagram.dump_json":
                m["diagram.json_mb"] += extra["mb"]
    if m["diagram.evaluate_calls"]:
        m["diagram.repeat_structure_frac"] = repeats / m["diagram.evaluate_calls"]
    return m, self_by_layer


def traced_pass(workload: str, res: dict) -> tuple[dict, dict, dict[str, list[float]]]:
    """Layer metrics, layer self times and CLI main-span times of one pass."""
    cli_ms: dict[str, list[float]] = {}
    if workload != "cli":
        m, self_by_layer = layer_counters([res["spans"]])
        return m, self_by_layer, cli_ms
    lists = [child["spans"] for child in res["children"]]
    m, self_by_layer = layer_counters(lists)
    inside = 0.0
    for child in res["children"]:
        for s in child["spans"]:
            if s[PARENT] is None:
                inside += s[END] - s[START]
            if s[NAME] == "cli.main":
                cli_ms.setdefault(child["command"], []).append(1e3 * (s[END] - s[START]))
    # interpreter start-up and exit: op latency outside the child's spans
    self_by_layer["startup"] = sum(c["lat"] for c in res["children"]) - inside
    return m, self_by_layer, cli_ms


def per_layer(workload: str, res: dict) -> tuple[dict, dict]:
    passes = [traced_pass(workload, r) for r in res["traced"]]
    first = passes[0][0]
    mismatched = [k for k in COMPUTED if any(p[0][k] != first[k] for p in passes)]
    metrics = {}
    for k in first:
        values = [p[0][k] for p in passes]
        metrics[k] = first[k] if k in COMPUTED else statistics.median(values)
    cli_ms: dict[str, list[float]] = {}
    for p in passes:
        for cmd, vals in p[2].items():
            cli_ms.setdefault(cmd, []).extend(vals)
    for cmd in CLI_COMMANDS:
        vals = cli_ms.get(cmd)
        metrics[f"cli.{cmd.replace('-', '_')}_ms"] = statistics.median(vals) if vals else 0.0
    for k, v in res["imports"].items():
        metrics[f"import.{k}_ms"] = v
    # calibrated pass times, as pass_s
    metrics["trace.overhead_s"] = (statistics.median(sum(r["cal"]) for r in res["traced"])
                                   - statistics.median(sum(r["cal"]) for r in res["untraced"]))

    selfs = passes[0][1]
    total = sum(selfs.values())
    shares = {k: v / total for k, v in sorted(selfs.items(), key=lambda kv: -kv[1])}
    detail = {
        "untraced_wall_s": [r["wall"] for r in res["untraced"]],
        "traced_wall_s": [r["wall"] for r in res["traced"]],
        "layer_self_share": shares,
        "computed_metrics": COMPUTED,
        "computed_counters_repeat": not mismatched,
        "computed_counters_mismatched": mismatched,
    }
    return metrics, detail


# =====================================================================
# Environment record
# =====================================================================


def git_commit() -> str | None:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed: int, cpu: int | None) -> dict:
    versions = {}
    for pkg in ("numpy", "click", "sympy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    env = worker_env()
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "threads": {var: env[var] for var in THREAD_VARS},
        "pinned_cpu": cpu,
        "seed": seed,
        "git_commit": git_commit(),
    }


# =====================================================================
# Main
# =====================================================================


def run(args, workdir: str) -> dict:
    if not os.path.isfile(os.path.join(ROOT, "src", "quditzx", "__init__.py")):
        raise BenchError("no quditzx sources under src/; run from a full checkout")
    deadline = time.monotonic() + DEADLINE_S
    setups = []

    def probe_setup(k: int) -> None:
        proc, setup, speed = start_worker(args, os.path.join(workdir, f"probe{k}"),
                                          ["--setup-only"], deadline)
        finish(proc)
        setups.append((setup, speed))

    if not args.trace:
        for k in range(SETUP_PROBES_BEFORE):
            probe_setup(k)
    proc, setup, speed = start_worker(args, os.path.join(workdir, "main"), [], deadline)
    setups.append((setup, speed))
    res = json.loads(finish(proc).splitlines()[-1])
    if not args.trace:
        for k in range(SETUP_PROBES_AFTER):
            probe_setup(SETUP_PROBES_BEFORE + k)

    runs = res["untraced"] + res["traced"] if args.trace else res["passes"]
    attempted = sum(len(r["lat"]) for r in runs)
    failed = sum(r["failed"] for r in runs)
    if args.trace:
        values, detail = per_layer(args.workload, res)
        units = LAYER_UNITS
        correct = failed == 0 and detail["computed_counters_repeat"]
    else:
        values, detail = end_to_end(res, setups)
        units = END_TO_END_UNITS
        correct = failed == 0
    detail["failed_frac"] = failed / attempted
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        "detail": detail,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="a few ops only (self-test)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be non-negative and --seconds positive")
    workdir = os.path.join(HERE, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    cpu = pin_cpu()
    try:
        out = run(args, workdir)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "environment": environment(args.seed, cpu),
              **out}
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    detail = out.pop("detail")
    if args.trace:
        top = next(iter(detail["layer_self_share"].items()))
        print(f"{args.workload}: largest layer share {top[0]} {top[1]:.3f}, "
              f"tracing overhead {out['metrics']['trace.overhead_s']['value']:.3f} s")
    else:
        print(f"{args.workload}: {detail['passes']} pass(es) x {detail['ops_per_pass']} ops, "
              f"tail = p{detail['tail_percentile']:.2f} of {detail['op_count']} ops")
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
