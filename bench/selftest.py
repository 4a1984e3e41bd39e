"""Fast self-test of the benchmark.

Usage (from the repository root): ``python3 bench/selftest.py``

Runs every workload of BENCHMARK.json at a tiny size, untraced and
traced, and checks that each run prints a result line with exactly the
metrics BENCHMARK.json names, in its units, with no failed op.  Then
checks that the benchmark refuses to run, without printing a result,
in a directory that holds only BENCHMARK.json and the benchmark.
Takes about two minutes on a 2-core machine.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr}"]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if sorted(out) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{where}: result keys {sorted(out)}")
    if not out["correct"] or out["failed"] != 0 or out["attempted"] < 1:
        errors.append(f"{where}: correct={out['correct']} failed={out['failed']}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in out["metrics"].items()}
    if got != want:
        errors.append(f"{where}: metrics differ from BENCHMARK.json: "
                      f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
                      f"units {[k for k in want if k in got and got[k] != want[k]]}")
    bad = [k for k, v in out["metrics"].items() if not isinstance(v["value"], (int, float))]
    if bad:
        errors.append(f"{where}: non-numeric values {bad}")
    return errors


def check_bare(spec: dict) -> list[str]:
    """Without the sources the benchmark must fail and print no result."""
    bare = os.path.join(HERE, "work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["bare directory: benchmark did not refuse to run"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    errors = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            errors += check_run(spec, workload["name"], trace)
            print(f"{workload['name']} --trace {trace}: done", flush=True)
    errors += check_bare(spec)
    for err in errors:
        print("FAIL", err)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
