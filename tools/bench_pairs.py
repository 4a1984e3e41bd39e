"""Run the benchmark on two commits in alternating pairs and write a BENCH record.

Usage (from the repository root)::

    python3 tools/bench_pairs.py --base HEAD~1
    python3 tools/bench_pairs.py --workload matrix-wide --workload cli --base HEAD~1

``--workload`` may be given several times; by default every workload
that ``BENCHMARK.json`` lists runs, one after the other.

Each commit is exported with ``git archive`` into a fresh directory
(the repository's own files and ``.git`` are not touched, and
uncommitted changes are not measured), and ``bench/run.py`` of that
commit runs there, as ``BENCHMARK.json`` says:
``--workload W --seed S --seconds T --trace 0``.  It runs ten pairs, the
minimum a gain claim needs.  Pair k uses seed k and runs the two commits
back to back, the base first in odd-numbered pairs and the head first in
even ones, so a drift in host speed falls on both.

Each workload's record holds both commits, the seeds, each pair's end-to-end
metrics (the names ``BENCHMARK.json`` lists) and operation counts, each
side's quartiles ``[q1, median, q3]``, and for each metric the number of
pairs in which the head was better.  ``BENCH_<workload>.json`` at the
repository root is the workload's trajectory: a list of records, oldest
first, to which each run appends its own.

After each workload's record it prints the failed ops of each side,
summed over the pairs, and one verdict per end-to-end metric (see
``verdict``): ``gain``, ``worse``, ``unresolved`` or ``flat``.  A metric
reads ``gain`` only where the head failed no more ops than the base.  The
record does not hold the verdicts.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export(commit: str, tree: str) -> None:
    """The files of ``commit`` under ``tree``, without a ``.git``."""
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tf:
        tf.extractall(tree, filter="data")


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run in ``tree``: its metric values and op counts."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench/run.py failed in {tree}:\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"metrics": {k: v["value"] for k, v in out["metrics"].items()},
            "attempted": out["attempted"], "failed": out["failed"]}


def record(spec: dict, workload: str, commits: dict, trees: dict) -> dict:
    """Ten pairs of one workload, as a trajectory record."""
    names = [m["name"] for m in spec["end_to_end"]]
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    pairs = []
    for seed in range(1, PAIRS + 1):
        order = ("base", "head") if seed % 2 else ("head", "base")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(trees[side], workload, seed, spec["run_seconds"])
            print(f"{workload} seed {seed} {side}: {json.dumps(pair[side]['metrics'])}", file=sys.stderr)
        pairs.append(pair)

    def quartiles(side: str) -> dict:
        return {k: statistics.quantiles([p[side]["metrics"][k] for p in pairs], n=4, method="inclusive")
                for k in names}

    def better(p: dict, k: str) -> bool:
        a, b = p["base"]["metrics"][k], p["head"]["metrics"][k]
        return b < a if lower[k] else b > a

    return {
        "workload": workload,
        "command": f"bench/run.py --workload {workload} --seed S --seconds {spec['run_seconds']} --trace 0",
        "base": commits["base"],
        "head": commits["head"],
        "seeds": [p["seed"] for p in pairs],
        "host": {"python": platform.python_version(), "machine": platform.machine(), "nproc": os.cpu_count()},
        "pairs": pairs,
        "quartiles": {"base": quartiles("base"), "head": quartiles("head")},
        "head_better_pairs": {k: sum(better(p, k) for p in pairs) for k in names},
    }


def verdict(base: list[float], head: list[float], wins: int, bound: float, lower: bool, *,
            more_failed: bool = False) -> str:
    """One metric's verdict from each side's quartiles ``[q1, median, q3]``.

    ``wins`` is the number of pairs the head won, and ``bound`` the
    relative bound ``BENCHMARK.json`` gives the metric, and
    ``more_failed`` whether the head failed more ops than the base.  In
    this order: ``gain`` if the head failed no more ops, won all pairs
    but at most one and its median is better than the base's by more
    than the base's IQR; ``worse`` if its
    median is worse by more than ``bound`` of the base median;
    ``unresolved`` if the base's IQR is more than ``bound`` of its median;
    else ``flat``.
    """
    (b1, bm, b3), hm = base, head[1]
    better = bm - hm if lower else hm - bm
    if not more_failed and wins >= PAIRS - 1 and better > b3 - b1:
        return "gain"
    if -better > bound * abs(bm):
        return "worse"
    if b3 - b1 > bound * abs(bm):
        return "unresolved"
    return "flat"


def append(workload: str, rec: dict) -> None:
    """Add ``rec`` to the end of ``BENCH_<workload>.json``."""
    path = os.path.join(ROOT, f"BENCH_{workload}.json")
    trajectory = []
    if os.path.exists(path):
        with open(path) as fh:
            trajectory = json.load(fh)
    trajectory.append(rec)
    with open(path, "w") as fh:
        json.dump(trajectory, fh, indent=1)
        fh.write("\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", help="a workload to run (repeatable; default every one)")
    ap.add_argument("--base", required=True, help="the commit to compare against")
    ap.add_argument("--head", default="HEAD", help="the changed commit (default HEAD)")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    known = [w["name"] for w in spec["workloads"]]
    workloads = args.workload or known
    for workload in workloads:
        if workload not in known:
            ap.error(f"unknown workload {workload!r}; BENCHMARK.json lists {', '.join(known)}")
    commits = {"base": git("rev-parse", args.base), "head": git("rev-parse", args.head)}

    work = tempfile.mkdtemp(prefix="bench-pairs-")
    try:
        trees = {side: os.path.join(work, side) for side in commits}
        for side, commit in commits.items():
            export(commit, trees[side])
        for workload in workloads:
            rec = record(spec, workload, commits, trees)
            append(workload, rec)  # each workload's record is kept as soon as it is whole
            print(json.dumps({"workload": workload, **{k: rec[k] for k in ("quartiles", "head_better_pairs")}},
                             indent=1))
            failed = {side: sum(p[side]["failed"] for p in rec["pairs"]) for side in commits}
            print(f"{workload} failed ops: {failed['base']} -> {failed['head']} (summed over {PAIRS} pairs)")
            more_failed = failed["head"] > failed["base"]
            for m in spec["end_to_end"]:
                k, wins = m["name"], rec["head_better_pairs"][m["name"]]
                base, head = rec["quartiles"]["base"][k], rec["quartiles"]["head"][k]
                said = verdict(base, head, wins, m["bound"], m["better"] == "lower", more_failed=more_failed)
                print(f"{workload} {k}: {said} "
                      f"(median {base[1]:.4g} -> {head[1]:.4g}, head better in {wins}/{PAIRS} pairs)")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
