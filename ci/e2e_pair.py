#!/usr/bin/env python3
"""Paired end-to-end benchmark runs: a base revision against the working tree.

    python3 ci/e2e_pair.py --base REV [--workload W]... [--seeds 1,2,3,4,5]

Exports REV with `git archive` into a temporary directory (removed on
exit; set TMPDIR to choose where it goes), then, for every workload and
seed, runs

    python3 bench/e2e/run.py --workload W --seed S --seconds T

once in each tree, T being BENCHMARK.json's run_seconds.  Which tree runs
first flips from one seed to the next, so neither side always meets a
warmer or a busier host.  Each run's output goes to
e2e-pair/base/W-seedS.txt or e2e-pair/head/W-seedS.txt (both emptied of
earlier runs first), and the summary line of each run is echoed as it
ends.  bench/e2e/compare.py then compares the two directories; its exit
code is this script's.  Without --workload every workload of
BENCHMARK.json runs.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "e2e-pair")


def benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def export(rev, dest):
    archive = subprocess.Popen(
        ["git", "-C", ROOT, "archive", "--format=tar", rev], stdout=subprocess.PIPE
    )
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        tar.extractall(dest)
    if archive.wait() != 0:
        sys.exit(f"e2e_pair.py: git archive {rev} failed")


def run_one(tree, side, workload, seed, seconds):
    cmd = [
        sys.executable,
        "bench/e2e/run.py",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    with open(os.path.join(OUT, side, f"{workload}-seed{seed}.txt"), "w") as f:
        f.write(proc.stdout)
    summary = [l for l in proc.stdout.splitlines() if l.startswith("[e2e]")]
    print(f"{side:<4} {summary[0] if summary else workload}", flush=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        sys.exit(f"e2e_pair.py: {side} run of {workload} seed {seed} failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--workload", action="append", help="repeatable; default: all")
    ap.add_argument("--seeds", default="1,2,3,4,5")
    args = ap.parse_args()

    bench = benchmark()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = [int(s) for s in args.seeds.replace(",", " ").split()]
    for side in ("base", "head"):
        # Start empty: compare.py reads every file in the directory.
        side_dir = os.path.join(OUT, side)
        os.makedirs(side_dir, exist_ok=True)
        for name in os.listdir(side_dir):
            if name.endswith(".txt"):
                os.remove(os.path.join(side_dir, name))

    tmp = tempfile.mkdtemp(prefix="e2e-pair-")
    try:
        export(args.base, tmp)
        print(f"base {args.base} in {tmp}; head: the working tree of {ROOT}")
        for workload in workloads:
            for i, seed in enumerate(seeds):
                order = [("base", tmp), ("head", ROOT)]
                if i % 2 == 1:
                    order.reverse()
                for side, tree in order:
                    run_one(tree, side, workload, seed, bench["run_seconds"])
    finally:
        shutil.rmtree(tmp)
    compare = os.path.join(ROOT, "bench", "e2e", "compare.py")
    base_out, head_out = (os.path.join(OUT, s) for s in ("base", "head"))
    sys.exit(subprocess.run([sys.executable, compare, base_out, head_out]).returncode)


if __name__ == "__main__":
    main()
