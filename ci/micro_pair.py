#!/usr/bin/env python3
"""Paired micro-benchmark runs: a base revision against the working tree.

    python3 ci/micro_pair.py --base REV

Exports REV with `git archive` into a temporary directory (removed on
exit; set TMPDIR to choose where it goes), as ci/e2e_pair.py does, builds
bench/main.exe in both trees, then runs `bench/main.exe micro` five
times in each, alternating which tree runs first from one round to the
next, so that both sides meet the same host.  Every run has a directory
of its side under the temporary one as its working directory, so the
BENCH.jsonl it writes there leaves the working tree's alone; its micro
record (the suite's line of that file) is appended to
micro-pair/base.jsonl or micro-pair/head.jsonl.

The gate compares medians over the runs of each side: it fails when a
micro's head median is more than THRESHOLD above its base median
(default 30%; BENCH_REGRESSION_THRESHOLD overrides it, e.g. "0.5" for
50%), or when a micro of the base is missing from the head, so coverage
cannot silently shrink.  A micro only the head has is reported.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

from e2e_pair import export

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "micro-pair")
EXE = os.path.join("_build", "default", "bench", "main.exe")
RUNS = 5


def medians(runs):
    """{name: median ns/op} over a side's runs ({name: ns/op} each)."""
    names = {name for run in runs for name in run}
    return {
        name: statistics.median(run[name] for run in runs if name in run)
        for name in names
    }


def gate(base_runs, head_runs, threshold):
    """Print the per-micro medians and deltas; True when no micro of the
    base is missing from the head or regressed past `threshold`."""
    base, head = medians(base_runs), medians(head_runs)
    regressions = []
    missing = sorted(set(base) - set(head))
    print(f"{'benchmark':48} {'base':>12} {'head':>12} {'delta':>8}")
    for name in sorted(base):
        if name not in head:
            continue
        b, h = base[name], head[name]
        delta = (h - b) / b if b > 0 else 0.0
        flag = "  <-- REGRESSION" if delta > threshold else ""
        print(f"{name:48} {b:10.1f}ns {h:10.1f}ns {delta:+7.1%}{flag}")
        if delta > threshold:
            regressions.append((name, b, h, delta))
    for name in sorted(set(head) - set(base)):
        print(f"{name:48} {'(new)':>12} {head[name]:10.1f}ns")
    if missing:
        print("\nerror: micro(s) missing from the head:", file=sys.stderr)
        for name in missing:
            print(f"  - {name}", file=sys.stderr)
    if regressions:
        print(
            f"\nerror: {len(regressions)} micro(s) regressed more than "
            f"{threshold:.0%} (median of {len(head_runs)} head runs against "
            f"{len(base_runs)} base runs):",
            file=sys.stderr,
        )
        for name, b, h, delta in regressions:
            print(f"  - {name}: {b:.1f} -> {h:.1f} ns/op ({delta:+.1%})",
                  file=sys.stderr)
    if missing or regressions:
        return False
    print("\nmicro pair check passed")
    return True


def build(tree):
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(["dune", "build", "--root", tree, "./bench/main.exe"],
                          cwd=tree, env=env)
    if proc.returncode != 0:
        sys.exit(f"micro_pair.py: building bench/main.exe in {tree} failed")


def run_micro(tree, side, cwd):
    """One `bench/main.exe micro` run of `tree`'s build, in directory
    `cwd`: its micro record, also appended to micro-pair/SIDE.jsonl."""
    proc = subprocess.run([os.path.join(tree, EXE), "micro"], cwd=cwd,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        sys.exit(f"micro_pair.py: {side} micro run failed")
    with open(os.path.join(cwd, "BENCH.jsonl")) as f:
        records = [json.loads(line) for line in f if line.strip()]
    micro = [r for r in records if r.get("suite") == "micro"]
    if len(micro) != 1:
        sys.exit(f"micro_pair.py: {side}: expected one micro record, "
                 f"found {len(micro)}")
    with open(os.path.join(OUT, f"{side}.jsonl"), "a") as f:
        f.write(json.dumps(micro[0]) + "\n")
    print(f"{side:<4} micro run done", flush=True)
    return {name: m["value"] for name, m in micro[0]["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    args = ap.parse_args()
    threshold = float(os.environ.get("BENCH_REGRESSION_THRESHOLD", "0.30"))

    os.makedirs(OUT, exist_ok=True)
    for side in ("base", "head"):
        path = os.path.join(OUT, f"{side}.jsonl")
        if os.path.exists(path):
            os.remove(path)
    tmp = tempfile.mkdtemp(prefix="micro-pair-")
    base_tree = os.path.join(tmp, "tree")
    runs = {"base": [], "head": []}
    try:
        os.makedirs(base_tree)
        for side in runs:
            os.makedirs(os.path.join(tmp, side))
        export(args.base, base_tree)
        print(f"base {args.base} in {base_tree}; head: the working tree of {ROOT}")
        build(base_tree)
        build(ROOT)
        for i in range(RUNS):
            order = [("base", base_tree), ("head", ROOT)]
            if i % 2 == 1:
                order.reverse()
            for side, tree in order:
                runs[side].append(run_micro(tree, side, os.path.join(tmp, side)))
    finally:
        shutil.rmtree(tmp)
    return 0 if gate(runs["base"], runs["head"], threshold) else 1


if __name__ == "__main__":
    sys.exit(main())
