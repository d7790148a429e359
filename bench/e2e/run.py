#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 bench/e2e/run.py --workload NAME [--seed S] [--seconds T] [--trace 0|1]

Run from the repository root.  Builds bench/e2e/e2e.exe with dune, runs
the workload in a fresh child process (so its memory high-water mark is
its own), prints every metric by name with its unit, one
``{"report": ...}`` line holding the full record (read by compare.py),
and, as the last line, the result object: correct, attempted, failed and
the metrics of the pass that BENCHMARK.json lists (end_to_end with
``--trace 0``, per_layer with ``--trace 1``).  ``--workload all`` runs
every workload in turn.  The exit code is non-zero when the build fails,
an oracle rejects the outputs, or a listed metric is missing.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
EXE = os.path.join(ROOT, "_build", "default", "bench", "e2e", "e2e.exe")
WORKLOADS = [
    "ycsb-hot",
    "stpcc-neworder",
    "counter-fastpath",
    "counter-fastpath-k2",
    "epoch-real2",
]
# Each workload's run must end within this many seconds, the build
# included.
RUN_LIMIT_S = 170


def build():
    # The shared dune cache lives outside the checkout; keep the build
    # inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ROOT, "./bench/e2e/e2e.exe"],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if proc.returncode != 0 or not os.path.exists(EXE):
        sys.exit("run.py: building bench/e2e/e2e.exe failed")


def host_info():
    def out(cmd):
        try:
            return subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return ""

    return {
        "nproc": os.cpu_count(),
        "ocaml": out(["ocamlc", "-version"]) or "unknown",
        "commit": out(["git", "rev-parse", "HEAD"]) or "unknown",
    }


def listed_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return bench["per_layer" if trace else "end_to_end"]


def run_workload(name, seed, seconds, trace, deadline):
    cmd = [EXE, "--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        cmd.append("--traced")
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: {name} did not finish in time")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.exit(f"run.py: {name} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    deadline = time.monotonic() + RUN_LIMIT_S
    build()
    listed = listed_metrics(args.trace)
    host = host_info()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    correct, attempted, failed, selected = True, 0, 0, {}
    for i, name in enumerate(names):
        if i > 0:
            deadline = time.monotonic() + RUN_LIMIT_S
        record = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        record["host"] = host
        print(
            f"[e2e] {name} seed={args.seed} trace={args.trace} "
            f"reps={ {v: len(r) for v, r in record['rep_host_txn_per_s'].items()} } "
            f"correct={record['correct']} "
            f"attempted={record['attempted']} failed={record['failed']}"
        )
        for failure in record["failures"]:
            print(f"  FAILED: {failure}")
        for metric, m in record["metrics"].items():
            print(f"  {metric:<38} {m['value']:>16.6g} {m['unit']}")
        print(json.dumps({"report": record}))
        correct = correct and record["correct"]
        attempted += record["attempted"]
        failed += record["failed"]
        for entry in listed:
            m = record["metrics"].get(entry["name"])
            if m is None or m["unit"] != entry["unit"]:
                sys.exit(f"run.py: {name} did not report {entry['name']} [{entry['unit']}]")
            if len(names) == 1:
                selected[entry["name"]] = m
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": selected,
            }
        )
    )
    if not correct:
        sys.exit(1)


if __name__ == "__main__":
    main()
