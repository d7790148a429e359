#!/usr/bin/env python3
"""Behaviour-neutrality check: the simulated figures of a base revision
against the working tree.

    python3 ci/figs_pair.py --base REV

Exports REV with `git archive` into a temporary directory (removed on
exit; set TMPDIR to choose where it goes), builds bench/main.exe in both
trees, and runs

    bench/main.exe fig6 fig7 fig8 fig9 fig10 fig11 ext-conventional \
        availability fastpath

in each, the two trees side by side.  The figures print simulated values
only, so a change that leaves behaviour alone prints the same bytes.  The
outputs go to figs-pair/base.txt and figs-pair/head.txt.  Each run also
writes its measurement records to BENCH.jsonl in its tree; those are
compared too, once each record's host block and the target records (host
wall time per target) are dropped.  Any difference is printed as a
unified diff and the script exits 1.  At quick scale the two trees, side
by side, take about 12 minutes on a 2-core host.
"""

import argparse
import difflib
import json
import os
import shutil
import subprocess
import sys
import tempfile

from e2e_pair import ROOT, export

OUT = os.path.join(ROOT, "figs-pair")
TARGETS = ["fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "ext-conventional",
           "availability", "fastpath"]


def simulated_records(path):
    """BENCH.jsonl as lines without host blocks or target wall times."""
    if not os.path.exists(path):
        sys.exit(f"figs_pair.py: {path} is missing (BASE predates BENCH.jsonl?)")
    lines = []
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            if rec["suite"] != "target":
                rec.pop("host")
                lines.append(json.dumps(rec, sort_keys=True) + "\n")
    return lines


def build(tree):
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", tree, "./bench/main.exe"], cwd=tree, env=env
    )
    if proc.returncode != 0:
        sys.exit(f"figs_pair.py: building bench/main.exe in {tree} failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    args = ap.parse_args()

    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="figs-pair-")
    try:
        export(args.base, tmp)
        print(f"base {args.base} in {tmp}; head: the working tree of {ROOT}", flush=True)
        trees = {"base": tmp, "head": ROOT}
        for tree in trees.values():
            build(tree)
        procs = {}
        for side, tree in trees.items():
            exe = os.path.join(tree, "_build", "default", "bench", "main.exe")
            with open(os.path.join(OUT, f"{side}.txt"), "w") as out:
                procs[side] = subprocess.Popen([exe] + TARGETS, cwd=tree, stdout=out)
        failed = [side for side, p in procs.items() if p.wait() != 0]
        if failed:
            sys.exit(f"figs_pair.py: bench/main.exe failed in {', '.join(failed)}")
        outputs = {}
        for side, tree in trees.items():
            with open(os.path.join(OUT, f"{side}.txt")) as f:
                outputs[side] = {
                    "figures": f.readlines(),
                    "BENCH.jsonl": simulated_records(os.path.join(tree, "BENCH.jsonl")),
                }
        diff = []
        for name, base in outputs["base"].items():
            diff += difflib.unified_diff(
                base, outputs["head"][name], f"base/{name}", f"head/{name}"
            )
    finally:
        shutil.rmtree(tmp)

    if diff:
        sys.stdout.writelines(diff)
        sys.exit(1)
    print(f"figs-pair: {len(outputs['base'])} outputs, identical")


if __name__ == "__main__":
    main()
