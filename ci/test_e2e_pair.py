#!/usr/bin/env python3
"""Tests for ci/e2e_pair.py's verdict step: on fixture run directories
holding one workload's equal base and head runs, the comparison
restricted to that workload passes, and the unrestricted one (every
workload of BENCHMARK.json, the others missing from both sets) fails.

    python3 ci/test_e2e_pair.py
"""

import contextlib
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import e2e_pair  # noqa: E402


@contextlib.contextmanager
def quiet_stdout():
    """Send fd 1 to /dev/null: compare.py runs as a child process."""
    sys.stdout.flush()
    saved = os.dup(1)
    with open(os.devnull, "w") as null:
        os.dup2(null.fileno(), 1)
    try:
        yield
    finally:
        os.dup2(saved, 1)
        os.close(saved)


def write_runs(directory, workload, seeds):
    metrics = {m["name"]: {"value": 100.0} for m in e2e_pair.benchmark()["end_to_end"]}
    metrics.update({"sim_tps": {"value": 5000.0}, "failed_frac": {"value": 0.0}})
    os.makedirs(directory)
    for seed in seeds:
        report = {"workload": workload, "seed": seed, "metrics": metrics}
        path = os.path.join(directory, f"{workload}-seed{seed}.txt")
        with open(path, "w") as f:
            f.write("[e2e] fixture run\n" + json.dumps({"report": report}) + "\n")


class CompareTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.workloads = [w["name"] for w in e2e_pair.benchmark()["workloads"]]
        self.workload = self.workloads[0]
        self.base = os.path.join(self.tmp.name, "base")
        self.head = os.path.join(self.tmp.name, "head")
        for side in (self.base, self.head):
            write_runs(side, self.workload, [1, 2, 3])

    def tearDown(self):
        self.tmp.cleanup()

    def compare(self, workloads):
        with quiet_stdout():
            return e2e_pair.compare(self.base, self.head, workloads)

    def test_restricted_run_is_judged_on_its_workload(self):
        self.assertEqual(self.compare([self.workload]), 0)

    def test_unrestricted_run_misses_the_other_workloads(self):
        self.assertGreater(len(self.workloads), 1)
        self.assertEqual(self.compare(self.workloads), 1)


if __name__ == "__main__":
    unittest.main()
