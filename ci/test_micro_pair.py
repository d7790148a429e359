#!/usr/bin/env python3
"""Tests for ci/micro_pair.py's gate: medians within the threshold pass;
a median past it, or a micro the head lost, fails; a micro only the head
has is reported; one slow run on a side does not move its median.  And
for its runs, with a stand-in for bench/main.exe: a run yields its one
micro record, written in the run's directory and not the tree's, and a
run that writes no micro record, or two, stops the pair.

    python3 ci/test_micro_pair.py
"""

import contextlib
import io
import json
import os
import stat
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import micro_pair  # noqa: E402


def gate(base, head, threshold=0.30):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        ok = micro_pair.gate(base, head, threshold)
    return ok, out.getvalue(), err.getvalue()


BASE = [{"a": 100.0, "b": 2.5}, {"a": 90.0, "b": 2.4}, {"a": 110.0, "b": 2.6}]


class GateTest(unittest.TestCase):
    def test_within_threshold(self):
        ok, out, err = gate(BASE, [{"a": 120.0, "b": 2.5}] * 3)
        self.assertTrue(ok, err)
        self.assertIn("micro pair check passed", out)

    def test_regression(self):
        head = [{"a": 140.0, "b": 2.5}] * 3
        ok, out, err = gate(BASE, head)
        self.assertFalse(ok)
        self.assertIn("<-- REGRESSION", out)
        self.assertIn("regressed more than 30%", err)
        self.assertTrue(gate(BASE, head, threshold=0.50)[0])

    def test_one_slow_run_is_not_the_median(self):
        head = [{"a": 100.0, "b": 2.5}, {"a": 400.0, "b": 9.0}, {"a": 105.0, "b": 2.5}]
        self.assertTrue(gate(BASE, head)[0])

    def test_missing_micro(self):
        ok, _, err = gate(BASE, [{"a": 100.0}] * 3)
        self.assertFalse(ok)
        self.assertIn("missing from the head", err)
        self.assertIn("  - b", err)

    def test_new_micro_only_reported(self):
        ok, out, err = gate(BASE, [{"a": 100.0, "b": 2.5, "c": 1.0}] * 3)
        self.assertTrue(ok, err)
        self.assertIn("(new)", out)


def micro_record(ns):
    return {"suite": "micro",
            "metrics": {"a": {"value": ns, "unit": "ns/op"}}}


class RunMicroTest(unittest.TestCase):
    """run_micro against a stand-in bench/main.exe that writes the given
    records as BENCH.jsonl in its working directory."""

    def run_with(self, records):
        tmp = tempfile.TemporaryDirectory(prefix="micro-pair-test-")
        self.addCleanup(tmp.cleanup)
        tree, cwd, out = (os.path.join(tmp.name, d) for d in ("tree", "run", "out"))
        exe = os.path.join(tree, micro_pair.EXE)
        for d in (os.path.dirname(exe), cwd, out):
            os.makedirs(d)
        with open(exe, "w") as f:
            f.write("#!/usr/bin/env python3\n"
                    f"lines = {[json.dumps(r) for r in records]!r}\n"
                    "with open('BENCH.jsonl', 'w') as f:\n"
                    "    f.write(''.join(line + '\\n' for line in lines))\n")
        os.chmod(exe, os.stat(exe).st_mode | stat.S_IXUSR)
        saved = micro_pair.OUT
        micro_pair.OUT = out
        self.addCleanup(setattr, micro_pair, "OUT", saved)
        with contextlib.redirect_stdout(io.StringIO()):
            metrics = micro_pair.run_micro(tree, "head", cwd)
        self.assertFalse(os.path.exists(os.path.join(tree, "BENCH.jsonl")))
        with open(os.path.join(out, "head.jsonl")) as f:
            self.assertEqual([json.loads(line) for line in f],
                             [r for r in records if r["suite"] == "micro"])
        return metrics

    def test_one_micro_record(self):
        other = {"suite": "fig6", "metrics": {}}
        self.assertEqual(self.run_with([other, micro_record(12.5)]), {"a": 12.5})

    def test_micro_record_required(self):
        for records in ([{"suite": "fig6", "metrics": {}}],
                        [micro_record(1.0), micro_record(2.0)]):
            with self.assertRaises(SystemExit) as cm:
                self.run_with(records)
            self.assertIn("expected one micro record", str(cm.exception.code))


if __name__ == "__main__":
    unittest.main()
