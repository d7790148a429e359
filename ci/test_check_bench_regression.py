#!/usr/bin/env python3
"""Tests for ci/check_bench_regression.py: one good file passes, and each
shape rule, suite check and micro-gate rule fails on a fixture built to
break it.

    python3 ci/test_check_bench_regression.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_bench_regression as gate  # noqa: E402

HOST = {"nproc": 2, "ocaml": "5.1.1", "commit": "unknown"}


def record(suite, labels, metrics, **extra):
    rec = {"suite": suite, "labels": labels,
           "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    rec.update(extra)
    rec["host"] = dict(HOST)
    return rec


def availability(k, submitted, completed, curve):
    return record(
        "availability",
        {"engine": "aloha", "replicas": str(k), "seed": "42",
         "schedule": "crash node=1 at=20000"},
        {"submitted": (submitted, "count"), "completed": (completed, "count"),
         "samples": (len(curve), "count")},
        points=[{"t_us": t, "committed": c} for t, c in curve])


def fastpath(mode, p50, fast):
    return record(
        "fastpath", {"workload": "ycsb ci=0.01", "mode": mode},
        {"committed": (1000, "count"), "tps": (5000.5, "txn/sim_s"),
         "p50_us": (p50, "sim_us"), "p99_us": (p50 * 2, "sim_us"),
         "fastpath_commits": (fast, "count")})


def micro(**ns):
    return record("micro", {}, {name: (v, "ns") for name, v in ns.items()})


def good():
    return [
        record("macro", {"fig": "fig9", "series": "ALOHA", "point": "ci=0.01"},
               {"tps": (400217.5, "txn/sim_s")}),
        record("telemetry", {"engine": "aloha", "workload": "ycsb"},
               {"tps": (1.0, "txn/sim_s"), "committed": (5, "count"),
                "lat_p50_us": (100, "sim_us"), "lat_p999_us": (900, "sim_us")}),
        record("target", {"target": "fig9", "scale": "quick"}, {"wall_s": (1.5, "s")}),
        availability(1, 60, 0, [(5000, 0), (10000, 0)]),
        availability(2, 60, 60, [(5000, 0), (10000, 30), (15000, 60)]),
        fastpath("off", 10143, 0),
        fastpath("on", 216, 71361),
        micro(a=100.0, b=2.5),
    ]


class GateTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, records):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as f:
            for r in records:
                f.write((r if isinstance(r, str) else json.dumps(r)) + "\n")
        return path

    def run_gate(self, *args, env=None):
        out, err = io.StringIO(), io.StringIO()
        old = dict(os.environ)
        os.environ.update(env or {})
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = gate.main(["check_bench_regression.py", *args])
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                    err.write(str(exc.code))
        finally:
            os.environ.clear()
            os.environ.update(old)
        return code, out.getvalue(), err.getvalue()

    def assert_fails(self, records, needle):
        code, _, err = self.run_gate(self.write("BENCH.jsonl", records))
        self.assertEqual(code, 1, err)
        self.assertIn(needle, err)

    def replace(self, suite, key, value, new):
        """good() with the record whose labels[key] == value replaced."""
        return [new if r["suite"] == suite and r["labels"].get(key) == value
                else r for r in good()]

    def test_good_file_passes(self):
        code, out, err = self.run_gate(self.write("BENCH.jsonl", good()))
        self.assertEqual(code, 0, err)
        self.assertIn("8 record(s)", out)

    # ---- shape ----

    def test_duplicate_suite_and_labels(self):
        self.assert_fails(good() + [good()[0]], "duplicate of")

    def test_duplicate_across_files(self):
        first = self.write("a.jsonl", good())
        second = self.write("b.jsonl", [good()[0]])
        code, _, err = self.run_gate(first, second)
        self.assertEqual(code, 1)
        self.assertIn("duplicate of", err)

    def test_null_metric(self):
        recs = good()
        recs[0]["metrics"]["tps"]["value"] = None
        self.assert_fails(recs, "is not a finite number")

    def test_nan_metric(self):
        recs = [json.dumps(r) for r in good()]
        recs[0] = recs[0].replace("400217.5", "NaN")
        self.assert_fails(recs, "is not a finite number")

    def test_missing_host(self):
        recs = good()
        del recs[0]["host"]
        self.assert_fails(recs, "host must hold")

    def test_empty_unit(self):
        recs = good()
        recs[0]["metrics"]["tps"]["unit"] = ""
        self.assert_fails(recs, "unit must be a non-empty string")

    def test_padded_macro_label(self):
        recs = good()
        recs[0]["labels"]["series"] = "ALOHA "
        self.assert_fails(recs, "without padding")

    # ---- availability ----

    def test_replicated_run_incomplete(self):
        self.assert_fails(
            self.replace("availability", "replicas", "2",
                         availability(2, 60, 59, [(5000, 0), (10000, 59)])),
            "every replicated run (k > 1) completes")

    def test_completed_above_submitted(self):
        self.assert_fails(
            self.replace("availability", "replicas", "1",
                         availability(1, 60, 61, [(5000, 61)])),
            "completed <= submitted")

    def test_falling_curve(self):
        self.assert_fails(
            self.replace("availability", "replicas", "2",
                         availability(2, 60, 60, [(5000, 40), (10000, 30), (15000, 60)])),
            "the committed count never falls")

    def test_times_not_increasing(self):
        self.assert_fails(
            self.replace("availability", "replicas", "2",
                         availability(2, 60, 60, [(5000, 0), (5000, 60)])),
            "sample times strictly increase")

    def test_last_sample_not_completed(self):
        self.assert_fails(
            self.replace("availability", "replicas", "2",
                         availability(2, 60, 60, [(5000, 0), (10000, 50)])),
            "the last sample equals completed")

    def test_samples_metric_disagrees(self):
        recs = good()
        recs[4]["metrics"]["samples"]["value"] = 7
        self.assert_fails(recs, "as many as the samples metric")

    def test_two_records_for_one_degree(self):
        other = availability(2, 60, 60, [(5000, 60)])
        other["labels"]["seed"] = "43"
        self.assert_fails(good() + [other], "one record per replication degree")

    def test_availability_label_missing(self):
        recs = good()
        del recs[3]["labels"]["engine"]
        self.assert_fails(recs, "labels name the engine")

    def test_availability_metric_missing(self):
        recs = good()
        del recs[3]["metrics"]["submitted"]
        self.assert_fails(recs, "metrics are submitted, completed and samples")

    def test_submitted_zero(self):
        self.assert_fails(
            self.replace("availability", "replicas", "1",
                         availability(1, 0, 0, [(5000, 0)])),
            "submitted > 0 and completed >= 0")

    # ---- fastpath ----

    def test_on_p50_not_below_off(self):
        self.assert_fails(
            self.replace("fastpath", "mode", "on", fastpath("on", 10143, 5)),
            "the on-lane p50 is below the off-lane p50")

    def test_fast_commits_with_lane_off(self):
        self.assert_fails(
            self.replace("fastpath", "mode", "off", fastpath("off", 10143, 3)),
            "no fast commits with the lane off")

    def test_no_fast_commits_with_lane_on(self):
        self.assert_fails(
            self.replace("fastpath", "mode", "on", fastpath("on", 216, 0)),
            "some fast commits with the lane on")

    def test_missing_off_record(self):
        self.assert_fails([r for r in good() if r["labels"].get("mode") != "off"],
                          "exactly one on and one off record")

    def test_bad_mode(self):
        self.assert_fails(
            self.replace("fastpath", "mode", "on", fastpath("fast", 216, 5)),
            "a mode of on or off")

    def test_p99_below_p50(self):
        bad = fastpath("on", 216, 5)
        bad["metrics"]["p99_us"]["value"] = 100
        self.assert_fails(self.replace("fastpath", "mode", "on", bad),
                          "0 < p50_us <= p99_us")

    def test_fractional_p50(self):
        bad = fastpath("on", 216.5, 5)
        self.assert_fails(self.replace("fastpath", "mode", "on", bad),
                          "0 < p50_us <= p99_us")

    def test_zero_committed(self):
        bad = fastpath("on", 216, 5)
        bad["metrics"]["committed"]["value"] = 0
        self.assert_fails(self.replace("fastpath", "mode", "on", bad),
                          "committed is a positive integer")

    def test_zero_tps(self):
        bad = fastpath("on", 216, 5)
        bad["metrics"]["tps"]["value"] = 0
        self.assert_fails(self.replace("fastpath", "mode", "on", bad), "tps > 0")

    def test_negative_fast_commits(self):
        bad = fastpath("off", 10143, -1)
        self.assert_fails(self.replace("fastpath", "mode", "off", bad),
                          "fastpath_commits is a non-negative integer")

    def test_fastpath_metric_missing(self):
        bad = fastpath("on", 216, 5)
        del bad["metrics"]["tps"]
        self.assert_fails(self.replace("fastpath", "mode", "on", bad),
                          "metrics are committed, tps")

    # ---- micro gate ----

    def test_micro_within_threshold(self):
        current = self.write("BENCH.jsonl", good())
        base = self.write("base.jsonl", [micro(a=90.0, b=2.5)])
        code, out, err = self.run_gate(current, "--baseline", base)
        self.assertEqual(code, 0, err)
        self.assertIn("bench regression check passed", out)

    def test_micro_regression(self):
        current = self.write("BENCH.jsonl", good())
        base = self.write("base.jsonl", [micro(a=70.0, b=2.5)])
        code, out, err = self.run_gate(current, "--baseline", base)
        self.assertEqual(code, 1)
        self.assertIn("<-- REGRESSION", out)
        self.assertIn("regressed more than 30%", err)
        code, _, err = self.run_gate(current, "--baseline", base,
                                     env={"BENCH_REGRESSION_THRESHOLD": "0.50"})
        self.assertEqual(code, 0, err)

    def test_micro_missing_name(self):
        current = self.write("BENCH.jsonl", good())
        base = self.write("base.jsonl", [micro(a=100.0, b=2.5, c=1.0)])
        code, _, err = self.run_gate(current, "--baseline", base)
        self.assertEqual(code, 1)
        self.assertIn("missing from", err)
        self.assertIn("  - c", err)

    def test_micro_new_name_only_reported(self):
        current = self.write("BENCH.jsonl", good())
        base = self.write("base.jsonl", [micro(a=100.0)])
        code, out, err = self.run_gate(current, "--baseline", base)
        self.assertEqual(code, 0, err)
        self.assertIn("(new)", out)

    def test_micro_record_required(self):
        current = self.write("BENCH.jsonl", [r for r in good() if r["suite"] != "micro"])
        base = self.write("base.jsonl", [micro(a=100.0)])
        code, _, err = self.run_gate(current, "--baseline", base)
        self.assertEqual(code, 1)
        self.assertIn("expected one micro record", err)

    # ---- --validate-timeline --------------------------------------------

    def timeline(self, worker):
        meta = {"type": "meta", "cfg_epoch_us": 10000, "nodes": 1, "replicas": 1}
        stratum = {"type": "stratum", "node": 0, "t0_us": 100, "t1_us": 250,
                   "size": 4, "workers": [worker]}
        return self.write("TIMELINE.jsonl", [meta, stratum])

    def test_timeline_stratum_passes(self):
        path = self.timeline({"worker": 0, "completed": 3})
        code, out, err = self.run_gate("--validate-timeline", path)
        self.assertEqual(code, 0, err)
        self.assertIn("timeline ok", out)

    def test_timeline_stratum_worker_without_completed(self):
        path = self.timeline({"worker": 0})
        code, _, err = self.run_gate("--validate-timeline", path)
        self.assertEqual(code, 1)
        self.assertIn("'completed' must be int", err)


if __name__ == "__main__":
    unittest.main()
