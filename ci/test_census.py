#!/usr/bin/env python3
"""Tests for ci/census.py's report on synthetic dumps: a site's counts
sum over processes, so a site one process hit and another did not is
reached; an unreached site of any library fails the report unless the
allowlist excuses it; an allowlist entry that excuses no unreached site
fails it.

    python3 ci/test_census.py
"""

import io
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import census  # noqa: E402

HIT_ONCE = "lib/alohadb/frontend.ml:10:4 match submit Txn.Read_only { keys }"
DEAD = "lib/alohadb/frontend.ml:20:6 else complete -"
GUARD = "lib/functor_cc/planner.ml:30:8 match eval _ -> assert false"
OTHER = "lib/sim/heap.ml:5:2 then pop n = 0"
OBS = "lib/obs/x.ml:7:4 match render None"


class Report(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.dumps = os.path.join(self.dir.name, "dumps")
        os.makedirs(self.dumps)

    def tearDown(self):
        self.dir.cleanup()

    def dump(self, name, lines):
        with open(os.path.join(self.dumps, name), "w") as f:
            f.write("".join("%d %s\n" % (n, site) for n, site in lines))

    def run_report(self, allow_lines):
        allow = os.path.join(self.dir.name, "allow.txt")
        with open(allow, "w") as f:
            f.write("# comment\n\n" + "".join(l + "\n" for l in allow_lines))
        out = io.StringIO()
        listing = os.path.join(self.dir.name, "unreached.txt")
        rc = census.report(self.dumps, allow, out=out, listing=listing)
        with open(listing) as f:
            return rc, out.getvalue(), f.read()

    def two_processes(self, dead_too):
        self.dump("census-a.txt", [(3, HIT_ONCE), (0, GUARD), (0, OTHER)]
                  + ([(0, DEAD)] if dead_too else []))
        self.dump("census-b.txt", [(0, HIT_ONCE), (0, GUARD), (2, OTHER)]
                  + ([(0, DEAD)] if dead_too else []))

    GUARD_ENTRY = ("lib/functor_cc/planner.ml eval match _ -> assert false"
                   " -- guard: a node is never evaluated twice")

    def test_counts_merge_across_processes(self):
        self.two_processes(dead_too=False)
        rc, out, listing = self.run_report([self.GUARD_ENTRY])
        self.assertEqual(rc, 0, out)
        self.assertNotIn("frontend.ml:10", listing)
        self.assertIn("lib/alohadb         0 of    1 unreached", out)

    def test_unallowlisted_unreached_arm_fails(self):
        self.two_processes(dead_too=True)
        rc, out, _ = self.run_report([self.GUARD_ENTRY])
        self.assertEqual(rc, 1)
        self.assertIn("unreached, not allowlisted: " + DEAD, out)
        self.assertNotIn("not allowlisted: " + GUARD, out)

    def test_allowlisted_unreached_arm_passes(self):
        self.two_processes(dead_too=True)
        rc, out, listing = self.run_report([
            self.GUARD_ENTRY,
            "lib/alohadb/frontend.ml complete else - -- "
            "mechanism: ROADMAP item 2"])
        self.assertEqual(rc, 0, out)
        self.assertIn("lib/functor_cc      1 of    1 unreached "
                      "(1 allowlisted)", out)
        self.assertIn("lib/sim             0 of    1 unreached "
                      "(0 allowlisted)", out)
        self.assertIn(GUARD + "  [guard: ", listing)

    def test_every_library_is_gated(self):
        self.two_processes(dead_too=False)
        self.dump("census-c.txt", [(0, OBS)])
        rc, out, listing = self.run_report([self.GUARD_ENTRY])
        self.assertEqual(rc, 1)
        self.assertIn("unreached, not allowlisted: " + OBS, out)
        self.assertIn("lib/obs             1 of    1 unreached "
                      "(0 allowlisted)", out)
        self.assertIn(OBS + "\n", listing)
        rc, out, _ = self.run_report([
            self.GUARD_ENTRY,
            "lib/obs/x.ml render match None -- observer: a render of "
            "nothing"])
        self.assertEqual(rc, 0, out)

    def test_stale_entry_fails(self):
        self.two_processes(dead_too=False)
        rc, out, _ = self.run_report([
            self.GUARD_ENTRY,
            "lib/alohadb/frontend.ml submit match "
            "Txn.Read_only { keys } -- guard: reached by now"])
        self.assertEqual(rc, 1)
        self.assertIn("stale allowlist entry: lib/alohadb/frontend.ml "
                      "submit match Txn.Read_only { keys }", out)

    def test_entry_without_reason_kind_is_an_error(self):
        self.two_processes(dead_too=False)
        with self.assertRaises(SystemExit):
            self.run_report(["lib/functor_cc/planner.ml eval match "
                             "_ -> assert false -- because"])


if __name__ == "__main__":
    unittest.main()
