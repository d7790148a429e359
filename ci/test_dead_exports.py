#!/usr/bin/env python3
"""Tests for ci/dead_exports.py: on a fixture tree with one dead and one
used value the scan fails, and passes once the dead value is
allowlisted.

    python3 ci/test_dead_exports.py
"""

import contextlib
import io
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import dead_exports  # noqa: E402

FILES = {
    "lib/a/foo.mli": "val used : int -> int\nval dead : int -> int\n"
                     "module Inner : sig val x : int end\n",
    "lib/a/foo.ml": "let used x = x + 1\nlet dead x = used x\n"
                    "module Inner = struct let x = 1 end\n",
    # A name in a comment or a string, or a record field of the same
    # name, is not a use.
    "bin/main.ml": "(* Foo.dead is dead *)\nlet () = print_int (Foo.used 1)\n"
                   "let s = \"dead\"\nlet f r = r.dead\nlet y = Foo.Inner.x\n",
}


class DeadExportsTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.root = self.tmp.name
        for path, text in FILES.items():
            full = os.path.join(self.root, path)
            os.makedirs(os.path.dirname(full), exist_ok=True)
            with open(full, "w") as f:
                f.write(text)
        self.allow = os.path.join(self.root, "allow.txt")

    def tearDown(self):
        self.tmp.cleanup()

    def run_scan(self, allow_lines=None):
        if allow_lines is not None:
            with open(self.allow, "w") as f:
                f.write("".join(line + "\n" for line in allow_lines))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = dead_exports.main(["--root", self.root, "--allow", self.allow])
        return code, out.getvalue()

    def test_dead_value_fails(self):
        code, out = self.run_scan()
        self.assertEqual(code, 1)
        self.assertIn("lib/a/foo.mli:2: val dead has no caller", out)
        self.assertNotIn("val used", out)
        self.assertNotIn("Inner", out)

    def test_allowlisted_dead_value_passes(self):
        code, out = self.run_scan(["# fixture", "lib/a/foo.mli dead kept for a test"])
        self.assertEqual(code, 0, out)
        self.assertIn("allowed: kept for a test", out)

    def test_allowlist_needs_a_reason(self):
        code, out = self.run_scan(["lib/a/foo.mli dead"])
        self.assertEqual(code, 1)
        self.assertIn("want PATH NAME REASON", out)

    def test_stale_allowlist_entry_fails(self):
        code, out = self.run_scan(["lib/a/foo.mli dead kept for a test",
                                   "lib/a/foo.mli used no longer dead"])
        self.assertEqual(code, 1)
        self.assertIn("used is allowlisted but not a dead export", out)


if __name__ == "__main__":
    unittest.main()
