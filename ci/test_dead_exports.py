#!/usr/bin/env python3
"""Tests for ci/dead_exports.py: on a fixture tree with dead and used
values the scan fails, and passes once the dead values are
allowlisted.  Uses count only through the module: qualified, through
an alias, bare in a file that opens it, or unqualified-library inside
its own library; a same-name value of another module is not a use, and
neither is a use under test/.  An optional label of a live value that
only a test passes is reported too, and one that bin passes is not.

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
                     "module Inner : sig val x : int end\nval aliased : int\n"
                     "val opened : int\nval samelib : int\nval shadowed : int\n"
                     "val testonly : int\n"
                     "val opts :\n  ?bybin:int -> ?bytest:int -> unit -> int\n",
    "lib/a/foo.ml": "let used x = x + 1\nlet dead x = used x\n"
                    "module Inner = struct let x = 1 end\nlet aliased = 1\n"
                    "let opened = 2\nlet samelib = 3\nlet shadowed = 4\n"
                    "let testonly = 6\n"
                    "let opts ?(bybin = 0) ?(bytest = 0) () = bybin + bytest\n",
    # Inside library a, Foo.samelib needs no A. prefix.
    "lib/a/bar.ml": "let z = Foo.samelib\n",
    # Another module's value of the same name, used bare and qualified.
    "lib/a/baz.ml": "let shadowed = 5\nlet w = shadowed\n",
    # A name in a comment or a string, or a record field of the same
    # name, is not a use.
    "bin/main.ml": "(* A.Foo.dead is dead *)\nlet () = print_int (A.Foo.used 1)\n"
                   "let s = \"dead\"\nlet f r = r.dead\nlet y = A.Foo.Inner.x\n"
                   "let b = A.Baz.shadowed + Baz.shadowed\n"
                   "let o = A.Foo.opts ~bybin:1 ()\n",
    "bin/alias.ml": "module F = A.Foo\nlet v = F.aliased\n",
    "bin/opened.ml": "open A.Foo\nlet v = opened\n",
    # Tests are not callers.
    "test/test_foo.ml": "let t = A.Foo.testonly\nlet o = A.Foo.opts ~bytest:2 ()\n",
}
DEAD = ["lib/a/foo.mli dead kept for a test",
        "lib/a/foo.mli shadowed kept for a test",
        "lib/a/foo.mli testonly observer kept for a test",
        "lib/a/foo.mli opts?bytest test fake kept for a test"]


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

    def test_qualified_uses(self):
        code, out = self.run_scan()
        for name in ("aliased", "opened", "samelib"):
            self.assertNotIn("val " + name, out)
        self.assertIn("lib/a/foo.mli:7: val shadowed has no caller", out)
        self.assertIn("dead exports: 3 (3 not allowlisted, 0 allowlisted)",
                      out)

    def test_use_only_under_test_is_reported(self):
        code, out = self.run_scan()
        self.assertEqual(code, 1)
        self.assertIn("lib/a/foo.mli:8: val testonly has no caller", out)

    def test_allowlisted_dead_value_passes(self):
        code, out = self.run_scan(["# fixture"] + DEAD)
        self.assertEqual(code, 0, out)
        self.assertIn("allowed: kept for a test", out)
        self.assertIn("dead exports: 3 (0 not allowlisted, 3 allowlisted)",
                      out)

    def test_allowlisted_test_only_export_passes(self):
        code, out = self.run_scan(DEAD)
        self.assertEqual(code, 0, out)
        self.assertIn(
            "lib/a/foo.mli:8: val testonly (allowed: observer kept for a test)",
            out)

    def test_label_passed_only_by_a_test_is_reported(self):
        code, out = self.run_scan(DEAD[:3])
        self.assertEqual(code, 1)
        self.assertIn(
            "lib/a/foo.mli:9: val opts ?bytest is passed by no caller", out)
        self.assertIn("dead labels: 1 (1 not allowlisted, 0 allowlisted)",
                      out)

    def test_label_passed_by_bin_is_not_reported(self):
        code, out = self.run_scan(DEAD)
        self.assertEqual(code, 0, out)
        self.assertNotIn("?bybin", out)
        self.assertIn(
            "lib/a/foo.mli:9: val opts ?bytest (allowed: test fake kept for a test)",
            out)

    def test_allowlist_needs_a_reason(self):
        code, out = self.run_scan(["lib/a/foo.mli dead"])
        self.assertEqual(code, 1)
        self.assertIn("want PATH NAME REASON", out)

    def test_stale_allowlist_entry_fails(self):
        code, out = self.run_scan(DEAD + ["lib/a/foo.mli used no longer dead"])
        self.assertEqual(code, 1)
        self.assertIn("used is allowlisted but not a dead export", out)


if __name__ == "__main__":
    unittest.main()
