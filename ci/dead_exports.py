#!/usr/bin/env python3
"""List exported values and modules that no program outside their own
module uses, and fail on any that the allowlist does not excuse.

Usage:
    python3 ci/dead_exports.py [--root DIR] [--allow FILE]

An export is a top-level `val NAME` or `module NAME` line of a
`lib/*/*.mli`.  It is dead when no `.ml` file under lib, bin, bench or
examples, other than the module's own `.ml`, uses it.  Tests do not
count as callers: code that no deployment, figure, CLI run or benchmark
reaches is reported even when a test calls it.  For the
module `Foo` of the library `lib/bar`, a file uses NAME through
`Bar.Foo.NAME`, through `Foo.NAME` when the file is in `lib/bar` or
opens `Bar`, through `X.NAME` after an alias `module X = Bar.Foo` (or
`= Foo` where `Foo.NAME` would do), or through a bare `NAME` when the
file opens the module (`open`, `let open` or `Foo.( ... )`).  Comments
and string literals are removed first.  A value another module also
names is therefore not taken for a use, but an export used only
through a functor or first-class module argument is reported.

A live `val`'s optional label `?label` (in the `val` line or the
indented lines after it) is dead when no such `.ml` file other than
the module's own passes `~label` or `?label`.  That match is by label
name alone, so a same-name label passed to another function counts as
a pass: the rule finds knobs that nothing sets, not every one.

Each allowlist line is `PATH NAME REASON...` (PATH relative to the
root, e.g. `lib/sim/rng.mli split because ...`, NAME `VAL?LABEL` for a
label); blank lines and lines starting with `#` are ignored, and a
line without a reason is an error.  The run exits 1 when a dead export
or label is not allowlisted, or when an allowlist line names one that
is no longer dead, so the list cannot go stale.  The two summary lines
count the dead exports and the dead labels, those not allowlisted and
those the allowlist excused.  --root defaults to the repository
holding this script, --allow to ci/dead_exports_allow.txt under the
root.
"""

import argparse
import glob
import os
import re
import sys

CALLER_DIRS = ("lib", "bin", "bench", "examples")  # not test
EXPORT = re.compile(r"^(val|module)\s+([A-Za-z_][A-Za-z0-9_']*)")


def strip_code(src):
    """The source with comments (nested), string literals and character
    literals blanked out, so names in them do not count as uses."""
    out = []
    i, n, depth = 0, len(src), 0
    while i < n:
        c = src[i]
        if src.startswith("(*", i):
            depth += 1
            i += 2
        elif depth > 0 and src.startswith("*)", i):
            depth -= 1
            i += 2
        elif c == '"':
            i += 1
            while i < n and src[i] != '"':
                i += 2 if src[i] == "\\" else 1
            i += 1
            if depth == 0:
                out.append(' "" ')
        elif depth == 0 and c == "'" and re.match(r"'(\\.[^']*|[^\\'])'", src[i:i + 8]):
            i = src.index("'", i + 2) + 1
            out.append(" ")
        else:
            if depth == 0:
                out.append(c)
            i += 1
    return "".join(out)


def exports(root):
    """(mli path relative to root, kind, name, line) for every export."""
    found = []
    for mli in sorted(glob.glob(os.path.join(root, "lib", "*", "*.mli"))):
        with open(mli) as f:
            for lineno, line in enumerate(f, 1):
                m = EXPORT.match(line)
                if m and not line.startswith("module type"):
                    found.append((os.path.relpath(mli, root), m.group(1),
                                  m.group(2), lineno))
    return found


def caller_sources(root):
    """Stripped text of every .ml under the caller directories, by path."""
    sources = {}
    for d in CALLER_DIRS:
        for dirpath, _, files in os.walk(os.path.join(root, d)):
            if "_build" in dirpath.split(os.sep):
                continue
            for name in files:
                if name.endswith(".ml"):
                    path = os.path.join(dirpath, name)
                    with open(path) as f:
                        sources[os.path.relpath(path, root)] = strip_code(f.read())
    return sources


def module_of(mli):
    """(library module name, module name) of a `lib/LIB/MOD.mli` path."""
    parts = mli.split(os.sep)
    return parts[1].capitalize(), os.path.basename(mli)[:-4].capitalize()


def qualifiers(path, src, lib, mod):
    """The module paths through which `src` (at `path`) reaches lib.mod,
    and whether it opens the module."""
    paths = [lib + "." + mod]
    lib_open = re.search(r"(?<![\w'.])open!?\s+" + lib + r"(?![\w'.])", src)
    if path.split(os.sep)[:2] == ["lib", lib.lower()] or lib_open:
        paths.append(mod)
    alias = r"(?<![\w'.])module\s+([A-Z][\w']*)\s*=\s*(?:" + "|".join(
        re.escape(q) for q in list(paths)) + r")(?![\w'.])"
    paths += re.findall(alias, src)
    quals = "|".join(re.escape(q) for q in paths)
    opens = re.search(r"(?<![\w'.])(?:open!?\s+(?:" + quals + r")(?![\w'.])"
                      r"|(?:" + quals + r")\.\()", src)
    return paths, bool(opens)


def used(sources, own, lib, mod, name):
    tail = re.escape(name) + r"(?![\w'])"
    for path, src in sources.items():
        if path == own:
            continue
        paths, opened = qualifiers(path, src, lib, mod)
        quals = "|".join(re.escape(q) for q in paths)
        if re.search(r"(?<![\w'.])(?:" + quals + r")\." + tail, src):
            return True
        if opened and re.search(r"(?<![\w'.])" + tail, src):
            return True
    return False


def dead_exports(root, sources):
    dead = []
    for mli, kind, name, lineno in exports(root):
        lib, mod = module_of(mli)
        if not used(sources, mli[:-1], lib, mod, name):
            dead.append((mli, kind, name, lineno))
    return dead


def optional_labels(root, mli, lineno):
    """The `?label`s in the signature of the `val` at line `lineno` of
    `mli`: that line and the indented lines after it."""
    with open(os.path.join(root, mli)) as f:
        lines = f.read().split("\n")
    sig = [lines[lineno - 1]]
    for line in lines[lineno:]:
        if not line.strip() or not line[0].isspace():
            break
        sig.append(line)
    return re.findall(r"\?([a-z_][\w']*)\s*:", strip_code("\n".join(sig)))


def dead_labels(root, sources, dead):
    """(mli, "NAME?LABEL", line) for every `?label` of a live exported
    `val` that no caller source other than the module's own passes as
    `~label` or `?label`."""
    dead_names = {(d[0], d[2]) for d in dead}
    found = []
    for mli, kind, name, lineno in exports(root):
        if kind != "val" or (mli, name) in dead_names:
            continue
        for label in optional_labels(root, mli, lineno):
            passed = re.compile(r"(?<![\w'])[~?]" + re.escape(label) + r"(?![\w'])")
            if not any(passed.search(src) for path, src in sources.items()
                       if path != mli[:-1]):
                found.append((mli, name + "?" + label, lineno))
    return found


def read_allowlist(path):
    allowed, errors = {}, []
    if not os.path.exists(path):
        return allowed, errors
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split(None, 2)
            if len(fields) < 3:
                errors.append(f"{path}:{lineno}: want PATH NAME REASON, got {line!r}")
                continue
            allowed[(fields[0], fields[1])] = fields[2]
    return allowed, errors


def main(argv=None):
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", default=here)
    ap.add_argument("--allow", default=None)
    args = ap.parse_args(argv)
    allow_path = args.allow or os.path.join(args.root, "ci", "dead_exports_allow.txt")
    allowed, errors = read_allowlist(allow_path)
    sources = caller_sources(args.root)
    dead = dead_exports(args.root, sources)
    failed = bool(errors)
    for e in errors:
        print(e)
    dead_keys = set()
    for mli, kind, name, lineno in dead:
        dead_keys.add((mli, name))
        if (mli, name) in allowed:
            print(f"{mli}:{lineno}: {kind} {name} (allowed: {allowed[(mli, name)]})")
        else:
            print(f"{mli}:{lineno}: {kind} {name} has no caller outside its module")
            failed = True
    labels = dead_labels(args.root, sources, dead)
    for mli, name, lineno in labels:
        dead_keys.add((mli, name))
        val, label = name.split("?")
        if (mli, name) in allowed:
            print(f"{mli}:{lineno}: val {val} ?{label} (allowed: {allowed[(mli, name)]})")
        else:
            print(f"{mli}:{lineno}: val {val} ?{label} is passed by no caller "
                  "outside its module")
            failed = True
    for key in sorted(set(allowed) - dead_keys):
        print(f"{allow_path}: {key[0]} {key[1]} is allowlisted but not a dead export")
        failed = True
    unexcused = sum(1 for d in dead if (d[0], d[2]) not in allowed)
    print(f"dead exports: {len(dead)} ({unexcused} not allowlisted, "
          f"{len(dead) - unexcused} allowlisted)")
    unexcused = sum(1 for d in labels if (d[0], d[1]) not in allowed)
    print(f"dead labels: {len(labels)} ({unexcused} not allowlisted, "
          f"{len(labels) - unexcused} allowlisted)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
