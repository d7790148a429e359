#!/usr/bin/env python3
"""The branch census: which arms of the library code no program run
reaches.

Usage:
    python3 ci/census.py                  # build, run the corpus, report
    python3 ci/census.py report DUMPDIR   # report on existing dumps

The corpus builds the tree with `dune build --instrument-with census`
(the ppx in ci/census/) into _census/, then runs the programs below with
CENSUS_DIR set, so that each process writes one dump: a line
`COUNT FILE:LINE:COL KIND BINDING PATTERN` per site of every
instrumented module it linked.  A site is a match or function arm, a
try handler, a then or else branch or a function body (KIND `match`,
`function`, `try`, `then`, `else`, `body`).  Programs only: tests and
the micro suite are not callers, as in ci/dead_exports.py.

The report sums the counts of a site over all dumps and prints, per
library, the sites no run reached out of all sites.  In the gated
libraries (GATED) it lists every unreached site that the allowlist does
not excuse; every unreached site of every library, excused or not, goes
to _census/unreached.txt beside the dumps' directory.  It exits 1 on an
unexcused unreached site in a gated library, and on an allowlist entry
that excuses no unreached site, so the list cannot go stale.

Each allowlist line is `PATH BINDING KIND PATTERN -- REASON`, the
fields of a dump line without its line and column, so an entry survives
edits above it; one entry excuses every site with those four fields.
PATTERN runs to the line's last ` -- `.
REASON starts with a kind: `observer`, `test fake` and `mechanism` as in
ci/dead_exports_allow.txt, or `guard` for safety code (argument checks,
`assert false`, stale-incarnation checks, handler exceptions).  Blank
lines and lines starting with `#` are ignored.
"""

import collections
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GATED = ("lib/alohadb", "lib/functor_cc")
ALLOW = os.path.join(ROOT, "ci", "census_allow.txt")
REASON_KINDS = ("observer", "test fake", "mechanism", "guard")
QUICK_FIGURES = ["table1", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
                 "ablation-straggler", "ablation-push", "ablation-dependent",
                 "ext-conventional"]


def corpus():
    """The program runs, one argv each (the first word names the
    executable under the instrumented build)."""
    cli = "bin/alohadb_cli.exe"
    runs = [["examples/%s.exe" % e] for e in
            ("quickstart", "bank_transfer", "dependent_orders", "tpcc_demo",
             "ycsb_contention")]
    runs.append(["bench/e2e/e2e.exe", "--smoke"])
    runs.append([cli, "chaos", "--engine", "all", "--seed", "1",
                 "--count", "25"])
    for k in ("1", "2", "3"):
        for fp in ([], ["--fastpath"]):
            runs.append([cli, "chaos", "--engine", "aloha", "--seed", "1",
                         "--count", "50", "--replicas", k] + fp)
    # make real-smoke's and fastpath-smoke's CLI runs
    for d in ("4", "1"):
        runs.append([cli, "run", "--system", "aloha", "--workload", "ycsb",
                     "--runtime", "real", "--domains", d,
                     "--measure-ms", "200"])
        runs.append([cli, "run", "--system", "aloha", "--workload", "stpcc",
                     "--runtime", "real", "--domains", d, "--servers", "4",
                     "--per-host", "1", "--clients", "100",
                     "--measure-ms", "100"])
    runs.append([cli, "run", "--system", "aloha", "--workload", "ycsb",
                 "--fastpath", "on", "--servers", "4", "--clients", "4",
                 "--measure-ms", "200"])
    for system in ("aloha", "calvin", "twopl"):
        for workload in ("ycsb", "tpcc", "stpcc"):
            runs.append([cli, "run", "--system", system,
                         "--workload", workload])
        runs.append([cli, "trace", "--engine", system, "--sample", "16",
                     "--out", "TRACE.json", "--telemetry", "TELEMETRY.jsonl"])
    runs.append(["sh", "-c",
                 "{cli} timeline --seed 2 --servers 3 --replicas 2 "
                 "--out TIMELINE.jsonl && {cli} doctor TIMELINE.jsonl "
                 "--report INCIDENTS.json"])
    runs.append([cli, "stats"])
    runs.append(["bench/main.exe", "fastpath", "availability"])
    runs += [["bench/main.exe", f] for f in QUICK_FIGURES]
    return runs


def run_corpus(build, dumps, work, jobs):
    os.makedirs(dumps, exist_ok=True)
    os.makedirs(work, exist_ok=True)
    env = dict(os.environ, CENSUS_DIR=os.path.abspath(dumps))
    cli = os.path.join(build, "default", "bin", "alohadb_cli.exe")

    def one(item):
        i, run = item
        if run[0] == "sh":
            argv = run[:2] + [run[2].format(cli=cli)]
        else:
            argv = [os.path.join(build, "default", run[0])] + run[1:]
        cwd = os.path.join(work, "run%02d" % i)
        os.makedirs(cwd, exist_ok=True)
        with open(os.path.join(cwd, "log.txt"), "w") as log:
            rc = subprocess.call(argv, cwd=cwd, env=env, stdout=log,
                                 stderr=subprocess.STDOUT)
        print("census: exit %d  %s" % (rc, " ".join(run)), flush=True)
        return rc

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        codes = list(pool.map(one, enumerate(corpus())))
    return all(rc == 0 for rc in codes)


def parse_site(site):
    """(path, binding, kind, pattern) of a dump line's site text."""
    where, kind, binding, pattern = site.split(" ", 3)
    return where.split(":", 1)[0], binding, kind, pattern


def merge(dumps):
    """Site text -> total count over every dump file in a directory."""
    counts = collections.Counter()
    for name in sorted(os.listdir(dumps)):
        with open(os.path.join(dumps, name)) as f:
            for line in f:
                count, site = line.rstrip("\n").split(" ", 1)
                counts[site] += int(count)
    return counts


def load_allow(path):
    entries = []
    if not os.path.exists(path):
        return entries
    with open(path) as f:
        for n, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            site, _, reason = line.rpartition(" -- ")
            fields = site.split(" ", 3)
            if len(fields) != 4 or not reason.startswith(REASON_KINDS):
                raise SystemExit("%s:%d: want PATH BINDING KIND PATTERN -- "
                                 "REASON with a reason kind of %s"
                                 % (path, n, ", ".join(REASON_KINDS)))
            entries.append(tuple(fields) + (reason,))
    return entries


def library(path):
    return "/".join(path.split("/")[:2])


def report(dumps, allow_path, out=sys.stdout, listing=None):
    counts = merge(dumps)
    allow = load_allow(allow_path)
    keys = {e[:4]: e for e in allow}
    used = set()
    totals = collections.Counter()
    unreached = collections.defaultdict(list)
    for site, count in counts.items():
        path = parse_site(site)[0]
        totals[library(path)] += 1
        if count == 0:
            unreached[library(path)].append(site)
    failed = []
    lines = []
    for lib in sorted(totals):
        sites = sorted(unreached[lib], key=site_order)
        excused = [s for s in sites if parse_site(s) in keys]
        used.update(parse_site(s) for s in excused)
        out.write("%-16s %4d of %4d unreached (%d allowlisted)\n"
                  % (lib, len(sites), totals[lib], len(excused)))
        for s in sites:
            entry = keys.get(parse_site(s))
            lines.append(s + ("  [" + entry[4] + "]" if entry else ""))
            if lib in GATED and entry is None:
                failed.append(s)
    for s in failed:
        out.write("unreached, not allowlisted: %s\n" % s)
    stale = [e for e in allow if e[:4] not in used]
    for e in stale:
        out.write("stale allowlist entry: %s\n" % " ".join(e[:4]))
    if listing:
        with open(listing, "w") as f:
            f.write("\n".join(lines) + "\n")
    return 1 if failed or stale else 0


def site_order(site):
    where = site.split(" ", 1)[0]
    path, line, col = where.split(":")
    return path, int(line), int(col)


def main(argv):
    if argv[:1] == ["report"] and len(argv) == 2:
        return report(argv[1], ALLOW)
    if argv:
        sys.stderr.write(__doc__)
        return 2
    top = os.path.join(ROOT, "_census")
    build = os.path.join(top, "build")
    dumps = os.path.join(top, "dumps")
    os.makedirs(top, exist_ok=True)
    subprocess.check_call(["dune", "build", "--root", ROOT, "--build-dir",
                           build, "--instrument-with", "census"])
    if os.path.isdir(dumps):
        for name in os.listdir(dumps):
            os.remove(os.path.join(dumps, name))
    if not run_corpus(build, dumps, os.path.join(top, "work"),
                      os.cpu_count() or 1):
        sys.stderr.write("census: a corpus run failed (logs under %s)\n"
                         % os.path.join(top, "work"))
        return 1
    return report(dumps, ALLOW,
                  listing=os.path.join(top, "unreached.txt"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
