#!/usr/bin/env python3
"""Check measurement records, and fail CI when a micro-benchmark regresses.

Usage:
    python3 ci/check_bench_regression.py FILE... [--baseline BASELINE]
    python3 ci/check_bench_regression.py --validate-timeline TIMELINE.jsonl

Every FILE is JSONL, one measurement record per line, the shape that
bench/main.exe (BENCH.jsonl), `alohadb_cli trace --telemetry` and
bench/e2e write:

    {"suite": S, "labels": {k: string},
     "metrics": {name: {"value": number, "unit": string}},
     "host": {"nproc": int, "ocaml": string, "commit": string}}

Other fields may ride beside these (an availability record carries its
committed-over-time curve as "points").  The gate checks that shape for
every record (finite values, non-empty units, a host block, no two
records sharing suite and labels), then runs every check in CHECKS whose
suite is present, over that suite's records from all the files.  Any
failure exits 1.

With --baseline, the micro record among the FILEs is compared with the
baseline's micro record: the run fails if any benchmark is more than
THRESHOLD slower (default 30%, override with BENCH_REGRESSION_THRESHOLD,
e.g. "0.5" for 50%) or if a baseline benchmark is missing, so coverage
cannot silently shrink.  New benchmarks are reported but do not fail
the check until they are added to the baseline.

--validate-timeline validates an epoch-ledger timeline (the append-only
JSONL the `alohadb_cli timeline` subcommand emits; one meta-delimited
segment per run).  It is a language-independent re-statement of the
OCaml doctor (`alohadb_cli doctor` / Obs.Analyze.check): per-line schema
by "type" (meta / epoch / event / stratum), contiguous closed epochs per
node, monotone watermarks (a crash of that node between two closes
excuses a reset), every crash in a replicated segment followed by a
restart or a promotion, and every promotion with traffic still arriving
afterwards resolving with a first post-failover commit.  The CI
obs-smoke lane runs both checkers over the same file so a bug in one is
caught by the other.

Only the Python standard library is used.
"""

import json
import math
import os
import sys


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def shape_problems(rec):
    """What keeps one parsed line from being a measurement record."""
    if not isinstance(rec, dict):
        return ["not a JSON object"]
    problems = []
    if not isinstance(rec.get("suite"), str) or not rec["suite"]:
        problems.append("suite must be a non-empty string")
    labels = rec.get("labels")
    if not isinstance(labels, dict) or not all(
            isinstance(v, str) for v in labels.values()):
        problems.append("labels must map names to strings")
    metrics = rec.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        problems.append("metrics must be a non-empty object")
    else:
        for name, m in metrics.items():
            if not isinstance(m, dict):
                problems.append(f"metric {name!r} must be an object")
                continue
            v = m.get("value")
            if not is_number(v) or not math.isfinite(v):
                problems.append(f"metric {name!r}: value {v!r} is not a "
                                f"finite number")
            if not isinstance(m.get("unit"), str) or not m["unit"]:
                problems.append(f"metric {name!r}: unit must be a non-empty "
                                f"string")
    host = rec.get("host")
    if not (isinstance(host, dict)
            and isinstance(host.get("nproc"), int)
            and not isinstance(host["nproc"], bool)
            and host["nproc"] >= 1
            and all(isinstance(host.get(k), str) and host[k]
                    for k in ("ocaml", "commit"))):
        problems.append("host must hold nproc (a positive integer), ocaml "
                        "and commit")
    return problems


def load_records(paths):
    """Parse and shape-check every line of every file.

    Returns ([(where, record)], problems); each record is checked on its
    own and for a duplicate (suite, labels) across all the files."""
    records, problems, seen = [], [], {}
    for path in paths:
        try:
            with open(path) as f:
                lines = f.read().splitlines()
        except OSError as exc:
            sys.exit(f"error: cannot read {path}: {exc}")
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                rec = json.loads(line)
            except ValueError as exc:
                problems.append(f"{where}: not JSON: {exc}")
                continue
            bad = shape_problems(rec)
            problems += [f"{where}: {p}" for p in bad]
            if bad:
                continue
            key = (rec["suite"], tuple(sorted(rec["labels"].items())))
            if key in seen:
                problems.append(f"{where}: duplicate of {seen[key]} "
                                f"(suite {key[0]!r}, labels "
                                f"{rec['labels']})")
            seen[key] = where
            records.append((where, rec))
    return records, problems


# ---- per-suite checks ------------------------------------------------------

def value(rec, name):
    return rec["metrics"][name]["value"]


def count(rec, name):
    """An integer-valued metric; raises if it is not whole."""
    v = value(rec, name)
    if not float(v).is_integer():
        raise ValueError(f"{name} is not an integer")
    return int(v)


def every(pred):
    """A check that holds when pred holds for every record; it returns
    the labels of the records where it does not."""
    def check(records):
        bad = []
        for r in records:
            try:
                ok = pred(r)
            except (KeyError, TypeError, ValueError, IndexError):
                ok = False
            if not ok:
                bad.append(json.dumps(r["labels"], sort_keys=True))
        return bad
    return check


def whole(pred):
    """A check over a suite's records taken together."""
    def check(records):
        try:
            ok = pred(records)
        except (KeyError, TypeError, ValueError, IndexError, StopIteration):
            ok = False
        return [] if ok else ["the suite's records together"]
    return check


def by_mode(records, mode):
    return next(r for r in records if r["labels"]["mode"] == mode)


def curve(rec):
    """The availability record's samples as [(t_us, committed)]."""
    points = rec["points"]
    if not isinstance(points, list) or not points:
        raise ValueError("points must be a non-empty list")
    out = []
    for p in points:
        t, c = p["t_us"], p["committed"]
        if not all(isinstance(x, int) and not isinstance(x, bool)
                   for x in (t, c)):
            raise ValueError("samples must be integers")
        out.append((t, c))
    return out


def increasing(xs, strict):
    return all(a < b if strict else a <= b for a, b in zip(xs, xs[1:]))


FASTPATH_METRICS = ("committed", "tps", "p50_us", "p99_us", "fastpath_commits")
AVAILABILITY_METRICS = ("submitted", "completed", "samples")

# (suite, description, check over that suite's records).  A check returns
# where it fails; an empty list passes.
CHECKS = [
    ("macro", "labels name a fig, series and point, without padding",
     every(lambda r: all(r["labels"][k] and r["labels"][k] == r["labels"][k].strip()
                         for k in ("fig", "series", "point")))),

    ("availability", "labels name the engine, an integer seed and the schedule",
     every(lambda r: r["labels"]["engine"] and r["labels"]["schedule"]
           and r["labels"]["seed"].lstrip("-").isdigit())),
    ("availability", "metrics are submitted, completed and samples",
     every(lambda r: all(k in r["metrics"] for k in AVAILABILITY_METRICS))),
    ("availability", "one record per replication degree, each a positive integer",
     whole(lambda rs: all(int(r["labels"]["replicas"]) >= 1 for r in rs)
           and len({int(r["labels"]["replicas"]) for r in rs}) == len(rs))),
    ("availability", "submitted > 0 and completed >= 0, both integers",
     every(lambda r: count(r, "submitted") > 0 and count(r, "completed") >= 0)),
    ("availability", "completed <= submitted",
     every(lambda r: value(r, "completed") <= value(r, "submitted"))),
    ("availability", "every replicated run (k > 1) completes",
     every(lambda r: int(r["labels"]["replicas"]) == 1
           or value(r, "completed") == value(r, "submitted"))),
    ("availability", "points is a non-empty list of integer samples, "
     "as many as the samples metric",
     every(lambda r: len(curve(r)) == count(r, "samples"))),
    ("availability", "sample times strictly increase",
     every(lambda r: increasing([t for t, _ in curve(r)], strict=True))),
    ("availability", "the committed count never falls",
     every(lambda r: increasing([0] + [c for _, c in curve(r)], strict=False))),
    ("availability", "the last sample equals completed",
     every(lambda r: curve(r)[-1][1] == value(r, "completed"))),

    ("fastpath", "labels name the workload and a mode of on or off",
     every(lambda r: r["labels"]["workload"]
           and r["labels"]["mode"] in ("on", "off"))),
    ("fastpath", "metrics are " + ", ".join(FASTPATH_METRICS),
     every(lambda r: all(k in r["metrics"] for k in FASTPATH_METRICS))),
    ("fastpath", "exactly one on and one off record",
     whole(lambda rs: sorted(r["labels"]["mode"] for r in rs) == ["off", "on"])),
    ("fastpath", "committed is a positive integer",
     every(lambda r: count(r, "committed") > 0)),
    ("fastpath", "tps > 0",
     every(lambda r: value(r, "tps") > 0)),
    ("fastpath", "0 < p50_us <= p99_us, both integers",
     every(lambda r: 0 < count(r, "p50_us") <= count(r, "p99_us"))),
    ("fastpath", "fastpath_commits is a non-negative integer",
     every(lambda r: count(r, "fastpath_commits") >= 0)),
    ("fastpath", "no fast commits with the lane off",
     every(lambda r: r["labels"]["mode"] != "off"
           or value(r, "fastpath_commits") == 0)),
    ("fastpath", "some fast commits with the lane on",
     every(lambda r: r["labels"]["mode"] != "on"
           or value(r, "fastpath_commits") > 0)),
    ("fastpath", "the on-lane p50 is below the off-lane p50",
     whole(lambda rs: value(by_mode(rs, "on"), "p50_us")
           < value(by_mode(rs, "off"), "p50_us"))),
]


def run_checks(records):
    """Run every check whose suite is present; return the records by
    suite and the failures."""
    suites = {}
    for _, r in records:
        suites.setdefault(r["suite"], []).append(r)
    failures = []
    for suite, desc, check in CHECKS:
        if suite in suites:
            failures += [f"{suite}: {desc}: fails for {where}"
                         for where in check(suites[suite])]
    return suites, failures


# ---- micro threshold gate -------------------------------------------------

def micro_of(records, what):
    """The one micro record's {name: ns} and the file it came from."""
    micro = [(where, r) for where, r in records if r["suite"] == "micro"]
    if len(micro) != 1:
        sys.exit(f"error: expected one micro record in {what}, found "
                 f"{len(micro)}")
    where, rec = micro[0]
    return ({name: m["value"] for name, m in rec["metrics"].items()},
            where.rsplit(":", 1)[0])


def micro_gate(current, current_path, baseline, baseline_path):
    threshold = float(os.environ.get("BENCH_REGRESSION_THRESHOLD", "0.30"))
    regressions = []
    missing = sorted(set(baseline) - set(current))
    new = sorted(set(current) - set(baseline))

    print(f"{'benchmark':48} {'baseline':>12} {'current':>12} {'delta':>8}")
    for name in sorted(baseline):
        if name not in current:
            continue
        base, cur = baseline[name], current[name]
        delta = (cur - base) / base if base > 0 else 0.0
        flag = "  <-- REGRESSION" if delta > threshold else ""
        print(f"{name:48} {base:10.1f}ns {cur:10.1f}ns {delta:+7.1%}{flag}")
        if delta > threshold:
            regressions.append((name, base, cur, delta))
    for name in new:
        print(f"{name:48} {'(new)':>12} {current[name]:10.1f}ns")

    ok = True
    if missing:
        ok = False
        print(f"\nerror: benchmark(s) missing from {current_path}:", file=sys.stderr)
        for name in missing:
            print(f"  - {name}", file=sys.stderr)
    if regressions:
        ok = False
        print(
            f"\nerror: {len(regressions)} benchmark(s) regressed more than "
            f"{threshold:.0%} vs {baseline_path}:",
            file=sys.stderr,
        )
        for name, base, cur, delta in regressions:
            print(
                f"  - {name}: {base:.1f} -> {cur:.1f} ns/op ({delta:+.1%})",
                file=sys.stderr,
            )
    if not ok:
        print(
            "\nIf this slowdown is intentional (e.g. the primitive now does"
            " more work), refresh the baseline and commit it:\n"
            "    dune exec bench/main.exe -- micro\n"
            f"    grep '\"suite\":\"micro\"' BENCH.jsonl > {baseline_path}\n"
            "and explain the regression in the commit message.",
            file=sys.stderr,
        )
        return False
    print("\nbench regression check passed")
    return True


def parse_timeline(path):
    """Split a TIMELINE.jsonl into meta-delimited segments.

    Returns a list of {"meta": dict, "rows": [...], "events": [...],
    "strata": [...]}; exits on unreadable or schema-violating lines."""
    def fail(lineno, msg):
        sys.exit(f"error: {path}:{lineno}: {msg}")

    def need(lineno, rec, field, typ, kind):
        v = rec.get(field)
        if not isinstance(v, typ) or isinstance(v, bool) and typ is int:
            fail(lineno, f"{kind} line: {field!r} must be {typ.__name__}")
        return v

    try:
        with open(path) as f:
            raw = f.read().splitlines()
    except OSError as exc:
        sys.exit(f"error: cannot read {path}: {exc}")
    segments, seg = [], None
    kinds = ("crash", "restart", "detect", "promote", "first_commit")
    for lineno, line in enumerate(raw, start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except ValueError as exc:
            fail(lineno, f"not JSON: {exc}")
        if not isinstance(rec, dict):
            fail(lineno, "line must be a JSON object")
        typ = rec.get("type")
        if typ == "meta":
            for field in ("cfg_epoch_us", "nodes", "replicas"):
                need(lineno, rec, field, int, "meta")
            seg = {"meta": rec, "rows": [], "events": [], "strata": []}
            segments.append(seg)
        elif typ == "epoch":
            if seg is None:
                fail(lineno, "epoch line before any meta line")
            for field in ("epoch", "node", "open_us", "close_us",
                          "stretch_millis", "assigned", "fast_commits",
                          "fast_merges", "watermark", "watermark_lag_us"):
                need(lineno, rec, field, int, "epoch")
            for field in ("assigned", "fast_commits", "fast_merges"):
                if rec[field] < 0:
                    fail(lineno, f"epoch line: negative {field}")
            if rec["fast_commits"] > rec["assigned"]:
                fail(lineno, "epoch line: fast_commits exceed assigned")
            if (rec["close_us"] >= 0 and rec["open_us"] >= 0
                    and rec["close_us"] < rec["open_us"]):
                fail(lineno, "epoch line: closed before it opened")
            for group in rec.get("groups", []):
                if not isinstance(group, dict):
                    fail(lineno, "epoch line: groups must be objects")
                need(lineno, group, "group", int, "group")
                need(lineno, group, "ships", int, "group")
            seg["rows"].append(rec)
        elif typ == "event":
            if seg is None:
                fail(lineno, "event line before any meta line")
            kind = need(lineno, rec, "kind", str, "event")
            if kind not in kinds:
                fail(lineno, f"unknown event kind {kind!r}")
            if need(lineno, rec, "t_us", int, "event") < 0:
                fail(lineno, "event line: negative t_us")
            need(lineno, rec, "node", int, "event")
            need(lineno, rec, "partition", int, "event")
            seg["events"].append(rec)
        elif typ == "stratum":
            if seg is None:
                fail(lineno, "stratum line before any meta line")
            for field in ("node", "t0_us", "t1_us", "size"):
                need(lineno, rec, field, int, "stratum")
            workers = rec.get("workers")
            if not isinstance(workers, list):
                fail(lineno, "stratum line: workers must be a list")
            for w in workers:
                if not isinstance(w, dict):
                    fail(lineno, "stratum line: workers must be objects")
                for field in ("worker", "completed"):
                    need(lineno, w, field, int, "stratum worker")
            seg["strata"].append(rec)
        else:
            fail(lineno, f"unknown line type {typ!r}")
    if not segments:
        sys.exit(f"error: {path}: no timeline segments found")
    return segments


def timeline_incidents(seg):
    """Mirror Obs.Analyze.incidents: one incident per promote event."""
    evs = seg["events"]
    out = []
    for ev in evs:
        if ev["kind"] != "promote":
            continue
        crash = None
        for e in evs:
            if (e["kind"] == "crash" and e["t_us"] <= ev["t_us"]
                    and not any(r["kind"] == "restart"
                                and r["node"] == e["node"]
                                and e["t_us"] < r["t_us"] <= ev["t_us"]
                                for r in evs)
                    and (crash is None or e["t_us"] >= crash["t_us"])):
                crash = e
        first = None
        for e in evs:
            if (e["kind"] == "first_commit"
                    and e["partition"] == ev["partition"]
                    and e["t_us"] >= ev["t_us"]
                    and (first is None or e["t_us"] < first["t_us"])):
                first = e
        out.append({"partition": ev["partition"],
                    "promoted_node": ev["node"],
                    "crash": crash, "promote_us": ev["t_us"],
                    "first_commit_us": first["t_us"] if first else -1})
    return out


def validate_timeline_segment(idx, seg, problems):
    """Append doctor-invariant violations for one segment to problems."""
    def viol(msg):
        problems.append(f"segment {idx}: {msg}")

    events = seg["events"]

    def crashed_between(node, t0, t1):
        return any(e["kind"] == "crash" and e["node"] == node
                   and t0 < e["t_us"] <= t1 for e in events)

    by_node = {}
    for r in seg["rows"]:
        if r["close_us"] >= 0:
            by_node.setdefault(r["node"], []).append(r)
    for node, rows in sorted(by_node.items()):
        rows.sort(key=lambda r: r["epoch"])
        for a, b in zip(rows, rows[1:]):
            if b["epoch"] != a["epoch"] + 1:
                viol(f"node {node}: closed epochs not contiguous "
                     f"({a['epoch']} then {b['epoch']})")
            if (a["watermark"] >= 0 and 0 <= b["watermark"] < a["watermark"]
                    and not crashed_between(node, a["close_us"],
                                            b["close_us"])):
                viol(f"node {node}: watermark regressed {a['watermark']} -> "
                     f"{b['watermark']} across epochs {a['epoch']}-"
                     f"{b['epoch']} with no crash")
    if seg["meta"]["replicas"] > 1:
        for e in events:
            if e["kind"] != "crash":
                continue
            handled = any(
                e2["t_us"] >= e["t_us"]
                and ((e2["kind"] == "restart" and e2["node"] == e["node"])
                     or e2["kind"] == "promote")
                for e2 in events)
            if not handled:
                viol(f"node {e['node']} crashed at {e['t_us']}us with no "
                     f"subsequent promotion or restart "
                     f"(k={seg['meta']['replicas']})")
    incidents = timeline_incidents(seg)
    for i in incidents:
        traffic_after = any(r["assigned"] > 0
                            and r["open_us"] >= i["promote_us"]
                            for r in seg["rows"])
        if i["first_commit_us"] < 0 and traffic_after:
            viol(f"incident on partition {i['partition']} (promoted to node "
                 f"{i['promoted_node']} at {i['promote_us']}us) never saw a "
                 f"post-failover commit")
    return incidents


def report_timeline(path, segments):
    print(f"{path}: timeline ok ({len(segments)} segment(s))")
    for idx, seg in enumerate(segments):
        meta = seg["meta"]
        incidents = timeline_incidents(seg)
        resolved = sum(1 for i in incidents if i["first_commit_us"] >= 0)
        print(f"  segment {idx}: nodes={meta['nodes']} "
              f"k={meta['replicas']} epoch={meta['cfg_epoch_us']}us  "
              f"{len(seg['rows'])} epoch rows, {len(seg['events'])} events, "
              f"{len(seg['strata'])} strata, {len(incidents)} incident(s) "
              f"({resolved} resolved)")


def main(argv):
    if len(argv) >= 2 and argv[1] == "--validate-timeline":
        if len(argv) != 3:
            sys.exit(f"usage: {argv[0]} --validate-timeline TIMELINE.jsonl")
        path = argv[2]
        segments = parse_timeline(path)
        problems = []
        for idx, seg in enumerate(segments):
            validate_timeline_segment(idx, seg, problems)
        if problems:
            print(f"error: {path}: {len(problems)} doctor violation(s):",
                  file=sys.stderr)
            for p in problems:
                print(f"  - {p}", file=sys.stderr)
            return 1
        report_timeline(path, segments)
        return 0
    args = argv[1:]
    baseline_path = None
    if "--baseline" in args:
        i = args.index("--baseline")
        if i + 1 >= len(args):
            sys.exit(f"usage: {argv[0]} FILE... [--baseline BASELINE]")
        baseline_path = args[i + 1]
        args = args[:i] + args[i + 2:]
    if not args:
        sys.exit(f"usage: {argv[0]} FILE... [--baseline BASELINE]")

    records, problems = load_records(args)
    suites, failures = run_checks(records)
    for p in problems + failures:
        print(f"error: {p}", file=sys.stderr)
    if problems or failures:
        return 1
    checked = sum(1 for suite, _, _ in CHECKS if suite in suites)
    print(f"{len(records)} record(s) in {len(args)} file(s), "
          f"{checked} suite check(s) passed: "
          + ", ".join(f"{s} {len(rs)}" for s, rs in sorted(suites.items())))

    if baseline_path is None:
        return 0
    baseline_records, problems = load_records([baseline_path])
    for p in problems:
        print(f"error: {p}", file=sys.stderr)
    if problems:
        return 1
    current, current_path = micro_of(records, " ".join(args))
    baseline, _ = micro_of(baseline_records, baseline_path)
    ok = micro_gate(current, current_path, baseline, baseline_path)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
