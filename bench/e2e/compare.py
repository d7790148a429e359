#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark runs.

    python3 bench/e2e/compare.py BEFORE AFTER
    python3 bench/e2e/compare.py RUNS

Each argument is a file or a directory of files holding run.py output
(``{"report": ...}`` lines) or bare JSONL records such as BASELINE.jsonl;
traced records are ignored.  For every (workload, end-to-end metric) the
script prints each set's median and quartiles and, given two sets, a
verdict against the metric's bound in BENCHMARK.json:

  worse       the AFTER median is worse than BEFORE by more than the bound
  better      the AFTER median is better by more than BEFORE's quartile
              spread and AFTER wins at least 90% of the run pairs (runs
              of the same seed, else every combination), or every AFTER
              run beats every BEFORE run
  unresolved  a set's quartile spread is wider than the bound
  unchanged   otherwise

The simulated results (sim_*, failed_frac) are functions of the seed:
every run of a (workload, seed) pair must report them identically,
within a set and across the two sets.  With one set the script reports
each metric's quartile spread against its bound instead.  The exit code
is 1 on a regression, on differing simulated results, or on a spread
wider than the bound.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SIM_RESULTS = ["sim_tps", "sim_p50_ms", "sim_p999_ms", "sim_samples", "failed_frac"]


def load_records(path):
    files = (
        [os.path.join(path, f) for f in sorted(os.listdir(path))]
        if os.path.isdir(path)
        else [path]
    )
    records = []
    for name in files:
        with open(name) as f:
            for line in f:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError:
                    continue
                rec = obj.get("report", obj)
                if isinstance(rec, dict) and "workload" in rec and not rec.get("traced"):
                    records.append(rec)
    if not records:
        sys.exit(f"compare.py: no untraced records in {path}")
    return records


def values(records, workload, metric):
    return [
        r["metrics"][metric]["value"]
        for r in records
        if r["workload"] == workload and metric in r["metrics"]
    ]


def seed_pairs(before, after, workload, metric):
    """(before, after) values of the runs that share a seed."""
    def by_seed(records):
        out = {}
        for r in records:
            if r["workload"] == workload and metric in r["metrics"]:
                out.setdefault(r["seed"], r["metrics"][metric]["value"])
        return out

    a, b = by_seed(before), by_seed(after)
    return [(a[s], b[s]) for s in sorted(a) if s in b]


def summary(xs):
    med = statistics.median(xs)
    if len(xs) >= 2:
        q1, _, q3 = statistics.quantiles(xs, n=4)
    else:
        q1 = q3 = xs[0]
    spread = (q3 - q1) / abs(med) if med else 0.0
    return med, q1, q3, spread


def gain(a, b, better):
    """Relative change from a to b, positive when b is better."""
    if a == 0:
        return 0.0
    return (b - a) / abs(a) if better == "higher" else (a - b) / abs(a)


def verdict(xa, xb, pairs, better, bound):
    ma, _, _, sa = summary(xa)
    mb, _, _, sb = summary(xb)
    d = gain(ma, mb, better)
    beats = lambda b, a: gain(a, b, better) > 0  # noqa: E731
    if d < -bound:
        return "worse", d
    if all(beats(b, a) for a in xa for b in xb):
        return "better", d
    if sa > bound or sb > bound:
        return "unresolved", d
    # Runs of the same seed pair up; run the two sides alternately so that
    # the host's drift hits both alike.
    pairs = pairs or [(a, b) for a in xa for b in xb]
    wins = sum(beats(b, a) for a, b in pairs) / len(pairs)
    if d > sa and wins >= 0.9:
        return "better", d
    return "unchanged", d


def sim_problems(sets):
    """(workload, seed) pairs whose simulated results differ between runs."""
    seen, problems = {}, []
    for label, records in sets:
        for r in records:
            key = (r["workload"], r["seed"])
            sim = tuple(r["metrics"].get(m, {}).get("value") for m in SIM_RESULTS)
            if key in seen and seen[key][1] != sim:
                problems.append(
                    f"{key[0]} seed {key[1]}: simulated results differ "
                    f"({seen[key][0]} {dict(zip(SIM_RESULTS, seen[key][1]))} vs "
                    f"{label} {dict(zip(SIM_RESULTS, sim))})"
                )
            seen.setdefault(key, (label, sim))
    return problems


def main():
    args = sys.argv[1:]
    if len(args) not in (1, 2) or args[0] in ("-h", "--help"):
        sys.exit(__doc__)
    with open(os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")) as f:
        bench = json.load(f)
    sets = [(path, load_records(path)) for path in args]
    workloads = [w["name"] for w in bench["workloads"]]
    bad = False
    for label, records in sets:
        print(f"== {label}: {len(records)} runs")
    print()
    for w in workloads:
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            xs = [values(records, w, name) for _, records in sets]
            if not all(xs):
                print(f"{w:<20} {name:<16} missing from a set")
                bad = True
                continue
            cols = []
            for x in xs:
                med, q1, q3, spread = summary(x)
                cols.append(f"{med:.6g} [{q1:.6g}..{q3:.6g}] spread {spread:.1%}")
            if len(xs) == 1:
                spread = summary(xs[0])[3]
                # setup_s is exempt from the spread check; its bound
                # governs medians only.
                ok = name == "setup_s" or spread <= bound
                bad = bad or not ok
                print(
                    f"{w:<20} {name:<16} n={len(xs[0]):<3} {cols[0]}  "
                    f"bound {bound:.0%} {'ok' if ok else 'SPREAD > BOUND'}"
                )
            else:
                pairs = seed_pairs(sets[0][1], sets[1][1], w, name)
                v, d = verdict(xs[0], xs[1], pairs, m["better"], bound)
                bad = bad or v == "worse"
                print(f"{w:<20} {name:<16} {v:<10} {d:+.1%} (bound {bound:.0%})")
                print(f"{'':<20} {'':<16}   before {cols[0]}")
                print(f"{'':<20} {'':<16}   after  {cols[1]}")
        for name in SIM_RESULTS:
            xs = [values(records, w, name) for _, records in sets]
            if all(xs):
                meds = "  ".join(f"{statistics.median(x):.6g}" for x in xs)
                print(f"{w:<20} {name:<16} median over seeds {meds}")
    problems = sim_problems(sets)
    for p in problems:
        print("SIMULATION CHANGED:", p)
    if bad or problems:
        sys.exit(1)


if __name__ == "__main__":
    main()
