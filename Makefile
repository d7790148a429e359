.PHONY: all build test fmt check dead-exports census census-test clean loc bench bench-smoke bench-guard real-smoke e2e-pair e2e-pair-test figs-pair chaos chaos-smoke chaos-digests chaos-digests-check replication replication-smoke availability fastpath fastpath-smoke obs-smoke

all: build

build:
	dune build

test:
	dune runtest

# Full benchmark sweep (all figures at quick scale + micro suite); every
# bench/main.exe run writes its measurement records to BENCH.jsonl.
bench:
	dune exec bench/main.exe -- all

# CI smoke: one macro figure + the micro suite + a traced run's telemetry
# record, all through the record gate, so the bench binary and its
# records can't silently rot.  The micro suite runs in a process of its
# own: after fig6 in one process its ns/op read up to 200x their
# standalone values.  Each run truncates BENCH.jsonl, so fig6's records
# are kept as BENCH_fig6.jsonl and BENCH.jsonl holds the micro record
# alone (the one the baseline guard reads).
bench-smoke:
	dune exec bench/main.exe -- fig6
	mv BENCH.jsonl BENCH_fig6.jsonl
	dune exec bench/main.exe -- micro
	dune exec bin/alohadb_cli.exe -- trace --engine aloha --sample 16 \
	  --out TRACE_aloha.json --telemetry TELEMETRY.jsonl
	python3 ci/check_bench_regression.py BENCH_fig6.jsonl BENCH.jsonl \
	  TELEMETRY.jsonl

# Compare the micro suite against the committed baseline; fails on >30%
# ns/op regressions (see ci/check_bench_regression.py for how to update).
bench-guard:
	dune exec bench/main.exe -- micro
	python3 ci/check_bench_regression.py BENCH.jsonl \
	  --baseline bench/baseline_micro.jsonl

# Paired end-to-end runs of BASE against the working tree: every
# workload (or WORKLOADS="a b"), seeds 1-5 (or SEEDS=1,2,3), 20 s each,
# alternating which tree runs first, then bench/e2e/compare.py over the
# two sets.  BASE is exported with git archive into a temporary
# directory; outputs land in e2e-pair/base and e2e-pair/head.
#   make e2e-pair BASE=HEAD~1 WORKLOADS=epoch-real2
SEEDS ?= 1,2,3,4,5
e2e-pair:
	@test -n "$(BASE)" || { echo "usage: make e2e-pair BASE=<rev>"; exit 2; }
	python3 ci/e2e_pair.py --base $(BASE) --seeds $(SEEDS) \
	  $(foreach w,$(WORKLOADS),--workload $(w))

# The verdict step's fixture tests: a WORKLOADS-restricted pair is judged
# on the workloads it ran only.
e2e-pair-test:
	python3 ci/test_e2e_pair.py

# Behaviour-neutrality check: the simulated figures (fig6-fig11,
# ext-conventional, availability and fastpath, quick scale, plus the
# BENCH.jsonl records they write, host blocks and wall times dropped) of
# BASE against the working tree, the two run side by side; exits 1 on
# any difference.  BASE is exported with git archive into a temporary
# directory; outputs land in figs-pair/base.txt and figs-pair/head.txt.
#   make figs-pair BASE=HEAD~1
figs-pair:
	@test -n "$(BASE)" || { echo "usage: make figs-pair BASE=<rev>"; exit 2; }
	python3 ci/figs_pair.py --base $(BASE)

# CI smoke for the real runtime: pool + domain-determinism suites, the
# interning hammer, the sim-vs-real equivalence oracle, and end-to-end
# CLI runs at 4 domains and at 1 (the caller alone: no domain spawned):
# ycsb, whose plain built-ins the plan's bind pass folds, and Scaled
# TPC-C, whose user handlers evaluate on worker domains.  Each pair must
# print the same, but for its runtime: and wall clock: lines (outputs in
# real-smoke/).
real-smoke:
	dune exec test/test_main.exe -- test runtime
	dune exec test/test_main.exe -- test mvstore
	dune exec test/test_main.exe -- test cross-engine
	mkdir -p real-smoke
	for d in 4 1; do \
	  dune exec bin/alohadb_cli.exe -- run --system aloha --workload ycsb \
	    --runtime real --domains $$d --measure-ms 200 \
	    > real-smoke/ycsb-d$$d.txt || exit 1; \
	  dune exec bin/alohadb_cli.exe -- run --system aloha --workload stpcc \
	    --runtime real --domains $$d --servers 4 --per-host 1 --clients 100 \
	    --measure-ms 100 > real-smoke/stpcc-d$$d.txt || exit 1; \
	done
	for f in ycsb-d4 ycsb-d1 stpcc-d4 stpcc-d1; do \
	  cat real-smoke/$$f.txt; \
	  sed -e '/^runtime:/d' -e '/^wall clock:/d' real-smoke/$$f.txt \
	    > real-smoke/$$f.cmp; \
	done
	diff -u real-smoke/ycsb-d4.cmp real-smoke/ycsb-d1.cmp
	diff -u real-smoke/stpcc-d4.cmp real-smoke/stpcc-d1.cmp

# Randomized fault schedules against all three engines, 25 seeds each.
# A failing (engine, seed) pair replays with:
#   dune exec bin/alohadb_cli.exe -- chaos --engine E --seed N --verbose
chaos:
	dune exec bin/alohadb_cli.exe -- chaos --engine all --seed 1 --count 25

# CI smoke: fewer seeds so the job stays fast.
chaos-smoke:
	dune exec bin/alohadb_cli.exe -- chaos --engine all --seed 1 --count 8

# The byte-identical oracle for behaviour-neutral changes: the ALOHA
# chaos trace hash for seeds 1-50 x k = 1/2/3 x fast lane off/on, then
# the Calvin and 2PL hashes for seeds 1-50, one line each.  The
# committed ci/chaos_digests.txt is this output; a refactor either
# reproduces it or explains the difference.
chaos-digests:
	@dune build bin/alohadb_cli.exe
	@for k in 1 2 3; do for fp in "" --fastpath; do \
	  ./_build/default/bin/alohadb_cli.exe chaos --engine aloha --seed 1 \
	    --count 50 --replicas $$k $$fp; \
	done; done | sed -E \
	  's/.*"seed":([0-9]+).*"replicas":([0-9]+),"fastpath":([a-z]+),"trace_hash":"([0-9a-f]+)".*/seed=\1 k=\2 fastpath=\3 \4/'
	@for e in calvin twopl; do \
	  ./_build/default/bin/alohadb_cli.exe chaos --engine $$e --seed 1 \
	    --count 50; \
	done | sed -E \
	  's/.*"engine":"([a-z]+)","seed":([0-9]+).*"trace_hash":"([0-9a-f]+)".*/engine=\1 seed=\2 \3/'

# The oracle's diff against the committed digests (a few seconds; part of
# `make check`).  The file was generated with OCaml 5.1, so other
# compilers may move hashes.
chaos-digests-check:
	$(MAKE) -s chaos-digests | diff -u ci/chaos_digests.txt -

# The replication battery: every backend crashed once per run, k = 2,
# failover expected to mask each loss (invariants: no committed txn
# lost, converged state, completion).  50 seeds — the PR's acceptance
# sweep.  A failing seed replays with:
#   dune exec bin/alohadb_cli.exe -- chaos -e aloha --seed N -k 2 --verbose
replication:
	dune exec bin/alohadb_cli.exe -- chaos --engine aloha --seed 1 --count 50 \
	  --replicas 2

# CI smoke: fewer seeds, both k = 2 and k = 3, plus the dedicated
# replication test suite (failover scenarios, ack-gating model check,
# k=2-vs-k=1 behaviour-neutrality differential).
replication-smoke:
	dune exec test/test_main.exe -- test replication
	dune exec bin/alohadb_cli.exe -- chaos --engine aloha --seed 1 --count 8 \
	  --replicas 2
	dune exec bin/alohadb_cli.exe -- chaos --engine aloha --seed 1 --count 2 \
	  --replicas 3

# The availability figure: committed-work-over-time under a permanent
# primary crash at k = 1/2/3; writes its records to BENCH.jsonl and
# runs the availability checks over them.
availability:
	dune exec bench/main.exe -- availability
	python3 ci/check_bench_regression.py BENCH.jsonl

# The latency-collapse figure: the counter-heavy workload with the
# coordination-free commit lane off and on; writes its records to
# BENCH.jsonl and gates on the on-series p50 beating the off-series p50.
fastpath:
	dune exec bench/main.exe -- fastpath
	python3 ci/check_bench_regression.py BENCH.jsonl

# CI smoke for the fast path: the dedicated test suite (classifier
# unit + qcheck, interleaving oracle, on-vs-off equivalence, chaos
# battery with the lane on), a counter-heavy CLI run and a chaos seed
# with --fastpath, then the figure + its validator.
fastpath-smoke:
	dune exec test/test_main.exe -- test fastpath
	dune exec bin/alohadb_cli.exe -- run --system aloha --workload ycsb \
	  --fastpath on --servers 4 --clients 4 --measure-ms 200
	dune exec bin/alohadb_cli.exe -- chaos --engine aloha --seed 1 --count 2 \
	  --fastpath
	$(MAKE) fastpath

# CI smoke for the epoch ledger: the observability + timeline suites, a
# traced replicated chaos seed streamed to TIMELINE.jsonl, the OCaml
# doctor over that file (incident reconstruction + invariant checks,
# INCIDENTS.json written for the artifact upload), and the independent
# Python re-statement of the same invariants.  Seed 2 is chosen because
# its crashes outlive the failure detector, so the file always contains
# promote events for the doctor to reconstruct.
obs-smoke:
	dune exec test/test_main.exe -- test obs
	dune exec test/test_main.exe -- test timeline
	rm -f TIMELINE.jsonl
	dune exec bin/alohadb_cli.exe -- timeline --seed 2 --servers 3 \
	  --replicas 2 --out TIMELINE.jsonl
	dune exec bin/alohadb_cli.exe -- doctor TIMELINE.jsonl \
	  --report INCIDENTS.json
	python3 ci/check_bench_regression.py --validate-timeline TIMELINE.jsonl

# Check dune-file formatting without promoting (ocamlformat is not a
# dependency; OCaml sources are exempt via dune-project).
fmt:
	dune build @fmt

# Every val and module a lib/*/*.mli exports must have a caller outside
# its own module in lib, bin, bench or examples, and every optional
# label of such a val a caller that passes it; a test is not a caller
# (ci/dead_exports.py; exceptions go in ci/dead_exports_allow.txt, each
# with a reason: observer, test fake or mechanism), plus the scan's own
# fixture tests.
dead-exports:
	python3 ci/test_dead_exports.py
	python3 ci/dead_exports.py

# The branch census: build the tree with `dune build --instrument-with
# census` into _census/, run the program corpus (examples, chaos, CLI
# runs, the quick figures; no tests, about 20 min on 2 cores), and print
# per library the match/function arms, try handlers, then/else branches
# and function bodies no run reached.  Exits 1 on such an arm of
# lib/alohadb or lib/functor_cc that ci/census_allow.txt does not excuse,
# and on a stale allowlist entry; _census/unreached.txt lists every
# unreached arm of every library (ci/census.py).
census:
	python3 ci/census.py

# The census report's fixture tests (the corpus itself is not run).
census-test:
	python3 ci/test_census.py

# fmt + build + full test run (the fastpath suite is part of dune
# runtest; run it alone with: dune exec test/test_main.exe -- test fastpath)
# + the dead-export scan + the census report tests + the e2e-pair verdict
# tests + the chaos digest diff.
check: fmt build test dead-exports census-test e2e-pair-test chaos-digests-check

clean:
	dune clean

# Source size: .ml and .mli line counts per lib/ directory, for bin/ and
# for bench/main.ml, with totals (tests and bench/e2e are not counted).
loc:
	@for d in lib/*/ bin/ bench/main.ml; do \
	  d=$${d%/}; \
	  ml=$$(find $$d -name '*.ml' -print0 | xargs -0r cat | wc -l); \
	  mli=$$(find $$d -name '*.mli' -print0 | xargs -0r cat | wc -l); \
	  echo "$$d $$ml $$mli"; \
	done | awk 'BEGIN { printf "%-16s %7s %7s\n", "dir", ".ml", ".mli" } \
	  { printf "%-16s %7d %7d\n", $$1, $$2, $$3; ml += $$2; mli += $$3 } \
	  END { printf "%-16s %7d %7d\n", "total", ml, mli }'
