.PHONY: all build test fmt check clean bench bench-smoke bench-guard real-smoke e2e-pair figs-pair chaos chaos-smoke chaos-digests replication replication-smoke availability fastpath fastpath-smoke obs-smoke

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
# interning hammer, the sim-vs-real equivalence oracle, end-to-end CLI
# runs at 4 domains and at 1 (the caller alone: no domain spawned), and
# a Scaled TPC-C run whose user handlers evaluate on worker domains.
real-smoke:
	dune exec test/test_main.exe -- test runtime
	dune exec test/test_main.exe -- test mvstore
	dune exec test/test_main.exe -- test cross-engine
	dune exec bin/alohadb_cli.exe -- run --system aloha --workload ycsb \
	  --runtime real --domains 4 --measure-ms 200
	dune exec bin/alohadb_cli.exe -- run --system aloha --workload stpcc \
	  --runtime real --domains 4 --servers 4 --per-host 1 --clients 100 \
	  --measure-ms 100
	dune exec bin/alohadb_cli.exe -- run --system aloha --workload ycsb \
	  --runtime real --domains 1 --measure-ms 200

# Randomized fault schedules against all three engines, 25 seeds each.
# A failing (engine, seed) pair replays with:
#   dune exec bin/alohadb_cli.exe -- chaos --engine E --seed N --verbose
chaos:
	dune exec bin/alohadb_cli.exe -- chaos --engine all --seed 1 --count 25

# CI smoke: fewer seeds so the job stays fast.
chaos-smoke:
	dune exec bin/alohadb_cli.exe -- chaos --engine all --seed 1 --count 8

# The byte-identical oracle for behaviour-neutral changes: the ALOHA
# chaos trace hash for seeds 1-50 x k = 1/2/3 x fast lane off/on, one
# line each.  The committed ci/chaos_digests.txt is this output; a
# refactor either reproduces it or explains the difference.
chaos-digests:
	@dune build bin/alohadb_cli.exe
	@for k in 1 2 3; do for fp in "" --fastpath; do \
	  ./_build/default/bin/alohadb_cli.exe chaos --engine aloha --seed 1 \
	    --count 50 --replicas $$k $$fp; \
	done; done | sed -E \
	  's/.*"seed":([0-9]+).*"replicas":([0-9]+),"fastpath":([a-z]+),"trace_hash":"([0-9a-f]+)".*/seed=\1 k=\2 fastpath=\3 \4/'

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

# fmt + build + full test run (the fastpath suite is part of dune
# runtest; run it alone with: dune exec test/test_main.exe -- test fastpath).
check: fmt build test

clean:
	dune clean
