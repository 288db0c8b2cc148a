GO ?= go

# The demand-analysis micro-benchmarks tracked in BENCH_2.json, with
# the admit-large-shaped re-decision layer (internal/core's edgeChurn
# replay with the exact upgrade on and off).
MICROBENCH = BenchmarkQPA$$|BenchmarkImproveWithExact|BenchmarkAdmissionChurn|BenchmarkAdmissionEdgeChurn

# The scheduler-engine benchmarks tracked in BENCH_4.json.
SCHEDBENCH = BenchmarkSchedSplitEDF|BenchmarkSchedNaiveEDF|BenchmarkSchedAbortAtDeadline|BenchmarkFigure2$$

# The admission-service benchmarks tracked in BENCH_6.json.
ADMITBENCH = BenchmarkAdmitdChurn|BenchmarkAdmitdService

# The MCKP core-solver benchmarks tracked in BENCH_7.json: the
# fleet-scale cold/warm solver curves plus the admission churn they
# accelerate.
MCKPBENCH = BenchmarkMCKPCoreSolve|BenchmarkMCKPCoreResolve|BenchmarkAdmitdChurn

# The fleet-campaign benchmarks tracked in BENCH_9.json: streaming
# cells (one-pass checker inline, wheel queues) at 1k/10k/100k tasks,
# and the checker alone on a recorded 4000-task cell.
CAMPBENCH = BenchmarkCampaignCellStreaming|BenchmarkStreamCheckerCell

# Scratch directory for the campaign kill-and-resume smoke.
CAMP_SMOKE_DIR = .smoke-campaign
CAMP_SMOKE_ARGS = -campaign 3 -campaign-tasks 10 -parallel 2

# Scratch directory and args for the fleet-campaign smoke.
FLEET_SMOKE_DIR = .smoke-fleet
FLEET_SMOKE_ARGS = -fleet -campaign 2 -campaign-tasks 10 -parallel 2

.PHONY: build test vet race verify lint reach alloc-gate bench bench-sched bench-admitd bench-mckp bench-campaign bench-smoke smoke-admitd smoke-mckp smoke-campaign smoke-fleet profile fmt fmt-check cover fuzz-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Race-enabled suite: the parallel experiment engine must be clean
# under the race detector, not just deterministic in output.
race:
	$(GO) test -race ./...

# Domain-invariant lint: determinism, exact arithmetic, overflow
# guards, error sinks. Exits nonzero on any finding; exemptions need
# an //rtlint:allow directive with a reason (see CONTRIBUTING.md).
lint:
	$(GO) run ./cmd/rtlint -dir .

# Reachability gate: every function with a body in a non-main package
# must be linked into a shipped binary (the mains under cmd/ and
# examples/, plus _perfbench). Each is built without inlining, so every
# linked function keeps a symbol; rtlint reads the symbols and reports
# each unlinked function at its declaration unless an
# //rtlint:allow reach directive states its role (see CONTRIBUTING.md).
# Nothing is written outside a temporary directory.
reach:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -gcflags=all=-l -o "$$tmp/" ./... && \
	$(GO) -C _perfbench build -gcflags=all=-l -o "$$tmp/perfbench" . && \
	$(GO) run ./cmd/rtlint -dir . -reach "$$tmp"/*

# Dynamic twin of the //rtlint:hotpath annotations: every hot-path
# root has a testing.AllocsPerRun gate asserting the warm operation
# allocates zero times (see DESIGN.md §5.7). Covers the dispatch
# kernel, the time-wheel calendar and the streaming trace checker's
# event path. Also bounds the allocations of a fixed 48-task hot fleet
# Decide, the deterministic guard against the capacity repair going
# quadratic again, and of a fixed-seed exact-upgrade admission churn
# replay, which holds the upgrade's candidate buffer to reuse.
alloc-gate:
	$(GO) test -count=1 -run 'ZeroAlloc|FleetDecideAllocs|AdmissionExactAllocs' \
		./internal/mckp ./internal/sched ./internal/sched/eventq \
		./internal/trace ./internal/admitd ./internal/dbf ./internal/core

# Short liveness run of the admission-control service: a couple of
# deterministic churn streams through cmd/admitd's bench mode, on the
# default core solver and on the DP the paper's figures use.
smoke-admitd:
	$(GO) run ./cmd/admitd -bench -tenants 2 -ops 40 -seed 7 > /dev/null
	$(GO) run ./cmd/admitd -bench -tenants 1 -ops 40 -seed 7 -solver dp > /dev/null

# Fast functional pass over the core-solver differential tests: the
# solver-vs-BnB/brute agreement, the incremental bit-identity churn,
# the admission wiring, and Decide against its from-scratch reference,
# without the full suite's simulation cost.
smoke-mckp:
	$(GO) test -count=1 ./internal/mckp -run 'TestSolver|TestFleetInstanceSolvable|FuzzMCKPSolverAgreement'
	$(GO) test -count=1 ./internal/core -run 'TestAdmissionMatchesRebuild|TestAdmissionCore|TestDecideMatchesReference'

# Kill-and-resume smoke shared by smoke-campaign and smoke-fleet:
# interrupt a small checkpointed sweep with -campaign-limit, resume it,
# and require the resumed output to be byte-identical to an
# uninterrupted run. $(1) is the scratch directory, $(2) the
# cmd/ablations args.
define resume_smoke
	@rm -rf $(1) && mkdir -p $(1)
	$(GO) run ./cmd/ablations $(2) \
		-checkpoint $(1)/ckpt.jsonl -campaign-limit 4 > $(1)/partial.txt
	grep -q 'campaign interrupted: 4/' $(1)/partial.txt
	$(GO) run ./cmd/ablations $(2) \
		-checkpoint $(1)/ckpt.jsonl > $(1)/resumed.txt
	$(GO) run ./cmd/ablations $(2) > $(1)/fresh.txt
	cmp $(1)/resumed.txt $(1)/fresh.txt
	@rm -rf $(1)
endef

# Campaign kill-and-resume smoke over a single-server campaign.
smoke-campaign:
	$(call resume_smoke,$(CAMP_SMOKE_DIR),$(CAMP_SMOKE_ARGS))

# Fleet-campaign kill-and-resume smoke: the fleet differential oracles
# (single-server and reference capacity repair), then a small
# multi-server fleet scenario sweep end-to-end through the fleet-aware
# decision manager, interrupted and resumed like smoke-campaign.
smoke-fleet:
	$(GO) test -count=1 ./internal/core -run 'TestFleetSingleServerOracle|TestFleetRepairMatchesReference'
	$(call resume_smoke,$(FLEET_SMOKE_DIR),$(FLEET_SMOKE_ARGS))

# The pre-merge gate. It also vets the _perfbench module, which builds
# against this module's internal packages: a change to an exported type
# there would otherwise only show when the benchmark runs.
verify: vet lint reach build race alloc-gate smoke-mckp smoke-admitd smoke-campaign smoke-fleet
	$(GO) -C _perfbench vet ./...

# Micro-benchmarks of the incremental demand-analysis engine, recorded
# for regression tracking: benchstat-friendly text in BENCH_2.txt and a
# JSON session that replaces the `current` entry of BENCH_2.json (its
# pre-Analyzer baseline entry stays).
bench:
	$(GO) test -run='^$$' -bench='$(MICROBENCH)' -benchmem -count=5 . ./internal/core | tee BENCH_2.txt
	$(GO) run ./cmd/benchjson -label current -merge BENCH_2.json < BENCH_2.txt > BENCH_2.json.tmp
	mv BENCH_2.json.tmp BENCH_2.json

# Scheduler-engine benchmarks, recorded like `bench`: text in
# BENCH_4.txt, a JSON session that replaces the `current` entry of
# BENCH_4.json (its pre-event-calendar baseline entry stays).
bench-sched:
	$(GO) test -run='^$$' -bench='$(SCHEDBENCH)' -benchmem -count=5 . | tee BENCH_4.txt
	$(GO) run ./cmd/benchjson -label current -merge BENCH_4.json < BENCH_4.txt > BENCH_4.json.tmp
	mv BENCH_4.json.tmp BENCH_4.json

# Admission-churn benchmarks: incremental path vs full-rebuild
# reference, recorded like `bench`: text in BENCH_6.txt, a JSON session
# that replaces the `current` entry of BENCH_6.json (its
# rebuild-baseline entry stays).
bench-admitd:
	$(GO) test -run='^$$' -bench='$(ADMITBENCH)' -benchmem -count=5 . | tee BENCH_6.txt
	$(GO) run ./cmd/benchjson -label current -merge BENCH_6.json < BENCH_6.txt > BENCH_6.json.tmp
	mv BENCH_6.json.tmp BENCH_6.json

# MCKP core-solver benchmarks: fleet-scale cold solves and warm
# incremental re-solves, plus the admission churn that rides the
# persistent solver, recorded like `bench`: text in BENCH_7.txt, a JSON
# session that replaces the `current` entry of BENCH_7.json (its
# stateless BnB/DP baseline entry stays).
bench-mckp:
	$(GO) test -run='^$$' -bench='$(MCKPBENCH)' -benchmem -count=5 ./internal/mckp . | tee BENCH_7.txt
	$(GO) run ./cmd/benchjson -label current -merge BENCH_7.json < BENCH_7.txt > BENCH_7.json.tmp
	mv BENCH_7.json.tmp BENCH_7.json

# Fleet-campaign benchmarks: streaming cells at 1k/10k/100k tasks,
# recorded like `bench`: text in
# BENCH_9.txt, a JSON session that replaces the `current` entry of
# BENCH_9.json (its materialize-and-validate baseline entry, whose code
# path is gone, stays). The 100k fixed-memory ceiling assertion runs
# alongside.
bench-campaign:
	$(GO) test -count=1 -run Test100kUnderMemoryCeiling ./internal/sched
	$(GO) test -run='^$$' -bench='$(CAMPBENCH)' -benchmem -count=3 -benchtime=2x ./internal/sched | tee BENCH_9.txt
	$(GO) run ./cmd/benchjson -label current -merge BENCH_9.json < BENCH_9.txt > BENCH_9.json.tmp
	mv BENCH_9.json.tmp BENCH_9.json

# Every benchmark in the module must still run to completion on one
# iteration, catching bit-rot without paying for timing runs.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

# Capture CPU+heap profiles of the benchmarks and of an ablations run;
# inspect with e.g.
#	$(GO) tool pprof -top cpu.out
#	$(GO) tool pprof -top -sample_index=alloc_objects mem.out
# (cmd/ablations and cmd/casestudy take -cpuprofile/-memprofile too.)
profile:
	$(GO) test -run='^$$' -bench='$(MICROBENCH)' -benchmem \
		-cpuprofile cpu.out -memprofile mem.out .
	$(GO) run ./cmd/ablations -per 10 -cpuprofile ablations_cpu.out -memprofile ablations_mem.out > /dev/null
	@echo "profiles: cpu.out mem.out ablations_cpu.out ablations_mem.out"

# Coverage gate: every internal package must hold ≥ 85% statement
# coverage. internal/prof is exempt from the threshold check only in
# the sense that it must still HAVE tests — its coverage is dominated
# by runtime/pprof plumbing, so it is held to a lower 50% bar.
cover:
	$(GO) test -count=1 -cover ./internal/... | awk ' \
		/no test files/ { print "FAIL (no tests): " $$0; bad = 1; next } \
		/coverage:/ { \
			for (i = 1; i <= NF; i++) if ($$i == "coverage:") pct = substr($$(i+1), 1, length($$(i+1)) - 1); \
			min = ($$2 ~ /internal\/prof$$/) ? 50.0 : 85.0; \
			if (pct + 0 < min) { print "FAIL (< " min "%): " $$0; bad = 1 } else print \
		} \
		END { exit bad }'

# Short fuzz runs (~10s per target) so CI exercises the generators and
# shrinks beyond the checked-in seed corpora.
fuzz-smoke:
	$(GO) test ./internal/sched -run='^$$' -fuzz=FuzzEngineMatchesReference -fuzztime=10s
	$(GO) test ./internal/dbf -run='^$$' -fuzz=FuzzAnalyzerDifferential -fuzztime=10s
	$(GO) test ./internal/dbf -run='^$$' -fuzz=FuzzSumMatchesRat -fuzztime=10s
	$(GO) test ./internal/chaos/invariant -run='^$$' -fuzz=FuzzChaosHardGuarantee -fuzztime=10s
	$(GO) test ./internal/mckp -run='^$$' -fuzz=FuzzMCKPSolverAgreement -fuzztime=10s
	$(GO) test ./internal/core -run='^$$' -fuzz=FuzzFleetDecide -fuzztime=10s
	$(GO) test ./internal/trace -run='^$$' -fuzz=FuzzValidateMatchesReference -fuzztime=10s

fmt:
	gofmt -l -w .

# Non-mutating formatting gate for CI: fails if any file needs gofmt.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
