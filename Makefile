GO ?= go

# The micro-benchmarks recorded in BENCH.json that run at the default
# benchmark time, five times each: the demand-analysis engine (QPA and
# the Theorem-3 sum, and internal/dbf's Analyzer under the exact
# upgrade's swap/screen/undo probes), the admit-large-shaped re-decision replay
# (internal/core's edgeChurn with the exact upgrade on and off) and
# its steady-state write with full QPA runs per write (LightChurn),
# the scheduler engine, the admission churn and service, and the MCKP
# core solver's cold and warm curves.
# The campaign cells run separately in `bench`, at fixed iterations.
MICROBENCH = BenchmarkQPA$$|BenchmarkTheorem3$$|BenchmarkImproveWithExact|BenchmarkAdmissionChurn|BenchmarkAdmissionEdgeChurn|BenchmarkAdmissionLightChurn|BenchmarkSchedSplitEDF|BenchmarkSchedNaiveEDF|BenchmarkSchedAbortAtDeadline|BenchmarkFigure2$$|BenchmarkAdmitdChurn|BenchmarkAdmitdService|BenchmarkMCKPCoreSolve|BenchmarkMCKPCoreResolve|BenchmarkAnalyzerSwapProbe

# Scratch directory for the campaign kill-and-resume smoke.
CAMP_SMOKE_DIR = .smoke-campaign
CAMP_SMOKE_ARGS = -campaign 3 -campaign-tasks 10 -parallel 2

# Scratch directory and args for the fleet-campaign smoke.
FLEET_SMOKE_DIR = .smoke-fleet
FLEET_SMOKE_ARGS = -fleet -campaign 2 -campaign-tasks 10 -parallel 2

.PHONY: build test vet race verify lint alloc-gate fma-gate bench bench-smoke smoke-mckp smoke-campaign smoke-fleet profile fmt fmt-check cover fuzz-smoke

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

# Domain-invariant lint and reachability gate in one rtlint run over
# one module load: determinism, exact arithmetic, overflow guards,
# error sinks, the hot-path/lock/arena annotations, and reach — every
# function with a body in a non-main package must be linked into a
# shipped binary (the mains under cmd/ and examples/, plus
# _perfbench). Each binary is built without inlining into a temporary
# directory, so every linked function keeps a symbol. Exits nonzero
# on any finding; exemptions need an //rtlint:allow directive with a
# reason (see CONTRIBUTING.md). Nothing is written outside the
# temporary directory.
lint:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -gcflags=all=-l -o "$$tmp/" ./... && \
	$(GO) -C _perfbench build -gcflags=all=-l -o "$$tmp/perfbench" . && \
	$(GO) run ./cmd/rtlint -dir . "$$tmp"/*

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

# Decisions bit-identical across CPU architectures: the Go spec lets
# the compiler fuse x*y + z into one rounding, even across statements.
# amd64 never fuses, but arm64 does, so a fused site could move an
# objective or a tie-break on an arm64 host. Cross-build cmd/admitd
# for arm64 (the toolchain cross-compiles the standard library, so
# nothing is downloaded) and fail on any FMADD, FMSUB, FNMADD or
# FNMSUB in a module function; round such a product explicitly with
# float64(x*y). The arm64 output itself is not run.
fma-gate:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	GOARCH=arm64 $(GO) build -o "$$tmp/admitd" ./cmd/admitd && \
	$(GO) tool objdump "$$tmp/admitd" > "$$tmp/admitd.s" && \
	awk '/^TEXT / { fn = $$2; if (fn ~ /^rtoffload\//) n++ } \
		/\t(FMADD|FMSUB|FNMADD|FNMSUB)[SD]? / && fn ~ /^rtoffload\// { print "fused:", fn, $$0; bad = 1 } \
		END { if (n == 0) { print "fma-gate: no module functions in the disassembly"; exit 1 } \
			if (!bad) print "fma-gate: no fused multiply-add in " n " module functions"; exit bad }' "$$tmp/admitd.s"

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
verify: vet lint build race alloc-gate fma-gate smoke-mckp smoke-campaign smoke-fleet
	$(GO) -C _perfbench vet ./...

# The one benchmark ledger. Runs every recorded benchmark and merges
# the session into BENCH.json through cmd/benchjson: each package's
# (layer's) `current` runs are replaced, and every `baseline` stays.
# The raw benchstat-friendly text goes to BENCH.txt. The campaign cells
# (streaming cells at 1k/10k/100k tasks and the checker alone on a
# recorded 4000-task cell) take seconds per iteration, so they run
# 3 times at 2 iterations each; the 100k fixed-memory ceiling assertion
# runs first. A failing benchmark stops the recipe before either file
# is written.
bench:
	$(GO) test -count=1 -run Test100kUnderMemoryCeiling ./internal/sched
	$(GO) test -run='^$$' -bench='$(MICROBENCH)' -benchmem -count=5 \
		. ./internal/core ./internal/mckp ./internal/dbf > BENCH.txt.tmp || { cat BENCH.txt.tmp; exit 1; }
	$(GO) test -run='^$$' -bench='BenchmarkCampaignCellStreaming|BenchmarkStreamCheckerCell' \
		-benchmem -count=3 -benchtime=2x ./internal/sched >> BENCH.txt.tmp || { cat BENCH.txt.tmp; exit 1; }
	$(GO) run ./cmd/benchjson -label current -merge BENCH.json < BENCH.txt.tmp > BENCH.json.tmp
	mv BENCH.txt.tmp BENCH.txt
	mv BENCH.json.tmp BENCH.json

# Every benchmark in the module must still run to completion on one
# iteration, catching bit-rot without paying for timing runs, and its
# output must still parse into the ledger.
bench-smoke:
	@tmp=$$(mktemp) && trap 'rm -f "$$tmp"' EXIT && \
	{ $(GO) test -bench=. -benchtime=1x -run=^$$ ./... > "$$tmp" || { cat "$$tmp"; exit 1; }; } && \
	cat "$$tmp" && $(GO) run ./cmd/benchjson < "$$tmp" > /dev/null

# Capture CPU+heap profiles of the recorded benchmarks and of an
# ablations run. -cpuprofile takes one package at a time, so the root
# package's benchmarks and internal/core's admit-large-shaped replay
# (BenchmarkAdmissionEdgeChurn) each write their own pair; inspect with
# e.g.
#	$(GO) tool pprof -top cpu.out
#	$(GO) tool pprof -top -sample_index=alloc_objects mem.out
# (cmd/ablations and cmd/casestudy take -cpuprofile/-memprofile too.)
profile:
	$(GO) test -run='^$$' -bench='$(MICROBENCH)' -benchmem \
		-cpuprofile cpu.out -memprofile mem.out .
	$(GO) test -run='^$$' -bench='$(MICROBENCH)' -benchmem \
		-cpuprofile core_cpu.out -memprofile core_mem.out ./internal/core
	$(GO) run ./cmd/ablations -per 10 -cpuprofile ablations_cpu.out -memprofile ablations_mem.out > /dev/null
	@echo "profiles: cpu.out mem.out core_cpu.out core_mem.out ablations_cpu.out ablations_mem.out"

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
