package sched

// Campaign-cell benchmarks (recorded in BENCH.json): one cell =
// simulate a fleet and verify its schedule, streaming the trace through
// the one-pass checker with the per-job log discarded and the
// time-wheel queues on. The ledger's stale baselines
// (BenchmarkCampaignCellBaseline*, migrated from BENCH_9.json) record
// the materialize-and-validate cell these replaced.
// Test100kUnderMemoryCeiling is the fixed-memory claim: a 100k-task
// simulation verified inline must not grow the heap by anything
// O(horizon).

import (
	"runtime"
	"testing"

	"rtoffload/internal/rtime"
	"rtoffload/internal/trace"
)

// benchCellHorizon is the cell horizon of the stale baseline runs,
// kept so new runs stay comparable with them.
const benchCellHorizon = 200 // ms

// benchStreamingCell is the campaign cell: queue mode chosen by
// AutoQueue (the wheel at these sizes), job log discarded, trace
// verified one-pass as it streams.
func benchStreamingCell(b *testing.B, n int, q QueueMode) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := fleetConfig(n, 42)
		cfg.Horizon = rtime.FromMillis(benchCellHorizon)
		cfg.EventQueue = q
		cfg.DiscardJobResults = true
		cfg.TraceSink = trace.NewStreamChecker()
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCampaignCellStreaming1k(b *testing.B) {
	benchStreamingCell(b, 1_000, AutoQueue)
}
func BenchmarkCampaignCellStreaming10k(b *testing.B) {
	benchStreamingCell(b, 10_000, AutoQueue)
}

// BenchmarkCampaignCellStreaming100k is the fleet endpoint verified
// inline: a synchronous 100k release keeps ~n sub-jobs in flight, and
// the checker's O(log n) event cost keeps that affordable.
func BenchmarkCampaignCellStreaming100k(b *testing.B) {
	benchStreamingCell(b, 100_000, AutoQueue)
}

// BenchmarkCampaignCellStreamingHeap10k isolates the wheel's share of
// the win: same streaming cell, heap queues forced.
func BenchmarkCampaignCellStreamingHeap10k(b *testing.B) {
	benchStreamingCell(b, 10_000, ForceHeap)
}

// Test100kUnderMemoryCeiling runs a 100k-task SplitEDF simulation
// with the trace streaming straight into the one-pass checker and
// asserts the heap grew by less than a fixed ceiling: the checker's
// state is bounded by the sub-jobs in flight, so memory stays
// proportional to the task count, not to horizon × rate. An in-memory
// *trace.Trace sink would hold the full segment/sub log (~56 B a
// segment before growth slack), which at this scale dwarfs the
// ceiling. The endpoint's schedule is verified inline, not only run.
func Test100kUnderMemoryCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet-sized simulation")
	}
	cfg := fleetConfig(100_000, 42)
	cfg.EventQueue = AutoQueue
	cfg.DiscardJobResults = true
	checker := trace.NewStreamChecker()
	// The counting wrapper hides the checker's type from the engine,
	// so presize it as the engine presizes a bare checker.
	checker.Reserve(len(cfg.Assignments))
	sink := &openCounter{StreamChecker: checker}
	cfg.TraceSink = sink

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("100k schedule fails verification: %v", err)
	}
	// Measure the heap *retained* with the result and the checker
	// still live: a materialized trace would keep its full segment/sub
	// log reachable here (~1.6M segments, >100 MiB), while the
	// streaming run retains only the task set, per-task aggregates and
	// the checker's in-flight state. Collecting first keeps the number
	// deterministic — un-collected transient garbage varies run to run.
	runtime.GC()
	runtime.ReadMemStats(&after)

	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	const ceiling = 128 << 20
	if growth > ceiling {
		t.Fatalf("100k-task run retains %d MiB of heap (ceiling %d MiB)",
			growth>>20, int64(ceiling)>>20)
	}
	segs, closes := checker.Counts()
	if segs == 0 || sink.opens == 0 || closes != sink.opens {
		t.Fatalf("checker saw opens=%d segs=%d closes=%d", sink.opens, segs, closes)
	}
	t.Logf("retained heap %d MiB for %d segments checked inline (%d MiB ceiling)",
		growth>>20, segs, int64(ceiling)>>20)
	runtime.KeepAlive(res)
}

// openCounter passes the event stream through to a StreamChecker,
// counting the sub-jobs opened (the checker counts only closes).
type openCounter struct {
	*trace.StreamChecker
	opens int64
}

func (o *openCounter) OpenSub(id trace.SubID, release, deadline rtime.Instant, wcet rtime.Duration) {
	o.opens++
	o.StreamChecker.OpenSub(id, release, deadline, wcet)
}

// sinkEvent is one recorded Sink call. Opens and closes keep their
// record; a segment keeps its sub-job in Sub and [Start, End) in
// Release and Deadline, so the log stays one flat slice.
type sinkEvent struct {
	tag byte // 'O' open, 'S' segment, 'C' close
	rec trace.SubRecord
}

// eventLog is a Sink recording the event stream for replay.
type eventLog []sinkEvent

func (l *eventLog) OpenSub(id trace.SubID, release, deadline rtime.Instant, wcet rtime.Duration) {
	*l = append(*l, sinkEvent{'O', trace.SubRecord{Sub: id, Release: release, Deadline: deadline, WCET: wcet}})
}
func (l *eventLog) AppendSegment(s trace.Segment) {
	*l = append(*l, sinkEvent{'S', trace.SubRecord{Sub: s.Sub, Release: s.Start, Deadline: s.End}})
}
func (l *eventLog) CloseSub(r trace.SubRecord) { *l = append(*l, sinkEvent{'C', r}) }
func (l *eventLog) Finish() error              { return nil }

// BenchmarkStreamCheckerCell4k times the one-pass checker alone on the
// recorded event stream of a 4000-task, 2 s cell (the campaign-sim cell
// size), presized as the engine presizes it: ns/op is the checker's
// share of a cell, B/op its own allocation.
func BenchmarkStreamCheckerCell4k(b *testing.B) {
	cfg := fleetConfig(4_000, 42)
	cfg.DiscardJobResults = true
	var log eventLog
	cfg.TraceSink = &log
	if _, err := Run(cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := trace.NewStreamChecker()
		c.Reserve(len(cfg.Assignments))
		for j := range log {
			e := &log[j]
			switch e.tag {
			case 'O':
				c.OpenSub(e.rec.Sub, e.rec.Release, e.rec.Deadline, e.rec.WCET)
			case 'S':
				c.AppendSegment(trace.Segment{Start: e.rec.Release, End: e.rec.Deadline, Sub: e.rec.Sub})
			case 'C':
				c.CloseSub(e.rec)
			}
		}
		if err := c.Finish(); err != nil {
			b.Fatal(err)
		}
	}
}
