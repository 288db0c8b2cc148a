package sched

// Campaign-cell benchmarks (BENCH_9): one cell = simulate a fleet and
// verify its schedule, streaming the trace through the one-pass
// checker with the per-job log discarded and the time-wheel queues on.
// BENCH_9.json's baseline session records the materialize-and-validate
// cell these replaced.
// Test100kUnderMemoryCeiling is the fixed-memory claim: a 100k-task
// simulation streaming to the on-disk binary sink must not grow the
// heap by anything O(horizon).

import (
	"bufio"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"rtoffload/internal/rtime"
	"rtoffload/internal/trace"
)

// benchCellHorizon is the cell horizon of the BENCH_9 baseline
// session, kept so new runs stay comparable with it.
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

// BenchmarkCampaignCellDisk100k is the same endpoint recorded instead
// of checked: the trace streams to the on-disk binary sink, which is
// how Test100kUnderMemoryCeiling keeps the run's heap flat before it
// verifies the file on replay.
func BenchmarkCampaignCellDisk100k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := fleetConfig(100_000, 42)
		cfg.Horizon = rtime.FromMillis(benchCellHorizon)
		cfg.EventQueue = AutoQueue
		cfg.DiscardJobResults = true
		cfg.TraceSink = trace.NewBinarySink(io.Discard)
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignCellStreamingHeap10k isolates the wheel's share of
// the win: same streaming cell, heap queues forced.
func BenchmarkCampaignCellStreamingHeap10k(b *testing.B) {
	benchStreamingCell(b, 10_000, ForceHeap)
}

// Test100kUnderMemoryCeiling runs a 100k-task SplitEDF simulation with
// the trace streaming to an on-disk binary sink and asserts the heap
// grew by less than a fixed ceiling — the segment stream lives on
// disk, so memory stays proportional to the task count, not to
// horizon × rate. An in-memory *trace.Trace sink would hold the full
// segment/sub log (~56 B a segment before growth slack), which at this
// scale dwarfs the ceiling. The recorded file is then read back
// through the one-pass checker, so the endpoint's schedule is
// verified, not only recorded.
func Test100kUnderMemoryCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet-sized simulation")
	}
	cfg := fleetConfig(100_000, 42)
	cfg.EventQueue = AutoQueue
	cfg.DiscardJobResults = true

	f, err := os.Create(filepath.Join(t.TempDir(), "trace.bin"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	sink := trace.NewBinarySink(w)
	cfg.TraceSink = sink

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Measure the heap *retained* with the result still live: a
	// materialized trace would keep its full segment/sub log reachable
	// here (~1.6M segments, >100 MiB), while the streaming run retains
	// only the task set and per-task aggregates. Collecting first
	// keeps the number deterministic — un-collected transient garbage
	// varies run to run.
	runtime.GC()
	runtime.ReadMemStats(&after)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	const ceiling = 128 << 20
	if growth > ceiling {
		t.Fatalf("100k-task run retains %d MiB of heap (ceiling %d MiB)",
			growth>>20, int64(ceiling)>>20)
	}
	opens, segs, closes := sink.Counts()
	if segs == 0 || opens == 0 || closes != opens {
		t.Fatalf("sink saw opens=%d segs=%d closes=%d", opens, segs, closes)
	}
	t.Logf("retained heap %d MiB for %d segments on disk (%d MiB ceiling)",
		growth>>20, segs, int64(ceiling)>>20)
	runtime.KeepAlive(res)

	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	checker := trace.NewStreamChecker()
	if err := trace.ReadBinary(f, checker); err != nil {
		t.Fatalf("recorded 100k schedule fails verification: %v", err)
	}
	if gotSegs, gotSubs := checker.Counts(); gotSegs != segs || gotSubs != closes {
		t.Fatalf("checker consumed %d segments and %d records, sink wrote %d and %d", gotSegs, gotSubs, segs, closes)
	}
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
