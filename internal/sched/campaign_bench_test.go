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

// BenchmarkCampaignCellDisk100k is the fleet endpoint: at 100k tasks
// the trace streams to the on-disk binary sink (the one-pass checker's
// live-set scan is meant for cell-sized systems; a synchronous 100k
// release keeps ~n subs live, see DESIGN.md §5.8), and verification
// happens on replay of the recorded file.
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
// scale dwarfs the ceiling.
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
}
