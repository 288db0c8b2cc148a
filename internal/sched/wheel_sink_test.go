package sched

// Engine-level coverage for the fleet-scale machinery: the time-wheel
// event queues must leave every observable output bit-identical, and
// the trace sink path must reproduce the in-memory recorder exactly
// while satisfying the streaming checkers live.

import (
	"errors"
	"testing"

	"rtoffload/internal/rtime"
	"rtoffload/internal/server"
	"rtoffload/internal/stats"
	"rtoffload/internal/task"
	"rtoffload/internal/trace"
)

// fleetConfig draws an n-task system in the fleet-campaign shape:
// light per-task load, a mix of local and offloaded tasks against a
// deterministic server, short horizon relative to the period spread.
func fleetConfig(n int, seed uint64) Config {
	rng := stats.NewRNG(seed)
	shares := rng.UUniFast(n, 0.6)
	asgs := make([]Assignment, 0, n)
	for i := 0; i < n; i++ {
		period := rtime.FromMillis(rng.UniformInt(20, 400))
		c := rtime.Duration(shares[i] * float64(period))
		if c < 2 {
			c = 2
		}
		tk := &task.Task{ID: i, Period: period, Deadline: period, LocalWCET: c, LocalBenefit: 1}
		if i%3 == 0 {
			tk.Setup = c/4 + 1
			tk.Compensation = c
			tk.PostProcess = c / 6
			tk.Levels = []task.Level{{
				Response: rtime.Duration(float64(period) * 0.4),
				Benefit:  2,
			}}
			asgs = append(asgs, Assignment{Task: tk, Offload: true})
		} else {
			asgs = append(asgs, Assignment{Task: tk})
		}
	}
	return Config{
		Assignments: asgs,
		Horizon:     rtime.FromMillis(2000),
		Policy:      SplitEDF,
		Server:      server.Fixed{Latency: rtime.FromMillis(8)},
	}
}

// TestWheelMatchesHeap runs the engine twice on identically-seeded
// systems — time queues as heaps vs as time wheels — across every
// policy combination and asserts bit-identical results, traces
// included. With TestEngineMatchesReference this transitively pins the
// wheel to the reference dispatcher.
func TestWheelMatchesHeap(t *testing.T) {
	seeds := 30
	if testing.Short() {
		seeds = 8
	}
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		for _, p := range diffPolicies {
			for _, m := range diffMisses {
				heapCfg := genDiffConfig(seed, p, m)
				heapCfg.EventQueue = ForceHeap
				wheelCfg := genDiffConfig(seed, p, m)
				wheelCfg.EventQueue = ForceWheel
				got, errG := Run(wheelCfg)
				want, errW := Run(heapCfg)
				if errG != nil || errW != nil {
					t.Fatalf("seed %d, %v/%v: wheel err %v, heap err %v", seed, p, m, errG, errW)
				}
				if d := describeDiff(got, want, sinkTrace(wheelCfg), sinkTrace(heapCfg)); d != "" {
					t.Fatalf("seed %d, %v/%v: wheel diverges from heap: %s", seed, p, m, d)
				}
			}
		}
	}
}

// forwardSink hides a *trace.Trace behind the plain Sink interface, so
// the engine streams into it as into any external sink: no Reserve
// presizing, every event through the interface methods.
type forwardSink struct {
	tr       trace.Trace
	finished int
}

func (f *forwardSink) OpenSub(id trace.SubID, release, deadline rtime.Instant, wcet rtime.Duration) {
	f.tr.OpenSub(id, release, deadline, wcet)
}
func (f *forwardSink) AppendSegment(s trace.Segment) { f.tr.AppendSegment(s) }
func (f *forwardSink) CloseSub(r trace.SubRecord)    { f.tr.CloseSub(r) }
func (f *forwardSink) Finish() error                 { f.finished++; return f.tr.Finish() }

// TestTraceSinkMatchesRecordTrace streams the trace into an external
// sink and asserts it is bit-identical to the in-memory recorder — a
// *trace.Trace passed as TraceSink, which the engine presizes — with
// identical results and exactly one Finish per run.
func TestTraceSinkMatchesRecordTrace(t *testing.T) {
	segments := 0
	for seed := uint64(1); seed <= 12; seed++ {
		for _, m := range diffMisses {
			recCfg := genDiffConfig(seed, SplitEDF, m)
			want, err := Run(recCfg)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			streamed := &forwardSink{}
			sinkCfg := genDiffConfig(seed, SplitEDF, m)
			sinkCfg.TraceSink = streamed
			got, err := Run(sinkCfg)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if streamed.finished != 1 {
				t.Fatalf("seed %d, %v: sink finished %d times, want 1", seed, m, streamed.finished)
			}
			if d := describeDiff(got, want, &streamed.tr, sinkTrace(recCfg)); d != "" {
				t.Fatalf("seed %d, %v: sink run diverges: %s", seed, m, d)
			}
			segments += len(streamed.tr.Segments)
		}
	}
	if segments == 0 {
		t.Fatal("no run recorded a segment; the comparison is vacuous")
	}
}

// TestEngineStreamSatisfiesChecker runs the engine with a live
// StreamChecker sink: the engine's event emission order must satisfy
// the Sink contract the one-pass checkers rely on, across policies,
// miss policies, and both queue modes.
func TestEngineStreamSatisfiesChecker(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		for _, m := range diffMisses {
			for _, q := range []QueueMode{ForceHeap, ForceWheel} {
				cfg := genDiffConfig(seed, SplitEDF, m)
				cfg.EventQueue = q
				cfg.TraceSink = trace.NewStreamChecker()
				if _, err := Run(cfg); err != nil {
					t.Fatalf("seed %d, %v, queue %d: live stream rejected: %v", seed, m, int(q), err)
				}
			}
		}
	}
}

// TestDiscardJobResults checks the campaign-mode toggle: aggregates
// stay identical, only the per-job log disappears.
func TestDiscardJobResults(t *testing.T) {
	full, err := Run(genDiffConfig(3, SplitEDF, ContinueLate))
	if err != nil {
		t.Fatal(err)
	}
	cfg := genDiffConfig(3, SplitEDF, ContinueLate)
	cfg.DiscardJobResults = true
	lean, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(lean.Jobs) != 0 {
		t.Fatalf("DiscardJobResults kept %d job records", len(lean.Jobs))
	}
	if lean.Misses != full.Misses || lean.TotalBenefit != full.TotalBenefit ||
		lean.CPUBusy != full.CPUBusy || lean.Makespan != full.Makespan {
		t.Fatalf("aggregates diverge: %+v vs %+v", lean, full)
	}
	for id, w := range full.PerTask {
		g := lean.PerTask[id]
		if g == nil || g.Misses != w.Misses || g.Finished != w.Finished || g.BenefitSum != w.BenefitSum {
			t.Fatalf("task %d stats diverge: %+v vs %+v", id, g, w)
		}
	}
}

// failSink reports a deferred error from Finish, as an on-disk sink
// does when the underlying writer failed mid-run.
type failSink struct{ err error }

func (f *failSink) OpenSub(trace.SubID, rtime.Instant, rtime.Instant, rtime.Duration) {}
func (f *failSink) AppendSegment(trace.Segment)                                       {}
func (f *failSink) CloseSub(trace.SubRecord)                                          {}
func (f *failSink) Finish() error                                                     { return f.err }

// TestSinkFinishErrorSurfaces proves a sink's deferred failure aborts
// Run instead of vanishing.
func TestSinkFinishErrorSurfaces(t *testing.T) {
	sinkErr := errors.New("disk full")
	cfg := genDiffConfig(1, SplitEDF, ContinueLate)
	cfg.TraceSink = &failSink{err: sinkErr}
	if _, err := Run(cfg); !errors.Is(err, sinkErr) {
		t.Fatalf("Run error = %v, want the sink's %v", err, sinkErr)
	}
}

// TestAutoQueueSwitchesAtThreshold exercises the AutoQueue heuristic
// end to end on a synthetic fleet just past the threshold, checking
// the wheel-backed run against a forced-heap run.
func TestAutoQueueSwitchesAtThreshold(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet-sized differential")
	}
	auto := fleetConfig(wheelThreshold+8, 42)
	auto.EventQueue = AutoQueue
	heap := fleetConfig(wheelThreshold+8, 42)
	heap.EventQueue = ForceHeap
	got, err := Run(auto)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(heap)
	if err != nil {
		t.Fatal(err)
	}
	if d := describeDiff(got, want, nil, nil); d != "" {
		t.Fatalf("auto (wheel) diverges from heap at fleet size: %s", d)
	}
}
