package sched

// Differential testing: the event-calendar engine must be
// bit-identical to the retained reference dispatcher
// (reference_test.go) — same Result scalars, same job stream, same
// per-task statistics, same trace — on randomly generated systems
// across every policy × miss-policy combination. Floating-point sums
// compare with == on purpose: both dispatchers must perform the same
// accumulations in the same order.

import (
	"fmt"
	"reflect"
	"testing"

	"rtoffload/internal/rtime"
	"rtoffload/internal/server"
	"rtoffload/internal/stats"
	"rtoffload/internal/task"
	"rtoffload/internal/trace"
)

// genDiffConfig draws a random system in the shape the experiment
// generators use (internal/exp): a handful of sporadic tasks at a
// total load spanning under- and overload, a random subset offloaded
// with one response level each. Both engines get their own Config —
// servers, RNGs and the in-memory trace sink carry state, so each run
// needs fresh instances seeded identically. sinkTrace reads the
// recorded trace back.
func genDiffConfig(seed uint64, policy Policy, miss MissPolicy) Config {
	rng := stats.NewRNG(seed)
	n := 2 + rng.IntN(6)
	shares := rng.UUniFast(n, rng.Uniform(0.4, 1.4))
	asgs := make([]Assignment, 0, n)
	maxT := rtime.Duration(0)
	for i := 0; i < n; i++ {
		period := rtime.FromMillis(rng.UniformInt(10, 200))
		deadline := period
		if rng.Bool(0.3) { // constrained deadline
			deadline = rtime.Duration(rng.Uniform(0.6, 1.0) * float64(period))
		}
		c := rtime.Duration(shares[i] * float64(period))
		if c < 4 {
			c = 4
		}
		if c > deadline {
			c = deadline
		}
		if period > maxT {
			maxT = period
		}
		tk := &task.Task{ID: i, Period: period, Deadline: deadline, LocalWCET: c, LocalBenefit: 1}
		if rng.Bool(0.6) {
			r := rtime.Duration(rng.Uniform(0.2, 0.7) * float64(deadline))
			if r < 1 {
				r = 1
			}
			tk.Setup = c/4 + 1
			tk.Compensation = c
			tk.PostProcess = c / 8 // 0 for small c: exercises the zero-WCET resume path
			tk.Levels = []task.Level{{
				Response:     r,
				Benefit:      1 + rng.Float64(),
				PayloadBytes: rng.UniformInt(1<<10, 1<<20),
			}}
			asgs = append(asgs, Assignment{Task: tk, Offload: true})
		} else {
			asgs = append(asgs, Assignment{Task: tk})
		}
	}

	cfg := Config{
		Assignments:      asgs,
		Horizon:          8 * maxT,
		Policy:           policy,
		OnMiss:           miss,
		TraceSink:        &trace.Trace{},
		CollectLatencies: true,
	}
	if rng.Bool(0.5) {
		cfg.ReleaseJitter = rtime.FromMillis(rng.UniformInt(1, 20))
		cfg.RNG = stats.NewRNG(seed ^ 0xA5A5A5A5)
	}
	switch rng.IntN(4) {
	case 0:
		cfg.Server = server.Fixed{Latency: rtime.FromMillis(rng.UniformInt(1, 100))}
	case 1:
		cfg.Server = server.Fixed{Lost: true} // every offload through compensation
	case 2:
		cfg.Server = server.Bounded{
			Inner: server.Fixed{Lost: true},
			Bound: rtime.FromMillis(rng.UniformInt(5, 150)),
		}
	default:
		q, err := server.NewQueue(stats.NewRNG(seed^0x5EED), server.QueueConfig{
			Workers:               1 + rng.IntN(2),
			BandwidthBytesPerSec:  10 << 20,
			NetLatencyMean:        rtime.FromMillis(2),
			NetLatencySigma:       0.5,
			ServiceMean:           rtime.FromMillis(5),
			ServiceRefBytes:       1 << 16,
			ServiceJitter:         0.3,
			BackgroundRatePerSec:  20,
			BackgroundServiceMean: rtime.FromMillis(3),
			LossProbability:       0.05,
		})
		if err != nil {
			panic(err) // static config; cannot fail
		}
		cfg.Server = q
	}
	return cfg
}

// sinkTrace returns the in-memory trace a config records into, or nil
// when its sink is not a *trace.Trace.
func sinkTrace(cfg Config) *trace.Trace {
	tr, _ := cfg.TraceSink.(*trace.Trace)
	return tr
}

// diffOnce runs both dispatchers on identically-seeded configurations
// and returns a description of the first divergence, or "" if the
// results and traces are bit-identical.
func diffOnce(seed uint64, policy Policy, miss MissPolicy) string {
	gotCfg, wantCfg := genDiffConfig(seed, policy, miss), genDiffConfig(seed, policy, miss)
	got, errG := Run(gotCfg)
	want, errW := runReference(wantCfg)
	if (errG != nil) != (errW != nil) {
		return fmt.Sprintf("error mismatch: engine %v, reference %v", errG, errW)
	}
	if errG != nil {
		return ""
	}
	return describeDiff(got, want, sinkTrace(gotCfg), sinkTrace(wantCfg))
}

// describeDiff pinpoints the first field where two results, or the
// traces they recorded (nil when not recorded), diverge.
func describeDiff(got, want *Result, gotTr, wantTr *trace.Trace) string {
	if got.Misses != want.Misses {
		return fmt.Sprintf("Misses: %d != %d", got.Misses, want.Misses)
	}
	if got.TotalBenefit != want.TotalBenefit || got.TotalBaseline != want.TotalBaseline {
		return fmt.Sprintf("benefit: (%v, %v) != (%v, %v)",
			got.TotalBenefit, got.TotalBaseline, want.TotalBenefit, want.TotalBaseline)
	}
	if got.CPUBusy != want.CPUBusy || got.RadioBusy != want.RadioBusy || got.Makespan != want.Makespan {
		return fmt.Sprintf("busy/makespan: (%v, %v, %v) != (%v, %v, %v)",
			got.CPUBusy, got.RadioBusy, got.Makespan, want.CPUBusy, want.RadioBusy, want.Makespan)
	}
	if len(got.Jobs) != len(want.Jobs) {
		return fmt.Sprintf("job count: %d != %d", len(got.Jobs), len(want.Jobs))
	}
	for i := range got.Jobs {
		if got.Jobs[i] != want.Jobs[i] {
			return fmt.Sprintf("job %d: %+v != %+v", i, got.Jobs[i], want.Jobs[i])
		}
	}
	if len(got.PerTask) != len(want.PerTask) {
		return fmt.Sprintf("per-task count: %d != %d", len(got.PerTask), len(want.PerTask))
	}
	for id, w := range want.PerTask {
		g := got.PerTask[id]
		if g == nil {
			return fmt.Sprintf("task %d missing from engine result", id)
		}
		if !reflect.DeepEqual(*g, *w) {
			return fmt.Sprintf("task %d stats: %+v != %+v", id, *g, *w)
		}
	}
	if (gotTr == nil) != (wantTr == nil) {
		return "trace presence mismatch"
	}
	if gotTr != nil {
		if d := describeTraceDiff(gotTr, wantTr); d != "" {
			return d
		}
	}
	if !reflect.DeepEqual(got, want) {
		return "results differ (unattributed field)"
	}
	return ""
}

func describeTraceDiff(got, want *trace.Trace) string {
	if len(got.Segments) != len(want.Segments) {
		return fmt.Sprintf("segment count: %d != %d", len(got.Segments), len(want.Segments))
	}
	for i := range got.Segments {
		if got.Segments[i] != want.Segments[i] {
			return fmt.Sprintf("segment %d: %+v != %+v", i, got.Segments[i], want.Segments[i])
		}
	}
	if len(got.Subs) != len(want.Subs) {
		return fmt.Sprintf("sub-record count: %d != %d", len(got.Subs), len(want.Subs))
	}
	for i := range got.Subs {
		if got.Subs[i] != want.Subs[i] {
			return fmt.Sprintf("sub-record %d: %+v != %+v", i, got.Subs[i], want.Subs[i])
		}
	}
	return ""
}

var diffPolicies = []Policy{SplitEDF, NaiveEDF, FixedPriority}
var diffMisses = []MissPolicy{ContinueLate, AbortAtDeadline}

func TestEngineMatchesReference(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 10
	}
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		for _, p := range diffPolicies {
			for _, m := range diffMisses {
				if d := diffOnce(seed, p, m); d != "" {
					t.Fatalf("seed %d, %v/%v: %s", seed, p, m, d)
				}
			}
		}
	}
}

// TestEngineTraceValid replays a few engine traces through the
// independent invariant checkers, so the differential test cannot be
// satisfied by two dispatchers sharing the same bug class.
func TestEngineTraceValid(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		cfg := genDiffConfig(seed, SplitEDF, ContinueLate)
		if _, err := Run(cfg); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := sinkTrace(cfg).Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func FuzzEngineMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0))
	f.Add(uint64(7), uint8(1), uint8(1))
	f.Add(uint64(42), uint8(2), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, p, m uint8) {
		policy := diffPolicies[int(p)%len(diffPolicies)]
		miss := diffMisses[int(m)%len(diffMisses)]
		if d := diffOnce(seed, policy, miss); d != "" {
			t.Fatalf("seed %d, %v/%v: %s", seed, policy, miss, d)
		}
	})
}
