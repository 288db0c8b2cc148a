package trace_test

// Engine-trace differential: the hand-built corpus in stream_test.go
// never goes through the simulator, so shapes only the engine emits —
// zero-cost sub-jobs opening and closing at a segment boundary,
// abandoned sub-jobs, routed offloads — are pinned here. Fixed-seed
// sched.Run traces, and every single-field mutation of a sample of
// their records, must get the same accept/reject verdict from Validate
// (the one-pass StreamChecker via Replay) and from the materialized
// reference checkers (RefValidate).

import (
	"fmt"
	"testing"

	"rtoffload/internal/rtime"
	"rtoffload/internal/sched"
	"rtoffload/internal/server"
	"rtoffload/internal/stats"
	"rtoffload/internal/task"
	"rtoffload/internal/trace"
)

// engineSystem draws n tasks at total utilization util: a mix of local
// tasks and offloaded ones (setup, compensation, and a post-processing
// phase that is zero for about half of them). Offloaded levels route
// round-robin over servers; an empty list uses the default server.
func engineSystem(rng *stats.RNG, n int, util float64, servers []string) ([]sched.Assignment, rtime.Duration) {
	shares := rng.UUniFast(n, util)
	asgs := make([]sched.Assignment, 0, n)
	maxT := rtime.Duration(0)
	for i := 0; i < n; i++ {
		period := rtime.FromMillis(rng.UniformInt(10, 80))
		maxT = max(maxT, period)
		c := max(rtime.Duration(shares[i]*float64(period)), 4)
		tk := &task.Task{ID: i, Period: period, Deadline: period, LocalWCET: c, LocalBenefit: 1}
		if !rng.Bool(0.6) {
			asgs = append(asgs, sched.Assignment{Task: tk})
			continue
		}
		tk.Setup = c/4 + 1
		tk.Compensation = c
		if rng.Bool(0.5) {
			tk.PostProcess = c / 6
		}
		lvl := task.Level{Response: rtime.Duration(rng.Uniform(0.2, 0.6) * float64(period)), Benefit: 2}
		if len(servers) > 0 {
			lvl.ServerID = servers[i%len(servers)]
		}
		tk.Levels = []task.Level{lvl}
		asgs = append(asgs, sched.Assignment{Task: tk, Offload: true})
	}
	return asgs, maxT
}

// engineTrace is one recorded engine run.
type engineTrace struct {
	name string
	tr   *trace.Trace
}

// engineTraces records one fixed-seed trace per engine shape.
func engineTraces(t *testing.T) []engineTrace {
	t.Helper()
	out, err := recordEngineTraces()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// The split-EDF and abort-at-deadline traces — dozens of sub-jobs,
// preemptions and abandonments — are also FuzzValidateMatchesReference
// bases, so the fuzzer exercises the checker's heap reordering, slot
// reuse and stale entries, which the 2–3 sub-job fixtures never reach.
func init() {
	trace.EngineFuzzBases = func() []*trace.Trace {
		all, err := recordEngineTraces()
		if err != nil {
			panic(err)
		}
		var out []*trace.Trace
		for _, c := range all {
			if c.name == "split-edf" || c.name == "abort-at-deadline" {
				out = append(out, c.tr)
			}
		}
		return out
	}
}

// recordEngineTraces runs every engine shape once.
func recordEngineTraces() ([]engineTrace, error) {
	// An instant server returns each result the moment setup
	// completes: with a zero post-processing phase, that is the
	// zero-WCET sub-job released and completed at a segment's end.
	instant := server.Fixed{}
	cases := []struct {
		name string
		cfg  func(rng *stats.RNG) sched.Config
	}{
		{"split-edf", func(rng *stats.RNG) sched.Config {
			asgs, maxT := engineSystem(rng, 6, 0.8, nil)
			return sched.Config{Assignments: asgs, Server: instant, Horizon: 4 * maxT,
				ReleaseJitter: rtime.FromMillis(3), RNG: rng.Fork()}
		}},
		{"naive-edf", func(rng *stats.RNG) sched.Config {
			asgs, maxT := engineSystem(rng, 6, 0.95, nil)
			return sched.Config{Assignments: asgs, Server: server.Fixed{Lost: true},
				Horizon: 4 * maxT, Policy: sched.NaiveEDF}
		}},
		{"abort-at-deadline", func(rng *stats.RNG) sched.Config {
			asgs, maxT := engineSystem(rng, 6, 1.3, nil)
			return sched.Config{Assignments: asgs, Server: server.Fixed{Latency: rtime.FromMillis(6)},
				Horizon: 4 * maxT, OnMiss: sched.AbortAtDeadline}
		}},
		{"routed-fleet", func(rng *stats.RNG) sched.Config {
			asgs, maxT := engineSystem(rng, 7, 0.8, []string{"edge", "cloud", "lossy"})
			return sched.Config{Assignments: asgs, Horizon: 4 * maxT, Servers: map[string]server.Server{
				"edge":  instant,
				"cloud": server.Fixed{Latency: rtime.FromMillis(7)},
				"lossy": server.Fixed{Lost: true},
			}}
		}},
	}
	out := make([]engineTrace, len(cases))
	for i, c := range cases {
		cfg := c.cfg(stats.NewRNG(uint64(0x7ace + i)))
		tr := &trace.Trace{}
		cfg.TraceSink = tr
		if _, err := sched.Run(cfg); err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		out[i] = engineTrace{c.name, tr}
	}
	return out, nil
}

// clone deep-copies a trace so each mutation starts from the original.
func clone(tr *trace.Trace) *trace.Trace {
	return &trace.Trace{
		Segments: append([]trace.Segment(nil), tr.Segments...),
		Subs:     append([]trace.SubRecord(nil), tr.Subs...),
	}
}

// Single-field mutations, each nudging one field of one record by the
// smallest step (1 µs) or flipping one lifecycle flag.
var (
	segMutations = []func(s *trace.Segment){
		func(s *trace.Segment) { s.Start-- },
		func(s *trace.Segment) { s.Start++ },
		func(s *trace.Segment) { s.End-- },
		func(s *trace.Segment) { s.End++ },
		func(s *trace.Segment) { s.Sub.Seq++ },
	}
	subMutations = []func(r *trace.SubRecord){
		func(r *trace.SubRecord) { r.Release-- },
		func(r *trace.SubRecord) { r.Release++ },
		func(r *trace.SubRecord) { r.Deadline-- },
		func(r *trace.SubRecord) { r.Deadline++ },
		func(r *trace.SubRecord) { r.WCET-- },
		func(r *trace.SubRecord) { r.WCET++ },
		func(r *trace.SubRecord) { r.Completion-- },
		func(r *trace.SubRecord) { r.Completion++ },
		func(r *trace.SubRecord) { r.Completed = !r.Completed },
		func(r *trace.SubRecord) {
			r.Abandoned = !r.Abandoned
			r.AbandonTime = r.Completion
		},
	}
)

// TestValidateMatchesReferenceOnEngineTraces is the engine-trace
// differential described at the top of the file.
func TestValidateMatchesReferenceOnEngineTraces(t *testing.T) {
	const sample = 40 // records mutated per trace and record kind
	boundaryZero := false
	for _, c := range engineTraces(t) {
		t.Run(c.name, func(t *testing.T) {
			tr := c.tr
			if len(tr.Segments) < sample || len(tr.Subs) < sample {
				t.Fatalf("trace too small: %d segments, %d subs", len(tr.Segments), len(tr.Subs))
			}
			if err := tr.RefValidate(); err != nil {
				t.Fatalf("reference rejects the engine trace: %v", err)
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("Validate rejects the engine trace: %v", err)
			}
			ends := make(map[rtime.Instant]bool, len(tr.Segments))
			for _, s := range tr.Segments {
				ends[s.End] = true
			}
			for _, r := range tr.Subs {
				if r.WCET == 0 && r.Completed && r.Completion == r.Release && ends[r.Release] {
					boundaryZero = true
				}
			}

			agree := func(m *trace.Trace, record string, idx, mut int) bool {
				ref, str := m.RefValidate(), m.Validate()
				if (ref == nil) != (str == nil) {
					t.Fatalf("%s %d, mutation %d: reference says %v, Validate says %v", record, idx, mut, ref, str)
				}
				return ref != nil
			}
			mutated, rejected := 0, 0
			for k := 0; k < sample; k++ {
				i := k * len(tr.Segments) / sample
				for mi, mut := range segMutations {
					m := clone(tr)
					mut(&m.Segments[i])
					mutated++
					if agree(m, "segment", i, mi) {
						rejected++
					}
				}
				j := k * len(tr.Subs) / sample
				for mi, mut := range subMutations {
					m := clone(tr)
					mut(&m.Subs[j])
					mutated++
					if agree(m, "sub", j, mi) {
						rejected++
					}
				}
			}
			// Most nudges break some invariant; a checker pair that
			// accepted nearly everything would agree vacuously.
			if rejected*2 < mutated {
				t.Fatalf("only %d of %d mutations rejected", rejected, mutated)
			}
			t.Logf("%d segments, %d subs: %d of %d mutations rejected",
				len(tr.Segments), len(tr.Subs), rejected, mutated)
		})
	}
	if !boundaryZero {
		t.Fatal("no trace holds a zero-WCET sub-job released and completed at a segment end")
	}
}
