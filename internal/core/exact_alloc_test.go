package core

import (
	"testing"

	"rtoffload/internal/rtime"
	"rtoffload/internal/stats"
	"rtoffload/internal/task"
)

// lightEdgeTask draws one light offloadable task in the shape of the
// admission benchmark's large tenants: local density 1–5%, so about
// thirty fill a processor, one to three offloading levels of
// increasing budget and benefit, setup C/5+1 and compensation 4C/5.
func lightEdgeTask(rng *stats.RNG, id int) *task.Task {
	for {
		period := rtime.FromMillis(rng.UniformInt(20, 800))
		deadline := period
		if rng.Bool(0.25) {
			deadline = period/2 + rtime.Duration(rng.Int64N(int64(period/2)))
		}
		c := rtime.Duration(rng.Uniform(0.01, 0.05)*float64(deadline)) + 1
		tk := &task.Task{
			ID: id, Period: period, Deadline: deadline,
			LocalWCET: c, Setup: c/5 + 1, Compensation: c * 4 / 5, PostProcess: c / 8,
			LocalBenefit: rng.Uniform(0, 3),
			Weight:       rng.Uniform(0.5, 3),
		}
		nlv := rng.IntN(3) + 1
		prevR, prevB := rtime.Duration(0), tk.LocalBenefit
		for j := 0; j < nlv; j++ {
			r := prevR + rtime.Duration(rng.Int64N(int64(deadline)))/rtime.Duration(nlv+1) + 1
			b := prevB + rng.Uniform(0.1, 2)
			tk.Levels = append(tk.Levels, task.Level{Response: r, Benefit: b})
			prevR, prevB = r, b
		}
		if tk.Validate() == nil {
			return tk
		}
	}
}

// edgeOp is one recorded admission request of edgeChurn.
type edgeOp struct {
	kind int // 0 admit, 1 update, 2 evict
	id   int
	task *task.Task
}

// lightChurn draws and applies the admission benchmark's
// large-tenant request mix online against a: an admission while
// priming or while fewer than 32 tasks live (half the time), else an
// update or an eviction of a random live task. Its requests depend
// only on its seed and the outcomes a reports.
type lightChurn struct {
	rng    *stats.RNG
	a      *Admission
	live   []int
	nextID int
}

// step draws the next request, applies it to c.a and returns it.
// Only a failed eviction is an error: rejected admissions and updates
// keep the live set.
func (c *lightChurn) step(prime bool) (edgeOp, error) {
	var op edgeOp
	switch {
	case prime || len(c.live) == 0 || (len(c.live) < 32 && c.rng.Bool(0.5)):
		op.id, op.task = c.nextID, lightEdgeTask(c.rng, c.nextID)
		c.nextID++
		if c.a.Add(op.task) == nil {
			c.live = append(c.live, op.id)
		}
	case c.rng.Bool(0.5):
		op.kind, op.id = 1, c.live[c.rng.IntN(len(c.live))]
		op.task = lightEdgeTask(c.rng, op.id)
		_ = c.a.Update(op.task) // a rejected update keeps the live set
	default:
		k := c.rng.IntN(len(c.live))
		op.kind, op.id = 2, c.live[k]
		if _, err := c.a.Remove(op.id); err != nil {
			return op, err
		}
		c.live = append(c.live[:k], c.live[k+1:]...)
	}
	return op, nil
}

// edgeChurn records a fixed-seed lightChurn stream: thirty
// admissions, then ops requests. A dry run through an Admission with
// opts fixes each request's outcome, so replaying the stream on a
// fresh Admission repeats the same work.
func edgeChurn(t testing.TB, opts Options, seed uint64, ops int) []edgeOp {
	c := &lightChurn{rng: stats.NewRNG(seed), a: NewAdmission(opts)}
	stream := make([]edgeOp, 0, 30+ops)
	for n := 0; n < 30+ops; n++ {
		op, err := c.step(n < 30)
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, op)
	}
	return stream
}

// replayEdgeChurn replays a recorded stream on a fresh Admission.
func replayEdgeChurn(opts Options, stream []edgeOp) *Admission {
	a := NewAdmission(opts)
	// The recording run fixed every outcome, so errors need no check.
	for _, op := range stream {
		switch op.kind {
		case 0:
			_ = a.Add(op.task)
		case 1:
			_ = a.Update(op.task)
		default:
			_, _ = a.Remove(op.id)
		}
	}
	return a
}

// TestAdmissionExactAllocsBounded is the deterministic regression gate
// on the online exact upgrade: replaying a fixed-seed churn stream of
// about thirty light near-edge tasks on the core solver with the
// exact upgrade must stay within its allocation budget. The replay
// needs 4,194 allocations with every Theorem-3 weight an int64
// fraction summed in one reused accumulator per re-decision, every
// QPA rejection reported in the Analyzer's own Violation, and Update
// and Remove copying the task slice instead of every task (Go 1.24;
// math/big's internals set the exact figure; re-summing normalising
// big.Rat weights needed 60,519, a Violation allocated per rejected
// probe 6,725, and deep-copying the set on each write 6,704). Each
// bound is its count plus 5%. A fresh accumulator per re-decision
// costs 5,190, which the bound catches. Rebuilding the scan's
// candidate buffer on every re-decision costs about 85 more, which no
// count bound with headroom tells apart, so the gate checks directly
// that the Admission keeps the buffer. The second input replays the
// same kind of stream against churnFleet, as admitd -fleet does: every
// re-decision there also builds a pool ledger and repairs the
// capacity pools, and needs 13,192 allocations with the pools' shares
// summed in dbf.Sums (normalising big.Rat pool accounts needed
// 415,545, and deep copies of the set 18,209); a fresh accumulator
// there costs 14,560. Judging Theorem 3 on a fixed-point interval took
// the counts to 4,125 and 13,037; the bounds stay 5% above the
// earlier counts. The log line reports the exact upgrade's probes per
// pass, how many of them still ran a full QPA after the witness
// screen, and how many of those QPA rejected: the screen can only
// settle a probe a remembered window rejects, and the fleet stream's
// QPA runs all accept.
func TestAdmissionExactAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates; make alloc-gate runs this gate without it")
	}
	for _, tc := range []struct {
		name  string
		opts  Options
		bound int
	}{
		{"single", Options{Solver: SolverCore, ExactUpgrade: true}, 4404},
		{"fleet", Options{Solver: SolverCore, ExactUpgrade: true, Fleet: churnFleet()}, 13852},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stream := edgeChurn(t, tc.opts, stats.DeriveSeed(1, 0x1a46e), 60)
			a := replayEdgeChurn(tc.opts, stream)
			if a.Len() < 20 || a.Decision().OffloadedCount() == 0 {
				t.Fatalf("replay ends with %d tasks, %d offloaded; the gate measures no upgrade work",
					a.Len(), a.Decision().OffloadedCount())
			}
			if cap(a.scratch.upgradeBuf) == 0 {
				t.Fatal("the Admission keeps no upgrade candidate buffer across re-decisions")
			}
			allocs := testing.AllocsPerRun(5, func() { replayEdgeChurn(tc.opts, stream) })
			if allocs > float64(tc.bound) {
				t.Fatalf("exact churn replay allocates %.0f times, bound %d", allocs, tc.bound)
			}
			st := a.scratch.stats
			t.Logf("exact churn replay of %d requests: %.0f allocations (bound %d); per exact upgrade, %.2f probes before the witness screen and %.2f full QPA runs after it (%d of %d probes screened, %d of %d QPA runs rejected)",
				len(stream), allocs, tc.bound, float64(st.probes)/float64(st.passes),
				float64(st.qpa)/float64(st.passes), st.screened, st.probes, st.qpaRejected, st.qpa)
		})
	}
}

// BenchmarkAdmissionEdgeChurn replays one fixed 330-request edgeChurn
// stream, recorded with the exact upgrade on, in admit-large's shape
// on the core solver, with the exact upgrade on and off. The requests
// are the same in both, so the difference is the exact-upgrade layer
// of an admission re-decision.
func BenchmarkAdmissionEdgeChurn(b *testing.B) {
	rec := Options{Solver: SolverCore, ExactUpgrade: true}
	stream := edgeChurn(b, rec, stats.DeriveSeed(1, 0x1a46e), 300)
	for _, exact := range []bool{true, false} {
		name := "noexact"
		if exact {
			name = "exact"
		}
		b.Run(name, func(b *testing.B) {
			opts := Options{Solver: SolverCore, ExactUpgrade: exact}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				replayEdgeChurn(opts, stream)
			}
		})
	}
}

// BenchmarkAdmissionLightChurn measures one steady-state write of
// admit-large's shape on the core solver with the exact upgrade:
// lightChurn's admissions, updates and evictions against one tenant
// primed with thirty light tasks (whole-millisecond periods of
// 20–800 ms, local density 1–5%, one to three levels), so about
// thirty tasks stay live. Each op includes drawing its task. qpa/op
// counts the full QPA runs of the exact upgrade per write.
func BenchmarkAdmissionLightChurn(b *testing.B) {
	c := &lightChurn{
		rng: stats.NewRNG(stats.DeriveSeed(1, 0x1a46e)),
		a:   NewAdmission(Options{Solver: SolverCore, ExactUpgrade: true}),
	}
	for n := 0; n < 30; n++ {
		if _, err := c.step(true); err != nil {
			b.Fatal(err)
		}
	}
	qpa := c.a.scratch.stats.qpa
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.step(false); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(c.a.scratch.stats.qpa-qpa)/float64(b.N), "qpa/op")
}
