package invariant

import (
	"strings"
	"testing"

	"rtoffload/internal/rtime"
	"rtoffload/internal/sched"
	"rtoffload/internal/stats"
	"rtoffload/internal/trace"
)

// RefCheckResult is the test-only reference for the I2/I4 half of
// CheckResult: the original materialized check, which validates the
// whole recorded trace and then runs the I2 timer law as two passes
// over its records — index every completed setup, then check each
// second phase — instead of StreamChecker's one forward pass that
// forgets a setup once its second phase closes. Exported for the
// external corrupted-trace tests.
func (tr *Trial) RefCheckResult(res *sched.Result, recorded *trace.Trace) error {
	if err := tr.CheckAggregates(res); err != nil {
		return err
	}

	// I4 — independent EDF trace checkers.
	if recorded == nil {
		return tr.fail("I4: trial ran without a trace")
	}
	if err := recorded.Validate(); err != nil {
		return tr.fail("I4: trace invalid: %v", err)
	}

	// I2 — compensation fires exactly at the Ri timer. Index each
	// offloaded job's setup completion, then check the second phase.
	budgets := tr.offloadBudgets()
	setupDone := make(map[jobKey]rtime.Instant)
	for i := range recorded.Subs {
		rec := &recorded.Subs[i]
		if rec.Sub.Kind == trace.Setup && rec.Completed {
			setupDone[jobKey{rec.Sub.TaskID, rec.Sub.Seq}] = rec.Completion
		}
	}
	for i := range recorded.Subs {
		rec := &recorded.Subs[i]
		done, ok := setupDone[jobKey{rec.Sub.TaskID, rec.Sub.Seq}]
		if err := tr.checkSecondPhase(rec, done, ok, budgets); err != nil {
			return err
		}
	}
	return nil
}

// TestStreamingMatchesMaterialized is the invariant-level differential:
// Run, which streams the trace through StreamChecker, must accept
// exactly the trials the materialized reference accepts on the same
// fault schedules (both simulations derive identical RNG streams from
// the seed), and CheckResult's replay of a recorded trace must agree
// with both. The fixed first seed's trace holds a zero-cost post
// released and completed at the end of its setup segment, a sub-job
// Trace.Replay must open before it closes it.
func TestStreamingMatchesMaterialized(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 15
	}
	seeds := []uint64{16308140465511765594}
	for i := 0; i < trials; i++ {
		seeds = append(seeds, stats.DeriveSeed(0xbeefcafe, 11, uint64(i)))
	}
	checked := 0
	for _, seed := range seeds {
		tr, ok, err := NewTrial(seed)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue
		}
		_, errStr := tr.Run()
		tr2, _, err := NewTrial(seed) // fresh trial: servers carry state
		if err != nil {
			t.Fatal(err)
		}
		var recorded trace.Trace
		res, _, err := tr2.Simulate(&recorded)
		if err != nil {
			t.Fatal(err)
		}
		errRef := tr2.RefCheckResult(res, &recorded)
		if (errRef == nil) != (errStr == nil) {
			t.Fatalf("seed %d: materialized reference says %v, streaming says %v", seed, errRef, errStr)
		}
		if errRep := tr2.CheckResult(res, &recorded); (errRep == nil) != (errRef == nil) {
			t.Fatalf("seed %d: materialized reference says %v, CheckResult replay says %v", seed, errRef, errRep)
		}
		checked++
	}
	if checked < trials/2 {
		t.Fatalf("only %d of %d trials were feasible", checked, trials)
	}
}

// TestStreamCheckerRejectsBadStreams feeds the streaming verifier
// hand-built violating streams: an EDF inversion (I4) and a
// compensation released off the Ri timer (I2).
func TestStreamCheckerRejectsBadStreams(t *testing.T) {
	tr := feasibleTrial(t)

	t.Run("I4-edf-inversion", func(t *testing.T) {
		c := NewStreamChecker(tr)
		early := trace.SubID{TaskID: 1, Kind: trace.Local}
		late := trace.SubID{TaskID: 2, Kind: trace.Local}
		c.OpenSub(early, 0, 10_000, 4000)
		c.OpenSub(late, 0, 99_000, 3000)
		c.AppendSegment(trace.Segment{Start: 0, End: 3000, Sub: late})
		err := c.Finish()
		if err == nil || !strings.Contains(err.Error(), "I4") {
			t.Fatalf("EDF inversion not reported as I4: %v", err)
		}
	})

	t.Run("I2-comp-off-timer", func(t *testing.T) {
		c := NewStreamChecker(tr)
		// A compensation record whose setup never completed.
		comp := trace.SubID{TaskID: 1, Seq: 0, Kind: trace.Comp}
		c.OpenSub(comp, 5000, 20_000, 0)
		c.CloseSub(trace.SubRecord{
			Sub: comp, Release: 5000, Deadline: 20_000, WCET: 0,
			Completed: true, Completion: 5000,
		})
		err := c.Finish()
		if err == nil || !strings.Contains(err.Error(), "I2") {
			t.Fatalf("orphan compensation not reported as I2: %v", err)
		}
	})
}

// TestStreamingBoundedTrialPasses smoke-checks Check over a seed range
// (the admitted sets must hold I1–I5 with the trace checked one-pass).
func TestStreamingBoundedTrialPasses(t *testing.T) {
	for i := 0; i < 25; i++ {
		seed := stats.DeriveSeed(0xfeed, 12, uint64(i))
		if err := Check(seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// feasibleTrial searches the seed space for an admitted trial.
func feasibleTrial(t *testing.T) *Trial {
	t.Helper()
	for i := 0; ; i++ {
		seed := stats.DeriveSeed(0xabad1dea, 13, uint64(i))
		tr, ok, err := NewTrial(seed)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			return tr
		}
		if i > 400 {
			t.Fatal("no feasible trial in 400 seeds")
		}
	}
}
