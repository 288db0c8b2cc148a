package invariant_test

import (
	"reflect"
	"runtime"
	"testing"

	"rtoffload/internal/chaos"
	"rtoffload/internal/chaos/invariant"
	"rtoffload/internal/parallel"
	"rtoffload/internal/rtime"
	"rtoffload/internal/sched"
	"rtoffload/internal/stats"
	"rtoffload/internal/trace"
)

// baseSeed keeps the CI trial population stable across runs; change it
// only deliberately (it re-rolls every randomized system).
const baseSeed uint64 = 0x5eed_c4a0_5001

// TestHardGuaranteeUnderChaos is the headline property: ≥10k randomized
// (task set × fault schedule) trials through admission, chaos injection
// and the split-EDF engine, each checked against invariants I1–I5.
// It runs in full even under -short — this is the CI guarantee.
func TestHardGuaranteeUnderChaos(t *testing.T) {
	const trials = 10_000
	_, err := parallel.Map(runtime.GOMAXPROCS(0), trials, func(i int) (struct{}, error) {
		seed := stats.DeriveSeed(baseSeed, 1, uint64(i))
		return struct{}{}, invariant.Check(seed)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTrialsExerciseFaults guards the harness against vacuity: across a
// sample of trials, faults of every class must actually fire, and a
// non-trivial share of responses must be lost or delayed. A harness
// whose chaos layer silently stopped injecting would pass the hard
// guarantee trivially; this test would catch it.
func TestTrialsExerciseFaults(t *testing.T) {
	counts := map[chaos.Kind]int{}
	dropped, requests, ran := 0, 0, 0
	for i := 0; i < 400; i++ {
		seed := stats.DeriveSeed(baseSeed, 2, uint64(i))
		tr, ok, err := invariant.NewTrial(seed)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue
		}
		rec, err := tr.Run()
		if err != nil {
			t.Fatal(err)
		}
		ran++
		requests += len(rec.Requests)
		dropped += rec.Dropped()
		for _, e := range rec.Events {
			counts[e.Kind]++
		}
	}
	if ran < 300 {
		t.Fatalf("only %d/400 trials ran; generator is rejecting too much", ran)
	}
	if requests == 0 {
		t.Fatal("no offload requests issued across all trials")
	}
	for _, k := range []chaos.Kind{
		chaos.KindDrop, chaos.KindDuplicate, chaos.KindReorder,
		chaos.KindSpike, chaos.KindHang, chaos.KindBadChannel, chaos.KindSkew,
	} {
		if counts[k] == 0 {
			t.Errorf("fault class %v never fired across %d trials (%d requests)", k, ran, requests)
		}
	}
	if dropped == 0 {
		t.Errorf("no responses dropped across %d requests", requests)
	}
}

// TestAllPassBitIdentity asserts the transparency guarantee on full
// simulations: with the zero (all-pass) chaos config, the complete
// sched.Result — jobs, per-task statistics, benefit totals — and the
// recorded execution trace are deep-equal to running the identical
// workload against the unwrapped server.
func TestAllPassBitIdentity(t *testing.T) {
	checked := 0
	for i := 0; checked < 50 && i < 200; i++ {
		seed := stats.DeriveSeed(baseSeed, 3, uint64(i))
		tr, ok, err := invariant.NewTrial(seed)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue
		}
		var wrappedTr, bareTr trace.Trace
		wrapped, bare, err := tr.AllPassPair(&wrappedTr, &bareTr)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wrapped, bare) {
			t.Fatalf("seed %d: all-pass chaos result differs from unwrapped server", seed)
		}
		if len(bareTr.Segments) == 0 || !reflect.DeepEqual(wrappedTr, bareTr) {
			t.Fatalf("seed %d: all-pass chaos trace differs from unwrapped server", seed)
		}
		checked++
	}
	if checked < 50 {
		t.Fatalf("only %d identity pairs checked", checked)
	}
}

// TestScheduleReplayMatchesRun closes the replay loop at the system
// level: re-running a trial's workload against a Player loaded with its
// recorded fault schedule reproduces the original simulation exactly.
func TestScheduleReplayMatchesRun(t *testing.T) {
	replayed := 0
	for i := 0; replayed < 25 && i < 200; i++ {
		seed := stats.DeriveSeed(baseSeed, 4, uint64(i))
		tr, ok, err := invariant.NewTrial(seed)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue
		}
		rec, err := tr.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Requests) == 0 {
			continue
		}
		player, err := chaos.NewPlayer(rec)
		if err != nil {
			t.Fatal(err)
		}
		var recorded trace.Trace
		cfg := tr.SimConfig(player)
		cfg.TraceSink = &recorded
		res, err := sched.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := player.Err(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := tr.CheckResult(res, &recorded); err != nil {
			t.Fatalf("seed %d: replayed schedule violates invariants: %v", seed, err)
		}
		replayed++
	}
	if replayed < 25 {
		t.Fatalf("only %d replays checked", replayed)
	}
}

// TestCheckRejectsCorruptedResult makes sure the invariant predicates
// have teeth: tampering with a passing result must trip a violation.
func TestCheckRejectsCorruptedResult(t *testing.T) {
	var tr *invariant.Trial
	for i := 0; ; i++ {
		seed := stats.DeriveSeed(baseSeed, 5, uint64(i))
		cand, ok, err := invariant.NewTrial(seed)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			tr = cand
			break
		}
	}
	var bareTr trace.Trace
	_, bare, err := tr.AllPassPair(nil, &bareTr)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckResult(bare, &bareTr); err != nil {
		t.Fatalf("pristine result should pass: %v", err)
	}
	if len(bare.Jobs) == 0 {
		t.Fatal("trial produced no jobs")
	}

	corrupt := func(mutate func(r *sched.Result)) error {
		var recorded trace.Trace
		_, res, err := tr.AllPassPair(nil, &recorded)
		if err != nil {
			t.Fatal(err)
		}
		mutate(res)
		return tr.CheckResult(res, &recorded)
	}

	if err := corrupt(func(r *sched.Result) { r.Misses = 1 }); err == nil {
		t.Error("I1 did not catch a forged miss count")
	}
	if err := corrupt(func(r *sched.Result) { r.Jobs[0].Finish = r.Jobs[0].Deadline + 1 }); err == nil {
		t.Error("I1 did not catch a post-deadline finish")
	}
	if err := corrupt(func(r *sched.Result) { r.Jobs[0].Benefit = -1 }); err == nil {
		t.Error("I3 did not catch a below-baseline benefit")
	}
	if err := tr.CheckResult(bare, nil); err == nil {
		t.Error("I4 did not catch a missing trace")
	}
	if err := corrupt(func(r *sched.Result) {
		for _, st := range r.PerTask {
			st.Finished++
			break
		}
	}); err == nil {
		t.Error("I5 did not catch incoherent accounting")
	}
	if err := corrupt(func(r *sched.Result) { r.Jobs[0].Missed = true }); err == nil {
		t.Error("I1 did not catch a flagged miss")
	}
	if err := corrupt(func(r *sched.Result) { r.TotalBenefit = 0; r.TotalBaseline = 1 }); err == nil {
		t.Error("I3 did not catch a below-baseline total")
	}
	if err := corrupt(func(r *sched.Result) {
		for _, st := range r.PerTask {
			st.Misses = 1
			st.Finished++ // keep I5's partition check from firing first
			st.LocalRuns++
			break
		}
	}); err == nil {
		t.Error("I5 did not catch a nonzero per-task miss count")
	}
}

// TestCheckRejectsCorruptedTrace tampers with the timing records
// themselves: a compensation shifted off the Ri timer or a
// post-processing release outside [setup-done, setup-done+Ri] must
// trip a violation in both CheckResult and the materialized reference
// (RefCheckResult). Trials are searched until both record kinds
// appear.
func TestCheckRejectsCorruptedTrace(t *testing.T) {
	type mutation struct {
		name string
		kind trace.Kind
		run  func(rec *trace.SubRecord)
	}
	muts := []mutation{
		{"comp-early", trace.Comp, func(rec *trace.SubRecord) { rec.Release-- }},
		{"comp-late", trace.Comp, func(rec *trace.SubRecord) { rec.Release++ }},
		{"post-late", trace.Post, func(rec *trace.SubRecord) { rec.Release = rec.Release.Add(rtime.FromSeconds(3600)) }},
	}
	for _, m := range muts {
		found := false
		for i := 0; i < 400 && !found; i++ {
			seed := stats.DeriveSeed(baseSeed, 6, uint64(i))
			tr, ok, err := invariant.NewTrial(seed)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				continue
			}
			var recorded trace.Trace
			_, res, err := tr.AllPassPair(nil, &recorded)
			if err != nil {
				t.Fatal(err)
			}
			for j := range recorded.Subs {
				rec := &recorded.Subs[j]
				if rec.Sub.Kind == m.kind {
					m.run(rec)
					found = true
					break
				}
			}
			if !found {
				continue
			}
			if err := tr.CheckResult(res, &recorded); err == nil {
				t.Errorf("%s: corrupted trace passed the invariant check", m.name)
			}
			if err := tr.RefCheckResult(res, &recorded); err == nil {
				t.Errorf("%s: corrupted trace passed the reference check", m.name)
			}
		}
		if !found {
			t.Fatalf("%s: no trial with a %v record in 400 seeds", m.name, m.kind)
		}
	}
}
