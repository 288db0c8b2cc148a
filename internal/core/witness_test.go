package core

import (
	"fmt"
	"testing"

	"rtoffload/internal/dbf"
	"rtoffload/internal/rtime"
	"rtoffload/internal/stats"
)

// TestWitnessSwapScreenMatchesWith holds round's screen — the
// committed ΣDBF(w) minus the current demand plus the candidate's,
// taken as the candidate's DBF difference against w's rest — to the
// swapped configuration itself. On light near-edge sets after the
// exact upgrade, crowded so that most upgrades fail, the windows are drawn from
// the candidates' own QPA rejections; for every candidate level,
// rejectsSwap must agree with ΣDBF(w) > w after a real
// Analyzer.With, and a screened candidate must fail With + Feasible.
// A rejection at a window not held is recorded mid-sweep and its rest
// refreshed, as round does.
func TestWitnessSwapScreenMatchesWith(t *testing.T) {
	rng := stats.NewRNG(777)
	screened, passed := 0, 0
	for trial := 0; trial < 30; trial++ {
		set := tiedEdgeSet(rng, 33+rng.IntN(6))
		d, err := Decide(set, Options{Solver: SolverCore, ExactUpgrade: true})
		if err != nil {
			continue
		}
		caches := choiceCaches(d.Choices)
		az := freshAnalyzer(choiceDemands(caches, d.Choices))
		if az == nil {
			t.Fatalf("trial %d: no analyzer over a certified decision", trial)
		}
		feasible := (*dbf.Analyzer).Feasible
		var seen []rtime.Duration
		for i := range caches {
			for _, cand := range caches[i].levels {
				if cand == nil {
					continue
				}
				if v, ok := az.With(i, cand, feasible).(*dbf.Violation); ok {
					seen = append(seen, v.T)
				}
			}
		}
		if len(seen) == 0 {
			continue
		}
		for draw := 0; draw < 4; draw++ {
			var ws witnesses
			for k := 0; k < nWitness; k++ {
				ws.record(seen[rng.IntN(len(seen))])
			}
			var r rest
			for k := range r {
				r.fill(k, &ws, az)
			}
			for i := range caches {
				for lv, cand := range caches[i].levels {
					if cand == nil {
						continue
					}
					ctx := fmt.Sprintf("trial %d draw %d task %d level %d", trial, draw, i, lv)
					got := r.rejectsSwap(&ws, az.At(i), cand)
					want := false
					verdict := az.With(i, cand, func(a *dbf.Analyzer) error {
						for _, w := range ws.w {
							if dem, ok := a.DemandAt(w); w > 0 && ok && dem > w {
								want = true
							}
						}
						return a.Feasible()
					})
					if got != want {
						t.Fatalf("%s: rejectsSwap %v, ΣDBF after the swap says %v (windows %v)", ctx, got, want, ws.w)
					}
					if got {
						screened++
						if verdict == nil {
							t.Fatalf("%s: screened a candidate QPA accepts", ctx)
						}
						continue
					}
					passed++
					if v, ok := verdict.(*dbf.Violation); ok {
						if k := ws.record(v.T); k >= 0 {
							r.fill(k, &ws, az)
						}
					}
				}
			}
		}
	}
	t.Logf("%d candidates screened, %d passed to QPA", screened, passed)
	if screened == 0 || passed == 0 {
		t.Fatal("the sweep missed a screened or an unscreened candidate")
	}
}

// TestWitnessScreenTies pins the strict comparison of both screens:
// a window whose demand reaches it exactly is met, not violated, so
// neither the probe's screen nor round's may reject that
// configuration, while one microsecond more must be rejected by both.
func TestWitnessScreenTies(t *testing.T) {
	ms := rtime.FromMillis
	spor := func(c rtime.Duration) dbf.Demand {
		s, err := dbf.NewSporadic(c, ms(10), ms(20))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	az, err := dbf.NewAnalyzer([]dbf.Demand{spor(ms(5)), spor(ms(4))})
	if err != nil {
		t.Fatal(err)
	}
	var ws witnesses
	ws.record(ms(10))
	var r rest
	for k := range r {
		r.fill(k, &ws, az)
	}
	for _, tc := range []struct {
		c      rtime.Duration
		reject bool
	}{{ms(5), false}, {ms(5) + 1, true}} {
		cand := spor(tc.c)
		if got := r.rejectsSwap(&ws, az.At(1), cand); got != tc.reject {
			t.Errorf("C=%v: rejectsSwap %v, want %v", tc.c, got, tc.reject)
		}
		var probe bool
		verdict := az.With(1, cand, func(a *dbf.Analyzer) error {
			probe = ws.rejects(a)
			return a.Feasible()
		})
		if probe != tc.reject || (verdict != nil) != tc.reject {
			t.Errorf("C=%v: probe screen %v, QPA %v; want rejection %v", tc.c, probe, verdict, tc.reject)
		}
	}
}

// TestWitnessRecord checks the window set: a held window is not
// recorded twice, and a fifth window replaces the oldest.
func TestWitnessRecord(t *testing.T) {
	var ws witnesses
	for i, w := range []rtime.Duration{10, 20, 10, 30, 40, 50} {
		k := ws.record(w)
		if want := map[int]int{0: 0, 1: 1, 2: -1, 3: 2, 4: 3, 5: 0}[i]; k != want {
			t.Fatalf("record #%d (%v): slot %d, want %d", i, w, k, want)
		}
	}
	if want := [nWitness]rtime.Duration{50, 20, 30, 40}; ws.w != want {
		t.Fatalf("windows %v, want %v", ws.w, want)
	}
}
