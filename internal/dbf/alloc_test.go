package dbf

import (
	"testing"

	"rtoffload/internal/rtime"
	"rtoffload/internal/stats"
)

// TestSwapFeasibleZeroAlloc gates the //rtlint:hotpath contract on
// Analyzer.Swap and Analyzer.Feasible: a warm trial swap plus the
// incremental QPA re-test must not allocate, whether the test accepts
// or rejects. The alternates are pre-boxed Demand values so the
// measured loop pays only the analyzer's own work.
func TestSwapFeasibleZeroAlloc(t *testing.T) {
	t.Run("three-sporadic", func(t *testing.T) {
		ds := []Demand{
			Sporadic{C: 1000, D: 8000, T: 10000},
			Sporadic{C: 2000, D: 16000, T: 20000},
			Sporadic{C: 1500, D: 30000, T: 40000},
		}
		assertSwapFeasibleZeroAlloc(t, ds, 0, [2]Demand{
			Sporadic{C: 1200, D: 8000, T: 10000},
			Sporadic{C: 1000, D: 8000, T: 10000},
		}, 0)
	})
	t.Run("rejecting", func(t *testing.T) {
		// Slot 0 alternates between a light demand and one whose first
		// job, with slot 1's, overloads the 9 ms window: 7+2.5 ms of
		// demand at a long-run rate of 0.86, so Feasible reports a
		// Violation rather than ErrOverloaded.
		ds := []Demand{
			Sporadic{C: 1000, D: 8000, T: 10000},
			Sporadic{C: 2500, D: 9000, T: 20000},
			Sporadic{C: 1500, D: 30000, T: 40000},
		}
		assertSwapFeasibleZeroAlloc(t, ds, 0, [2]Demand{
			Sporadic{C: 7000, D: 8000, T: 10000},
			Sporadic{C: 1000, D: 8000, T: 10000},
		}, 1)
	})
	t.Run("admit-large-shaped", func(t *testing.T) {
		if raceEnabled {
			// Multi-word big.Int division takes its temporaries from a
			// sync.Pool, which the race detector empties at random.
			t.Skip("the race detector's sync.Pool drops allocate; make alloc-gate runs this case without it")
		}
		// About 30 light mixed demands with whole-millisecond periods in
		// [20, 800] ms, the admission service's shape: their lcm spans
		// several words. Slot 0 alternates between a local and an
		// offloaded choice of two periods already in the set, so both
		// the same-period swap and the multiplier update are gated.
		rng := stats.NewRNG(11)
		var ds []Demand
		var periods []rtime.Duration
		for len(ds) < 30 {
			p := ms(rng.UniformInt(20, 800))
			if d := lightDemand(rng, p, len(ds)%2 == 0); d != nil {
				ds = append(ds, d)
				periods = append(periods, p)
			}
		}
		alt := [2]Demand{
			lightDemand(rng, periods[1], true),
			lightDemand(rng, periods[2], false),
		}
		if alt[0] == nil || alt[1] == nil {
			t.Fatal("alternate demand rejected")
		}
		assertSwapFeasibleZeroAlloc(t, ds, 0, alt, 0)
	})
}

// lightDemand draws a demand of period p using about 2% of it: a
// sporadic task, or an offloaded one when offload is set. It returns
// nil when the constructor rejects the draw.
func lightDemand(rng *stats.RNG, p rtime.Duration, offload bool) Demand {
	c := p/100 + rtime.Duration(rng.Int64N(int64(p/100)))
	if !offload {
		s, err := NewSporadic(c, p-rtime.Duration(rng.Int64N(int64(p/4))), p)
		if err != nil {
			return nil
		}
		return s
	}
	o, err := NewOffloaded(c/4+1, c, p, p, p/4)
	if err != nil {
		return nil
	}
	return o
}

// assertSwapFeasibleZeroAlloc warms an Analyzer over ds with both
// alternates in slot i, checking each verdict against the reference
// QPA, then requires the two Swap+Feasible trials to allocate nothing
// and to repeat the warm verdicts. Exactly rejects of the verdicts
// must be Violations, and none may be ErrOverloaded or another error.
func assertSwapFeasibleZeroAlloc(t *testing.T, ds []Demand, i int, alt [2]Demand, rejects int) {
	t.Helper()
	a, err := NewAnalyzer(ds)
	if err != nil {
		t.Fatal(err)
	}
	var want [2]Violation
	got := 0
	for k, d := range alt {
		if err := a.Swap(i, d); err != nil {
			t.Fatal(err)
		}
		err := a.Feasible()
		if ref := refQPA(append([]Demand(nil), a.ds...)); !sameVerdict(err, ref) {
			t.Fatalf("alternate %d: Feasible %v, reference %v", k, err, ref)
		}
		if err != nil {
			v, ok := err.(*Violation)
			if !ok {
				t.Fatalf("alternate %d: Feasible %v, want nil or a Violation", k, err)
			}
			want[k] = *v
			got++
		}
	}
	if got != rejects {
		t.Fatalf("%d alternates rejected, want %d: %+v", got, rejects, want)
	}
	// Each run swaps in both alternates: AllocsPerRun truncates the
	// mean, so an allocation on every other run would read as 0.
	allocs := testing.AllocsPerRun(100, func() {
		for k, d := range alt {
			if err := a.Swap(i, d); err != nil {
				t.Error(err)
			}
			var got Violation
			if v, ok := a.Feasible().(*Violation); ok {
				got = *v
			}
			if got != want[k] {
				t.Errorf("alternate %d: violation %+v, want %+v", k, got, want[k])
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Swap+Feasible pair allocates %.1f times per run; the hotpath contract is 0", allocs)
	}
}
