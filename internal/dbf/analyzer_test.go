package dbf

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"rtoffload/internal/rtime"
	"rtoffload/internal/stats"
)

// randomSwapDemand draws one replacement demand. A small fraction use
// periods near 2^42 µs, so the common denominator and its multipliers
// span several words and Append/Swap often have to recompute it.
func randomSwapDemand(rng *stats.RNG) Demand {
	if rng.Bool(0.08) {
		// Huge periods with D = T: the lcm with the millisecond periods
		// below passes int64 at once.
		period := rtime.Duration(rng.Int64N(1e12)) + 4e12
		c := period/3 + rtime.Duration(rng.Int64N(int64(period/3)))
		s, err := NewSporadic(c, period, period)
		if err == nil {
			return s
		}
	}
	period := ms(rng.UniformInt(50, 500))
	c := rtime.Duration(rng.Int64N(int64(period/2))) + 1
	if rng.Bool(0.5) {
		d := c + rtime.Duration(rng.Int64N(int64(period-c)+1))
		s, err := NewSporadic(c, d, period)
		if err != nil {
			return nil
		}
		return s
	}
	c1 := c/4 + 1
	r := rtime.Duration(rng.Int64N(int64(period / 2)))
	o, err := NewOffloaded(c1, c, period, period, r)
	if err != nil {
		return nil
	}
	return o
}

// sameVerdict reports whether two feasibility verdicts are identical:
// both nil, both ErrOverloaded, or Violations with equal windows.
func sameVerdict(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if errors.Is(a, ErrOverloaded) || errors.Is(b, ErrOverloaded) {
		return errors.Is(a, ErrOverloaded) && errors.Is(b, ErrOverloaded)
	}
	var va, vb *Violation
	if !errors.As(a, &va) || !errors.As(b, &vb) {
		// Horizon overflow errors and the like: compare text.
		return a.Error() == b.Error()
	}
	return va.T == vb.T && va.Demand == vb.Demand
}

// checkAnalyzerAgainstFresh asserts the Analyzer's cached-aggregate
// verdicts are identical to the big.Rat reference analysis of its
// current demands: same Horizon as the reference and a fresh Analyzer,
// same QPA verdict including the exact Violation window (from the
// Analyzer and from a fresh QPA), and PDC feasibility agreement. The
// Horizon read is the first, so it settles whatever swaps came before.
func checkAnalyzerAgainstFresh(t *testing.T, az *Analyzer, ctx string) {
	t.Helper()
	ds := append([]Demand(nil), az.ds...)

	hGot, errGot := az.Horizon()
	hWant, errWant := refHorizon(ds)
	if hGot != hWant || !sameVerdict(errGot, errWant) {
		t.Fatalf("%s: Horizon: analyzer (%v, %v) vs reference (%v, %v)",
			ctx, hGot, errGot, hWant, errWant)
	}
	fresh, err := NewAnalyzer(ds)
	if err != nil {
		t.Fatalf("%s: NewAnalyzer: %v", ctx, err)
	}
	if h, err := fresh.Horizon(); h != hGot || !sameVerdict(err, errGot) {
		t.Fatalf("%s: Horizon: analyzer (%v, %v) vs fresh (%v, %v)", ctx, hGot, errGot, h, err)
	}

	got := az.Feasible()
	want := refQPA(ds)
	if !sameVerdict(got, want) {
		t.Fatalf("%s: Feasible: analyzer %v vs reference QPA %v",
			ctx, got, want)
	}
	if fresh := QPA(ds); !sameVerdict(fresh, want) {
		t.Fatalf("%s: QPA %v vs reference QPA %v", ctx, fresh, want)
	}
	// PDC is an equivalent exact test; the feasibility bits must agree
	// (its witness window may legitimately differ from QPA's).
	if errP := pdc(ds); (errP == nil) != (want == nil) {
		t.Fatalf("%s: PDC %v disagrees with QPA %v", ctx, errP, want)
	}
}

// unreadSwaps swaps a few random slots of az without reading a sum in
// between, as a screened probe or an undone batch does: a slot to a
// fresh demand (A→B), away and back to the demand it held (A→B→A) or
// to one of the same rate and period but another burst (A→B→A'), or
// away twice (A→B→C). The sums then hold dirty slots, some at the
// stat they account and some not, for the next operation to settle.
func unreadSwaps(t *testing.T, rng *stats.RNG, az *Analyzer) {
	t.Helper()
	for k := rng.IntN(4); k > 0; k-- {
		i := rng.IntN(az.Len())
		held := az.At(i)
		for hops := rng.IntN(2) + 1; hops > 0; hops-- {
			if d := randomSwapDemand(rng); d != nil {
				if err := az.Swap(i, d); err != nil {
					t.Fatalf("unread Swap(%d): %v", i, err)
				}
			}
		}
		back, ok := held.(Sporadic)
		if ok && back.T <= ms(500) && rng.Bool(0.3) {
			// Back to the held rate and period with another deadline,
			// so only the burst differs from the accounted stat. The
			// huge periods keep D = T: a constrained one would push
			// the horizon, and PDC's step count, past millions.
			back.D = back.C + rtime.Duration(rng.Int64N(int64(back.T-back.C)+1))
			held = back
		}
		if rng.Bool(0.4) {
			if err := az.Swap(i, held); err != nil {
				t.Fatalf("unread Swap(%d) back: %v", i, err)
			}
		}
	}
}

// runAnalyzerDifferential drives one differential scenario: a random
// initial configuration, then a sequence of random operations (Swap,
// With, Append, Remove), each preceded by a few unread swaps, with the
// Analyzer checked against fresh analyses after every step.
// Individual demands use up to half their period, so larger n covers
// overloaded systems as well as feasible ones.
func runAnalyzerDifferential(t *testing.T, seed uint64, n, swaps int) {
	t.Helper()
	rng := stats.NewRNG(seed)
	var ds []Demand
	for i := 0; i < n; i++ {
		if d := randomSwapDemand(rng); d != nil {
			ds = append(ds, d)
		}
	}
	if len(ds) == 0 {
		return
	}
	az, err := NewAnalyzer(ds)
	if err != nil {
		t.Fatalf("seed %d: NewAnalyzer: %v", seed, err)
	}
	checkAnalyzerAgainstFresh(t, az, "initial")
	for s := 0; s < swaps; s++ {
		unreadSwaps(t, rng, az)
		// Churn ops first: grow and shrink the configuration so the
		// append/remove delta paths (and their recomputes) see the same
		// differential scrutiny as swaps.
		if rng.Bool(0.2) {
			if d := randomSwapDemand(rng); d != nil {
				if err := az.Append(d); err != nil {
					t.Fatalf("seed %d swap %d: Append: %v", seed, s, err)
				}
				checkAnalyzerAgainstFresh(t, az, "after Append")
			}
			continue
		}
		if az.Len() > 1 && rng.Bool(0.2) {
			i := rng.IntN(az.Len())
			if err := az.Remove(i); err != nil {
				t.Fatalf("seed %d swap %d: Remove(%d): %v", seed, s, i, err)
			}
			checkAnalyzerAgainstFresh(t, az, "after Remove")
			continue
		}
		i := rng.IntN(az.Len())
		d := randomSwapDemand(rng)
		if d == nil {
			continue
		}
		if rng.Bool(0.3) {
			// Trial through With: the inner verdict must match a fresh
			// analysis of the trial configuration, and the restore must
			// put the aggregates back exactly.
			before := az.Feasible()
			err := az.With(i, d, func(a *Analyzer) error {
				checkAnalyzerAgainstFresh(t, a, "inside With")
				return a.Feasible()
			})
			trial := append([]Demand(nil), append([]Demand(nil), az.ds...)...)
			trial[i] = d
			if !sameVerdict(err, refQPA(trial)) {
				t.Fatalf("seed %d swap %d: With verdict %v vs reference %v", seed, s, err, refQPA(trial))
			}
			if after := az.Feasible(); !sameVerdict(before, after) {
				t.Fatalf("seed %d swap %d: With did not restore: %v vs %v", seed, s, before, after)
			}
			checkAnalyzerAgainstFresh(t, az, "after With restore")
			continue
		}
		if err := az.Swap(i, d); err != nil {
			t.Fatalf("seed %d swap %d: Swap: %v", seed, s, err)
		}
		checkAnalyzerAgainstFresh(t, az, "after Swap")
	}
}

// TestAnalyzerDifferentialProperty is the quick.Check form of the
// differential property, covering light through overloaded systems.
func TestAnalyzerDifferentialProperty(t *testing.T) {
	check := func(seed uint64, nRaw, swapRaw uint8) bool {
		n := int(nRaw%7) + 1
		swaps := int(swapRaw%12) + 1
		runAnalyzerDifferential(t, seed, n, swaps)
		return !t.Failed()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// FuzzAnalyzerDifferential fuzzes the same property; the seeded corpus
// covers small and multi-word common denominators (via huge periods)
// and both feasible and overloaded systems.
func FuzzAnalyzerDifferential(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(6))
	f.Add(uint64(2), uint8(1), uint8(3))
	f.Add(uint64(3), uint8(6), uint8(10)) // larger sets: overload included
	f.Add(uint64(17), uint8(5), uint8(8))
	f.Add(uint64(42), uint8(2), uint8(12))
	f.Add(uint64(4242), uint8(7), uint8(9))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, swapRaw uint8) {
		n := int(nRaw%7) + 1
		swaps := int(swapRaw%12) + 1
		runAnalyzerDifferential(t, seed, n, swaps)
	})
}

func TestAnalyzerArgumentErrors(t *testing.T) {
	if _, err := NewAnalyzer([]Demand{nil}); err == nil {
		t.Error("nil demand accepted")
	}
	s, err := NewSporadic(ms(1), ms(10), ms(10))
	if err != nil {
		t.Fatal(err)
	}
	az, err := NewAnalyzer([]Demand{s})
	if err != nil {
		t.Fatal(err)
	}
	if err := az.Swap(1, s); err == nil {
		t.Error("out-of-range Swap accepted")
	}
	if err := az.Swap(0, nil); err == nil {
		t.Error("nil Swap accepted")
	}
	// Literals outside the constructors' bounds have no exact 128-bit
	// model and are refused.
	if err := az.Swap(0, Sporadic{C: ms(5), D: ms(3), T: ms(10)}); err == nil {
		t.Error("Swap accepted C > D")
	}
	if _, err := NewAnalyzer([]Demand{Offloaded{C1: 1, C2: 1, D: ms(10), T: ms(5), D1: 2}}); err == nil {
		t.Error("NewAnalyzer accepted D > T")
	}
	if err := az.Append(Offloaded{C1: 1, C2: ms(9), D: ms(10), T: ms(10), R: ms(1), D1: 2}); err == nil {
		t.Error("Append accepted C2 > D−D1−R")
	}
	if err := az.With(-1, s, func(*Analyzer) error { return nil }); err == nil {
		t.Error("out-of-range With accepted")
	}
	if err := az.Append(nil); err == nil {
		t.Error("nil Append accepted")
	}
	if err := az.Remove(1); err == nil {
		t.Error("out-of-range Remove accepted")
	}
	if err := az.Remove(-1); err == nil {
		t.Error("negative Remove accepted")
	}
	if az.Len() != 1 {
		t.Errorf("Len = %d", az.Len())
	}
}

// TestAnalyzerAppendRemoveRoundTrip grows an Analyzer one demand at a
// time from empty, checking against a fresh analysis at every size,
// then shrinks it back down removing from varying positions. This
// covers the recomputes from empty and the stale-lcm removals that the
// random churn may not hit.
func TestAnalyzerAppendRemoveRoundTrip(t *testing.T) {
	rng := stats.NewRNG(97)
	az, err := NewAnalyzer(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24; i++ {
		d := randomSwapDemand(rng)
		if d == nil {
			continue
		}
		if err := az.Append(d); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		checkAnalyzerAgainstFresh(t, az, "grow")
	}
	pos := 0
	for az.Len() > 0 {
		i := pos % az.Len()
		pos += 3
		if err := az.Remove(i); err != nil {
			t.Fatalf("Remove(%d) at len %d: %v", i, az.Len(), err)
		}
		checkAnalyzerAgainstFresh(t, az, "shrink")
	}
	if az.Len() != 0 {
		t.Fatalf("Len = %d after draining", az.Len())
	}
	if err := az.Feasible(); err != nil {
		t.Fatalf("empty analyzer infeasible: %v", err)
	}
}

// TestQPARejectsHorizonAtInt64Ceiling pins the verdict on a set whose
// horizon is exactly math.MaxInt64. The backward scan starts below
// h+1, which int64 cannot hold, so every path must reject the set; it
// is in fact infeasible, with demand T1+6 in the window T1.
func TestQPARejectsHorizonAtInt64Ceiling(t *testing.T) {
	const x = 164703072086692426
	s1, err := NewSporadic(x-1, x, x)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSporadic(7, 7, 8*x)
	if err != nil {
		t.Fatal(err)
	}
	light, err := NewSporadic(1, 7, 8*x)
	if err != nil {
		t.Fatal(err)
	}
	ds := []Demand{s1, s2}
	if h, err := refHorizon(ds); err != nil || h != math.MaxInt64 {
		t.Fatalf("reference Horizon = (%v, %v), want MaxInt64", h, err)
	}
	if dem := TotalDBF(ds, x); dem != x+6 {
		t.Fatalf("TotalDBF(T1) = %v, want T1+6", dem)
	}
	if err := QPA(ds); err == nil {
		t.Error("QPA accepts an overloaded window at the int64 horizon")
	}
	if err := refQPA(ds); err == nil {
		t.Error("the reference QPA accepts it")
	}
	az, err := NewAnalyzer(ds)
	if err != nil {
		t.Fatal(err)
	}
	if err := az.Feasible(); err == nil {
		t.Error("NewAnalyzer(...).Feasible accepts it")
	}
	az, err = NewAnalyzer([]Demand{s1, light})
	if err != nil {
		t.Fatal(err)
	}
	if err := az.Feasible(); err != nil {
		t.Fatalf("feasible start rejected: %v", err)
	}
	if err := az.Swap(1, s2); err != nil {
		t.Fatal(err)
	}
	if err := az.Feasible(); err == nil {
		t.Error("Feasible after Swap accepts it")
	}
	az, err = NewAnalyzer([]Demand{s1})
	if err != nil {
		t.Fatal(err)
	}
	if err := az.Append(s2); err != nil {
		t.Fatal(err)
	}
	if err := az.Feasible(); err == nil {
		t.Error("Feasible after Append accepts it")
	}
}

// TestAnalyzerNearInt64Ceiling drives demands with periods near 2^62 µs
// and C ≈ T/2 through every update path. Their burst numerators fill
// the high word of a u128 and their horizons approach int64, so the
// verdicts span feasible, violated, overflowing and overloaded sets.
func TestAnalyzerNearInt64Ceiling(t *testing.T) {
	const p = 1 << 62
	spor := func(c, d, period rtime.Duration) Demand {
		t.Helper()
		s, err := NewSporadic(c, d, period)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	offl := func(c1, c2, d, period, r rtime.Duration) Demand {
		t.Helper()
		o, err := NewOffloaded(c1, c2, d, period, r)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	ds := []Demand{
		spor(p/2, 3*p/4, p),
		offl(p/16, p/8, 3*p/4, p-3, p/8),
	}
	az, err := NewAnalyzer(ds)
	if err != nil {
		t.Fatal(err)
	}
	checkAnalyzerAgainstFresh(t, az, "initial")
	steps := []struct {
		name string
		op   func() error
	}{
		{"Swap sporadic", func() error { return az.Swap(0, spor(p/2-12345, p/2+999, p-7)) }},
		{"Append offloaded", func() error { return az.Append(offl(p/8, p/4, 3*p/4, p, p/8)) }},
		{"Swap to overload", func() error { return az.Swap(0, spor(p/2, p/2, p/2+1)) }},
		{"Swap back", func() error { return az.Swap(0, spor(p/3, 2*p/3, p-1)) }},
		{"Append sporadic", func() error { return az.Append(spor(p/5, p/4, p+p/2)) }},
		{"Remove first", func() error { return az.Remove(0) }},
		{"Remove last", func() error { return az.Remove(az.Len() - 1) }},
	}
	trial := offl(p/4, p/4, p-p/16, p+p/8, p/16)
	for _, st := range steps {
		if err := st.op(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		checkAnalyzerAgainstFresh(t, az, st.name)
		got := az.With(0, trial, func(a *Analyzer) error {
			checkAnalyzerAgainstFresh(t, a, st.name+" inside With")
			return a.Feasible()
		})
		ds := append([]Demand(nil), az.ds...)
		ds[0] = trial
		if want := refQPA(ds); !sameVerdict(got, want) {
			t.Fatalf("%s: With verdict %v vs reference %v", st.name, got, want)
		}
		checkAnalyzerAgainstFresh(t, az, st.name+" after With")
	}
}

// TestDemandAtScreensExactly holds Analyzer.DemandAt to TotalDBF and
// its screening claim to the big.Rat reference QPA: wherever the sum
// is exact and above its window, the configuration is infeasible.
// Random sets supply both verdicts and every rejection's window; a
// padded set puts ΣDBF(w) exactly at w, which must not screen, since
// such sets can be feasible; and near the int64 ceiling a saturated
// sum must report itself inexact.
func TestDemandAtScreensExactly(t *testing.T) {
	rng := stats.NewRNG(4242)
	var feasible, rejected, screened, ties, tiesFeasible int
	check := func(ds []Demand, ref error, w rtime.Duration, ctx string) (rtime.Duration, bool) {
		t.Helper()
		az, err := NewAnalyzer(ds)
		if err != nil {
			t.Fatal(err)
		}
		dem, ok := az.DemandAt(w)
		if want := TotalDBF(ds, w); dem != want || ok != (want < math.MaxInt64) {
			t.Fatalf("%s: DemandAt(%v) = %v, %v; TotalDBF %v", ctx, w, dem, ok, want)
		}
		if ok && dem > w {
			screened++
			if ref == nil {
				t.Fatalf("%s: ΣDBF(%v) = %v screens a set the reference QPA accepts", ctx, w, dem)
			}
		}
		return dem, ok
	}
	for trial := 0; trial < 300; trial++ {
		ds := randomDemands(rng, 4+rng.IntN(12), rng.Uniform(0.6, 1.02))
		if len(ds) == 0 {
			continue
		}
		ref := refQPA(ds)
		ctx := fmt.Sprintf("trial %d", trial)
		if v, isViol := ref.(*Violation); isViol {
			rejected++
			if dem, ok := check(ds, ref, v.T, ctx); !ok || dem <= v.T {
				t.Fatalf("%s: the reference's window %v does not screen: ΣDBF %v, exact %v", ctx, v.T, dem, ok)
			}
		} else if ref == nil {
			feasible++
		}
		// Walk the largest steps below a window beyond every first step,
		// then pad one of them to ΣDBF(w) == w with a sporadic job.
		w := ms(2000)
		for k := 0; k < 8; k++ {
			if w = prevStepAll(ds, w); w == 0 {
				break
			}
			check(ds, ref, w, ctx)
			check(ds, ref, w+rtime.Duration(rng.Int64N(int64(ms(5)))), ctx)
		}
		if w == 0 {
			continue
		}
		dem := TotalDBF(ds, w)
		if dem >= w {
			continue
		}
		pad, err := NewSporadic(w-dem, w, ms(100000))
		if err != nil {
			t.Fatal(err)
		}
		padded := append(append([]Demand(nil), ds...), pad)
		pref := refQPA(padded)
		if got, ok := check(padded, pref, w, ctx+" padded"); !ok || got != w {
			t.Fatalf("%s padded: ΣDBF(%v) = %v, want the window itself", ctx, w, got)
		}
		ties++
		if pref == nil {
			tiesFeasible++
		}
	}
	t.Logf("%d feasible, %d rejected, %d screened windows, %d ties (%d feasible)",
		feasible, rejected, screened, ties, tiesFeasible)
	if feasible == 0 || rejected == 0 || screened == 0 || tiesFeasible == 0 {
		t.Fatal("the sweep missed a verdict, a screen or a feasible tie")
	}

	// Near the ceiling: 2^62 + (2^62 − 2) is exact, one more saturates,
	// and three such jobs overflow.
	const p = 1 << 62
	for _, tc := range []struct {
		cs   []rtime.Duration
		want rtime.Duration
		ok   bool
	}{
		{[]rtime.Duration{p, p - 2}, math.MaxInt64 - 1, true},
		{[]rtime.Duration{p, p - 1}, math.MaxInt64, false},
		{[]rtime.Duration{p, p, p}, math.MaxInt64, false},
	} {
		var ds []Demand
		for _, c := range tc.cs {
			s, err := NewSporadic(c, p, math.MaxInt64)
			if err != nil {
				t.Fatal(err)
			}
			ds = append(ds, s)
		}
		ctx := fmt.Sprintf("ceiling %v", tc.cs)
		dem, ok := check(ds, refQPA(ds), p, ctx)
		if dem != tc.want || ok != tc.ok {
			t.Fatalf("%s: DemandAt = %v, %v; want %v, %v", ctx, dem, ok, tc.want, tc.ok)
		}
	}
}

// TestAnalyzerSettlesOnRead pins the lazy sums on the cases random
// churn reaches only by chance, checking each against a fresh Analyzer
// and the reference QPA: a slot swapped away and back to its accounted
// stat (A→B→A); one swapped back to a demand of the same rate and
// period but another burst (A→B→A'); a swap whose period the common
// denominator does not cover, settled in the middle of the dirty list,
// after which a later dirty slot must still be swappable; and Append
// and Remove over dirty slots.
func TestAnalyzerSettlesOnRead(t *testing.T) {
	spor := func(c, d, p int64) Demand {
		t.Helper()
		s, err := NewSporadic(ms(c), ms(d), ms(p))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	base := []Demand{spor(1, 10, 10), spor(3, 20, 20), spor(5, 40, 40), spor(10, 50, 50)}
	az, err := NewAnalyzer(base)
	if err != nil {
		t.Fatal(err)
	}
	checkAnalyzerAgainstFresh(t, az, "initial")
	swap := func(i int, d Demand) {
		t.Helper()
		if err := az.Swap(i, d); err != nil {
			t.Fatal(err)
		}
	}

	swap(0, spor(4, 10, 10))
	swap(0, base[0])
	checkAnalyzerAgainstFresh(t, az, "A→B→A")

	swap(1, spor(9, 20, 20))
	swap(1, spor(3, 12, 20)) // same rate 3/20, burst 3·8/20 instead of 0
	checkAnalyzerAgainstFresh(t, az, "A→B→A'")

	swap(0, spor(2, 10, 10))
	swap(1, spor(2, 7, 7)) // 7 ms does not divide the common denominator
	swap(2, spor(15, 30, 40))
	checkAnalyzerAgainstFresh(t, az, "den grown mid-list")
	swap(2, spor(1, 40, 40))
	checkAnalyzerAgainstFresh(t, az, "swap after a mid-list recompute")

	swap(3, spor(20, 45, 50))
	swap(1, spor(1, 20, 20))
	if err := az.Append(spor(2, 25, 25)); err != nil {
		t.Fatal(err)
	}
	checkAnalyzerAgainstFresh(t, az, "Append over dirty slots")
	swap(4, spor(6, 30, 33)) // the appended slot, to an uncovered period
	swap(0, spor(3, 9, 10))
	if err := az.Remove(2); err != nil {
		t.Fatal(err)
	}
	checkAnalyzerAgainstFresh(t, az, "Remove over dirty slots")
	swap(0, spor(1, 10, 10))
	if err := az.Remove(0); err != nil {
		t.Fatal(err)
	}
	checkAnalyzerAgainstFresh(t, az, "Remove of a dirty slot")
}
