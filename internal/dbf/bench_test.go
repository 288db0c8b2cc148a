package dbf

import (
	"testing"

	"rtoffload/internal/rtime"
	"rtoffload/internal/stats"
)

// BenchmarkAnalyzerSwapProbe measures the exact upgrade's use of one
// Analyzer in admit-large's shape: thirty light mixed demands with
// whole-millisecond periods in [20, 800] ms (lightDemand). Each probe
// swaps k = 4 slots to their alternates (the other kind of demand over
// the same period), screens the configuration with DemandAt at a fixed
// window, and swaps them back, as a screened batch is undone; every
// fourth probe also runs Feasible on the swapped-in configuration.
func BenchmarkAnalyzerSwapProbe(b *testing.B) {
	const n, k, feasibleEvery = 30, 4, 4
	rng := stats.NewRNG(11)
	var ds, alt []Demand
	for len(ds) < n {
		p := ms(rng.UniformInt(20, 800))
		d, a := lightDemand(rng, p, len(ds)%2 == 0), lightDemand(rng, p, len(ds)%2 != 0)
		if d != nil && a != nil {
			ds, alt = append(ds, d), append(alt, a)
		}
	}
	az, err := NewAnalyzer(ds)
	if err != nil {
		b.Fatal(err)
	}
	w := rtime.FromMillis(400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		first := i * k % n
		for j := 0; j < k; j++ {
			_ = az.Swap((first+j)%n, alt[(first+j)%n])
		}
		az.DemandAt(w)
		if i%feasibleEvery == 0 {
			_ = az.Feasible()
		}
		for j := 0; j < k; j++ {
			_ = az.Swap((first+j)%n, ds[(first+j)%n])
		}
	}
}
