package core

import (
	"fmt"
	"testing"

	"rtoffload/internal/fleet"
	"rtoffload/internal/rtime"
	"rtoffload/internal/stats"
	"rtoffload/internal/task"
)

// campaignFleetShape rebuilds the fleet campaign's scenario shapes
// (internal/exp fleetFor; exp imports core, so the shapes are restated
// here). degrade and failover share the uniform admission-side shape.
func campaignFleetShape(name string) fleet.Fleet {
	edge := fleet.Server{ID: "edge"}
	mid := fleet.Server{ID: "mid", Extra: rtime.FromMillis(1)}
	cloud := fleet.Server{ID: "cloud", ScaleNum: 3, ScaleDen: 2,
		Extra: rtime.FromMillis(2), Reliability: 0.9, WeightNum: 1, WeightDen: 2}
	f := fleet.Fleet{}
	switch name {
	case "uniform", "degrade", "failover":
	case "hot":
		edge.CapNum, edge.CapDen = 1, 4
		edge.Group, mid.Group = "radio", "radio"
		f.Groups = []fleet.Group{{ID: "radio", CapNum: 1, CapDen: 2}}
	case "skew":
		edge.ScaleNum, edge.ScaleDen = 1, 2
		cloud.ScaleNum, cloud.ScaleDen = 2, 1
	default:
		panic(fmt.Sprintf("unknown fleet shape %q", name))
	}
	f.Servers = []fleet.Server{edge, mid, cloud}
	return f
}

// campaignFleetShapes lists the shapes in campaign table order.
var campaignFleetShapes = []string{"uniform", "hot", "skew", "degrade", "failover"}

// campaignShapeSet rebuilds the fleet campaign's task draw
// (internal/exp campaignSet on the two-level ladder): light per-task
// load, every third task offloadable with two service levels.
func campaignShapeSet(rng *stats.RNG, n int) task.Set {
	shares := rng.UUniFast(n, 0.6)
	set := make(task.Set, 0, n)
	for i := 0; i < n; i++ {
		period := rtime.FromMillis(rng.UniformInt(20, 400))
		cwc := rtime.Duration(shares[i] * float64(period))
		if cwc < 2 {
			cwc = 2
		}
		tk := &task.Task{ID: i, Period: period, Deadline: period, LocalWCET: cwc, LocalBenefit: 1}
		if i%3 == 0 {
			tk.Setup = cwc/4 + 1
			tk.Compensation = cwc
			tk.PostProcess = cwc / 6
			tk.Levels = []task.Level{
				{Response: rtime.Duration(float64(period) * 0.35), Benefit: 2},
				{Response: rtime.Duration(float64(period) * 0.6), Benefit: 2.5},
			}
		}
		set = append(set, tk)
	}
	return set
}

// BenchmarkFleetDecide times one fleet campaign cell's decision: the
// DP solve plus the capacity repair, no exact upgrade — the
// configuration internal/exp's fleet cells run. hot is the shape whose
// tight edge and radio pools make the repair do real work.
func BenchmarkFleetDecide(b *testing.B) {
	for _, shape := range []string{"uniform", "hot"} {
		for _, n := range []int{24, 48, 96} {
			b.Run(fmt.Sprintf("%s/%d", shape, n), func(b *testing.B) {
				set := campaignShapeSet(stats.NewRNG(stats.DeriveSeed(1, 77)), n)
				opts := Options{Solver: SolverDP, Fleet: campaignFleetShape(shape)}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := Decide(set, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestFleetDecideAllocsBounded is the deterministic regression gate on
// the capacity repair's cost: a fixed-seed 48-task hot fleet Decide
// must stay within its allocation budget. Allocation counts do not
// depend on the machine, so unlike a timing gate this is CI-safe. The
// from-scratch repair (re-accumulating every pool for every candidate
// move) needed 834,659 allocations here; the pool ledger needs 1,065
// with the Theorem-3 total and every pool's shares each kept in one
// exact dbf.Sum patched by every downgrade and reroute (Go 1.24;
// math/big's internals set the exact figure; a normalising big.Rat
// Theorem-3 total needed 7,717, normalising big.Rat pool accounts
// 3,456). The bound is that count plus 5%.
func TestFleetDecideAllocsBounded(t *testing.T) {
	const bound = 1119
	set := campaignShapeSet(stats.NewRNG(stats.DeriveSeed(1, 77)), 48)
	opts := Options{Solver: SolverDP, Fleet: campaignFleetShape("hot")}
	d, err := Decide(set, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d.OffloadedCount() == 0 {
		t.Fatal("hot fleet decision offloads nothing; the gate measures no repair")
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Decide(set, opts); err != nil {
			t.Error(err)
		}
	})
	if allocs > bound {
		t.Fatalf("48-task hot fleet Decide allocates %.0f times, bound %d", allocs, bound)
	}
	t.Logf("48-task hot fleet Decide: %.0f allocations (bound %d)", allocs, bound)
}
