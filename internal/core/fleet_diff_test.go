package core

import (
	"fmt"
	"math"
	"testing"

	"rtoffload/internal/fleet"
	"rtoffload/internal/rtime"
	"rtoffload/internal/stats"
	"rtoffload/internal/task"
)

// soloFleet is the degenerate fleet: one neutral server. Decisions
// against it must be bit-identical to the single-server path.
func soloFleet(id string) fleet.Fleet {
	return fleet.Fleet{Servers: []fleet.Server{{ID: id}}}
}

// churnFleet is the multi-server fleet the churn differential runs
// against: a capacity-capped edge box and a slower, discounted cloud,
// coupled through a shared radio group.
func churnFleet() fleet.Fleet {
	return fleet.Fleet{
		Servers: []fleet.Server{
			{ID: "edge", CapNum: 1, CapDen: 2, Group: "radio"},
			{ID: "cloud", ScaleNum: 3, ScaleDen: 2, Extra: rtime.FromMillis(2),
				Reliability: 0.9, Group: "radio", WeightNum: 1, WeightDen: 2},
		},
		Groups: []fleet.Group{{ID: "radio", CapNum: 3, CapDen: 4}},
	}
}

// randomFleetSet draws a small random system of mixed local-only and
// offloadable tasks.
func randomFleetSet(rng *stats.RNG, n int) task.Set {
	var set task.Set
	for id := 0; len(set) < n; id++ {
		if tk := randomAdmissionTask(rng, id); tk != nil {
			set = append(set, tk)
		}
	}
	return set
}

// TestFleetSingleServerOracle is the differential oracle of the fleet
// layer: a 1-server neutral fleet must reproduce the single-server
// Decide bit-for-bit — same choices, bitwise-equal objective,
// Cmp-equal exact total — across seeds, solvers, and the exact
// upgrade. Both a named server (levels gain routing IDs) and the
// anonymous default server are covered.
func TestFleetSingleServerOracle(t *testing.T) {
	solvers := []struct {
		name string
		opts Options
	}{
		{"dp", Options{Solver: SolverDP}},
		{"heu", Options{Solver: SolverHEU}},
		{"bnb", Options{Solver: SolverBnB}},
		{"core", Options{Solver: SolverCore}},
		{"dp-exact", Options{Solver: SolverDP, ExactUpgrade: true}},
		{"heu-exact", Options{Solver: SolverHEU, ExactUpgrade: true}},
		{"core-exact", Options{Solver: SolverCore, ExactUpgrade: true}},
	}
	for _, tc := range solvers {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 8; seed++ {
				rng := stats.NewRNG(stats.DeriveSeed(seed, 31))
				set := randomFleetSet(rng, rng.IntN(7)+2)
				want, wantErr := Decide(set, tc.opts)
				for _, id := range []string{"solo", ""} {
					fopts := tc.opts
					fopts.Fleet = soloFleet(id)
					got, gotErr := Decide(set, fopts)
					if (gotErr == nil) != (wantErr == nil) {
						t.Fatalf("seed %d fleet %q: error mismatch: %v vs %v", seed, id, gotErr, wantErr)
					}
					if wantErr != nil {
						continue
					}
					requireSameDecision(t, got, want, "single-server oracle")
					if got.ServerLoads == nil {
						t.Fatalf("seed %d: fleet decision missing ServerLoads", seed)
					}
					for i, c := range got.Choices {
						if c.Offload && c.Task.Levels[c.Level].ServerID != id {
							t.Fatalf("seed %d choice %d: routed to %q, want %q",
								seed, i, c.Task.Levels[c.Level].ServerID, id)
						}
					}
				}
			}
		})
	}
}

// TestFleetAssignmentsValidate proves the pruning contract: fleet
// decisions carry expanded tasks that intentionally break benefit
// monotonicity, but every assignment handed to the scheduler must pass
// its full validation, route to a fleet server, and preserve the
// chosen budget.
func TestFleetAssignmentsValidate(t *testing.T) {
	f := churnFleet()
	for seed := uint64(1); seed <= 10; seed++ {
		rng := stats.NewRNG(stats.DeriveSeed(seed, 32))
		set := randomFleetSet(rng, 6)
		d, err := Decide(set, Options{Solver: SolverCore, Fleet: f})
		if err != nil {
			continue
		}
		asgs := d.Assignments()
		for i, a := range asgs {
			if err := a.Validate(); err != nil {
				t.Fatalf("seed %d: pruned assignment %d invalid: %v", seed, i, err)
			}
			c := d.Choices[i]
			if a.Offload != c.Offload {
				t.Fatalf("seed %d: assignment %d offload mismatch", seed, i)
			}
			if c.Offload {
				if got, want := a.Task.Levels[a.Level].Response, c.Budget(); got != want {
					t.Fatalf("seed %d: assignment %d budget %v, choice budget %v", seed, i, got, want)
				}
				if f.ServerIndex(a.Task.Levels[a.Level].ServerID) < 0 {
					t.Fatalf("seed %d: assignment %d routed to unknown server %q",
						seed, i, a.Task.Levels[a.Level].ServerID)
				}
			} else if len(a.Task.Levels) != 0 {
				t.Fatalf("seed %d: local assignment %d kept %d points", seed, i, len(a.Task.Levels))
			}
		}
	}
}

// TestFleetCapacityRespected drives random systems against fleets with
// tight capacity pools and asserts the repair pass's certificate: no
// pool is ever over its cap, and the exact Theorem-3 bound still holds
// for non-upgraded decisions.
func TestFleetCapacityRespected(t *testing.T) {
	tight := fleet.Fleet{
		Servers: []fleet.Server{
			{ID: "a", CapNum: 1, CapDen: 5, Group: "g"},
			{ID: "b", CapNum: 1, CapDen: 4, Group: "g"},
			{ID: "c", Extra: rtime.FromMillis(1)},
		},
		Groups: []fleet.Group{{ID: "g", CapNum: 3, CapDen: 10}},
	}
	for _, exact := range []bool{false, true} {
		for seed := uint64(1); seed <= 12; seed++ {
			rng := stats.NewRNG(stats.DeriveSeed(seed, 33))
			set := randomFleetSet(rng, 8)
			d, err := Decide(set, Options{Solver: SolverCore, ExactUpgrade: exact, Fleet: tight})
			if err != nil {
				continue
			}
			if over := fleet.FirstOver(d.ServerLoads); over >= 0 {
				t.Fatalf("seed %d exact=%v: pool %q over capacity: %v > %v", seed, exact,
					d.ServerLoads[over].Pool, d.ServerLoads[over].Occupancy, d.ServerLoads[over].Capacity)
			}
			if !exact && d.Theorem3Total.Cmp(ratOne) > 0 {
				t.Fatalf("seed %d: repaired fleet decision exceeds Theorem 3: %v", seed, d.Theorem3Total)
			}
			if err := VerifyExact(d); exact && err != nil {
				t.Fatalf("seed %d: exact-upgraded fleet decision fails QPA: %v", seed, err)
			}
			// The recorded loads must match a recomputation from the
			// choices — the account is part of the decision's contract.
			re := refDecisionLoads(d.Choices, tight)
			for i := range re {
				if re[i].Occupancy.Cmp(d.ServerLoads[i].Occupancy) != 0 ||
					re[i].Tasks != d.ServerLoads[i].Tasks {
					t.Fatalf("seed %d: pool %q account drifted", seed, re[i].Pool)
				}
			}
		}
	}
}

// TestFleetAdmissionMatchesRebuild extends the admission differential
// contract to fleets: churn through a fleet-configured Admission must
// stay bit-identical to a from-scratch fleet Decide over the same
// originals — including the capacity repair and the guarded exact
// upgrade, and including server churn (every Update re-expands the
// task against the fleet).
func TestFleetAdmissionMatchesRebuild(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"solo-core", Options{Solver: SolverCore, Fleet: soloFleet("solo")}},
		{"fleet-dp", Options{Solver: SolverDP, Fleet: churnFleet()}},
		{"fleet-heu", Options{Solver: SolverHEU, Fleet: churnFleet()}},
		{"fleet-core", Options{Solver: SolverCore, Fleet: churnFleet()}},
		{"fleet-core-exact", Options{Solver: SolverCore, ExactUpgrade: true, Fleet: churnFleet()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 5; seed++ {
				runAdmissionChurnDifferential(t, tc.opts, seed, 30)
			}
		})
	}
}

// TestFleetAdmissionTasksReturnsOriginals pins the admission view
// contract: Tasks() hands back the tasks as admitted, never the
// fleet-expanded twins the decision layer works on.
func TestFleetAdmissionTasksReturnsOriginals(t *testing.T) {
	a := NewAdmission(Options{Solver: SolverDP, Fleet: churnFleet()})
	tk := &task.Task{
		ID: 1, Period: ms(100), Deadline: ms(100),
		LocalWCET: ms(10), Setup: ms(2), Compensation: ms(8),
		LocalBenefit: 1,
		Levels:       []task.Level{{Response: ms(10), Benefit: 3}, {Response: ms(20), Benefit: 4}},
	}
	if err := a.Add(tk); err != nil {
		t.Fatal(err)
	}
	got := a.Tasks()
	if len(got) != 1 || len(got[0].Levels) != 2 {
		t.Fatalf("Tasks() returned expanded form: %d tasks, %d levels", len(got), len(got[0].Levels))
	}
	for j, lv := range got[0].Levels {
		if lv.ServerID != "" || lv.Response != tk.Levels[j].Response {
			t.Fatalf("Tasks() level %d not original: %+v", j, lv)
		}
	}
	if d := a.Decision(); d == nil || d.ServerLoads == nil {
		t.Fatal("fleet admission decision missing ServerLoads")
	}
	if ok, err := a.Remove(1); !ok || err != nil {
		t.Fatalf("Remove: %v %v", ok, err)
	}
	if a.Len() != 0 || a.Decision() != nil {
		t.Fatal("Remove did not clear fleet state")
	}
}

// TestFleetInfeasibleFleetRejected pins option validation: Decide and
// Admission must reject a structurally invalid fleet before touching
// any task.
func TestFleetInvalidFleetRejected(t *testing.T) {
	bad := fleet.Fleet{Servers: []fleet.Server{{ID: "x", ScaleNum: -1, ScaleDen: 1}}}
	if _, err := Decide(twoTaskSet(), Options{Solver: SolverDP, Fleet: bad}); err == nil {
		t.Fatal("Decide accepted an invalid fleet")
	}
	a := NewAdmission(Options{Solver: SolverDP, Fleet: bad})
	if err := a.Add(twoTaskSet()[0]); err == nil {
		t.Fatal("Admission accepted an invalid fleet")
	}
	if a.Len() != 0 {
		t.Fatal("rejected fleet admission mutated state")
	}
}

// requireSameFleetDecision is requireSameDecision plus the fleet
// account: bitwise-equal objective and Cmp-equal pool loads.
func requireSameFleetDecision(t *testing.T, got, want *Decision, ctx string) {
	t.Helper()
	requireSameDecision(t, got, want, ctx)
	if math.Float64bits(got.TotalExpected) != math.Float64bits(want.TotalExpected) {
		t.Fatalf("%s: TotalExpected bits %x vs reference %x", ctx,
			math.Float64bits(got.TotalExpected), math.Float64bits(want.TotalExpected))
	}
	if len(got.ServerLoads) != len(want.ServerLoads) {
		t.Fatalf("%s: %d pools, reference has %d", ctx, len(got.ServerLoads), len(want.ServerLoads))
	}
	for k, g := range got.ServerLoads {
		w := want.ServerLoads[k]
		same := g.Pool == w.Pool && g.Server == w.Server && g.Tasks == w.Tasks &&
			g.Occupancy.Cmp(w.Occupancy) == 0 &&
			(g.Capacity == nil) == (w.Capacity == nil) &&
			(g.Capacity == nil || g.Capacity.Cmp(w.Capacity) == 0)
		if !same {
			t.Fatalf("%s: pool %d differs: got {%s tasks=%d occ=%v cap=%v} want {%s tasks=%d occ=%v cap=%v}",
				ctx, k, g.Pool, g.Tasks, g.Occupancy, g.Capacity,
				w.Pool, w.Tasks, w.Occupancy, w.Capacity)
		}
	}
}

// requireMatchesReference checks a fleet decision (or its error)
// against the from-scratch reference repair on the same input.
func requireMatchesReference(t *testing.T, set task.Set, opts Options, got *Decision, gotErr error, ctx string) {
	t.Helper()
	ctx = fmt.Sprintf("%s (solver %v exact=%v)", ctx, opts.Solver, opts.ExactUpgrade)
	want, wantErr := refDecideFleet(set, opts)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: error mismatch: %v vs reference %v", ctx, gotErr, wantErr)
	}
	if wantErr == nil {
		requireSameFleetDecision(t, got, want, ctx)
	}
}

// mirrorFleet couples two servers whose points carry equal group
// shares: b doubles every budget but counts half in the group, so
// rerouting a task from a to b leaves the group's occupancy unchanged
// and must not count as draining it.
func mirrorFleet() fleet.Fleet {
	return fleet.Fleet{
		Servers: []fleet.Server{
			{ID: "a", Group: "g"},
			{ID: "b", ScaleNum: 2, ScaleDen: 1, WeightNum: 1, WeightDen: 2, Group: "g"},
		},
		Groups: []fleet.Group{{ID: "g", CapNum: 1, CapDen: 8}},
	}
}

// TestFleetRepairMatchesReference is the differential oracle of the
// pool ledger: across seeds, the five campaign fleet shapes (plus the
// churn fleet, whose tight pools force downgrades where hot only
// reroutes, and the mirror fleet's zero-delta reroutes), task counts
// up to 96 and the exact upgrade on and off,
// the shipped Decide and a fleet Admission fed the same tasks must
// match the from-scratch reference repair bit for bit — choices,
// objective bits, exact Theorem-3 total, pool account and repair
// count. The reference is quadratic in the offloaded choices, so the
// larger task counts run fewer seeds, and the admission replay (one
// re-decision per task) runs on the first seed of the small counts.
func TestFleetRepairMatchesReference(t *testing.T) {
	seeds := map[int]uint64{12: 3, 24: 3, 48: 2, 96: 1}
	shapes := map[string]fleet.Fleet{"churn": churnFleet(), "mirror": mirrorFleet()}
	names := append(append([]string(nil), campaignFleetShapes...), "churn", "mirror")
	for _, name := range campaignFleetShapes {
		shapes[name] = campaignFleetShape(name)
	}
	repaired := 0
	for _, name := range names {
		for _, n := range []int{12, 24, 48, 96} {
			for _, exact := range []bool{false, true} {
				opts := Options{Solver: SolverDP, ExactUpgrade: exact, Fleet: shapes[name]}
				for seed := uint64(1); seed <= seeds[n]; seed++ {
					ctx := fmt.Sprintf("%s/n=%d/exact=%v/seed=%d", name, n, exact, seed)
					set := campaignShapeSet(stats.NewRNG(stats.DeriveSeed(seed, 78)), n)
					got, err := Decide(set, opts)
					requireMatchesReference(t, set, opts, got, err, ctx)
					if err != nil {
						continue
					}
					repaired += got.Repaired
					if n > 24 || seed > 1 {
						continue
					}
					a := NewAdmission(opts)
					for _, tk := range set {
						_ = a.Add(tk) // a rejected task leaves the admission untouched
					}
					if a.Len() > 0 {
						requireMatchesReference(t, a.Tasks(), opts, a.Decision(), nil, ctx+"/admission")
					}
				}
			}
		}
	}
	if repaired == 0 {
		t.Fatal("no case downgraded a choice: the capacity repair went unexercised")
	}
}

// TestFleetRepairCascadeMatchesReference pins the capacity repair's
// hand-off to the Theorem-3 repair. Task 0 is the cheapest capacity
// downgrade, but its local density (40/100) exceeds its offload weight
// (5/70), so running it locally lifts the Theorem-3 sum to ≈1.014. The
// Theorem-3 repair then downgrades task 1 as well, and the pool
// account must follow both downgrades.
func TestFleetRepairCascadeMatchesReference(t *testing.T) {
	set := task.Set{
		{ID: 0, Period: ms(100), Deadline: ms(100), LocalWCET: ms(40), Setup: ms(2), Compensation: ms(3),
			LocalBenefit: 1, Levels: []task.Level{{Response: ms(30), Benefit: 1.5}}},
		{ID: 1, Period: ms(100), Deadline: ms(100), LocalWCET: ms(10), Setup: ms(5), Compensation: ms(10),
			LocalBenefit: 1, Levels: []task.Level{{Response: ms(30), Benefit: 5}}},
		{ID: 2, Period: ms(100), Deadline: ms(100), LocalWCET: ms(40), LocalBenefit: 1},
	}
	opts := Options{Solver: SolverCore, Fleet: fleet.Fleet{Servers: []fleet.Server{{ID: "s", CapNum: 1, CapDen: 2}}}}
	got, err := Decide(set, opts)
	requireMatchesReference(t, set, opts, got, err, "cascade")
	if err != nil {
		t.Fatal(err)
	}
	if got.Repaired != 2 || got.OffloadedCount() != 0 || got.ServerLoads[0].Tasks != 0 {
		t.Fatalf("cascade: repaired %d, offloaded %d, pool tasks %d; want 2, 0, 0",
			got.Repaired, got.OffloadedCount(), got.ServerLoads[0].Tasks)
	}
}
