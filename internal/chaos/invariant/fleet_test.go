package invariant_test

import (
	"math/big"
	"runtime"
	"testing"

	"rtoffload/internal/chaos/invariant"
	"rtoffload/internal/parallel"
	"rtoffload/internal/stats"
)

// TestFleetHardGuaranteeUnderChaos is the fleet twin of the headline
// property: ≥10k randomized (task set × fleet × per-server fault
// schedule) trials through fleet admission, independent per-server
// chaos injection, routed simulation, and invariants I1–I6. It runs
// in full even under -short — this is the CI guarantee.
func TestFleetHardGuaranteeUnderChaos(t *testing.T) {
	const trials = 10_000
	_, err := parallel.Map(runtime.GOMAXPROCS(0), trials, func(i int) (struct{}, error) {
		seed := stats.DeriveSeed(baseSeed, 7, uint64(i))
		return struct{}{}, invariant.FleetCheck(seed)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFleetTrialsExerciseScenarios guards the fleet harness against
// vacuity: across a sample of trials, the stress scenarios named by
// the experiment plan — multi-server fleets, capacity-capped (hot)
// servers, coupled groups, mid-run failover, forced one-server
// degradation — must all actually occur, tasks must be routed to more
// than one server overall, and faults must actually fire.
func TestFleetTrialsExerciseScenarios(t *testing.T) {
	var ran, multi, capped, grouped, failover, routed, dropped, requests int
	servers := map[string]bool{}
	for i := 0; i < 400; i++ {
		seed := stats.DeriveSeed(baseSeed, 8, uint64(i))
		ft, ok, err := invariant.NewFleetTrial(seed)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue
		}
		recs, err := ft.Run()
		if err != nil {
			t.Fatal(err)
		}
		ran++
		if len(ft.Fleet.Servers) > 1 {
			multi++
		}
		for _, s := range ft.Fleet.Servers {
			if s.CapDen != 0 {
				capped++
				break
			}
		}
		if len(ft.Fleet.Groups) > 0 {
			grouped++
		}
		if ft.FailIdx >= 0 {
			failover++
		}
		for _, rec := range recs {
			requests += len(rec.Requests)
			dropped += rec.Dropped()
		}
		for _, c := range ft.Decision.Choices {
			if c.Offload {
				routed++
				servers[c.Task.Levels[c.Level].ServerID] = true
			}
		}
	}
	if ran < 300 {
		t.Fatalf("only %d/400 fleet trials ran; generator is rejecting too much", ran)
	}
	for name, n := range map[string]int{
		"multi-server": multi, "capacity-capped": capped, "group-coupled": grouped,
		"failover": failover, "offload-routed": routed,
	} {
		if n == 0 {
			t.Errorf("scenario %s never occurred across %d trials", name, ran)
		}
	}
	if len(servers) < 2 {
		t.Errorf("offloads reached only %d distinct servers across %d trials", len(servers), ran)
	}
	if requests == 0 || dropped == 0 {
		t.Errorf("per-server chaos vacuous: %d requests, %d dropped", requests, dropped)
	}
}

// TestFleetCheckRejectsCorruptedResult makes sure I6 has teeth:
// tampering with the routing attribution or the decision's capacity
// account must trip a violation on an otherwise passing trial.
func TestFleetCheckRejectsCorruptedResult(t *testing.T) {
	var ft *invariant.FleetTrial
	for i := 0; ; i++ {
		seed := stats.DeriveSeed(baseSeed, 9, uint64(i))
		cand, ok, err := invariant.NewFleetTrial(seed)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue
		}
		offloads := 0
		for _, c := range cand.Decision.Choices {
			if c.Offload {
				offloads++
			}
		}
		if offloads > 0 {
			ft = cand
			break
		}
	}

	res, _, err := ft.Simulate(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ft.CheckFleet(res); err != nil {
		t.Fatalf("pristine result should pass I6: %v", err)
	}

	for _, c := range ft.Decision.Choices {
		if c.Offload {
			was := res.PerTask[c.Task.ID].ServerID
			res.PerTask[c.Task.ID].ServerID = "rogue"
			if err := ft.CheckFleet(res); err == nil {
				t.Error("I6 did not catch a forged routing attribution")
			}
			res.PerTask[c.Task.ID].ServerID = was
			break
		}
	}

	wasOcc := ft.Decision.ServerLoads[0].Occupancy
	wasCap := ft.Decision.ServerLoads[0].Capacity
	ft.Decision.ServerLoads[0].Occupancy = new(big.Rat).SetInt64(2)
	ft.Decision.ServerLoads[0].Capacity = new(big.Rat).SetInt64(1)
	if err := ft.CheckFleet(res); err == nil {
		t.Error("I6 did not catch an over-capacity pool")
	}
	ft.Decision.ServerLoads[0].Occupancy = wasOcc
	ft.Decision.ServerLoads[0].Capacity = wasCap

	for k, ld := range ft.Decision.ServerLoads {
		if ld.Tasks == 0 {
			continue
		}
		was := ld.Occupancy
		ft.Decision.ServerLoads[k].Occupancy = new(big.Rat)
		if err := ft.CheckFleet(res); err == nil {
			t.Errorf("I6 did not catch pool %q under-reported as empty", ld.Pool)
		}
		ft.Decision.ServerLoads[k].Occupancy = was
		break
	}

	loads := ft.Decision.ServerLoads
	ft.Decision.ServerLoads = nil
	if err := ft.CheckFleet(res); err == nil {
		t.Error("I6 did not catch a missing capacity account")
	}
	ft.Decision.ServerLoads = loads
}
