package core

import (
	"testing"

	"rtoffload/internal/fleet"
	"rtoffload/internal/rtime"
	"rtoffload/internal/stats"
)

// fuzzFleet derives a deterministic random fleet from the fuzz input:
// 1–3 servers with random scales, reliabilities, and capacity pools,
// occasionally coupled through a shared group, half of the grouped
// servers with a coupling weight of 1–4 over 1–4.
func fuzzFleet(rng *stats.RNG, nRaw uint8) fleet.Fleet {
	n := int(nRaw)%3 + 1
	var f fleet.Fleet
	grouped := rng.Bool(0.5)
	if grouped {
		f.Groups = []fleet.Group{{ID: "g", CapNum: int64(rng.IntN(3) + 1), CapDen: 4}}
	}
	names := []string{"alpha", "beta", "gamma"}
	for i := 0; i < n; i++ {
		s := fleet.Server{ID: names[i]}
		if rng.Bool(0.5) {
			s.ScaleNum, s.ScaleDen = int64(rng.IntN(3)+1), int64(rng.IntN(3)+1)
		}
		if rng.Bool(0.4) {
			s.Extra = rtime.FromMillis(int64(rng.IntN(5)))
		}
		if rng.Bool(0.4) {
			s.Reliability = rng.Uniform(0.5, 1)
		}
		if rng.Bool(0.5) {
			s.CapNum, s.CapDen = int64(rng.IntN(4)+1), 8
		}
		if grouped && rng.Bool(0.6) {
			s.Group = "g"
			if rng.Bool(0.5) {
				s.WeightNum, s.WeightDen = int64(rng.IntN(4)+1), int64(rng.IntN(4)+1)
			}
		}
		f.Servers = append(f.Servers, s)
	}
	return f
}

// FuzzFleetDecide is the fleet decision fuzz target. For every input
// it derives a random task system and fleet, then checks:
//
//   - the reference oracle: every fleet decision, with and without
//     the exact upgrade, is bit-identical to the from-scratch
//     reference repair (fleet_reference_test.go);
//   - cross-solver agreement: every solver's fleet decision satisfies
//     the exact Theorem-3 bound and every capacity pool, and the exact
//     solvers (core, BnB) agree on the pre-repair objective;
//   - the single-server oracle: a 1-server neutral fleet stays
//     bit-identical to the plain single-server Decide;
//   - warm/cold bit-identity under server churn: an Admission churned
//     through adds, fleet re-expanding updates, and removes matches a
//     from-scratch fleet Decide after every commit.
func FuzzFleetDecide(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(4), uint8(3))
	f.Add(uint64(7), uint8(1), uint8(2), uint8(0))
	f.Add(uint64(42), uint8(3), uint8(7), uint8(6))
	f.Add(uint64(99), uint8(2), uint8(5), uint8(9))
	f.Fuzz(func(t *testing.T, seed uint64, fleetRaw, nRaw, churnRaw uint8) {
		rng := stats.NewRNG(stats.DeriveSeed(seed, 501))
		fl := fuzzFleet(rng, fleetRaw)
		if err := fl.Validate(); err != nil {
			t.Fatalf("generated fleet invalid: %v", err)
		}
		set := randomFleetSet(rng, int(nRaw)%7+2)

		// Cross-solver agreement on the fleet instance.
		var coreDec, bnbDec *Decision
		for _, sv := range []Solver{SolverCore, SolverBnB, SolverDP, SolverHEU} {
			d, err := Decide(set, Options{Solver: sv, Fleet: fl})
			requireMatchesReference(t, set, Options{Solver: sv, Fleet: fl}, d, err, "fuzz")
			if err != nil {
				continue // infeasible for this solver's grid: nothing to check
			}
			if d.Theorem3Total.Cmp(ratOne) > 0 {
				t.Fatalf("solver %v: fleet decision exceeds Theorem 3: %v", sv, d.Theorem3Total)
			}
			if over := fleet.FirstOver(d.ServerLoads); over >= 0 {
				t.Fatalf("solver %v: pool %q over capacity", sv, d.ServerLoads[over].Pool)
			}
			for i, a := range d.Assignments() {
				if err := a.Validate(); err != nil {
					t.Fatalf("solver %v: assignment %d invalid: %v", sv, i, err)
				}
			}
			switch sv {
			case SolverCore:
				coreDec = d
			case SolverBnB:
				bnbDec = d
			}
		}
		if coreDec != nil && bnbDec != nil && coreDec.Repaired == 0 && bnbDec.Repaired == 0 {
			// Unrepaired decisions carry the solvers' raw optima; the
			// exact solvers must agree on the objective.
			diff := coreDec.TotalExpected - bnbDec.TotalExpected
			if diff < -1e-9 || diff > 1e-9 {
				t.Fatalf("exact solvers disagree: core %v vs bnb %v",
					coreDec.TotalExpected, bnbDec.TotalExpected)
			}
		}

		// The guarded exact upgrade against the reference guard.
		exactOpts := Options{Solver: SolverCore, ExactUpgrade: true, Fleet: fl}
		d, err := Decide(set, exactOpts)
		requireMatchesReference(t, set, exactOpts, d, err, "fuzz")

		// Single-server oracle on the same system.
		plain, plainErr := Decide(set, Options{Solver: SolverCore})
		solo, soloErr := Decide(set, Options{Solver: SolverCore, Fleet: soloFleet("solo")})
		if (plainErr == nil) != (soloErr == nil) {
			t.Fatalf("oracle error mismatch: %v vs %v", plainErr, soloErr)
		}
		if plainErr == nil {
			requireSameDecision(t, solo, plain, "fuzz single-server oracle")
		}

		// Warm/cold bit-identity under server churn.
		churn := int(churnRaw)%15 + 5
		runAdmissionChurnDifferential(t, Options{Solver: SolverCore, Fleet: fl}, seed, churn)
	})
}
