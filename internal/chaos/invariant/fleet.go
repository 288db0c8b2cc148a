package invariant

import (
	"errors"
	"fmt"

	"rtoffload/internal/chaos"
	"rtoffload/internal/core"
	"rtoffload/internal/fleet"
	"rtoffload/internal/rtime"
	"rtoffload/internal/sched"
	"rtoffload/internal/server"
	"rtoffload/internal/stats"
	"rtoffload/internal/trace"
)

// FleetTrial is one randomized multi-server trial: a random fleet of
// 1–3 unreliable components, each with its own independent fault
// configuration, a fleet-admitted decision routing every offloaded
// task to one server, and optionally a mid-run server failure. On top
// of the single-server invariants I1–I5 (which must hold per server —
// faults on one component must never leak a miss into tasks routed
// elsewhere) it checks:
//
//	I6  Capacity coupling is never exceeded: every per-server and
//	    per-group occupancy pool of the admitted decision, recomputed
//	    from its choices, stays within its cap and matches the
//	    decision's reported account (pools account occupancy only;
//	    Theorem 3 is one processor-wide sum, not a per-pool one),
//	    and the simulation routes every offloaded job to exactly the
//	    server the decision chose.
//	    Routing is fixed at admission, so the two checks together
//	    bound the load on every pool at every instant of the trace.
type FleetTrial struct {
	Trial
	Fleet fleet.Fleet

	// Configs holds one independent fault configuration per server,
	// in fleet order.
	Configs []chaos.Config

	// FailIdx/FailAt inject the failover scenario: requests issued to
	// server FailIdx at or after FailAt are lost (server.FailAfter).
	// FailIdx is -1 when the trial has no failover.
	FailIdx int
	FailAt  rtime.Instant

	specs []componentSpec
}

// NewFleetTrial derives a randomized fleet trial from its seed. The
// drawn fleets deliberately span the stress scenarios: hot servers
// (tight capacity pools), skewed load (asymmetric scales and extra
// latency), coupled radio groups, one-server Gilbert–Elliott
// degradation, and mid-run failover. ok=false means the drawn system
// was infeasible for the drawn solver grid — nothing to simulate.
func NewFleetTrial(seed uint64) (*FleetTrial, bool, error) {
	rng := stats.NewRNG(stats.DeriveSeed(seed, streamTaskSet))
	set, err := randomSet(rng)
	if err != nil {
		return nil, false, fmt.Errorf("invariant: fleet seed %d: %w", seed, err)
	}

	maxPeriod := rtime.Duration(0)
	for _, t := range set {
		if t.Period > maxPeriod {
			maxPeriod = t.Period
		}
	}

	ft := &FleetTrial{FailIdx: -1}
	ft.Seed = seed
	ft.Set = set
	ft.Horizon = 3 * maxPeriod

	specRNG := stats.NewRNG(stats.DeriveSeed(seed, streamFleetSpec))
	ft.Fleet = randomFleet(specRNG)
	n := len(ft.Fleet.Servers)

	decRNG := stats.NewRNG(stats.DeriveSeed(seed, streamDecision))
	opts := core.Options{Solver: core.SolverDP, Fleet: ft.Fleet}
	switch decRNG.IntN(3) {
	case 0:
		opts.Solver = core.SolverHEU
	case 1:
		opts.Solver = core.SolverCore
	}
	opts.ExactUpgrade = decRNG.Bool(0.3)
	dec, err := core.Decide(set, opts)
	if errors.Is(err, core.ErrInfeasible) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("invariant: fleet seed %d: %w", seed, err)
	}
	ft.Decision = dec

	// One component recipe and one fault configuration per server,
	// each from its own forked stream: the faults are independent by
	// construction.
	ft.specs = make([]componentSpec, n)
	ft.Configs = make([]chaos.Config, n)
	for i := 0; i < n; i++ {
		srvRNG := stats.NewRNG(stats.DeriveSeed(seed, streamFleetServer, uint64(i)))
		ft.specs[i] = randomComponent(srvRNG, maxPeriod)
		chaosRNG := stats.NewRNG(stats.DeriveSeed(seed, streamFleetChaos, uint64(i)))
		ft.Configs[i] = randomChaos(chaosRNG, maxPeriod)
	}

	// One-server degradation: force a hostile Gilbert–Elliott channel
	// onto a single server, leaving the rest as drawn.
	if n > 1 && specRNG.Bool(0.3) {
		bad := specRNG.IntN(n)
		ft.Configs[bad].GE = chaos.GilbertElliott{
			PGoodBad:    0.5 + 0.4*specRNG.Float64(),
			PBadGood:    0.05 + 0.2*specRNG.Float64(),
			BadLoss:     0.7 + 0.3*specRNG.Float64(),
			BadDelayMax: maxPeriod/2 + 1,
		}
	}

	// Failover: one server stops responding partway through the run.
	if specRNG.Bool(0.25) {
		ft.FailIdx = specRNG.IntN(n)
		ft.FailAt = rtime.Instant(specRNG.Int64N(int64(ft.Horizon)) + 1)
	}

	simRNG := stats.NewRNG(stats.DeriveSeed(seed, streamSim))
	if simRNG.Bool(0.5) {
		ft.Jitter = rtime.Duration(simRNG.Int64N(int64(maxPeriod/4)) + 1)
	}
	return ft, true, nil
}

// randomFleet draws 1–3 servers spanning neutral, scaled (skewed
// load), discounted, capacity-capped (hot server), and group-coupled
// shapes. Every drawn fleet passes fleet.Validate by construction.
func randomFleet(rng *stats.RNG) fleet.Fleet {
	names := []string{"s0", "s1", "s2"}
	n := 1 + rng.IntN(3)
	var f fleet.Fleet
	grouped := n > 1 && rng.Bool(0.4)
	if grouped {
		f.Groups = []fleet.Group{{ID: "g", CapNum: int64(2 + rng.IntN(3)), CapDen: 4}}
	}
	for i := 0; i < n; i++ {
		s := fleet.Server{ID: names[i]}
		if rng.Bool(0.5) {
			s.ScaleNum, s.ScaleDen = int64(rng.IntN(3)+1), int64(rng.IntN(2)+1)
		}
		if rng.Bool(0.4) {
			s.Extra = rtime.Duration(rng.Int64N(int64(rtime.FromMillis(5))) + 1)
		}
		if rng.Bool(0.4) {
			s.Reliability = rng.Uniform(0.6, 1)
		}
		if rng.Bool(0.5) {
			s.CapNum, s.CapDen = int64(rng.IntN(4)+1), 8
		}
		if grouped && rng.Bool(0.6) {
			s.Group = "g"
		}
		f.Servers = append(f.Servers, s)
	}
	return f
}

// Simulate builds the per-server fault injectors, hands the engine a
// named-server routing table, and runs the split-EDF engine once with
// the trace streaming to sink (nil records none). It returns the raw
// result plus one recorded fault schedule per server (fleet order) for
// replay; it checks no invariant beyond what sink verifies — Run does.
// A violation reported by a StreamChecker sink comes back as the
// error, already naming the seed, with the schedules still returned.
func (ft *FleetTrial) Simulate(sink trace.Sink) (*sched.Result, []*chaos.Schedule, error) {
	byID := make(map[string]server.Server, len(ft.specs))
	recs := make([]*chaos.Schedule, len(ft.specs))
	for i := range ft.specs {
		inner, err := ft.specs[i].build()
		if err != nil {
			return nil, nil, fmt.Errorf("invariant: fleet seed %d: %w", ft.Seed, err)
		}
		inj, err := chaos.New(inner, ft.Configs[i],
			stats.NewRNG(stats.DeriveSeed(ft.Seed, streamFleetChaos, uint64(i), 1)))
		if err != nil {
			return nil, nil, fmt.Errorf("invariant: fleet seed %d: %w", ft.Seed, err)
		}
		recs[i] = inj.StartRecording()
		srv := server.Server(inj)
		if i == ft.FailIdx {
			srv = server.FailAfter{Inner: inj, At: ft.FailAt}
		}
		byID[ft.Fleet.Servers[i].ID] = srv
	}

	cfg := ft.SimConfig(nil)
	cfg.Servers = byID
	cfg.TraceSink = sink
	res, err := sched.Run(cfg)
	return res, recs, err
}

// Run simulates the trial with the trace streaming through a
// StreamChecker and checks I1–I5 plus the fleet-specific I6, returning
// the per-server fault schedules for replay. The error is the first
// violation (or an infrastructure error).
func (ft *FleetTrial) Run() ([]*chaos.Schedule, error) {
	res, recs, err := ft.Simulate(NewStreamChecker(&ft.Trial))
	if err != nil {
		return recs, err
	}
	if err := ft.CheckAggregates(res); err != nil {
		return recs, err
	}
	return recs, ft.CheckFleet(res)
}

// CheckFleet asserts invariant I6 against a simulation result: the
// admitted decision's capacity account is present, a recomputation of
// every pool from the choices (fleet.Accumulate over each offloaded
// choice's occupancy Ri/Ti) is within every cap and agrees with the
// reported account pool by pool, and the engine's routing
// attribution agrees with the decision for every task. Because routing
// is fixed at admission, decision-level pool bounds plus routing
// consistency bound the occupancy of every pool over the whole trace.
func (ft *FleetTrial) CheckFleet(res *sched.Result) error {
	loads := ft.Decision.ServerLoads
	if loads == nil {
		return ft.fail("I6: fleet decision carries no server loads")
	}
	want := recomputeLoads(ft.Fleet, ft.Decision.Choices)
	if over := fleet.FirstOver(want); over >= 0 {
		return ft.fail("I6: pool %q over capacity: %v > %v",
			want[over].Pool, want[over].Occupancy, want[over].Capacity)
	}
	if len(loads) != len(want) {
		return ft.fail("I6: decision reports %d pools, the fleet has %d", len(loads), len(want))
	}
	for k, w := range want {
		g := loads[k]
		if g.Pool != w.Pool || g.Tasks != w.Tasks || g.Occupancy == nil || g.Occupancy.Cmp(w.Occupancy) != 0 {
			return ft.fail("I6: pool %d reported as {%q tasks=%d occ=%v}, recomputed {%q tasks=%d occ=%v}",
				k, g.Pool, g.Tasks, g.Occupancy, w.Pool, w.Tasks, w.Occupancy)
		}
	}
	for _, c := range ft.Decision.Choices {
		st := res.PerTask[c.Task.ID]
		if st == nil {
			return ft.fail("I6: task %d has no stats", c.Task.ID)
		}
		if !c.Offload {
			if st.ServerID != "" {
				return ft.fail("I6: local task %d attributed to server %q", c.Task.ID, st.ServerID)
			}
			continue
		}
		want := c.Task.Levels[c.Level].ServerID
		if ft.Fleet.ServerIndex(want) < 0 {
			return ft.fail("I6: task %d admitted to unknown server %q", c.Task.ID, want)
		}
		if st.ServerID != want {
			return ft.fail("I6: task %d ran against server %q, admitted to %q",
				c.Task.ID, st.ServerID, want)
		}
	}
	return nil
}

// recomputeLoads rebuilds a decision's capacity pools from its
// choices alone: each offloaded choice charges its exact occupancy
// Ri/Ti to the server it routes to (and to that server's group).
func recomputeLoads(f fleet.Fleet, choices []core.Choice) []fleet.Load {
	var us []fleet.Usage
	for _, c := range choices {
		if !c.Offload {
			continue
		}
		t := c.Task
		us = append(us, fleet.Usage{
			Server:    t.Levels[c.Level].ServerID,
			Occupancy: rtime.Ratio(t.Levels[c.Level].Response, t.Period),
		})
	}
	return f.Accumulate(us)
}

// FleetCheck runs one full randomized fleet trial from its seed:
// derive, admit against the drawn fleet, simulate under per-server
// chaos, and verify I1–I6. Skipped (infeasible) trials return nil.
func FleetCheck(seed uint64) error {
	ft, ok, err := NewFleetTrial(seed)
	if err != nil || !ok {
		return err
	}
	_, err = ft.Run()
	return err
}
