package exp

// Fleet campaign cells (DESIGN.md §5.9): the campaign's scenario axis
// becomes named multi-server stress shapes. Unlike single-server
// cells — whose assignments are constructed directly — a fleet cell
// admits its drawn system through the fleet-aware decision manager
// (core.Decide with Options.Fleet), so capacity pools, reliability
// discounts, and response scaling shape the routing, then simulates
// the routed system with one independently seeded fault injector per
// server.

import (
	"fmt"

	"rtoffload/internal/chaos"
	"rtoffload/internal/core"
	"rtoffload/internal/fleet"
	"rtoffload/internal/rtime"
	"rtoffload/internal/sched"
	"rtoffload/internal/server"
	"rtoffload/internal/stats"
)

// FleetScenarioNames lists the fleet stress shapes, in table order:
//
//	uniform   three healthy servers (edge, mid, cloud), no caps
//	hot       the attractive edge server has a tight capacity pool,
//	          coupled to mid through a shared radio group
//	skew      strongly asymmetric response scaling: a fast edge next
//	          to a cloud that doubles every budget
//	degrade   uniform fleet, but the edge's channel runs a hostile
//	          Gilbert–Elliott overlay on top of the fault axis
//	failover  uniform fleet whose edge server stops responding at
//	          mid-horizon (server.FailAfter)
func FleetScenarioNames() []string {
	return []string{"uniform", "hot", "skew", "degrade", "failover"}
}

// fleetFor resolves a scenario name to its fleet shape. The degrade
// and failover scenarios share the uniform shape — their stress lives
// in the cell's server construction, not the admission-side model.
func fleetFor(name string) (fleet.Fleet, error) {
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
		return fleet.Fleet{}, fmt.Errorf("exp: unknown fleet scenario %q", name)
	}
	f.Servers = []fleet.Server{edge, mid, cloud}
	return f, nil
}

// fleetSystem builds a fleet cell: the drawn system (every third task
// offloadable on two levels) admitted and routed by core.Decide with
// the scenario's fleet, against one scenario server and one fault
// injector per fleet server.
func (c CampaignConfig) fleetSystem(si int, faults chaos.Config, key func(uint64) uint64) ([]sched.Assignment, server.Server, map[string]server.Server, error) {
	name := c.FleetScenarios[si]
	fl, err := fleetFor(name)
	if err != nil {
		return nil, nil, nil, err
	}
	set := campaignSet(stats.NewRNG(key(1)), c.Tasks, [][2]float64{{0.35, 2}, {0.6, 2.5}})
	dec, err := core.Decide(set, core.Options{Solver: core.SolverDP, Fleet: fl})
	if err != nil {
		return nil, nil, nil, err
	}

	// One component and one fault injector per server: edge is idle,
	// mid lightly loaded, cloud busy; the chaos axis scales all three
	// identically, then the scenario applies its per-server twist.
	kinds := []server.Scenario{server.Idle, server.NotBusy, server.Busy}
	servers := make(map[string]server.Server, len(fl.Servers))
	for i, s := range fl.Servers {
		inner, err := server.NewScenario(stats.NewRNG(key(uint64(10+i))), kinds[i%len(kinds)])
		if err != nil {
			return nil, nil, nil, err
		}
		cfg := faults
		if name == "degrade" && i == 0 {
			cfg.GE = chaos.GilbertElliott{
				PGoodBad: 0.6, PBadGood: 0.1, BadLoss: 0.9, BadDelayMax: c.Horizon / 8,
			}
		}
		inj, err := chaos.New(inner, cfg, stats.NewRNG(key(uint64(20+i))))
		if err != nil {
			return nil, nil, nil, err
		}
		srv := server.Server(inj)
		if name == "failover" && i == 0 {
			srv = server.FailAfter{Inner: inj, At: rtime.Instant(c.Horizon / 2)}
		}
		servers[s.ID] = srv
	}
	return dec.Assignments(), nil, servers, nil
}
