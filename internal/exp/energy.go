package exp

import (
	"fmt"

	"rtoffload/internal/core"
	"rtoffload/internal/parallel"
	"rtoffload/internal/rtime"
	"rtoffload/internal/sched"
	"rtoffload/internal/server"
)

// EnergyRow is one scenario's client-energy account for the case
// study, comparing the offloading configuration against the all-local
// baseline under the same power model.
type EnergyRow struct {
	Scenario server.Scenario
	// Offload is the energy of the decided configuration; Local the
	// all-local baseline. Joules over the horizon.
	Offload sched.EnergyBreakdown
	Local   sched.EnergyBreakdown
	// Savings = 1 − Offload.Joules/Local.Joules (negative when
	// compensations make offloading a net loss).
	Savings float64
	Hits    int
	Comps   int
}

// DefaultPowerModel is a small embedded board: ~2.5 W CPU-active,
// 0.4 W idle, 1.1 W radio (Wi-Fi transmit/listen).
func DefaultPowerModel() sched.PowerModel {
	return sched.PowerModel{CPUActiveWatts: 2.5, CPUIdleWatts: 0.4, RadioWatts: 1.1}
}

// EnergyStudy quantifies the paper's second motivation (energy saving,
// §1 after Li et al.): the case-study configuration runs under each
// server scenario, and client energy is compared against executing
// everything locally. The expected shape: the idle server saves a
// large CPU-active share; the busy server pays the radio *and* the
// compensation, costing more than local execution.
func EnergyStudy(cfg CaseStudyConfig, pm sched.PowerModel) ([]EnergyRow, error) {
	if err := pm.Validate(); err != nil {
		return nil, err
	}
	set, err := CaseTasks(cfg)
	if err != nil {
		return nil, err
	}
	dec, err := core.Decide(set, core.Options{Solver: cfg.Solver})
	if err != nil {
		return nil, err
	}
	if dec.OffloadedCount() == 0 {
		return nil, fmt.Errorf("exp: energy study degenerate: nothing offloaded")
	}
	localAsgs := make([]sched.Assignment, len(set))
	for i, t := range set {
		localAsgs[i] = sched.Assignment{Task: t}
	}
	horizon := rtime.FromSeconds(cfg.HorizonSeconds)
	return parallel.Map(cfg.Parallel, len(caseScenarios), func(i int) (EnergyRow, error) {
		scenario := caseScenarios[i]
		srv, err := caseServer(scenario, cfg.Seed, streamEnergy)
		if err != nil {
			return EnergyRow{}, err
		}
		off, err := sched.Run(sched.Config{Assignments: dec.Assignments(), Server: srv, Horizon: horizon})
		if err != nil {
			return EnergyRow{}, err
		}
		offE, err := off.Energy(pm)
		if err != nil {
			return EnergyRow{}, err
		}
		loc, err := sched.Run(sched.Config{Assignments: localAsgs, Horizon: horizon})
		if err != nil {
			return EnergyRow{}, err
		}
		locE, err := loc.Energy(pm)
		if err != nil {
			return EnergyRow{}, err
		}
		row := EnergyRow{Scenario: scenario, Offload: offE, Local: locE}
		if locE.Joules > 0 {
			row.Savings = 1 - offE.Joules/locE.Joules
		}
		//rtlint:allow determinism -- integer sums over all entries are order-insensitive
		for _, st := range off.PerTask {
			row.Hits += st.Hits
			row.Comps += st.Compensations
		}
		return row, nil
	})
}
