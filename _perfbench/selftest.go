package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/big"
	"os"

	"rtoffload/internal/admitd"
	"rtoffload/internal/core"
	"rtoffload/internal/exp"
	"rtoffload/internal/rtime"
	"rtoffload/internal/task"
)

// benchSpec is the part of BENCHMARK.json the self-test checks.
type benchSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// selfTest confirms that the program runs every workload BENCHMARK.json
// names and reports exactly its metrics, that planted bad outputs trip
// the output checks, and that a one-second run of every workload in
// both modes passes its checks and emits every named metric.
func selfTest(o *options, w io.Writer) error {
	data, err := os.ReadFile(o.spec)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", o.spec, err)
	}
	for _, wl := range spec.Workloads {
		found := false
		for _, w := range workloads {
			found = found || w.name == wl.Name
		}
		if !found {
			return fmt.Errorf("%s names workload %q, which the program does not run", o.spec, wl.Name)
		}
	}
	for _, pair := range []struct {
		kind string
		got  []struct{ Name, Unit string }
		want []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEndMetrics}, {"per_layer", spec.PerLayer, perLayerMetrics}} {
		if len(pair.got) != len(pair.want) {
			return fmt.Errorf("%s lists %d %s metrics, the program reports %d", o.spec, len(pair.got), pair.kind, len(pair.want))
		}
		for i, m := range pair.got {
			if m.Name != pair.want[i].name || m.Unit != pair.want[i].unit {
				return fmt.Errorf("%s metric %d is %s [%s] in %s, %s [%s] here", pair.kind, i, m.Name, m.Unit, o.spec, pair.want[i].name, pair.want[i].unit)
			}
		}
	}
	if err := plantedFaults(); err != nil {
		return err
	}
	fmt.Fprintln(w, "selftest: names match, planted faults trip the checks")
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			oo := *o
			oo.workload, oo.seconds, oo.trace = wl.name, 1, traced
			res, err := runWorkload(&oo)
			if err != nil {
				return err
			}
			if !res.correct() {
				return fmt.Errorf("%s trace=%v: %d of %d failed: %v", wl.name, traced, res.failed, res.attempted, res.violations)
			}
			fmt.Fprintf(w, "selftest: %s trace=%v ok, %d metrics, %d operations checked\n",
				wl.name, traced, len(defsFor(traced)), res.attempted)
		}
	}
	return nil
}

// plantedFaults feeds hand-made bad outputs to the checks.
func plantedFaults() error {
	// Two tasks of local density 3/5: fine alone, overloaded together.
	mk := func(id int) *task.Task {
		return &task.Task{ID: id, Period: rtime.FromMillis(10), Deadline: rtime.FromMillis(10),
			LocalWCET: rtime.FromMillis(6), LocalBenefit: 1,
			Setup: rtime.FromMillis(1), Compensation: rtime.FromMillis(6), PostProcess: rtime.FromMillis(1),
			Levels: []task.Level{{Response: rtime.FromMillis(2), Benefit: 2}}}
	}
	a, b := mk(1), mk(2)
	view := func(seq uint64, ts ...*task.Task) []byte {
		d := &core.Decision{Theorem3Total: big.NewRat(3, 5)}
		for _, t := range ts {
			d.Choices = append(d.Choices, core.Choice{Task: t, Expected: t.LocalBenefit})
			d.TotalExpected += t.LocalBenefit
		}
		body, err := json.Marshal(admitd.ViewOf("t", seq, d, len(ts)))
		if err != nil {
			panic(err) // plain values always marshal
		}
		return body
	}
	if err := verifyView(view(1, a), "t", 1, []*task.Task{a}); err != nil {
		return fmt.Errorf("a valid view failed the check: %w", err)
	}
	var bad admitd.DecisionView
	if err := json.Unmarshal(view(1, a), &bad); err != nil {
		return err
	}
	bad.Choices[0].Budget = 1
	wrongBudget, err := json.Marshal(bad)
	if err != nil {
		return err
	}
	plants := []struct {
		what  string
		body  []byte
		seq   uint64
		known []*task.Task
	}{
		{"an overloaded decision", view(1, a, b), 1, []*task.Task{a, b}},
		{"a view missing an admitted task", view(1, a), 1, []*task.Task{a, b}},
		{"a view with a stale seq", view(1, a), 2, []*task.Task{a}},
		{"a local choice with a budget", wrongBudget, 1, []*task.Task{a}},
	}
	for _, p := range plants {
		if verifyView(p.body, "t", p.seq, p.known) == nil {
			return fmt.Errorf("the view check passed %s", p.what)
		}
	}

	r := newResult()
	cfg := exp.CampaignConfig{FleetScenarios: []string{"hot"}}
	checkGrid(r, cfg, &exp.CampaignResult{Total: 1, Cells: []exp.CellResult{{Jobs: 10, Finished: 10, Misses: 1}}})
	if r.failed == 0 {
		return fmt.Errorf("the grid check passed a fleet cell with a deadline miss")
	}
	return nil
}
