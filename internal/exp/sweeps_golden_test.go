package exp

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestSweepsGolden pins every sweep of the package bit-exactly: each
// float is printed as %x, so a changed summation order or a re-seeded
// draw shows as a diff even where the rounded tables would not. Every
// seed is rendered at one and at eight workers, and both renderings
// must match the same golden. Refresh with
//
//	go test ./internal/exp -run TestSweepsGolden -update
func TestSweepsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep pin is slow")
	}
	var got bytes.Buffer
	for _, seed := range []uint64{1, 7} {
		var first []byte
		for _, workers := range []int{1, 8} {
			var buf bytes.Buffer
			if err := renderSweeps(&buf, seed, workers); err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if first == nil {
				first = buf.Bytes()
				continue
			}
			if !bytes.Equal(buf.Bytes(), first) {
				t.Fatalf("seed %d: workers %d diverged from the sequential run", seed, workers)
			}
		}
		fmt.Fprintf(&got, "== seed %d\n", seed)
		got.Write(first)
	}
	golden := filepath.Join("testdata", "sweeps.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("sweeps differ from %s (refresh with -update if intended)\ngot:\n%s", golden, got.String())
	}
}

// renderSweeps runs every sweep at one seed and worker count and
// prints its rows with exact float bits.
func renderSweeps(buf *bytes.Buffer, seed uint64, workers int) error {
	const per = 18

	sol, err := SolverAblation(seed, per, workers)
	if err != nil {
		return err
	}
	fmt.Fprintln(buf, "solver")
	for _, r := range sol {
		fmt.Fprintf(buf, "%v %x %x\n", r.Solver, r.MeanQuality, r.WorstQuality)
	}

	edf, err := NaiveEDFAblation(seed, []float64{0.5, 0.7, 0.85, 0.95}, per, workers)
	if err != nil {
		return err
	}
	fmt.Fprintln(buf, "naive-edf")
	for _, r := range edf {
		fmt.Fprintf(buf, "%x %d %x %x\n", r.TargetLoad, r.Systems, r.SplitMissRate, r.NaiveMissRate)
	}

	dbfRows, err := DBFAblation(seed, []float64{0.6, 0.8, 1.0, 1.2}, per, workers)
	if err != nil {
		return err
	}
	fmt.Fprintln(buf, "dbf")
	for _, r := range dbfRows {
		fmt.Fprintf(buf, "%x %d %d %d\n", r.TargetLoad, r.Systems, r.Theorem3Accepted, r.ExactAccepted)
	}

	fp, err := FPAblation(seed, []float64{0.4, 0.6, 0.8, 0.95}, per, workers)
	if err != nil {
		return err
	}
	fmt.Fprintln(buf, "fp")
	for _, r := range fp {
		fmt.Fprintf(buf, "%x %d %d %d %d %d\n", r.TargetLoad, r.Systems,
			r.FPOblivious, r.FPJitter, r.EDFTheorem3, r.EDFExact)
	}

	ch, err := ChaosAblation(seed, []float64{0, 0.5, 1}, 15, workers)
	if err != nil {
		return err
	}
	fmt.Fprintln(buf, "chaos")
	for _, r := range ch {
		fmt.Fprintf(buf, "%x %d %x %x %x %x\n", r.Intensity, r.Systems,
			r.SplitMissRate, r.NaiveMissRate, r.SplitBenefit, r.NaiveBenefit)
	}

	for _, fleetMode := range []bool{false, true} {
		cfg := CampaignConfig{Seed: seed, TaskSets: 2, Tasks: 12, Parallel: workers}
		if fleetMode {
			cfg.FleetScenarios = FleetScenarioNames()
		}
		res, err := RunCampaign(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(buf, "campaign fleet=%v\n", fleetMode)
		for _, c := range res.Cells {
			fmt.Fprintf(buf, "%d %d %s %x %d %d %d %x %d %d %d\n", c.Cell, c.TaskSet, c.Scenario, c.Fault,
				c.Jobs, c.Finished, c.Misses, c.Benefit, c.CPUBusy, c.Makespan, c.Offloaded)
		}
		if err := WriteCampaignTable(buf, res); err != nil {
			return err
		}
	}

	cs := DefaultCaseStudyConfig()
	cs.Seed = seed
	cs.Parallel = workers
	cs.FrameW, cs.FrameH = 320, 240
	cs.Probes = 60
	cs.HorizonSeconds = 3

	en, err := EnergyStudy(cs, DefaultPowerModel())
	if err != nil {
		return err
	}
	fmt.Fprintln(buf, "energy")
	for _, r := range en {
		fmt.Fprintf(buf, "%v %x %d %d %d %x %d %d %d %x %d %d\n", r.Scenario,
			r.Offload.Joules, r.Offload.CPUActive, r.Offload.CPUIdle, r.Offload.Radio,
			r.Local.Joules, r.Local.CPUActive, r.Local.CPUIdle, r.Local.Radio,
			r.Savings, r.Hits, r.Comps)
	}

	lat, err := LatencyStudy(cs)
	if err != nil {
		return err
	}
	fmt.Fprintln(buf, "latency")
	for _, r := range lat {
		fmt.Fprintf(buf, "%v %s %d %d %d %d %d %d\n", r.Scenario, r.Task,
			r.Deadline, r.P50, r.P95, r.Worst, r.Hits, r.Jobs)
	}

	f2, err := Figure2(cs)
	if err != nil {
		return err
	}
	fmt.Fprintln(buf, "figure2")
	for _, p := range f2.Points {
		fmt.Fprintf(buf, "%d %v %v %x %d %d\n", p.WorkSet, p.Weights, p.Scenario,
			p.Normalized, p.Offloaded, p.Misses)
	}

	multi, err := Figure2Multi(cs, 3)
	if err != nil {
		return err
	}
	fmt.Fprintln(buf, "figure2-multi")
	for _, s := range multi {
		fmt.Fprintf(buf, "%v %x %x %d\n", s.Scenario, s.Mean, s.CI95, s.Runs)
	}

	for _, simulate := range []bool{false, true} {
		f3 := DefaultFigure3Config()
		f3.Seed = seed
		f3.Parallel = workers
		f3.Trials = 15
		f3.Ratios = []float64{-0.3, 0, 0.2}
		f3.Simulate = simulate
		f3.SimHorizonSecs = 2
		if simulate {
			f3.Trials = 4
		}
		res, err := Figure3(f3)
		if err != nil {
			return err
		}
		fmt.Fprintf(buf, "figure3 simulate=%v\n", simulate)
		for _, p := range res.Points {
			fmt.Fprintf(buf, "%x %v %x %x\n", p.Ratio, p.Solver, p.Normalized, p.SimNormalized)
		}
	}
	return nil
}
