package exp

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"rtoffload/internal/core"
	"rtoffload/internal/imgproc"
	"rtoffload/internal/rtime"
	"rtoffload/internal/server"
)

// testCaseConfig shrinks the case study for fast unit tests while
// keeping the calibration shape.
func testCaseConfig() CaseStudyConfig {
	cfg := DefaultCaseStudyConfig()
	cfg.Probes = 120
	cfg.HorizonSeconds = 10
	return cfg
}

func TestCaseTasksStructure(t *testing.T) {
	set, err := CaseTasks(testCaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 4 {
		t.Fatalf("%d tasks, want 4", len(set))
	}
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, tk := range set {
		names[tk.Name] = true
		if len(tk.Levels) != 4 {
			t.Fatalf("%s: %d levels", tk.Name, len(tk.Levels))
		}
		// Top level is the full-resolution frame → PSNR cap.
		if top := tk.Levels[3].Benefit; top != imgproc.PSNRCap {
			t.Errorf("%s: top benefit %g", tk.Name, top)
		}
		if tk.LocalBenefit >= tk.Levels[0].Benefit {
			t.Errorf("%s: local PSNR %g not below first level %g", tk.Name, tk.LocalBenefit, tk.Levels[0].Benefit)
		}
		// Deadlines per the paper: 1.8s / 2s.
		if tk.Deadline != rtimeMS(1800) && tk.Deadline != rtimeMS(2000) {
			t.Errorf("%s: deadline %v", tk.Name, tk.Deadline)
		}
		// Probed budgets must be usable: below the deadline.
		for j, lv := range tk.Levels {
			if lv.Response <= 0 || lv.Response >= tk.Deadline {
				t.Errorf("%s level %d: budget %v", tk.Name, j, lv.Response)
			}
		}
		// Local utilization near the configured target.
		u, _ := tk.Utilization().Float64()
		if u < 0.1 || u > 0.25 {
			t.Errorf("%s: local utilization %g", tk.Name, u)
		}
	}
	for _, want := range []string{"Stereo Vision", "Edge Detection", "Object recognition", "Motion Detection"} {
		if !names[want] {
			t.Errorf("missing task %q", want)
		}
	}
}

func TestCaseTasksBadConfig(t *testing.T) {
	cfg := testCaseConfig()
	cfg.LocalUtil = 0.3 // 4×0.3 ≥ 1
	if _, err := CaseTasks(cfg); err == nil {
		t.Error("over-utilized config accepted")
	}
	cfg = testCaseConfig()
	cfg.FrameW = 0
	if _, err := CaseTasks(cfg); err == nil {
		t.Error("zero frame accepted")
	}
}

func TestTable1Shape(t *testing.T) {
	rows, err := Table1(testCaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if len(r.Budgets) != 4 || len(r.PSNRs) != 4 {
			t.Fatalf("%s: ragged row", r.Task)
		}
		prevB, prevP := rtimeMS(0), r.LocalPSNR
		for j := range r.Budgets {
			if r.Budgets[j] <= prevB {
				t.Errorf("%s: budgets not increasing at %d", r.Task, j)
			}
			if r.PSNRs[j] <= prevP {
				t.Errorf("%s: PSNR not increasing at %d", r.Task, j)
			}
			prevB, prevP = r.Budgets[j], r.PSNRs[j]
		}
		if r.PSNRs[3] != imgproc.PSNRCap {
			t.Errorf("%s: top PSNR %g", r.Task, r.PSNRs[3])
		}
	}
}

func TestPermutations4(t *testing.T) {
	perms := permutations4()
	if len(perms) != 24 {
		t.Fatalf("%d permutations", len(perms))
	}
	seen := map[[4]float64]bool{}
	for _, p := range perms {
		if seen[p] {
			t.Fatalf("duplicate permutation %v", p)
		}
		seen[p] = true
		sum := p[0] + p[1] + p[2] + p[3]
		if sum != 10 {
			t.Fatalf("bad permutation %v", p)
		}
	}
}

// The headline case-study property (paper Figure 2): scenario means
// order busy < not-busy < idle, the busy scenario stays near the
// baseline, the idle scenario clearly improves on it, and no run ever
// misses a deadline.
func TestFigure2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("case-study sweep is slow")
	}
	res, err := Figure2(testCaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 72 {
		t.Fatalf("%d points, want 72", len(res.Points))
	}
	mean := func(s server.Scenario) float64 {
		vals := res.Series(s)
		if len(vals) != 24 {
			t.Fatalf("scenario %v: %d values", s, len(vals))
		}
		sum := 0.0
		for _, v := range vals {
			if v < 0.999 { // quality can never drop below the baseline
				t.Fatalf("scenario %v: normalized %g below 1", s, v)
			}
			sum += v
		}
		return sum / 24
	}
	busy, notBusy, idle := mean(server.Busy), mean(server.NotBusy), mean(server.Idle)
	t.Logf("means: busy=%.3f notBusy=%.3f idle=%.3f", busy, notBusy, idle)
	if !(busy < notBusy && notBusy < idle) {
		t.Fatalf("scenario ordering violated: %g %g %g", busy, notBusy, idle)
	}
	if busy > 1.4 {
		t.Errorf("busy mean %g too high — compensation should dominate", busy)
	}
	if idle < 1.8 {
		t.Errorf("idle mean %g too low — offloading should pay off", idle)
	}
	for _, p := range res.Points {
		if p.Misses != 0 {
			t.Fatalf("work set %d scenario %v: %d misses", p.WorkSet, p.Scenario, p.Misses)
		}
		if p.Offloaded == 0 {
			t.Errorf("work set %d: decision offloads nothing", p.WorkSet)
		}
	}
}

// The headline simulation property (paper Figure 3): perfect
// estimation is optimal for DP; both solvers degrade away from x = 0;
// under-estimated response times (x < 0) hurt more than
// over-estimated ones.
func TestFigure3Shape(t *testing.T) {
	cfg := DefaultFigure3Config()
	cfg.Trials = 4
	res, err := Figure3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dp := res.Series(core.SolverDP)
	heu := res.Series(core.SolverHEU)
	if len(dp) != len(cfg.Ratios) || len(heu) != len(cfg.Ratios) {
		t.Fatalf("series lengths %d/%d", len(dp), len(heu))
	}
	zero := 4 // index of x = 0
	if cfg.Ratios[zero] != 0 {
		t.Fatal("ratio layout changed")
	}
	if dp[zero] < 0.999 || dp[zero] > 1.001 {
		t.Fatalf("DP at perfect estimation = %g, want 1", dp[zero])
	}
	if heu[zero] > dp[zero]+1e-9 {
		t.Fatalf("HEU %g beats DP %g at x=0", heu[zero], dp[zero])
	}
	for i := range dp {
		if i == zero {
			continue
		}
		if dp[i] > dp[zero]+1e-9 {
			t.Fatalf("DP at x=%g (%g) above perfect estimation", cfg.Ratios[i], dp[i])
		}
		if dp[i] <= 0 || dp[i] > 1 || heu[i] <= 0 || heu[i] > 1.05 {
			t.Fatalf("implausible normalized value at x=%g: dp=%g heu=%g", cfg.Ratios[i], dp[i], heu[i])
		}
	}
	// Asymmetry: the optimistic side (x = −0.4) realizes less than the
	// pessimistic side (x = +0.4).
	if dp[0] >= dp[len(dp)-1] {
		t.Fatalf("under-estimation (%g) should hurt more than over-estimation (%g)", dp[0], dp[len(dp)-1])
	}
	// Both extremes lose a meaningful amount.
	if dp[0] > 0.7 || dp[len(dp)-1] > 0.98 {
		t.Errorf("extremes too flat: %g / %g", dp[0], dp[len(dp)-1])
	}
}

func TestFigure3Simulated(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed sweep is slow")
	}
	cfg := DefaultFigure3Config()
	cfg.Trials = 2
	cfg.Ratios = []float64{-0.2, 0, 0.2}
	cfg.Simulate = true
	cfg.SimHorizonSecs = 30
	res, err := Figure3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		if p.SimNormalized <= 0 {
			t.Fatalf("missing simulated value at x=%g %v", p.Ratio, p.Solver)
		}
		// The simulated score tracks the analytic one (both count
		// in-time result fractions; sampling noise allowed).
		diff := p.SimNormalized - p.Normalized
		if diff < -0.12 || diff > 0.12 {
			t.Fatalf("x=%g %v: simulated %g vs analytic %g", p.Ratio, p.Solver, p.SimNormalized, p.Normalized)
		}
	}
}

func TestFigure3BadConfig(t *testing.T) {
	cfg := DefaultFigure3Config()
	cfg.Trials = 0
	if _, err := Figure3(cfg); err == nil {
		t.Error("zero trials accepted")
	}
	cfg = DefaultFigure3Config()
	cfg.Ratios = nil
	if _, err := Figure3(cfg); err == nil {
		t.Error("no ratios accepted")
	}
}

func TestRenderers(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Table1(testCaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := RenderTable1(&buf, rows); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Stereo Vision", "Gi(0)", "ri,5", "99.0000"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 output missing %q", want)
		}
	}

	buf.Reset()
	if err := WriteCSV(&buf, []string{"a", "b"}, [][]string{{"1", "2"}, {"3", "4"}}); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "a,b\n1,2\n3,4\n" {
		t.Errorf("CSV output %q", got)
	}

	buf.Reset()
	if err := WriteTable(&buf, []string{"col", "x"}, [][]string{{"value", "1"}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "value") || !strings.Contains(buf.String(), "---") {
		t.Errorf("table output %q", buf.String())
	}

	// Figure 3 renderer.
	cfg := DefaultFigure3Config()
	cfg.Trials = 1
	cfg.Ratios = []float64{-0.1, 0, 0.1}
	res3, err := Figure3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := RenderFigure3(&buf, res3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "HEU-OE") || !strings.Contains(buf.String(), "+0") {
		t.Errorf("figure 3 output %q", buf.String())
	}
}

func rtimeMS(v int64) rtime.Duration { return rtime.FromMillis(v) }

// The two readings of §6.2's G((1+x)·ri): budget-shift (timers move,
// compensations fire) degrades far more steeply on the optimistic side
// than value-shift (only the selection can err). The paper's published
// curve lies between them.
func TestFigure3Interpretations(t *testing.T) {
	mk := func(interp Interpretation) *Figure3Result {
		cfg := DefaultFigure3Config()
		cfg.Trials = 3
		cfg.Ratios = []float64{-0.4, 0, 0.4}
		cfg.Interpretation = interp
		res, err := Figure3(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	budget := mk(BudgetShift).Series(core.SolverDP)
	value := mk(ValueShift).Series(core.SolverDP)
	// Both peak at x = 0.
	if budget[1] < 0.999 || value[1] < 0.999 {
		t.Fatalf("peaks: budget %g, value %g", budget[1], value[1])
	}
	// Optimistic side: budget-shift collapses, value-shift stays mild.
	if budget[0] >= value[0] {
		t.Fatalf("budget-shift at x=-0.4 (%g) not below value-shift (%g)", budget[0], value[0])
	}
	if value[0] < 0.7 {
		t.Fatalf("value-shift at x=-0.4 implausibly low: %g", value[0])
	}
	if budget[0] > 0.5 {
		t.Fatalf("budget-shift at x=-0.4 implausibly high: %g", budget[0])
	}
	// Unknown interpretation rejected.
	cfg := DefaultFigure3Config()
	cfg.Interpretation = Interpretation(9)
	if _, err := Figure3(cfg); err == nil {
		t.Error("unknown interpretation accepted")
	}
	if BudgetShift.String() == "" || ValueShift.String() == "" || Interpretation(9).String() == "" {
		t.Error("interpretation names")
	}
}

// String names a Interpretation in test output; no shipped binary prints one.
func (i Interpretation) String() string {
	switch i {
	case BudgetShift:
		return "budget-shift"
	case ValueShift:
		return "value-shift"
	default:
		return fmt.Sprintf("Interpretation(%d)", int(i))
	}
}
