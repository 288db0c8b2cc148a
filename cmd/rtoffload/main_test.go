package main

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"rtoffload/internal/core"
	"rtoffload/internal/stats"
	"rtoffload/internal/task"
)

func TestParseSolver(t *testing.T) {
	for name, want := range map[string]core.Solver{
		"dp":            core.SolverDP,
		"heu":           core.SolverHEU,
		"brute":         core.SolverBrute,
		"greedy":        core.SolverGreedy,
		"bnb":           core.SolverBnB,
		"core":          core.SolverCore,
		"server-faster": core.SolverServerFaster,
	} {
		got, err := parseSolver(name)
		if err != nil || got != want {
			t.Errorf("parseSolver(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{"", "DP", "heu-oe", "branch-and-bound", "exact"} {
		if _, err := parseSolver(name); err == nil {
			t.Errorf("parseSolver(%q) accepted an unknown solver", name)
		}
	}
}

// requireSame asserts two decisions are bit-identical: choices,
// objective bits, exact Theorem-3 total and metadata.
func requireSame(t *testing.T, got, want *core.Decision, ctx string) {
	t.Helper()
	if len(got.Choices) != len(want.Choices) {
		t.Fatalf("%s: %d choices, want %d", ctx, len(got.Choices), len(want.Choices))
	}
	for i, g := range got.Choices {
		w := want.Choices[i]
		if g.Task.ID != w.Task.ID || g.Offload != w.Offload || g.Level != w.Level ||
			math.Float64bits(g.Expected) != math.Float64bits(w.Expected) {
			t.Fatalf("%s: choice %d is %+v, want %+v", ctx, i, g, w)
		}
	}
	if math.Float64bits(got.TotalExpected) != math.Float64bits(want.TotalExpected) ||
		got.Theorem3Total.Cmp(want.Theorem3Total) != 0 ||
		got.Repaired != want.Repaired || got.ExactVerified != want.ExactVerified || got.Solver != want.Solver {
		t.Fatalf("%s: decision {%x %v rep=%d exact=%v %v}, want {%x %v rep=%d exact=%v %v}", ctx,
			got.TotalExpected, got.Theorem3Total, got.Repaired, got.ExactVerified, got.Solver,
			want.TotalExpected, want.Theorem3Total, want.Repaired, want.ExactVerified, want.Solver)
	}
}

// TestDecideIsTheLibraryPipeline pins the CLI's decide to core.Decide
// with Options.ExactUpgrade for every MCKP solver, and to
// DecideServerFaster (which ignores -exact) for the baseline.
func TestDecideIsTheLibraryPipeline(t *testing.T) {
	p := task.DefaultRandomSetParams()
	p.N = 6
	p.Q = 3
	p.TotalUtil = 0.7
	p.RespLoFrac = 0.2
	p.RespHiFrac = 0.9
	set, err := task.GenerateRandomSet(stats.NewRNG(17), p)
	if err != nil {
		t.Fatal(err)
	}
	solvers := []core.Solver{core.SolverDP, core.SolverHEU, core.SolverBrute,
		core.SolverGreedy, core.SolverBnB, core.SolverCore}
	for _, s := range solvers {
		for _, exact := range []bool{false, true} {
			ctx := fmt.Sprintf("solver %v exact=%v", s, exact)
			got, err := decide(set, s, exact)
			if err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			want, err := core.Decide(set, core.Options{Solver: s, ExactUpgrade: exact})
			if err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			requireSame(t, got, want, ctx)
		}
	}
	want, err := core.DecideServerFaster(set)
	if err != nil {
		t.Fatal(err)
	}
	for _, exact := range []bool{false, true} {
		got, err := decide(set, core.SolverServerFaster, exact)
		if err != nil {
			t.Fatal(err)
		}
		requireSame(t, got, want, fmt.Sprintf("server-faster exact=%v", exact))
	}
}

var update = flag.Bool("update", false, "rewrite the golden files")

// TestSimulateGanttGolden locks the exact stdout bytes of simulate
// with -gantt on a small hand-built set (testdata/tasks.json) whose
// charts show local, setup, post-processing and compensation runs.
// Refresh with
//
//	go test ./cmd/rtoffload -run TestSimulateGanttGolden -update
func TestSimulateGanttGolden(t *testing.T) {
	set := filepath.Join("testdata", "tasks.json")
	cases := []struct {
		name string
		args []string
	}{
		{"gantt-cdf", []string{"-solver", "dp", "-horizon", "1", "-gantt", "240", set}},
		{"gantt-lost-abort", []string{"-solver", "dp", "-horizon", "1", "-scenario", "lost",
			"-onmiss", "abort", "-gantt", "120", set}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := cmdSimulate(&buf, tc.args); err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("stdout differs from %s (refresh with -update if intended)\ngot:\n%s", golden, buf.String())
			}
		})
	}
}
