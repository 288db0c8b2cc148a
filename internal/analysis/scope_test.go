package analysis

import "testing"

// TestAnalyzerScope pins the repository gate configuration: which
// analyzer inspects which (directory, file) — in particular the
// floatexact scope over the exact-arithmetic core files and the
// overflowguard carve-out for the checked helpers in frac.go. A nil
// Scope inspects every file.
func TestAnalyzerScope(t *testing.T) {
	byName := map[string]func(relDir, base string) bool{}
	for _, a := range All {
		byName[a.Name] = a.Scope
		if byName[a.Name] == nil {
			byName[a.Name] = func(string, string) bool { return true }
		}
	}
	cases := []struct {
		analyzer, relDir, base string
		want                   bool
	}{
		{"determinism", "internal/exp", "tables.go", true},
		{"determinism", "cmd/casestudy", "main.go", true},

		{"floatexact", "internal/dbf", "analyzer.go", true},
		{"floatexact", "internal/core", "exact.go", true},
		{"floatexact", "internal/core", "estimator.go", true},
		{"floatexact", "internal/core", "admission.go", true},
		{"floatexact", "internal/core", "core.go", true},
		{"floatexact", "internal/core", "decisionio.go", true},
		{"floatexact", "internal/core", "baseline.go", false},
		{"floatexact", "internal/mckp", "solver.go", false},

		{"overflowguard", "internal/dbf", "analyzer.go", true},
		{"overflowguard", "internal/dbf", "frac.go", false},
		{"overflowguard", "internal/core", "core.go", true},
		{"overflowguard", "internal/sched", "engine.go", false},

		{"errsink", "internal/trace", "render.go", true},
		{"errsink", "", "root.go", true},
		{"errsink", "cmd/casestudy", "main.go", false},
	}
	for _, tc := range cases {
		match, ok := byName[tc.analyzer]
		if !ok {
			t.Fatalf("no analyzer %q", tc.analyzer)
		}
		if got := match(tc.relDir, tc.base); got != tc.want {
			t.Errorf("%s match(%q, %q) = %v, want %v", tc.analyzer, tc.relDir, tc.base, got, tc.want)
		}
	}
}
