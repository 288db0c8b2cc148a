package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// session parses bench text and fails the test on error.
func session(t *testing.T, text string) map[string]map[string]*Run {
	t.Helper()
	runs, err := parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return runs
}

// marshal encodes v as the ledger does.
func marshal(t *testing.T, v any) string {
	t.Helper()
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func TestMergeReplacesSameLabel(t *testing.T) {
	qpa := func(nsPerOp string) string {
		return "pkg: rtoffload\nBenchmarkQPA-2   \t 1000\t " + nsPerOp + " ns/op\t 64 B/op\t 2 allocs/op\n"
	}
	var doc Document
	doc.merge(session(t, qpa("600")), true)
	doc.merge(session(t, qpa("500")), false)
	doc.merge(session(t, qpa("400")), false)
	if len(doc.Layers) != 1 || len(doc.Layers[0].Benchmarks) != 1 {
		t.Fatalf("ledger after three merges:\n%s", marshal(t, doc))
	}
	b := doc.Layers[0].Benchmarks[0]
	if b.Baseline == nil || b.Baseline.Metrics["ns/op"] != 600 {
		t.Fatalf("baseline %+v, want the first session's 600 ns/op", b.Baseline)
	}
	if b.Current == nil || b.Current.Metrics["ns/op"] != 400 || b.Current.GoMaxProcs != 2 {
		t.Fatalf("current %+v, want the last session's 400 ns/op at GOMAXPROCS 2", b.Current)
	}
}

// TestParseKeysByPackage feeds two packages that share a benchmark
// name: each keeps its own mean under its own layer.
func TestParseKeysByPackage(t *testing.T) {
	var doc Document
	doc.merge(session(t, `goos: linux
pkg: rtoffload/internal/core
BenchmarkChurn/exact-2   10   300 ns/op
BenchmarkChurn/exact-2   10   500 ns/op
PASS
ok  	rtoffload/internal/core	1.0s
pkg: rtoffload
BenchmarkChurn/exact-2   20   7 ns/op   3 allocs/op
PASS
`), false)
	if len(doc.Layers) != 2 {
		t.Fatalf("%d layers, want 2:\n%s", len(doc.Layers), marshal(t, doc))
	}
	for i, want := range []struct {
		pkg   string
		runs  int
		nsOp  float64
		iters int64
	}{{"rtoffload", 1, 7, 20}, {"rtoffload/internal/core", 2, 400, 10}} {
		l := doc.Layers[i]
		if l.Pkg != want.pkg || len(l.Benchmarks) != 1 || l.Benchmarks[0].Name != "BenchmarkChurn/exact" {
			t.Fatalf("layer %d: %s", i, marshal(t, l))
		}
		c := l.Benchmarks[0].Current
		if c.Runs != want.runs || c.Metrics["ns/op"] != want.nsOp || c.Iters != want.iters {
			t.Errorf("layer %s: current %+v, want %d runs at %v ns/op, %d iterations",
				l.Pkg, c, want.runs, want.nsOp, want.iters)
		}
	}
}

// TestMergeReplacesOnlyRerunLayer re-runs one layer of a two-layer
// ledger: that layer's current runs are replaced (a benchmark the run
// lacks loses its current, and is dropped when it has no baseline
// either), while every baseline and the other layer are written back
// byte for byte.
func TestMergeReplacesOnlyRerunLayer(t *testing.T) {
	var doc Document
	doc.merge(session(t, `pkg: a
BenchmarkX-2  10  100 ns/op
BenchmarkGone-2  10  1 ns/op
pkg: b
BenchmarkX-2  10  200 ns/op
`), true)
	doc.merge(session(t, `pkg: a
BenchmarkX-2  10  90 ns/op
BenchmarkGone-2  10  2 ns/op
BenchmarkY-2  10  5 ns/op
pkg: b
BenchmarkX-2  10  180 ns/op
`), false)
	// Decode the ledger twice, as a merge into a file does.
	var before, after Document
	for _, d := range []*Document{&before, &after} {
		if err := json.Unmarshal([]byte(marshal(t, doc)), d); err != nil {
			t.Fatal(err)
		}
	}
	after.merge(session(t, "pkg: a\nBenchmarkX-2  10  80 ns/op\nBenchmarkZ-2  10  9 ns/op\n"), false)

	if got, want := marshal(t, after.Layers[1]), marshal(t, before.Layers[1]); got != want {
		t.Errorf("untouched layer changed:\n%s\nwant\n%s", got, want)
	}
	a := map[string]Benchmark{}
	var names []string
	for _, b := range after.Layers[0].Benchmarks {
		a[b.Name] = b
		names = append(names, b.Name)
	}
	if got := strings.Join(names, ","); got != "BenchmarkGone,BenchmarkX,BenchmarkZ" {
		t.Fatalf("re-run layer holds %s, want BenchmarkGone,BenchmarkX,BenchmarkZ", got)
	}
	for _, b := range before.Layers[0].Benchmarks {
		if b.Baseline == nil {
			continue
		}
		if got, want := marshal(t, a[b.Name].Baseline), marshal(t, b.Baseline); got != want {
			t.Errorf("%s baseline changed:\n%s\nwant\n%s", b.Name, got, want)
		}
	}
	if c := a["BenchmarkX"].Current; c == nil || c.Metrics["ns/op"] != 80 {
		t.Errorf("BenchmarkX current %+v, want the re-run's 80 ns/op", c)
	}
	if c := a["BenchmarkGone"].Current; c != nil {
		t.Errorf("BenchmarkGone keeps a current %+v the re-run lacks", c)
	}
	if z := a["BenchmarkZ"]; z.Baseline != nil || z.Current == nil || z.Current.Metrics["ns/op"] != 9 {
		t.Errorf("new BenchmarkZ = %s", marshal(t, z))
	}
}

// TestBaselineMergeSetsOnlyInputBenchmarks records a baseline for one
// benchmark of a layer: the other benchmark keeps its baseline, and
// every current stays.
func TestBaselineMergeSetsOnlyInputBenchmarks(t *testing.T) {
	var doc Document
	doc.merge(session(t, "pkg: a\nBenchmarkX-2  10  100 ns/op\nBenchmarkY-2  10  7 ns/op\n"), true)
	doc.merge(session(t, "pkg: a\nBenchmarkX-2  10  90 ns/op\nBenchmarkY-2  10  6 ns/op\n"), false)
	doc.merge(session(t, "pkg: a\nBenchmarkX-2  10  120 ns/op\n"), true)
	if len(doc.Layers) != 1 || len(doc.Layers[0].Benchmarks) != 2 {
		t.Fatalf("ledger after the merges:\n%s", marshal(t, doc))
	}
	for _, want := range []struct {
		name              string
		baseline, current float64
	}{{"BenchmarkX", 120, 90}, {"BenchmarkY", 7, 6}} {
		var b *Benchmark
		for i := range doc.Layers[0].Benchmarks {
			if doc.Layers[0].Benchmarks[i].Name == want.name {
				b = &doc.Layers[0].Benchmarks[i]
			}
		}
		if b == nil || b.Baseline == nil || b.Current == nil ||
			b.Baseline.Metrics["ns/op"] != want.baseline || b.Current.Metrics["ns/op"] != want.current {
			t.Errorf("%s = %s, want baseline %v and current %v ns/op",
				want.name, marshal(t, b), want.baseline, want.current)
		}
	}
}

func TestParseRejectsBenchmarkWithoutPackage(t *testing.T) {
	if _, err := parse(strings.NewReader("BenchmarkX-2  10  100 ns/op\n")); err == nil {
		t.Error("benchmark line without a pkg: line accepted")
	}
	if _, err := parse(strings.NewReader("pkg: a\nPASS\n")); err == nil {
		t.Error("input without benchmark lines accepted")
	}
}
