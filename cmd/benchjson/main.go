// Command benchjson converts `go test -bench` text output (read on
// stdin) into the checked-in benchmark ledger, BENCH.json.
//
// Usage:
//
//	go test -bench=... -benchmem -count=5 ./pkg... | benchjson [-label current|baseline] [-merge FILE] > out.json
//
// The ledger is keyed by layer: the Go package of each benchmark, read
// from the `pkg:` lines `go test` prints before a package's results.
// Within a layer every benchmark appears once, with at most one
// baseline and one current run. Each run is aggregated over the
// -count repetitions (mean per metric); the unit strings from the
// benchmark line (ns/op, B/op, allocs/op and any custom
// b.ReportMetric units) are preserved.
//
// With -merge, the existing ledger is read first. A `current` merge
// treats every layer on stdin as re-run: its current runs are replaced
// by the new ones, a benchmark the input lacks loses its current, and
// a benchmark left with neither run is dropped. A `baseline` merge
// sets the baseline of exactly the benchmarks on stdin, so a baseline
// for some of a layer's benchmarks keeps the others'. The other slot
// and every other layer are written back unchanged. The raw benchmark text stays benchstat-friendly;
// keep it next to the JSON.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Run is one benchmark's session: metric unit → mean value over Runs
// repetitions.
type Run struct {
	// Source names the ledger file a run was migrated from; Label is
	// the session label it had there. Both are empty for a run
	// benchjson recorded itself.
	Source string `json:"source,omitempty"`
	Label  string `json:"label,omitempty"`
	// Stale marks a run whose benchmark code is gone.
	Stale      bool               `json:"stale,omitempty"`
	GoMaxProcs int                `json:"gomaxprocs,omitempty"`
	Runs       int                `json:"runs"`
	Iters      int64              `json:"iterations_per_run_mean"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Benchmark is one benchmark of a layer with its recorded runs.
type Benchmark struct {
	Name     string `json:"name"`
	Baseline *Run   `json:"baseline,omitempty"`
	Current  *Run   `json:"current,omitempty"`
}

// Layer holds the benchmarks of one Go package, sorted by name.
type Layer struct {
	Pkg        string      `json:"pkg"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Document is the on-disk ledger, its layers sorted by package.
type Document struct {
	Layers []Layer `json:"layers"`
}

func main() {
	var (
		label = flag.String("label", "current", "ledger slot the runs on stdin fill: current or baseline")
		merge = flag.String("merge", "", "existing ledger to merge into: current replaces every re-run layer's, baseline sets the input's benchmarks'")
	)
	flag.Parse()
	if *label != "current" && *label != "baseline" {
		fatal(fmt.Errorf("benchjson: -label %q, want current or baseline", *label))
	}

	runs, err := parse(os.Stdin)
	if err != nil {
		fatal(err)
	}
	var doc Document
	if *merge != "" {
		raw, err := os.ReadFile(*merge)
		if err != nil {
			fatal(err)
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			fatal(fmt.Errorf("benchjson: %s: %w", *merge, err))
		}
	}
	doc.merge(runs, *label == "baseline")
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

// slot returns the run a merge with the given label fills.
func (b *Benchmark) slot(baseline bool) **Run {
	if baseline {
		return &b.Baseline
	}
	return &b.Current
}

// merge records runs (package → benchmark name → run) into the
// baseline or current slot of their layers, as the package comment
// describes.
func (d *Document) merge(runs map[string]map[string]*Run, baseline bool) {
	for pkg, byName := range runs {
		i := sort.Search(len(d.Layers), func(i int) bool { return d.Layers[i].Pkg >= pkg })
		if i == len(d.Layers) || d.Layers[i].Pkg != pkg {
			d.Layers = append(d.Layers, Layer{})
			copy(d.Layers[i+1:], d.Layers[i:])
			d.Layers[i] = Layer{Pkg: pkg}
		}
		layer := &d.Layers[i]
		kept := layer.Benchmarks[:0]
		for _, b := range layer.Benchmarks {
			if r, ok := byName[b.Name]; ok || !baseline {
				*b.slot(baseline) = r
			}
			delete(byName, b.Name)
			if b.Baseline != nil || b.Current != nil {
				kept = append(kept, b)
			}
		}
		for name, r := range byName {
			b := Benchmark{Name: name}
			*b.slot(baseline) = r
			kept = append(kept, b)
		}
		sort.Slice(kept, func(i, j int) bool { return kept[i].Name < kept[j].Name })
		layer.Benchmarks = kept
	}
}

// parse reads `go test -bench` output: each package's results follow
// a `pkg: PATH` line, and benchmark lines look like
//
//	BenchmarkName-8   1234   5678 ns/op   90 B/op   12 allocs/op
//
// with alternating value/unit pairs after the iteration count. It
// returns the mean run of every benchmark, keyed by package and name.
func parse(r io.Reader) (map[string]map[string]*Run, error) {
	runs := map[string]map[string]*Run{}
	pkg := ""
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if p, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(p)
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // header or summary line
		}
		if pkg == "" {
			return nil, fmt.Errorf("benchjson: benchmark line before any pkg: line: %q", line)
		}
		name, procs := fields[0], 0
		if i := strings.LastIndex(name, "-"); i > 0 {
			if p, err := strconv.Atoi(name[i+1:]); err == nil {
				name, procs = name[:i], p
			}
		}
		if runs[pkg] == nil {
			runs[pkg] = map[string]*Run{}
		}
		run := runs[pkg][name]
		if run == nil {
			run = &Run{Metrics: map[string]float64{}}
			runs[pkg][name] = run
		}
		run.GoMaxProcs = procs
		run.Runs++
		run.Iters += iters
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchjson: bad value %q in %q", fields[i], line)
			}
			run.Metrics[fields[i+1]] += v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("benchjson: no benchmark lines on stdin")
	}
	for _, byName := range runs {
		for _, run := range byName {
			run.Iters /= int64(run.Runs)
			for unit, sum := range run.Metrics {
				run.Metrics[unit] = sum / float64(run.Runs)
			}
		}
	}
	return runs, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
