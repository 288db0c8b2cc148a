// Command benchjson converts `go test -bench` text output (read on
// stdin) into a stable JSON document for checked-in benchmark records
// such as BENCH_2.json.
//
// Usage:
//
//	go test -bench=... -benchmem -count=5 . | benchjson [-label NAME] [-merge FILE] > out.json
//
// Each benchmark's runs are aggregated (mean over -count repetitions);
// the per-metric unit strings from the benchmark line (ns/op, B/op,
// allocs/op and any custom b.ReportMetric units) are preserved. With
// -merge, the existing JSON document is read first and the new entry
// replaces, in place, the entry with the same label, or is appended
// when no entry has that label — that is how a before/after record
// keeps its baselines next to one current session. The raw benchmark
// text stays benchstat-friendly; keep it next to the JSON.
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

// Benchmark is one aggregated benchmark: metric name → mean value over
// all runs of that benchmark in the input.
type Benchmark struct {
	Name    string             `json:"name"`
	Runs    int                `json:"runs"`
	Iters   int64              `json:"iterations_per_run_mean"`
	Metrics map[string]float64 `json:"metrics"`
}

// Entry is one labeled benchmark session (e.g. "baseline" or
// "current"), holding every benchmark parsed from one input.
type Entry struct {
	Label      string      `json:"label"`
	GoMaxProcs int         `json:"gomaxprocs,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Document is the merged on-disk record.
type Document struct {
	Entries []Entry `json:"entries"`
}

func main() {
	var (
		label = flag.String("label", "current", "label for this benchmark session")
		merge = flag.String("merge", "", "existing JSON document to merge into, replacing the entry with the same label")
	)
	flag.Parse()

	entry, err := parse(os.Stdin, *label)
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
	doc.merge(entry)
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

// merge replaces the entry labeled e.Label with e, or appends e when
// no entry has that label.
func (d *Document) merge(e Entry) {
	for i := range d.Entries {
		if d.Entries[i].Label == e.Label {
			d.Entries[i] = e
			return
		}
	}
	d.Entries = append(d.Entries, e)
}

// parse reads `go test -bench` output: benchmark lines look like
//
//	BenchmarkName-8   1234   5678 ns/op   90 B/op   12 allocs/op
//
// with alternating value/unit pairs after the iteration count.
func parse(r io.Reader, label string) (Entry, error) {
	type agg struct {
		runs  int
		iters int64
		sums  map[string]float64
	}
	aggs := map[string]*agg{}
	var order []string
	entry := Entry{Label: label}

	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if procs, err := strconv.Atoi(name[i+1:]); err == nil {
				entry.GoMaxProcs = procs
				name = name[:i]
			}
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // header or summary line
		}
		a := aggs[name]
		if a == nil {
			a = &agg{sums: map[string]float64{}}
			aggs[name] = a
			order = append(order, name)
		}
		a.runs++
		a.iters += iters
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return Entry{}, fmt.Errorf("benchjson: bad value %q in %q", fields[i], sc.Text())
			}
			a.sums[fields[i+1]] += v
		}
	}
	if err := sc.Err(); err != nil {
		return Entry{}, err
	}
	if len(order) == 0 {
		return Entry{}, fmt.Errorf("benchjson: no benchmark lines on stdin")
	}
	sort.Strings(order)
	for _, name := range order {
		a := aggs[name]
		b := Benchmark{Name: name, Runs: a.runs, Iters: a.iters / int64(a.runs),
			Metrics: map[string]float64{}}
		for unit, sum := range a.sums {
			b.Metrics[unit] = sum / float64(a.runs)
		}
		entry.Benchmarks = append(entry.Benchmarks, b)
	}
	return entry, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
