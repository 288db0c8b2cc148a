package main

import (
	"strings"
	"testing"
)

func TestMergeReplacesSameLabel(t *testing.T) {
	session := func(nsPerOp string) Entry {
		t.Helper()
		e, err := parse(strings.NewReader(
			"BenchmarkQPA-2   \t 1000\t "+nsPerOp+" ns/op\t 64 B/op\t 2 allocs/op\n"), "current")
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	doc := Document{Entries: []Entry{{Label: "baseline"}}}
	doc.merge(session("500"))
	doc.merge(session("400"))
	var labels []string
	for _, e := range doc.Entries {
		labels = append(labels, e.Label)
	}
	if got := strings.Join(labels, ","); got != "baseline,current" {
		t.Fatalf("labels after two merges = %s, want baseline,current", got)
	}
	if ns := doc.Entries[1].Benchmarks[0].Metrics["ns/op"]; ns != 400 {
		t.Fatalf("current ns/op = %v, want the second session's 400", ns)
	}
}
