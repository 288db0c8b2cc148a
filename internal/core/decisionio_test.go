package core

import (
	"bytes"
	"math/big"
	"strings"
	"testing"

	"rtoffload/internal/task"
)

func TestDecisionJSONRoundTrip(t *testing.T) {
	set := twoTaskSet()
	d, err := Decide(set, Options{Solver: SolverDP})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDecisionJSON(&buf, set)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalExpected != d.TotalExpected {
		t.Fatalf("expected %g vs %g", got.TotalExpected, d.TotalExpected)
	}
	if got.Theorem3Total.Cmp(d.Theorem3Total) != 0 {
		t.Fatalf("totals differ: %v vs %v", got.Theorem3Total, d.Theorem3Total)
	}
	for i := range d.Choices {
		a, b := d.Choices[i], got.Choices[i]
		if a.Task.ID != b.Task.ID || a.Offload != b.Offload || a.Level != b.Level {
			t.Fatalf("choice %d differs: %+v vs %+v", i, a, b)
		}
	}
	if got.Theorem3Total.Cmp(big.NewRat(1, 1)) > 0 {
		t.Fatal("round-tripped decision over capacity")
	}
}

func TestDecisionJSONExactFlag(t *testing.T) {
	set := task.Set{largeBudgetTask(1), largeBudgetTask(2)}
	base, err := Decide(set, Options{Solver: SolverDP})
	if err != nil {
		t.Fatal(err)
	}
	improved, err := ImproveWithExact(base, set)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := improved.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDecisionJSON(&buf, set)
	if err != nil {
		t.Fatal(err)
	}
	if !got.ExactVerified {
		t.Fatal("exact flag lost")
	}
	if got.Theorem3Total.Cmp(big.NewRat(1, 1)) <= 0 {
		t.Fatal("exact-verified decision expected to exceed Theorem 3")
	}
}

func TestReadDecisionJSONRejections(t *testing.T) {
	set := twoTaskSet()
	d, _ := Decide(set, Options{Solver: SolverDP})

	reject := func(mutate func(*bytes.Buffer) string, want string) {
		t.Helper()
		var buf bytes.Buffer
		if err := d.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		s := mutate(&buf)
		_, err := ReadDecisionJSON(strings.NewReader(s), set)
		if err == nil {
			t.Fatalf("%s: accepted", want)
		}
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: got %v", want, err)
		}
	}

	reject(func(b *bytes.Buffer) string {
		return strings.Replace(b.String(), `"version": 1`, `"version": 9`, 1)
	}, "version")
	reject(func(b *bytes.Buffer) string {
		return strings.Replace(b.String(), `"taskID": 1`, `"taskID": 99`, 1)
	}, "unknown task")
	reject(func(b *bytes.Buffer) string {
		return strings.Replace(b.String(), `"taskID": 2`, `"taskID": 1`, 1)
	}, "duplicate")
	reject(func(b *bytes.Buffer) string {
		// level 0 is omitted by omitempty; inject an invalid one.
		return strings.Replace(b.String(), `"offload": true`, `"offload": true, "level": 7`, 1)
	}, "out of range")

	// Length mismatch: decision for a different set.
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDecisionJSON(&buf, set[:1]); err == nil {
		t.Error("length mismatch accepted")
	}

	// A decision whose choices violate Theorem 3 on the rebound set:
	// tamper the JSON to offload both tasks at the heavy level... τ1
	// level 1 (w = 35/40) plus τ2 level 0 (35/80) exceeds 1.
	var buf2 bytes.Buffer
	if err := d.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	s := strings.Replace(buf2.String(), `"offload": true`, `"offload": true, "level": 1`, 1)
	if _, err := ReadDecisionJSON(strings.NewReader(s), set); err == nil {
		t.Error("over-capacity decision accepted")
	}

	// Garbage input.
	if _, err := ReadDecisionJSON(strings.NewReader("{"), set); err == nil {
		t.Error("garbage accepted")
	}
}
