package core

import (
	"encoding/json"
	"fmt"
	"io"

	"rtoffload/internal/task"
)

// decisionFile is the on-disk JSON schema for decisions: choices are
// stored by task ID so a decision can be rebound to a freshly loaded
// task set.
type decisionFile struct {
	Version int              `json:"version"`
	Solver  string           `json:"solver"`
	Exact   bool             `json:"exactVerified,omitempty"`
	Choices []decisionChoice `json:"choices"`
}

type decisionChoice struct {
	TaskID  int  `json:"taskID"`
	Offload bool `json:"offload"`
	Level   int  `json:"level,omitempty"`
}

const decisionVersion = 1

// WriteJSON serializes the decision (by task ID) for later rebinding
// with ReadDecisionJSON.
func (d *Decision) WriteJSON(w io.Writer) error {
	f := decisionFile{
		Version: decisionVersion,
		Solver:  d.Solver.String(),
		Exact:   d.ExactVerified,
	}
	for _, c := range d.Choices {
		f.Choices = append(f.Choices, decisionChoice{
			TaskID: c.Task.ID, Offload: c.Offload, Level: c.Level,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// ReadDecisionJSON loads a decision and rebinds it to the given task
// set. Every choice must reference an existing task and level; the
// rebuilt decision is re-verified: with the exact flag set the QPA
// test must pass, otherwise the exact Theorem-3 test.
func ReadDecisionJSON(r io.Reader, set task.Set) (*Decision, error) {
	if err := set.Validate(); err != nil {
		return nil, err
	}
	var f decisionFile
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("core: decoding decision: %w", err)
	}
	if f.Version != decisionVersion {
		return nil, fmt.Errorf("core: unsupported decision version %d", f.Version)
	}
	if len(f.Choices) != len(set) {
		return nil, fmt.Errorf("core: decision covers %d tasks, set has %d", len(f.Choices), len(set))
	}
	d := &Decision{ExactVerified: f.Exact}
	seen := map[int]bool{}
	for _, fc := range f.Choices {
		t := set.ByID(fc.TaskID)
		if t == nil {
			return nil, fmt.Errorf("core: decision references unknown task %d", fc.TaskID)
		}
		if seen[fc.TaskID] {
			return nil, fmt.Errorf("core: duplicate choice for task %d", fc.TaskID)
		}
		seen[fc.TaskID] = true
		ch := Choice{Task: t, Offload: fc.Offload, Level: fc.Level}
		if fc.Offload {
			if fc.Level < 0 || fc.Level >= len(t.Levels) {
				return nil, fmt.Errorf("core: task %d level %d out of range", fc.TaskID, fc.Level)
			}
			ch.Expected = t.EffectiveWeight() * t.Levels[fc.Level].Benefit
		} else {
			ch.Level = 0
			ch.Expected = t.EffectiveWeight() * t.LocalBenefit
		}
		d.Choices = append(d.Choices, ch)
		d.TotalExpected += ch.Expected
	}
	total, ok := theorem3Total(d.Choices)
	d.Theorem3Total = total
	if f.Exact {
		if err := VerifyExact(d); err != nil {
			return nil, fmt.Errorf("core: loaded decision fails the exact test: %w", err)
		}
	} else if !ok {
		return nil, fmt.Errorf("core: loaded decision fails Theorem 3 (total %s)", total.FloatString(4))
	}
	return d, nil
}
