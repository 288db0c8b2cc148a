package task

import (
	"math"
	"math/big"
	"strings"
	"testing"

	"rtoffload/internal/rtime"
)

// validTask returns a correct offloadable task for mutation tests.
func validTask() *Task {
	return &Task{
		ID:           1,
		Name:         "vision",
		Period:       rtime.FromMillis(100),
		Deadline:     rtime.FromMillis(100),
		LocalWCET:    rtime.FromMillis(30),
		Setup:        rtime.FromMillis(5),
		Compensation: rtime.FromMillis(30),
		PostProcess:  rtime.FromMillis(2),
		LocalBenefit: 10,
		Levels: []Level{
			{Response: rtime.FromMillis(20), Benefit: 15},
			{Response: rtime.FromMillis(40), Benefit: 20},
		},
	}
}

func TestValidateOK(t *testing.T) {
	if err := validTask().Validate(); err != nil {
		t.Fatalf("valid task rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Task)
		want   string
	}{
		{"zero period", func(x *Task) { x.Period = 0 }, "period"},
		{"zero deadline", func(x *Task) { x.Deadline = 0 }, "deadline"},
		{"deadline > period", func(x *Task) { x.Deadline = x.Period + 1 }, "exceeds period"},
		{"zero WCET", func(x *Task) { x.LocalWCET = 0 }, "local WCET"},
		{"WCET > deadline", func(x *Task) { x.LocalWCET = x.Deadline + 1 }, "exceeds deadline"},
		{"negative setup", func(x *Task) { x.Setup = -1 }, "negative WCET"},
		{"zero level response", func(x *Task) { x.Levels[0].Response = 0 }, "must be positive"},
		{"non-increasing responses", func(x *Task) { x.Levels[1].Response = x.Levels[0].Response }, "strictly increasing"},
		{"benefit below local", func(x *Task) { x.Levels[0].Benefit = 5 }, "below local benefit"},
		{"decreasing benefit", func(x *Task) { x.Levels[1].Benefit = 12 }, "decreases"},
		{"no setup for offloadable", func(x *Task) { x.Setup = 0 }, "setup WCET"},
		{"no compensation", func(x *Task) { x.Compensation = 0 }, "compensation WCET"},
		{"post > compensation", func(x *Task) { x.PostProcess = x.Compensation + 1 }, "post-processing"},
		{"negative payload", func(x *Task) { x.Levels[0].PayloadBytes = -1 }, "payload"},
		{"NaN weight", func(x *Task) { x.Weight = math.NaN() }, "weight NaN must be finite"},
		{"+Inf weight", func(x *Task) { x.Weight = math.Inf(1) }, "weight +Inf must be finite"},
		{"-Inf weight", func(x *Task) { x.Weight = math.Inf(-1) }, "weight -Inf must be finite"},
		{"NaN local benefit", func(x *Task) { x.LocalBenefit = math.NaN() }, "local benefit NaN"},
		{"+Inf local benefit", func(x *Task) { x.LocalBenefit = math.Inf(1) }, "local benefit +Inf"},
		{"-Inf local benefit", func(x *Task) { x.LocalBenefit = math.Inf(-1) }, "local benefit -Inf"},
		{"NaN level benefit", func(x *Task) { x.Levels[1].Benefit = math.NaN() }, "level 1: benefit NaN"},
		{"+Inf level benefit", func(x *Task) { x.Levels[1].Benefit = math.Inf(1) }, "level 1: benefit +Inf"},
		{"-Inf level benefit", func(x *Task) { x.Levels[0].Benefit = math.Inf(-1) }, "level 0: benefit -Inf"},
		{"weighted benefit overflow", func(x *Task) { x.Weight = 1e300; x.Levels[1].Benefit = 1e300 }, "level 1: benefit 1e+300 (weight 1e+300) must be finite"},
	}
	for _, c := range cases {
		x := validTask()
		c.mutate(x)
		err := x.Validate()
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestConstrainedDeadlineAllowed(t *testing.T) {
	x := validTask()
	x.Deadline = x.Period / 2
	x.LocalWCET = x.Deadline / 2
	if err := x.Validate(); err != nil {
		t.Fatalf("constrained-deadline task rejected: %v", err)
	}
}

func TestPerLevelOverrides(t *testing.T) {
	x := validTask()
	x.Levels[0].Setup = rtime.FromMillis(3)
	x.Levels[0].Compensation = rtime.FromMillis(25)
	x.Levels[0].PostProcess = rtime.FromMillis(1)
	if got := x.SetupAt(0); got != rtime.FromMillis(3) {
		t.Errorf("SetupAt(0) = %v", got)
	}
	if got := x.SetupAt(1); got != rtime.FromMillis(5) {
		t.Errorf("SetupAt(1) fallback = %v", got)
	}
	if got := x.CompensationAt(0); got != rtime.FromMillis(25) {
		t.Errorf("CompensationAt(0) = %v", got)
	}
	if got := x.PostProcessAt(0); got != rtime.FromMillis(1) {
		t.Errorf("PostProcessAt(0) = %v", got)
	}
	if got := x.PostProcessAt(1); got != rtime.FromMillis(2) {
		t.Errorf("PostProcessAt(1) fallback = %v", got)
	}
}

func TestUtilizationDensity(t *testing.T) {
	x := validTask()
	if u := x.Utilization(); u.Cmp(big.NewRat(3, 10)) != 0 {
		t.Errorf("utilization = %v, want 3/10", u)
	}
	x.Deadline = rtime.FromMillis(60)
	if d := x.Density(); d.Cmp(big.NewRat(1, 2)) != 0 {
		t.Errorf("density = %v, want 1/2", d)
	}
}

func TestOffloadWeight(t *testing.T) {
	x := validTask()
	// w = (5+30)ms / (100-20)ms = 35/80 = 7/16.
	w, err := x.OffloadWeight(0)
	if err != nil {
		t.Fatal(err)
	}
	if w.Cmp(big.NewRat(7, 16)) != 0 {
		t.Errorf("OffloadWeight(0) = %v, want 7/16", w)
	}
	// Per-level override changes the weight.
	x.Levels[1].Setup = rtime.FromMillis(10)
	w, err = x.OffloadWeight(1)
	if err != nil {
		t.Fatal(err)
	}
	if w.Cmp(big.NewRat(40, 60)) != 0 {
		t.Errorf("OffloadWeight(1) = %v, want 2/3", w)
	}
}

func TestOffloadWeightErrors(t *testing.T) {
	x := validTask()
	if _, err := x.OffloadWeight(-1); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := x.OffloadWeight(5); err == nil {
		t.Error("out-of-range index accepted")
	}
	x.Levels[1].Response = x.Deadline
	if _, err := x.OffloadWeight(1); err == nil {
		t.Error("response == deadline accepted")
	}
}

func TestEffectiveWeight(t *testing.T) {
	x := validTask()
	if x.EffectiveWeight() != 1 {
		t.Errorf("default weight = %g", x.EffectiveWeight())
	}
	x.Weight = 3
	if x.EffectiveWeight() != 3 {
		t.Errorf("weight = %g", x.EffectiveWeight())
	}
}

func TestSetValidate(t *testing.T) {
	a, b := validTask(), validTask()
	b.ID = 2
	s := Set{a, b}
	if err := s.Validate(); err != nil {
		t.Fatalf("valid set rejected: %v", err)
	}
	b.ID = 1
	if err := s.Validate(); err == nil {
		t.Error("duplicate IDs accepted")
	}
	if err := (Set{nil}).Validate(); err == nil {
		t.Error("nil task accepted")
	}
}

func TestSetHelpers(t *testing.T) {
	a, b := validTask(), validTask()
	b.ID = 2
	b.LocalWCET = rtime.FromMillis(10)
	s := Set{a, b}
	// 30/100 + 10/100 = 2/5.
	if u := s.TotalUtilization(); u.Cmp(big.NewRat(2, 5)) != 0 {
		t.Errorf("TotalUtilization = %v", u)
	}
	if s.ByID(2) != b {
		t.Error("ByID(2) wrong")
	}
	if s.ByID(99) != nil {
		t.Error("ByID(99) should be nil")
	}
}

func TestClone(t *testing.T) {
	s := Set{validTask()}
	c := s.Clone()
	c[0].Levels[0].Benefit = 999
	c[0].LocalWCET = 1
	if s[0].Levels[0].Benefit == 999 || s[0].LocalWCET == 1 {
		t.Fatal("Clone shares memory with original")
	}
}

func TestString(t *testing.T) {
	x := validTask()
	if got := x.String(); !strings.Contains(got, "vision") || !strings.Contains(got, "levels=2") {
		t.Errorf("String() = %q", got)
	}
	x.Name = ""
	if got := x.String(); !strings.Contains(got, "τ1") {
		t.Errorf("unnamed String() = %q", got)
	}
}
