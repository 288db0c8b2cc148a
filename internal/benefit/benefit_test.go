package benefit

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"rtoffload/internal/rtime"
	"rtoffload/internal/stats"
	"rtoffload/internal/task"
)

func ms(v float64) rtime.Duration { return rtime.FromMillisF(v) }

func sampleFn(t *testing.T) *Function {
	t.Helper()
	f, err := New(22.5,
		Point{R: ms(195), Value: 30.6},
		Point{R: ms(207), Value: 33.3},
		Point{R: ms(222), Value: 36.6},
		Point{R: ms(236), Value: 99},
	)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewValidation(t *testing.T) {
	if _, err := New(math.NaN()); err == nil {
		t.Error("NaN local accepted")
	}
	if _, err := New(1, Point{R: 0, Value: 2}); err == nil {
		t.Error("zero response point accepted")
	}
	if _, err := New(1, Point{R: 10, Value: 2}, Point{R: 10, Value: 3}); err == nil {
		t.Error("duplicate response accepted")
	}
	if _, err := New(5, Point{R: 10, Value: 4}); err == nil {
		t.Error("value below local accepted")
	}
	if _, err := New(1, Point{R: 10, Value: 3}, Point{R: 20, Value: 2}); err == nil {
		t.Error("decreasing value accepted")
	}
	if _, err := New(1, Point{R: 10, Value: math.NaN()}); err == nil {
		t.Error("NaN point accepted")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic on invalid input")
		}
	}()
	MustNew(5, Point{R: 1, Value: 0})
}

func TestAccessors(t *testing.T) {
	f := sampleFn(t)
	if f.Local() != 22.5 {
		t.Errorf("Local = %g", f.Local())
	}
	if n := len(f.OffloadPoints()); n != 4 {
		t.Errorf("OffloadPoints = %d", n)
	}
	// OffloadPoints returns a copy.
	pts := f.OffloadPoints()
	pts[0].Value = -1
	if f.points[1].Value == -1 {
		t.Error("OffloadPoints() aliases internal state")
	}
}

func TestAt(t *testing.T) {
	f := sampleFn(t)
	cases := []struct {
		r    rtime.Duration
		want float64
	}{
		{-ms(5), 22.5},
		{0, 22.5},
		{ms(194), 22.5},
		{ms(195), 30.6},
		{ms(200), 30.6},
		{ms(207), 33.3},
		{ms(236), 99},
		{ms(1000), 99},
	}
	for _, c := range cases {
		if got := f.At(c.r); got != c.want {
			t.Errorf("At(%v) = %g, want %g", c.r, got, c.want)
		}
	}
}

func TestAtMonotoneProperty(t *testing.T) {
	f := sampleFn(t)
	check := func(a, b int32) bool {
		x, y := rtime.Duration(a), rtime.Duration(b)
		if x > y {
			x, y = y, x
		}
		return f.At(x) <= f.At(y)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestFromTaskRoundTrip(t *testing.T) {
	tk := &task.Task{
		ID: 1, Period: ms(100), Deadline: ms(100), LocalWCET: ms(10),
		Setup: ms(2), Compensation: ms(10), LocalBenefit: 3,
		Levels: []task.Level{
			{Response: ms(20), Benefit: 5},
			{Response: ms(40), Benefit: 8},
		},
	}
	f := FromTask(tk)
	if len(f.points) != 3 || f.Local() != 3 || f.At(ms(20)) != 5 || f.At(ms(40)) != 8 {
		t.Fatalf("FromTask wrong: %v", f)
	}
	for j, p := range f.OffloadPoints() {
		if lv := tk.Levels[j]; p.R != lv.Response || p.Value != lv.Benefit {
			t.Errorf("point %d = %+v, want level %+v", j, p, lv)
		}
	}
}

func TestPerturb(t *testing.T) {
	f := sampleFn(t)
	g, err := f.Perturb(0.2)
	if err != nil {
		t.Fatal(err)
	}
	// Point at 195ms moves to 234ms; value unchanged.
	if got := g.At(ms(233)); got != 22.5 {
		t.Errorf("perturbed At(233ms) = %g, want local 22.5", got)
	}
	if got := g.At(ms(234)); got != 30.6 {
		t.Errorf("perturbed At(234ms) = %g, want 30.6", got)
	}
	// Negative x shifts earlier.
	h, err := f.Perturb(-0.2)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.At(ms(156)); got != 30.6 {
		t.Errorf("perturbed At(156ms) = %g, want 30.6", got)
	}
	// x = 0 must be the identity on points.
	id, err := f.Perturb(0)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range f.points {
		if id.points[i] != p {
			t.Errorf("Perturb(0) changed point %d", i)
		}
	}
}

func TestPerturbInvalid(t *testing.T) {
	f := sampleFn(t)
	for _, x := range []float64{-1, -1.5, math.NaN(), math.Inf(1)} {
		if _, err := f.Perturb(x); err == nil {
			t.Errorf("Perturb(%g) accepted", x)
		}
	}
}

func TestPerturbKeepsMonotonicity(t *testing.T) {
	// Very negative x crushes points together; strictness must survive.
	f := MustNew(0,
		Point{R: 100, Value: 0.1},
		Point{R: 101, Value: 0.2},
		Point{R: 102, Value: 0.3},
	)
	g, err := f.Perturb(-0.99)
	if err != nil {
		t.Fatal(err)
	}
	pts := g.OffloadPoints()
	for i := 1; i < len(pts); i++ {
		if pts[i].R <= pts[i-1].R {
			t.Fatalf("points not strictly increasing after Perturb: %v", pts)
		}
	}
}

func TestPerturbProperty(t *testing.T) {
	f := sampleFn(t)
	check := func(xRaw int16) bool {
		x := float64(xRaw%80) / 100 // x in (−0.8, 0.8)
		g, err := f.Perturb(x)
		if err != nil {
			return false
		}
		// Same number of points, same values, scaled responses.
		fp, gp := f.points, g.points
		if len(fp) != len(gp) {
			return false
		}
		for i := range fp {
			if gp[i].Value != fp[i].Value {
				return false
			}
			want := math.Round((1 + x) * float64(fp[i].R))
			if i > 0 && math.Abs(float64(gp[i].R)-want) > float64(len(fp)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestValidProbability(t *testing.T) {
	p := MustNew(0, Point{R: 10, Value: 0.4}, Point{R: 20, Value: 1})
	if !p.ValidProbability() {
		t.Error("valid CDF rejected")
	}
	if sampleFn(t).ValidProbability() {
		t.Error("PSNR function accepted as probability")
	}
}

func TestSampleResponseMatchesCDF(t *testing.T) {
	f := MustNew(0,
		Point{R: ms(100), Value: 0.3},
		Point{R: ms(150), Value: 0.6},
		Point{R: ms(200), Value: 0.9},
	)
	rng := stats.NewRNG(42)
	n := 200000
	var fail int
	within := map[rtime.Duration]int{ms(100): 0, ms(150): 0, ms(200): 0}
	for i := 0; i < n; i++ {
		resp, ok := f.SampleResponse(rng)
		if !ok {
			fail++
			continue
		}
		for r := range within {
			if resp <= r {
				within[r]++
			}
		}
	}
	if frac := float64(fail) / float64(n); math.Abs(frac-0.1) > 0.01 {
		t.Errorf("no-result fraction = %g, want ≈0.1", frac)
	}
	for r, want := range map[rtime.Duration]float64{ms(100): 0.3, ms(150): 0.6, ms(200): 0.9} {
		got := float64(within[r]) / float64(n)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("P(resp ≤ %v) = %g, want ≈%g", r, got, want)
		}
	}
}

func TestSampleResponseLocalProbability(t *testing.T) {
	// Non-zero local probability: that mass arrives instantly.
	f := MustNew(0.5, Point{R: ms(10), Value: 1})
	rng := stats.NewRNG(7)
	instant := 0
	for i := 0; i < 100000; i++ {
		resp, ok := f.SampleResponse(rng)
		if !ok {
			t.Fatal("CDF reaching 1 must always produce a result")
		}
		if resp == 0 {
			instant++
		}
		if resp > ms(10) {
			t.Fatalf("sample %v beyond last point", resp)
		}
	}
	if frac := float64(instant) / 100000; math.Abs(frac-0.5) > 0.01 {
		t.Errorf("instant fraction = %g, want ≈0.5", frac)
	}
}

func TestString(t *testing.T) {
	f := MustNew(1, Point{R: ms(10), Value: 2})
	s := f.String()
	if !strings.Contains(s, "G(0s)=1") || !strings.Contains(s, "G(10ms)=2") {
		t.Errorf("String() = %q", s)
	}
}
