// Package benefit implements the discretized benefit functions Gi(ri)
// of the paper (§3.2).
//
// A Function maps an estimated worst-case response-time budget r to the
// benefit obtained when the offloaded result arrives within r. It is a
// non-decreasing step function with a fixed number of points; the point
// at r = 0 holds the benefit of pure local execution. Benefit values
// can be anything non-decreasing — the paper uses success probabilities
// (simulation study) and PSNR image qualities (case study).
//
// Because a probability-valued Function is exactly a response-time CDF,
// the same object both drives the offloading decision and, via
// SampleResponse, generates ground-truth response times for the
// simulator. The Perturb method produces the estimator's erroneous view
// G((1+x)·r) used by the paper's §6.2 sensitivity study.
package benefit

import (
	"fmt"
	"math"
	"sort"

	"rtoffload/internal/rtime"
	"rtoffload/internal/stats"
	"rtoffload/internal/task"
)

// Point is one discrete point of a benefit function: offloading with
// response-time budget R yields Value.
type Point struct {
	R     rtime.Duration
	Value float64
}

// Function is a discretized, non-decreasing benefit function. The
// zero value is unusable; construct with New or a From* constructor.
type Function struct {
	// points are sorted by strictly increasing R; points[0].R == 0 and
	// holds the local-execution benefit Gi(0).
	points []Point
}

// New builds a benefit function from the local-execution benefit and
// the offloading points. Points must have strictly increasing positive
// R and non-decreasing values starting at or above local.
func New(local float64, pts ...Point) (*Function, error) {
	if math.IsNaN(local) {
		return nil, fmt.Errorf("benefit: NaN local benefit")
	}
	f := &Function{points: make([]Point, 0, len(pts)+1)}
	f.points = append(f.points, Point{R: 0, Value: local})
	prev := Point{R: 0, Value: local}
	for i, p := range pts {
		if math.IsNaN(p.Value) {
			return nil, fmt.Errorf("benefit: NaN value at point %d", i)
		}
		if p.R <= prev.R {
			return nil, fmt.Errorf("benefit: point %d response %v not increasing (previous %v)", i, p.R, prev.R)
		}
		if p.Value < prev.Value {
			return nil, fmt.Errorf("benefit: point %d value %g decreases (previous %g)", i, p.Value, prev.Value)
		}
		f.points = append(f.points, p)
		prev = p
	}
	return f, nil
}

// MustNew is New but panics on error; for tables of constants.
func MustNew(local float64, pts ...Point) *Function {
	f, err := New(local, pts...)
	if err != nil {
		panic(err)
	}
	return f
}

// FromTask extracts the benefit function carried by a task's levels.
func FromTask(t *task.Task) *Function {
	pts := make([]Point, len(t.Levels))
	for i, lv := range t.Levels {
		pts[i] = Point{R: lv.Response, Value: lv.Benefit}
	}
	return MustNew(t.LocalBenefit, pts...)
}

// OffloadPoints returns a copy of the points with R > 0.
func (f *Function) OffloadPoints() []Point {
	return append([]Point(nil), f.points[1:]...)
}

// Local returns Gi(0).
func (f *Function) Local() float64 { return f.points[0].Value }

// At evaluates the step function: the value of the largest point with
// R ≤ r. At(r) for r < 0 returns the local value.
func (f *Function) At(r rtime.Duration) float64 {
	// Binary search for the first point with R > r.
	i := sort.Search(len(f.points), func(i int) bool { return f.points[i].R > r })
	if i == 0 {
		return f.points[0].Value
	}
	return f.points[i-1].Value
}

// Perturb returns the estimator's view of the function under
// estimation-accuracy ratio x (§6.2): each discrete point moves from
// ri,j to (1+x)·ri,j while keeping its value, i.e. the estimator
// believes the benefit of point j is only attainable with budget
// (1+x)·ri,j. Negative x (response times under-estimated) shifts the
// points earlier — the probability of success within a given budget is
// over-estimated; positive x the reverse. x must be > −1.
func (f *Function) Perturb(x float64) (*Function, error) {
	if x <= -1 || math.IsNaN(x) || math.IsInf(x, 0) {
		return nil, fmt.Errorf("benefit: invalid accuracy ratio %g", x)
	}
	pts := make([]Point, 0, len(f.points)-1)
	prev := rtime.Duration(0)
	for _, p := range f.points[1:] {
		r := rtime.Duration(math.Round((1 + x) * float64(p.R)))
		if r <= prev { // keep strict monotonicity after rounding
			r = prev + 1
		}
		prev = r
		pts = append(pts, Point{R: r, Value: p.Value})
	}
	return New(f.points[0].Value, pts...)
}

// SampleResponse treats the function's values as the CDF of the server
// response time (valid only when all values lie in [0,1] and the local
// value is the probability of "free" success, normally 0). It draws a
// response time distributed according to that CDF: with probability
// 1 − Max() the result never arrives in useful time and ok is false.
// Within a step interval the sample is uniform, which makes sampled
// responses agree with the CDF at every discrete point.
func (f *Function) SampleResponse(rng *stats.RNG) (resp rtime.Duration, ok bool) {
	u := rng.Float64()
	pts := f.points
	if u >= pts[len(pts)-1].Value {
		return 0, false
	}
	// Find the first point whose cumulative probability exceeds u.
	i := sort.Search(len(pts), func(i int) bool { return pts[i].Value > u })
	if i == 0 {
		// u below the local point's probability: immediate success.
		return 0, true
	}
	lo, hi := pts[i-1].R, pts[i].R
	if hi <= lo {
		return hi, true
	}
	return lo + rtime.Duration(rng.Int64N(int64(hi-lo))) + 1, true
}

// ValidProbability reports whether the function can act as a CDF:
// every value within [0, 1].
func (f *Function) ValidProbability() bool {
	for _, p := range f.points {
		if p.Value < 0 || p.Value > 1 {
			return false
		}
	}
	return true
}

// String renders the points compactly, e.g. "G(0)=22.5 G(195.3ms)=30.6 …".
func (f *Function) String() string {
	s := ""
	for i, p := range f.points {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("G(%v)=%.4g", p.R, p.Value)
	}
	return s
}
