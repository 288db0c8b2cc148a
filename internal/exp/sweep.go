package exp

import (
	"fmt"

	"rtoffload/internal/parallel"
)

// level holds the draws of one sweep level that produced a system,
// in draw order; each draw is one row of float64 columns. Outcomes
// are 0/1 columns, so a rate is mean and a count is sum.
type level [][]float64

// count is the number of draws that produced a system.
func (l level) count() int { return len(l) }

// sum adds column c over the draws in draw order, starting from 0 —
// the summation order every table of the package is pinned to.
func (l level) sum(c int) float64 {
	s := 0.0
	for _, d := range l {
		s += d[c]
	}
	return s
}

// mean is sum(c)/count, or 0 for a level without draws.
func (l level) mean(c int) float64 {
	if len(l) == 0 {
		return 0
	}
	return l.sum(c) / float64(len(l))
}

// col returns column c in draw order.
func (l level) col(c int) []float64 {
	out := make([]float64, len(l))
	for i, d := range l {
		out[i] = d[c]
	}
	return out
}

// sweepLevels fans draw out over the levels × per grid on at most
// workers goroutines (0 = GOMAXPROCS) and groups the results by level
// in draw order. A draw returns nil when it produced no system; those
// are dropped. An empty grid (levels or per not positive) is an
// error. On failure the error of the lowest failing (li, di) in grid
// order is returned, whatever the worker count.
//
// Seeds are not derived here: each draw derives its own RNG from its
// (li, di) with the stream and index list its experiment has always
// used, so folding an experiment onto the primitive leaves its output
// bit-identical.
func sweepLevels(levels, per, workers int, draw func(li, di int) ([]float64, error)) ([]level, error) {
	if levels <= 0 || per <= 0 {
		return nil, fmt.Errorf("exp: sweep needs at least one level and one draw per level, got %d × %d", levels, per)
	}
	draws, err := parallel.Map(workers, levels*per, func(i int) ([]float64, error) {
		return draw(i/per, i%per)
	})
	if err != nil {
		return nil, err
	}
	out := make([]level, levels)
	for i, d := range draws {
		if d != nil {
			out[i/per] = append(out[i/per], d)
		}
	}
	return out, nil
}

// bit encodes an outcome as a 0/1 column value.
func bit(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
