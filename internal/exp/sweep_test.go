package exp

import (
	"errors"
	"reflect"
	"testing"
)

func TestSweepLevelsGroupsInDrawOrder(t *testing.T) {
	for _, workers := range []int{1, 8} {
		// Level 1 produces no system at all; level 0 and 2 skip their
		// odd draws.
		lv, err := sweepLevels(3, 4, workers, func(li, di int) ([]float64, error) {
			if li == 1 || di%2 == 1 {
				return nil, nil
			}
			return []float64{float64(10*li + di), 1}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(lv) != 3 {
			t.Fatalf("workers %d: %d levels, want 3", workers, len(lv))
		}
		want := []level{{{0, 1}, {2, 1}}, nil, {{20, 1}, {22, 1}}}
		if !reflect.DeepEqual(lv, want) {
			t.Fatalf("workers %d: got %v, want %v", workers, lv, want)
		}
		if got := lv[2].col(0); !reflect.DeepEqual(got, []float64{20, 22}) {
			t.Errorf("col = %v", got)
		}
		if lv[2].count() != 2 || lv[2].sum(0) != 42 || lv[2].mean(0) != 21 || lv[2].mean(1) != 1 {
			t.Errorf("level 2: count %d sum %g mean %g", lv[2].count(), lv[2].sum(0), lv[2].mean(0))
		}
		empty := lv[1]
		if empty.count() != 0 || empty.sum(0) != 0 || empty.mean(0) != 0 || len(empty.col(0)) != 0 {
			t.Errorf("empty level: count %d sum %g mean %g", empty.count(), empty.sum(0), empty.mean(0))
		}
	}
}

func TestSweepLevelsRejectsEmptyGrid(t *testing.T) {
	draw := func(li, di int) ([]float64, error) {
		t.Fatalf("draw (%d, %d) ran on an empty grid", li, di)
		return nil, nil
	}
	for _, g := range [][2]int{{2, 0}, {2, -1}, {0, 3}, {-1, 3}} {
		if _, err := sweepLevels(g[0], g[1], 1, draw); err == nil {
			t.Errorf("levels %d × per %d accepted", g[0], g[1])
		}
	}
}

// The error reported is the lowest failing draw in grid order
// (level-major), whatever the worker count.
func TestSweepLevelsLowestIndexError(t *testing.T) {
	errs := map[[2]int]error{
		{0, 4}: errors.New("draw 0/4"),
		{1, 1}: errors.New("draw 1/1"),
		{2, 0}: errors.New("draw 2/0"),
	}
	for _, workers := range []int{1, 8} {
		_, err := sweepLevels(3, 5, workers, func(li, di int) ([]float64, error) {
			if err := errs[[2]int{li, di}]; err != nil {
				return nil, err
			}
			return []float64{1}, nil
		})
		if !errors.Is(err, errs[[2]int{0, 4}]) {
			t.Fatalf("workers %d: err = %v, want draw 0/4", workers, err)
		}
	}
}
