package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer's public function. Spans of one
// request or campaign cell share an ID; Parent indexes the enclosing
// span (−1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	ID     int64  `json:"id"`
}

// tracer keeps spans in memory and writes them out once the run ends.
// A nil *tracer records nothing, so untraced code paths share the calls.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent int32, id int64) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), Parent: parent, ID: id})
	return int32(len(t.spans) - 1)
}

// end closes span i and returns its duration.
func (t *tracer) end(i int32) time.Duration {
	if t == nil || i < 0 {
		return 0
	}
	s := &t.spans[i]
	s.End = int64(time.Since(t.epoch))
	return time.Duration(s.End - s.Start)
}

// timed runs fn inside a span and returns its duration.
func (t *tracer) timed(name string, parent int32, id int64, fn func()) time.Duration {
	i := t.begin(name, parent, id)
	fn()
	return t.end(i)
}

// layerTotals sums, per span name, the self time (duration minus the
// part its children cover; siblings never overlap, as every call is
// sequential) of the spans, and counts them.
func (t *tracer) layerTotals() (map[string]time.Duration, map[string]int) {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	sum := map[string]time.Duration{}
	n := map[string]int{}
	for i, s := range t.spans {
		sum[s.Name] += time.Duration(s.End - s.Start - child[i])
		n[s.Name]++
	}
	return sum, n
}

// overheadFrac is the share of the root spans' time that tracing itself
// took: the recorded span count times the cost of one begin/end pair,
// calibrated on a scratch tracer, over the roots' total duration.
func (t *tracer) overheadFrac() float64 {
	const calls = 1 << 16
	scratch := newTracer()
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		scratch.end(scratch.begin("calibrate", -1, int64(i)))
	}
	perSpan := float64(time.Since(t0)) / calls
	var roots int64
	for _, s := range t.spans {
		if s.Parent < 0 {
			roots += s.End - s.Start
		}
	}
	if roots == 0 {
		return 0
	}
	return perSpan * float64(len(t.spans)) / float64(roots)
}

// write dumps the spans as JSON lines to dir/name.spans.jsonl.
func (t *tracer) write(dir, name string) error {
	f, err := os.Create(filepath.Join(dir, name+".spans.jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
