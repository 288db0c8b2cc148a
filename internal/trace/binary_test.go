package trace

import (
	"bytes"
	"io"
	"reflect"
	"sort"
	"testing"
)

// TestBinaryRoundTrip serializes fixtures through BinarySink and reads
// them back into a fresh Trace, asserting an exact reproduction, and
// into a StreamChecker, asserting the on-disk stream still verifies.
func TestBinaryRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   *Trace
	}{
		{"valid", validTrace()},
		{"suspension", suspensionTrace()},
		{"abandoned", abandonedTrace()},
		{"zero-wcet", zeroWCETTrace()},
		{"zero-wcet-at-segment-end", zeroWCETAtSegmentEndTrace()},
		{"empty", &Trace{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tc.tr.Replay(NewBinarySink(&buf)); err != nil {
				t.Fatalf("serialize: %v", err)
			}
			var got Trace
			if err := ReadBinary(bytes.NewReader(buf.Bytes()), &got); err != nil {
				t.Fatalf("read back: %v", err)
			}
			if !reflect.DeepEqual(normalize(&got), normalize(tc.tr)) {
				t.Fatalf("round trip changed the trace:\n got %+v\nwant %+v", got, tc.tr)
			}
			c := NewStreamChecker()
			if err := ReadBinary(bytes.NewReader(buf.Bytes()), c); err != nil {
				t.Fatalf("on-disk stream rejected: %v", err)
			}
			segs, subs := c.Counts()
			if segs != int64(len(tc.tr.Segments)) || subs != int64(len(tc.tr.Subs)) {
				t.Fatalf("counts = (%d, %d), want (%d, %d)", segs, subs, len(tc.tr.Segments), len(tc.tr.Subs))
			}
		})
	}
}

// normalize maps empty slices to nil and puts Subs in a canonical
// order: Replay delivers closes in end-instant order (the Sink
// contract), so record order is not semantic.
func normalize(tr *Trace) *Trace {
	out := &Trace{}
	if len(tr.Segments) > 0 {
		out.Segments = tr.Segments
	}
	if len(tr.Subs) > 0 {
		out.Subs = append([]SubRecord(nil), tr.Subs...)
		sort.Slice(out.Subs, func(i, j int) bool {
			a, b := out.Subs[i].Sub, out.Subs[j].Sub
			if a.TaskID != b.TaskID {
				return a.TaskID < b.TaskID
			}
			if a.Seq != b.Seq {
				return a.Seq < b.Seq
			}
			return a.Kind < b.Kind
		})
	}
	return out
}

// TestBinaryLargeStreamFlushes pushes well past the staging buffer so
// the mid-stream flush path round-trips too.
func TestBinaryLargeStreamFlushes(t *testing.T) {
	tr := &Trace{}
	for i := 0; i < 5000; i++ {
		id := SubID{TaskID: 1, Seq: int64(i), Kind: Local}
		rel := ms(int64(i) * 10)
		tr.Segments = append(tr.Segments, Segment{Start: rel, End: rel + 4000, Sub: id})
		tr.Subs = append(tr.Subs, SubRecord{
			Sub: id, Release: rel, Deadline: rel + 10_000, WCET: 4000,
			Completed: true, Completion: rel + 4000,
		})
	}
	var buf bytes.Buffer
	if err := tr.Replay(NewBinarySink(&buf)); err != nil {
		t.Fatalf("serialize: %v", err)
	}
	if buf.Len() <= binBufSize {
		t.Fatalf("stream is %d bytes; test needs to exceed the %d-byte staging buffer", buf.Len(), binBufSize)
	}
	var got Trace
	if err := ReadBinary(bytes.NewReader(buf.Bytes()), &got); err != nil {
		t.Fatalf("read back: %v", err)
	}
	if !reflect.DeepEqual(got.Segments, tr.Segments) || !reflect.DeepEqual(got.Subs, tr.Subs) {
		t.Fatal("large stream round trip changed the trace")
	}
}

// TestBinaryRejectsCorruption covers the reader's failure modes.
func TestBinaryRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := validTrace().Replay(NewBinarySink(&buf)); err != nil {
		t.Fatalf("serialize: %v", err)
	}
	good := buf.Bytes()

	check := func(name string, data []byte) {
		t.Helper()
		if err := ReadBinary(bytes.NewReader(data), &Trace{}); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	check("empty stream", nil)
	check("bad magic", append([]byte("XXOFTRC1"), good[8:]...))
	check("truncated mid-record", good[:len(good)-endSize-3])
	check("missing trailer", good[:len(good)-endSize])

	tagged := append([]byte(nil), good...)
	tagged[8] = 'Z'
	check("unknown tag", tagged)

	miscounted := append([]byte(nil), good...)
	miscounted[len(miscounted)-endSize+1]++ // opens count in the trailer
	check("trailer count mismatch", miscounted)

	trailing := append(append([]byte(nil), good...), 0)
	check("bytes after trailer", trailing)
}

// errWriter fails after n bytes to exercise the sticky error path.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n -= len(p); w.n < 0 {
		return 0, io.ErrClosedPipe
	}
	return len(p), nil
}

// TestBinarySinkStickyWriteError proves writer failures surface from
// Finish and do not panic the emit path.
func TestBinarySinkStickyWriteError(t *testing.T) {
	bs := NewBinarySink(&errWriter{n: binBufSize})
	tr := &Trace{}
	for i := 0; i < 20_000; i++ {
		id := SubID{TaskID: 1, Seq: int64(i), Kind: Local}
		tr.Segments = append(tr.Segments, Segment{Start: ms(int64(i)), End: ms(int64(i) + 1), Sub: id})
	}
	for i := range tr.Segments {
		bs.AppendSegment(tr.Segments[i])
	}
	if err := bs.Finish(); err == nil {
		t.Fatal("writer failure not surfaced by Finish")
	}
}

// TestBinarySinkZeroAlloc gates the on-disk emit path: once the
// staging buffer exists, streaming opens, segments, and closes must
// not allocate.
func TestBinarySinkZeroAlloc(t *testing.T) {
	bs := NewBinarySink(io.Discard)
	id := SubID{TaskID: 7, Seq: 3, Kind: Setup}
	seg := Segment{Start: ms(10), End: ms(14), Sub: id}
	rec := SubRecord{Sub: id, Release: ms(10), Deadline: ms(30), WCET: msd(4), Completed: true, Completion: ms(14)}
	allocs := testing.AllocsPerRun(1000, func() {
		bs.OpenSub(id, ms(10), ms(30), msd(4))
		bs.AppendSegment(seg)
		bs.CloseSub(rec)
	})
	if allocs != 0 {
		t.Fatalf("binary emit path allocates %.1f times per run; the hotpath contract is 0", allocs)
	}
	if err := bs.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}
