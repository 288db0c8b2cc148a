package fleet

import (
	"math/big"
	"strings"
	"testing"

	"rtoffload/internal/rtime"
	"rtoffload/internal/task"
)

func ms(n int64) rtime.Duration { return rtime.FromMillis(n) }

func offloadTask(id int) *task.Task {
	return &task.Task{
		ID:           id,
		Period:       ms(100),
		Deadline:     ms(100),
		LocalWCET:    ms(20),
		Setup:        ms(2),
		Compensation: ms(10),
		LocalBenefit: 1,
		Levels: []task.Level{
			{Response: ms(10), Benefit: 4},
			{Response: ms(30), Benefit: 6},
		},
	}
}

func TestValidate(t *testing.T) {
	good := Fleet{
		Servers: []Server{
			{ID: "edge", ScaleNum: 1, ScaleDen: 2, Reliability: 0.9, CapNum: 3, CapDen: 4, Group: "radio"},
			{ID: "cloud", Extra: ms(5), WeightNum: 2, WeightDen: 1, Group: "radio"},
		},
		Groups: []Group{{ID: "radio", CapNum: 1, CapDen: 1}},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid fleet rejected: %v", err)
	}
	if (Fleet{}).Validate() != nil {
		t.Fatal("empty fleet must validate")
	}
	bad := []Fleet{
		{Servers: []Server{{ID: ""}, {ID: "b"}}},                                                                          // empty ID in multi-server fleet
		{Servers: []Server{{ID: "a"}, {ID: "a"}}},                                                                         // duplicate ID
		{Servers: []Server{{ID: "a", ScaleNum: -1, ScaleDen: 2}}},                                                         // negative scale
		{Servers: []Server{{ID: "a", ScaleNum: 1}}},                                                                       // zero denominator with set numerator
		{Servers: []Server{{ID: "a", Extra: -1}}},                                                                         // negative extra
		{Servers: []Server{{ID: "a", Reliability: 1.5}}},                                                                  // reliability > 1
		{Servers: []Server{{ID: "a", Reliability: -0.1}}},                                                                 // reliability < 0
		{Servers: []Server{{ID: "a", CapNum: -1, CapDen: 2}}},                                                             // negative capacity
		{Servers: []Server{{ID: "a", CapNum: 1}}},                                                                         // capacity numerator without denominator
		{Servers: []Server{{ID: "a", WeightNum: -1, WeightDen: 1}}},                                                       // negative weight
		{Servers: []Server{{ID: "a", Group: "nope"}}},                                                                     // unknown group
		{Servers: []Server{{ID: "a"}}, Groups: []Group{{ID: ""}}},                                                         // empty group ID
		{Servers: []Server{{ID: "a"}}, Groups: []Group{{ID: "g"}}},                                                        // group without capacity
		{Servers: []Server{{ID: "a"}}, Groups: []Group{{ID: "g", CapNum: 1, CapDen: 1}, {ID: "g", CapNum: 1, CapDen: 1}}}, // duplicate group
	}
	for i, f := range bad {
		if err := f.Validate(); err == nil {
			t.Errorf("bad fleet %d accepted", i)
		}
	}
}

func TestScaleAndBenefit(t *testing.T) {
	neutral := Server{ID: "a"}
	if r, err := neutral.Scale(ms(7)); err != nil || r != ms(7) {
		t.Fatalf("neutral scale: got %v, %v", r, err)
	}
	if b := neutral.Benefit(1, 5); b != 5 {
		t.Fatalf("neutral benefit: got %v", b)
	}

	half := Server{ID: "b", ScaleNum: 1, ScaleDen: 2, Extra: ms(1)}
	// ceil(7ms/2) + 1ms = 3.5ms→3500µs + 1000µs
	if r, err := half.Scale(ms(7)); err != nil || r != rtime.FromMicros(4500) {
		t.Fatalf("half scale: got %v, %v", r, err)
	}
	// Rounding up: ceil(3µs·1/2) = 2µs.
	if r, err := half.Scale(3); err != nil || r != 2+ms(1) {
		t.Fatalf("ceil scale: got %v, %v", r, err)
	}

	unrel := Server{ID: "c", Reliability: 0.5}
	if b := unrel.Benefit(1, 5); b != 3 {
		t.Fatalf("discounted benefit: got %v", b)
	}

	huge := Server{ID: "d", ScaleNum: 1 << 40, ScaleDen: 1}
	if _, err := huge.Scale(rtime.Duration(1 << 40)); err == nil {
		t.Fatal("overflowing scale must error")
	}
	shrink := Server{ID: "e", ScaleNum: 1, ScaleDen: 1000, Extra: 0}
	if _, err := shrink.Scale(0); err == nil {
		t.Fatal("non-positive scaled budget must error")
	}
}

func TestExpandTaskNeutralSingleServer(t *testing.T) {
	f := Fleet{Servers: []Server{{ID: "solo"}}}
	orig := offloadTask(1)
	got, err := f.ExpandTask(orig)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Levels) != 2 {
		t.Fatalf("want 2 points, got %d", len(got.Levels))
	}
	for j, lv := range got.Levels {
		if lv.Response != orig.Levels[j].Response || lv.Benefit != orig.Levels[j].Benefit {
			t.Fatalf("point %d not verbatim: %+v vs %+v", j, lv, orig.Levels[j])
		}
		if lv.ServerID != "solo" {
			t.Fatalf("point %d not routed: %q", j, lv.ServerID)
		}
	}
	if orig.Levels[0].ServerID != "" {
		t.Fatal("input task mutated")
	}
}

func TestExpandTaskCrossProduct(t *testing.T) {
	f := Fleet{Servers: []Server{
		{ID: "edge"},
		{ID: "cloud", ScaleNum: 2, ScaleDen: 1, Reliability: 0.5},
	}}
	got, err := f.ExpandTask(offloadTask(1))
	if err != nil {
		t.Fatal(err)
	}
	// edge: 10ms/4, 30ms/6 — cloud: 20ms/2.5, 60ms/3.5.
	want := []struct {
		r   rtime.Duration
		b   float64
		sid string
	}{
		{ms(10), 4, "edge"},
		{ms(20), 2.5, "cloud"},
		{ms(30), 6, "edge"},
		{ms(60), 3.5, "cloud"},
	}
	if len(got.Levels) != len(want) {
		t.Fatalf("want %d points, got %d: %+v", len(want), len(got.Levels), got.Levels)
	}
	for j, w := range want {
		lv := got.Levels[j]
		if lv.Response != w.r || lv.Benefit != w.b || lv.ServerID != w.sid {
			t.Fatalf("point %d: got (%v, %v, %q), want (%v, %v, %q)",
				j, lv.Response, lv.Benefit, lv.ServerID, w.r, w.b, w.sid)
		}
	}
	// Budgets must be strictly increasing even though benefits are not
	// monotone (6 then 3.5): the raw per-server values are kept.
	for j := 1; j < len(got.Levels); j++ {
		if got.Levels[j].Response <= got.Levels[j-1].Response {
			t.Fatalf("budgets not strictly increasing at %d", j)
		}
	}
}

func TestExpandTaskDropsAndDedups(t *testing.T) {
	// A 10× slower server pushes both budgets past the 100ms deadline.
	f := Fleet{Servers: []Server{
		{ID: "fast"},
		{ID: "slow", ScaleNum: 10, ScaleDen: 1},
	}}
	got, err := f.ExpandTask(offloadTask(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, lv := range got.Levels {
		if lv.ServerID == "slow" && lv.Response < ms(100) {
			continue
		}
		if lv.ServerID == "slow" {
			t.Fatalf("over-deadline point kept: %+v", lv)
		}
	}
	// Two identical servers produce tied budgets; dedup keeps one point
	// per budget (the higher-benefit one).
	f2 := Fleet{Servers: []Server{{ID: "a", Reliability: 0.5}, {ID: "b"}}}
	got2, err := f2.ExpandTask(offloadTask(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(got2.Levels) != 2 {
		t.Fatalf("dedup: want 2 points, got %d: %+v", len(got2.Levels), got2.Levels)
	}
	for _, lv := range got2.Levels {
		if lv.ServerID != "b" {
			t.Fatalf("dedup kept the discounted twin: %+v", lv)
		}
	}
	// Local-only tasks expand to a plain clone.
	local := &task.Task{ID: 9, Period: ms(50), Deadline: ms(50), LocalWCET: ms(5), LocalBenefit: 1}
	gl, err := f.ExpandTask(local)
	if err != nil || len(gl.Levels) != 0 || gl.ID != 9 {
		t.Fatalf("local clone: %+v, %v", gl, err)
	}
}

func TestExpandTaskServerWCRT(t *testing.T) {
	tk := offloadTask(1)
	tk.ServerWCRT = ms(30)
	tk.PostProcess = ms(1)

	// Single non-neutral server: the bound scales with the budgets.
	one := Fleet{Servers: []Server{{ID: "a", ScaleNum: 2, ScaleDen: 1}}}
	got, err := one.ExpandTask(tk)
	if err != nil {
		t.Fatal(err)
	}
	if got.ServerWCRT != ms(60) {
		t.Fatalf("scaled WCRT: got %v", got.ServerWCRT)
	}

	// Multi-server fleet: the single-server bound says nothing about
	// the others — dropped (conservative).
	multi := Fleet{Servers: []Server{{ID: "a"}, {ID: "b"}}}
	got, err = multi.ExpandTask(tk)
	if err != nil {
		t.Fatal(err)
	}
	if got.ServerWCRT != 0 {
		t.Fatalf("multi-server WCRT not cleared: %v", got.ServerWCRT)
	}
}

func TestExpandSet(t *testing.T) {
	f := Fleet{Servers: []Server{{ID: "a"}, {ID: "b", Extra: ms(1)}}}
	set := task.Set{offloadTask(1), offloadTask(2)}
	out, err := f.ExpandSet(set)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || len(out[0].Levels) != 4 {
		t.Fatalf("unexpected expansion: %d tasks, %d points", len(out), len(out[0].Levels))
	}
	bad := Fleet{Servers: []Server{{ID: "x", ScaleNum: 1 << 40, ScaleDen: 1}}}
	huge := offloadTask(3)
	huge.Levels[0].Response = rtime.Duration(1 << 40)
	huge.Deadline = rtime.Duration(1 << 62)
	huge.Period = rtime.Duration(1 << 62)
	if _, err := bad.ExpandSet(task.Set{huge}); err == nil {
		t.Fatal("overflowing expansion must error")
	}
}

func TestAccumulateAndPools(t *testing.T) {
	f := Fleet{
		Servers: []Server{
			{ID: "a", CapNum: 1, CapDen: 4, Group: "g", WeightNum: 2, WeightDen: 1},
			{ID: "b", Group: "g"},
		},
		Groups: []Group{{ID: "g", CapNum: 1, CapDen: 2}},
	}
	us := []Usage{
		{Server: "a", Occupancy: big.NewRat(1, 8)},
		{Server: "b", Occupancy: big.NewRat(1, 8)},
		{Server: "ghost", Occupancy: big.NewRat(1, 2)},
	}
	loads := f.Accumulate(us)
	if len(loads) != 3 {
		t.Fatalf("want 3 pools, got %d", len(loads))
	}
	a, b, g := loads[0], loads[1], loads[2]
	if a.Pool != "a" || !a.Server || a.Tasks != 1 || a.Occupancy.Cmp(big.NewRat(1, 8)) != 0 {
		t.Fatalf("pool a: %+v", a)
	}
	if a.Over() {
		t.Fatal("pool a within capacity")
	}
	if b.Capacity != nil || b.Over() {
		t.Fatalf("pool b must be unbounded: %+v", b)
	}
	// Group: 2·(1/8) + 1·(1/8) = 3/8 ≤ 1/2.
	if g.Pool != "g" || g.Server || g.Occupancy.Cmp(big.NewRat(3, 8)) != 0 || g.Tasks != 2 {
		t.Fatalf("pool g: %+v", g)
	}
	if FirstOver(loads) != -1 {
		t.Fatal("no pool is over")
	}
	loads = f.Accumulate(append(us, Usage{Server: "a", Occupancy: big.NewRat(1, 4)}))
	if FirstOver(loads) != 0 {
		t.Fatalf("pool a must be over: %d", FirstOver(loads))
	}
}

func TestServerIndex(t *testing.T) {
	f := Fleet{Servers: []Server{{ID: "a"}, {ID: "b"}}}
	if f.ServerIndex("b") != 1 || f.ServerIndex("a") != 0 {
		t.Fatal("named lookup failed")
	}
	if f.ServerIndex("") != -1 || f.ServerIndex("zzz") != -1 {
		t.Fatal("unknown lookup must be -1")
	}
	solo := Fleet{Servers: []Server{{ID: "only"}}}
	if solo.ServerIndex("") != 0 {
		t.Fatal("empty ID must resolve to the sole server")
	}
}

func TestParseSpec(t *testing.T) {
	f, err := ParseSpec("edge:scale=1/2,extra=2ms,rel=0.95,cap=3/4,weight=2,group=radio; cloud:extra=500us ;@radio:cap=1")
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Servers) != 2 || len(f.Groups) != 1 {
		t.Fatalf("parsed shape: %+v", f)
	}
	e := f.Servers[0]
	if e.ID != "edge" || e.ScaleNum != 1 || e.ScaleDen != 2 || e.Extra != ms(2) ||
		e.Reliability != 0.95 || e.CapNum != 3 || e.CapDen != 4 ||
		e.WeightNum != 2 || e.WeightDen != 1 || e.Group != "radio" {
		t.Fatalf("edge: %+v", e)
	}
	if f.Servers[1].Extra != rtime.FromMicros(500) {
		t.Fatalf("cloud extra: %v", f.Servers[1].Extra)
	}
	if f.Groups[0].CapNum != 1 || f.Groups[0].CapDen != 1 {
		t.Fatalf("group: %+v", f.Groups[0])
	}

	for _, bad := range []string{
		"edge:bogus=1",        // unknown server option
		"@g:cap=1;a:group=g2", // unknown group reference
		"edge:scale=x",        // bad rational
		"edge:scale=1/x",      // bad rational denominator
		"edge:extra=5",        // missing duration unit
		"edge:extra=xms",      // bad duration number
		"edge:rel=abc",        // bad float
		"@g:cap=1,foo=2",      // unknown group option
		"@g:cap=z",            // bad group capacity
		"a;a",                 // duplicate server
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
	if f, err := ParseSpec("solo"); err != nil || len(f.Servers) != 1 || f.Servers[0] != (Server{ID: "solo"}) {
		t.Fatalf("bare name spec: %+v, %v", f, err)
	}
	if _, err := ParseSpec(" ; "); err != nil {
		t.Fatalf("blank spec must parse to an empty fleet: %v", err)
	}
	if _, err := ParseSpec("edge:extra=1us"); err != nil {
		t.Fatalf("us suffix: %v", err)
	}
	if _, err := ParseSpec("edge:extra=1s"); err == nil || !strings.Contains(err.Error(), "duration") {
		t.Fatal("unsupported unit must error")
	}
}
