package admitd

import (
	"rtoffload/internal/rtime"
	"rtoffload/internal/stats"
	"rtoffload/internal/task"
)

// OpKind enumerates the churn operations a tenant streams at the
// service.
type OpKind int

const (
	// OpAdmit adds a fresh task.
	OpAdmit OpKind = iota
	// OpUpdate replaces an admitted task's parameters in place.
	OpUpdate
	// OpEvict removes an admitted task.
	OpEvict
)

// Op is one step of a churn stream.
type Op struct {
	Kind OpKind
	// Task carries the payload of OpAdmit and OpUpdate.
	Task *task.Task
	// ID identifies the target of OpEvict (and mirrors Task.ID for the
	// other kinds).
	ID int
}

// Stream generates a deterministic churn log: the same seed yields
// the same operation sequence no matter who applies it, provided the
// applier reports every operation's outcome through Commit — the
// stream picks update/evict targets from the set of committed
// admissions, so its evolution depends only on the seed and the
// outcome sequence. This is what lets the differential harness replay
// a concurrent service run serially, op for op.
type Stream struct {
	rng     *stats.RNG
	nextID  int
	live    []int
	maxLive int
}

// streamSalt separates the churn-stream draws from every other
// DeriveSeed consumer.
const streamSalt uint64 = 0xad317d

// NewStream creates a churn stream. maxLive caps the number of
// admitted tasks (≥ 2; smaller values are raised to 8).
//
//rtlint:allow reach -- reference: the deterministic churn the admission benchmarks and cmd/admitd's test replay
func NewStream(seed uint64, maxLive int) *Stream {
	if maxLive < 2 {
		maxLive = 8
	}
	return &Stream{rng: stats.NewRNG(stats.DeriveSeed(seed, streamSalt)), maxLive: maxLive}
}

// Next draws the next operation. The stream never evicts the last
// admitted task, so a tenant driven by one stream exists for the
// stream's whole lifetime.
//
//rtlint:allow reach -- reference: the deterministic churn the admission benchmarks and cmd/admitd's test replay
func (st *Stream) Next() Op {
	admitP := 0.45
	if len(st.live) >= st.maxLive {
		admitP = 0
	}
	if len(st.live) == 0 || st.rng.Bool(admitP) {
		id := st.nextID
		st.nextID++
		return Op{Kind: OpAdmit, Task: st.newTask(id), ID: id}
	}
	if len(st.live) == 1 || st.rng.Bool(0.6) {
		id := st.live[st.rng.IntN(len(st.live))]
		return Op{Kind: OpUpdate, Task: st.newTask(id), ID: id}
	}
	return Op{Kind: OpEvict, ID: st.live[st.rng.IntN(len(st.live))]}
}

// Commit reports whether the applier committed the operation, keeping
// the stream's view of the admitted set in sync.
//
//rtlint:allow reach -- reference: the deterministic churn the admission benchmarks and cmd/admitd's test replay
func (st *Stream) Commit(op Op, committed bool) {
	if !committed {
		return
	}
	switch op.Kind {
	case OpAdmit:
		st.live = append(st.live, op.ID)
	case OpEvict:
		for i, id := range st.live {
			if id == op.ID {
				st.live = append(st.live[:i], st.live[i+1:]...)
				return
			}
		}
	}
}

// newTask draws one valid offloadable task: implicit or constrained
// deadline, light enough that a lone task is always schedulable, with
// one to three offloading levels of increasing budget and benefit.
//
//rtlint:allow reach -- reference: the deterministic churn the admission benchmarks and cmd/admitd's test replay
func (st *Stream) newTask(id int) *task.Task {
	rng := st.rng
	for {
		period := rtime.FromMillis(rng.UniformInt(20, 800))
		deadline := period
		if rng.Bool(0.25) {
			deadline = period/2 + rtime.Duration(rng.Int64N(int64(period/2)))
		}
		c := rtime.Duration(rng.Int64N(int64(deadline/3))) + 1
		tk := &task.Task{
			ID: id, Period: period, Deadline: deadline,
			LocalWCET: c, Setup: c/4 + 1, Compensation: c,
			PostProcess:  c / 4,
			LocalBenefit: rng.Uniform(0, 3),
			Weight:       rng.Uniform(0.5, 3),
		}
		nlv := rng.IntN(3) + 1
		prevR, prevB := rtime.Duration(0), tk.LocalBenefit
		for j := 0; j < nlv; j++ {
			r := prevR + rtime.Duration(rng.Int64N(int64(deadline)))/rtime.Duration(nlv+1) + 1
			b := prevB + rng.Uniform(0.1, 2)
			tk.Levels = append(tk.Levels, task.Level{Response: r, Benefit: b})
			prevR, prevB = r, b
		}
		if tk.Validate() == nil {
			return tk
		}
	}
}
