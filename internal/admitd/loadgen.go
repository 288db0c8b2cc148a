package admitd

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

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
func NewStream(seed uint64, maxLive int) *Stream {
	if maxLive < 2 {
		maxLive = 8
	}
	return &Stream{rng: stats.NewRNG(stats.DeriveSeed(seed, streamSalt)), maxLive: maxLive}
}

// Next draws the next operation. The stream never evicts the last
// admitted task, so a tenant driven by one stream exists for the
// stream's whole lifetime.
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

// LoadConfig parameterizes a sustained-load run.
type LoadConfig struct {
	// Tenants is the number of concurrent churn streams.
	Tenants int
	// Ops per tenant.
	Ops int
	// Seed derives every stream (stats.DeriveSeed(Seed, tenant+1)).
	Seed uint64
	// MaxLive caps each tenant's admitted set (0 = stream default).
	MaxLive int
}

// Validate checks the configuration.
func (c LoadConfig) Validate() error {
	if c.Tenants <= 0 {
		return fmt.Errorf("admitd: load needs tenants > 0")
	}
	if c.Ops <= 0 {
		return fmt.Errorf("admitd: load needs ops > 0")
	}
	return nil
}

// LoadReport aggregates one sustained-load run.
type LoadReport struct {
	Tenants, Ops                int // configuration echo; Ops is per tenant
	Committed, Rejected         int
	Admits, Updates, Evicts     int // committed ops by kind
	LiveTasks                   int // Σ admitted tasks at the end
	Elapsed                     time.Duration
	OpsPerSec                   float64
	P50, P99                    time.Duration // per-operation decision latency
	BytesPerOp                  uint64        // allocation rate over the run
	DecisionsExact, DecisionsT3 int           // committed decisions by certificate
}

// now reads the wall clock for latency measurement only; every churn
// draw is derived from the configured seed.
//
//rtlint:allow determinism -- wall-clock latency measurement in the load harness; churn content stays seed-derived
func now() time.Time { return time.Now() }

// RunLoad drives cfg.Tenants concurrent churn streams at the service
// and reports throughput, latency quantiles, and allocation rate. The
// operation sequence is deterministic per seed; only the timing varies
// between runs.
func RunLoad(s *Service, cfg LoadConfig) (*LoadReport, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	type workerOut struct {
		lat                     []float64
		committed, rejected     int
		admits, updates, evicts int
		live                    int
		exact, t3               int
	}
	outs := make([]workerOut, cfg.Tenants)
	var wg sync.WaitGroup
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := now()
	for i := 0; i < cfg.Tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out := &outs[i]
			name := fmt.Sprintf("tenant-%02d", i)
			st := NewStream(stats.DeriveSeed(cfg.Seed, uint64(i)+1), cfg.MaxLive)
			out.lat = make([]float64, 0, cfg.Ops)
			for op := 0; op < cfg.Ops; op++ {
				o := st.Next()
				var view *DecisionView
				var err error
				t0 := now()
				switch o.Kind {
				case OpAdmit:
					view, err = s.Admit(name, o.Task)
				case OpUpdate:
					view, err = s.Update(name, o.Task)
				default:
					view, err = s.Evict(name, o.ID)
				}
				out.lat = append(out.lat, float64(now().Sub(t0)))
				st.Commit(o, err == nil)
				if err != nil {
					out.rejected++
					continue
				}
				out.committed++
				switch o.Kind {
				case OpAdmit:
					out.admits++
				case OpUpdate:
					out.updates++
				default:
					out.evicts++
				}
				out.live = view.Tasks
				if view.ExactVerified {
					out.exact++
				} else {
					out.t3++
				}
			}
		}(i)
	}
	wg.Wait()
	elapsed := now().Sub(start)
	runtime.ReadMemStats(&m1)

	rep := &LoadReport{Tenants: cfg.Tenants, Ops: cfg.Ops, Elapsed: elapsed}
	var lat []float64
	for i := range outs {
		o := &outs[i]
		lat = append(lat, o.lat...)
		rep.Committed += o.committed
		rep.Rejected += o.rejected
		rep.Admits += o.admits
		rep.Updates += o.updates
		rep.Evicts += o.evicts
		rep.LiveTasks += o.live
		rep.DecisionsExact += o.exact
		rep.DecisionsT3 += o.t3
	}
	total := len(lat)
	if sec := elapsed.Seconds(); sec > 0 {
		rep.OpsPerSec = float64(total) / sec
	}
	rep.P50 = time.Duration(stats.Percentile(lat, 50))
	rep.P99 = time.Duration(stats.Percentile(lat, 99))
	if total > 0 {
		rep.BytesPerOp = (m1.TotalAlloc - m0.TotalAlloc) / uint64(total)
	}
	return rep, nil
}

// String renders the report as an aligned key/value block.
func (r *LoadReport) String() string {
	var b strings.Builder
	b.WriteString(fmt.Sprintf("tenants          %d\n", r.Tenants))
	b.WriteString(fmt.Sprintf("ops/tenant       %d\n", r.Ops))
	b.WriteString(fmt.Sprintf("committed        %d (admit %d, update %d, evict %d)\n",
		r.Committed, r.Admits, r.Updates, r.Evicts))
	b.WriteString(fmt.Sprintf("rejected         %d\n", r.Rejected))
	b.WriteString(fmt.Sprintf("live tasks       %d\n", r.LiveTasks))
	b.WriteString(fmt.Sprintf("decisions        exact=%d theorem3=%d\n", r.DecisionsExact, r.DecisionsT3))
	b.WriteString(fmt.Sprintf("elapsed          %v\n", r.Elapsed))
	b.WriteString(fmt.Sprintf("ops/sec          %.0f\n", r.OpsPerSec))
	b.WriteString(fmt.Sprintf("latency p50      %v\n", r.P50))
	b.WriteString(fmt.Sprintf("latency p99      %v\n", r.P99))
	b.WriteString(fmt.Sprintf("alloc/op         %d B\n", r.BytesPerOp))
	return b.String()
}
