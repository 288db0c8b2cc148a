package main

// The admit workload drives the shipped cmd/admitd binary, started with
// its default solver flags, over loopback HTTP. Each tenant is pinned to
// one of two connections, so its requests are serial and every status,
// decision and benefit depends only on the seed; only timing varies.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"net/http"
	"os/exec"
	"sort"
	"strconv"
	"sync"
	"time"

	"rtoffload/internal/admitd"
	"rtoffload/internal/rtime"
	"rtoffload/internal/stats"
	"rtoffload/internal/task"
)

const (
	conns = 2 // load connections: one per CPU of the reference machine
	// sloLatency is the admit workload's per-request latency limit.
	sloLatency = 10 * time.Millisecond
	// setupRepeats is how many times a run starts and primes admitd;
	// setup_s is their median.
	setupRepeats = 3
	// tenantCount tenants each hold at most maxLive light tasks; tenantSalt
	// separates their streams from other seed uses.
	tenantCount = 32
	maxLive     = 32
	tenantSalt  = 0x1a46e
	// The traced pass replays tracedOps post-priming requests for each
	// of the first tracedTenants tenants.
	tracedTenants, tracedOps = 8, 25
)

// largeStream is admitd.Stream's churn over light tasks: tenants hold
// about thirty live tasks (at most maxLive) near the schedulability
// edge, so the exact upgrade and the MCKP solve carry the cost of each
// re-decision. Its next operation depends only on its seed and the
// outcomes reported through Commit.
type largeStream struct {
	rng    *stats.RNG
	nextID int
	live   []int
	// prime admits only.
	prime bool
}

func newLargeStream(seed uint64) *largeStream {
	return &largeStream{rng: stats.NewRNG(seed), prime: true}
}

func (st *largeStream) Next() admitd.Op {
	admitP := 0.5
	if st.prime {
		admitP = 1
	}
	if len(st.live) >= maxLive {
		admitP = 0
	}
	if len(st.live) == 0 || st.rng.Bool(admitP) {
		id := st.nextID
		st.nextID++
		return admitd.Op{Kind: admitd.OpAdmit, Task: st.newTask(id), ID: id}
	}
	id := st.live[st.rng.IntN(len(st.live))]
	if len(st.live) == 1 || st.rng.Bool(0.5) {
		return admitd.Op{Kind: admitd.OpUpdate, Task: st.newTask(id), ID: id}
	}
	return admitd.Op{Kind: admitd.OpEvict, ID: id}
}

func (st *largeStream) Commit(op admitd.Op, committed bool) {
	if !committed {
		return
	}
	switch op.Kind {
	case admitd.OpAdmit:
		st.live = append(st.live, op.ID)
	case admitd.OpEvict:
		for i, id := range st.live {
			if id == op.ID {
				st.live = append(st.live[:i], st.live[i+1:]...)
				return
			}
		}
	}
}

// newTask draws a light offloadable task: local density 1–5%, so
// about thirty fill a processor, with one to three offloading levels of
// increasing budget and benefit. Setup plus compensation stays below
// the local WCET, so offloading never raises a set's long-run rate:
// with admitd.Stream's compensation (= local WCET), the exact upgrade
// drives near-edge sets toward rate 1, where the demand-test horizon
// diverges and single writes take seconds (see FINDINGS.md).
func (st *largeStream) newTask(id int) *task.Task {
	rng := st.rng
	for {
		period := rtime.FromMillis(rng.UniformInt(20, 800))
		deadline := period
		if rng.Bool(0.25) {
			deadline = period/2 + rtime.Duration(rng.Int64N(int64(period/2)))
		}
		c := rtime.Duration(rng.Uniform(0.01, 0.05)*float64(deadline)) + 1
		tk := &task.Task{
			ID: id, Period: period, Deadline: deadline,
			LocalWCET: c, Setup: c/5 + 1, Compensation: c * 4 / 5, PostProcess: c / 8,
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

// tenant is the benchmark's model of one admitd tenant: its write
// stream, the tasks it knows are admitted, and the last view it got.
type tenant struct {
	name     string
	w        *largeStream
	known    map[int]*task.Task
	seq      uint64 // committed writes; the view's seq must match
	writes   int
	rejected int    // writes answered 409
	last     []byte // body of the last committed view
}

func newTenants(seed uint64) []*tenant {
	ts := make([]*tenant, tenantCount)
	for i := range ts {
		ts[i] = &tenant{
			name:  fmt.Sprintf("tenant-%02d", i),
			w:     newLargeStream(stats.DeriveSeed(seed, tenantSalt, uint64(i), 1)),
			known: map[int]*task.Task{},
		}
	}
	return ts
}

// primed reports that the tenant reached its steady live set. Priming
// admits until the tenant is full or two admissions were refused, so the
// measured churn starts at the edge it would otherwise drift to.
func (t *tenant) primed() bool {
	if len(t.known) >= maxLive || t.rejected >= 2 || t.writes >= 3*maxLive {
		t.w.prime = false
		return true
	}
	return false
}

// request is one write a tenant sends.
type request struct {
	t    *tenant
	op   admitd.Op
	body []byte // task JSON for admit and update
}

// next draws the tenant's next request.
func (t *tenant) next() request {
	rq := request{t: t, op: t.w.Next()}
	if rq.op.Task != nil {
		body, err := json.Marshal(rq.op.Task)
		if err != nil {
			panic(err) // a task is plain numbers and strings
		}
		rq.body = body
	}
	return rq
}

func (rq request) route() (method, path string) {
	base := "/v1/tenants/" + rq.t.name
	switch rq.op.Kind {
	case admitd.OpAdmit:
		return http.MethodPost, base + "/tasks"
	case admitd.OpUpdate:
		return http.MethodPut, base + "/tasks/" + strconv.Itoa(rq.op.ID)
	default:
		return http.MethodDelete, base + "/tasks/" + strconv.Itoa(rq.op.ID)
	}
}

// committedStatus is the status of a successful request of rq's kind;
// 409 is the only other correct answer.
func (rq request) committedStatus() int {
	if rq.op.Kind == admitd.OpAdmit {
		return http.StatusCreated
	}
	return http.StatusOK
}

// sample is one answered (or failed) request.
type sample struct {
	lat      time.Duration
	at       time.Duration // send time, from the window's start
	end      time.Duration // completion time, from the window's start
	answered bool          // a response arrived
	ok       bool          // an expected status, and a view that passed its checks
	status   int
	// check holds a committed write's view for verification after the
	// measured window.
	check *viewCheck
}

type viewCheck struct {
	tenant string
	seq    uint64
	body   []byte
	known  []*task.Task
}

// settle applies a response to the tenant's model and returns its
// sample; committed writes are queued for the full check.
func (t *tenant) settle(rq request, status int, body []byte, err error) sample {
	s := sample{status: status, answered: err == nil}
	if err != nil {
		return s
	}
	t.writes++
	committed := status == rq.committedStatus()
	t.w.Commit(rq.op, committed)
	if !committed {
		s.ok = status == http.StatusConflict
		if s.ok {
			t.rejected++
		}
		return s
	}
	switch rq.op.Kind {
	case admitd.OpAdmit, admitd.OpUpdate:
		t.known[rq.op.ID] = rq.op.Task
	default:
		delete(t.known, rq.op.ID)
	}
	t.seq++
	t.last = body
	s.ok = true
	s.check = &viewCheck{tenant: t.name, seq: t.seq, body: body, known: t.knownSorted()}
	return s
}

func (t *tenant) knownSorted() []*task.Task {
	out := make([]*task.Task, 0, len(t.known))
	for _, tk := range t.known {
		out = append(out, tk)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// conn is one keep-alive HTTP connection to admitd.
type conn struct {
	tr   *http.Transport
	c    *http.Client
	base string
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &conn{tr: tr, c: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: base}
}

func (c *conn) do(rq request) (int, []byte, error) {
	method, path := rq.route()
	var body io.Reader
	if rq.body != nil {
		body = bytes.NewReader(rq.body)
	}
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return 0, nil, err
	}
	if rq.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (c *conn) close() { c.tr.CloseIdleConnections() }

// proc is a running cmd/admitd process.
type proc struct {
	cmd  *exec.Cmd
	base string
	done chan error
	log  *bytes.Buffer
}

// startServer launches admitd with its default flags on a free
// loopback port and waits for /healthz.
func startServer(bin string) (*proc, error) {
	var last error
	for attempt := 0; attempt < 3; attempt++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addr := ln.Addr().String()
		ln.Close()
		s := &proc{cmd: exec.Command(bin, "-addr", addr), base: "http://" + addr,
			done: make(chan error, 1), log: &bytes.Buffer{}}
		s.cmd.Stdout, s.cmd.Stderr = s.log, s.log
		if err := s.cmd.Start(); err != nil {
			return nil, err
		}
		go func() { s.done <- s.cmd.Wait() }()
		if last = s.waitHealthy(); last == nil {
			return s, nil
		}
		s.kill()
	}
	return nil, last
}

func (s *proc) waitHealthy() error {
	c := newConn(s.base)
	defer c.close()
	c.c.Timeout = time.Second
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-s.done:
			s.done <- err
			return fmt.Errorf("admitd exited during start-up (%v): %s", err, s.log.String())
		default:
		}
		req, err := http.NewRequest(http.MethodGet, s.base+"/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := c.c.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("admitd did not become healthy within 30s")
}

func (s *proc) kill() {
	_ = s.cmd.Process.Kill() // already exited is fine: Wait below reaps it either way
	<-s.done
}

// session is a started and primed admitd with its tenants.
type session struct {
	srv     *proc
	tenants []*tenant
	conns   []*conn
	setup   time.Duration
	primes  []sample // priming writes, verified with the measured ones
}

func (ss *session) close() {
	for _, c := range ss.conns {
		c.close()
	}
	ss.srv.kill()
}

// owned lists the tenants pinned to connection w.
func (ss *session) owned(w int) []*tenant {
	var out []*tenant
	for i := w; i < len(ss.tenants); i += conns {
		out = append(out, ss.tenants[i])
	}
	return out
}

// startSession starts admitd and primes every tenant to its steady live
// set over the two connections; the elapsed time is one setup sample.
func startSession(o *options) (*session, error) {
	t0 := time.Now()
	srv, err := startServer(o.admitd)
	if err != nil {
		return nil, err
	}
	ss := &session{srv: srv, tenants: newTenants(o.seed)}
	for w := 0; w < conns; w++ {
		ss.conns = append(ss.conns, newConn(srv.base))
	}
	out := make([][]sample, conns)
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, t := range ss.owned(w) {
				for !t.primed() {
					rq := t.next()
					status, body, err := ss.conns[w].do(rq)
					if err != nil {
						errs[w] = fmt.Errorf("priming %s: %w", t.name, err)
						return
					}
					out[w] = append(out[w], t.settle(rq, status, body, nil))
				}
			}
		}(w)
	}
	wg.Wait()
	ss.setup = time.Since(t0)
	for w := range out {
		ss.primes = append(ss.primes, out[w]...)
	}
	if err := errors.Join(errs...); err != nil {
		ss.close()
		return nil, err
	}
	return ss, nil
}

// primedBenefit is the decision quality of the primed tenants: their
// views' total expected benefit over the benefit of running every
// admitted task locally. It comes with a digest of those views that
// repeats exactly for a seed.
func (ss *session) primedBenefit() (float64, uint64, error) {
	h := fnv.New64a()
	sum, local := 0.0, 0.0
	for _, t := range ss.tenants {
		var v admitd.DecisionView
		if err := json.Unmarshal(t.last, &v); err != nil {
			return 0, 0, fmt.Errorf("tenant %s primed view: %w", t.name, err)
		}
		sum += v.TotalExpected
		for _, tk := range t.knownSorted() {
			local += tk.EffectiveWeight() * tk.LocalBenefit
		}
		h.Write(t.last)
	}
	return sum / local, h.Sum64(), nil
}

// drive runs the measured closed-loop window, each connection cycling
// through its tenants. The samples come back in send order.
func (ss *session) drive(window time.Duration) []sample {
	out := make([][]sample, conns)
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			owned, c := ss.owned(w), ss.conns[w]
			for k := 0; time.Now().Before(deadline); k++ {
				t := owned[k%len(owned)]
				rq := t.next()
				t0 := time.Now()
				status, body, err := c.do(rq)
				s := t.settle(rq, status, body, err)
				s.lat, s.at, s.end = time.Since(t0), t0.Sub(start), time.Since(start)
				out[w] = append(out[w], s)
			}
		}(w)
	}
	wg.Wait()
	var all []sample
	for w := range out {
		all = append(all, out[w]...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].at < all[j].at })
	return all
}

// slicedRate is the interquartile mean over the window's one-second
// slices of the responses completed in each slice.
func slicedRate(samples []sample, seconds int) float64 {
	per := make([]float64, seconds)
	for _, s := range samples {
		if i := int(s.end / time.Second); s.answered && i < seconds {
			per[i]++
		}
	}
	return interquartileMean(per)
}

// verifySamples records a violation for every request that failed, got
// an unexpected status, or committed a view that fails verifyView.
func verifySamples(r *result, samples []sample) {
	for i := range samples {
		s := &samples[i]
		if !s.answered {
			r.violate("request failed without a response")
			continue
		}
		if !s.ok {
			r.violate("unexpected status %d", s.status)
			continue
		}
		if s.check == nil {
			continue
		}
		if err := verifyView(s.check.body, s.check.tenant, s.check.seq, s.check.known); err != nil {
			s.ok = false
			r.violate("%s seq %d: %v", s.check.tenant, s.check.seq, err)
		}
	}
}

func runAdmitE2E(o *options) (*result, error) {
	r := newResult()
	var setups []float64
	var ss *session
	var benefit float64
	var digest uint64
	for i := 0; i < setupRepeats; i++ {
		s, err := startSession(o)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.setup.Seconds())
		verifySamples(r, s.primes)
		b, d, err := s.primedBenefit()
		if err != nil {
			s.close()
			return nil, err
		}
		if i > 0 && (b != benefit || d != digest) {
			r.violate("priming is not deterministic: benefit %v vs %v", b, benefit)
		}
		benefit, digest = b, d
		if i < setupRepeats-1 {
			s.close()
			continue
		}
		ss = s
	}
	rss := sampleRSS(strconv.Itoa(ss.srv.cmd.Process.Pid))
	samples := ss.drive(time.Duration(o.seconds) * time.Second)
	peak, err := rss.peak()
	ss.close()
	if err != nil {
		return nil, err
	}
	verifySamples(r, samples)
	// Priming requests are operations too: their check failures count.
	r.attempted = len(samples) + len(ss.primes)*setupRepeats

	var lats []float64
	answered, inSLO, rejected := 0, 0, 0
	for _, s := range samples {
		if s.answered {
			answered++
			lats = append(lats, ms(s.lat))
		}
		if s.ok && s.lat <= sloLatency {
			inSLO++
		}
		if s.status == http.StatusConflict {
			rejected++
		}
	}
	if len(lats) == 0 {
		return nil, errors.New("no request was answered")
	}
	r.set("setup_s", median(setups))
	r.set("ops_per_s", slicedRate(samples, o.seconds))
	p50, p90 := slicedPercentiles(lats)
	r.set("lat_p50_ms", p50)
	r.set("lat_p90_ms", p90)
	r.set("slo_frac", float64(inSLO)/float64(len(samples)))
	r.set("benefit_mean", benefit)
	r.set("peak_rss_mb", peak)
	r.note("workload %s seed %d: closed loop, %d tenants on %d connections, %d requests (%d answered)",
		o.workload, o.seed, tenantCount, conns, len(samples), answered)
	r.note("rejected (409) %d, priming digest %016x, setups %v s", rejected, digest, setups)
	return r, nil
}

// verifyView re-checks a DecisionView against the tasks the benchmark
// knows it admitted: same tenant, seq, count and IDs; each choice's
// budget and expected benefit consistent with its task; and the choices
// pass the exact processor-demand test.
func verifyView(body []byte, tenant string, seq uint64, known []*task.Task) error {
	var v admitd.DecisionView
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		return fmt.Errorf("decoding view: %w", err)
	}
	if v.Tenant != tenant || v.Seq != seq {
		return fmt.Errorf("view is %s seq %d, want %s seq %d", v.Tenant, v.Seq, tenant, seq)
	}
	if v.Tasks != len(known) || len(v.Choices) != len(known) {
		return fmt.Errorf("view holds %d tasks (%d choices), want %d", v.Tasks, len(v.Choices), len(known))
	}
	choices, err := choicesOf(v.Choices, known)
	if err != nil {
		return err
	}
	total, offloaded := 0.0, 0
	for i, c := range choices {
		if c.Expected != v.Choices[i].Expected {
			return fmt.Errorf("task %d: expected benefit %v, want %v", c.Task.ID, v.Choices[i].Expected, c.Expected)
		}
		total += c.Expected
		if c.Offload {
			offloaded++
		}
	}
	if offloaded != v.Offloaded {
		return fmt.Errorf("view reports %d offloaded, choices have %d", v.Offloaded, offloaded)
	}
	if math.Abs(total-v.TotalExpected) > 1e-9*math.Max(1, math.Abs(total)) {
		return fmt.Errorf("totalExpected %v, choices sum to %v", v.TotalExpected, total)
	}
	return verifyExact(choices)
}
