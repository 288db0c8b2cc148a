package main

// The traced admit pass replays each of the first tracedTenants tenants'
// priming and tracedOps requests (same seed, same streams as the HTTP
// run) twice. First over loopback HTTP to a fresh admitd on one
// connection, timing each request. Then in-process through twins that
// share one operation sequence: the admitd Handler with a recorder (no
// network), a second Service called directly, and two core.Admission
// twins with and without the exact upgrade. Spans around each public
// call give the per-layer costs; committed writes additionally time the
// from-scratch exact upgrade, the §5.2 MCKP solves and the demand tests
// on the committed decision. The network share is each request's HTTP
// latency minus the in-process handler time of the same request.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"time"

	"rtoffload/internal/admitd"
	"rtoffload/internal/core"
	"rtoffload/internal/dbf"
	"rtoffload/internal/mckp"
	"rtoffload/internal/task"
)

// stepFunc applies one request and returns its status and body;
// measured is false for priming requests.
type stepFunc func(t *tenant, rq request, measured bool, id int64) (int, []byte, error)

// replay drives the traced tenants through priming and tracedOps
// measured requests each and returns every sample, priming included.
func replay(seed uint64, step stepFunc) ([]sample, error) {
	var out []sample
	send := func(t *tenant, measured bool, id int64) error {
		rq := t.next()
		status, body, err := step(t, rq, measured, id)
		if err != nil {
			return fmt.Errorf("%s: %w", t.name, err)
		}
		out = append(out, t.settle(rq, status, body, nil))
		return nil
	}
	for i, t := range newTenants(seed)[:tracedTenants] {
		for !t.primed() {
			if err := send(t, false, -1); err != nil {
				return nil, err
			}
		}
		for k := 0; k < tracedOps; k++ {
			if err := send(t, true, int64(i)<<32|int64(k)); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// applyOp runs a write against a core.Admission twin.
func applyOp(a *core.Admission, op admitd.Op, tk *task.Task) error {
	switch op.Kind {
	case admitd.OpAdmit:
		return a.Add(tk)
	case admitd.OpUpdate:
		return a.Update(tk)
	}
	removed, err := a.Remove(op.ID)
	if err == nil && !removed {
		err = core.ErrNotAdmitted
	}
	return err
}

func newHTTPRequest(rq request) *http.Request {
	method, path := rq.route()
	if rq.body == nil {
		return httptest.NewRequest(method, path, nil)
	}
	return httptest.NewRequest(method, path, bytes.NewReader(rq.body))
}

// twinSet holds the in-process twins of one traced pass and what the
// pass counts.
type twinSet struct {
	opts, noexact core.Options
	handler       http.Handler
	svc           *admitd.Service
	adm, admNoEx  map[string]*core.Admission
	tr            *tracer
	r             *result
	// handlerTimes is each measured request's handler time, in order.
	handlerTimes []time.Duration

	ops, committed          int
	st2xx, st409, stOther   int
	viewBytes               int
	live, offl, repaired    int
	promotions, decisionsCk int
}

func newTwinSet(opts core.Options, r *result) *twinSet {
	noex := opts
	noex.ExactUpgrade = false
	return &twinSet{
		opts: opts, noexact: noex,
		handler: admitd.New(opts).Handler(), svc: admitd.New(opts),
		adm: map[string]*core.Admission{}, admNoEx: map[string]*core.Admission{},
		tr: newTracer(), r: r,
	}
}

func (ts *twinSet) step(t *tenant, rq request, measured bool, id int64) (int, []byte, error) {
	var tr *tracer
	if measured {
		tr = ts.tr
	}
	root := tr.begin("op", -1, id)
	hreq, rec := newHTTPRequest(rq), httptest.NewRecorder()
	handlerTime := tr.timed("admitd.handler", root, id, func() { ts.handler.ServeHTTP(rec, hreq) })

	var tk *task.Task
	if rq.body != nil {
		tr.timed("admitd.decode", root, id, func() {
			var v task.Task
			dec := json.NewDecoder(bytes.NewReader(rq.body))
			dec.DisallowUnknownFields()
			if dec.Decode(&v) == nil {
				tk = &v
			}
		})
		if tk == nil {
			return 0, nil, errors.New("task body does not decode")
		}
	}
	var view *admitd.DecisionView
	var err error
	tr.timed("admitd.service", root, id, func() {
		switch rq.op.Kind {
		case admitd.OpAdmit:
			view, err = ts.svc.Admit(t.name, tk)
		case admitd.OpUpdate:
			view, err = ts.svc.Update(t.name, tk)
		default:
			view, err = ts.svc.Evict(t.name, rq.op.ID)
		}
	})
	var enc bytes.Buffer
	tr.timed("admitd.encode", root, id, func() {
		if err == nil {
			_ = json.NewEncoder(&enc).Encode(view) // a bytes.Buffer write cannot fail
		} else {
			_ = json.NewEncoder(&enc).Encode(map[string]string{"error": err.Error()})
		}
	})

	adm, noex := ts.adm[t.name], ts.admNoEx[t.name]
	if adm == nil {
		adm, noex = core.NewAdmission(ts.opts), core.NewAdmission(ts.noexact)
		ts.adm[t.name], ts.admNoEx[t.name] = adm, noex
	}
	var admErr, noexErr error
	tr.timed("core.admission", root, id, func() { admErr = applyOp(adm, rq.op, tk) })
	seq := t.seq
	if admErr == nil {
		seq++
	}
	var cv *admitd.DecisionView
	tr.timed("admitd.view", root, id, func() { cv = admitd.ViewOf(t.name, seq, adm.Decision(), adm.Len()) })
	tr.timed("core.admission_noexact", root, id, func() { noexErr = applyOp(noex, rq.op, tk) })

	if (err == nil) != (admErr == nil) || (admErr == nil) != (noexErr == nil) {
		ts.r.violate("%s: twins disagree: service %v, admission %v, no-exact admission %v", t.name, err, admErr, noexErr)
	}
	if err == nil {
		var cvb bytes.Buffer
		_ = json.NewEncoder(&cvb).Encode(cv) // a bytes.Buffer write cannot fail
		if !bytes.Equal(rec.Body.Bytes(), enc.Bytes()) || !bytes.Equal(cvb.Bytes(), enc.Bytes()) {
			ts.r.violate("%s seq %d: handler, service and admission twin render different views", t.name, seq)
		}
	}
	if measured && admErr == nil {
		ts.extras(tr, root, id, adm, noex)
	}
	tr.end(root)

	if measured {
		ts.ops++
		ts.handlerTimes = append(ts.handlerTimes, handlerTime)
		switch code := rec.Code; {
		case code >= 200 && code < 300:
			ts.st2xx++
			ts.viewBytes += rec.Body.Len()
		case code == http.StatusConflict:
			ts.st409++
		default:
			ts.stOther++
		}
		if admErr == nil {
			ts.committed++
		}
	}
	return rec.Code, rec.Body.Bytes(), nil
}

// extras times the from-scratch paths on a committed write and checks
// them against the incremental decision.
func (ts *twinSet) extras(tr *tracer, root int32, id int64, adm, noex *core.Admission) {
	dec, base := adm.Decision(), noex.Decision()
	set := noex.Tasks()
	var imp *core.Decision
	var err error
	tr.timed("core.improve_exact", root, id, func() { imp, err = core.ImproveWithExact(base, set) })
	if err != nil {
		ts.r.violate("ImproveWithExact: %v", err)
	} else if ts.opts.ExactUpgrade && imp.TotalExpected != dec.TotalExpected {
		ts.r.violate("from-scratch exact upgrade reaches %v, the incremental one %v", imp.TotalExpected, dec.TotalExpected)
	}

	in, err := mckpInstance(adm.Tasks())
	if err != nil {
		ts.r.violate("§5.2 instance: %v", err)
		return
	}
	var sol, coreSol mckp.Solution
	var solErr, coreErr error
	tr.timed("mckp.solve", root, id, func() { sol, solErr = solveWith(ts.opts.Solver, in) })
	tr.timed("mckp.solve_core", root, id, func() { coreSol, coreErr = solveCore(in) })
	if solErr != nil || coreErr != nil {
		ts.r.violate("MCKP solve: %v / core: %v", solErr, coreErr)
	} else if coreSol.Profit < sol.Profit-1e-9*math.Max(1, math.Abs(sol.Profit)) {
		ts.r.violate("exact core solver profit %v below %s profit %v", coreSol.Profit, ts.opts.Solver, sol.Profit)
	}

	ds, off, loc, err := demandsOf(dec.Choices)
	if err != nil {
		ts.r.violate("committed decision has no demand model: %v", err)
		return
	}
	var feasErr, qpaErr error
	tr.timed("dbf.feasible", root, id, func() {
		az, err := dbf.NewAnalyzer(ds)
		if err == nil {
			err = az.Feasible()
		}
		feasErr = err
	})
	tr.timed("dbf.qpa", root, id, func() { qpaErr = dbf.QPA(ds) })
	tr.timed("dbf.theorem3", root, id, func() { dbf.Theorem3(off, loc) })
	if feasErr != nil || qpaErr != nil {
		ts.r.violate("committed decision fails the demand test: %v / %v", feasErr, qpaErr)
	}

	ts.decisionsCk++
	ts.live += len(dec.Choices)
	ts.offl += dec.OffloadedCount()
	ts.repaired += dec.Repaired
	for i, c := range dec.Choices {
		if c.Task.ID != base.Choices[i].Task.ID {
			ts.r.violate("exact and no-exact twins hold tasks in different orders")
			break
		}
		if levelRank(c) > levelRank(base.Choices[i]) {
			ts.promotions++
		}
	}
}

// optionsFromView recovers the running service's decision options from
// one of its views, so the in-process twins follow admitd's defaults.
func optionsFromView(body []byte) (core.Options, error) {
	var v admitd.DecisionView
	if err := json.Unmarshal(body, &v); err != nil {
		return core.Options{}, err
	}
	s, err := solverNamed(v.Solver)
	if err != nil {
		return core.Options{}, err
	}
	return core.Options{Solver: s, ExactUpgrade: v.ExactVerified}, nil
}

// httpReplay sends the traced requests to a fresh admitd over one
// connection and returns every sample and each measured request's
// latency, in order.
func httpReplay(o *options) ([]sample, []time.Duration, error) {
	srv, err := startServer(o.admitd)
	if err != nil {
		return nil, nil, err
	}
	defer srv.kill()
	c := newConn(srv.base)
	defer c.close()
	var lats []time.Duration
	samples, err := replay(o.seed, func(t *tenant, rq request, measured bool, id int64) (int, []byte, error) {
		t0 := time.Now()
		status, body, err := c.do(rq)
		if measured {
			lats = append(lats, time.Since(t0))
		}
		return status, body, err
	})
	return samples, lats, err
}

func runAdmitTraced(o *options) (*result, error) {
	r := newResult()
	httpSamples, httpLats, err := httpReplay(o)
	if err != nil {
		return nil, err
	}
	verifySamples(r, httpSamples)
	var firstView []byte
	for _, s := range httpSamples {
		if s.check != nil {
			firstView = s.check.body
			break
		}
	}
	opts, err := optionsFromView(firstView)
	if err != nil {
		return nil, fmt.Errorf("no committed view to read admitd's options from: %w", err)
	}

	ts := newTwinSet(opts, r)
	tracedSamples, err := replay(o.seed, ts.step)
	if err != nil {
		return nil, err
	}
	verifySamples(r, tracedSamples)
	if len(httpSamples) != len(tracedSamples) || len(httpLats) != len(ts.handlerTimes) {
		r.violate("HTTP and in-process replays diverged")
	} else {
		for i := range httpSamples {
			if httpSamples[i].status != tracedSamples[i].status {
				r.violate("HTTP and in-process replays diverged at request %d", i)
				break
			}
		}
	}
	r.attempted = len(httpSamples) + len(tracedSamples)
	if err := ts.tr.write(o.work, o.workload); err != nil {
		return nil, err
	}
	var httpUS, net []float64
	for i := range min(len(httpLats), len(ts.handlerTimes)) {
		httpUS = append(httpUS, us(httpLats[i]))
		net = append(net, us(httpLats[i]-ts.handlerTimes[i]))
	}

	sum, n := ts.tr.layerTotals()
	perOp := func(name string) float64 { return us(sum[name]) / float64(ts.ops) }
	perCall := func(name string) float64 {
		if n[name] == 0 {
			return 0
		}
		return us(sum[name]) / float64(n[name])
	}
	handler, decode, service, encode := perOp("admitd.handler"), perOp("admitd.decode"), perOp("admitd.service"), perOp("admitd.encode")
	view, admission, noexact := perOp("admitd.view"), perOp("core.admission"), perOp("core.admission_noexact")
	r.set("admitd.handler_us", handler)
	r.set("admitd.decode_us", decode)
	r.set("admitd.service_us", service)
	r.set("admitd.encode_us", encode)
	r.set("admitd.view_us", view)
	r.set("admitd.net_us", mean(net))
	r.set("admitd.lock_lookup_us", service-admission)
	r.set("admitd.handler.unattributed_frac", sumCheck(r, "handler", handler,
		map[string]float64{"decode": decode, "service": service, "encode": encode}))
	r.set("admitd.service.unattributed_frac", sumCheck(r, "service", service,
		map[string]float64{"admission": admission, "view": view}))
	r.set("admitd.status_2xx", float64(ts.st2xx))
	r.set("admitd.status_409", float64(ts.st409))
	r.set("admitd.status_other", float64(ts.stOther))
	r.set("admitd.reject_frac", float64(ts.st409)/math.Max(1, float64(ts.ops)))
	r.set("admitd.view_bytes", float64(ts.viewBytes)/math.Max(1, float64(ts.st2xx)))
	r.set("core.admission_us", admission)
	r.set("core.admission_noexact_us", noexact)
	r.set("core.exact_upgrade_us", admission-noexact)
	r.set("core.improve_exact_us", perCall("core.improve_exact"))
	r.set("core.live_tasks_mean", float64(ts.live)/math.Max(1, float64(ts.decisionsCk)))
	r.set("core.offloaded_frac", float64(ts.offl)/math.Max(1, float64(ts.live)))
	r.set("core.repaired_total", float64(ts.repaired))
	r.set("core.exact_promotions", float64(ts.promotions))
	r.set("mckp.solve_us", perCall("mckp.solve"))
	r.set("mckp.solve_core_us", perCall("mckp.solve_core"))
	r.set("dbf.feasible_us", perCall("dbf.feasible"))
	r.set("dbf.qpa_us", perCall("dbf.qpa"))
	r.set("dbf.theorem3_us", perCall("dbf.theorem3"))
	r.set("bench.trace_overhead_frac", ts.tr.overheadFrac())
	r.note("workload %s seed %d traced: %s (exact=%v), %d measured requests (%d committed), HTTP mean %.1f us over the same requests",
		o.workload, o.seed, opts.Solver, opts.ExactUpgrade, ts.ops, ts.committed, mean(httpUS))
	r.note("benchmark bookkeeping per request (op self time) %.1f us", perOp("op"))
	return r, nil
}
