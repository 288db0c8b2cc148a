package server

import (
	"math"
	"testing"

	"rtoffload/internal/rtime"
	"rtoffload/internal/stats"
)

func ms(v int64) rtime.Duration { return rtime.FromMillis(v) }

func TestFixed(t *testing.T) {
	f := Fixed{Latency: ms(7)}
	r := f.Respond(0, 1, 100)
	if !r.Arrives || r.Latency != ms(7) {
		t.Fatalf("Fixed response = %+v", r)
	}
	lost := Fixed{Lost: true}
	if lost.Respond(0, 1, 100).Arrives {
		t.Fatal("lost server responded")
	}
}

type constSampler struct {
	lat rtime.Duration
	ok  bool
}

func (c constSampler) SampleResponse(*stats.RNG) (rtime.Duration, bool) { return c.lat, c.ok }

func TestCDFServer(t *testing.T) {
	srv := NewCDF(stats.NewRNG(1), map[int]ResponseSampler{
		1: constSampler{lat: ms(5), ok: true},
		2: constSampler{ok: false},
	})
	if r := srv.Respond(0, 1, 0); !r.Arrives || r.Latency != ms(5) {
		t.Errorf("task 1 response = %+v", r)
	}
	if r := srv.Respond(0, 2, 0); r.Arrives {
		t.Errorf("task 2 should never arrive, got %+v", r)
	}
	if r := srv.Respond(0, 99, 0); r.Arrives {
		t.Errorf("unregistered task responded: %+v", r)
	}
}

func TestQueueConfigValidate(t *testing.T) {
	good := QueueConfig{
		Workers: 1, BandwidthBytesPerSec: 1000, ServiceMean: ms(5), ServiceRefBytes: 100,
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	mutations := []func(*QueueConfig){
		func(c *QueueConfig) { c.Workers = 0 },
		func(c *QueueConfig) { c.BandwidthBytesPerSec = 0 },
		func(c *QueueConfig) { c.ServiceMean = 0 },
		func(c *QueueConfig) { c.ServiceRefBytes = 0 },
		func(c *QueueConfig) { c.BackgroundRatePerSec = -1 },
		func(c *QueueConfig) { c.BackgroundRatePerSec = 5 },
		func(c *QueueConfig) { c.LossProbability = 1.5 },
		func(c *QueueConfig) { c.LossProbability = math.NaN() },
		func(c *QueueConfig) { c.NetLatencySigma = -1 },
		func(c *QueueConfig) { c.NetLatencyMean = -1 },
	}
	for i, m := range mutations {
		c := good
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	if _, err := NewQueue(stats.NewRNG(1), QueueConfig{}); err == nil {
		t.Error("NewQueue accepted zero config")
	}
}

func TestQueueDeterministic(t *testing.T) {
	cfg, err := ScenarioConfig(NotBusy)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := NewQueue(stats.NewRNG(5), cfg)
	b, _ := NewQueue(stats.NewRNG(5), cfg)
	at := rtime.Instant(0)
	for i := 0; i < 200; i++ {
		ra := a.Respond(at, 1, 60000)
		rb := b.Respond(at, 1, 60000)
		if ra != rb {
			t.Fatalf("request %d: %+v vs %+v", i, ra, rb)
		}
		at = at.Add(ms(50))
	}
}

func TestQueueTransferDominatesForLargePayloads(t *testing.T) {
	cfg := QueueConfig{
		Workers:              4,
		BandwidthBytesPerSec: 1_000_000,
		ServiceMean:          ms(1),
		ServiceRefBytes:      1000,
	}
	q, err := NewQueue(stats.NewRNG(2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 1 MB at 1 MB/s: at least 1 s of transfer.
	r := q.Respond(0, 1, 1_000_000)
	if !r.Arrives {
		t.Fatal("lost without loss probability")
	}
	if r.Latency < rtime.Second {
		t.Fatalf("latency %v below pure transfer time 1s", r.Latency)
	}
}

func TestQueueBacklogGrowsUnderLoad(t *testing.T) {
	// Single worker, service mean 10ms, requests every 5ms: queue must
	// build up, so later requests see larger latencies.
	cfg := QueueConfig{
		Workers:              1,
		BandwidthBytesPerSec: 1 << 30,
		ServiceMean:          ms(10),
		ServiceRefBytes:      1000,
	}
	q, err := NewQueue(stats.NewRNG(3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var first, last float64
	n := 400
	at := rtime.Instant(0)
	for i := 0; i < n; i++ {
		r := q.Respond(at, 1, 1000)
		if i < 20 {
			first += r.Latency.Seconds() / 20
		}
		if i >= n-20 {
			last += r.Latency.Seconds() / 20
		}
		at = at.Add(ms(5))
	}
	if last < 3*first {
		t.Fatalf("overloaded queue did not back up: first ≈ %gs, last ≈ %gs", first, last)
	}
}

func TestQueueParallelWorkersReduceWait(t *testing.T) {
	mk := func(workers int) float64 {
		cfg := QueueConfig{
			Workers:              workers,
			BandwidthBytesPerSec: 1 << 30,
			ServiceMean:          ms(10),
			ServiceRefBytes:      1000,
		}
		q, err := NewQueue(stats.NewRNG(4), cfg)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		at := rtime.Instant(0)
		for i := 0; i < 300; i++ {
			r := q.Respond(at, 1, 1000)
			sum += r.Latency.Seconds()
			at = at.Add(ms(8))
		}
		return sum / 300
	}
	one, four := mk(1), mk(4)
	if four >= one {
		t.Fatalf("4 workers (%gs) not faster than 1 (%gs)", four, one)
	}
}

func TestQueueLoss(t *testing.T) {
	cfg := QueueConfig{
		Workers: 1, BandwidthBytesPerSec: 1 << 30,
		ServiceMean: ms(1), ServiceRefBytes: 1000,
		LossProbability: 0.3,
	}
	q, err := NewQueue(stats.NewRNG(6), cfg)
	if err != nil {
		t.Fatal(err)
	}
	lost := 0
	n := 20000
	at := rtime.Instant(0)
	for i := 0; i < n; i++ {
		if !q.Respond(at, 1, 1000).Arrives {
			lost++
		}
		at = at.Add(ms(100))
	}
	if frac := float64(lost) / float64(n); math.Abs(frac-0.3) > 0.02 {
		t.Fatalf("loss fraction = %g, want ≈0.3", frac)
	}
}

func TestScenarioOrdering(t *testing.T) {
	// Success within a 200ms budget must order Idle ≥ NotBusy ≥ Busy.
	within := func(s Scenario) float64 {
		srv, err := NewScenario(stats.NewRNG(7), s)
		if err != nil {
			t.Fatal(err)
		}
		okCount := 0
		n := 3000
		at := rtime.Instant(0)
		for i := 0; i < n; i++ {
			r := srv.Respond(at, 1, 120000)
			if r.Arrives && r.Latency <= ms(200) {
				okCount++
			}
			at = at.Add(ms(300))
		}
		return float64(okCount) / float64(n)
	}
	busy, notBusy, idle := within(Busy), within(NotBusy), within(Idle)
	t.Logf("success within 200ms: busy=%.3f notBusy=%.3f idle=%.3f", busy, notBusy, idle)
	if !(idle > notBusy && notBusy > busy) {
		t.Fatalf("scenario ordering violated: busy=%g notBusy=%g idle=%g", busy, notBusy, idle)
	}
	if idle < 0.9 {
		t.Errorf("idle scenario success %g too low", idle)
	}
	if busy > 0.6 {
		t.Errorf("busy scenario success %g too high", busy)
	}
}

func TestScenarioString(t *testing.T) {
	if Busy.String() != "busy" || NotBusy.String() != "not-busy" || Idle.String() != "idle" {
		t.Error("scenario names wrong")
	}
	if Scenario(9).String() == "" {
		t.Error("unknown scenario empty")
	}
	if _, err := ScenarioConfig(Scenario(9)); err == nil {
		t.Error("unknown scenario accepted")
	}
}

func TestProbe(t *testing.T) {
	srv := Fixed{Latency: ms(9)}
	lats, next := ProbeFrom(srv, 0, 50, 1000, ms(10))
	if len(lats) != 50 || next != rtime.Instant(0).Add(500*ms(1)) {
		t.Fatalf("got %d latencies, next probe at %v", len(lats), next)
	}
	for _, l := range lats {
		if l != ms(9) {
			t.Fatalf("latency %v", l)
		}
	}
	if got, next := ProbeFrom(srv, 7, 0, 1000, ms(10)); got != nil || next != 7 {
		t.Errorf("ProbeFrom(n=0) = %v, %v", got, next)
	}
	// Lost responses are excluded.
	if got, _ := ProbeFrom(Fixed{Lost: true}, 0, 10, 0, ms(1)); len(got) != 0 {
		t.Errorf("lost probe returned %v", got)
	}
}
