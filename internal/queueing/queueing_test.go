package queueing

import (
	"math"
	"testing"

	"rtoffload/internal/rtime"
	"rtoffload/internal/server"
	"rtoffload/internal/stats"
)

func TestErlangCKnownValues(t *testing.T) {
	// M/M/1: C = ρ.
	for _, rho := range []float64{0.1, 0.5, 0.9} {
		c, err := ErlangC(1, rho*10, 10)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(c-rho) > 1e-12 {
			t.Errorf("M/M/1 ErlangC(ρ=%g) = %g", rho, c)
		}
	}
	// M/M/2 with a = 1.5: hand-computed 0.64286…
	c2, err := ErlangC(2, 30, 20)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c2-0.6428571) > 1e-6 {
		t.Errorf("ErlangC(2, a=1.5) = %g, want ≈0.642857", c2)
	}
}

func TestErlangCErrors(t *testing.T) {
	if _, err := ErlangC(0, 1, 1); err == nil {
		t.Error("c=0 accepted")
	}
	if _, err := ErlangC(1, 0, 1); err == nil {
		t.Error("λ=0 accepted")
	}
	if _, err := ErlangC(1, 10, 10); err == nil {
		t.Error("unstable system accepted")
	}
}

func TestMeanWaitMM1(t *testing.T) {
	// M/M/1: Wq = ρ/(μ−λ).
	lambda, mu := 8.0, 10.0
	wq, err := MeanWait(1, lambda, mu)
	if err != nil {
		t.Fatal(err)
	}
	want := (lambda / mu) / (mu - lambda)
	if math.Abs(wq-want) > 1e-12 {
		t.Errorf("Wq = %g, want %g", wq, want)
	}
}

// Cross-validation: internal/server's queueing simulator converges to
// the Erlang-C mean wait when driven with Poisson arrivals and
// exponential service (the background stream), measured by
// near-zero-service probes.
func TestQueueSimulatorMatchesErlangC(t *testing.T) {
	const (
		workers = 2
		lambda  = 30.0 // background arrivals per second
		mu      = 20.0 // service rate per worker (mean 50ms)
	)
	cfg := server.QueueConfig{
		Workers:               workers,
		BandwidthBytesPerSec:  1 << 40, // no transfer time
		ServiceMean:           rtime.FromMillis(1000),
		ServiceRefBytes:       1 << 40, // probe payload 1 byte → ~0 service
		BackgroundRatePerSec:  lambda,
		BackgroundServiceMean: rtime.FromMillisF(1000 / mu),
	}
	q, err := server.NewQueue(stats.NewRNG(99), cfg)
	if err != nil {
		t.Fatal(err)
	}
	const probes = 40000
	sum := 0.0
	at := rtime.Instant(0)
	for i := 0; i < probes; i++ {
		resp := q.Respond(at, 1, 1)
		sum += resp.Latency.Seconds()
		at = at.Add(rtime.FromMillis(25))
	}
	got := sum / probes
	want, err := MeanWait(workers, lambda, mu)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(got-want) / want; rel > 0.08 {
		t.Fatalf("simulated mean wait %.2fms vs Erlang-C %.2fms (%.1f%% off)",
			got*1000, want*1000, rel*100)
	}
	t.Logf("simulated %.2fms vs Erlang-C %.2fms over %d probes", got*1000, want*1000, probes)
}
