package server

import (
	"fmt"

	"rtoffload/internal/rtime"
	"rtoffload/internal/stats"
)

// Scenario names the three server-load conditions of the paper's case
// study (§6.1.3).
type Scenario int

const (
	// Busy: the GPU server is saturated by other applications; only a
	// small number of offloaded tasks get results in time.
	Busy Scenario = iota
	// NotBusy: the server carries some other applications; a part of
	// the offloaded tasks get results in time.
	NotBusy
	// Idle: the server processes only the offloaded tasks; most get
	// results in time.
	Idle
)

// String implements fmt.Stringer.
func (s Scenario) String() string {
	switch s {
	case Busy:
		return "busy"
	case NotBusy:
		return "not-busy"
	case Idle:
		return "idle"
	default:
		return fmt.Sprintf("Scenario(%d)", int(s))
	}
}

// ScenarioConfig returns the queueing configuration for a case-study
// scenario. The common base models a 2-worker GPU server (two Tesla
// boards) on a ~50 Mbit/s wireless LAN with a few ms of jittery
// latency; the scenarios differ only in background load, reproducing
// "busy", "not busy" and "idle".
func ScenarioConfig(s Scenario) (QueueConfig, error) {
	cfg := QueueConfig{
		Workers:              2,
		BandwidthBytesPerSec: 6_250_000, // 50 Mbit/s
		NetLatencyMean:       rtime.FromMillis(4),
		NetLatencySigma:      0.6,
		ServiceMean:          rtime.FromMillis(12), // reference frame on one GPU
		ServiceRefBytes:      300 * 200,            // the motivation example's 300×200 image
		ServiceJitter:        0.2,
		LossProbability:      0.01,
	}
	switch s {
	case Busy:
		cfg.BackgroundRatePerSec = 28
		cfg.BackgroundServiceMean = rtime.FromMillis(70)
		cfg.LossProbability = 0.05
	case NotBusy:
		cfg.BackgroundRatePerSec = 14
		cfg.BackgroundServiceMean = rtime.FromMillis(45)
		cfg.LossProbability = 0.02
	case Idle:
		cfg.BackgroundRatePerSec = 0
		cfg.BackgroundServiceMean = 0
	default:
		return QueueConfig{}, fmt.Errorf("server: unknown scenario %d", int(s))
	}
	return cfg, nil
}

// NewScenario builds the queueing server for a case-study scenario.
func NewScenario(rng *stats.RNG, s Scenario) (*Queue, error) {
	cfg, err := ScenarioConfig(s)
	if err != nil {
		return nil, err
	}
	return NewQueue(rng, cfg)
}

// ProbeFrom issues n spaced requests with the given payload starting at
// the given instant and returns the observed latencies of the requests
// that arrived, plus the instant following the last probe. It is the
// measurement phase of the paper's Benefit and Response Time
// Estimator: offline probing builds the statistics from which Gi(ri)
// is discretized.
//
// spacing is the gap between successive probes; it should roughly
// match the production request rate so queueing effects are
// representative. Stateful servers (Queue) require non-decreasing
// request instants, so successive batches must chain their clocks.
func ProbeFrom(srv Server, start rtime.Instant, n int, payloadBytes int64, spacing rtime.Duration) ([]rtime.Duration, rtime.Instant) {
	if n <= 0 {
		return nil, start
	}
	out := make([]rtime.Duration, 0, n)
	at := start
	for i := 0; i < n; i++ {
		resp := srv.Respond(at, -1, payloadBytes)
		if resp.Arrives {
			out = append(out, resp.Latency)
		}
		at = at.Add(spacing)
	}
	return out, at
}
