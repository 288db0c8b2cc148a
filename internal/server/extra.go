package server

import (
	"fmt"
	"math"

	"rtoffload/internal/rtime"
	"rtoffload/internal/stats"
)

// GilbertConfig parameterizes the bursty two-state (Gilbert–Elliott)
// server: in the Good state responses are fast; in the Bad state —
// a congested network or a server busy with a burst of background
// work — they are slow or lost. State transitions are evaluated per
// request based on elapsed time, giving bursts with geometric-like
// durations.
type GilbertConfig struct {
	// Mean sojourn times of the two states.
	GoodDuration, BadDuration rtime.Duration
	// Latencies per state (log-normal around the mean with the given
	// sigma; sigma 0 = deterministic).
	GoodLatency, BadLatency rtime.Duration
	Sigma                   float64
	// BadLossProbability: chance a Bad-state request is lost entirely.
	BadLossProbability float64
}

// Validate checks the configuration.
func (c GilbertConfig) Validate() error {
	if c.GoodDuration <= 0 || c.BadDuration <= 0 {
		return fmt.Errorf("server: gilbert sojourn times must be positive")
	}
	if c.GoodLatency <= 0 || c.BadLatency <= 0 {
		return fmt.Errorf("server: gilbert latencies must be positive")
	}
	if c.Sigma < 0 {
		return fmt.Errorf("server: negative sigma")
	}
	if c.BadLossProbability < 0 || c.BadLossProbability > 1 {
		return fmt.Errorf("server: loss probability %g out of [0,1]", c.BadLossProbability)
	}
	return nil
}

// Gilbert is the bursty two-state server. It implements Server.
type Gilbert struct {
	cfg GilbertConfig
	rng *stats.RNG

	bad      bool
	switchAt rtime.Instant
}

// NewGilbert builds a bursty server starting in the Good state.
func NewGilbert(rng *stats.RNG, cfg GilbertConfig) (*Gilbert, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &Gilbert{cfg: cfg, rng: rng}
	g.switchAt = rtime.Instant(g.sojourn(false))
	return g, nil
}

func (g *Gilbert) sojourn(bad bool) rtime.Duration {
	mean := g.cfg.GoodDuration
	if bad {
		mean = g.cfg.BadDuration
	}
	d := rtime.FromSeconds(g.rng.Exponential(mean.Seconds()))
	if d <= 0 {
		d = 1
	}
	return d
}

// advance rolls the state machine forward to the given instant.
func (g *Gilbert) advance(now rtime.Instant) {
	for g.switchAt <= now {
		g.bad = !g.bad
		g.switchAt = g.switchAt.Add(g.sojourn(g.bad))
	}
}

// Respond implements Server.
func (g *Gilbert) Respond(issue rtime.Instant, _ int, _ int64) Response {
	g.advance(issue)
	mean := g.cfg.GoodLatency
	if g.bad {
		if g.cfg.BadLossProbability > 0 && g.rng.Bool(g.cfg.BadLossProbability) {
			return Response{}
		}
		mean = g.cfg.BadLatency
	}
	lat := mean
	if g.cfg.Sigma > 0 {
		mu := math.Log(mean.Seconds()) - g.cfg.Sigma*g.cfg.Sigma/2
		lat = rtime.FromSeconds(g.rng.LogNormal(mu, g.cfg.Sigma))
	}
	if lat <= 0 {
		lat = 1
	}
	return Response{Latency: lat, Arrives: true}
}

// FailAfter wraps a server that fails permanently at a given instant —
// the fleet failover scenario. Requests issued at or after At never
// return (the client's compensation timer covers every outstanding
// claim, so the hard guarantee is unaffected; only the benefit drops).
type FailAfter struct {
	Inner Server
	At    rtime.Instant
}

// Respond implements Server.
func (f FailAfter) Respond(issue rtime.Instant, taskID int, payloadBytes int64) Response {
	if issue >= f.At {
		return Response{}
	}
	return f.Inner.Respond(issue, taskID, payloadBytes)
}
