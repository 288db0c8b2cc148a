// Package server models the timing unreliable components that serve
// offloaded computations: a GPU server reached over an unreliable
// network, as in the paper's case study (two Tesla M2050 boards behind
// an rCUDA-style proxy on a wireless LAN).
//
// The offloading mechanism observes a server through exactly one
// channel — the response time of each request — so the substitution
// for the paper's physical testbed is a family of stochastic
// response-time models:
//
//   - Fixed: deterministic latency (unit tests, worst-case adversary).
//   - CDF: samples from an arbitrary response-time CDF, e.g. a
//     probability-valued benefit function; this makes the simulated
//     ground truth agree exactly with the decision input (§6.2).
//   - Queue: a c-worker FIFO queueing model with payload-dependent
//     transfer and service times plus a Poisson background load; the
//     paper's busy / not-busy / idle scenarios are three parameter
//     sets of this model (§6.1.3).
//
// All models are deterministic given their RNG seed.
package server

import (
	"fmt"
	"math"

	"rtoffload/internal/rtime"
	"rtoffload/internal/stats"
)

// Response is the outcome of one offload request.
type Response struct {
	// Latency is the time from issuing the request to the result
	// arriving back at the client. Meaningless when Arrives is false.
	Latency rtime.Duration
	// Arrives reports whether a result comes back at all. A lost
	// request (network drop, server failure) never produces a result;
	// the client's compensation timer is its only recourse.
	Arrives bool
}

// Server models a timing unreliable component serving offloaded
// requests. Implementations may maintain internal queue state; calls
// must be made with non-decreasing issue instants.
type Server interface {
	// Respond simulates one offload request issued at the given
	// instant by task taskID with the given payload size.
	Respond(issue rtime.Instant, taskID int, payloadBytes int64) Response
}

// Fixed responds to every request with the same latency. A Fixed with
// Lost=true never responds — the adversarial worst case that forces
// every offloaded job through local compensation.
type Fixed struct {
	Latency rtime.Duration
	Lost    bool
}

// Respond implements Server.
func (f Fixed) Respond(rtime.Instant, int, int64) Response {
	if f.Lost {
		return Response{}
	}
	return Response{Latency: f.Latency, Arrives: true}
}

// Bounded wraps a server with a hard response-time ceiling, modelling
// a component with resource reservations (the paper's §3 remark about
// pessimistic worst-case bounds, in the spirit of Toma & Chen's
// reservation servers): any response that would exceed Bound —
// including lost ones — is delivered exactly at the bound instead.
type Bounded struct {
	Inner Server
	Bound rtime.Duration
}

// Respond implements Server.
//
//rtlint:allow reach -- harness: used by the invariant harness (chaos/invariant); the invariant checker on the ROADMAP ships it
func (b Bounded) Respond(issue rtime.Instant, taskID int, payloadBytes int64) Response {
	r := b.Inner.Respond(issue, taskID, payloadBytes)
	if !r.Arrives || r.Latency > b.Bound {
		return Response{Latency: b.Bound, Arrives: true}
	}
	return r
}

// ResponseSampler draws a response time; ok=false means the result
// never arrives. benefit.Function.SampleResponse satisfies this shape
// via the Sampler adapter in package core.
type ResponseSampler interface {
	SampleResponse(rng *stats.RNG) (rtime.Duration, bool)
}

// CDF serves each task's requests by sampling its response-time
// distribution. Tasks without a registered sampler never receive
// results.
type CDF struct {
	rng      *stats.RNG
	samplers map[int]ResponseSampler
}

// NewCDF builds a CDF server. The samplers map is keyed by task ID.
func NewCDF(rng *stats.RNG, samplers map[int]ResponseSampler) *CDF {
	return &CDF{rng: rng, samplers: samplers}
}

// Respond implements Server.
func (c *CDF) Respond(_ rtime.Instant, taskID int, _ int64) Response {
	s, ok := c.samplers[taskID]
	if !ok {
		return Response{}
	}
	lat, ok := s.SampleResponse(c.rng)
	if !ok {
		return Response{}
	}
	return Response{Latency: lat, Arrives: true}
}

// QueueConfig parameterizes the queueing GPU-server model.
type QueueConfig struct {
	// Workers is the number of parallel service units (GPU boards /
	// proxy threads). Must be ≥ 1.
	Workers int

	// BandwidthBytesPerSec is the network bandwidth for payload
	// transfer, each direction. ≥ 1.
	BandwidthBytesPerSec int64

	// NetLatencyMean/Jitter: per-direction base network latency; the
	// sampled latency is LogNormal-shaped around the mean.
	NetLatencyMean  rtime.Duration
	NetLatencySigma float64 // sigma of the underlying normal (0 = deterministic)

	// ServiceMean is the mean GPU service time for a reference payload
	// of ServiceRefBytes; service scales linearly with payload. GPU
	// kernels are near-deterministic for a fixed size, so the sampled
	// service is the scaled mean ± ServiceJitter (uniform fractional
	// jitter in [0, 1); 0 = deterministic). The timing *unreliability*
	// comes from queueing behind background load, not from the kernel.
	ServiceMean     rtime.Duration
	ServiceRefBytes int64
	ServiceJitter   float64

	// BackgroundRatePerSec is the Poisson arrival rate of background
	// jobs competing for the workers (the paper's "server busy
	// processing other applications"). BackgroundServiceMean is their
	// mean (exponential) service time.
	BackgroundRatePerSec  float64
	BackgroundServiceMean rtime.Duration

	// LossProbability is the chance a request or its result is lost in
	// the network and never arrives.
	LossProbability float64
}

// Validate checks the configuration.
func (c QueueConfig) Validate() error {
	switch {
	case c.Workers < 1:
		return fmt.Errorf("server: Workers = %d, need ≥ 1", c.Workers)
	case c.BandwidthBytesPerSec < 1:
		return fmt.Errorf("server: bandwidth %d B/s, need ≥ 1", c.BandwidthBytesPerSec)
	case c.NetLatencyMean < 0 || c.ServiceMean <= 0:
		return fmt.Errorf("server: invalid latency/service means")
	case c.ServiceRefBytes < 1:
		return fmt.Errorf("server: ServiceRefBytes %d, need ≥ 1", c.ServiceRefBytes)
	case c.BackgroundRatePerSec < 0 || c.BackgroundServiceMean < 0:
		return fmt.Errorf("server: negative background load")
	case c.BackgroundRatePerSec > 0 && c.BackgroundServiceMean <= 0:
		return fmt.Errorf("server: background rate without service time")
	case c.LossProbability < 0 || c.LossProbability > 1 || math.IsNaN(c.LossProbability):
		return fmt.Errorf("server: loss probability %g out of [0,1]", c.LossProbability)
	case c.NetLatencySigma < 0:
		return fmt.Errorf("server: negative latency sigma")
	case c.ServiceJitter < 0 || c.ServiceJitter >= 1 || math.IsNaN(c.ServiceJitter):
		return fmt.Errorf("server: service jitter %g out of [0,1)", c.ServiceJitter)
	}
	return nil
}

// Queue is a FIFO queueing server with Workers parallel service units
// and a Poisson background load. It implements Server.
type Queue struct {
	cfg QueueConfig
	rng *stats.RNG

	// freeAt[w] is the instant worker w becomes idle.
	freeAt []rtime.Instant
	// nextBackground is the arrival instant of the next background job.
	nextBackground rtime.Instant
}

// NewQueue builds a queueing server.
func NewQueue(rng *stats.RNG, cfg QueueConfig) (*Queue, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	q := &Queue{cfg: cfg, rng: rng, freeAt: make([]rtime.Instant, cfg.Workers)}
	q.nextBackground = q.backgroundGap(0)
	return q, nil
}

func (q *Queue) backgroundGap(from rtime.Instant) rtime.Instant {
	if q.cfg.BackgroundRatePerSec <= 0 {
		return rtime.Forever
	}
	gapSec := q.rng.Exponential(1 / q.cfg.BackgroundRatePerSec)
	return from.Add(rtime.FromSeconds(gapSec) + 1)
}

// admitBackground injects all background arrivals up to now.
func (q *Queue) admitBackground(now rtime.Instant) {
	for q.nextBackground <= now {
		svc := rtime.FromSeconds(q.rng.Exponential(q.cfg.BackgroundServiceMean.Seconds()))
		q.dispatch(q.nextBackground, svc)
		q.nextBackground = q.backgroundGap(q.nextBackground)
	}
}

// dispatch assigns a job arriving at the server at `at` with the given
// service demand to the earliest-free worker, FIFO, and returns its
// completion instant.
func (q *Queue) dispatch(at rtime.Instant, service rtime.Duration) rtime.Instant {
	best := 0
	for w := 1; w < len(q.freeAt); w++ {
		if q.freeAt[w] < q.freeAt[best] {
			best = w
		}
	}
	start := rtime.MaxInstant(at, q.freeAt[best])
	done := start.Add(service)
	q.freeAt[best] = done
	return done
}

func (q *Queue) netLatency() rtime.Duration {
	if q.cfg.NetLatencyMean <= 0 {
		return 0
	}
	if q.cfg.NetLatencySigma == 0 {
		return q.cfg.NetLatencyMean
	}
	// LogNormal with the configured mean: mu = ln(mean) − sigma²/2.
	mu := math.Log(q.cfg.NetLatencyMean.Seconds()) - q.cfg.NetLatencySigma*q.cfg.NetLatencySigma/2
	return rtime.FromSeconds(q.rng.LogNormal(mu, q.cfg.NetLatencySigma))
}

// Respond implements Server: uplink transfer → queue+service →
// downlink transfer, or loss.
func (q *Queue) Respond(issue rtime.Instant, _ int, payloadBytes int64) Response {
	q.admitBackground(issue)
	if q.cfg.LossProbability > 0 && q.rng.Bool(q.cfg.LossProbability) {
		return Response{}
	}
	if payloadBytes < 0 {
		payloadBytes = 0
	}
	transfer := rtime.Duration(payloadBytes * int64(rtime.Second) / q.cfg.BandwidthBytesPerSec)
	up := q.netLatency() + transfer
	arriveAtServer := issue.Add(up)
	q.admitBackground(arriveAtServer)

	meanSvc := float64(q.cfg.ServiceMean) * float64(payloadBytes) / float64(q.cfg.ServiceRefBytes)
	if payloadBytes == 0 {
		meanSvc = float64(q.cfg.ServiceMean)
	}
	jitter := 1.0
	if q.cfg.ServiceJitter > 0 {
		jitter = 1 + q.cfg.ServiceJitter*(2*q.rng.Float64()-1)
	}
	service := rtime.Duration(meanSvc * jitter)
	if service <= 0 {
		service = 1
	}
	done := q.dispatch(arriveAtServer, service)

	down := q.netLatency()
	total := done.Sub(issue) + down
	return Response{Latency: total, Arrives: true}
}
