// Package chaos is a composable fault-injection layer for the timing
// unreliable components in package server.
//
// The offloading mechanism of the paper observes a server through
// exactly one channel — the response time of each request — so every
// networking fault that matters in a real deployment (Behnke et al.'s
// IIoT uncertainty taxonomy: loss, duplication, reordering, latency
// spikes, connection stalls, correlated bad-channel bursts, clock
// skew) projects onto that channel as "the result arrives later, or
// not at all". An Injector wraps any server.Server and applies those
// projections adversarially:
//
//   - Drop: the response is lost (independent Bernoulli per request).
//   - Duplicate: a retransmitted copy trails the original by a random
//     delay; when the original was dropped by the chaos layer, the
//     late duplicate *rescues* the request at the higher latency —
//     at-least-once delivery semantics.
//   - Reorder: the response is held back in a queue and re-delivered
//     behind later traffic; on the response-time channel this is
//     observable as a FIFO inversion against subsequent requests.
//   - Spike: a transient latency spike (uniform, bounded).
//   - Hang: the component stalls mid-burst for a random window; every
//     response due inside the window is delivered at its end.
//   - GilbertElliott: a two-state good/bad channel model with
//     correlated loss and extra delay while the channel is bad.
//   - Skew: bounded clock skew between the client's request timestamp
//     and response timestamp, observable as a bounded measurement
//     error on the latency (never below zero).
//
// Determinism contract: every fault class draws from its own forked
// stats.RNG stream, and a disabled fault consumes no randomness, so
// enabling or re-tuning one fault never perturbs the decisions of the
// others, and the injected fault sequence is a pure function of
// (Config, seed, request count) — never of the wrapped server's
// behavior. An all-pass Config (the zero value) makes the Injector a
// bit-exact no-op: the wrapped run's Result, statistics and traces are
// identical to the unwrapped server's.
//
// Injected faults can be recorded into a Schedule and replayed with a
// Player, giving failure reproduction that is independent of the RNG
// streams that produced the faults.
package chaos

import (
	"fmt"
	"math"

	"rtoffload/internal/rtime"
	"rtoffload/internal/server"
	"rtoffload/internal/stats"
)

// GilbertElliott parameterizes the correlated good/bad channel model.
// The channel starts good; before each request it transitions with the
// configured probabilities, so bad periods arrive in bursts whose mean
// length is 1/PBadGood requests.
type GilbertElliott struct {
	// PGoodBad is the per-request probability of entering the bad
	// state; zero disables the channel model entirely.
	PGoodBad float64
	// PBadGood is the per-request probability of recovering. Must be
	// positive when PGoodBad is.
	PBadGood float64
	// BadLoss is the response-loss probability while bad.
	BadLoss float64
	// BadDelayMax: while bad, each response is additionally delayed by
	// a uniform draw from [0, BadDelayMax].
	BadDelayMax rtime.Duration
}

// enabled reports whether the channel model is active.
func (g GilbertElliott) enabled() bool { return g.PGoodBad > 0 }

// validate checks the channel parameters.
func (g GilbertElliott) validate() error {
	switch {
	case !validProb(g.PGoodBad) || !validProb(g.PBadGood) || !validProb(g.BadLoss):
		return fmt.Errorf("chaos: Gilbert–Elliott probability out of [0,1]")
	case g.PGoodBad > 0 && g.PBadGood <= 0:
		return fmt.Errorf("chaos: Gilbert–Elliott channel can never recover (PBadGood = 0)")
	case g.BadDelayMax < 0:
		return fmt.Errorf("chaos: negative Gilbert–Elliott delay")
	}
	return nil
}

// Config selects which faults the Injector applies and how hard. The
// zero value is the all-pass configuration: no fault is ever injected
// and the wrapped server's responses pass through bit-identically.
type Config struct {
	// Drop is the independent per-request response-loss probability.
	Drop float64

	// Dup is the probability that a request's response is duplicated;
	// the copy trails the original by a uniform draw from
	// [0, DupDelayMax]. A duplicate rescues a response dropped by the
	// chaos layer (Drop or the bad channel) at the delayed instant.
	Dup         float64
	DupDelayMax rtime.Duration

	// Reorder is the probability that a response is held back and
	// re-delivered behind later traffic, delayed by a uniform draw
	// from [0, ReorderDelayMax].
	Reorder         float64
	ReorderDelayMax rtime.Duration

	// Spike is the probability of a transient latency spike, uniform
	// in [0, SpikeMax].
	Spike    float64
	SpikeMax rtime.Duration

	// Hang is the per-request probability that the component stalls
	// for a uniform window in [0, HangMax] starting at the request's
	// issue instant; every response due inside a stall window is
	// delivered at its end.
	Hang    float64
	HangMax rtime.Duration

	// GE is the correlated good/bad channel model.
	GE GilbertElliott

	// SkewBound is the clock-skew bound: each observed latency is
	// perturbed by a uniform draw from [−SkewBound, +SkewBound],
	// clamped at zero.
	SkewBound rtime.Duration
}

func validProb(p float64) bool { return p >= 0 && p <= 1 && !math.IsNaN(p) }

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case !validProb(c.Drop):
		return fmt.Errorf("chaos: drop probability %g out of [0,1]", c.Drop)
	case !validProb(c.Dup):
		return fmt.Errorf("chaos: duplicate probability %g out of [0,1]", c.Dup)
	case !validProb(c.Reorder):
		return fmt.Errorf("chaos: reorder probability %g out of [0,1]", c.Reorder)
	case !validProb(c.Spike):
		return fmt.Errorf("chaos: spike probability %g out of [0,1]", c.Spike)
	case !validProb(c.Hang):
		return fmt.Errorf("chaos: hang probability %g out of [0,1]", c.Hang)
	case c.DupDelayMax < 0 || c.ReorderDelayMax < 0 || c.SpikeMax < 0 || c.HangMax < 0 || c.SkewBound < 0:
		return fmt.Errorf("chaos: negative fault duration")
	}
	return c.GE.validate()
}

// Enabled reports whether any fault can fire under this configuration.
func (c Config) Enabled() bool {
	return c.Drop > 0 || c.Dup > 0 || c.Reorder > 0 || c.Spike > 0 ||
		c.Hang > 0 || c.GE.enabled() || c.SkewBound > 0
}

// Scale returns a copy with every fault *probability* multiplied by x
// (clamped to [0,1]); delay bounds are kept. Scale(0) is all-pass.
// It is the intensity knob of the robustness ablation.
func (c Config) Scale(x float64) Config {
	if x < 0 {
		x = 0
	}
	clamp := func(p float64) float64 {
		p *= x
		if p > 1 {
			return 1
		}
		return p
	}
	out := c
	out.Drop = clamp(c.Drop)
	out.Dup = clamp(c.Dup)
	out.Reorder = clamp(c.Reorder)
	out.Spike = clamp(c.Spike)
	out.Hang = clamp(c.Hang)
	out.GE.PGoodBad = clamp(c.GE.PGoodBad)
	out.GE.BadLoss = clamp(c.GE.BadLoss)
	if x == 0 {
		out.SkewBound = 0
	}
	return out
}

// Injector wraps a server.Server and perturbs its responses according
// to a Config. It implements server.Server. Like the stateful servers
// it wraps, it must see non-decreasing issue instants and is not safe
// for concurrent use.
type Injector struct {
	inner server.Server
	cfg   Config

	// One independent stream per fault class, forked in fixed order
	// from the constructor's base RNG.
	chanRNG    *stats.RNG
	dropRNG    *stats.RNG
	dupRNG     *stats.RNG
	reorderRNG *stats.RNG
	spikeRNG   *stats.RNG
	hangRNG    *stats.RNG
	skewRNG    *stats.RNG

	bad       bool          // Gilbert–Elliott state
	hangUntil rtime.Instant // end of the current stall window
	req       int64         // request counter

	rec *Schedule // non-nil while recording
}

// New builds an Injector around inner. The base RNG is consumed to
// fork one independent stream per fault class; it can be discarded
// afterwards.
func New(inner server.Server, cfg Config, rng *stats.RNG) (*Injector, error) {
	if inner == nil {
		return nil, fmt.Errorf("chaos: nil inner server")
	}
	if rng == nil {
		return nil, fmt.Errorf("chaos: nil RNG")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Injector{
		inner:      inner,
		cfg:        cfg,
		chanRNG:    rng.Fork(),
		dropRNG:    rng.Fork(),
		dupRNG:     rng.Fork(),
		reorderRNG: rng.Fork(),
		spikeRNG:   rng.Fork(),
		hangRNG:    rng.Fork(),
		skewRNG:    rng.Fork(),
	}, nil
}

// StartRecording begins recording every request and injected fault
// into a fresh Schedule, which it returns. The Schedule keeps growing
// until StartRecording is called again.
//
//rtlint:allow reach -- harness: the invariant harness (chaos/invariant) uses it; the invariant checker on the ROADMAP ships it
func (in *Injector) StartRecording() *Schedule {
	in.rec = &Schedule{}
	return in.rec
}

// uniformDur draws a uniform duration from [0, max]; zero when the
// bound is zero.
func uniformDur(rng *stats.RNG, max rtime.Duration) rtime.Duration {
	if max <= 0 {
		return 0
	}
	return rtime.Duration(rng.Int64N(int64(max) + 1))
}

// Respond implements server.Server.
func (in *Injector) Respond(issue rtime.Instant, taskID int, payloadBytes int64) server.Response {
	req := in.req
	in.req++

	inner := in.inner.Respond(issue, taskID, payloadBytes)
	final := inner
	record := func(kind Kind, delta rtime.Duration, dropped, rescued bool) {
		if in.rec != nil {
			in.rec.Events = append(in.rec.Events, FaultEvent{
				Req: req, Kind: kind, Delta: delta, Dropped: dropped, Rescued: rescued,
			})
		}
	}

	// Correlated channel: advance state, then apply burst loss/delay.
	// All channel draws come from chanRNG, so the state trajectory
	// depends only on that stream.
	if in.cfg.GE.enabled() {
		if in.bad {
			if in.chanRNG.Bool(in.cfg.GE.PBadGood) {
				in.bad = false
			}
		} else if in.chanRNG.Bool(in.cfg.GE.PGoodBad) {
			in.bad = true
		}
		if in.bad {
			lost := in.cfg.GE.BadLoss > 0 && in.chanRNG.Bool(in.cfg.GE.BadLoss)
			delay := uniformDur(in.chanRNG, in.cfg.GE.BadDelayMax)
			if final.Arrives {
				if lost {
					final = server.Response{}
					record(KindBadChannel, 0, true, false)
				} else if delay > 0 {
					final.Latency += delay
					record(KindBadChannel, delay, false, false)
				}
			}
		}
	}

	// Independent drop. The draw happens whenever the fault is
	// configured — even against an already-lost response — so the
	// stream stays aligned with the request count.
	if in.cfg.Drop > 0 {
		if in.dropRNG.Bool(in.cfg.Drop) && final.Arrives {
			final = server.Response{}
			record(KindDrop, 0, true, false)
		}
	}

	// Duplicate: the retransmitted copy trails the original. When the
	// chaos layer dropped the original, the duplicate rescues the
	// request at inner latency + delay; otherwise the copy is absorbed
	// by the client and only the record remains.
	if in.cfg.Dup > 0 {
		if in.dupRNG.Bool(in.cfg.Dup) {
			delay := uniformDur(in.dupRNG, in.cfg.DupDelayMax)
			if !final.Arrives && inner.Arrives {
				final = server.Response{Latency: inner.Latency + delay, Arrives: true}
				record(KindDuplicate, delay, false, true)
			} else {
				record(KindDuplicate, delay, false, false)
			}
		}
	}

	// Stall windows: a new hang may start at this request's issue, and
	// any response due inside the current window waits for its end.
	if in.cfg.Hang > 0 {
		if in.hangRNG.Bool(in.cfg.Hang) && issue >= in.hangUntil {
			in.hangUntil = issue.Add(uniformDur(in.hangRNG, in.cfg.HangMax))
		}
		if final.Arrives {
			if arrival := issue.Add(final.Latency); arrival < in.hangUntil {
				delta := in.hangUntil.Sub(arrival)
				final.Latency += delta
				record(KindHang, delta, false, false)
			}
		}
	}

	// Transient latency spike.
	if in.cfg.Spike > 0 {
		if in.spikeRNG.Bool(in.cfg.Spike) {
			delta := uniformDur(in.spikeRNG, in.cfg.SpikeMax)
			if final.Arrives && delta > 0 {
				final.Latency += delta
				record(KindSpike, delta, false, false)
			}
		}
	}

	// Holdback reordering: re-deliver behind later traffic.
	if in.cfg.Reorder > 0 {
		if in.reorderRNG.Bool(in.cfg.Reorder) {
			delta := uniformDur(in.reorderRNG, in.cfg.ReorderDelayMax)
			if final.Arrives && delta > 0 {
				final.Latency += delta
				record(KindReorder, delta, false, false)
			}
		}
	}

	// Bounded clock skew on the observation itself.
	if in.cfg.SkewBound > 0 {
		skew := rtime.Duration(in.skewRNG.Int64N(2*int64(in.cfg.SkewBound)+1)) - in.cfg.SkewBound
		if final.Arrives && skew != 0 {
			final.Latency += skew
			if final.Latency < 0 {
				skew -= final.Latency // report only the applied part
				final.Latency = 0
			}
			record(KindSkew, skew, false, false)
		}
	}

	if in.rec != nil {
		in.rec.Requests = append(in.rec.Requests, RequestRecord{
			Req: req, TaskID: taskID, Issue: issue, Payload: payloadBytes,
			Inner: inner, Final: final,
		})
	}
	return final
}
