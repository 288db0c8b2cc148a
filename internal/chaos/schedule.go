package chaos

import (
	"fmt"

	"rtoffload/internal/rtime"
	"rtoffload/internal/server"
)

// Kind labels one injected fault class.
type Kind int

const (
	// KindDrop is an independent response loss.
	KindDrop Kind = iota
	// KindDuplicate is a retransmitted response copy (rescuing when
	// the original was dropped by the chaos layer).
	KindDuplicate
	// KindReorder is a holdback re-delivery behind later traffic.
	KindReorder
	// KindSpike is a transient latency spike.
	KindSpike
	// KindHang is a stall window delaying every response due inside it.
	KindHang
	// KindBadChannel is correlated Gilbert–Elliott loss or delay.
	KindBadChannel
	// KindSkew is the bounded clock-skew measurement error.
	KindSkew
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindDrop:
		return "drop"
	case KindDuplicate:
		return "duplicate"
	case KindReorder:
		return "reorder"
	case KindSpike:
		return "spike"
	case KindHang:
		return "hang"
	case KindBadChannel:
		return "bad-channel"
	case KindSkew:
		return "skew"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// FaultEvent is one injected fault, attributed to the request it hit.
type FaultEvent struct {
	// Req is the zero-based request index at the Injector.
	Req  int64
	Kind Kind
	// Delta is the latency change the fault applied (negative only for
	// skew). Zero for pure losses.
	Delta rtime.Duration
	// Dropped marks a response discarded by this fault.
	Dropped bool
	// Rescued marks a duplicate that revived a previously dropped
	// response.
	Rescued bool
}

// RequestRecord captures one request through the Injector: what the
// wrapped server answered (Inner) and what the client observed after
// fault injection (Final).
type RequestRecord struct {
	Req     int64
	TaskID  int
	Issue   rtime.Instant
	Payload int64
	Inner   server.Response
	Final   server.Response
}

// Schedule is the recorded fault history of one Injector run: every
// request with its pre- and post-fault response, plus one event per
// injected fault. A Schedule is both an audit log (which faults fired,
// when, against whom) and a replay script (Player re-delivers the
// recorded observations without any randomness).
type Schedule struct {
	Requests []RequestRecord
	Events   []FaultEvent
}

// FaultCount returns the number of injected faults of one kind.
//
//rtlint:allow reach -- harness: used by the invariant harness (chaos/invariant); the invariant checker on the ROADMAP ships it
func (s *Schedule) FaultCount(kind Kind) int {
	n := 0
	for _, e := range s.Events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// Dropped returns how many responses the chaos layer discarded
// (excluding rescued ones).
//
//rtlint:allow reach -- harness: used by the invariant harness (chaos/invariant); the invariant checker on the ROADMAP ships it
func (s *Schedule) Dropped() int {
	n := 0
	for _, r := range s.Requests {
		if r.Inner.Arrives && !r.Final.Arrives {
			n++
		}
	}
	return n
}

// Inversions counts FIFO inversions among the observed arrivals: pairs
// of consecutive requests where the earlier request's response arrived
// strictly after the later request's. It is how holdback reordering
// (and every other delay fault) becomes visible on the response-time
// channel.
//
//rtlint:allow reach -- harness: used by the invariant harness (chaos/invariant); the invariant checker on the ROADMAP ships it
func (s *Schedule) Inversions() int {
	n := 0
	for i := 1; i < len(s.Requests); i++ {
		prev, cur := &s.Requests[i-1], &s.Requests[i]
		if !prev.Final.Arrives || !cur.Final.Arrives {
			continue
		}
		if prev.Issue.Add(prev.Final.Latency) > cur.Issue.Add(cur.Final.Latency) {
			n++
		}
	}
	return n
}

// Player replays a recorded Schedule as a server.Server: request k of
// the replay receives exactly the Final observation request k received
// during recording. Replay is a pure function of the Schedule — no
// RNG, no wrapped server — so a failing fault schedule reproduces even
// after the code that generated it changes.
//
// The replayed workload must issue the same request sequence as the
// recorded one; Err reports the first divergence (requests beyond the
// recorded schedule are answered as lost).
type Player struct {
	sched *Schedule
	next  int
	err   error
}

// NewPlayer builds a replay server over a recorded schedule.
//
//rtlint:allow reach -- harness: used by the invariant harness (chaos/invariant); the invariant checker on the ROADMAP ships it
func NewPlayer(s *Schedule) (*Player, error) {
	if s == nil {
		return nil, fmt.Errorf("chaos: nil schedule")
	}
	return &Player{sched: s}, nil
}

// Respond implements server.Server.
//
//rtlint:allow reach -- harness: used by the invariant harness (chaos/invariant); the invariant checker on the ROADMAP ships it
func (p *Player) Respond(issue rtime.Instant, taskID int, payloadBytes int64) server.Response {
	if p.next >= len(p.sched.Requests) {
		if p.err == nil {
			p.err = fmt.Errorf("chaos: replay request %d beyond recorded schedule (%d requests)",
				p.next, len(p.sched.Requests))
		}
		p.next++
		return server.Response{}
	}
	rec := &p.sched.Requests[p.next]
	if p.err == nil && (rec.TaskID != taskID || rec.Issue != issue || rec.Payload != payloadBytes) {
		p.err = fmt.Errorf("chaos: replay request %d diverged: recorded task %d at %v (payload %d), got task %d at %v (payload %d)",
			p.next, rec.TaskID, rec.Issue, rec.Payload, taskID, issue, payloadBytes)
	}
	p.next++
	return rec.Final
}

// Err reports the first divergence between the replayed workload and
// the recorded schedule, or nil.
//
//rtlint:allow reach -- harness: used by the invariant harness (chaos/invariant); the invariant checker on the ROADMAP ships it
func (p *Player) Err() error { return p.err }
