// Streaming invariant verification. StreamChecker is the only I2/I4
// implementation: it verifies I4 (the EDF trace invariants, via
// trace.StreamChecker) and I2 (the Ri timer law) in one pass as the
// simulation emits events — Trial.Run and FleetTrial.Run wire it into
// the engine as the trace sink — or as CheckResult replays a
// caller-held trace. Trace memory is bounded by the in-flight job
// count; the aggregate invariants I1, I3 and I5 read the result
// (CheckAggregates). stream_test.go pins accept/reject agreement with
// a materialized reference of the I2 loop.
package invariant

import (
	"rtoffload/internal/rtime"
	"rtoffload/internal/trace"
)

// StreamChecker is a trace.Sink verifying I4 and I2 one-pass for a
// trial. Each job's setup-completion instant is retained only until
// its second phase closes, so memory stays proportional to in-flight
// jobs, not to the horizon.
type StreamChecker struct {
	tr      *Trial
	inner   *trace.StreamChecker
	budgets map[int]rtime.Duration
	// setupDone holds completed setups whose second phase has not
	// closed yet (lookups and deletes only — never ranged).
	setupDone map[jobKey]rtime.Instant
	err       error
}

// NewStreamChecker builds the one-pass I4+I2 verifier for a trial.
func NewStreamChecker(tr *Trial) *StreamChecker {
	return &StreamChecker{
		tr:        tr,
		inner:     trace.NewStreamChecker(),
		budgets:   tr.offloadBudgets(),
		setupDone: make(map[jobKey]rtime.Instant),
	}
}

// OpenSub implements trace.Sink.
func (c *StreamChecker) OpenSub(id trace.SubID, release, deadline rtime.Instant, wcet rtime.Duration) {
	c.inner.OpenSub(id, release, deadline, wcet)
}

// AppendSegment implements trace.Sink.
func (c *StreamChecker) AppendSegment(s trace.Segment) {
	c.inner.AppendSegment(s)
}

// CloseSub implements trace.Sink. Closes arrive in end-instant order
// (the Sink contract), and a second phase always ends after its setup
// completes, so the setup's instant is present when needed.
func (c *StreamChecker) CloseSub(r trace.SubRecord) {
	c.inner.CloseSub(r)
	if c.err != nil {
		return
	}
	key := jobKey{r.Sub.TaskID, r.Sub.Seq}
	switch r.Sub.Kind {
	case trace.Setup:
		if r.Completed {
			c.setupDone[key] = r.Completion
		}
	case trace.Comp, trace.Post:
		done, ok := c.setupDone[key]
		c.err = c.tr.checkSecondPhase(&r, done, ok, c.budgets)
		delete(c.setupDone, key)
	}
}

// Finish implements trace.Sink: the first I4 violation wins, then I2.
func (c *StreamChecker) Finish() error {
	if err := c.inner.Finish(); err != nil {
		return c.tr.fail("I4: trace invalid: %v", err)
	}
	return c.err
}
