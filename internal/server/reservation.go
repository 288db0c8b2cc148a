package server

import (
	"fmt"

	"rtoffload/internal/rtime"
)

// ReservationConfig parameterizes a resource-reservation front end in
// the spirit of Toma & Chen's reservation servers (ECRTS 2013, the
// paper's reference [10]): the component guarantees the client Budget
// units of service in every Period, regardless of background load.
// Under that contract the worst-case response time of a request with
// known service demand is computable — turning a timing unreliable
// component into a bounded one (feed WCRTBound into task.ServerWCRT
// and the §3 extension applies).
type ReservationConfig struct {
	// Budget of guaranteed service per Period (0 < Budget ≤ Period).
	Budget, Period rtime.Duration
	// ServicePerByte converts payload size into service demand;
	// ServiceFloor is the minimum demand of any request.
	ServicePerByte float64 // µs per byte
	ServiceFloor   rtime.Duration
	// TransferBound is an upper bound on the (reliable, reserved)
	// network round trip added outside the reservation.
	TransferBound rtime.Duration
}

// Validate checks the configuration.
//
//rtlint:allow reach -- reference: the worst-case reservation server that core's guaranteed-level test and this package's tests drive; no binary runs it
func (c ReservationConfig) Validate() error {
	switch {
	case c.Period <= 0 || c.Budget <= 0 || c.Budget > c.Period:
		return fmt.Errorf("server: reservation budget %v / period %v invalid", c.Budget, c.Period)
	case c.ServicePerByte < 0 || c.ServiceFloor < 0 || c.TransferBound < 0:
		return fmt.Errorf("server: negative reservation parameters")
	}
	return nil
}

// demand returns the service demand of a payload.
//
//rtlint:allow reach -- reference: the worst-case reservation server that core's guaranteed-level test and this package's tests drive; no binary runs it
func (c ReservationConfig) demand(payloadBytes int64) rtime.Duration {
	d := c.ServiceFloor + rtime.Duration(float64(payloadBytes)*c.ServicePerByte)
	if d < 1 {
		d = 1
	}
	return d
}

// WCRTBound returns the worst-case response time of a request with the
// given payload under the reservation: the demand s is served in
// ⌈s/Budget⌉ periods in the worst case (request arrives just after the
// budget was exhausted), plus the bounded transfer:
//
//	WCRT = (⌈s/Q⌉ − 1)·P + (P − Q) + s + transfer
//
//rtlint:allow reach -- reference: the worst-case reservation server that core's guaranteed-level test and this package's tests drive; no binary runs it
func (c ReservationConfig) WCRTBound(payloadBytes int64) rtime.Duration {
	s := c.demand(payloadBytes)
	n := rtime.CeilDiv(s, c.Budget)
	return rtime.Duration(n-1)*c.Period + (c.Period - c.Budget) + s + c.TransferBound
}

// Reservation is the simulated reservation server. Each request
// consumes its demand from the budget stream; within a period the
// first Budget units of pending demand are served. It implements
// Server and never exceeds WCRTBound.
type Reservation struct {
	cfg ReservationConfig
	// backlogFreeAt is the instant the reservation finishes all
	// previously admitted demand.
	backlogFreeAt rtime.Instant
}

// NewReservation builds the server.
//
//rtlint:allow reach -- reference: the worst-case reservation server that core's guaranteed-level test and this package's tests drive; no binary runs it
func NewReservation(cfg ReservationConfig) (*Reservation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Reservation{cfg: cfg}, nil
}

// Respond implements Server with the worst-case supply pattern of the
// reservation: demand is served at rate Budget/Period, aligned so that
// each request first waits out the unavailable remainder of its
// arrival period. This is intentionally the pessimistic corner of the
// supply-bound function — a reservation server promises bounds, and
// this model always honours exactly them, making it the adversarial
// counterpart for guaranteed levels.
//
//rtlint:allow reach -- reference: the worst-case reservation server that core's guaranteed-level test and this package's tests drive; no binary runs it
func (r *Reservation) Respond(issue rtime.Instant, _ int, payloadBytes int64) Response {
	c := r.cfg
	s := c.demand(payloadBytes)
	start := rtime.MaxInstant(issue, r.backlogFreeAt)
	// Worst-case alignment within the supply period: the budget for
	// this period is already spent; service begins next period.
	n := rtime.CeilDiv(s, c.Budget)
	finish := start.Add(rtime.Duration(n-1)*c.Period + (c.Period - c.Budget) + s)
	r.backlogFreeAt = finish
	lat := finish.Sub(issue) + c.TransferBound
	return Response{Latency: lat, Arrives: true}
}
