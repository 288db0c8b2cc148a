// Package queueing provides closed-form M/M/c results used to
// cross-validate the stochastic server models: the Erlang-C delay
// probability and the mean waiting time of the classic multi-server
// queue. The test suite checks that internal/server's queueing
// simulator converges to these formulas under matching assumptions
// (Poisson arrivals, exponential service), anchoring the simulated
// GPU-server behaviour to textbook ground truth.
package queueing

import "fmt"

// ErlangC returns the probability that an arriving M/M/c customer must
// wait (all c servers busy), for arrival rate lambda and per-server
// service rate mu. Requires stability: lambda < c·mu.
func ErlangC(c int, lambda, mu float64) (float64, error) {
	if c < 1 {
		return 0, fmt.Errorf("queueing: c = %d", c)
	}
	if lambda <= 0 || mu <= 0 {
		return 0, fmt.Errorf("queueing: rates must be positive")
	}
	a := lambda / mu // offered load in Erlangs
	rho := a / float64(c)
	if rho >= 1 {
		return 0, fmt.Errorf("queueing: unstable system (ρ = %g ≥ 1)", rho)
	}
	// Iterative Erlang-B, then convert to Erlang-C:
	//   B(0) = 1; B(k) = a·B(k−1) / (k + a·B(k−1))
	//   C = B(c) / (1 − ρ·(1 − B(c)))
	b := 1.0
	for k := 1; k <= c; k++ {
		b = a * b / (float64(k) + a*b)
	}
	cProb := b / (1 - rho*(1-b))
	return cProb, nil
}

// MeanWait returns the mean queueing delay (excluding service) of an
// M/M/c system: Wq = C(c, a) / (c·mu − lambda).
func MeanWait(c int, lambda, mu float64) (float64, error) {
	pc, err := ErlangC(c, lambda, mu)
	if err != nil {
		return 0, err
	}
	return pc / (float64(c)*mu - lambda), nil
}
