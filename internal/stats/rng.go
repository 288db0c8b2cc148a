// Package stats provides the deterministic randomness and descriptive
// statistics used by the generators, server models, and experiment
// harness.
//
// All stochastic components in this repository draw from stats.RNG, a
// small self-contained SplitMix64/xoshiro256** generator. Keeping the
// generator in-repo (rather than math/rand) guarantees bit-identical
// experiment outputs across Go releases, and Fork gives each simulated
// entity an independent deterministic stream so that adding a new
// random draw in one component does not perturb the others.
package stats

import "math"

// RNG is a deterministic pseudo-random number generator
// (xoshiro256** seeded via SplitMix64). It is not safe for concurrent
// use; Fork child generators for concurrent components.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from the given seed. Any seed,
// including zero, produces a well-mixed state.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm += goldenGamma
		r.s[i] = mix64(sm)
	}
	return r
}

// goldenGamma is the SplitMix64 increment (2⁶⁴/φ).
const goldenGamma = 0x9E3779B97F4A7C15

// mix64 is the SplitMix64 finalizer: a full-avalanche 64-bit mixer in
// which every input bit affects every output bit.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// DeriveSeed derives an independent seed from a base seed and a stream
// path (experiment stream id, trial index, …). The derivation is a
// pure function of (base, stream...): it never depends on call order,
// which is what lets parallel experiment trials reproduce sequential
// output bit for bit.
//
// Unlike the additive offsets it replaces (base + k·index), the
// SplitMix64 avalanche keeps adjacent bases and indices in unrelated
// streams: DeriveSeed(7919, 0) and DeriveSeed(0, 1) are distinct,
// whereas 7919 + 0·7919 == 0 + 1·7919 collides. Paths of different
// lengths are separated by folding each element with a fresh mix
// round, so (a) and (a, 0) differ as well; the fold multiplies the
// accumulator before combining, so it is not commutative and
// (a, b, …) never collides with (b, a, …).
func DeriveSeed(base uint64, stream ...uint64) uint64 {
	x := mix64(base + goldenGamma)
	for _, s := range stream {
		x = mix64(x*goldenGamma ^ mix64(s+goldenGamma))
	}
	return x
}

// Fork derives an independent generator from r's stream. The child's
// sequence is unrelated to r's subsequent outputs.
func (r *RNG) Fork() *RNG {
	return NewRNG(r.Uint64() ^ 0xD1B54A32D192ED03)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// IntN returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) IntN(n int) int {
	if n <= 0 {
		panic("stats: IntN with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation is overkill here;
	// modulo bias is negligible for the n values used (< 2^32).
	return int(r.Uint64() % uint64(n))
}

// Int64N returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Int64N(n int64) int64 {
	if n <= 0 {
		panic("stats: Int64N with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Uniform returns a uniform value in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// UniformInt returns a uniform integer in [lo, hi] inclusive.
// It panics if hi < lo.
func (r *RNG) UniformInt(lo, hi int64) int64 {
	if hi < lo {
		panic("stats: UniformInt with hi < lo")
	}
	return lo + r.Int64N(hi-lo+1)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Normal returns a normally distributed value with the given mean and
// standard deviation (Box–Muller).
func (r *RNG) Normal(mean, stddev float64) float64 {
	// Reject u1 == 0 to avoid log(0).
	var u1 float64
	for {
		u1 = r.Float64()
		if u1 > 0 {
			break
		}
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// LogNormal returns a log-normally distributed value where the
// underlying normal has parameters mu and sigma.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Exponential returns an exponentially distributed value with the
// given mean (= 1/rate).
func (r *RNG) Exponential(mean float64) float64 {
	var u float64
	for {
		u = r.Float64()
		if u > 0 {
			break
		}
	}
	return -mean * math.Log(u)
}

// UUniFast generates n task utilizations that sum to total, uniformly
// distributed over the simplex (Bini & Buttazzo's UUniFast). It is the
// standard generator for synthetic schedulability experiments.
func (r *RNG) UUniFast(n int, total float64) []float64 {
	if n <= 0 {
		return nil
	}
	u := make([]float64, n)
	sum := total
	for i := 0; i < n-1; i++ {
		next := sum * math.Pow(r.Float64(), 1/float64(n-i-1))
		u[i] = sum - next
		sum = next
	}
	u[n-1] = sum
	return u
}

// SortedUniform returns n uniform values in [lo, hi), sorted
// ascending. Used for generating increasing response-time points.
func (r *RNG) SortedUniform(n int, lo, hi float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = r.Uniform(lo, hi)
	}
	// Insertion sort: n is small (≤ tens) in all call sites.
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
	return v
}
