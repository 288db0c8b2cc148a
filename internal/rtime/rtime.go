// Package rtime provides exact integer time arithmetic for real-time
// scheduling analysis.
//
// All scheduling quantities in this repository — worst-case execution
// times, periods, deadlines, response-time budgets, simulation clocks —
// are expressed as Duration or Instant values with microsecond
// resolution. Using a fixed integer unit keeps demand-bound-function
// arithmetic and deadline comparisons exact: two schedulability runs on
// the same task set always return the same verdict, independent of
// floating-point rounding.
//
// Duration is a span of time; Instant is a point on the simulation
// timeline (microseconds since the start of the schedule). The types
// are distinct so that the compiler rejects category errors such as
// adding two absolute deadlines.
package rtime

import (
	"fmt"
	"math"
	"math/big"
)

// Duration is a span of time in integer microseconds.
//
// The zero value is a zero-length span. Negative durations are
// representable (differences can be negative) but most constructors and
// models reject them explicitly.
type Duration int64

// Instant is an absolute point on the simulation timeline, measured in
// microseconds from schedule start (time zero).
type Instant int64

// Common duration units.
const (
	Microsecond Duration = 1
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
)

// Forever is a sentinel Instant later than any event a simulation can
// produce. It is used as "no pending event".
const Forever Instant = math.MaxInt64

// FromMillis converts a millisecond count to a Duration.
func FromMillis(ms int64) Duration { return Duration(ms) * Millisecond }

// FromMicros converts a microsecond count to a Duration.
func FromMicros(us int64) Duration { return Duration(us) }

// FromSeconds converts a floating-point second count to a Duration,
// rounding to the nearest microsecond.
func FromSeconds(s float64) Duration {
	return Duration(math.Round(s * float64(Second)))
}

// FromMillisF converts a floating-point millisecond count to a
// Duration, rounding to the nearest microsecond.
func FromMillisF(ms float64) Duration {
	return Duration(math.Round(ms * float64(Millisecond)))
}

// Millis reports d as (possibly fractional) milliseconds.
func (d Duration) Millis() float64 { return float64(d) / float64(Millisecond) }

// Seconds reports d as (possibly fractional) seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// String formats the duration with an adaptive unit, e.g. "1.5ms",
// "250µs", "2s".
func (d Duration) String() string {
	switch {
	case d == 0:
		return "0s"
	case d%Second == 0:
		return fmt.Sprintf("%ds", int64(d/Second))
	case d > -Second && d < Second && d%Millisecond == 0:
		return fmt.Sprintf("%dms", int64(d/Millisecond))
	case d > -Millisecond && d < Millisecond:
		return fmt.Sprintf("%dµs", int64(d))
	case d%Millisecond == 0 && d < 10*Second && d > -10*Second:
		return fmt.Sprintf("%gms", d.Millis())
	default:
		return fmt.Sprintf("%gms", d.Millis())
	}
}

// String formats the instant as a duration offset from time zero.
func (t Instant) String() string {
	if t == Forever {
		return "∞"
	}
	return Duration(t).String()
}

// Add offsets the instant by d.
func (t Instant) Add(d Duration) Instant { return t + Instant(d) }

// Sub returns the span from u to t (t − u).
func (t Instant) Sub(u Instant) Duration { return Duration(t - u) }

// Max returns the larger of two durations.
func Max(a, b Duration) Duration {
	if a > b {
		return a
	}
	return b
}

// MinInstant returns the earlier of two instants.
func MinInstant(a, b Instant) Instant {
	if a < b {
		return a
	}
	return b
}

// MaxInstant returns the later of two instants.
func MaxInstant(a, b Instant) Instant {
	if a > b {
		return a
	}
	return b
}

// Ratio returns the exact rational num/den of two durations.
// It panics if den is zero.
func Ratio(num, den Duration) *big.Rat {
	if den == 0 {
		panic("rtime: Ratio with zero denominator")
	}
	return big.NewRat(int64(num), int64(den))
}

// GCD returns the greatest common divisor of two non-negative
// durations. GCD(0, b) = b.
func GCD(a, b Duration) Duration {
	if a < 0 || b < 0 {
		panic("rtime: GCD of negative duration")
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// CeilDiv returns ⌈a/b⌉ for positive b.
func CeilDiv(a, b Duration) int64 {
	if b <= 0 {
		panic("rtime: CeilDiv with non-positive divisor")
	}
	if a <= 0 {
		return 0
	}
	return (int64(a) + int64(b) - 1) / int64(b)
}

// FloorDiv returns ⌊a/b⌋ for positive b and non-negative a.
func FloorDiv(a, b Duration) int64 {
	if b <= 0 {
		panic("rtime: FloorDiv with non-positive divisor")
	}
	if a < 0 {
		// Round toward negative infinity.
		return -((-int64(a) + int64(b) - 1) / int64(b))
	}
	return int64(a) / int64(b)
}
