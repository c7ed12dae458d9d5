// Package units defines the scalar quantities used throughout the
// simulator: virtual time, CPU frequency, and cycle counts.
//
// Virtual time is an int64 count of picoseconds. At picosecond
// resolution the accumulated rounding error of a cycles/frequency
// conversion is below one nanosecond per million events, and an int64
// spans roughly 106 days, far beyond any simulated run.
package units

import (
	"fmt"
	"math/bits"
	"time"
)

// Time is a point in (or span of) virtual time, in picoseconds.
type Time int64

// Common time spans.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds returns t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Duration converts t to a time.Duration (nanosecond resolution,
// truncating sub-nanosecond detail).
func (t Time) Duration() time.Duration { return time.Duration(t / Nanosecond) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Second || t <= -Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond || t <= -Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond || t <= -Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// Freq is a CPU core frequency in kilohertz, matching the granularity
// of the Linux cpufreq interface the paper drives.
type Freq int64

// Convenience multiples.
const (
	KHz Freq = 1
	MHz Freq = 1000 * KHz
	GHz Freq = 1000 * MHz
)

// GHzF returns the frequency as a floating-point number of gigahertz.
func (f Freq) GHzF() float64 { return float64(f) / float64(GHz) }

// String formats the frequency in GHz.
func (f Freq) String() string { return fmt.Sprintf("%.1fGHz", f.GHzF()) }

// Cycles is an amount of computational work expressed in CPU cycles.
type Cycles int64

// DurationAt returns the virtual time needed to retire c cycles at
// frequency f. It rounds half-up so repeated conversions do not drift
// systematically low.
func (c Cycles) DurationAt(f Freq) Time {
	if f <= 0 {
		panic("units: non-positive frequency")
	}
	// time[ps] = cycles * 1e9 / f[kHz], rounded half-up: the product and
	// half the divisor in 128 bits, then one divide, exact for every
	// non-negative c whose quotient fits in 64 bits.
	hi, lo := bits.Mul64(uint64(c), 1_000_000_000)
	lo, carry := bits.Add64(lo, uint64(f)/2, 0)
	if hi += carry; c >= 0 && hi < uint64(f) {
		q, _ := bits.Div64(hi, lo, uint64(f))
		return Time(q)
	}
	// Negative c, or a quotient past 64 bits: quotient and remainder
	// apart, in int64.
	q := int64(c) / int64(f)
	r := int64(c) % int64(f)
	return Time(q*1_000_000_000 + (r*1_000_000_000+int64(f)/2)/int64(f))
}

// CyclesIn returns how many whole cycles retire in span t at frequency f.
func CyclesIn(t Time, f Freq) Cycles {
	if t <= 0 {
		return 0
	}
	// cycles = t[ps] * f[kHz] / 1e9, computed without overflow:
	q := int64(t) / 1_000_000_000
	r := int64(t) % 1_000_000_000
	return Cycles(q*int64(f) + r*int64(f)/1_000_000_000)
}
