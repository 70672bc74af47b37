// Package vtime defines the virtual-time base used throughout HADES.
//
// All timing guarantees in this reproduction are expressed in simulated
// time rather than wall-clock time: the paper's predictability requirement
// (every activity has a known worst-case duration) becomes exact
// determinism under a discrete-event engine. Time is an absolute instant
// and Duration a signed span, both in integer nanoseconds, mirroring the
// shapes of the standard time package so that code reads naturally.
package vtime

import (
	"fmt"
	"strconv"
)

// Time is an absolute instant of simulated time, in nanoseconds since the
// start of the run. The zero value is the start of the run.
type Time int64

// Duration is a span of simulated time in nanoseconds.
type Duration int64

// Common durations. They intentionally mirror package time.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Infinity is a sentinel instant later than any reachable simulation time.
// It is used for "no deadline" and "never" bookkeeping.
const Infinity Time = 1<<63 - 1

// Forever is a sentinel duration longer than any reachable simulation span.
const Forever Duration = 1<<63 - 1

// Add returns the instant d after t. Adding to Infinity saturates.
func (t Time) Add(d Duration) Time {
	if t == Infinity {
		return Infinity
	}
	if d == Forever {
		return Infinity
	}
	return t + Time(d)
}

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t is strictly earlier than u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t is strictly later than u.
func (t Time) After(u Time) bool { return t > u }

// Micros returns the instant as a float64 count of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// String renders the instant with a unit chosen for readability.
func (t Time) String() string {
	if t == Infinity {
		return "+inf"
	}
	return Duration(t).String()
}

// Micros returns the duration as a float64 count of microseconds.
func (d Duration) Micros() float64 { return float64(d) / float64(Microsecond) }

// String renders the duration with a unit chosen for readability.
func (d Duration) String() string {
	// Rendered into a stack buffer: the returned string is the only
	// allocation (the longest rendering, "-9223372036.855s", fits).
	var buf [32]byte
	return string(d.Append(buf[:0]))
}

// Append appends the String form of d to b and returns the extended
// slice, so a caller building a longer text renders d in place.
//
// The form is d in the largest unit it reaches, rounded to three
// decimals with trailing zeros dropped. It is worked out in integers:
// a microsecond count's decimals are exact, and a millisecond or second
// count rounds half a thousandth up. Only where integer and float
// rounding could part — a remainder of exactly half a thousandth, or a
// count too large for a float64 to hold — does the float form decide.
func (d Duration) Append(b []byte) []byte {
	if d == Forever {
		return append(b, "+inf"...)
	}
	if d < 0 {
		b, d = append(b, '-'), -d
	}
	switch {
	case d < Microsecond:
		return append(strconv.AppendInt(b, int64(d), 10), "ns"...)
	case d < Millisecond:
		return append(appendThousandths(b, int64(d)), "us"...)
	case d < Second:
		if d%1000 == 500 {
			return append(appendTrimmed(b, float64(d)/float64(Millisecond)), "ms"...)
		}
		return append(appendThousandths(b, int64(d+500)/1000), "ms"...)
	case d%1_000_000 == 500_000 || d >= 1<<53:
		return append(appendTrimmed(b, float64(d)/float64(Second)), "s"...)
	default:
		return append(appendThousandths(b, int64(d+500_000)/1_000_000), "s"...)
	}
}

// appendThousandths appends v/1000 with three decimals, then drops
// trailing zeros and a bare decimal point, as appendTrimmed does.
func appendThousandths(b []byte, v int64) []byte {
	b = strconv.AppendInt(b, v/1000, 10)
	frac := v % 1000
	if frac == 0 {
		return b
	}
	b = append(b, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
	for b[len(b)-1] == '0' {
		b = b[:len(b)-1]
	}
	return b
}

// appendTrimmed appends f with three decimals, then drops trailing
// zeros and a bare decimal point ("1.500" -> "1.5", "2.000" -> "2").
func appendTrimmed(b []byte, f float64) []byte {
	b = strconv.AppendFloat(b, f, 'f', 3, 64)
	for b[len(b)-1] == '0' { // stops at the '.' at the latest
		b = b[:len(b)-1]
	}
	if b[len(b)-1] == '.' {
		b = b[:len(b)-1]
	}
	return b
}

// CeilDiv returns ceil(x/y) for positive y, the standard demand-bound
// helper used by the feasibility tests.
func CeilDiv(x, y Duration) int64 {
	if y <= 0 {
		panic(fmt.Sprintf("vtime.CeilDiv: non-positive divisor %d", y))
	}
	if x <= 0 {
		return 0
	}
	return (int64(x) + int64(y) - 1) / int64(y)
}

// FloorDiv returns floor(x/y) for positive y, clamped at 0 for negative x.
func FloorDiv(x, y Duration) int64 {
	if y <= 0 {
		panic(fmt.Sprintf("vtime.FloorDiv: non-positive divisor %d", y))
	}
	if x < 0 {
		return 0
	}
	return int64(x) / int64(y)
}
