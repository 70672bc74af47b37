package vtime

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
)

func TestTimeArithmetic(t *testing.T) {
	tests := []struct {
		name string
		base Time
		d    Duration
		want Time
	}{
		{"zero plus zero", 0, 0, 0},
		{"simple add", 10, 5, 15},
		{"negative duration", 10, -3, 7},
		{"microsecond", 0, Microsecond, 1000},
		{"millisecond", 0, Millisecond, 1000000},
		{"second", 0, Second, 1000000000},
		{"infinity saturates", Infinity, 5, Infinity},
		{"forever saturates", 7, Forever, Infinity},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.base.Add(tt.d); got != tt.want {
				t.Errorf("(%d).Add(%d) = %d, want %d", tt.base, tt.d, got, tt.want)
			}
		})
	}
}

func TestSubBeforeAfter(t *testing.T) {
	a, b := Time(100), Time(250)
	if got := b.Sub(a); got != 150 {
		t.Errorf("Sub = %d, want 150", got)
	}
	if !a.Before(b) || b.Before(a) {
		t.Error("Before is wrong")
	}
	if !b.After(a) || a.After(b) {
		t.Error("After is wrong")
	}
}

func TestDurationString(t *testing.T) {
	tests := []struct {
		d    Duration
		want string
	}{
		{0, "0ns"},
		{500, "500ns"},
		{1500, "1.5us"},
		{Millisecond, "1ms"},
		{2500 * Microsecond, "2.5ms"},
		{3 * Second, "3s"},
		{-2 * Millisecond, "-2ms"},
		{Forever, "+inf"},
	}
	for _, tt := range tests {
		if got := tt.d.String(); got != tt.want {
			t.Errorf("(%d).String() = %q, want %q", int64(tt.d), got, tt.want)
		}
	}
}

// oracleString is Duration.String as it was before it rendered in
// integers: the value in its unit as a float64, formatted with three
// decimals, trailing zeros trimmed. Every monitor log and golden was
// written through it, so String must agree with it byte for byte.
func oracleString(d Duration) string { return string(oracleAppend(nil, d)) }

func oracleAppend(b []byte, d Duration) []byte {
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
		return append(oracleTrimFloat(b, float64(d)/float64(Microsecond)), "us"...)
	case d < Second:
		return append(oracleTrimFloat(b, float64(d)/float64(Millisecond)), "ms"...)
	default:
		return append(oracleTrimFloat(b, float64(d)/float64(Second)), "s"...)
	}
}

func oracleTrimFloat(b []byte, f float64) []byte {
	b = strconv.AppendFloat(b, f, 'f', 3, 64)
	for b[len(b)-1] == '0' {
		b = b[:len(b)-1]
	}
	if b[len(b)-1] == '.' {
		b = b[:len(b)-1]
	}
	return b
}

func TestDurationStringMatchesOracle(t *testing.T) {
	check := func(d Duration) {
		t.Helper()
		if got, want := d.String(), oracleString(d); got != want {
			t.Fatalf("(%d).String() = %q, oracle %q", int64(d), got, want)
		}
		if got, want := Time(d).String(), oracleString(d); got != want {
			t.Fatalf("Time(%d).String() = %q, oracle %q", int64(d), got, want)
		}
	}
	// Sentinels and the extremes of the range.
	for _, d := range []Duration{0, 1, -1, Forever, Forever - 1, -Forever, math.MinInt64, math.MinInt64 + 1} {
		check(d)
	}
	// Unit boundaries and the 3-decimal rounding edges around them
	// (x.9994 rounds down, x.9995 up to the next integer, 999.9995us
	// prints as "1000us", not "1ms").
	for _, unit := range []Duration{Microsecond, Millisecond, Second, 1000 * Second} {
		for _, k := range []Duration{1, 2, 9, 10, 999, 1000} {
			for delta := Duration(-2); delta <= 2; delta++ {
				for _, frac := range []Duration{0, unit / 2000, unit / 1000, unit * 4 / 10000, unit * 5 / 10000, unit * 9995 / 10000} {
					d := k*unit + frac + delta
					check(d)
					check(-d)
				}
			}
		}
	}
	// Every value below 3ms, then a million seeded values at every
	// magnitude, each with the half-thousandth tie of its unit and the
	// tie's two neighbours: the one place integer rounding and the
	// oracle's float rounding could part.
	var got, want [32]byte
	same := func(d Duration) {
		if g, w := d.Append(got[:0]), oracleAppend(want[:0], d); string(g) != string(w) {
			t.Fatalf("(%d).Append = %q, oracle %q", int64(d), g, w)
		}
	}
	for d := Duration(-3000); d < 3_000_000; d++ {
		same(d)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1_000_000; i++ {
		d := Duration(rng.Int63() >> uint(rng.Intn(63)))
		same(d)
		same(-d)
		unit := Millisecond / 1000
		if d >= Second {
			unit = Second / 1000
		}
		for tie := d - d%unit + unit/2 - 1; tie <= d-d%unit+unit/2+1; tie++ {
			same(tie)
		}
	}
	for i := 0; i < 20_000; i++ {
		d := Duration(rng.Int63() >> uint(rng.Intn(63)))
		check(d)
		check(-d)
	}
}

var stringSink string

func TestDurationStringAllocatesOnce(t *testing.T) {
	for _, d := range []Duration{500, 1500, 2500 * Microsecond, -3 * Second} {
		if n := testing.AllocsPerRun(100, func() { stringSink = d.String() }); n > 1 {
			t.Errorf("(%d).String(): %v allocs, want at most 1", int64(d), n)
		}
	}
}

func TestTimeString(t *testing.T) {
	if got := Infinity.String(); got != "+inf" {
		t.Errorf("Infinity.String() = %q", got)
	}
	if got := Time(1500).String(); got != "1.5us" {
		t.Errorf("Time(1500).String() = %q", got)
	}
}

func TestCeilFloorDiv(t *testing.T) {
	tests := []struct {
		x, y      Duration
		ceil, flr int64
	}{
		{0, 10, 0, 0},
		{1, 10, 1, 0},
		{10, 10, 1, 1},
		{11, 10, 2, 1},
		{-5, 10, 0, 0},
		{100, 3, 34, 33},
	}
	for _, tt := range tests {
		if got := CeilDiv(tt.x, tt.y); got != tt.ceil {
			t.Errorf("CeilDiv(%d,%d) = %d, want %d", tt.x, tt.y, got, tt.ceil)
		}
		if got := FloorDiv(tt.x, tt.y); got != tt.flr {
			t.Errorf("FloorDiv(%d,%d) = %d, want %d", tt.x, tt.y, got, tt.flr)
		}
	}
}

func TestCeilDivPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CeilDiv(1, 0) did not panic")
		}
	}()
	CeilDiv(1, 0)
}

// Property: ceil division always covers the dividend, floor never
// exceeds it, and they differ by at most one.
func TestCeilFloorDivProperties(t *testing.T) {
	f := func(xr int32, yr int32) bool {
		x := Duration(xr)
		y := Duration(yr % 100000) // keep small-ish
		if y <= 0 {
			y = 1 + (-y % 100000)
		}
		c, fl := CeilDiv(x, y), FloorDiv(x, y)
		if x > 0 {
			if Duration(c)*y < x {
				return false
			}
			if Duration(fl)*y > x {
				return false
			}
		}
		return c-fl <= 1 && c >= fl
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Add/Sub round-trip for finite values.
func TestAddSubRoundTrip(t *testing.T) {
	f := func(base int32, d int32) bool {
		tm := Time(base)
		du := Duration(d)
		return tm.Add(du).Sub(tm) == du
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
