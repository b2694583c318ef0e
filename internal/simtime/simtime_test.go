package simtime

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestUnitRatios(t *testing.T) {
	if Microsecond != 1000*Nanosecond {
		t.Errorf("Microsecond = %d", int64(Microsecond))
	}
	if Millisecond != 1000*Microsecond {
		t.Errorf("Millisecond = %d", int64(Millisecond))
	}
	if Second != 1000*Millisecond {
		t.Errorf("Second = %d", int64(Second))
	}
	if Minute != 60*Second {
		t.Errorf("Minute = %d", int64(Minute))
	}
	if Hour != 60*Minute {
		t.Errorf("Hour = %d", int64(Hour))
	}
}

func TestTimeArithmetic(t *testing.T) {
	var t0 Time
	t1 := t0.Add(3 * Second)
	if got := t1.Sub(t0); got != 3*Second {
		t.Errorf("Sub = %v, want 3s", got)
	}
	if got := t1.Seconds(); got != 3 {
		t.Errorf("Seconds = %v, want 3", got)
	}
}

func TestSecondsConstruction(t *testing.T) {
	cases := []struct {
		in   float64
		want Duration
	}{
		{0, 0},
		{-1, 0},
		{math.NaN(), 0},
		{1.5, 1500 * Millisecond},
		{1e-9, 1 * Nanosecond},
		{math.Inf(1), Duration(math.MaxInt64)},
		{1e30, Duration(math.MaxInt64)},
	}
	for _, c := range cases {
		if got := Seconds(c.in); got != c.want {
			t.Errorf("Seconds(%v) = %v, want %v", c.in, int64(got), int64(c.want))
		}
	}
}

func TestStdConversionRoundTrip(t *testing.T) {
	d := 1500 * Millisecond
	if d.Std() != 1500*time.Millisecond {
		t.Errorf("Std = %v", d.Std())
	}
	if FromStd(d.Std()) != d {
		t.Errorf("FromStd round trip failed")
	}
}

func TestStringUnits(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500, "500ns"},
		{2500, "2.5µs"},
		{3 * Millisecond, "3ms"},
		{1500 * Millisecond, "1.5s"},
		{90 * Second, "1.5m"},
		{90 * Minute, "1.5h"},
		{-3 * Millisecond, "-3ms"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestQuickAddSubInverse(t *testing.T) {
	f := func(base int32, delta int32) bool {
		t0 := Time(base)
		d := Duration(delta)
		return t0.Add(d).Sub(t0) == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSecondsMonotone(t *testing.T) {
	f := func(a, b uint16) bool {
		x, y := float64(a), float64(b)
		if x > y {
			x, y = y, x
		}
		return Seconds(x) <= Seconds(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
