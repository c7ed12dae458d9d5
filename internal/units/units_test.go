package units

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"
	"time"
)

func TestDurationAtExact(t *testing.T) {
	// 2.4 GHz = 2.4e6 kHz; 2.4e6 cycles take exactly 1 ms.
	got := Cycles(2_400_000).DurationAt(2_400_000 * KHz)
	if got != Millisecond {
		t.Fatalf("2.4e6 cycles @2.4GHz = %v, want 1ms", got)
	}
}

func TestDurationAtRounding(t *testing.T) {
	// 1 cycle at 2.4 GHz is 416.67 ps; round half-up to 417.
	got := Cycles(1).DurationAt(2_400_000 * KHz)
	if got != 417*Picosecond {
		t.Fatalf("1 cycle @2.4GHz = %v ps, want 417", int64(got))
	}
}

func TestDurationAtLargeNoOverflow(t *testing.T) {
	// 1e13 cycles at 1.4 GHz ≈ 7142.86 s; must not overflow.
	c := Cycles(10_000_000_000_000)
	got := c.DurationAt(1_400_000 * KHz)
	want := 7142.857
	if s := got.Seconds(); s < want-0.01 || s > want+0.01 {
		t.Fatalf("large conversion = %vs, want ≈%v", s, want)
	}
}

func TestCyclesIn(t *testing.T) {
	if got := CyclesIn(Millisecond, 2_400_000*KHz); got != 2_400_000 {
		t.Fatalf("CyclesIn(1ms, 2.4GHz) = %d, want 2400000", got)
	}
	if got := CyclesIn(0, GHz); got != 0 {
		t.Fatalf("CyclesIn(0) = %d, want 0", got)
	}
	if got := CyclesIn(-Second, GHz); got != 0 {
		t.Fatalf("CyclesIn(neg) = %d, want 0", got)
	}
}

func TestRoundTripProperty(t *testing.T) {
	// Converting cycles → time → cycles must be within 1 cycle for any
	// realistic cycle count and frequency.
	f := func(c uint32, fsel uint8) bool {
		freqs := []Freq{1_400_000, 1_600_000, 1_900_000, 2_200_000, 2_400_000, 3_600_000}
		fr := freqs[int(fsel)%len(freqs)]
		cy := Cycles(c)
		back := CyclesIn(cy.DurationAt(fr), fr)
		d := int64(back) - int64(cy)
		return d >= -1 && d <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDurationAtMonotonicInFreq(t *testing.T) {
	// Higher frequency must never take longer.
	f := func(c uint32) bool {
		cy := Cycles(c)
		return cy.DurationAt(2_400_000*KHz) <= cy.DurationAt(1_400_000*KHz)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDurationAtZeroFreqPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on zero frequency")
		}
	}()
	Cycles(1).DurationAt(0)
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{2 * Second, "2.000s"},
		{1500 * Microsecond, "1.500ms"},
		{250 * Nanosecond * 10, "2.500µs"},
		{500 * Picosecond, "500ps"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String(%d) = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestFreqString(t *testing.T) {
	if got := (2_400_000 * KHz).String(); got != "2.4GHz" {
		t.Fatalf("Freq.String = %q", got)
	}
}

func TestDuration(t *testing.T) {
	if got := (3 * Millisecond).Duration(); got != 3*time.Millisecond {
		t.Fatalf("Duration = %v", got)
	}
}

func TestSeconds(t *testing.T) {
	if got := (250 * Millisecond).Seconds(); got != 0.25 {
		t.Fatalf("Seconds = %v", got)
	}
}

// FuzzDurationAt checks the one-divide rating against math/big's
// round-half-up of c·10⁹/f, for every non-negative c and positive f
// whose exact result fits in a Time — c·10⁹ past 64 bits included.
func FuzzDurationAt(f *testing.F) {
	f.Add(int64(2_400_000), int64(2_400_000))
	f.Add(int64(1), int64(2_400_000))
	f.Add(int64(10_000_000_000_000), int64(1_400_000)) // c·10⁹ ≈ 10²²
	f.Add(int64(math.MaxInt64), int64(math.MaxInt64))
	f.Add(int64(math.MaxInt64), int64(1_000_000_000)) // quotient just fits
	f.Add(int64(7), int64(3))
	f.Fuzz(func(t *testing.T, c, freq int64) {
		if c < 0 || freq <= 0 {
			t.Skip()
		}
		num := new(big.Int).Mul(big.NewInt(c), big.NewInt(1_000_000_000))
		q, r := new(big.Int).QuoRem(num, big.NewInt(freq), new(big.Int))
		if r.Lsh(r, 1).Cmp(big.NewInt(freq)) >= 0 {
			q.Add(q, big.NewInt(1))
		}
		if !q.IsInt64() {
			t.Skip()
		}
		if got := Cycles(c).DurationAt(Freq(freq)); int64(got) != q.Int64() {
			t.Fatalf("%d cycles at %d kHz = %d ps, want %v", c, freq, int64(got), q)
		}
	})
}
