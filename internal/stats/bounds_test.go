package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHoeffdingRadius(t *testing.T) {
	if !math.IsInf(hoeffdingRadius(0, 1, 0.05), 1) {
		t.Fatal("radius with no samples should be +Inf")
	}
	// ln(1/0.05)/(2*100) under sqrt.
	want := math.Sqrt(math.Log(1/0.05) / 200)
	if got := hoeffdingRadius(100, 1, 0.05); !almostEqual(got, want, 1e-12) {
		t.Fatalf("radius = %v, want %v", got, want)
	}
	// Doubling the support width doubles the radius.
	if got := hoeffdingRadius(100, 2, 0.05); !almostEqual(got, 2*want, 1e-12) {
		t.Fatalf("scaled radius = %v, want %v", got, 2*want)
	}
}

func TestHoeffdingRadiusPanics(t *testing.T) {
	for _, tc := range []struct {
		name  string
		width float64
		delta float64
	}{
		{"delta 0", 1, 0}, {"delta 1", 1, 1}, {"negative width", -1, 0.1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			hoeffdingRadius(1, tc.width, tc.delta)
		}()
	}
}

func TestHoeffdingTail(t *testing.T) {
	if got := hoeffdingTail(0, 1); got != 1 {
		t.Fatalf("tail with n=0 should be 1, got %v", got)
	}
	if got := hoeffdingTail(10, 0); got != 1 {
		t.Fatalf("tail with a=0 should be 1, got %v", got)
	}
	want := math.Exp(-2.0 * 4 / 10)
	if got := hoeffdingTail(10, 2); !almostEqual(got, want, 1e-12) {
		t.Fatalf("tail = %v, want %v", got, want)
	}
}

// Property: the Hoeffding tail bound is monotonically decreasing in the
// deviation and within (0, 1].
func TestHoeffdingTailMonotoneProperty(t *testing.T) {
	f := func(a1, a2 float64) bool {
		// Map arbitrary floats into the meaningful deviation range [0, 100]
		// (beyond that the bound underflows to exactly 0, which is fine but
		// breaks the strict-positivity part of the property).
		a1 = math.Mod(math.Abs(a1), 100)
		a2 = math.Mod(math.Abs(a2), 100)
		if math.IsNaN(a1) || math.IsNaN(a2) {
			return true
		}
		if a1 > a2 {
			a1, a2 = a2, a1
		}
		t1, t2 := hoeffdingTail(100, a1), hoeffdingTail(100, a2)
		return t1 >= t2 && t2 > 0 && t1 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestUCB1Radius(t *testing.T) {
	if !math.IsInf(UCB1Radius(10, 0), 1) {
		t.Fatal("UCB1 radius with no pulls should be +Inf")
	}
	want := math.Sqrt(2 * math.Log(100) / 5)
	if got := UCB1Radius(100, 5); !almostEqual(got, want, 1e-12) {
		t.Fatalf("UCB1 radius = %v, want %v", got, want)
	}
	// t clamped to >= 1 so the radius is never NaN.
	if got := UCB1Radius(0, 5); got != 0 {
		t.Fatalf("UCB1 radius at t=0 should be 0 (ln 1), got %v", got)
	}
}

func TestMOSSRadius(t *testing.T) {
	if !math.IsInf(MOSSRadius(10, 0), 1) {
		t.Fatal("MOSS radius with no pulls should be +Inf")
	}
	// Inside the log regime.
	want := math.Sqrt(math.Log(100.0/4) / 4)
	if got := MOSSRadius(100, 4); !almostEqual(got, want, 1e-12) {
		t.Fatalf("MOSS radius = %v, want %v", got, want)
	}
	// Truncation: once n exceeds horizonOverK the radius is exactly 0.
	if got := MOSSRadius(10, 20); got != 0 {
		t.Fatalf("truncated MOSS radius = %v, want 0", got)
	}
}

// Property: MOSS radius is non-increasing in the pull count.
func TestMOSSRadiusMonotoneProperty(t *testing.T) {
	f := func(n1, n2 uint16) bool {
		a, b := int64(n1)+1, int64(n2)+1
		if a > b {
			a, b = b, a
		}
		return MOSSRadius(1000, a) >= MOSSRadius(1000, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestLogPlus(t *testing.T) {
	tests := []struct{ x, want float64 }{
		{-5, 0}, {0, 0}, {0.5, 0}, {1, 0},
		{math.E, 1}, {math.E * math.E, 2},
	}
	for _, tc := range tests {
		if got := logPlus(tc.x); !almostEqual(got, tc.want, 1e-12) {
			t.Errorf("logPlus(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}
