package stats

import "math"

// hoeffdingRadius returns the one-sided Hoeffding confidence radius for the
// mean of n i.i.d. samples supported on an interval of width `rangeWidth`
// at confidence 1-delta:
//
//	r = rangeWidth * sqrt(ln(1/delta) / (2 n)).
//
// It returns +Inf when n == 0 (an unobserved quantity is unbounded) and
// panics when delta is outside (0, 1) or rangeWidth < 0.
func hoeffdingRadius(n int64, rangeWidth, delta float64) float64 {
	if delta <= 0 || delta >= 1 {
		panic("stats: Hoeffding delta must be in (0,1)")
	}
	if rangeWidth < 0 {
		panic("stats: Hoeffding range width must be non-negative")
	}
	if n == 0 {
		return math.Inf(1)
	}
	return rangeWidth * math.Sqrt(math.Log(1/delta)/(2*float64(n)))
}

// hoeffdingTail returns the Hoeffding upper bound on
// P(sum of n samples deviates from its mean by at least a), for samples
// supported on [0, 1]: exp(-2 a² / n). Returns 1 when n == 0.
func hoeffdingTail(n int64, a float64) float64 {
	if n == 0 {
		return 1
	}
	if a <= 0 {
		return 1
	}
	return math.Exp(-2 * a * a / float64(n))
}

// UCB1Radius returns the classical UCB1 exploration radius
// sqrt(2 ln t / n), with +Inf when n == 0.
func UCB1Radius(t, n int64) float64 {
	if n == 0 {
		return math.Inf(1)
	}
	if t < 1 {
		t = 1
	}
	return math.Sqrt(2 * math.Log(float64(t)) / float64(n))
}

// MOSSRadius returns the MOSS exploration radius
// sqrt(max(ln(horizonOverK / n), 0) / n), with +Inf when n == 0.
// horizonOverK is the caller-computed ratio (n_total / K for fixed-horizon
// MOSS, t / K for the anytime variants used in the paper).
func MOSSRadius(horizonOverK float64, n int64) float64 {
	if n == 0 {
		return math.Inf(1)
	}
	logTerm := math.Log(horizonOverK / float64(n))
	if logTerm < 0 {
		logTerm = 0
	}
	return math.Sqrt(logTerm / float64(n))
}

// logPlus returns max(ln(x), 0), the truncated logarithm used throughout
// the paper's index definitions. logPlus of a non-positive x is 0.
func logPlus(x float64) float64 {
	if x <= 1 {
		return 0
	}
	return math.Log(x)
}

// Normal95 is the two-sided 95% standard-normal quantile used for the
// confidence bands around aggregated regret curves.
const Normal95 = 1.959963984540054
