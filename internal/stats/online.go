// Package stats provides the online statistics used by the bandit policies
// and by the experiment harness: numerically stable streaming moments
// (Welford), exponential and windowed means, a P² streaming quantile
// estimator, fixed-bin histograms, Hoeffding confidence radii, and
// cross-replication aggregation of regret curves into mean ± stderr bands.
package stats

import "math"

// Welford accumulates mean and variance in a single pass using Welford's
// numerically stable recurrence. The zero value is an empty accumulator
// ready for use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add folds x into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int64 { return w.n }

// Mean returns the running mean (0 when empty).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the population variance (0 with fewer than 2 samples).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// SampleVariance returns the Bessel-corrected variance (0 with < 2 samples).
func (w *Welford) SampleVariance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the population standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Variance()) }

// StdErr returns the standard error of the mean (0 when empty).
func (w *Welford) StdErr() float64 {
	if w.n < 2 {
		return 0
	}
	return math.Sqrt(w.SampleVariance() / float64(w.n))
}

// Merge combines another accumulator into w using the parallel-variance
// formula, enabling aggregation of per-goroutine accumulators.
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	delta := o.mean - w.mean
	w.m2 += o.m2 + delta*delta*float64(w.n)*float64(o.n)/float64(n)
	w.mean += delta * float64(o.n) / float64(n)
	w.n = n
}

// Reset returns the accumulator to its empty state.
func (w *Welford) Reset() { *w = Welford{} }

// Moments returns the accumulator's raw state: the count, running mean,
// and sum of squared deviations. Together with WelfordFromMoments it lets
// an accumulator be serialised and rebuilt bit-identically — the basis of
// the sharded sweep protocol's disk-spilled aggregates.
func (w *Welford) Moments() (n int64, mean, m2 float64) { return w.n, w.mean, w.m2 }

// WelfordFromMoments reconstructs an accumulator from a raw state triple
// previously obtained from Moments.
func WelfordFromMoments(n int64, mean, m2 float64) Welford {
	return Welford{n: n, mean: mean, m2: m2}
}

// EMA is an exponential moving average with smoothing factor alpha in
// (0, 1]; larger alpha weights recent samples more heavily.
type EMA struct {
	alpha float64
	value float64
	init  bool
}

// newEMA returns an EMA with the given smoothing factor. It panics unless
// 0 < alpha <= 1.
func newEMA(alpha float64) *EMA {
	if alpha <= 0 || alpha > 1 {
		panic("stats: EMA alpha must be in (0,1]")
	}
	return &EMA{alpha: alpha}
}

// Add folds x into the average.
func (e *EMA) Add(x float64) {
	if !e.init {
		e.value = x
		e.init = true
		return
	}
	e.value = e.alpha*x + (1-e.alpha)*e.value
}

// Value returns the current average (0 before the first Add).
func (e *EMA) Value() float64 { return e.value }

// Window is a fixed-size sliding-window mean.
type Window struct {
	buf  []float64
	next int
	full bool
	sum  float64
}

// newWindow returns a sliding window over the last size samples. It panics
// if size <= 0.
func newWindow(size int) *Window {
	if size <= 0 {
		panic("stats: window size must be positive")
	}
	return &Window{buf: make([]float64, size)}
}

// Add pushes x, evicting the oldest sample once the window is full.
func (w *Window) Add(x float64) {
	if w.full {
		w.sum -= w.buf[w.next]
	}
	w.buf[w.next] = x
	w.sum += x
	w.next++
	if w.next == len(w.buf) {
		w.next = 0
		w.full = true
	}
}

// Len returns the number of samples currently held.
func (w *Window) Len() int {
	if w.full {
		return len(w.buf)
	}
	return w.next
}

// Mean returns the mean of the held samples (0 when empty).
func (w *Window) Mean() float64 {
	n := w.Len()
	if n == 0 {
		return 0
	}
	return w.sum / float64(n)
}
