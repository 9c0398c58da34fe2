package stats

import (
	"fmt"
	"sort"
)

// P2 is the Jain-Chlamtac P² streaming quantile estimator: it tracks a
// single quantile with O(1) memory and no sample retention. Accuracy is
// adequate for reporting latency- or regret-distribution quantiles in the
// harness without storing full traces.
type P2 struct {
	p       float64
	initial []float64  // first five samples, before the marker invariant holds
	q       [5]float64 // marker heights
	pos     [5]float64 // marker positions (1-based)
	want    [5]float64 // desired positions
	inc     [5]float64 // desired-position increments
	ready   bool
}

// newP2 returns a P² estimator for the p-quantile, 0 < p < 1.
func newP2(p float64) *P2 {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("stats: P2 quantile %v outside (0,1)", p))
	}
	return &P2{
		p:       p,
		initial: make([]float64, 0, 5),
	}
}

// Add folds a sample into the estimator.
func (e *P2) Add(x float64) {
	if !e.ready {
		e.initial = append(e.initial, x)
		if len(e.initial) == 5 {
			sort.Float64s(e.initial)
			copy(e.q[:], e.initial)
			e.pos = [5]float64{1, 2, 3, 4, 5}
			e.want = [5]float64{1, 1 + 2*e.p, 1 + 4*e.p, 3 + 2*e.p, 5}
			e.inc = [5]float64{0, e.p / 2, e.p, (1 + e.p) / 2, 1}
			e.ready = true
		}
		return
	}

	// Locate the cell containing x and clamp the extreme markers.
	var k int
	switch {
	case x < e.q[0]:
		e.q[0] = x
		k = 0
	case x >= e.q[4]:
		e.q[4] = x
		k = 3
	default:
		for k = 0; k < 4; k++ {
			if x < e.q[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		e.pos[i]++
	}
	for i := range e.want {
		e.want[i] += e.inc[i]
	}

	// Adjust interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := e.want[i] - e.pos[i]
		if (d >= 1 && e.pos[i+1]-e.pos[i] > 1) || (d <= -1 && e.pos[i-1]-e.pos[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1
			}
			qNew := e.parabolic(i, sign)
			if e.q[i-1] < qNew && qNew < e.q[i+1] {
				e.q[i] = qNew
			} else {
				e.q[i] = e.linear(i, sign)
			}
			e.pos[i] += sign
		}
	}
}

func (e *P2) parabolic(i int, d float64) float64 {
	num1 := e.pos[i] - e.pos[i-1] + d
	num2 := e.pos[i+1] - e.pos[i] - d
	den := e.pos[i+1] - e.pos[i-1]
	return e.q[i] + d/den*(num1*(e.q[i+1]-e.q[i])/(e.pos[i+1]-e.pos[i])+
		num2*(e.q[i]-e.q[i-1])/(e.pos[i]-e.pos[i-1]))
}

func (e *P2) linear(i int, d float64) float64 {
	j := i + int(d)
	return e.q[i] + d*(e.q[j]-e.q[i])/(e.pos[j]-e.pos[i])
}

// Value returns the current quantile estimate. Before five samples have
// arrived it falls back to the order statistic of the buffered samples.
func (e *P2) Value() float64 {
	if !e.ready {
		if len(e.initial) == 0 {
			return 0
		}
		tmp := append([]float64(nil), e.initial...)
		sort.Float64s(tmp)
		idx := int(e.p * float64(len(tmp)))
		if idx >= len(tmp) {
			idx = len(tmp) - 1
		}
		return tmp[idx]
	}
	return e.q[2]
}

// Histogram is a fixed-range, fixed-bin-count histogram with saturating
// under/overflow bins.
type Histogram struct {
	lo, hi   float64
	binWidth float64
	counts   []int64
	under    int64
	over     int64
	total    int64
}

// newHistogram returns a histogram over [lo, hi) with the given number of
// equal-width bins. It panics if bins <= 0 or hi <= lo.
func newHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 {
		panic("stats: histogram needs at least one bin")
	}
	if hi <= lo {
		panic("stats: histogram range must be non-empty")
	}
	return &Histogram{
		lo:       lo,
		hi:       hi,
		binWidth: (hi - lo) / float64(bins),
		counts:   make([]int64, bins),
	}
}

// Add records a sample.
func (h *Histogram) Add(x float64) {
	h.total++
	switch {
	case x < h.lo:
		h.under++
	case x >= h.hi:
		h.over++
	default:
		bin := int((x - h.lo) / h.binWidth)
		if bin >= len(h.counts) { // guard against float edge cases at hi
			bin = len(h.counts) - 1
		}
		h.counts[bin]++
	}
}

// Total returns the number of recorded samples, including out-of-range ones.
func (h *Histogram) Total() int64 { return h.total }

// Counts returns a copy of the per-bin counts.
func (h *Histogram) Counts() []int64 {
	out := make([]int64, len(h.counts))
	copy(out, h.counts)
	return out
}

// OutOfRange returns the underflow and overflow counts.
func (h *Histogram) OutOfRange() (under, over int64) { return h.under, h.over }

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.lo + (float64(i)+0.5)*h.binWidth
}
