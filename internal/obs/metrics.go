package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// This file is the metrics half of the plane: a tiny instrument registry
// (counters, gauges, histograms, with optional single-label children)
// that renders Prometheus text exposition format. It deliberately
// implements only what the sweep layers need — monotonically named
// series, atomic updates cheap enough for per-cell call sites, and a
// stable, sorted rendering — rather than a client_golang clone.

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative; counters only go up).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket cumulative histogram (Prometheus
// semantics: each bucket counts observations ≤ its upper bound, plus an
// implicit +Inf bucket).
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64  // float64 bits, CAS-updated
	n      atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.n.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns how many values have been observed.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// DefaultLatencyBuckets are the histogram bounds used for cell latencies,
// in seconds: cells range from sub-millisecond toy grids to multi-minute
// combinatorial points.
var DefaultLatencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30, 60, 120, 300,
}

// seriesKind tags a registered family for exposition.
type seriesKind int

const (
	kindCounter seriesKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

// family is one registered metric name: either a single unlabeled
// instrument or a set of single-label children.
type family struct {
	name, help string
	kind       seriesKind
	labelKey   string

	counter *Counter
	gauge   *Gauge
	fn      func() float64
	hist    *Histogram

	children map[string]any // labelVal → *Counter or *Gauge
	order    []string       // registration order of children, sorted at render
}

// Registry holds a process's metric families and renders them in
// Prometheus text format. The zero value is not usable; call NewRegistry.
// A nil *Registry is valid everywhere an instrument is requested: it
// returns instruments that work but are rendered by nothing, so callers
// thread one pointer without branching.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookup returns the family for name, creating it with the given kind.
// Asking for an existing name with a different kind or label key is a
// programming error and panics — silent aliasing would corrupt series.
func (r *Registry) lookup(name, help string, kind seriesKind, labelKey string) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, labelKey: labelKey}
		r.families[name] = f
		r.order = append(r.order, name)
		return f
	}
	if f.kind != kind || f.labelKey != labelKey {
		panic(fmt.Sprintf("obs: metric %q re-registered as a different kind or label", name))
	}
	return f
}

// Counter returns the counter registered under name, creating it on
// first use. Safe to call repeatedly; the same instrument is returned.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return &Counter{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindCounter, "")
	if f.counter == nil {
		f.counter = &Counter{}
	}
	return f.counter
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindGauge, "")
	if f.gauge == nil {
		f.gauge = &Gauge{}
	}
	return f.gauge
}

// GaugeFunc registers a gauge whose value is computed at scrape time —
// runtime stats, queue depths already tracked elsewhere. Re-registering
// the same name replaces the function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindGaugeFunc, "")
	f.fn = fn
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket upper bounds (ascending) on first use.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return newHistogram(bounds)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindHistogram, "")
	if f.hist == nil {
		f.hist = newHistogram(bounds)
	}
	return f.hist
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// LabeledGauge returns the child gauge of the single-label family name
// with the given label value (for example per-slot health states).
func (r *Registry) LabeledGauge(name, help, labelKey, labelVal string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindGauge, labelKey)
	if f.children == nil {
		f.children = make(map[string]any)
	}
	if g, ok := f.children[labelVal]; ok {
		return g.(*Gauge)
	}
	g := &Gauge{}
	f.children[labelVal] = g
	f.order = append(f.order, labelVal)
	return g
}

// LabeledCounter returns the child counter of the single-label family
// name with the given label value.
func (r *Registry) LabeledCounter(name, help, labelKey, labelVal string) *Counter {
	if r == nil {
		return &Counter{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindCounter, labelKey)
	if f.children == nil {
		f.children = make(map[string]any)
	}
	if c, ok := f.children[labelVal]; ok {
		return c.(*Counter)
	}
	c := &Counter{}
	f.children[labelVal] = c
	f.order = append(f.order, labelVal)
	return c
}

// SeriesCount returns the number of exposition series the registry
// currently renders (histogram buckets, sums, and counts included) —
// what a scraper would see as distinct sample lines.
func (r *Registry) SeriesCount() int {
	if r == nil {
		return 0
	}
	var b strings.Builder
	_ = r.WriteProm(&b)
	n := 0
	for _, line := range strings.Split(b.String(), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			n++
		}
	}
	return n
}

// WriteProm renders every registered family in Prometheus text
// exposition format (version 0.0.4), families in registration order,
// labeled children sorted by label value.
func (r *Registry) WriteProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	// Labeled families gain children under r.mu, so each family's children
	// are snapshotted while it is held; rendering (which may call gauge
	// funcs and block on w) runs after it is released.
	r.mu.Lock()
	fams := make([]*family, len(r.order))
	kids := make([][]labeledChild, len(r.order))
	for i, n := range r.order {
		f := r.families[n]
		fams[i] = f
		if f.children != nil {
			kids[i] = make([]labeledChild, len(f.order))
			for j, lv := range f.order {
				kids[i][j] = labeledChild{lv, f.children[lv]}
			}
		}
	}
	r.mu.Unlock()

	for i, f := range fams {
		typ := "gauge"
		if f.kind == kindCounter {
			typ = "counter"
		} else if f.kind == kindHistogram {
			typ = "histogram"
		}
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, typ); err != nil {
			return err
		}
		if err := f.render(w, kids[i]); err != nil {
			return err
		}
	}
	return nil
}

// labeledChild is one child of a labeled family, snapshotted for render.
type labeledChild struct {
	labelVal string
	inst     any // *Counter or *Gauge
}

// render writes one family's sample lines; kids is the snapshot of a
// labeled family's children (nil for unlabeled families).
func (f *family) render(w io.Writer, kids []labeledChild) error {
	if kids != nil {
		sort.Slice(kids, func(i, j int) bool { return kids[i].labelVal < kids[j].labelVal })
		for _, c := range kids {
			var v float64
			switch inst := c.inst.(type) {
			case *Counter:
				v = float64(inst.Value())
			case *Gauge:
				v = inst.Value()
			}
			if _, err := fmt.Fprintf(w, "%s{%s=%q} %s\n", f.name, f.labelKey, c.labelVal, formatSample(v)); err != nil {
				return err
			}
		}
		return nil
	}
	switch f.kind {
	case kindCounter:
		_, err := fmt.Fprintf(w, "%s %d\n", f.name, f.counter.Value())
		return err
	case kindGauge:
		_, err := fmt.Fprintf(w, "%s %s\n", f.name, formatSample(f.gauge.Value()))
		return err
	case kindGaugeFunc:
		_, err := fmt.Fprintf(w, "%s %s\n", f.name, formatSample(f.fn()))
		return err
	case kindHistogram:
		h := f.hist
		cum := int64(0)
		for i, bound := range h.bounds {
			cum += h.counts[i].Load()
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", f.name, formatSample(bound), cum); err != nil {
				return err
			}
		}
		cum += h.counts[len(h.bounds)].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", f.name, cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n", f.name, formatSample(h.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count %d\n", f.name, h.Count())
		return err
	}
	return nil
}

// formatSample renders a float the way Prometheus text format expects.
func formatSample(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
