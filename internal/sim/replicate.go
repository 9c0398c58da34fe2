package sim

import (
	"context"
	"fmt"
	"runtime"

	"netbandit/internal/bandit"
	"netbandit/internal/rng"
	"netbandit/internal/stats"
	"netbandit/internal/strategy"
)

// SingleFactory builds a fresh single-play policy for one replication.
// The supplied generator is that replication's private random stream;
// policies without internal randomness may ignore it.
type SingleFactory func(r *rng.RNG) bandit.SinglePolicy

// ComboFactory builds a fresh combinatorial policy for one replication.
type ComboFactory func(r *rng.RNG) bandit.ComboPolicy

// Metric selects which of the four regret curves an aggregate exposes.
type Metric int

// The four regret curves recorded per replication.
const (
	// CumPseudo is cumulative pseudo-regret Σ (optimal mean − chosen mean).
	CumPseudo Metric = iota + 1
	// CumRealized is cumulative realized regret Σ (optimal mean − collected).
	CumRealized
	// AvgPseudo is pseudo-regret divided by t — the paper's
	// "expected regret" curves.
	AvgPseudo
	// AvgRealized is realized regret divided by t.
	AvgRealized
)

// String implements fmt.Stringer.
func (m Metric) String() string {
	switch m {
	case CumPseudo:
		return "cum-pseudo"
	case CumRealized:
		return "cum-realized"
	case AvgPseudo:
		return "avg-pseudo"
	case AvgRealized:
		return "avg-realized"
	default:
		return fmt.Sprintf("metric(%d)", int(m))
	}
}

// Aggregate is the cross-replication summary of one policy's run: four
// pointwise mean curves with error bands.
type Aggregate struct {
	Policy string
	T      []int
	Reps   int

	bands map[Metric]*stats.CurveBand
}

func newAggregate(policy string, checkpoints []int) *Aggregate {
	a := &Aggregate{
		Policy: policy,
		T:      checkpoints,
		bands:  make(map[Metric]*stats.CurveBand, 4),
	}
	for _, m := range []Metric{CumPseudo, CumRealized, AvgPseudo, AvgRealized} {
		a.bands[m] = stats.NewCurveBand(len(checkpoints))
	}
	return a
}

func (a *Aggregate) add(s *Series) error {
	curves := map[Metric][]float64{
		CumPseudo:   s.CumPseudo,
		CumRealized: s.CumRealized,
		AvgPseudo:   s.AvgPseudo,
		AvgRealized: s.AvgRealized,
	}
	for m, c := range curves {
		if err := a.bands[m].AddCurve(c); err != nil {
			return err
		}
	}
	a.Reps++
	return nil
}

// Mean returns the pointwise mean curve of the chosen metric.
func (a *Aggregate) Mean(m Metric) []float64 { return a.bands[m].Mean() }

// StdErr returns the pointwise standard error of the chosen metric.
func (a *Aggregate) StdErr(m Metric) []float64 { return a.bands[m].StdErr() }

// CI95 returns the pointwise 95% confidence half-width of the metric.
func (a *Aggregate) CI95(m Metric) []float64 { return a.bands[m].CI95() }

// Final returns the mean value of the metric at the last checkpoint.
func (a *Aggregate) Final(m Metric) float64 {
	mean := a.Mean(m)
	if len(mean) == 0 {
		return 0
	}
	return mean[len(mean)-1]
}

// ReplicateOptions controls parallel replication.
type ReplicateOptions struct {
	// Reps is the number of independent replications. Required.
	Reps int
	// Seed roots the deterministic replication streams: replication i uses
	// rng.New(Seed).Split(i+1) regardless of scheduling, so results are
	// reproducible under any worker count.
	Seed uint64
	// Workers bounds the parallelism; 0 means GOMAXPROCS.
	Workers int
	// Progress, when non-nil, receives one callback per folded
	// replication.
	Progress ProgressFunc
}

func (o ReplicateOptions) validate() error {
	if o.Reps <= 0 {
		return fmt.Errorf("sim: need at least one replication, got %d", o.Reps)
	}
	return nil
}

func (o ReplicateOptions) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// ReplicateSingle runs Reps independent replications of a single-play
// experiment in parallel and aggregates the curves. Results stream into the
// aggregate through a bounded reorder window (peak series memory is
// O(workers), not O(reps)) and the pool stops dispatching on the first
// replication error, returning every error that occurred joined.
func ReplicateSingle(env *bandit.Env, scen bandit.Scenario, factory SingleFactory, cfg Config, opts ReplicateOptions) (*Aggregate, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	run := func(rep int) (*Series, error) {
		stream := rng.New(opts.Seed).Split(uint64(rep) + 1)
		pol := factory(stream.Split(0))
		return play(NewSingleRun(env, scen, pol, cfg, stream.Split(1)))
	}
	return replicate(run, opts)
}

// ReplicateCombo runs Reps independent replications of a combinatorial
// experiment in parallel and aggregates the curves, with the same
// streaming, fail-fast semantics as ReplicateSingle. The per-cell
// precompute (means, optima, strategy relation graph) is built once and
// shared read-only across all replications.
func ReplicateCombo(env *bandit.Env, set *strategy.Set, scen bandit.Scenario, factory ComboFactory, cfg Config, opts ReplicateOptions) (*Aggregate, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	cache := NewComboCache(env, set)
	run := func(rep int) (*Series, error) {
		stream := rng.New(opts.Seed).Split(uint64(rep) + 1)
		pol := factory(stream.Split(0))
		return play(NewComboRun(env, set, scen, pol, cfg, stream.Split(1), cache))
	}
	return replicate(run, opts)
}

// replicate runs the per-replication closure as a one-cell sweep on the
// shared streaming executor; determinism comes from keying all randomness
// on the replication index rather than on scheduling order.
func replicate(run func(rep int) (*Series, error), opts ReplicateOptions) (*Aggregate, error) {
	cells := []execCell{{reps: opts.Reps, run: run}}
	aggs, _, err := executeCells(context.Background(), cells, opts.workers(), 0, opts.Progress, nil)
	if err != nil {
		return nil, err
	}
	return aggs[0], nil
}
