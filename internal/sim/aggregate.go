package sim

import (
	"fmt"

	"netbandit/internal/bandit"
	"netbandit/internal/rng"
	"netbandit/internal/stats"
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
