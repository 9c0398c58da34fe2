package policy

import (
	"math"

	"netbandit/internal/bandit"
)

// KLUCB is the Bernoulli KL-UCB policy (Garivier & Cappé 2011): the index
// of arm i is the largest q such that
//
//	T_i · kl(X̄_i, q) <= ln t + c·ln ln t
//
// with kl the Bernoulli Kullback-Leibler divergence and c = 3, computed by
// bisection. KL-UCB is asymptotically optimal for Bernoulli rewards and is
// the strongest distribution-dependent single-play baseline in this
// repository; comparing it to DFL-SSO shows what side observation buys
// even against an optimal no-side-information learner. UseSideObs folds
// neighbour observations into the statistics.
type KLUCB struct {
	// UseSideObs folds every revealed observation into the statistics.
	UseSideObs bool

	stats bandit.ArmStats
	k     int
	index []float64
}

// newKLUCB returns a KL-UCB policy that ignores side observations.
func newKLUCB() *KLUCB { return &KLUCB{} }

// Name implements bandit.SinglePolicy.
func (p *KLUCB) Name() string {
	if p.UseSideObs {
		return "KL-UCB-side"
	}
	return "KL-UCB"
}

// Reset implements bandit.SinglePolicy.
func (p *KLUCB) Reset(meta bandit.Meta) {
	p.k = meta.K
	p.stats.Reset(meta.K)
	p.index = make([]float64, meta.K)
}

// Select implements bandit.SinglePolicy.
func (p *KLUCB) Select(t int, _ *bandit.RoundContext) int {
	logT := math.Log(float64(t))
	if t >= 3 {
		logT += 3 * math.Log(math.Log(float64(t)))
	}
	if logT < 0 {
		logT = 0
	}
	for i := 0; i < p.k; i++ {
		n := p.stats.Count[i]
		if n == 0 {
			p.index[i] = bandit.InfIndex
			continue
		}
		p.index[i] = klUCBIndex(p.stats.Mean[i], logT/float64(n))
	}
	return bandit.ArgmaxFloat(p.index)
}

// Update implements bandit.SinglePolicy.
func (p *KLUCB) Update(_ int, chosen int, obs []bandit.Observation) {
	if p.UseSideObs {
		for _, o := range obs {
			p.stats.Observe(o.Arm, o.Value)
		}
		return
	}
	if v, ok := bandit.ChosenValue(chosen, obs); ok {
		p.stats.Observe(chosen, v)
	}
}

// klUCBIndex solves max{q in [mean, 1] : kl(mean, q) <= budget} by
// bisection. kl is increasing in q above mean, so bisection converges.
func klUCBIndex(mean, budget float64) float64 {
	if budget <= 0 {
		return mean
	}
	lo, hi := mean, 1.0
	for iter := 0; iter < 50 && hi-lo > 1e-9; iter++ {
		mid := (lo + hi) / 2
		if bernKL(mean, mid) <= budget {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// bernKL is the Bernoulli KL divergence kl(p, q) with the usual 0·log 0
// conventions, clamped away from the singular endpoints.
func bernKL(p, q float64) float64 {
	const eps = 1e-12
	p = clamp(p, eps, 1-eps)
	q = clamp(q, eps, 1-eps)
	return p*math.Log(p/q) + (1-p)*math.Log((1-p)/(1-q))
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

var _ bandit.SinglePolicy = (*KLUCB)(nil)
