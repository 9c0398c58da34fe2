package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"netbandit"
)

// sweepTrace is the traced run's view of the sim, policy and bandit
// layers: a timing decorator around every policy the sweep pool builds.
// The runner never type-asserts policies, so the decorator is transparent
// to it.
type sweepTrace struct {
	mu    sync.Mutex
	cells map[cellPlan]*cellTrace
}

// cellTrace accumulates one sub-sweep's replications.
type cellTrace struct {
	reps    int
	rounds  int64
	arms    int64
	rep     time.Duration // Reset to last Update
	sel     time.Duration
	upd     time.Duration
	closure [][]int // observed arm lists of the first replication
	repMs   []float64
}

// closureCap bounds how many rounds of observed arm lists one sub-sweep
// records for the sampling replay.
const closureCap = 4096

func newSweepTrace() *sweepTrace { return &sweepTrace{cells: map[cellPlan]*cellTrace{}} }

func (st *sweepTrace) wrap(spec netbandit.PolicySpec, c cellPlan) netbandit.PolicySpec {
	if f := spec.Single; f != nil {
		spec.Single = func(r *netbandit.RNG) netbandit.SinglePolicy {
			return &singleProbe{inner: f(r), probe: probe{st: st, cell: c}}
		}
	}
	if f := spec.Combo; f != nil {
		spec.Combo = func(r *netbandit.RNG) netbandit.ComboPolicy {
			return &comboProbe{inner: f(r), probe: probe{st: st, cell: c}}
		}
	}
	return spec
}

// probe is the per-replication state both decorators share. A policy
// instance belongs to one replication, so it needs no lock until flush.
type probe struct {
	st        *sweepTrace
	cell      cellPlan
	reset     time.Time
	last      time.Time
	sel, upd  time.Duration
	rounds    int64
	arms      int64
	closure   [][]int
	recording bool
}

func (p *probe) begin() {
	p.reset = time.Now()
	p.sel, p.upd, p.rounds, p.arms, p.closure = 0, 0, 0, 0, nil
	p.st.mu.Lock()
	ct := p.st.cellLocked(p.cell)
	p.recording = ct.closure == nil && ct.reps == 0
	p.st.mu.Unlock()
}

func (p *probe) observed(t int, obs []netbandit.Observation) {
	p.last = time.Now()
	p.rounds++
	p.arms += int64(len(obs))
	if p.recording && len(p.closure) < closureCap {
		arms := make([]int, len(obs))
		for i, o := range obs {
			arms[i] = o.Arm
		}
		p.closure = append(p.closure, arms)
	}
	if t == p.cell.horizon {
		p.flush()
	}
}

func (p *probe) flush() {
	rep := p.last.Sub(p.reset)
	p.st.mu.Lock()
	defer p.st.mu.Unlock()
	ct := p.st.cellLocked(p.cell)
	ct.reps++
	ct.rounds += p.rounds
	ct.arms += p.arms
	ct.rep += rep
	ct.sel += p.sel
	ct.upd += p.upd
	ct.repMs = append(ct.repMs, ms(rep))
	if p.recording && ct.closure == nil {
		ct.closure = p.closure
	}
}

func (st *sweepTrace) cellLocked(c cellPlan) *cellTrace {
	ct := st.cells[c]
	if ct == nil {
		ct = &cellTrace{}
		st.cells[c] = ct
	}
	return ct
}

type singleProbe struct {
	inner netbandit.SinglePolicy
	probe
}

func (s *singleProbe) Name() string { return s.inner.Name() }

func (s *singleProbe) Reset(meta netbandit.Meta) {
	s.inner.Reset(meta)
	s.begin()
}

func (s *singleProbe) Select(t int, rc *netbandit.RoundContext) int {
	start := time.Now()
	a := s.inner.Select(t, rc)
	s.sel += time.Since(start)
	return a
}

func (s *singleProbe) Update(t, chosen int, obs []netbandit.Observation) {
	start := time.Now()
	s.inner.Update(t, chosen, obs)
	s.upd += time.Since(start)
	s.observed(t, obs)
}

type comboProbe struct {
	inner netbandit.ComboPolicy
	probe
}

func (c *comboProbe) Name() string { return c.inner.Name() }

func (c *comboProbe) Reset(meta netbandit.ComboMeta) {
	c.inner.Reset(meta)
	c.begin()
}

func (c *comboProbe) Select(t int, rc *netbandit.RoundContext) int {
	start := time.Now()
	a := c.inner.Select(t, rc)
	c.sel += time.Since(start)
	return a
}

func (c *comboProbe) Update(t, chosen int, obs []netbandit.Observation) {
	start := time.Now()
	c.inner.Update(t, chosen, obs)
	c.upd += time.Since(start)
	c.observed(t, obs)
}

// traceSweepLayers is the sweep-paper half of every traced run. It
// alternates untraced and traced passes (the median over adjacent pairs of
// their throughput ratio is the tracing overhead, so that the host's drift
// cancels), then derives the sim, policy, core and bandit layer metrics
// from the traced passes.
func traceSweepLayers(o *options, rep *report) (overhead float64, err error) {
	ctx := context.Background()
	start := time.Now()
	pe, err := buildPaperEnvs(o.seed)
	if err != nil {
		return 0, err
	}
	rep.set("sim.env_build_ms", ms(time.Since(start)), "ms")
	for _, part := range []string{"cso", "csr", "largek"} {
		start := time.Now()
		for _, set := range pe.strategySets(part) {
			if sg := netbandit.BuildStrategyGraph(set); sg.N() != set.Len() {
				return 0, gatef("strategy graph of %s has %d vertices, want %d", part, sg.N(), set.Len())
			}
		}
		rep.set("core.sg_build_ms."+part, ms(time.Since(start)), "ms")
	}

	st := newSweepTrace()
	var shares []float64
	var tracedWall time.Duration
	var digest string
	for i := 0; i < o.sizes.traceTrials; i++ {
		var rate [2]float64
		for j, tr := range []*sweepTrace{nil, st} {
			pr, err := runPass(ctx, o, pe, o.seed, tr)
			if err != nil {
				return 0, err
			}
			if digest == "" {
				digest = pr.digest
			} else if pr.digest != digest {
				return 0, gatef("traced sweep pass exported digest %s, untraced %s", pr.digest, digest)
			}
			rep.ops(pr.reps, 0)
			rate[j] = pr.rounds / pr.wall.Seconds()
			if tr != nil {
				tracedWall += pr.wall
			}
		}
		shares = append(shares, 1-rate[1]/rate[0])
	}

	var busy time.Duration
	for _, part := range paperParts {
		var rounds, arms int64
		var repT, sel, upd time.Duration
		var repMs []float64
		var closure [][]int
		for _, c := range o.sizes.cells {
			if c.part != part {
				continue
			}
			ct := st.cells[c]
			if ct == nil || ct.reps == 0 {
				return 0, fmt.Errorf("traced pass recorded no replication of %s/%s", c.part, c.policy)
			}
			rep.set(fmt.Sprintf("policy.select_ns.%s.%s", c.policy, part), float64(ct.sel)/float64(ct.rounds), "ns")
			rep.set(fmt.Sprintf("policy.update_ns.%s.%s", c.policy, part), float64(ct.upd)/float64(ct.rounds), "ns")
			rounds += ct.rounds
			arms += ct.arms
			repT += ct.rep
			sel += ct.sel
			upd += ct.upd
			repMs = append(repMs, ct.repMs...)
			if closure == nil {
				closure = ct.closure
			}
		}
		busy += repT
		rep.set("sim.rep_ms."+part, median(repMs), "ms")
		rep.set("sim.round_overhead_ns."+part, float64(repT-sel-upd)/float64(rounds), "ns")
		rep.set("bandit.arms_per_round."+part, float64(arms)/float64(rounds), "count")
		rep.set("bandit.sample_ns."+part, sampleReplay(o.seed, pe.envAxis(part)[0].Env, closure), "ns")
	}
	rep.set("sim.pool_busy_share", busy.Seconds()/(float64(o.sizes.conns)*tracedWall.Seconds()), "share")
	return median(shares), nil
}

// sampleReplay times Env.SampleObserved over recorded observed-arm lists
// and returns the mean nanoseconds per call (one round's closure).
func sampleReplay(seed uint64, env *netbandit.Env, closures [][]int) float64 {
	if len(closures) == 0 {
		return 0
	}
	c := netbandit.NewCounter(seed)
	scratch := netbandit.NewRNG(seed)
	buf := make([]float64, env.K())
	const minCalls = 200000
	calls := 0
	start := time.Now()
	for calls < minCalls {
		for t, arms := range closures {
			buf = env.SampleObserved(c, calls+t+1, arms, buf, scratch)
		}
		calls += len(closures)
	}
	return float64(time.Since(start)) / float64(calls)
}
