package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"sync"
	"time"

	"netbandit"
)

// The sweep-paper workload: the paper's four scenarios at its own settings
// (Figs. 3–6) plus the large-K sparse family, each run as timed sub-sweeps
// of dfl against one baseline on a Workers = nproc pool.
//
// Each (part, policy) pair is its own sub-sweep with its own horizon,
// chosen so that one replication takes about the same wall time in every
// sub-sweep (≈25 ms on a 2-vCPU host). Replication latency is then one
// distribution rather than ten, and every part has about the same share
// of a pass.
var paperCells = []cellPlan{
	{"sso", "dfl", 40000, 1},
	{"sso", "moss", 9000, 1},
	{"ssr", "dfl", 350, 1},
	{"ssr", "moss", 9000, 1},
	{"cso", "dfl", 13000, 1},
	{"cso", "cucb", 12000, 1},
	{"csr", "dfl", 5000, 1},
	{"csr", "cucb", 4000, 1},
	{"largek", "dfl", 10300, 8},
	{"largek", "cucb", 200, 8},
}

// paperParts lists the parts in report order.
var paperParts = []string{"sso", "ssr", "cso", "csr", "largek"}

// The parts' settings.
const (
	fig3K      = 100   // Figs. 3 and 5: K = 100 arms, G(n, p) with p = 0.3
	fig3P      = 0.3   //
	fig3Draws  = 8     // independent graphs and arm means per seed
	fig4K      = 20    // Figs. 4 and 6: K = 20 arms, m = 2, top-M family
	fig4M      = 2     //
	fig4Draws  = 4     // independent draws per density per seed
	largeK     = 10000 // large-K sparse family, average degree 8
	largeDeg   = 8     //
	largeWidth = 2     // window-strategy width
)

// fig4Ps are the two graph densities of Figs. 4 and 6.
var fig4Ps = []float64{0.3, 0.6}

// paperEnvs holds every environment the parts play on, built once per
// set-up from the seed. Each small part plays several independent draws,
// so that a run's work depends little on which graphs its seed drew.
type paperEnvs struct {
	fig3  []netbandit.EnvSpec // SSO axis points; SSR plays the same envs
	fig4  []netbandit.EnvSpec // CSO axis points; CSR plays the same envs
	large netbandit.EnvSpec
}

// buildPaperEnvs builds every environment from the seed: the sweep's
// set-up.
func buildPaperEnvs(seed uint64) (*paperEnvs, error) {
	root := netbandit.NewRNG(seed)
	pe := &paperEnvs{}
	for d := 0; d < fig3Draws; d++ {
		env, _, err := netbandit.GnpBernoulliEnv("", netbandit.SSO, fig3K, 0, fig3P).Build(root.Split(uint64(10 + d)))
		if err != nil {
			return nil, fmt.Errorf("fig3 env: %w", err)
		}
		pe.fig3 = append(pe.fig3, netbandit.FixedEnv(fmt.Sprintf("k100-p0.3-g%d", d), netbandit.SSO, env, nil))
	}
	for i, p := range fig4Ps {
		for d := 0; d < fig4Draws; d++ {
			env, set, err := netbandit.GnpBernoulliEnv("", netbandit.CSO, fig4K, fig4M, p).Build(root.Split(uint64(20 + 10*i + d)))
			if err != nil {
				return nil, fmt.Errorf("fig4 env p=%g: %w", p, err)
			}
			pe.fig4 = append(pe.fig4, netbandit.FixedEnv(fmt.Sprintf("k20-m2-p%g-g%d", p, d), netbandit.CSO, env, set))
		}
	}
	env, err := netbandit.NewSparseBernoulliEnv(largeK, largeDeg, root.Split(5).Uint64())
	if err != nil {
		return nil, fmt.Errorf("largek env: %w", err)
	}
	set, err := netbandit.WindowStrategies(largeK, largeWidth, env.Graph())
	if err != nil {
		return nil, fmt.Errorf("largek strategies: %w", err)
	}
	pe.large = netbandit.FixedEnv("k10000-deg8-w2", netbandit.CSO, env, set)
	return pe, nil
}

// scenarioOf maps a part to the scenario it plays.
func scenarioOf(part string) netbandit.Scenario {
	switch part {
	case "sso":
		return netbandit.SSO
	case "ssr":
		return netbandit.SSR
	case "csr":
		return netbandit.CSR
	default: // cso, largek
		return netbandit.CSO
	}
}

// envAxis returns a part's environment axis points.
func (pe *paperEnvs) envAxis(part string) []netbandit.EnvSpec {
	var axis []netbandit.EnvSpec
	switch part {
	case "sso", "ssr":
		axis = pe.fig3
	case "cso", "csr":
		axis = pe.fig4
	default:
		axis = []netbandit.EnvSpec{pe.large}
	}
	out := make([]netbandit.EnvSpec, len(axis))
	for i, e := range axis {
		out[i] = netbandit.FixedEnv(e.Name, scenarioOf(part), e.Env, e.Set)
	}
	return out
}

// strategySets returns a part's strategy sets (none for single play).
func (pe *paperEnvs) strategySets(part string) []*netbandit.StrategySet {
	var out []*netbandit.StrategySet
	for _, e := range pe.envAxis(part) {
		if e.Set != nil {
			out = append(out, e.Set)
		}
	}
	return out
}

// passResult is one pass over every sub-sweep.
type passResult struct {
	wall    time.Duration
	rounds  float64
	digest  string
	repLat  durations // per-replication latency, policy built to folded
	cellLat map[string]durations
	partDur map[string]time.Duration
	partRnd map[string]float64
	reps    int64
	rss     float64 // this process's peak RSS during the pass, MB
}

// resetPeakRSS restarts this process's VmHWM count, so that each pass
// reports its own peak.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// runPass runs every sub-sweep once, hashing the canonical JSON exports.
// With tr non-nil every policy is wrapped in a timing decorator.
func runPass(ctx context.Context, o *options, pe *paperEnvs, seed uint64, tr *sweepTrace) (*passResult, error) {
	pr := &passResult{partDur: map[string]time.Duration{}, partRnd: map[string]float64{}, cellLat: map[string]durations{}}
	h := sha256.New()
	for _, c := range o.sizes.cells {
		envs := pe.envAxis(c.part)
		spec, err := netbandit.NewPolicySpec(c.policy, scenarioOf(c.part))
		if err != nil {
			return nil, err
		}
		lat := &repLatency{}
		spec = lat.wrap(spec)
		if tr != nil {
			spec = tr.wrap(spec, c)
		}
		sw := &netbandit.Sweep{
			Name:     c.part + "/" + c.policy,
			Envs:     envs,
			Policies: []netbandit.PolicySpec{spec},
			Config:   netbandit.Config{Horizon: c.horizon, AnnounceHorizon: true},
			Reps:     c.reps,
			Seed:     seed,
			Workers:  o.sizes.conns,
			Progress: func(p netbandit.SweepProgress) { lat.folded(p.CellIndex*c.reps + p.Rep) },
		}
		start := time.Now()
		res, err := sw.Run(ctx)
		wall := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("sub-sweep %s: %w", sw.Name, err)
		}
		fmt.Fprintf(h, "%s\n", sw.Name)
		if err := netbandit.WriteSweepJSON(h, res); err != nil {
			return nil, err
		}
		n := float64(len(envs) * c.reps * c.horizon)
		pr.wall += wall
		pr.rounds += n
		pr.partDur[c.part] += wall
		pr.partRnd[c.part] += n
		pr.reps += int64(len(envs) * c.reps)
		pr.repLat = append(pr.repLat, lat.latencies()...)
		pr.cellLat[sw.Name] = lat.latencies()
	}
	pr.digest = hexSum(h)
	return pr, nil
}

// repLatency times each replication from the moment the pool builds its
// policy to the moment its series is folded into the cell aggregate. The
// k-th policy built is matched with dispatch index k: the pool takes jobs
// in dispatch order, so adjacent workers can swap at most by the time one
// channel receive takes.
type repLatency struct {
	mu     sync.Mutex
	starts []time.Time
	ends   map[int]time.Time
}

func (l *repLatency) wrap(spec netbandit.PolicySpec) netbandit.PolicySpec {
	mark := func() {
		l.mu.Lock()
		l.starts = append(l.starts, time.Now())
		l.mu.Unlock()
	}
	if f := spec.Single; f != nil {
		spec.Single = func(r *netbandit.RNG) netbandit.SinglePolicy { mark(); return f(r) }
	}
	if f := spec.Combo; f != nil {
		spec.Combo = func(r *netbandit.RNG) netbandit.ComboPolicy { mark(); return f(r) }
	}
	return spec
}

// folded runs on the sweep's folding goroutine.
func (l *repLatency) folded(k int) {
	now := time.Now()
	l.mu.Lock()
	if l.ends == nil {
		l.ends = map[int]time.Time{}
	}
	l.ends[k] = now
	l.mu.Unlock()
}

func (l *repLatency) latencies() durations {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(durations, 0, len(l.ends))
	for k, end := range l.ends {
		if k < len(l.starts) {
			out = append(out, end.Sub(l.starts[k]))
		}
	}
	return out
}

// sweepSetup builds the environments o.sizes.setupReps times and returns
// the last set with the median build time.
func sweepSetup(o *options, seed uint64) (*paperEnvs, float64, error) {
	var times []float64
	var pe *paperEnvs
	for i := 0; i < o.sizes.setupReps; i++ {
		start := time.Now()
		var err error
		pe, err = buildPaperEnvs(seed)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return pe, median(times), nil
}

// goldenSweepDigest runs the golden pass: the recorded seed, untimed. It
// doubles as the warm-up.
func goldenSweepDigest(ctx context.Context, o *options) (string, error) {
	pe, err := buildPaperEnvs(o.digests.GoldenSeed)
	if err != nil {
		return "", err
	}
	pr, err := runPass(ctx, o, pe, o.digests.GoldenSeed, nil)
	if err != nil {
		return "", err
	}
	return pr.digest, nil
}

// runSweepPaper is the untraced sweep-paper run. Set-up is timed after the
// golden pass has warmed the heap, so that it measures building the
// environments rather than the process growing its first pages.
func runSweepPaper(o *options) (*report, error) {
	ctx := context.Background()
	rep := newReport()
	golden, err := goldenSweepDigest(ctx, o)
	if err != nil {
		return nil, err
	}
	if golden != o.digests.Sweep {
		return nil, gatef("sweep-paper golden digest %s, recorded %s", golden, o.digests.Sweep)
	}
	pe, setup, err := sweepSetup(o, o.seed)
	if err != nil {
		return nil, err
	}
	passes, err := timedPasses(ctx, o, pe, nil, o.seconds, o.sizes.minTrials)
	if err != nil {
		return nil, err
	}
	agg := foldPasses(passes)
	var rss, rate []float64
	for _, pr := range passes {
		rep.ops(pr.reps, 0)
		rss = append(rss, pr.rss)
		rate = append(rate, pr.rounds/pr.wall.Seconds())
	}
	rep.set("setup_s", setup, "s")
	rep.set("peak_rss_mb", median(rss), "MB")
	rep.set("work_per_s", median(rate), "1/s")
	rep.setN("p50_ms", ms(agg.repLat.quantile(0.50)), "ms", len(agg.repLat))
	rep.detail("detail p99_ms %14.6g ms n=%d", ms(agg.repLat.quantile(0.99)), len(agg.repLat))
	for _, part := range paperParts {
		rep.detail("detail rounds_per_s.%-8s %14.6g 1/s", part, agg.partRnd[part]/agg.partDur[part].Seconds())
	}
	for _, c := range o.sizes.cells {
		name := c.part + "/" + c.policy
		rep.detail("detail rep_ms %-12s p50 %8.3f p99 %8.3f", name, ms(agg.cellLat[name].quantile(0.5)), ms(agg.cellLat[name].quantile(0.99)))
	}
	rep.detail("detail passes %d, replications %d, digest %s", len(passes), len(agg.repLat), passes[0].digest)
	return rep, nil
}

// timedPasses runs passes until both the time budget and the minimum
// count are met. Every pass must export the same bytes.
func timedPasses(ctx context.Context, o *options, pe *paperEnvs, tr *sweepTrace, seconds float64, min int) ([]*passResult, error) {
	var passes []*passResult
	start := time.Now()
	for len(passes) < min || time.Since(start).Seconds() < seconds {
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		pr, err := runPass(ctx, o, pe, o.seed, tr)
		if err != nil {
			return nil, err
		}
		if pr.rss, err = peakRSSMB(0); err != nil {
			return nil, err
		}
		if len(passes) > 0 && pr.digest != passes[0].digest {
			return nil, gatef("sweep-paper pass %d exported digest %s, pass 0 exported %s (same seed)",
				len(passes), pr.digest, passes[0].digest)
		}
		passes = append(passes, pr)
	}
	return passes, nil
}

// foldPasses sums passes into one.
func foldPasses(passes []*passResult) *passResult {
	agg := &passResult{partDur: map[string]time.Duration{}, partRnd: map[string]float64{}, cellLat: map[string]durations{}}
	for _, pr := range passes {
		for k, v := range pr.cellLat {
			agg.cellLat[k] = append(agg.cellLat[k], v...)
		}
		agg.wall += pr.wall
		agg.rounds += pr.rounds
		agg.reps += pr.reps
		agg.repLat = append(agg.repLat, pr.repLat...)
		for k, v := range pr.partDur {
			agg.partDur[k] += v
		}
		for k, v := range pr.partRnd {
			agg.partRnd[k] += v
		}
	}
	return agg
}
