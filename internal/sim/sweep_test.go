package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"netbandit/internal/bandit"
	"netbandit/internal/core"
	"netbandit/internal/policy"
	"netbandit/internal/rng"
)

// gridSweep builds the acceptance-criterion grid: 3 policies × 3 G(n, p)
// densities through one engine call.
func gridSweep(workers int) Sweep {
	return Sweep{
		Name: "grid",
		Envs: []EnvSpec{
			GnpBernoulliEnv("p=0.2", bandit.SSO, 12, 0, 0.2),
			GnpBernoulliEnv("p=0.4", bandit.SSO, 12, 0, 0.4),
			GnpBernoulliEnv("p=0.6", bandit.SSO, 12, 0, 0.6),
		},
		Policies: []PolicySpec{
			{Name: "DFL-SSO", Single: func(*rng.RNG) bandit.SinglePolicy { return core.NewDFLSSO() }},
			{Name: "MOSS", Single: func(*rng.RNG) bandit.SinglePolicy { return policy.NewMOSS() }},
			{Name: "Thompson", Single: func(r *rng.RNG) bandit.SinglePolicy { return policy.NewThompson(r) }},
		},
		Config:  Config{Horizon: 400, AnnounceHorizon: true},
		Reps:    8,
		Seed:    99,
		Workers: workers,
	}
}

func runGrid(t *testing.T, workers int) *SweepResult {
	t.Helper()
	sw := gridSweep(workers)
	res, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSweepGridShape(t *testing.T) {
	res := runGrid(t, 0)
	if len(res.Cells) != 9 {
		t.Fatalf("3×3 grid produced %d cells", len(res.Cells))
	}
	wantFirst := "p=0.2/DFL-SSO"
	if res.Cells[0].Cell != wantFirst {
		t.Fatalf("first cell %q, want %q", res.Cells[0].Cell, wantFirst)
	}
	for _, c := range res.Cells {
		if c.Agg == nil || c.Agg.Reps != 8 {
			t.Fatalf("cell %q: aggregate %+v", c.Cell, c.Agg)
		}
	}
	if _, ok := res.Find("p=0.4", "MOSS", ""); !ok {
		t.Fatal("Find missed an existing cell")
	}
	if _, ok := res.Find("p=0.9", "", ""); ok {
		t.Fatal("Find matched a non-existent env")
	}
}

// TestSweepDeterministicAcrossWorkerCounts asserts bit-identical per-cell
// aggregates (all four metrics, mean and stderr) for Workers 1, 8, and
// GOMAXPROCS — the engine's central reproducibility guarantee.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	base := runGrid(t, 1)
	for _, workers := range []int{8, runtime.GOMAXPROCS(0)} {
		other := runGrid(t, workers)
		for ci := range base.Cells {
			a, b := base.Cells[ci].Agg, other.Cells[ci].Agg
			for _, m := range sweepMetrics {
				am, bm := a.Mean(m), b.Mean(m)
				ae, be := a.StdErr(m), b.StdErr(m)
				for i := range am {
					if am[i] != bm[i] || ae[i] != be[i] {
						t.Fatalf("cell %q metric %v point %d: workers=1 (%v ± %v) vs workers=%d (%v ± %v)",
							base.Cells[ci].Cell, m, i, am[i], ae[i], workers, bm[i], be[i])
					}
				}
			}
		}
	}
}

// TestSweepBoundedReorderWindow asserts the O(workers) memory guarantee:
// the peak number of completed-but-unfolded Series never exceeds the
// reorder window, no matter how many replications run.
func TestSweepBoundedReorderWindow(t *testing.T) {
	sw := Sweep{
		Envs: []EnvSpec{GnpBernoulliEnv("", bandit.SSO, 8, 0, 0.3)},
		Policies: []PolicySpec{
			{Name: "Thompson", Single: func(r *rng.RNG) bandit.SinglePolicy { return policy.NewThompson(r) }},
		},
		Config:  Config{Horizon: 150},
		Reps:    64,
		Seed:    7,
		Workers: 4,
		Window:  8,
	}
	res, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxBuffered > 8 {
		t.Fatalf("reorder buffer held %d series, window is 8", res.MaxBuffered)
	}
}

// invalidArmPolicy trips the runner's action-range check on its first round.
type invalidArmPolicy struct{}

func (invalidArmPolicy) Name() string                          { return "invalid" }
func (invalidArmPolicy) Reset(bandit.Meta)                     {}
func (invalidArmPolicy) Select(int, *bandit.RoundContext) int  { return -1 }
func (invalidArmPolicy) Update(int, int, []bandit.Observation) {}

// TestReplicateFailFast is the satellite regression test: a policy that
// errors on replication 3 of 64 must stop the pool from dispatching the
// remaining replications, and the joined error must name the replication.
func TestReplicateFailFast(t *testing.T) {
	env := testEnv(t, 8, 0.3, 41)
	var calls atomic.Int64
	factory := func(r *rng.RNG) bandit.SinglePolicy {
		n := calls.Add(1) - 1
		if n == 3 {
			return invalidArmPolicy{}
		}
		return policy.NewThompson(r)
	}
	// One worker: dispatch order is replication order, so the 4th factory
	// call is exactly replication 3. The bounded window then caps total
	// dispatch at (3 folded) + window, far below 64.
	_, err := replicate(FixedEnv("", bandit.SSO, env, nil), PolicySpec{Single: factory},
		Config{Horizon: 100}, 64, 42, 1)
	if err == nil {
		t.Fatal("erroring replication reported no error")
	}
	if !strings.Contains(err.Error(), "replication 3") {
		t.Fatalf("error does not name the failing replication: %v", err)
	}
	if got := calls.Load(); got < 4 || got > 6 {
		t.Fatalf("pool kept dispatching after failure: %d policies built (want 4, window slack ≤ 6)", got)
	}
}

// TestSweepFailFastConcurrent asserts the hard dispatch bound under real
// parallelism: every replication errors, so the fold frontier never
// advances and dispatch can never exceed the reorder window.
func TestSweepFailFastConcurrent(t *testing.T) {
	env := testEnv(t, 8, 0.3, 43)
	var calls atomic.Int64
	sw := Sweep{
		Envs: []EnvSpec{FixedEnv("env", bandit.SSO, env, nil)},
		Policies: []PolicySpec{{Name: "bad", Single: func(*rng.RNG) bandit.SinglePolicy {
			calls.Add(1)
			return invalidArmPolicy{}
		}}},
		Config:  Config{Horizon: 100},
		Reps:    64,
		Seed:    44,
		Workers: 8,
		Window:  16,
	}
	_, err := sw.Run(context.Background())
	if err == nil {
		t.Fatal("failing sweep reported no error")
	}
	if !strings.Contains(err.Error(), `cell "env/bad"`) {
		t.Fatalf("error does not name the failing cell: %v", err)
	}
	if got := calls.Load(); got > 16 {
		t.Fatalf("dispatched %d replications after first failure; window is 16", got)
	}
}

func TestSweepContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sw := gridSweep(2)
	_, err := sw.Run(ctx)
	if err == nil {
		t.Fatal("cancelled sweep reported no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}
}

// TestSweepMatchesReplicate asserts that a common-streams sweep cell is
// bit-identical to a hand-written replication loop — the seed derivation
// the paper's figures and every example rely on.
func TestSweepMatchesReplicate(t *testing.T) {
	env := testEnv(t, 10, 0.4, 51)
	cfg := Config{Horizon: 300, AnnounceHorizon: true}
	direct := manualReplicate(t, cfg, 5, 52, func(pol, run *rng.RNG) (*Series, error) {
		return play(NewSingleRun(env, bandit.SSO, core.NewDFLSSO(), cfg, run))
	})
	sw := Sweep{
		Envs: []EnvSpec{FixedEnv("", bandit.SSO, env, nil)},
		Policies: []PolicySpec{
			{Name: "DFL-SSO", Single: func(*rng.RNG) bandit.SinglePolicy { return core.NewDFLSSO() }},
		},
		Config: cfg, Reps: 5, Seed: 52, Workers: 2, CommonStreams: true,
	}
	res, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	swept := res.Cells[0].Agg
	for _, m := range sweepMetrics {
		dm, sm := direct.Mean(m), swept.Mean(m)
		de, se := direct.StdErr(m), swept.StdErr(m)
		for i := range dm {
			if dm[i] != sm[i] || de[i] != se[i] {
				t.Fatalf("metric %v point %d: replicate %v±%v vs sweep %v±%v", m, i, dm[i], de[i], sm[i], se[i])
			}
		}
	}
}

// TestSweepGoldenFig3a asserts the figure registry reproduces the exact
// table a per-policy replication loop produces.
func TestSweepGoldenFig3a(t *testing.T) {
	p := Params{Horizon: 800, Reps: 3, Seed: 321, Points: 20}
	exp, ok := FindExperiment("fig3a")
	if !ok {
		t.Fatal("fig3a not registered")
	}
	table, err := exp.Run(p)
	if err != nil {
		t.Fatal(err)
	}

	// The pre-sweep implementation: one replication loop per factory,
	// same environment, same seed, curves in factory order.
	env, err := newSingleEnv(singleArms, sparseP, p.Seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := figureConfig(p)
	factories, names := fig3Factories()
	var want []Curve
	for fi, factory := range factories {
		agg := manualReplicate(t, cfg, p.Reps, p.Seed, func(pol, run *rng.RNG) (*Series, error) {
			return play(NewSingleRun(env, bandit.SSO, factory(pol), cfg, run))
		})
		want = append(want, Curve{Name: names[fi], Mean: agg.Mean(AvgPseudo), StdErr: agg.StdErr(AvgPseudo)})
	}

	if len(table.Curves) != len(want) {
		t.Fatalf("curve count %d, want %d", len(table.Curves), len(want))
	}
	for ci, w := range want {
		got := table.Curves[ci]
		if got.Name != w.Name {
			t.Fatalf("curve %d name %q, want %q", ci, got.Name, w.Name)
		}
		for i := range w.Mean {
			if got.Mean[i] != w.Mean[i] || got.StdErr[i] != w.StdErr[i] {
				t.Fatalf("curve %q point %d: sweep %v±%v vs legacy loop %v±%v",
					w.Name, i, got.Mean[i], got.StdErr[i], w.Mean[i], w.StdErr[i])
			}
		}
	}
}

func TestSweepProgressEvents(t *testing.T) {
	var events []Progress
	sw := Sweep{
		Envs: []EnvSpec{GnpBernoulliEnv("e", bandit.SSO, 6, 0, 0.5)},
		Policies: []PolicySpec{
			{Name: "MOSS", Single: func(*rng.RNG) bandit.SinglePolicy { return policy.NewMOSS() }},
		},
		Config: Config{Horizon: 50}, Reps: 4, Seed: 5, Workers: 3,
		Progress: func(p Progress) { events = append(events, p) },
	}
	if _, err := sw.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(events) != 4 {
		t.Fatalf("got %d progress events, want 4", len(events))
	}
	for i, e := range events {
		if e.Rep != i || e.Done != i+1 || e.Total != 4 || e.Cell != "e/MOSS" {
			t.Fatalf("event %d out of order: %+v", i, e)
		}
	}
}

// TestProgressCellIdentity asserts that progress events carry the cell's
// grid axis values (not just indices), so shard status and -progress
// output stay human-readable, and that Label falls back to a positional
// name for unnamed cells.
func TestProgressCellIdentity(t *testing.T) {
	var events []Progress
	sw := gridSweep(2)
	sw.Configs = []ConfigSpec{{Name: "n=400", Config: sw.Config}}
	sw.Reps = 2
	sw.Progress = func(p Progress) { events = append(events, p) }
	if _, err := sw.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, e := range events {
		if e.Env == "" || e.Policy == "" || e.Config != "n=400" {
			t.Fatalf("event lacks axis identity: %+v", e)
		}
		wantCell := e.Env + "/" + e.Policy + "/" + e.Config
		if e.Cell != wantCell || e.Label() != wantCell {
			t.Fatalf("event cell %q label %q, want %q", e.Cell, e.Label(), wantCell)
		}
		seen[e.Cell] = true
	}
	if len(seen) != 9 {
		t.Fatalf("progress covered %d cells, want 9", len(seen))
	}
	if got := (Progress{CellIndex: 3}).Label(); got != "cell 3" {
		t.Fatalf("unnamed cell label = %q", got)
	}
}

func TestSweepValidation(t *testing.T) {
	env := testEnv(t, 5, 0.3, 61)
	base := Sweep{
		Envs: []EnvSpec{FixedEnv("e", bandit.SSO, env, nil)},
		Policies: []PolicySpec{
			{Name: "MOSS", Single: func(*rng.RNG) bandit.SinglePolicy { return policy.NewMOSS() }},
		},
		Config: Config{Horizon: 10}, Reps: 1, Seed: 1,
	}
	noEnvs := base
	noEnvs.Envs = nil
	noPols := base
	noPols.Policies = nil
	noReps := base
	noReps.Reps = 0
	mismatched := base
	mismatched.Envs = []EnvSpec{{Name: "combo", Scenario: bandit.CSO, Env: env}}
	wrongFactory := base
	wrongFactory.Policies = []PolicySpec{{Name: "combo-only", Combo: func(*rng.RNG) bandit.ComboPolicy { return core.NewDFLCSO() }}}
	for name, sw := range map[string]Sweep{
		"no envs": noEnvs, "no policies": noPols, "no reps": noReps,
		"combo env without set": mismatched, "single env with combo-only policy": wrongFactory,
	} {
		if _, err := sw.Run(context.Background()); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestSweepExportRoundTrip(t *testing.T) {
	res := runGrid(t, 2)

	var jsonBuf bytes.Buffer
	if err := WriteSweepJSON(&jsonBuf, res); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(jsonBuf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	cells, ok := doc["cells"].([]any)
	if !ok || len(cells) != 9 {
		t.Fatalf("JSON cells = %v", doc["cells"])
	}

	var csvBuf bytes.Buffer
	if err := WriteSweepCSV(&csvBuf, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	wantRows := 1 + 9*len(res.Cells[0].Agg.T)
	if len(lines) != wantRows {
		t.Fatalf("CSV has %d rows, want %d", len(lines), wantRows)
	}
	if !strings.HasPrefix(lines[0], "cell,env,policy,config,scenario,reps,t,cum_pseudo_mean") {
		t.Fatalf("CSV header = %q", lines[0])
	}

	summary := SweepSummary(res, AvgPseudo)
	if !strings.Contains(summary, "p=0.6/Thompson") {
		t.Fatalf("summary missing cells:\n%s", summary)
	}
}

// replicate runs one policy on one environment axis as a one-cell
// CommonStreams sweep — the shape of every paper figure and example.
func replicate(env EnvSpec, pol PolicySpec, cfg Config, reps int, seed uint64, workers int) (*Aggregate, error) {
	sw := Sweep{Envs: []EnvSpec{env}, Policies: []PolicySpec{pol}, Config: cfg,
		Reps: reps, Seed: seed, Workers: workers, CommonStreams: true}
	res, err := sw.Run(context.Background())
	if err != nil {
		return nil, err
	}
	return res.Cells[0].Agg, nil
}

// manualReplicate is the reference a CommonStreams cell must match bit for
// bit: replication rep builds its policy from rng.New(seed).Split(rep+1)
// .Split(0) and runs on .Split(1), and series fold in replication order.
func manualReplicate(t *testing.T, cfg Config, reps int, seed uint64, run func(pol, run *rng.RNG) (*Series, error)) *Aggregate {
	t.Helper()
	agg := newAggregate("", cfg.checkpoints())
	for rep := 0; rep < reps; rep++ {
		stream := rng.New(seed).Split(uint64(rep) + 1)
		s, err := run(stream.Split(0), stream.Split(1))
		if err != nil {
			t.Fatal(err)
		}
		if err := agg.add(s); err != nil {
			t.Fatal(err)
		}
	}
	return agg
}
