package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"slices"
	"testing"

	"netbandit/internal/bandit"
	"netbandit/internal/rng"
	"netbandit/internal/strategy"
	"netbandit/internal/trace"
)

// The runner's bit-level output is pinned here for every scenario over
// both reward models, driven both by Step and by Decide+ApplyFeedback
// echoing the environment's own samples. The digest covers the
// Float64bits of all four regret curves and of every round's
// Chosen/ChosenMean/Realized, so any refactor of the round loop that
// reassociates a sum, moves an optimum, or reorders a draw trips it.

// digestObserver folds each round's accounting into a hash.
type digestObserver struct{ h hash.Hash }

func (d digestObserver) ObserveRound(e trace.Event) {
	var buf [24]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(e.Chosen))
	binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(e.ChosenMean))
	binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(e.Realized))
	d.h.Write(buf[:])
}

// digestSeries appends the four curves' bits to the round hash and
// returns the truncated hex digest.
func digestSeries(h hash.Hash, s *Series) string {
	var buf [8]byte
	for _, curve := range [][]float64{s.CumPseudo, s.CumRealized, s.AvgPseudo, s.AvgRealized} {
		for _, v := range curve {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func TestRunnerDigests(t *testing.T) {
	const k, m = 10, 2
	fixed := testEnv(t, k, 0.3, 61)
	ctx := ctxTestEnv(t, k, 3, 0.3, 62)
	sets := map[bandit.RewardModel]*strategy.Set{}
	caches := map[bandit.RewardModel]*ComboCache{}
	for _, env := range []bandit.RewardModel{fixed, ctx} {
		set, err := strategy.TopM(k, m, env.Graph())
		if err != nil {
			t.Fatal(err)
		}
		sets[env], caches[env] = set, NewComboCache(env, set)
	}
	cases := []struct {
		env    bandit.RewardModel
		scen   bandit.Scenario
		policy string
		want   string
	}{
		{fixed, bandit.SSO, "dfl", "ba6fe919165a6d9d"},
		{fixed, bandit.SSO, "random", "3f8036570f61bec0"},
		{fixed, bandit.SSR, "dfl", "cedaa09756f744d2"},
		{fixed, bandit.SSR, "random", "8db1b755f7d93ec1"},
		{fixed, bandit.CSO, "dfl", "dbc4273e0095f77d"},
		{fixed, bandit.CSO, "random", "f2b279a493a36e17"},
		{fixed, bandit.CSR, "dfl", "5a6a180b89d1067b"},
		{fixed, bandit.CSR, "random", "3df6f82bff9380ea"},
		{ctx, bandit.SSO, "linucb", "2a9ef3cece35ccac"},
		{ctx, bandit.SSO, "random", "4e9181c0c4717d61"},
		{ctx, bandit.SSR, "linucb", "6558e92249eca002"},
		{ctx, bandit.SSR, "random", "30d40c0ed417fe32"},
		{ctx, bandit.CSO, "linucb", "7bb7b5ce7b688cb7"},
		{ctx, bandit.CSO, "random", "770e8e78ae7510bb"},
		{ctx, bandit.CSR, "linucb", "b9a6cb199cec3f9c"},
		{ctx, bandit.CSR, "random", "23ac98c7af42b11f"},
	}
	for _, tc := range cases {
		name := tc.scen.String() + "/" + tc.policy
		if tc.env.D() > 0 {
			name = "ctx/" + name
		}
		checkDigest(t, name, tc.env, sets[tc.env], caches[tc.env], tc.scen, tc.policy, tc.want)
	}
}

// checkDigest runs one cell twice, by Step and by Decide+ApplyFeedback,
// and compares both digests with want. set and cache are ignored for
// single-play scenarios.
func checkDigest(t *testing.T, name string, env bandit.RewardModel, set *strategy.Set, cache *ComboCache, scen bandit.Scenario, policy, want string) {
	t.Helper()
	spec, err := NewPolicySpec(policy, scen)
	if err != nil {
		t.Fatal(err)
	}
	newRun := func(obs trace.Observer) *Run {
		cfg := Config{Horizon: 300, AnnounceHorizon: true, Observer: obs}
		r := rng.New(77)
		var run *Run
		var err error
		if scen.Combinatorial() {
			run, err = NewComboRun(env, set, scen, spec.Combo(r.Split(3)), cfg, r.Split(4), cache)
		} else {
			run, err = NewSingleRun(env, scen, spec.Single(r.Split(3)), cfg, r.Split(4))
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return run
	}

	stepHash := sha256.New()
	stepRun := newRun(digestObserver{stepHash})
	if _, err := stepRun.Run(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	stepDigest := digestSeries(stepHash, stepRun.Series())

	// The echo run closes each round with the values its lockstep twin
	// sampled, as a decision-service client would post them back.
	applyHash := sha256.New()
	autoRun, applyRun := newRun(nil), newRun(digestObserver{applyHash})
	for !autoRun.Done() {
		if _, _, err := autoRun.Decide(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sampled, err := autoRun.AutoFeedback()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, _, err := applyRun.Decide(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		values := make([]float64, len(sampled))
		for j, o := range sampled {
			values[j] = o.Value
		}
		if err := applyRun.ApplyFeedback(values); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	applyDigest := digestSeries(applyHash, applyRun.Series())

	if stepDigest != want || applyDigest != want {
		t.Errorf("%s: step digest %s, decide+apply digest %s, want %s", name, stepDigest, applyDigest, want)
	}
}

// TestRunnerDigestsMultiWord pins DFL-CSO and CUCB past K = 64, where a
// strategy's arm and closure sets no longer fit one 64-bit word and
// SG(F, L) comes from the large-family kernel instead of the one-word
// pair scan. The cases are the sliding-window family over a sparse
// K = 1000 relation graph and a random explicit family at K = 200 with
// up to four arms per strategy.
func TestRunnerDigestsMultiWord(t *testing.T) {
	sparse, err := bandit.SparseBernoulliEnv(1000, 8, 63)
	if err != nil {
		t.Fatal(err)
	}
	windows, err := bandit.WindowStrategies(1000, 2, sparse.Graph())
	if err != nil {
		t.Fatal(err)
	}
	const k = 200
	dense := testEnv(t, k, 0.1, 64)
	random, err := strategy.NewExplicit(k, randomStrategies(k, 400, 4, rng.New(65)), dense.Graph())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		env    bandit.RewardModel
		set    *strategy.Set
		policy string
		want   string
	}{
		{"window1000/dfl", sparse, windows, "dfl", "2aa45d147ce9b33c"},
		{"window1000/cucb", sparse, windows, "cucb", "554a0dec03246d78"},
		{"random200/dfl", dense, random, "dfl", "cbbfec162c4bc391"},
	}
	for _, tc := range cases {
		checkDigest(t, tc.name, tc.env, tc.set, NewComboCache(tc.env, tc.set), bandit.CSO, tc.policy, tc.want)
	}
}

// randomStrategies draws count distinct strategies of 1..maxSize arms
// over k arms, deterministically in r. maxSize must be at most 4.
func randomStrategies(k, count, maxSize int, r *rng.RNG) [][]int {
	seen := make(map[[4]int]bool, count)
	var all [][]int
	for len(all) < count {
		s := make([]int, 0, 1+r.Intn(maxSize))
		for len(s) < cap(s) {
			if a := r.Intn(k); !slices.Contains(s, a) {
				s = append(s, a)
			}
		}
		slices.Sort(s)
		key := [4]int{-1, -1, -1, -1}
		copy(key[:], s)
		if seen[key] {
			continue
		}
		seen[key] = true
		all = append(all, s)
	}
	return all
}
