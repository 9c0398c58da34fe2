package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
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
		spec, err := NewPolicySpec(tc.policy, tc.scen)
		if err != nil {
			t.Fatal(err)
		}
		newRun := func(obs trace.Observer) *Run {
			cfg := Config{Horizon: 300, AnnounceHorizon: true, Observer: obs}
			r := rng.New(77)
			var run *Run
			var err error
			if tc.scen.Combinatorial() {
				run, err = NewComboRun(tc.env, sets[tc.env], tc.scen, spec.Combo(r.Split(3)), cfg, r.Split(4), caches[tc.env])
			} else {
				run, err = NewSingleRun(tc.env, tc.scen, spec.Single(r.Split(3)), cfg, r.Split(4))
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

		if stepDigest != tc.want || applyDigest != tc.want {
			t.Errorf("%s: step digest %s, decide+apply digest %s, want %s", name, stepDigest, applyDigest, tc.want)
		}
	}
}
