package sim

import (
	"math"
	"testing"

	"netbandit/internal/bandit"
	"netbandit/internal/core"
	"netbandit/internal/rng"
	"netbandit/internal/strategy"
	"netbandit/internal/trace"
)

// mustTopM builds a top-M family over the environment's graph.
func mustTopM(t *testing.T, k, m int, env *bandit.Env) *strategy.Set {
	t.Helper()
	set, err := strategy.TopM(k, m, env.Graph())
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestRunnerEmitsTraceEvents(t *testing.T) {
	env := testEnv(t, 8, 0.4, 21)
	rec := &trace.Recorder{}
	cfg := Config{Horizon: 100, Observer: rec}
	s, err := play(NewSingleRun(env, bandit.SSO, core.NewDFLSSO(), cfg, rng.New(22)))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Total() != 100 {
		t.Fatalf("recorded %d events, want 100", rec.Total())
	}
	events := rec.Events()
	// Round numbers are 1..100 in order.
	for i, e := range events {
		if e.T != i+1 {
			t.Fatalf("event %d has round %d", i, e.T)
		}
		if len(e.Observations) == 0 {
			t.Fatalf("round %d has no observations", e.T)
		}
		// The chosen arm is always among the observations in SSO.
		found := false
		for _, o := range e.Observations {
			if o.Arm == e.Chosen {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("round %d: chosen arm %d not observed", e.T, e.Chosen)
		}
	}
	// Cross-check: summing per-event pseudo gaps reproduces the series'
	// cumulative pseudo-regret.
	_, opt := env.BestArm()
	var cum float64
	for _, e := range events {
		cum += opt - e.ChosenMean
	}
	if math.Abs(cum-s.CumPseudo[len(s.CumPseudo)-1]) > 1e-9 {
		t.Fatalf("trace regret %v != series regret %v", cum, s.CumPseudo[len(s.CumPseudo)-1])
	}
}

func TestComboRunnerEmitsTraceEvents(t *testing.T) {
	env := testEnv(t, 6, 0.4, 23)
	set := mustTopM(t, 6, 2, env)
	rec := &trace.Recorder{Capacity: 10}
	cfg := Config{Horizon: 50, Observer: rec}
	if _, err := play(NewComboRun(env, set, bandit.CSO, core.NewDFLCSO(), cfg, rng.New(24), nil)); err != nil {
		t.Fatal(err)
	}
	if rec.Total() != 50 || len(rec.Events()) != 10 {
		t.Fatalf("total=%d retained=%d", rec.Total(), len(rec.Events()))
	}
}
