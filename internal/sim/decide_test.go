package sim

import (
	"reflect"
	"testing"

	"netbandit/internal/bandit"
	"netbandit/internal/core"
	"netbandit/internal/policy"
	"netbandit/internal/rng"
	"netbandit/internal/strategy"
)

// The decide/feedback seam must be a pure decomposition of Step: a run
// driven by Decide+AutoFeedback, a run driven by Decide+ApplyFeedback
// with the same values, and a run driven by Step must produce the same
// action sequence and bit-identical regret curves.

func seriesEqual(t *testing.T, a, b *Series, label string) {
	t.Helper()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: series differ\n%+v\n%+v", label, a, b)
	}
}

func TestSingleDecideFeedbackEquivalence(t *testing.T) {
	env := testEnv(t, 12, 0.3, 7)
	cfg := Config{Horizon: 400}
	factories := map[string]SingleFactory{
		"dfl-sso":  func(*rng.RNG) bandit.SinglePolicy { return core.NewDFLSSO() },
		"moss":     func(*rng.RNG) bandit.SinglePolicy { return policy.NewMOSS() },
		"thompson": func(r *rng.RNG) bandit.SinglePolicy { return policy.NewThompson(r) },
	}
	for name, factory := range factories {
		for _, scen := range []bandit.Scenario{bandit.SSO, bandit.SSR} {
			newRun := func() *Run {
				r := rng.New(99)
				run, err := NewSingleRun(env, scen, factory(r.Split(3)), cfg, r.Split(4))
				if err != nil {
					t.Fatal(err)
				}
				return run
			}
			stepRun := newRun()
			if _, err := stepRun.Run(); err != nil {
				t.Fatal(err)
			}

			autoRun := newRun()
			applyRun := newRun()
			var autoActions, applyActions []int
			for !autoRun.Done() {
				ta, arm, err := autoRun.Decide()
				if err != nil {
					t.Fatal(err)
				}
				// Decide is idempotent while the round is open.
				tb, arm2, err := autoRun.Decide()
				if err != nil || tb != ta || arm2 != arm {
					t.Fatalf("re-Decide: got (%d,%d,%v), want (%d,%d)", tb, arm2, err, ta, arm)
				}
				autoActions = append(autoActions, arm)
				obs, err := autoRun.AutoFeedback()
				if err != nil {
					t.Fatal(err)
				}

				// Drive the third run with the sampled values as if a client
				// had posted them back.
				_, arm3, err := applyRun.Decide()
				if err != nil {
					t.Fatal(err)
				}
				applyActions = append(applyActions, arm3)
				closure, err := applyRun.PendingClosure()
				if err != nil {
					t.Fatal(err)
				}
				values := make([]float64, len(closure))
				for j, o := range obs {
					if o.Arm != closure[j] {
						t.Fatalf("closure order mismatch: obs arm %d at %d, closure %d", o.Arm, j, closure[j])
					}
					values[j] = o.Value
				}
				if err := applyRun.ApplyFeedback(values); err != nil {
					t.Fatal(err)
				}
			}
			seriesEqual(t, stepRun.Series(), autoRun.Series(), name+"/"+scen.String()+" auto")
			seriesEqual(t, stepRun.Series(), applyRun.Series(), name+"/"+scen.String()+" apply")
			if !reflect.DeepEqual(autoActions, applyActions) {
				t.Fatalf("%s/%s: action sequences diverge", name, scen)
			}
		}
	}
}

func TestComboDecideFeedbackEquivalence(t *testing.T) {
	env := testEnv(t, 10, 0.4, 3)
	set, err := strategy.TopM(10, 2, env.Graph())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Horizon: 300}
	factories := map[string]ComboFactory{
		"dfl":    func(*rng.RNG) bandit.ComboPolicy { return core.NewDFLCSO() },
		"cucb":   func(*rng.RNG) bandit.ComboPolicy { return policy.NewCUCB(policy.Direct) },
		"random": func(r *rng.RNG) bandit.ComboPolicy { return policy.NewComboRandom(r) },
	}
	for name, factory := range factories {
		for _, scen := range []bandit.Scenario{bandit.CSO, bandit.CSR} {
			newRun := func() *Run {
				r := rng.New(123)
				run, err := NewComboRun(env, set, scen, factory(r.Split(3)), cfg, r.Split(4), nil)
				if err != nil {
					t.Fatal(err)
				}
				return run
			}
			stepRun := newRun()
			if _, err := stepRun.Run(); err != nil {
				t.Fatal(err)
			}

			autoRun := newRun()
			applyRun := newRun()
			for !autoRun.Done() {
				_, x, err := autoRun.Decide()
				if err != nil {
					t.Fatal(err)
				}
				obs, err := autoRun.AutoFeedback()
				if err != nil {
					t.Fatal(err)
				}
				_, x2, err := applyRun.Decide()
				if err != nil {
					t.Fatal(err)
				}
				if x2 != x {
					t.Fatalf("%s/%s: actions diverge: %d vs %d", name, scen, x2, x)
				}
				values := make([]float64, len(obs))
				for j, o := range obs {
					values[j] = o.Value
				}
				if err := applyRun.ApplyFeedback(values); err != nil {
					t.Fatal(err)
				}
			}
			seriesEqual(t, stepRun.Series(), autoRun.Series(), name+"/"+scen.String()+" auto")
			seriesEqual(t, stepRun.Series(), applyRun.Series(), name+"/"+scen.String()+" apply")
		}
	}
}

func TestDecideFeedbackErrors(t *testing.T) {
	env := testEnv(t, 8, 0.3, 5)
	r := rng.New(4)
	run, err := NewSingleRun(env, bandit.SSO, core.NewDFLSSO(), Config{Horizon: 2}, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := run.ApplyFeedback(nil); err == nil {
		t.Fatal("feedback with no open round must error")
	}
	if _, err := run.AutoFeedback(); err == nil {
		t.Fatal("auto-feedback with no open round must error")
	}
	if _, _, ok := run.Pending(); ok {
		t.Fatal("fresh run must have no pending round")
	}
	tr, arm, err := run.Decide()
	if err != nil || tr != 1 {
		t.Fatalf("Decide: t=%d err=%v", tr, err)
	}
	if run.Round() != 0 {
		t.Fatalf("open round already counted: Round()=%d", run.Round())
	}
	closure, err := run.PendingClosure()
	if err != nil {
		t.Fatal(err)
	}
	if closure[run.env.SelfPos(arm)] != arm {
		t.Fatalf("closure %v does not carry chosen arm %d at self position", closure, arm)
	}
	if err := run.ApplyFeedback(make([]float64, len(closure)+1)); err == nil {
		t.Fatal("wrong-length feedback must error")
	}
	if err := run.ApplyFeedback(make([]float64, len(closure))); err != nil {
		t.Fatal(err)
	}
	if run.Round() != 1 {
		t.Fatalf("Round()=%d after one closed round", run.Round())
	}
	if err := run.Step(); err != nil {
		t.Fatal(err)
	}
	if !run.Done() {
		t.Fatal("run must be done after horizon rounds")
	}
	if _, _, err := run.Decide(); err == nil {
		t.Fatal("Decide past the horizon must error")
	}
}
