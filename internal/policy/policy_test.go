package policy

import (
	"strings"
	"testing"

	"netbandit/internal/bandit"
	"netbandit/internal/graphs"
	"netbandit/internal/rng"
	"netbandit/internal/strategy"
)

// driveSingle runs a single-play policy on Bernoulli arms with side
// observations over g, returning pull counts.
func driveSingle(t *testing.T, pol bandit.SinglePolicy, g *graphs.Graph, means []float64, n, horizon int, seed uint64) []int {
	t.Helper()
	k := len(means)
	if g == nil {
		g = graphs.Empty(k)
	}
	pol.Reset(bandit.Meta{K: k, Horizon: horizon, Graph: g, Scenario: bandit.SSO})
	r := rng.New(seed)
	pulls := make([]int, k)
	var obs []bandit.Observation
	for round := 1; round <= n; round++ {
		i := pol.Select(round, nil)
		if i < 0 || i >= k {
			t.Fatalf("round %d: invalid arm %d from %s", round, i, pol.Name())
		}
		pulls[i]++
		obs = obs[:0]
		for _, j := range g.ClosedNeighborhood(i) {
			v := 0.0
			if r.Bernoulli(means[j]) {
				v = 1
			}
			obs = append(obs, bandit.Observation{Arm: j, Value: v})
		}
		pol.Update(round, i, obs)
	}
	return pulls
}

// easyMeans is a 5-arm instance with a clear winner at index 3.
var easyMeans = []float64{0.2, 0.3, 0.25, 0.9, 0.15}

func TestIndexPoliciesConcentrate(t *testing.T) {
	tests := []struct {
		name    string
		pol     bandit.SinglePolicy
		minBest int
	}{
		{"MOSS", NewMOSS(), 800},
		{"UCB1", NewUCB1(), 700},
		{"UCB1-side", &UCB1{UseSideObs: true}, 700},
		{"UCB-N", NewUCBN(), 700},
		{"UCB-MaxN", NewUCBMaxN(), 700},
		{"Thompson", NewThompson(rng.New(100)), 800},
		{"eps-greedy", newEpsilonGreedy(0.05, rng.New(101)), 700},
		{"decaying eps", NewDecayingEpsilonGreedy(1, rng.New(102)), 600},
		{"FTL-side", &FTL{UseSideObs: true}, 500},
	}
	g := graphs.Gnp(5, 0.4, rng.New(55))
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			pulls := driveSingle(t, tc.pol, g, easyMeans, 1000, 1000, 56)
			if pulls[3] < tc.minBest {
				t.Fatalf("%s pulled best arm %d/1000 times (want >= %d): %v",
					tc.pol.Name(), pulls[3], tc.minBest, pulls)
			}
		})
	}
}

func TestAllArmsForcedOnce(t *testing.T) {
	// Index policies must try every arm at least once on an edgeless graph.
	policies := []bandit.SinglePolicy{
		NewMOSS(), NewUCB1(), NewUCBN(), NewUCBMaxN(), newFTL(),
	}
	for _, pol := range policies {
		pulls := driveSingle(t, pol, nil, easyMeans, 100, 100, 57)
		for i, c := range pulls {
			if c == 0 {
				t.Errorf("%s never pulled arm %d", pol.Name(), i)
			}
		}
	}
}

func TestEXP3ValidAndLearns(t *testing.T) {
	pol := NewEXP3(0.1, rng.New(58))
	pulls := driveSingle(t, pol, nil, easyMeans, 5000, 5000, 59)
	// EXP3 is slow, but after 5000 rounds the best arm must dominate.
	if pulls[3] < 1500 {
		t.Fatalf("EXP3 pulled best arm %d/5000 times: %v", pulls[3], pulls)
	}
}

func TestEXP3PanicsOnBadGamma(t *testing.T) {
	for _, gamma := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewEXP3(%v) did not panic", gamma)
				}
			}()
			NewEXP3(gamma, rng.New(1))
		}()
	}
}

func TestRandomUniform(t *testing.T) {
	pol := NewRandom(rng.New(60))
	pulls := driveSingle(t, pol, nil, easyMeans, 5000, 0, 61)
	for i, c := range pulls {
		if c < 800 || c > 1200 {
			t.Fatalf("random pulled arm %d %d/5000 times", i, c)
		}
	}
}

func TestMOSSIgnoresSideObservations(t *testing.T) {
	// Feed MOSS fabricated neighbour observations with sky-high values;
	// its estimate of an unpulled arm must stay untouched (count 0 forces
	// the +Inf index, so the arm is selected next).
	pol := NewMOSS()
	pol.Reset(bandit.Meta{K: 2, Horizon: 10})
	first := pol.Select(1, nil)
	obs := []bandit.Observation{
		{Arm: first, Value: 0},
		{Arm: 1 - first, Value: 1}, // side observation MOSS must ignore
	}
	pol.Update(1, first, obs)
	second := pol.Select(2, nil)
	if second != 1-first {
		t.Fatal("MOSS should still force-explore the unpulled arm")
	}
}

func TestUCBNUsesSideObservations(t *testing.T) {
	// UCB-N counts side observations, so after one pull on a complete
	// graph every arm is observed and no +Inf forcing remains.
	g := graphs.Complete(4)
	pol := NewUCBN()
	pol.Reset(bandit.Meta{K: 4, Graph: g})
	i := pol.Select(1, nil)
	var obs []bandit.Observation
	for j := 0; j < 4; j++ {
		v := 0.0
		if j == 2 {
			v = 1 // make arm 2 look best
		}
		obs = append(obs, bandit.Observation{Arm: j, Value: v})
	}
	pol.Update(1, i, obs)
	if got := pol.Select(2, nil); got != 2 {
		t.Fatalf("UCB-N ignored side observations: selected %d, want 2", got)
	}
}

func TestPolicyNameStrings(t *testing.T) {
	r := rng.New(1)
	tests := []struct {
		got  string
		want string
	}{
		{NewMOSS().Name(), "MOSS"},
		{NewUCB1().Name(), "UCB1"},
		{(&UCB1{UseSideObs: true}).Name(), "UCB1-side"},
		{NewUCBN().Name(), "UCB-N"},
		{NewUCBMaxN().Name(), "UCB-MaxN"},
		{NewThompson(r).Name(), "Thompson"},
		{newEpsilonGreedy(0.1, r).Name(), "eps-greedy(0.10)"},
		{NewDecayingEpsilonGreedy(2, r).Name(), "eps-greedy(decay=2.00)"},
		{NewEXP3(0.2, r).Name(), "EXP3(0.20)"},
		{NewRandom(r).Name(), "random"},
		{newFTL().Name(), "FTL"},
	}
	for _, tc := range tests {
		if tc.got != tc.want {
			t.Errorf("Name = %q, want %q", tc.got, tc.want)
		}
	}
}

// driveCombo runs a combinatorial policy with closure observations.
func driveCombo(t *testing.T, pol bandit.ComboPolicy, set *strategy.Set, means []float64, n int, seed uint64) []int {
	t.Helper()
	pol.Reset(bandit.ComboMeta{K: set.K(), Graph: set.Graph(), Strategies: set, Scenario: bandit.CSO})
	r := rng.New(seed)
	plays := make([]int, set.Len())
	var obs []bandit.Observation
	for round := 1; round <= n; round++ {
		x := pol.Select(round, nil)
		if x < 0 || x >= set.Len() {
			t.Fatalf("round %d: invalid strategy %d", round, x)
		}
		plays[x]++
		obs = obs[:0]
		for _, j := range set.Closure(x) {
			v := 0.0
			if r.Bernoulli(means[j]) {
				v = 1
			}
			obs = append(obs, bandit.Observation{Arm: j, Value: v})
		}
		pol.Update(round, x, obs)
	}
	return plays
}

func TestCUCBDirectConcentrates(t *testing.T) {
	g := graphs.Gnp(6, 0.4, rng.New(70))
	means := []float64{0.9, 0.8, 0.1, 0.1, 0.1, 0.1}
	set, err := strategy.TopM(6, 2, g)
	if err != nil {
		t.Fatal(err)
	}
	bestX, _ := set.BestDirect(means)
	plays := driveCombo(t, NewCUCB(Direct), set, means, 3000, 71)
	if plays[bestX] < 1800 {
		t.Fatalf("CUCB played best strategy %d/3000 times", plays[bestX])
	}
}

func TestCUCBClosureObjective(t *testing.T) {
	g := graphs.Star(6)
	means := []float64{0.3, 0.5, 0.5, 0.5, 0.5, 0.5}
	set, err := strategy.TopM(6, 2, g)
	if err != nil {
		t.Fatal(err)
	}
	pol := NewCUCB(Closure)
	if !strings.Contains(pol.Name(), "closure") {
		t.Fatalf("name = %q", pol.Name())
	}
	plays := driveCombo(t, pol, set, means, 2000, 72)
	// Any strategy containing the hub covers everything; those must
	// dominate the play counts.
	hubPlays := 0
	for x, c := range plays {
		for _, a := range set.Arms(x) {
			if a == 0 {
				hubPlays += c
				break
			}
		}
	}
	if hubPlays < 1500 {
		t.Fatalf("hub strategies played %d/2000 times", hubPlays)
	}
}

func TestComboRandomUniform(t *testing.T) {
	set, err := strategy.TopM(5, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	means := []float64{0.5, 0.5, 0.5, 0.5, 0.5}
	plays := driveCombo(t, NewComboRandom(rng.New(73)), set, means, 5000, 74)
	for x, c := range plays {
		if c < 300 || c > 700 {
			t.Fatalf("strategy %d played %d/5000 times", x, c)
		}
	}
}

func TestComboEXP3LearnsSlowly(t *testing.T) {
	g := graphs.Empty(5)
	means := []float64{0.95, 0.9, 0.05, 0.05, 0.05}
	set, err := strategy.TopM(5, 2, g)
	if err != nil {
		t.Fatal(err)
	}
	bestX, _ := set.BestDirect(means)
	plays := driveCombo(t, NewComboEXP3(0.1, rng.New(75)), set, means, 8000, 76)
	if plays[bestX] < 1000 {
		t.Fatalf("EXP3-F played best strategy %d/8000 times: %v", plays[bestX], plays)
	}
}

func TestComboEXP3PanicsOnBadGamma(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewComboEXP3(0) did not panic")
		}
	}()
	NewComboEXP3(0, rng.New(1))
}

func TestComboObjectiveString(t *testing.T) {
	if Direct.String() != "direct" || Closure.String() != "closure" {
		t.Fatal("objective strings wrong")
	}
	if ComboObjective(0).String() != "objective(0)" {
		t.Fatal("invalid objective string wrong")
	}
}
