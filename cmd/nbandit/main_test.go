package main

import (
	"testing"

	"netbandit/internal/bandit"
	"netbandit/internal/rng"
	"netbandit/internal/sim"
)

func TestSingleFactoryResolution(t *testing.T) {
	r := rng.New(1)
	tests := []struct {
		name string
		scen bandit.Scenario
		want string
	}{
		{"dfl", bandit.SSO, "DFL-SSO"},
		{"dfl", bandit.SSR, "DFL-SSR"},
		{"dfl-hop", bandit.SSO, "DFL-SSO-hop"},
		{"dfl-stream", bandit.SSR, "DFL-SSR-stream"},
		{"moss", bandit.SSO, "MOSS"},
		{"ucb1", bandit.SSO, "UCB1"},
		{"ucbn", bandit.SSO, "UCB-N"},
		{"ucbmaxn", bandit.SSO, "UCB-MaxN"},
		{"thompson", bandit.SSO, "Thompson"},
		{"random", bandit.SSO, "random"},
	}
	for _, tc := range tests {
		spec, err := sim.NewPolicySpec(tc.name, tc.scen)
		if err != nil {
			t.Fatalf("%s/%v: %v", tc.name, tc.scen, err)
		}
		if got := spec.Single(r).Name(); got != tc.want {
			t.Errorf("%s/%v resolved to %q, want %q", tc.name, tc.scen, got, tc.want)
		}
	}
	if _, err := sim.NewPolicySpec("bogus", bandit.SSO); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestComboFactoryResolution(t *testing.T) {
	r := rng.New(2)
	tests := []struct {
		name string
		scen bandit.Scenario
		want string
	}{
		{"dfl", bandit.CSO, "DFL-CSO"},
		{"dfl", bandit.CSR, "DFL-CSR"},
		{"cucb", bandit.CSO, "CUCB-direct"},
		{"cucb", bandit.CSR, "CUCB-closure"},
		{"random", bandit.CSO, "random"},
	}
	for _, tc := range tests {
		spec, err := sim.NewPolicySpec(tc.name, tc.scen)
		if err != nil {
			t.Fatalf("%s/%v: %v", tc.name, tc.scen, err)
		}
		if got := spec.Combo(r).Name(); got != tc.want {
			t.Errorf("%s/%v resolved to %q, want %q", tc.name, tc.scen, got, tc.want)
		}
	}
	if _, err := sim.NewPolicySpec("bogus", bandit.CSO); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestParseMetric(t *testing.T) {
	for name, want := range map[string]sim.Metric{
		"cum-pseudo":   sim.CumPseudo,
		"cum-realized": sim.CumRealized,
		"avg-pseudo":   sim.AvgPseudo,
		"avg-realized": sim.AvgRealized,
	} {
		got, err := parseMetric(name)
		if err != nil || got != want {
			t.Errorf("parseMetric(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := parseMetric("nope"); err == nil {
		t.Fatal("bad metric accepted")
	}
}
