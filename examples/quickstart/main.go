// Quickstart: the smallest end-to-end use of the public API — build a
// networked bandit environment, run DFL-SSO against MOSS for a few
// thousand rounds, and print the final regrets. This is the Fig. 3
// comparison in miniature.
package main

import (
	"context"
	"fmt"
	"log"

	"netbandit"
)

func main() {
	const (
		arms    = 50
		edgeP   = 0.3
		horizon = 5000
		reps    = 10
		seed    = 1
	)

	r := netbandit.NewRNG(seed)
	graph := netbandit.GnpGraph(arms, edgeP, r)
	env, err := netbandit.NewRandomBernoulliEnv(graph, arms, r)
	if err != nil {
		log.Fatal(err)
	}

	// One environment × two policies, replicated on common random streams
	// so both policies face the same reward draws.
	sweep := netbandit.Sweep{
		Envs: []netbandit.EnvSpec{netbandit.FixedEnv("gnp", netbandit.SSO, env, nil)},
		Policies: []netbandit.PolicySpec{
			{Name: "DFL-SSO", Single: func(*netbandit.RNG) netbandit.SinglePolicy { return netbandit.NewDFLSSO() }},
			{Name: "MOSS", Single: func(*netbandit.RNG) netbandit.SinglePolicy { return netbandit.NewMOSS() }},
		},
		Config:        netbandit.Config{Horizon: horizon, AnnounceHorizon: true},
		Reps:          reps,
		Seed:          seed,
		CommonStreams: true,
	}
	res, err := sweep.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	dfl, moss := res.Cells[0].Agg, res.Cells[1].Agg

	fmt.Printf("networked bandit: %d Bernoulli arms, G(%d, %.1f) relation graph, n=%d, %d reps\n\n",
		arms, arms, edgeP, horizon, reps)
	fmt.Printf("%-10s %22s %22s\n", "policy", "final cum. regret", "final regret / round")
	fmt.Printf("%-10s %22.1f %22.4f\n", "MOSS", moss.Final(netbandit.CumPseudo), moss.Final(netbandit.AvgPseudo))
	fmt.Printf("%-10s %22.1f %22.4f\n", "DFL-SSO", dfl.Final(netbandit.CumPseudo), dfl.Final(netbandit.AvgPseudo))
	fmt.Printf("\nside observations cut regret by %.1fx\n",
		moss.Final(netbandit.CumPseudo)/dfl.Final(netbandit.CumPseudo))
}
