// Ad placement: the paper's introductory combinatorial motivation. An
// advertiser owns K candidate advertisements but can show only M per page
// view. Ads are linked in a relation graph when they target similar
// audiences: showing an ad also reveals (through panel feedback) how its
// similar ads would have performed — combinatorial play with side
// observation (CSO).
//
// The example runs DFL-CSO against the CUCB baseline and the uniform
// random placer, and prints which ad pair each policy converges to.
package main

import (
	"context"
	"fmt"
	"log"

	"netbandit"
)

func main() {
	const (
		ads     = 16
		slots   = 2
		horizon = 8000
		reps    = 8
		seed    = 7
	)

	r := netbandit.NewRNG(seed)
	// Audience-similarity graph: geometric-style clusters come from a
	// moderately dense random graph at this scale.
	graph := netbandit.GnpGraph(ads, 0.35, r)

	// Click-through rates: two standout ads (3 and 11) plus background.
	ctr := make([]float64, ads)
	for i := range ctr {
		ctr[i] = 0.05 + 0.4*float64(i%5)/5
	}
	ctr[3], ctr[11] = 0.82, 0.78

	env, err := netbandit.NewBernoulliEnv(graph, ctr)
	if err != nil {
		log.Fatal(err)
	}
	set, err := netbandit.TopM(ads, slots, graph)
	if err != nil {
		log.Fatal(err)
	}

	sweep := netbandit.Sweep{
		Envs: []netbandit.EnvSpec{netbandit.FixedEnv("ads", netbandit.CSO, env, set)},
		Policies: []netbandit.PolicySpec{
			{Name: "DFL-CSO", Combo: func(*netbandit.RNG) netbandit.ComboPolicy { return netbandit.NewDFLCSO() }},
			{Name: "CUCB", Combo: func(*netbandit.RNG) netbandit.ComboPolicy { return netbandit.NewCUCBDirect() }},
			{Name: "random", Combo: func(rr *netbandit.RNG) netbandit.ComboPolicy { return netbandit.NewComboRandom(rr) }},
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

	fmt.Printf("ad placement: %d ads, %d slots per page, |F| = %d placements, n=%d\n\n",
		ads, slots, set.Len(), horizon)
	fmt.Printf("%-10s %20s %20s\n", "policy", "final cum. regret", "avg regret / page")
	for _, cell := range res.Cells {
		fmt.Printf("%-10s %20.1f %20.4f\n", cell.Policy,
			cell.Agg.Final(netbandit.CumPseudo), cell.Agg.Final(netbandit.AvgPseudo))
	}

	bestX, bestVal := set.BestDirect(ctr)
	fmt.Printf("\noptimal placement: ads %v (expected %.2f clicks/page)\n",
		set.Arms(bestX), bestVal)
}
