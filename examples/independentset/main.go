// Independent-set strategies: the paper's Fig. 2 worked example, scaled
// up. The feasible family is the set of independent sets of the relation
// graph (e.g. non-conflicting promotions that cannot run together), and
// the player collects side rewards from the whole closure — combinatorial
// play with side reward (CSR).
//
// The example prints the strategy relation graph statistics for the exact
// 4-arm paper instance, then runs DFL-CSR on a 14-arm instance and reports
// convergence to the optimal independent set.
package main

import (
	"context"
	"fmt"
	"log"

	"netbandit"
)

func main() {
	paperInstance()
	scaledInstance()
}

// paperInstance reproduces Section IV's example exactly: path 1-2-3-4,
// seven feasible strategies.
func paperInstance() {
	g := netbandit.NewGraph(4)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 3)
	set, err := netbandit.IndependentSets(g, 2)
	if err != nil {
		log.Fatal(err)
	}
	sg := netbandit.BuildStrategyGraph(set)
	fmt.Printf("paper Fig. 2 instance: |F| = %d strategies, SG has %d edges\n",
		set.Len(), sg.M())
	for x := 0; x < set.Len(); x++ {
		fmt.Printf("  s%d = %v  closure %v  SG-degree %d\n",
			x+1, set.Arms(x), set.Closure(x), sg.Degree(x))
	}
	fmt.Println()
}

// scaledInstance learns the best independent set of a 14-arm graph under
// side rewards.
func scaledInstance() {
	const (
		arms    = 14
		horizon = 6000
		reps    = 6
		seed    = 3
	)
	r := netbandit.NewRNG(seed)
	graph := netbandit.GnpGraph(arms, 0.25, r)
	env, err := netbandit.NewRandomBernoulliEnv(graph, arms, r)
	if err != nil {
		log.Fatal(err)
	}
	set, err := netbandit.IndependentSets(graph, 2)
	if err != nil {
		log.Fatal(err)
	}

	sweep := netbandit.Sweep{
		Envs: []netbandit.EnvSpec{netbandit.FixedEnv("independent-sets", netbandit.CSR, env, set)},
		Policies: []netbandit.PolicySpec{
			{Name: "DFL-CSR", Combo: func(*netbandit.RNG) netbandit.ComboPolicy { return netbandit.NewDFLCSR() }},
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
	agg := res.Cells[0].Agg

	fmt.Printf("scaled instance: %d arms, |F| = %d independent sets, n=%d\n",
		arms, set.Len(), horizon)
	fmt.Printf("  DFL-CSR final cum. regret: %.1f (%.4f per round)\n",
		agg.Final(netbandit.CumPseudo), agg.Final(netbandit.AvgPseudo))
	fmt.Printf("  avg regret trajectory: ")
	avg := agg.Mean(netbandit.AvgPseudo)
	for i := 0; i < len(avg); i += len(avg) / 5 {
		fmt.Printf("%.3f ", avg[i])
	}
	fmt.Printf("-> %.3f\n", avg[len(avg)-1])
}
