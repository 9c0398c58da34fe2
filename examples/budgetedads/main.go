// Budgeted ad placement: the combinatorial constraint need not be a fixed
// slot count — here each ad has a price and any affordable set of ads is
// feasible (the paper's model allows arbitrary constraints on F, including
// strategies of different sizes). The player collects the closure reward
// (CSR): impressions spill over to similar ads' audiences.
//
// DFL-CSR with the exact oracle runs over the budget-constrained family
// and the example reports the best affordable bundle it converges to,
// alongside the Theorem 4 ceiling for this instance.
package main

import (
	"context"
	"fmt"
	"log"

	"netbandit"
)

func main() {
	const (
		ads     = 12
		budget  = 3.0
		horizon = 6000
		reps    = 6
		seed    = 17
	)

	r := netbandit.NewRNG(seed)
	graph := netbandit.GnpGraph(ads, 0.3, r)

	// Prices: expensive premium ads and cheap fillers.
	costs := make([]float64, ads)
	for i := range costs {
		costs[i] = 1 + float64(i%3) // 1, 2, or 3 units
	}
	set, err := netbandit.BudgetedStrategies(costs, budget, graph)
	if err != nil {
		log.Fatal(err)
	}

	env, err := netbandit.NewRandomBernoulliEnv(graph, ads, r)
	if err != nil {
		log.Fatal(err)
	}

	sweep := netbandit.Sweep{
		Envs: []netbandit.EnvSpec{netbandit.FixedEnv("bundles", netbandit.CSR, env, set)},
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

	fmt.Printf("budgeted ads: %d ads, budget %.0f, |F| = %d affordable bundles, n=%d\n\n",
		ads, budget, set.Len(), horizon)
	bestX, bestVal := set.BestClosure(env.Means())
	var spend float64
	for _, a := range set.Arms(bestX) {
		spend += costs[a]
	}
	fmt.Printf("optimal bundle: ads %v (spend %.0f/%.0f, closure value %.2f)\n",
		set.Arms(bestX), spend, budget, bestVal)
	fmt.Printf("DFL-CSR final cum. regret: %.1f (%.4f per round)\n",
		agg.Final(netbandit.CumPseudo), agg.Final(netbandit.AvgPseudo))
	fmt.Printf("Theorem 4 ceiling:         %.2e (N = %d)\n",
		netbandit.Theorem4RegretBound(horizon, ads, set.MaxClosureSize()),
		set.MaxClosureSize())
}
