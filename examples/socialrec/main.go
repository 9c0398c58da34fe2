// Social recommendation: the paper's side-reward motivation. Promoting a
// product to one user in a social network also influences that user's
// friends to buy — single-play with side reward (SSR). The best user to
// target is not the one most likely to buy, but the one whose closed
// friend-circle buys the most in total.
//
// The network is a Barabási–Albert preferential-attachment graph (hubs =
// influencers). The example shows that DFL-SSR finds an influencer whose
// neighbourhood value far exceeds the best individual buyer's, while a
// policy that maximises individual purchase probability (DFL-SSO run on
// the same feedback) leaves reward on the table.
package main

import (
	"context"
	"fmt"
	"log"
	"slices"

	"netbandit"
)

func main() {
	const (
		users   = 60
		horizon = 8000
		reps    = 8
		seed    = 11
	)

	r := netbandit.NewRNG(seed)
	graph := buildSocialNetwork(users, r)

	// Purchase probabilities: uniform-ish, with a standout individual
	// buyer who is poorly connected.
	probs := make([]float64, users)
	for i := range probs {
		probs[i] = 0.1 + 0.5*r.Float64()
	}
	probs[users-1] = 0.95 // strong buyer, but a late (low-degree) joiner

	env, err := netbandit.NewBernoulliEnv(graph, probs)
	if err != nil {
		log.Fatal(err)
	}

	bestArm, bestMean := env.BestArm()
	bestInf, bestSide := env.BestSideArm()
	fmt.Printf("social network: %d users (Barabási–Albert), n=%d\n\n", users, horizon)
	fmt.Printf("best individual buyer:  user %2d (p=%.2f, circle value %.2f)\n",
		bestArm, bestMean, env.SideMean(bestArm))
	fmt.Printf("best influence target:  user %2d (circle of %d, total value %.2f)\n\n",
		bestInf, graph.Degree(bestInf)+1, bestSide)

	sweep := netbandit.Sweep{
		Envs: []netbandit.EnvSpec{netbandit.FixedEnv("social", netbandit.SSR, env, nil)},
		Policies: []netbandit.PolicySpec{
			{Name: "DFL-SSR (exact)", Single: func(*netbandit.RNG) netbandit.SinglePolicy { return netbandit.NewDFLSSR() }},
			{Name: "DFL-SSR (streaming)", Single: func(*netbandit.RNG) netbandit.SinglePolicy { return netbandit.NewDFLSSRStreaming() }},
			{Name: "DFL-SSO (wrong objective)", Single: func(*netbandit.RNG) netbandit.SinglePolicy { return netbandit.NewDFLSSO() }},
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
	fmt.Printf("%-28s %18s %18s\n", "policy", "final cum. regret", "avg regret/round")
	for _, cell := range res.Cells {
		fmt.Printf("%-28s %18.1f %18.4f\n", cell.Policy,
			cell.Agg.Final(netbandit.CumPseudo), cell.Agg.Final(netbandit.AvgPseudo))
	}
	fmt.Println("\n(regret is against the best influence target; maximising individual")
	fmt.Println(" purchase probability is the wrong objective under side rewards)")
}

// buildSocialNetwork wires a preferential-attachment graph through the
// public Graph API.
func buildSocialNetwork(users int, r *netbandit.RNG) *netbandit.Graph {
	// The facade exposes Gnp/Star/Complete directly; for BA we build edges
	// by preferential attachment over the public AddEdge API.
	g := netbandit.NewGraph(users)
	const attach = 2
	repeated := make([]int, 0, 4*users)
	// Seed triangle.
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(0, 2)
	repeated = append(repeated, 0, 1, 1, 2, 0, 2)
	for v := 3; v < users; v++ {
		// Distinct targets in draw order, so the graph depends only on r.
		var targets []int
		for len(targets) < attach {
			if u := repeated[r.Intn(len(repeated))]; !slices.Contains(targets, u) {
				targets = append(targets, u)
			}
		}
		for _, u := range targets {
			g.MustAddEdge(u, v)
			repeated = append(repeated, u, v)
		}
	}
	return g
}
