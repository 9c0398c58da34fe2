// Largek: the K = 4096 scenario that the one-word kernels could not
// touch. Every arm set here spans 64 machine words, the relation graph
// is a skip-sampled sparse G(n, p) that never materialises its n×n bit
// matrix, and the strategy relation graph SG(F, L) over the |F| = K
// sliding-window family is built by the multi-word arm-probe kernel.
// The program prints construction statistics and then runs DFL-SSO
// long enough to show the steady-state round staying cheap at this
// scale. Single play needs no strategy family: the runner plays each arm
// as an implicit singleton over its own closed neighbourhood, so the K
// bitset rows a singleton strategy.Set would hold are never built.
package main

import (
	"fmt"
	"log"
	"time"

	"netbandit"
)

func main() {
	const (
		arms    = 4096
		avgDeg  = 8
		window  = 2
		horizon = 3 * arms // past the unseen queue, into steady state
		seed    = 4096
	)

	start := time.Now()
	env, err := netbandit.NewSparseBernoulliEnv(arms, avgDeg, seed)
	if err != nil {
		log.Fatal(err)
	}
	g := env.Graph()
	fmt.Printf("environment: K=%d Bernoulli arms, sparse G(n, p) with %d edges (mean degree %.1f), built in %v\n",
		arms, g.M(), 2*float64(g.M())/float64(arms), time.Since(start).Round(time.Millisecond))

	set, err := netbandit.WindowStrategies(arms, window, g)
	if err != nil {
		log.Fatal(err)
	}
	start = time.Now()
	sg := netbandit.BuildStrategyGraph(set)
	fmt.Printf("strategy graph: |F|=%d window-%d strategies, SG(F, L) has %d edges, built in %v\n",
		set.Len(), window, sg.M(), time.Since(start).Round(time.Millisecond))

	cfg := netbandit.Config{Horizon: horizon, AnnounceHorizon: true}
	run, err := netbandit.NewSingleRun(env, netbandit.SSO, netbandit.NewDFLSSO(), cfg, netbandit.NewRNG(7))
	if err != nil {
		log.Fatal(err)
	}
	start = time.Now()
	series, err := run.Run()
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	last := len(series.T) - 1
	fmt.Printf("\nDFL-SSO over n=%d rounds: %v total, %v per round\n",
		horizon, elapsed.Round(time.Millisecond), (elapsed / horizon).Round(100*time.Nanosecond))
	fmt.Printf("final cumulative pseudo-regret: %.1f (%.4f per round)\n",
		series.CumPseudo[last], series.AvgPseudo[last])
	fmt.Println("\nchange `arms` to 100 or 10000 and rerun: the kernels pick the dense")
	fmt.Println("or sparse representation from the data shape, nothing else changes.")
}
