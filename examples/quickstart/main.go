// Quickstart: estimate a population from three overlapping observation
// sets with log-linear capture-recapture.
//
// A hidden population of 100,000 "used addresses" is sampled by three
// simulated measurement sources with different coverage and bias. The
// example builds the capture-history contingency table, lets the estimator
// select and fit a log-linear model, and compares the estimate (and the
// classical baselines) against the truth.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"math"

	"ghosts/internal/core"
	"ghosts/internal/ipset"
	"ghosts/internal/ipv4"
	"ghosts/internal/rng"
)

func main() {
	const population = 100000
	r := rng.New(2014)

	// Three sources with heterogeneous capture probabilities: "ping"
	// favours even addresses (stand-in for servers), the two "logs"
	// favour odd ones (clients), which makes the logs positively
	// correlated — the situation where Lincoln-Petersen fails and
	// log-linear models shine (§3.2.2 of the paper).
	ping := ipset.New()
	logA := ipset.New()
	logB := ipset.New()
	truth := ipset.New()
	base := ipv4.MustParseAddr("100.64.1.0") // any block works
	for i := 0; i < population; i++ {
		a := base + ipv4.Addr(i)
		truth.Add(a)
		// Latent "serverness" in [0,1]: servers answer pings, clients show
		// up in logs. The smooth mixture makes the two logs positively
		// correlated and both negatively correlated with ping.
		s := r.Float64()
		pPing := 0.10 + 0.45*s
		pLog := 0.42 - 0.30*s
		if r.Bernoulli(pPing) {
			ping.Add(a)
		}
		if r.Bernoulli(pLog) {
			logA.Add(a)
		}
		if r.Bernoulli(pLog) {
			logB.Add(a)
		}
	}

	sets := []*ipset.Set{ping, logA, logB}
	names := []string{"PING", "LOG-A", "LOG-B"}
	tb := core.TableFromSets(sets, names)

	fmt.Println("Observed:")
	for i, n := range names {
		fmt.Printf("  %-6s %6d addresses\n", n, sets[i].Len())
	}
	fmt.Printf("  union  %6d addresses (truth: %d)\n\n", tb.Observed(), population)

	// AIC with unscaled counts: the right setting for a single clean
	// sample like this one (the paper's BIC-adaptive default is tuned for
	// its noisy multi-source measurement data, §5.1).
	est := core.NewEstimator(core.AIC, core.Fixed1, math.Inf(1))
	res, err := est.Run(context.Background(), tb, core.RunOptions{Interval: true})
	if err != nil {
		panic(err)
	}
	fmt.Printf("Log-linear CR estimate: %.0f (model %v, interval [%.0f, %.0f])\n",
		res.N, modelTerms(res.Model), res.Interval.Lo, res.Interval.Hi)
	fmt.Printf("  ghosts (unseen): %.0f\n", res.Unseen)

	paper, err := core.DefaultEstimator(math.Inf(1)).Run(context.Background(), tb, core.RunOptions{Interval: true})
	if err != nil {
		panic(err)
	}
	fmt.Printf("Paper-default (BIC, adaptive divisor): %.0f (model %v)\n\n",
		paper.N, modelTerms(paper.Model))

	// Diagnostics: why the model search added interaction terms.
	dep := core.Dependence(tb)
	fmt.Printf("Pairwise dependence (log odds ratios): PINGxLOG-A %+.2f, LOG-AxLOG-B %+.2f\n",
		dep[0][1], dep[1][2])
	// res.Fit is the selected model's fit; no source is empty, so it is
	// a fit on tb itself.
	gof := core.GoodnessOfFit(tb, res.Fit)
	fmt.Printf("Goodness of fit: deviance %.1f on %d df (p = %.3f)\n", gof.Deviance, gof.DF, gof.PValue)
	if bi, err := core.BootstrapIntervalCtx(context.Background(), tb, res.Fit, math.Inf(1), 200, 0.95, 7); err == nil {
		fmt.Printf("Bootstrap 95%% interval (Poisson noise only): [%.0f, %.0f]\n\n", bi.Lo, bi.Hi)
	}

	fmt.Println("Baselines:")
	fmt.Printf("  Lincoln-Petersen (PING x LOG-A):  %.0f\n", core.LincolnPetersenPair(tb, 0, 1))
	fmt.Printf("  Lincoln-Petersen (LOG-A x LOG-B): %.0f  <- biased low: correlated sources\n",
		core.LincolnPetersenPair(tb, 1, 2))
	fmt.Printf("  Chao lower bound:                 %.0f\n", core.ChaoLowerBound(tb))
	fmt.Printf("  Heidemann 1.86 x ping:            %.0f\n", core.PingCorrection(int64(ping.Len())))
	fmt.Printf("\nTruth: %d\n", population)
}

func modelTerms(m core.Model) []string {
	if len(m.Terms) == 0 {
		return []string{"independence"}
	}
	out := make([]string, len(m.Terms))
	for i, h := range m.Terms {
		out[i] = core.TermName(h)
	}
	return out
}
