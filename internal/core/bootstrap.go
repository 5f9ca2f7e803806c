package core

import (
	"context"
	"errors"
	"math"
	"sort"

	"ghosts/internal/parallel"
	"ghosts/internal/rng"
	"ghosts/internal/stats"
	"ghosts/internal/telemetry"
)

// BootstrapInterval computes a parametric-bootstrap percentile interval
// for the population estimate, as an alternative to the profile-likelihood
// interval: each observable cell is resampled Z*_s ~ Poisson(λ̂_s) from the
// fitted model, the same model is refitted, and the conf-level percentile
// range of the resampled N̂ is returned. Unlike the profile interval it
// reflects only Poisson sampling noise, so it is a lower bound on the real
// uncertainty (§3.3.3's caveat applies with the same force).
func BootstrapInterval(tb *Table, fit *FitResult, limit float64, b int, conf float64, seed uint64) (Interval, error) {
	return BootstrapIntervalCtx(context.Background(), tb, fit, limit, b, conf, seed)
}

// BootstrapIntervalCtx is BootstrapInterval with cooperative cancellation:
// the fan-out checks ctx between replicates and the call returns ctx.Err()
// once it is done, instead of refitting the remaining replicates. With a
// never-canceled context the replicate streams — and the interval — are
// bit-identical to BootstrapInterval.
func BootstrapIntervalCtx(ctx context.Context, tb *Table, fit *FitResult, limit float64, b int, conf float64, seed uint64) (Interval, error) {
	if b < 10 {
		return Interval{}, errors.New("core: need at least 10 bootstrap replicates")
	}
	if conf <= 0 || conf >= 1 {
		return Interval{}, errors.New("core: confidence must be in (0,1)")
	}
	sp := telemetry.Active().StartSpan("core.bootstrap")
	defer sp.End(int64(b))
	// Fitted cell means from the model's coefficients. fit already carries
	// the divisor-1 maximiser in the engine's calling pattern, so the refit
	// warm-starts from fit.Coef and typically converges in one iteration
	// instead of repeating the whole cold fit.
	refit, err := fitModelInit(tb, fit.Model, limit, 1, fit.Coef)
	if err != nil {
		return Interval{}, err
	}
	// λ̂ per observable cell via the subset-sum identity η = Xβ (the design
	// is the capture-history subset indicator — see stats.Lattice).
	nCells := 1 << uint(fit.Model.T)
	etas := make([]float64, nCells)
	stats.LatticeEta(fit.Model.T, fit.Model.ColumnMasks(), refit.Coef, etas)
	lambdas := make([]float64, nCells-1)
	for s := 1; s < nCells; s++ {
		eta := etas[s]
		if eta > 30 {
			eta = 30
		}
		lambdas[s-1] = math.Exp(eta)
	}
	// Derive one generator per replicate up front (rng.Split), so each
	// replicate's stream is fixed by (seed, rep) and the fan-out is
	// deterministic regardless of worker count or scheduling.
	master := rng.New(seed)
	gens := make([]*rng.RNG, b)
	for i := range gens {
		gens[i] = master.Split()
	}
	// One workspace per pool worker, shared across every replicate that
	// worker claims: the resample table and the lattice fit scratch are
	// fully overwritten per replicate, so reuse is invisible to the
	// numbers (the determinism tests pin the interval bit-for-bit) while
	// the per-replicate Table/workspace allocations — and the fit pool's
	// per-replicate checkout churn — disappear.
	nw := parallel.Workers()
	if nw > b {
		nw = b
	}
	if nw < 1 {
		nw = 1
	}
	type bootWorkspace struct {
		resampled *Table
		sc        fitScratch
	}
	spaces := make([]*bootWorkspace, nw)
	for i := range spaces {
		spaces[i] = &bootWorkspace{resampled: NewTable(tb.T)}
	}
	raw := make([]float64, b)
	err = parallel.ForEachWorkerCtx(ctx, b, func(worker, rep int) {
		raw[rep] = math.NaN() // NaN marks a failed replicate
		r := gens[rep]
		var ws *bootWorkspace
		if worker < len(spaces) {
			ws = spaces[worker]
		} else {
			// Unreachable unless SetWorkers grows the pool mid-call — not a
			// supported pattern — but degrading to a private fresh workspace
			// beats two workers sharing one.
			ws = &bootWorkspace{resampled: NewTable(tb.T)}
		}
		resampled := ws.resampled
		for s := 1; s < len(resampled.Counts); s++ {
			resampled.Counts[s] = r.Poisson(lambdas[s-1])
		}
		if resampled.Observed() == 0 {
			return
		}
		f, err := fitModelScratch(resampled, fit.Model, limit, 1, refit.Coef, &ws.sc)
		if err != nil {
			return
		}
		n := f.N
		if !math.IsInf(limit, 1) && n > limit {
			n = limit
		}
		raw[rep] = n
	})
	if err != nil {
		return Interval{}, err
	}
	ests := make([]float64, 0, b)
	for _, n := range raw {
		if !math.IsNaN(n) {
			ests = append(ests, n)
		}
	}
	telemetry.Active().BootstrapDone(b, b-len(ests))
	if len(ests) < b/2 {
		return Interval{}, errors.New("core: too many bootstrap replicates failed")
	}
	sort.Float64s(ests)
	alpha := 1 - conf
	lo := ests[int(alpha/2*float64(len(ests)))]
	hiIdx := int((1 - alpha/2) * float64(len(ests)))
	if hiIdx >= len(ests) {
		hiIdx = len(ests) - 1
	}
	return Interval{Lo: lo, Hi: ests[hiIdx], Alpha: alpha}, nil
}
