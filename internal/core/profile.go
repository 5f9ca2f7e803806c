package core

import (
	"context"
	"math"

	"ghosts/internal/stats"
	"ghosts/internal/telemetry"
)

// Interval is a profile-likelihood interval for the population size N̂. As
// the paper notes (§3.3.3), the sampling here is not truly random, so the
// interval is a heuristic sensitivity indicator rather than a strict
// confidence interval; the paper uses α = 1e-7 to obtain wide intervals.
type Interval struct {
	Lo, Hi float64
	Alpha  float64
}

// profiler evaluates the profile log-likelihood at varying population
// sizes N: the unobserved cell is pinned to n₀ = N − M and the model
// parameters are re-maximised over the full 2^t-cell table. Counts are
// divided by scale — the paper's divisor heuristic — which widens the
// likelihood region to reflect that the sampling is far from
// Poisson-random (§3.3.3: the interval is "merely a useful heuristic
// indication"). The unobserved cell's design row is the intercept alone,
// which is exactly lattice cell 0, so the profile fit is the lattice
// kernel with Cell0 set. The bisection evaluates the profile dozens of
// times per interval, so the vectors and GLM workspace are built once and
// reused, and each evaluation warm-starts from the previous one's
// coefficients — adjacent bisection points have nearly identical
// maximisers.
type profiler struct {
	ld     stats.Lattice // Cell0 profile lattice
	y      []float64     // cell-indexed; y[0] is rewritten per evaluation
	limits []float64
	scale  float64
	ws     stats.Workspace

	warm      []float64 // previous evaluation's coefficients (nil on the first)
	coldIters int       // iteration count of the cold first evaluation
}

func newProfiler(tb *Table, m Model, limit float64, scale float64) *profiler {
	if scale < 1 {
		scale = 1
	}
	pr := &profiler{scale: scale}
	pr.ld = stats.Lattice{T: m.T, Masks: m.ColumnMasks(), Cell0: true}
	n := 1 << uint(m.T)
	pr.y = make([]float64, n)
	for s := 1; s < len(tb.Counts); s++ {
		pr.y[s] = float64(tb.Counts[s]) / scale
	}
	if !math.IsInf(limit, 1) {
		pr.limits = make([]float64, n)
		l := math.Floor(limit / scale)
		for i := range pr.limits {
			pr.limits[i] = l
		}
	}
	return pr
}

// logLik evaluates the profile log-likelihood with the unobserved cell
// pinned to n0, warm-starting from the previous evaluation's maximiser.
func (pr *profiler) logLik(n0 float64) (float64, error) {
	pr.y[0] = n0 / pr.scale
	res, err := pr.ld.Fit(pr.y, pr.limits, pr.warm, &pr.ws)
	if err != nil {
		return 0, err
	}
	if pr.warm == nil {
		pr.coldIters = res.Iterations
	} else {
		telemetry.Active().WarmStartSavedIters(pr.coldIters - res.Iterations)
	}
	pr.warm = res.Coef
	return res.LogLik, nil
}

// ProfileIntervalScaledCtx computes the 100(1−α)% profile-likelihood
// interval for N̂ following the procedure of Baillargeon & Rivest
// (Rcapture): the interval is {N : 2(ℓ_max − ℓ(N)) ≤ χ²₁(1−α)}, located by
// bisection on each side of the point estimate. upper bounds the search
// (pass the routed-space size, or +Inf). The divisor heuristic applies to
// the likelihood (§3.3.2/§3.3.3): counts are divided by scale before
// profiling, widening the interval by roughly √scale to account for
// non-random sampling; pass scale 1 for the plain interval. ctx is checked
// before every profile-likelihood evaluation (each one is a full GLM
// re-fit, the unit of work the search is made of), so a canceled context
// stops the bisection within one step and returns ctx.Err().
func ProfileIntervalScaledCtx(ctx context.Context, tb *Table, fit *FitResult, limit float64, alpha, upper, scale float64) (Interval, error) {
	mObs := float64(tb.Observed())
	nHat := fit.N
	if nHat < mObs {
		nHat = mObs
	}
	if err := ctx.Err(); err != nil {
		return Interval{}, err
	}
	pr := newProfiler(tb, fit.Model, limit, scale)
	llMax, err := pr.logLik(nHat - mObs)
	if err != nil {
		return Interval{}, err
	}
	crit := stats.ChiSquare1Quantile(1-alpha) / 2
	drop := func(n float64) float64 {
		ll, err := pr.logLik(n - mObs)
		if err != nil {
			return math.Inf(1)
		}
		if ll > llMax {
			// The profile can exceed the plug-in maximum slightly when the
			// point fit is not the exact profile maximiser; tighten llMax.
			llMax = ll
		}
		return llMax - ll
	}

	// Lower bound: bisect in [M, N̂].
	lo := mObs
	if drop(lo) <= crit {
		// Even observing-everything is within the likelihood region.
	} else {
		a, b := mObs, nHat
		for i := 0; i < 60 && b-a > 1e-6*(nHat+1); i++ {
			if err := ctx.Err(); err != nil {
				return Interval{}, err
			}
			mid := (a + b) / 2
			if drop(mid) > crit {
				a = mid
			} else {
				b = mid
			}
		}
		lo = (a + b) / 2
	}

	// Upper bound: expand geometrically from N̂ until the drop exceeds the
	// critical value or we hit the upper limit, then bisect.
	hi := nHat
	if math.IsInf(upper, 1) || upper <= nHat {
		upper = math.Max(nHat*16, nHat+16)
	}
	b := nHat
	step := math.Max(nHat-mObs, 1)
	exceeded := false
	for i := 0; i < 60; i++ {
		if err := ctx.Err(); err != nil {
			return Interval{}, err
		}
		b = math.Min(b+step, upper)
		if drop(b) > crit {
			exceeded = true
			break
		}
		if b >= upper {
			break
		}
		step *= 2
	}
	if !exceeded {
		hi = b
	} else {
		a := math.Max(nHat, b-step)
		for i := 0; i < 60 && b-a > 1e-6*(b+1); i++ {
			if err := ctx.Err(); err != nil {
				return Interval{}, err
			}
			mid := (a + b) / 2
			if drop(mid) > crit {
				b = mid
			} else {
				a = mid
			}
		}
		hi = (a + b) / 2
	}
	return Interval{Lo: lo, Hi: hi, Alpha: alpha}, nil
}
