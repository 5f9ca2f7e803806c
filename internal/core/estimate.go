package core

import (
	"context"
	"errors"
	"math"

	"ghosts/internal/telemetry"
)

// ErrTooFewSources is returned when fewer than two sources observed
// anything: with one non-empty source there is no overlap to measure, so
// capture-recapture cannot see past the observed union.
var ErrTooFewSources = errors.New("core: fewer than 2 non-empty sources; capture-recapture needs an overlap to estimate from")

// Estimator bundles the model-selection and fitting configuration used
// throughout the paper. The zero value is not ready; use NewEstimator or
// DefaultEstimator.
type Estimator struct {
	IC       IC
	Divisor  DivisorMode
	Limit    float64 // right-truncation bound (routed-space size); +Inf disables
	Alpha    float64 // profile-interval significance, default 1e-7
	MaxTerms int     // stepwise search cap; 0 = unlimited pairwise budget
	MaxOrder int     // maximum interaction order; 0 = t−1
}

// NewEstimator returns an estimator with explicit IC and divisor settings
// and the given truncation limit (+Inf for plain Poisson).
func NewEstimator(ic IC, dm DivisorMode, limit float64) *Estimator {
	return &Estimator{IC: ic, Divisor: dm, Limit: limit, Alpha: 1e-7}
}

// DefaultEstimator returns the configuration the paper settles on (§5.1):
// BIC with the adaptive divisor (maximum 1000) and right-truncated Poisson
// cells bounded by limit.
func DefaultEstimator(limit float64) *Estimator {
	return NewEstimator(BIC, Adaptive1000, limit)
}

// Result is a complete CR estimate.
type Result struct {
	Observed int64   // M
	Unseen   float64 // Ẑ₀
	N        float64 // M + Ẑ₀ (clamped to Limit when truncating)
	Interval Interval
	Model    Model
	IC       float64
	Divisor  float64
}

// Estimate selects and fits a log-linear model for the table and returns
// the population estimate with its profile-likelihood interval.
func (e *Estimator) Estimate(tb *Table) (*Result, error) {
	return e.estimate(context.Background(), tb, true)
}

// EstimatePoint is Estimate without the profile interval, for hot loops
// (per-stratum and cross-validation fits).
func (e *Estimator) EstimatePoint(tb *Table) (*Result, error) {
	return e.estimate(context.Background(), tb, false)
}

// EstimateCtx is Estimate with cooperative cancellation: the model search
// checks ctx between stepwise rounds and candidate fits, and the profile
// interval between likelihood evaluations. A canceled context surfaces as
// ctx.Err(); a never-canceled context yields a result bit-identical to
// Estimate.
func (e *Estimator) EstimateCtx(ctx context.Context, tb *Table) (*Result, error) {
	return e.estimate(ctx, tb, true)
}

// EstimatePointCtx is EstimatePoint with cooperative cancellation.
func (e *Estimator) EstimatePointCtx(ctx context.Context, tb *Table) (*Result, error) {
	return e.estimate(ctx, tb, false)
}

// EstimateSweep is Estimate for sweeps over adjacent tables (consecutive
// observation windows): it returns the final fit alongside the result so
// the caller can hand it back as warm for the next table. When warm is
// non-nil and its model equals the one selected for tb, the final IRLS fit
// seeds from warm's coefficients instead of the flat default — model
// selection itself is never warm-started across tables, so the selected
// model (and hence which path runs) is unaffected. Pass warm=nil for the
// first table of a sweep.
func (e *Estimator) EstimateSweep(tb *Table, warm *FitResult) (*Result, *FitResult, error) {
	return e.estimateFull(context.Background(), tb, true, warm)
}

// EstimateSweepPoint is EstimateSweep without the profile interval, for
// the per-stratum series loops.
func (e *Estimator) EstimateSweepPoint(tb *Table, warm *FitResult) (*Result, *FitResult, error) {
	return e.estimateFull(context.Background(), tb, false, warm)
}

func (e *Estimator) estimate(ctx context.Context, tb *Table, wantInterval bool) (*Result, error) {
	res, _, err := e.estimateFull(ctx, tb, wantInterval, nil)
	return res, err
}

func (e *Estimator) estimateFull(ctx context.Context, tb *Table, wantInterval bool, warm *FitResult) (*Result, *FitResult, error) {
	if tb == nil || tb.Observed() == 0 {
		return nil, nil, errors.New("core: empty table")
	}
	work, keep := tb.DropEmptySources()
	if len(keep) < 2 {
		return nil, nil, ErrTooFewSources
	}
	limit := e.Limit
	if limit <= 0 {
		limit = math.Inf(1)
	}
	opt := SelectionOptions{
		IC:       e.IC,
		Divisor:  e.Divisor,
		Limit:    limit,
		MaxTerms: e.MaxTerms,
		MaxOrder: e.MaxOrder,
	}
	model, ic, err := SelectModelCtx(ctx, work, opt)
	if err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	var init []float64
	if warm != nil && warm.Converged && warm.Model.Equal(model) && len(warm.Coef) == model.NumParams() {
		init = warm.Coef
		telemetry.Active().SweepWarmStart()
	}
	fit, err := fitModelInit(work, model, limit, 1, init)
	if err != nil {
		return nil, nil, err
	}
	n := fit.N
	if !math.IsInf(limit, 1) && n > limit {
		n = limit
	}
	res := &Result{
		Observed: work.Observed(),
		Unseen:   n - float64(work.Observed()),
		N:        n,
		Model:    model,
		IC:       ic,
		Divisor:  e.Divisor.divisor(work),
	}
	if wantInterval {
		alpha := e.Alpha
		if alpha <= 0 {
			alpha = 1e-7
		}
		iv, err := ProfileIntervalScaledCtx(ctx, work, fit, limit, alpha, limit, res.Divisor)
		// Numerical failures degrade to a point estimate without an
		// interval, but a cancellation must abandon the whole request.
		if cerr := ctx.Err(); cerr != nil {
			return nil, nil, cerr
		}
		if err == nil {
			if !math.IsInf(limit, 1) && iv.Hi > limit {
				iv.Hi = limit
			}
			res.Interval = iv
		}
	}
	return res, fit, nil
}

// StratumTable pairs a stratum label with its contingency table and
// (optionally) a stratum-specific truncation limit, e.g. the routed size of
// the stratum.
type StratumTable struct {
	Label string
	Table *Table
	Limit float64 // 0 means use the estimator's global limit
}

// StratifiedResult sums per-stratum estimates (§3.4, §6.2: "we separated
// each source into the different strata, then used CR to estimate the size
// of each stratum, and finally we summed up the estimates").
type StratifiedResult struct {
	Total    float64
	Observed int64
	PerStrat map[string]*Result
	Excluded []string // strata skipped as sampling zeros (§3.3.4)
}

// MinStratumObserved is the sampling-zero exclusion threshold: strata where
// all sources together observed fewer individuals are excluded (§3.3.4
// excludes country codes with fewer than 1000 observed addresses).
const MinStratumObserved = 1000

// EstimateStratified estimates every stratum independently and sums. Strata
// under minObserved observations are excluded (pass 0 to use
// MinStratumObserved, negative to disable exclusion).
func (e *Estimator) EstimateStratified(strata []StratumTable, minObserved int64) (*StratifiedResult, error) {
	if minObserved == 0 {
		minObserved = MinStratumObserved
	}
	out := &StratifiedResult{PerStrat: make(map[string]*Result, len(strata))}
	for _, st := range strata {
		if st.Table == nil {
			continue
		}
		obs := st.Table.Observed()
		if obs == 0 {
			continue
		}
		if minObserved > 0 && obs < minObserved {
			out.Excluded = append(out.Excluded, st.Label)
			continue
		}
		sub := *e
		if st.Limit > 0 {
			sub.Limit = st.Limit
		}
		res, err := sub.EstimatePoint(st.Table)
		if err != nil {
			// A stratum whose table is degenerate (e.g. one source only)
			// falls back to its observed count: CR cannot see past it.
			res = &Result{Observed: obs, N: float64(obs)}
		}
		out.PerStrat[st.Label] = res
		out.Total += res.N
		out.Observed += obs
	}
	if len(out.PerStrat) == 0 {
		return nil, errors.New("core: no usable strata")
	}
	return out, nil
}
