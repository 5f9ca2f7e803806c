package core

import (
	"context"
	"math"
	"math/bits"

	"ghosts/internal/parallel"
	"ghosts/internal/stats"
	"ghosts/internal/telemetry"
)

// IC selects the information criterion used for model selection (§3.3.2).
type IC int

const (
	// AIC = 2k − 2 ln L.
	AIC IC = iota
	// BIC = ln(M)·k − 2 ln L, with M the number of observed individuals.
	BIC
)

func (ic IC) String() string {
	if ic == BIC {
		return "BIC"
	}
	return "AIC"
}

// DivisorMode configures the count-divisor heuristic that deflates the
// Poisson likelihood during model selection (§3.3.2). The heuristic
// compensates for the Poisson assumption understating sampling variance,
// which otherwise selects over-complex models.
type DivisorMode struct {
	// Adaptive halves the starting divisor until it is smaller than the
	// smallest positive cell count.
	Adaptive bool
	// Value is the fixed divisor, or the starting divisor when Adaptive.
	Value int64
}

// Fixed1, Fixed10 ... are the parameter settings evaluated in Table 3.
var (
	Fixed1       = DivisorMode{Value: 1}
	Fixed10      = DivisorMode{Value: 10}
	Fixed100     = DivisorMode{Value: 100}
	Fixed1000    = DivisorMode{Value: 1000}
	Adaptive1000 = DivisorMode{Adaptive: true, Value: 1000}
)

// divisor resolves the effective divisor for a table.
func (dm DivisorMode) divisor(tb *Table) float64 {
	d := dm.Value
	if d < 1 {
		d = 1
	}
	if !dm.Adaptive {
		return float64(d)
	}
	min := tb.MinPositive()
	if min <= 1 {
		return 1
	}
	for d >= min {
		d /= 2
	}
	if d < 1 {
		d = 1
	}
	return float64(d)
}

// icDelta is the paper's −7 rule: "we choose the simplest model m such that
// no other model n has ICn < ICm − 7".
const icDelta = 7

// SelectionOptions configure SelectModelCtx.
type SelectionOptions struct {
	IC       IC
	Divisor  DivisorMode
	Limit    float64 // right-truncation bound; +Inf for plain Poisson
	MaxTerms int     // cap on interaction terms; 0 means T(T−1)/2
	MaxOrder int     // highest interaction order considered; 0 means T−1
}

// SelectModelCtx performs forward stepwise search over hierarchical
// log-linear models, starting at the independence model and greedily adding
// the interaction that lowers the chosen IC most, while the improvement
// exceeds the −7 rule. It returns the selected model and its IC value.
//
// Exhaustive enumeration over all hierarchical models is infeasible for
// t = 9 sources, so — as with Rcapture in practice — the search is
// stepwise; the IC and stopping rule are exactly the paper's. The search
// checks ctx between stepwise rounds and between candidate fits (via the
// worker pool's own checkpoints) and returns ctx.Err() once it is done.
func SelectModelCtx(ctx context.Context, tb *Table, opt SelectionOptions) (Model, float64, error) {
	m, ic, _, err := selectModel(ctx, tb, opt)
	return m, ic, err
}

// selectModel is SelectModelCtx that also returns the selected model's
// divisor-scaled fit, whose coefficients the screening oracle pins.
func selectModel(ctx context.Context, tb *Table, opt SelectionOptions) (Model, float64, *FitResult, error) {
	t := tb.T
	maxOrder := opt.MaxOrder
	if maxOrder <= 0 || maxOrder > t-1 {
		maxOrder = t - 1
	}
	maxTerms := opt.MaxTerms
	if maxTerms <= 0 {
		maxTerms = t * (t - 1) / 2
	}
	// Parameters must stay comfortably below the number of cells.
	if cells := 1<<uint(t) - 1; maxTerms > cells-t-2 {
		maxTerms = cells - t - 2
		if maxTerms < 0 {
			maxTerms = 0
		}
	}
	rec := telemetry.Active()
	defer rec.SelectionDone()
	d := opt.Divisor.divisor(tb)
	observed := tb.Observed()
	cur := IndependenceModel(t)
	curFit, err := fitModelInit(tb, cur, opt.Limit, d, nil)
	if err != nil {
		return cur, 0, nil, err
	}
	curIC := icOf(observed, cur.NumParams(), curFit.LogLik, opt, d)
	// One scratch holds the selection's prologue: the divisor-scaled
	// response and truncation vectors, which every candidate fit reads in
	// place, Σ ln y_s! (which depends on nothing else, so it is summed once
	// per selection), and each round's start state at the parent's
	// coefficients. Every candidate's warm start is those coefficients
	// plus a zero on the candidate's fresh mask, which scatters to the
	// parent's η bit for bit, so the candidates read the start instead of
	// each recomputing it (stats.LatticeStart).
	pro := getScratch()
	defer fitPool.Put(pro)
	y, limits := pro.load(tb, t, opt.Limit, d)
	pro.start.LogFactSum = stats.Lattice{T: t}.LogFactorialSum(y)
	var cands, polish []int
	var fits []*stats.GLMResult
	for len(cur.Terms) < maxTerms {
		// Cancellation checkpoint between stepwise rounds: a canceled
		// search returns an error, never a partially-selected model.
		if err := ctx.Err(); err != nil {
			return Model{}, 0, nil, err
		}
		// Enumerate the eligible candidate terms in ascending mask order,
		// then fit them concurrently: each candidate fit is independent and
		// deterministic (fixed warm start), and results land in per-index
		// slots, so the scan is safe to fan out.
		cands = cands[:0]
		for h := 3; h < 1<<uint(t); h++ {
			order := bits.OnesCount(uint(h))
			if order < 2 || order > maxOrder || cur.Has(h) || !cur.Hierarchical(h) {
				continue
			}
			cands = append(cands, h)
		}
		if len(cands) == 0 {
			break
		}
		rec.SelectRound(len(cands))
		if cap(fits) < len(cands) {
			fits = make([]*stats.GLMResult, len(cands))
		}
		fits = fits[:len(cands)]
		warm := curFit.Coef
		pro.masks = cur.appendColumnMasks(pro.masks)
		parent := stats.Lattice{T: t, Masks: pro.masks}
		if err := parent.Prologue(y, limits, warm, &pro.start, &pro.ws); err != nil {
			return Model{}, 0, nil, err
		}
		// Screen every candidate: a fit may stop once its steps contract
		// below the screening tolerance (stats.Lattice.Screen).
		if err := parallel.ForEachCtx(ctx, len(cands), func(i int) {
			fits[i] = nil
			h := cands[i]
			cand := cur.With(h)
			sc := getScratch()
			defer fitPool.Put(sc)
			sc.masks = cand.appendColumnMasks(sc.masks)
			res, err := stats.Lattice{T: t, Masks: sc.masks}.Screen(y, limits, warmStart(cur, cand, h, warm), &pro.start, &sc.ws)
			if err != nil {
				return // singular candidate: skip
			}
			fits[i] = res
		}); err != nil {
			// Canceled mid-round: the fits slice is partially filled and
			// must not feed the reduction.
			return Model{}, 0, nil, err
		}
		// Polish every screened candidate whose log-likelihood is within
		// the screening band of the best screened one. Candidates share a
		// parameter count, so the IC orders them as their log-likelihoods
		// do, and one left screened could only overtake a polished one if
		// its remaining gain (about a ninth of its last step's, below the
		// band) exceeded the band. The winner's fit, IC and coefficients
		// are therefore those of fitting every candidate to convergence.
		top := math.Inf(-1)
		screened := 0
		for _, res := range fits {
			if res != nil && res.Screened {
				screened++
				top = math.Max(top, res.LogLik)
			}
		}
		band := top - stats.ScreenTol*(math.Abs(top)+1)
		polish = polish[:0]
		for i, res := range fits {
			if res != nil && res.Screened && res.LogLik >= band {
				polish = append(polish, i)
			}
		}
		rec.CandidatesScreened(screened)
		best := -1
		bestIC := math.Inf(1)
		k := cur.NumParams() + 1
		for {
			rec.CandidatesPolished(len(polish))
			if err := parallel.ForEachCtx(ctx, len(polish), func(j int) {
				i := polish[j]
				sc := getScratch()
				defer fitPool.Put(sc)
				sc.masks = cur.With(cands[i]).appendColumnMasks(sc.masks)
				res, err := stats.Lattice{T: t, Masks: sc.masks}.Polish(y, limits, fits[i], pro.start.LogFactSum, &sc.ws)
				if err != nil {
					res = nil // singular on the way: skip, as a full fit would
				}
				fits[i] = res
			}); err != nil {
				return Model{}, 0, nil, err
			}
			// Mask-ordered reduction: the strict < keeps the lowest mask on
			// IC ties, exactly as the serial ascending-h scan did, so the
			// selected model is bit-identical regardless of worker count.
			best, bestIC = -1, math.Inf(1)
			for i, res := range fits {
				if res != nil {
					if ic := icOf(observed, k, res.LogLik, opt, d); ic < bestIC {
						bestIC, best = ic, i
					}
				}
			}
			// Only a failed polish can leave a screened winner: every
			// candidate left screened lies below the band, and polishing
			// raises a log-likelihood. Polish it too and reduce again.
			if best < 0 || !fits[best].Screened {
				break
			}
			polish = append(polish[:0], best)
		}
		if best < 0 || bestIC >= curIC-icDelta {
			break
		}
		rec.TermAccepted(curIC - bestIC)
		cand := cur.With(cands[best])
		cur, curIC, curFit = cand, bestIC, fitResultFrom(observed, cand, fits[best], d)
	}
	return cur, curIC, curFit, nil
}

// warmStart builds initial coefficients for cand = cur.With(h): cur's
// coefficients with a zero inserted at h's design column.
func warmStart(cur, cand Model, h int, coef []float64) []float64 {
	pos := 1 + cand.T // columns before the interaction block
	for _, term := range cand.Terms {
		if term == h {
			break
		}
		pos++
	}
	out := make([]float64, 0, len(coef)+1)
	out = append(out, coef[:pos]...)
	out = append(out, 0)
	out = append(out, coef[pos:]...)
	return out
}

// icOf computes the information criterion of a divisor-scaled fit with
// log-likelihood ll of a model with k free parameters to a table of
// observed individuals.
func icOf(observed int64, k int, ll float64, opt SelectionOptions, d float64) float64 {
	switch opt.IC {
	case BIC:
		mObs := float64(observed) / d
		if mObs < 2 {
			mObs = 2
		}
		return math.Log(mObs)*float64(k) - 2*ll
	default:
		return 2*float64(k) - 2*ll
	}
}
