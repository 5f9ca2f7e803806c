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

// SelectionOptions configure SelectModel.
type SelectionOptions struct {
	IC       IC
	Divisor  DivisorMode
	Limit    float64 // right-truncation bound; +Inf for plain Poisson
	MaxTerms int     // cap on interaction terms; 0 means T(T−1)/2
	MaxOrder int     // highest interaction order considered; 0 means T−1
}

// SelectModel performs forward stepwise search over hierarchical log-linear
// models, starting at the independence model and greedily adding the
// interaction that lowers the chosen IC most, while the improvement exceeds
// the −7 rule. It returns the selected model and its IC value.
//
// Exhaustive enumeration over all hierarchical models is infeasible for
// t = 9 sources, so — as with Rcapture in practice — the search is
// stepwise; the IC and stopping rule are exactly the paper's.
func SelectModel(tb *Table, opt SelectionOptions) (Model, float64, error) {
	return SelectModelCtx(context.Background(), tb, opt)
}

// SelectModelCtx is SelectModel with cooperative cancellation: the search
// checks ctx between stepwise rounds and between candidate fits (via the
// worker pool's own checkpoints) and returns ctx.Err() once it is done.
// With a never-canceled context the search — and the selected model, IC and
// coefficients — is bit-identical to SelectModel.
func SelectModelCtx(ctx context.Context, tb *Table, opt SelectionOptions) (Model, float64, error) {
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
	cur := IndependenceModel(t)
	curFit, err := fitModelInit(tb, cur, opt.Limit, d, nil, nil)
	if err != nil {
		return cur, 0, err
	}
	curIC := icOf(tb, cur, curFit, opt, d)
	// One scratch holds the selection's prologue: the divisor-scaled
	// response and truncation vectors, Σ ln y_s! (which depends on nothing
	// else, so it is summed once per selection), and each round's start
	// state at the parent's coefficients. Every candidate's warm start is
	// those coefficients plus a zero on the candidate's fresh mask, which
	// scatters to the parent's η bit for bit, so the candidates read the
	// start instead of each recomputing it (stats.LatticeStart).
	pro := getScratch()
	defer fitPool.Put(pro)
	y, limits := pro.load(tb, t, opt.Limit, d)
	pro.start.LogFactSum = stats.Lattice{T: t}.LogFactorialSum(y)
	var cands []int
	var fits []*FitResult
	var ics []float64
	for len(cur.Terms) < maxTerms {
		// Cancellation checkpoint between stepwise rounds: a canceled
		// search returns an error, never a partially-selected model.
		if err := ctx.Err(); err != nil {
			return Model{}, 0, err
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
			fits = make([]*FitResult, len(cands))
			ics = make([]float64, len(cands))
		}
		fits = fits[:len(cands)]
		ics = ics[:len(cands)]
		warm := curFit.Coef
		pro.masks = cur.appendColumnMasks(pro.masks)
		parent := stats.Lattice{T: t, Masks: pro.masks}
		if err := parent.Prologue(y, limits, warm, &pro.start, &pro.ws); err != nil {
			return Model{}, 0, err
		}
		if err := parallel.ForEachCtx(ctx, len(cands), func(i int) {
			fits[i] = nil
			h := cands[i]
			cand := cur.With(h)
			fit, err := fitModelInit(tb, cand, opt.Limit, d, warmStart(cur, cand, h, warm), &pro.start)
			if err != nil {
				return // singular candidate: skip
			}
			fits[i] = fit
			ics[i] = icOf(tb, cand, fit, opt, d)
		}); err != nil {
			// Canceled mid-round: the fits slice is partially filled and
			// must not feed the reduction.
			return Model{}, 0, err
		}
		// Mask-ordered reduction: the strict < keeps the lowest mask on IC
		// ties, exactly as the serial ascending-h scan did, so the selected
		// model is bit-identical regardless of worker count.
		bestIC := math.Inf(1)
		best := -1
		for i := range cands {
			if fits[i] != nil && ics[i] < bestIC {
				bestIC, best = ics[i], i
			}
		}
		if best < 0 || bestIC >= curIC-icDelta {
			break
		}
		rec.TermAccepted(curIC - bestIC)
		cur, curIC, curFit = fits[best].Model, bestIC, fits[best]
	}
	return cur, curIC, nil
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

// icOf computes the information criterion from a divisor-scaled fit.
func icOf(tb *Table, m Model, fr *FitResult, opt SelectionOptions, d float64) float64 {
	k := float64(m.NumParams())
	switch opt.IC {
	case BIC:
		mObs := float64(tb.Observed()) / d
		if mObs < 2 {
			mObs = 2
		}
		return math.Log(mObs)*k - 2*fr.LogLik
	default:
		return 2*k - 2*fr.LogLik
	}
}
