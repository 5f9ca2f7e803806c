package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"testing"

	"ghosts/internal/parallel"
	"ghosts/internal/rng"
	"ghosts/internal/stats"
	"ghosts/internal/telemetry"
)

// selectModelReference is the stepwise search as it ran before the round's
// prologue was shared: every candidate fit recomputes its own start state
// (η, the log-likelihood, the first iteration's score sums and Σ ln y_s!)
// from its warm-start coefficients. It is the oracle SelectModelCtx must
// match bit for bit.
func selectModelReference(ctx context.Context, tb *Table, opt SelectionOptions) (Model, float64, error) {
	t := tb.T
	maxOrder := opt.MaxOrder
	if maxOrder <= 0 || maxOrder > t-1 {
		maxOrder = t - 1
	}
	maxTerms := opt.MaxTerms
	if maxTerms <= 0 {
		maxTerms = t * (t - 1) / 2
	}
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
	for len(cur.Terms) < maxTerms {
		if err := ctx.Err(); err != nil {
			return Model{}, 0, err
		}
		var cands []int
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
		fits := make([]*FitResult, len(cands))
		ics := make([]float64, len(cands))
		warm := curFit.Coef
		if err := parallel.ForEachCtx(ctx, len(cands), func(i int) {
			h := cands[i]
			cand := cur.With(h)
			fit, err := fitModelInit(tb, cand, opt.Limit, d, warmStart(cur, cand, h, warm), nil)
			if err != nil {
				return
			}
			fits[i] = fit
			ics[i] = icOf(tb, cand, fit, opt, d)
		}); err != nil {
			return Model{}, 0, err
		}
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

// prologueTable draws a t-source table whose first three sources (or as
// many as exist) are positively dependent in a hot subpopulation, so the
// search accepts terms and runs several rounds.
func prologueTable(r *rng.RNG, t int) *Table {
	base := make([]float64, t)
	hot := make([]float64, t)
	for j := range base {
		base[j] = 0.08 + 0.03*float64(j%4)
		hot[j] = base[j]
		if j < 3 {
			hot[j] = 0.6
		}
	}
	return sampleTable(r, 40000*t, base, hot, 0.3)
}

// selectionEffort runs one selection under a fresh telemetry recorder and
// returns its fit count and summed IRLS iterations with the result.
func selectionEffort(t *testing.T, sel func() (Model, float64, error)) (Model, float64, int64, int64) {
	t.Helper()
	rec := telemetry.NewRecorder()
	telemetry.Enable(rec)
	defer telemetry.Disable()
	m, ic, err := sel()
	if err != nil {
		t.Fatal(err)
	}
	return m, ic, rec.Fits.Load(), rec.FitIters.Sum()
}

// TestSelectSharedPrologueMatchesReference pins the shared round prologue
// to the per-candidate reference search: same model, bit-equal IC, the
// same fit count and IRLS iteration total, and — for every candidate of
// the final round — bit-equal coefficients, log-likelihood and iteration
// count with and without the shared start.
func TestSelectSharedPrologueMatchesReference(t *testing.T) {
	defer parallel.SetWorkers(0)
	r := rng.New(1515)
	for tt := 2; tt <= 9; tt++ {
		tb := prologueTable(r, tt)
		var maxCount int64
		for _, c := range tb.Counts {
			if c > maxCount {
				maxCount = c
			}
		}
		for _, limit := range []float64{math.Inf(1), 1.5 * float64(maxCount)} {
			for _, dm := range []DivisorMode{Fixed1, Fixed1000, Adaptive1000} {
				for _, ic := range []IC{BIC, AIC} {
					for _, workers := range []int{1, 4} {
						name := fmt.Sprintf("t=%d limit=%v divisor=%+v %v workers=%d", tt, limit, dm, ic, workers)
						parallel.SetWorkers(workers)
						opt := SelectionOptions{IC: ic, Divisor: dm, Limit: limit}
						wantM, wantIC, wantFits, wantIters := selectionEffort(t, func() (Model, float64, error) {
							return selectModelReference(context.Background(), tb, opt)
						})
						gotM, gotIC, gotFits, gotIters := selectionEffort(t, func() (Model, float64, error) {
							return SelectModel(tb, opt)
						})
						if !gotM.Equal(wantM) {
							t.Fatalf("%s: selected %v, reference %v", name, gotM.Terms, wantM.Terms)
						}
						if math.Float64bits(gotIC) != math.Float64bits(wantIC) {
							t.Fatalf("%s: IC %v, reference %v", name, gotIC, wantIC)
						}
						if gotFits != wantFits || gotIters != wantIters {
							t.Fatalf("%s: %d fits / %d IRLS iterations, reference %d / %d",
								name, gotFits, gotIters, wantFits, wantIters)
						}
						if workers == 1 {
							checkCandidateFits(t, name, tb, gotM, limit, opt.Divisor.divisor(tb))
						}
					}
				}
			}
		}
	}
}

// checkCandidateFits fits every hierarchical one-term extension of parent
// from a shared start and from scratch, and requires bit-identical fits.
func checkCandidateFits(t *testing.T, name string, tb *Table, parent Model, limit, d float64) {
	t.Helper()
	pfit, err := fitModelInit(tb, parent, limit, d, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	pro := new(fitScratch)
	y, limits := pro.load(tb, tb.T, limit, d)
	pro.start.LogFactSum = stats.Lattice{T: tb.T}.LogFactorialSum(y)
	ld := stats.Lattice{T: tb.T, Masks: parent.ColumnMasks()}
	if err := ld.Prologue(y, limits, pfit.Coef, &pro.start, &pro.ws); err != nil {
		t.Fatal(err)
	}
	for h := 3; h < 1<<uint(tb.T); h++ {
		if bits.OnesCount(uint(h)) == tb.T || parent.Has(h) || !parent.Hierarchical(h) {
			continue
		}
		cand := parent.With(h)
		init := warmStart(parent, cand, h, pfit.Coef)
		want, wantErr := fitModelInit(tb, cand, limit, d, init, nil)
		got, gotErr := fitModelInit(tb, cand, limit, d, init, &pro.start)
		if (wantErr != nil) != (gotErr != nil) {
			t.Fatalf("%s: candidate %s errors differ: shared %v, reference %v", name, TermName(h), gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		if math.Float64bits(got.LogLik) != math.Float64bits(want.LogLik) || got.Converged != want.Converged {
			t.Fatalf("%s: candidate %s log-likelihood %v, reference %v", name, TermName(h), got.LogLik, want.LogLik)
		}
		for j := range want.Coef {
			if math.Float64bits(got.Coef[j]) != math.Float64bits(want.Coef[j]) {
				t.Fatalf("%s: candidate %s coefficient %d = %v, reference %v", name, TermName(h), j, got.Coef[j], want.Coef[j])
			}
		}
	}
}
