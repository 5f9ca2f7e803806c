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
// prologue was shared and candidates were screened: every candidate fit
// recomputes its own start state (η, the log-likelihood, the first
// iteration's score sums and Σ ln y_s!) from its warm-start coefficients
// and runs to full convergence. It returns the selected model's fit with
// the model and IC, and is the oracle selectModel must match bit for bit.
func selectModelReference(ctx context.Context, tb *Table, opt SelectionOptions) (Model, float64, *FitResult, error) {
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
	curFit, err := fitModelInit(tb, cur, opt.Limit, d, nil)
	if err != nil {
		return cur, 0, nil, err
	}
	curIC := icOf(tb.Observed(), cur.NumParams(), curFit.LogLik, opt, d)
	for len(cur.Terms) < maxTerms {
		if err := ctx.Err(); err != nil {
			return Model{}, 0, nil, err
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
			fit, err := fitModelInit(tb, cand, opt.Limit, d, warmStart(cur, cand, h, warm))
			if err != nil {
				return
			}
			fits[i] = fit
			ics[i] = icOf(tb.Observed(), cand.NumParams(), fit.LogLik, opt, d)
		}); err != nil {
			return Model{}, 0, nil, err
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
	return cur, curIC, curFit, nil
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
	return m, ic, rec.Fits.Load(), rec.FitIters.Snapshot().Sum
}

// TestSelectSharedPrologueMatchesReference pins the shared round prologue
// to the per-candidate reference search: same model, bit-equal IC, no more
// IRLS iterations in total, and — for every candidate of the final round —
// bit-equal coefficients, log-likelihood and iteration count with and
// without the shared start.
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
							m, ic, _, err := selectModelReference(context.Background(), tb, opt)
							return m, ic, err
						})
						gotM, gotIC, gotFits, gotIters := selectionEffort(t, func() (Model, float64, error) {
							return SelectModelCtx(context.Background(), tb, opt)
						})
						if !gotM.Equal(wantM) {
							t.Fatalf("%s: selected %v, reference %v", name, gotM.Terms, wantM.Terms)
						}
						if math.Float64bits(gotIC) != math.Float64bits(wantIC) {
							t.Fatalf("%s: IC %v, reference %v", name, gotIC, wantIC)
						}
						// Screening may stop a candidate early and polishing
						// resumes it, so the kernel runs differ in number; the
						// IRLS work can only shrink.
						if gotIters > wantIters {
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
// as the search does — screened from the shared start, then polished — and
// from scratch with Fit, and requires bit-identical fits.
func checkCandidateFits(t *testing.T, name string, tb *Table, parent Model, limit, d float64) {
	t.Helper()
	pfit, err := fitModelInit(tb, parent, limit, d, nil)
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
		cld := stats.Lattice{T: tb.T, Masks: cand.ColumnMasks()}
		want, wantErr := cld.Fit(y, limits, init, nil)
		got, gotErr := cld.Screen(y, limits, init, &pro.start, nil)
		if gotErr == nil {
			got, gotErr = cld.Polish(y, limits, got, pro.start.LogFactSum, nil)
		}
		if (wantErr != nil) != (gotErr != nil) {
			t.Fatalf("%s: candidate %s errors differ: shared %v, reference %v", name, TermName(h), gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		if math.Float64bits(got.LogLik) != math.Float64bits(want.LogLik) || got.Converged != want.Converged ||
			got.Iterations != want.Iterations {
			t.Fatalf("%s: candidate %s log-likelihood %v after %d iterations, reference %v after %d",
				name, TermName(h), got.LogLik, got.Iterations, want.LogLik, want.Iterations)
		}
		for j := range want.Coef {
			if math.Float64bits(got.Coef[j]) != math.Float64bits(want.Coef[j]) {
				t.Fatalf("%s: candidate %s coefficient %d = %v, reference %v", name, TermName(h), j, got.Coef[j], want.Coef[j])
			}
		}
	}
}

// sparseTable draws a small t-source table with low capture rates, so many
// cells hold sampling zeros and IRLS converges only linearly on the
// interactions that touch them.
func sparseTable(r *rng.RNG, t int) *Table {
	base := make([]float64, t)
	hot := make([]float64, t)
	for j := range base {
		base[j] = 0.04 + 0.02*float64(j%3)
		hot[j] = base[j]
		if j < 2 {
			hot[j] = 0.5
		}
	}
	return sampleTable(r, 800*t, base, hot, 0.2)
}

// symmetricTable folds tb onto itself under the swap of sources 1 and 2,
// so candidates that differ only by that swap tie in exact arithmetic and
// differ only by rounding: the near-ties the polish band exists for.
func symmetricTable(tb *Table) *Table {
	out := NewTable(tb.T)
	for s := range tb.Counts {
		swapped := s&^3 | (s&1)<<1 | (s>>1)&1
		out.Counts[s] = tb.Counts[s] + tb.Counts[swapped]
	}
	return out
}

// TestScreenedSelectionMatchesFullSearch pins screen-then-polish to the
// reference search, which fits every candidate to full tolerance: the same
// model, bit-equal IC, and the selected fit's coefficients, log-likelihood
// and convergence flag bit for bit. The corpus spans t = 2–9, dense and
// sparse tables and their symmetrised near-tie twins, +Inf and binding
// limits, the three divisor modes, BIC and AIC, and 1 and 4 workers; the
// test fails if nothing was screened or polished.
func TestScreenedSelectionMatchesFullSearch(t *testing.T) {
	defer parallel.SetWorkers(0)
	rec := telemetry.NewRecorder()
	telemetry.Enable(rec)
	defer telemetry.Disable()
	r := rng.New(1717)
	combo := 0
	for tt := 2; tt <= 9; tt++ {
		for _, tb := range []*Table{prologueTable(r, tt), sparseTable(r, tt), symmetricTable(prologueTable(r, tt)), symmetricTable(sparseTable(r, tt))} {
			var maxCount int64
			for _, c := range tb.Counts {
				if c > maxCount {
					maxCount = c
				}
			}
			// maxCount+5 truncates the largest cells within a few counts
			// of their rate: the limit binds.
			for _, limit := range []float64{math.Inf(1), float64(maxCount + 5)} {
				for _, dm := range []DivisorMode{Fixed1, Fixed1000, Adaptive1000} {
					// Alternate the worker count across the corpus rather
					// than crossing it, to keep the race step short:
					// TestSelectModelDeterministicAcrossWorkers pins
					// worker-count invariance itself.
					combo++
					workers := 1 + 3*(combo%2)
					for _, ic := range []IC{BIC, AIC} {
						name := fmt.Sprintf("t=%d observed=%d limit=%v divisor=%+v %v workers=%d",
							tt, tb.Observed(), limit, dm, ic, workers)
						parallel.SetWorkers(workers)
						opt := SelectionOptions{IC: ic, Divisor: dm, Limit: limit}
						wantM, wantIC, wantFit, wantErr := selectModelReference(context.Background(), tb, opt)
						gotM, gotIC, gotFit, gotErr := selectModel(context.Background(), tb, opt)
						if (wantErr != nil) != (gotErr != nil) {
							t.Fatalf("%s: error %v, reference %v", name, gotErr, wantErr)
						}
						if wantErr != nil {
							continue
						}
						if !gotM.Equal(wantM) {
							t.Fatalf("%s: selected %v, reference %v", name, gotM.Terms, wantM.Terms)
						}
						if math.Float64bits(gotIC) != math.Float64bits(wantIC) {
							t.Fatalf("%s: IC %v, reference %v", name, gotIC, wantIC)
						}
						if math.Float64bits(gotFit.LogLik) != math.Float64bits(wantFit.LogLik) || gotFit.Converged != wantFit.Converged {
							t.Fatalf("%s: selected fit log-likelihood %v (converged %v), reference %v (%v)",
								name, gotFit.LogLik, gotFit.Converged, wantFit.LogLik, wantFit.Converged)
						}
						for j := range wantFit.Coef {
							if math.Float64bits(gotFit.Coef[j]) != math.Float64bits(wantFit.Coef[j]) {
								t.Fatalf("%s: coefficient %d = %v, reference %v", name, j, gotFit.Coef[j], wantFit.Coef[j])
							}
						}
					}
				}
			}
		}
	}
	if rec.Screened.Load() == 0 || rec.Polished.Load() == 0 {
		t.Fatalf("screened %d, polished %d candidates: the corpus exercises nothing", rec.Screened.Load(), rec.Polished.Load())
	}
	t.Logf("screened %d candidate fits, polished %d", rec.Screened.Load(), rec.Polished.Load())
}
