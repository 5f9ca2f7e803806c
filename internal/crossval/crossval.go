package crossval

import (
	"context"
	"math"

	"ghosts/internal/core"
	"ghosts/internal/parallel"
	"ghosts/internal/sources"
	"ghosts/internal/telemetry"
)

// SourceResult is the outcome of one leave-one-source-as-universe run.
type SourceResult struct {
	Name  sources.Name
	Truth int64 // |universe| — the true population
	// ObsPing is |universe ∩ IPING| (Figure 3's "Observed ping").
	ObsPing int64
	// ObsAll is the number of universe members seen by any other source
	// (Figure 3's "Observed all").
	ObsAll int64
	// Est is the CR estimate of the universe size (ObsAll + Ẑ₀).
	Est    float64
	Lo, Hi float64 // profile-likelihood range (0 when not computed)
}

// Error returns the estimation error Est − Truth.
func (r SourceResult) Error() float64 { return r.Est - float64(r.Truth) }

// Run performs the leave-one-out cross-validation over one window's joint
// capture table: tb is the contingency table of the sources names (in the
// same order, so tb.T == len(names)), as core.TableFromSets builds it from
// their sets. Every held-out source's table, ping overlap and truth is a
// fold over tb (see foldTable), so callers that already hold the window's
// table pay for no set pass at all; Run only reads tb. withCI additionally
// computes profile intervals (Figure 3); it is the expensive part, so
// Table 3's sweeps leave it off. The per-source runs are independent, so
// they fan out over the parallel worker pool; results are collected in
// source order, identical to a serial run. ctx is checked between
// held-out sources (and inside each source's model search and interval
// computation), and the call returns nil results plus ctx.Err() once the
// context is done.
func Run(ctx context.Context, names []sources.Name, tb *core.Table, est *core.Estimator, withCI bool) ([]SourceResult, error) {
	k := tb.T
	sp := telemetry.Active().StartSpan("crossval.run")
	defer sp.End(int64(k))
	pingIdx := -1
	for i, n := range names {
		if n == sources.IPING {
			pingIdx = i
		}
	}
	joint := tb.Counts
	results := make([]SourceResult, k)
	done := make([]bool, k)
	err := parallel.ForEachCtx(ctx, k, func(i int) {
		truth := tb.SourceTotal(i)
		if truth == 0 {
			return
		}
		res := SourceResult{Name: names[i], Truth: truth}
		if k == 1 {
			// No co-source saw anything: the estimate is the observed
			// count, zero.
			results[i], done[i] = res, true
			return
		}
		held := foldTable(joint, k, i)
		if pingIdx >= 0 && pingIdx != i {
			res.ObsPing = foldOverlap(joint, 1<<uint(i)|1<<uint(pingIdx))
		}
		res.ObsAll = held.Observed()
		// The universe size itself bounds the population: the estimator's
		// truncation limit is min(global limit, |universe|).
		sub := *est
		if sub.Limit <= 0 || sub.Limit > float64(truth) {
			sub.Limit = float64(truth)
		}
		r, err := sub.Run(ctx, held, core.RunOptions{Interval: withCI})
		if err != nil {
			if ctx.Err() != nil {
				// Canceled mid-estimate: the whole run fails below;
				// recording a fallback here would fabricate a result.
				return
			}
			// Degenerate table (e.g. one non-empty co-source): fall back
			// to the observed count.
			res.Est = float64(res.ObsAll)
		} else {
			res.Est = r.N
			res.Lo, res.Hi = r.Interval.Lo, r.Interval.Hi
		}
		results[i] = res
		done[i] = true
	})
	if err != nil {
		return nil, err
	}
	out := make([]SourceResult, 0, k)
	for i := range results {
		if done[i] {
			out = append(out, results[i])
		}
	}
	return out, nil
}

// foldTable builds the contingency table of the k−1 sources other than i,
// restricted to source i's address set, from the joint k-source capture
// histogram. An address of the universe (history f with bit i set) is seen
// by co-source subset h = f with bit i deleted and the higher bits shifted
// down one; h = 0 — addresses only the held-out source saw — stay out of
// the table, exactly as addresses absent from every intersected set never
// reach TableFromSets. The folded table is therefore cell-for-cell
// identical to the one built from materialised intersections.
func foldTable(joint []int64, k, i int) *core.Table {
	tb := core.NewTable(k - 1)
	bitI := 1 << uint(i)
	low := bitI - 1
	for f := bitI; f < len(joint); f++ {
		if f&bitI == 0 || joint[f] == 0 {
			continue
		}
		h := f&low | f>>1&^low
		if h != 0 {
			tb.Counts[h] += joint[f]
		}
	}
	return tb
}

// foldOverlap returns the number of addresses whose capture history
// contains every source in mask — for mask = {i, ping} this is
// |sets[i] ∩ sets[ping]| without materialising the intersection.
func foldOverlap(joint []int64, mask int) int64 {
	var n int64
	for f := mask; f < len(joint); f++ {
		if f&mask == mask {
			n += joint[f]
		}
	}
	return n
}

// Errors aggregates RMSE and MAE over all results (Table 3 aggregates over
// sources and time windows).
func Errors(results []SourceResult) (rmse, mae float64) {
	if len(results) == 0 {
		return 0, 0
	}
	var se, ae float64
	for _, r := range results {
		e := r.Error()
		se += e * e
		ae += math.Abs(e)
	}
	n := float64(len(results))
	return math.Sqrt(se / n), ae / n
}
