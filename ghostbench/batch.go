package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"time"

	"ghosts/internal/core"
	"ghosts/internal/dataset"
	"ghosts/internal/experiments"
	"ghosts/internal/parallel"
	"ghosts/internal/strata"
	"ghosts/internal/telemetry"
	"ghosts/internal/universe"
)

// batchExperiments is the fixed experiment set of one batch run: what a
// researcher pays on every `ghosts -exp` run at tiny scale.
var batchExperiments = []string{"summary", "table3", "table5", "fig8", "estimators"}

// batchUniverse is the simulated Internet of the batch workload. It is
// fixed, so every seed does the same amount of work; the seed drives the
// nine sources' sampling of it.
const batchUniverse = 1

// batchPath is the batch path: a fresh experiments.Env at tiny scale
// running batchExperiments, once per round. It is never a workload's own
// path: its set-up, building the Env, is lazy and takes microseconds.
type batchPath struct {
	cfg    universe.Config
	walls  []float64
	absErr float64
}

func (p *batchPath) setup(b *bench, own bool) error {
	p.cfg = universe.TinyConfig(batchUniverse)
	return nil
}

func (p *batchPath) round(b *bench, _ time.Duration) {
	wall, e, _ := batchIteration(b, newTracer(false), p.cfg, -1)
	p.walls = append(p.walls, seconds(wall))
	p.absErr = e
}

func (p *batchPath) finish(b *bench) {
	b.set("batch_wall_s", "s", median(p.walls))
	b.set("batch_abs_err_pct", "%", p.absErr)
	b.note("batch_wall_s: median of %d runs of %v: %.3f s", len(p.walls), batchExperiments, p.walls)
}

// batchIteration runs the experiment set against a fresh Env, checks its
// outputs, and returns the wall time, |log-linear error vs truth| in
// percent at the final window, and the Env. With a span parent ≥ 0 it
// first collects and folds every window inside their own spans, so the
// experiments' spans hold only estimation and rendering.
func batchIteration(b *bench, tr *tracer, cfg universe.Config, parent int) (time.Duration, float64, *experiments.Env) {
	e := experiments.New(cfg, b.seed)
	start := time.Now()
	if parent >= 0 {
		last := len(e.Win) - 1
		tr.timed("dataset.collect", parent, 0, func() {
			for i := range e.Win {
				e.Bundle(i, dataset.DefaultOptions())
			}
		})
		tr.timed("strata.fold", parent, 0, func() {
			for i := range e.Win {
				e.StratHists(i, strata.ByAge, false)
			}
			e.StratHists(last, strata.ByAge, true)
		})
	}
	var absErr float64
	for _, id := range batchExperiments {
		var out experiments.Renderable
		var buf bytes.Buffer
		var err error
		tr.timed("experiments."+id, parent, 0, func() {
			err = contained(func() {
				ex, ok := experiments.Lookup(id)
				if !ok {
					panic("unknown experiment " + id)
				}
				out = ex.Run(e)
				out.Render(&buf)
			})
		})
		if err == nil && buf.Len() == 0 {
			err = fmt.Errorf("batch: %s rendered nothing", id)
		}
		if err == nil {
			err = checkExperiment(id, out)
		}
		if d, ok := out.(*experiments.EstimatorsData); ok && err == nil {
			absErr, err = llmError(d)
		}
		b.op(err)
	}
	wall := time.Since(start)
	// Every window estimate of the main series (cached by the Env, so this
	// recomputes nothing) must be finite and cover the observed union.
	for _, s24 := range []bool{false, true} {
		for _, we := range e.Estimates(dataset.DefaultOptions(), s24, false) {
			if !finite(we.Est) || we.Est < we.Observed {
				b.problem("batch: window %s (s24=%v) estimate %v below observed %v", we.Window.Label(), s24, we.Est, we.Observed)
			}
		}
	}
	return wall, absErr, e
}

// checkExperiment checks the typed result of one experiment: every
// estimate finite, and capture–recapture estimates at least the observed
// count.
func checkExperiment(id string, out experiments.Renderable) error {
	switch d := out.(type) {
	case *experiments.Table3Data:
		for _, r := range d.Rows {
			if !finite(r.RMSEAddrs) || !finite(r.MAEAddrs) || !finite(r.RMSES24) || !finite(r.MAES24) {
				return fmt.Errorf("batch: table3 %s has a non-finite error", r.Setting)
			}
		}
	case *experiments.Table5Data:
		for k, v := range d.EstAddrs {
			if !finite(v) || v < d.Observed[0] {
				return fmt.Errorf("batch: table5 %s address estimate %v below observed %v", k, v, d.Observed[0])
			}
		}
		for k, v := range d.EstS24 {
			if !finite(v) || v < d.Observed[1] {
				return fmt.Errorf("batch: table5 %s /24 estimate %v below observed %v", k, v, d.Observed[1])
			}
		}
	case *experiments.GrowthByStratum:
		if len(d.Labels) == 0 {
			return fmt.Errorf("batch: %s has no strata", id)
		}
		for i := range d.Labels {
			if !finite(d.EstAbs[i]) || !finite(d.EstRel[i]) {
				return fmt.Errorf("batch: %s stratum %s growth is not finite", id, d.Labels[i])
			}
		}
	case *experiments.EstimatorsData:
		var observed float64
		for _, r := range d.Rows {
			if !finite(r.Estimate) || !finite(r.ErrPct) {
				return fmt.Errorf("batch: estimator %q is not finite", r.Name)
			}
			if r.Name == "Observed union" {
				observed = r.Estimate
			}
		}
		// The capture–recapture family is bounded below by the union;
		// the ping-based baselines are not.
		for _, r := range d.Rows {
			switch r.Name {
			case "Chao lower bound", "Sample coverage (Chao-Lee)", "Log-linear CR (paper)":
				if r.Estimate < observed {
					return fmt.Errorf("batch: estimator %q = %v below observed %v", r.Name, r.Estimate, observed)
				}
			}
		}
	}
	return nil
}

// llmError returns |error of the paper's log-linear estimate vs truth| in
// percent.
func llmError(d *experiments.EstimatorsData) (float64, error) {
	for _, r := range d.Rows {
		if r.Name == "Log-linear CR (paper)" {
			return math.Abs(r.ErrPct), nil
		}
	}
	return 0, fmt.Errorf("batch: estimators has no log-linear row")
}

// trace is the traced batch pass: one iteration under spans, then every
// window's address table built again under its own span.
func (p *batchPath) trace(b *bench) {
	root := b.tr.begin("batch.run", -1, 0)
	_, _, e := batchIteration(b, b.tr, p.cfg, root)
	b.tr.end(root)

	// The batch's own tables: every window's address table.
	var tables int
	for i := range e.Win {
		bu := e.Bundle(i, dataset.DefaultOptions())
		b.tr.timed("core.table", -1, int64(i), func() { core.TableFromSets(bu.Sets, bu.NameStrings()) })
		tables++
	}

	self := b.tr.selfTime()
	b.set("dataset.collect_s", "s", seconds(self["dataset.collect"]))
	b.set("core.table_ms", "ms", millis(self["core.table"])/float64(tables))
	b.set("strata.fold_ms", "ms", millis(self["strata.fold"]))
	for _, id := range batchExperiments {
		b.set("experiments."+id+"_s", "s", seconds(self["experiments."+id]))
	}
}

// coreInput is one table and the estimator configured for it.
type coreInput struct {
	tb  *core.Table
	est *core.Estimator
}

// coreCounts sets the core/stats counters from a workload's telemetry.
func coreCounts(b *bench, rep *telemetry.Report) {
	b.set("core.candidate_fits", "count", float64(rep.Select.CandidateFits))
	b.set("core.select_rounds", "count", float64(rep.Select.Rounds))
	b.set("core.warm_starts", "count", float64(rep.Fit.SweepWarmStarts))
	b.set("core.fit_pool_hit_rate", "ratio", rep.Pool.HitRate)
	b.note("core.fit_pool_hit_rate: base %d scratch checkouts", rep.Pool.Gets)
	b.set("stats.fits", "count", float64(rep.Fit.Count))
	b.set("stats.irls_iters", "count", float64(rep.Fit.Iterations.Sum))
	b.set("stats.non_converged", "count", float64(rep.Fit.NonConverged))
}

// coreBreakdown times SelectModelCtx, FitModel and ProfileIntervalScaledCtx
// one by one on the given tables, at one worker and at full width, and
// sets the core.*_ms, stats.fit_us and parallel.speedup metrics.
func coreBreakdown(b *bench, tables []coreInput) {
	ctx := context.Background()
	run := func(tag string) (sel, fit, prof time.Duration, fits int64) {
		rec := telemetry.NewRecorder()
		for i, in := range tables {
			tb, _ := in.tb.DropEmptySources()
			limit := in.est.Limit
			if limit <= 0 {
				limit = math.Inf(1)
			}
			res, err := in.est.EstimatePoint(tb)
			if err != nil {
				b.problem("core breakdown: table %d: %v", i, err)
				continue
			}
			opt := core.SelectionOptions{IC: in.est.IC, Divisor: in.est.Divisor, Limit: limit, MaxTerms: in.est.MaxTerms, MaxOrder: in.est.MaxOrder}
			telemetry.Enable(rec)
			var m core.Model
			sel += b.tr.timed("core.select"+tag, -1, int64(i), func() { m, _, err = core.SelectModelCtx(ctx, tb, opt) })
			if err != nil {
				telemetry.Disable()
				b.problem("core breakdown: select on table %d: %v", i, err)
				continue
			}
			var fr *core.FitResult
			fit += b.tr.timed("core.fit"+tag, -1, int64(i), func() { fr, err = core.FitModel(tb, m, limit, 1) })
			telemetry.Disable()
			if err != nil {
				b.problem("core breakdown: fit on table %d: %v", i, err)
				continue
			}
			prof += b.tr.timed("core.profile"+tag, -1, int64(i), func() {
				_, err = core.ProfileIntervalScaledCtx(ctx, tb, fr, limit, in.est.Alpha, limit, res.Divisor)
			})
			if err != nil {
				b.problem("core breakdown: profile on table %d: %v", i, err)
			}
		}
		return sel, fit, prof, rec.Fits.Load()
	}
	parallel.SetWorkers(1)
	sel1, fit1, prof1, fits1 := run(".serial")
	parallel.SetWorkers(0)
	sel, fit, prof, _ := run("")
	n := float64(len(tables))
	b.set("core.select_ms", "ms", millis(sel)/n)
	b.set("core.fit_ms", "ms", millis(fit)/n)
	b.set("core.profile_ms", "ms", millis(prof)/n)
	b.note("core.*_ms: mean per table over %d tables", len(tables))
	if fits1 > 0 {
		b.set("stats.fit_us", "us", micros(sel1+fit1)/float64(fits1))
		b.note("stats.fit_us: serial select+fit time over %d IRLS fits", fits1)
	} else {
		b.problem("core breakdown: no IRLS fits recorded")
	}
	b.set("parallel.speedup", "ratio", float64(sel1+fit1+prof1)/float64(sel+fit+prof))
	b.note("parallel.speedup: core time at 1 worker %.1f ms / at %d workers %.1f ms",
		millis(sel1+fit1+prof1), parallel.Workers(), millis(sel+fit+prof))
}

// contained runs f and converts a panic into an error.
func contained(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	f()
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
