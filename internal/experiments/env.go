// Package experiments wires the full pipeline together and reproduces
// every table and figure of the paper's evaluation: simulate the universe,
// collect the nine sources per window, preprocess (routed filtering, spoof
// removal), estimate with log-linear CR, and render paper-style tables and
// series. Each experiment has a builder (Table2..Table6, Figure2..Figure12)
// returning both typed data and a renderable report.
package experiments

import (
	"context"
	"math"
	"sync"

	"ghosts/internal/core"
	"ghosts/internal/dataset"
	"ghosts/internal/ipset"
	"ghosts/internal/parallel"
	"ghosts/internal/sources"
	"ghosts/internal/strata"
	"ghosts/internal/telemetry"
	"ghosts/internal/universe"
	"ghosts/internal/windows"
)

// Env is a lazily-evaluated experiment environment. All collected bundles
// and window estimates are cached, so experiments sharing inputs (most of
// them) pay for the pipeline once.
type Env struct {
	U     *universe.Universe
	Suite *sources.Suite
	Win   []windows.Window
	// Estimator configuration (the paper's defaults, §5.1).
	IC       core.IC
	Divisor  core.DivisorMode
	MaxTerms int
	MaxOrder int

	mu          sync.Mutex
	raws        map[rawKey]*dataset.Raw
	bundles     map[bundleKey]*dataset.Bundle
	estimates   map[estKey][]WindowEstimate
	stratCache  map[stratKey][]map[string]float64
	stratObs    map[stratKey][]map[string]float64
	labelTables map[strata.Key]*strata.LabelTable
	stratHists  map[histKey]*strata.HistSet
}

type stratKey struct {
	k   strata.Key
	s24 bool
}

type rawKey struct {
	win        int
	spoofScale float64
}

type bundleKey struct {
	win int
	opt dataset.Options
}

type estKey struct {
	opt    dataset.Options
	s24    bool
	withCI bool
}

type histKey struct {
	win int
	k   strata.Key
	s24 bool
}

// New builds an environment over a fresh universe.
func New(cfg universe.Config, seed uint64) *Env {
	u := universe.New(cfg)
	return &Env{
		U:           u,
		Suite:       sources.NewSuite(u, seed),
		Win:         windows.Paper(),
		IC:          core.BIC,
		Divisor:     core.Adaptive1000,
		MaxTerms:    8,
		MaxOrder:    2,
		raws:        make(map[rawKey]*dataset.Raw),
		bundles:     make(map[bundleKey]*dataset.Bundle),
		estimates:   make(map[estKey][]WindowEstimate),
		stratCache:  make(map[stratKey][]map[string]float64),
		stratObs:    make(map[stratKey][]map[string]float64),
		labelTables: make(map[strata.Key]*strata.LabelTable),
		stratHists:  make(map[histKey]*strata.HistSet),
	}
}

// Estimator returns the configured estimator with the given truncation
// limit.
func (e *Env) Estimator(limit float64) *core.Estimator {
	est := core.NewEstimator(e.IC, e.Divisor, limit)
	est.MaxTerms = e.MaxTerms
	est.MaxOrder = e.MaxOrder
	return est
}

// raw collects (or returns the cached) raw per-source observations for
// window i. Raw collection depends only on (window, spoofScale), so bundle
// variants that differ in preprocessing flags share it.
func (e *Env) raw(i int, spoofScale float64) *dataset.Raw {
	key := rawKey{i, spoofScale}
	e.mu.Lock()
	r, ok := e.raws[key]
	e.mu.Unlock()
	if ok {
		return r
	}
	r = dataset.CollectRaw(e.U, e.Suite, e.Win[i], spoofScale)
	e.mu.Lock()
	if prev, ok := e.raws[key]; ok {
		r = prev
	} else {
		e.raws[key] = r
	}
	e.mu.Unlock()
	return r
}

// Bundle collects (or returns the cached) dataset bundle for window i.
func (e *Env) Bundle(i int, opt dataset.Options) *dataset.Bundle {
	key := bundleKey{i, opt}
	e.mu.Lock()
	b, ok := e.bundles[key]
	e.mu.Unlock()
	if ok {
		return b
	}
	b = e.raw(i, opt.SpoofScale).Assemble(e.U, e.Suite, opt)
	e.mu.Lock()
	// Keep the first stored bundle: its lazy /24 projection may already be
	// shared with other callers.
	if prev, ok := e.bundles[key]; ok {
		b = prev
	} else {
		e.bundles[key] = b
	}
	e.mu.Unlock()
	return b
}

// LabelTable returns the dense stratum labelling for key k, built once per
// environment and shared by every window's histogram fold.
func (e *Env) LabelTable(k strata.Key) *strata.LabelTable {
	e.mu.Lock()
	lt, ok := e.labelTables[k]
	e.mu.Unlock()
	if ok {
		return lt
	}
	lt = strata.BuildLabelTable(e.U, k)
	e.mu.Lock()
	if prev, ok := e.labelTables[k]; ok {
		lt = prev
	} else {
		e.labelTables[k] = lt
	}
	e.mu.Unlock()
	return lt
}

// StratHists returns window i's per-stratum capture histograms under key k
// (over /24 projections when s24 is set), folded once and cached. Table 5,
// the stratified series and the observed series all share it. A miss folds
// every key's histograms in one pass over the window's merged source pages
// (the page fold dominates and is key-independent), so the first key pays
// for all six.
func (e *Env) StratHists(i int, k strata.Key, s24 bool) *strata.HistSet {
	key := histKey{i, k, s24}
	e.mu.Lock()
	h, ok := e.stratHists[key]
	e.mu.Unlock()
	if ok {
		return h
	}
	b := e.Bundle(i, dataset.DefaultOptions())
	sets := b.Sets
	if s24 {
		sets = b.Sets24()
	}
	keys := strata.Keys()
	lts := make([]*strata.LabelTable, len(keys))
	for j, kj := range keys {
		lts[j] = e.LabelTable(kj)
	}
	hs := strata.CaptureHistogramsAll(lts, sets)
	e.mu.Lock()
	for j, kj := range keys {
		kj := histKey{i, kj, s24}
		if _, ok := e.stratHists[kj]; !ok {
			e.stratHists[kj] = hs[j]
		}
	}
	h = e.stratHists[key]
	e.mu.Unlock()
	return h
}

// WindowEstimate is the per-window outcome of the main pipeline.
type WindowEstimate struct {
	Window   windows.Window
	Routed   float64 // routed addresses (or /24s)
	Observed float64 // union of all sources
	Ping     float64 // IPING alone
	Est      float64 // CR point estimate
	Lo, Hi   float64 // profile interval (0 when not computed)
}

// Estimates runs the default pipeline over every window, estimating either
// addresses or /24 subnets.
func (e *Env) Estimates(opt dataset.Options, s24 bool, withCI bool) []WindowEstimate {
	key := estKey{opt, s24, withCI}
	e.mu.Lock()
	cached, ok := e.estimates[key]
	e.mu.Unlock()
	if ok {
		return cached
	}
	sp := telemetry.Active().StartSpan("env.estimates")
	defer sp.End(int64(len(e.Win)))
	// Phase 1 — windows are independent for collection and table building:
	// run them concurrently, writing each result into its window's slot so
	// the series is identical to a serial run. The observed union is the
	// table's cell sum, so no union set is materialised.
	out := make([]WindowEstimate, len(e.Win))
	tbs := make([]*core.Table, len(e.Win))
	limits := make([]float64, len(e.Win))
	parallel.ForEach(len(e.Win), func(i int) {
		b := e.Bundle(i, opt)
		we := WindowEstimate{Window: b.Window}
		sets := b.Sets
		limit := float64(b.RoutedAddrs)
		if s24 {
			sets = b.Sets24()
			limit = float64(b.Routed24)
		}
		we.Routed = limit
		if ping := b.Source(sources.IPING); ping != nil {
			if s24 {
				we.Ping = float64(ping.Slash24Len())
			} else {
				we.Ping = float64(ping.Len())
			}
		}
		tb := core.TableFromSets(sets, b.NameStrings())
		we.Observed = float64(tb.Observed())
		out[i], tbs[i], limits[i] = we, tb, limit
	})
	// Phase 2 — estimate the windows in order, warm-starting each final fit
	// from the previous window's when the selected model matches: adjacent
	// windows see near-identical populations, so the previous optimum is an
	// excellent IRLS seed.
	var warm *core.FitResult
	for i := range e.Win {
		res, err := e.Estimator(limits[i]).Run(context.Background(), tbs[i], core.RunOptions{Interval: withCI, Warm: warm})
		if err == nil {
			out[i].Est = res.N
			out[i].Lo, out[i].Hi = res.Interval.Lo, res.Interval.Hi
			warm = res.Fit
		} else {
			out[i].Est = out[i].Observed
			warm = nil
		}
	}
	e.mu.Lock()
	e.estimates[key] = out
	e.mu.Unlock()
	return out
}

// LinearGrowth fits per-year growth to the Est series by least squares
// over window end times.
func LinearGrowth(es []WindowEstimate, pick func(WindowEstimate) float64) float64 {
	if len(es) < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	n := float64(len(es))
	for _, w := range es {
		x := universe.YearOf(w.Window.End)
		y := pick(w)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

// StratSeries returns, for every window, the per-stratum estimated totals
// under the given key (addresses, or /24 subnets when s24 is set). Results
// are cached: Figure 6 and Table 6 share the RIR series.
//
// The series runs on the labelled histogram fast path: one fold per window
// yields every stratum's contingency table, and each stratum's windows are
// then estimated in order with cross-window warm starts. The package tests
// hold the Split-based reference the fold is checked against.
func (e *Env) StratSeries(k strata.Key, s24 bool) []map[string]float64 {
	ck := stratKey{k, s24}
	e.mu.Lock()
	cached, ok := e.stratCache[ck]
	e.mu.Unlock()
	if ok {
		return cached
	}
	sp := telemetry.Active().StartSpan("env.strat_series")
	defer sp.End(int64(len(e.Win)))
	// Phase 1 — per-window folds and routed sizes, concurrently.
	hs := make([]*strata.HistSet, len(e.Win))
	sizes := make([]map[string]strata.Size, len(e.Win))
	parallel.ForEach(len(e.Win), func(i int) {
		hs[i] = e.StratHists(i, k, s24)
		idxs := e.U.RoutedAllocs(e.Win[i].End)
		sizes[i] = strata.RoutedSizes(e.U, k, idxs)
	})
	// Phase 2 — per-stratum estimation. Strata are independent of each
	// other, so they fan out; within a stratum the windows run in order so
	// window i's final fit can warm-start from window i−1's.
	labels := e.LabelTable(k).Labels()
	tableOf := func(i int, label string) (*core.Table, float64, bool) {
		hist := hs[i].Hist(label)
		if hist == nil {
			return nil, 0, false
		}
		limit := math.Inf(1)
		if sz, ok := sizes[i][label]; ok {
			if s24 {
				limit = float64(sz.Slash24)
			} else {
				limit = float64(sz.Addrs)
			}
		}
		return &core.Table{T: hs[i].T, Counts: hist}, limit, true
	}
	out := e.stratSweep(labels, tableOf)
	e.mu.Lock()
	e.stratCache[ck] = out
	e.mu.Unlock()
	return out
}

// stratSweep estimates every stratum's window series. tableOf returns the
// stratum's contingency table and truncation limit for one window, or
// false when the stratum is unobserved there. Strata fan out in parallel;
// each stratum's windows run serially so adjacent fits chain warm starts.
func (e *Env) stratSweep(labels []string, tableOf func(i int, label string) (*core.Table, float64, bool)) []map[string]float64 {
	out := make([]map[string]float64, len(e.Win))
	for i := range out {
		out[i] = make(map[string]float64)
	}
	var mu sync.Mutex
	parallel.ForEach(len(labels), func(li int) {
		label := labels[li]
		vals := make([]float64, len(e.Win))
		has := make([]bool, len(e.Win))
		var warm *core.FitResult
		for i := range e.Win {
			tb, limit, ok := tableOf(i, label)
			if !ok {
				continue
			}
			obs := tb.Observed()
			if obs == 0 {
				continue
			}
			if obs < MinStratum {
				vals[i], has[i] = float64(obs), true
				continue
			}
			res, err := e.Estimator(limit).Run(context.Background(), tb, core.RunOptions{Warm: warm})
			if err != nil {
				vals[i], has[i] = float64(obs), true
				warm = nil
			} else {
				vals[i], has[i] = res.N, true
				warm = res.Fit
			}
		}
		mu.Lock()
		for i, ok := range has {
			if ok {
				out[i][label] = vals[i]
			}
		}
		mu.Unlock()
	})
	return out
}

// StratObservedSeries returns per-window observed (not estimated) totals
// per stratum, for the "Observed" halves of Figures 7–9. Each window's
// totals are cell sums over its cached stratum histograms — no per-stratum
// sets, no union sets — and the series itself is cached.
func (e *Env) StratObservedSeries(k strata.Key, s24 bool) []map[string]float64 {
	ck := stratKey{k, s24}
	e.mu.Lock()
	cached, ok := e.stratObs[ck]
	e.mu.Unlock()
	if ok {
		return cached
	}
	sp := telemetry.Active().StartSpan("env.strat_observed")
	defer sp.End(int64(len(e.Win)))
	out := make([]map[string]float64, len(e.Win))
	parallel.ForEach(len(e.Win), func(i int) {
		h := e.StratHists(i, k, s24)
		m := make(map[string]float64)
		h.Range(func(label string, hist []int64) bool {
			if n := strata.Observed(hist); n > 0 {
				m[label] = float64(n)
			}
			return true
		})
		out[i] = m
	})
	e.mu.Lock()
	e.stratObs[ck] = out
	e.mu.Unlock()
	return out
}

// EstimateSets runs a point estimate on arbitrary parallel observation
// sets with the given truncation limit (+Inf allowed), falling back to the
// observed union size when the fit degenerates.
func (e *Env) EstimateSets(sets []*ipset.Set, limit float64) (est float64, observed int64) {
	tb := core.TableFromSets(sets, nil)
	observed = tb.Observed()
	if observed == 0 {
		return 0, 0
	}
	if limit <= 0 {
		limit = math.Inf(1)
	}
	res, err := e.Estimator(limit).Run(context.Background(), tb, core.RunOptions{})
	if err != nil {
		return float64(observed), observed
	}
	return res.N, observed
}
