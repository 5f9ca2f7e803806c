package core

import (
	"math"
	"math/bits"
	"sort"
	"strconv"
	"sync"

	"ghosts/internal/stats"
	"ghosts/internal/telemetry"
)

// Model identifies a hierarchical log-linear model by its interaction
// terms. Main effects u_1..u_t and the intercept are always included; Terms
// lists the interaction bitmasks (each with ≥2 bits set). The paper fixes
// the highest-order term u_{12…t} to zero (§3.3.1), which simply means it
// is never included here.
type Model struct {
	T     int
	Terms []int // interaction bitmasks, each with ≥2 bits set, sorted
}

// IndependenceModel returns the model with no interactions (all sources
// independent).
func IndependenceModel(t int) Model { return Model{T: t} }

// NumParams returns k, the number of free parameters: intercept + t main
// effects + interactions.
func (m Model) NumParams() int { return 1 + m.T + len(m.Terms) }

// With returns a copy of m with the interaction term h added.
func (m Model) With(h int) Model {
	terms := make([]int, 0, len(m.Terms)+1)
	terms = append(terms, m.Terms...)
	terms = append(terms, h)
	sort.Ints(terms)
	return Model{T: m.T, Terms: terms}
}

// Equal reports whether two models are identical: same source count and
// the same sorted interaction terms. The sweep warm start keys on it — an
// adjacent window's coefficients are only a valid IRLS seed when the
// design is the same.
func (m Model) Equal(o Model) bool {
	if m.T != o.T || len(m.Terms) != len(o.Terms) {
		return false
	}
	for i, h := range m.Terms {
		if o.Terms[i] != h {
			return false
		}
	}
	return true
}

// Has reports whether interaction term h is in the model. Terms are kept
// sorted, so this is a binary search — it sits inside the O(2^t) hierarchy
// check of every selection round.
func (m Model) Has(h int) bool {
	i := sort.SearchInts(m.Terms, h)
	return i < len(m.Terms) && m.Terms[i] == h
}

// Hierarchical reports whether adding term h keeps the model hierarchical:
// every sub-interaction of h with ≥2 bits must already be present. (Main
// effects are always present.)
func (m Model) Hierarchical(h int) bool {
	if bits.OnesCount(uint(h)) < 2 {
		return false
	}
	// Iterate proper non-empty subsets of h with ≥2 bits.
	for sub := (h - 1) & h; sub > 0; sub = (sub - 1) & h {
		if bits.OnesCount(uint(sub)) >= 2 && !m.Has(sub) {
			return false
		}
	}
	return true
}

// TermName renders an interaction mask like "u{1,3}" using 1-based decimal
// source indices (matching the paper's u₁₃ notation).
func TermName(h int) string {
	out := []byte("u{")
	first := true
	for i := 0; i < 16; i++ {
		if h&(1<<uint(i)) != 0 {
			if !first {
				out = append(out, ',')
			}
			out = strconv.AppendInt(out, int64(i+1), 10)
			first = false
		}
	}
	return string(append(out, '}'))
}

// ColumnMasks returns the design's column masks in design order: the
// intercept (mask 0), the t main effects (single bits), then the
// interaction terms. Column j of the design is the subset indicator
// x[s][j] = 1 iff mask_j ⊆ s — exactly the structure stats.Lattice
// exploits, so this is the bridge between a Model and the lattice kernel.
func (m Model) ColumnMasks() []int { return m.appendColumnMasks(nil) }

// appendColumnMasks writes the column masks into dst (reusing its backing
// array) and returns it.
func (m Model) appendColumnMasks(dst []int) []int {
	dst = dst[:0]
	dst = append(dst, 0)
	for i := 0; i < m.T; i++ {
		dst = append(dst, 1<<uint(i))
	}
	return append(dst, m.Terms...)
}

// FitResult is a fitted log-linear CR model.
type FitResult struct {
	Model     Model
	Coef      []float64 // intercept, mains, interactions (design order)
	LogLik    float64   // maximised log-likelihood of the observed cells
	Z0        float64   // estimated unobserved count exp(u)
	N         float64   // M + Z0
	Converged bool
}

// fitScratch bundles the per-goroutine buffers of one model fit: the GLM
// workspace plus the response, truncation and column-mask vectors. Pooled
// so the stepwise search and the experiment fan-outs stop allocating them
// per fit. The stepwise search also keeps its round's shared start state
// (start) in a scratch it checks out for the whole selection.
type fitScratch struct {
	ws     stats.Workspace
	y      []float64
	limits []float64
	masks  []int
	start  stats.LatticeStart
}

var fitPool = sync.Pool{New: func() any {
	telemetry.Active().PoolMiss()
	return new(fitScratch)
}}

// getScratch checks a scratch out of fitPool; hand it back with
// fitPool.Put.
func getScratch() *fitScratch {
	telemetry.Active().PoolGet()
	return fitPool.Get().(*fitScratch)
}

// FitModel fits model m to the table by maximum likelihood. A finite limit
// right-truncates every cell's Poisson distribution at limit (§3.3.1: the
// size of the publicly routed space); pass math.Inf(1) for plain Poisson.
// scale divides all counts before fitting (the divisor heuristic, §3.3.2);
// use 1 for estimation.
func FitModel(tb *Table, m Model, limit float64, scale float64) (*FitResult, error) {
	return fitModelInit(tb, m, limit, scale, nil)
}

// fitModelInit is FitModel with warm-start coefficients in design order.
// Fits run on the lattice (zeta transform) kernel: the CR design is always
// a subset indicator over the capture-history lattice. A shape the kernel
// rejects (more columns than observable cells, as for a one-source table)
// is returned as its error.
func fitModelInit(tb *Table, m Model, limit float64, scale float64, init []float64) (*FitResult, error) {
	sc := getScratch()
	defer fitPool.Put(sc)
	return fitModelScratch(tb, m, limit, scale, init, sc)
}

// fitModelScratch is fitModelInit against a caller-owned scratch: the
// bootstrap holds one fitScratch per pool worker and refits every
// replicate that worker claims through the same lattice workspace, instead
// of cycling the shared pool per replicate. The scratch is fully
// overwritten on every call, so reuse cannot change any fit's numbers.
func fitModelScratch(tb *Table, m Model, limit float64, scale float64, init []float64, sc *fitScratch) (*FitResult, error) {
	if scale < 1 {
		scale = 1
	}
	sc.masks = m.appendColumnMasks(sc.masks)
	ld := stats.Lattice{T: m.T, Masks: sc.masks}
	y, limits := sc.load(tb, m.T, limit, scale)
	res, err := ld.Fit(y, limits, init, &sc.ws)
	if err != nil {
		return nil, err
	}
	return fitResultFrom(tb.Observed(), m, res, scale), nil
}

// load fills the scratch's response vector with the t-source table's
// counts divided by scale and, for a finite limit, its truncation vector
// with ⌊limit/scale⌋, and returns both (limits nil for plain Poisson).
func (sc *fitScratch) load(tb *Table, t int, limit, scale float64) (y, limits []float64) {
	n := 1 << uint(t)
	if cap(sc.y) < n {
		sc.y = make([]float64, n)
	}
	y = sc.y[:n]
	y[0] = 0
	for s := 1; s < n; s++ {
		y[s] = float64(tb.Counts[s]) / scale
	}
	if !math.IsInf(limit, 1) {
		if cap(sc.limits) < n {
			sc.limits = make([]float64, n)
		}
		limits = sc.limits[:n]
		l := math.Floor(limit / scale)
		for i := range limits {
			limits[i] = l
		}
	}
	return y, limits
}

// fitResultFrom wraps a kernel result for a table of observed individuals
// into a FitResult.
func fitResultFrom(observed int64, m Model, res *stats.GLMResult, scale float64) *FitResult {
	z0 := math.Exp(res.Coef[0]) * scale
	return &FitResult{
		Model:     m,
		Coef:      res.Coef,
		LogLik:    res.LogLik,
		Z0:        z0,
		N:         float64(observed) + z0,
		Converged: res.Converged,
	}
}
