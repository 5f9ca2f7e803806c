package stats

import (
	"errors"
	"math"
)

// This file holds the dense row-major Poisson GLM kernel: the reference
// implementation the lattice kernel (Lattice.Fit) is differentially tested
// against. It materialises the design as a Matrix and accumulates the
// normal equations row by row, O(p²·n) per Fisher-scoring iteration, with
// the same starting point, step-halving policy and convergence test as
// the lattice kernel.

// Matrix is a dense row-major matrix backed by a single flat slice.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// NewMatrix returns a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) Matrix {
	return Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Row returns row i as a slice view into the backing array.
func (m Matrix) Row(i int) []float64 {
	return m.Data[i*m.Cols : (i+1)*m.Cols : (i+1)*m.Cols]
}

// matrixFromRows copies a [][]float64 design into flat form.
func matrixFromRows(x [][]float64) Matrix {
	if len(x) == 0 {
		return Matrix{}
	}
	m := NewMatrix(len(x), len(x[0]))
	for i, row := range x {
		copy(m.Row(i), row)
	}
	return m
}

// reserve sizes the workspace for an n-row, p-column dense fit (the
// coefficient-side buffers are the lattice kernel's) and returns fresh
// per-row mean and weight vectors.
func (ws *Workspace) reserve(n, p int) (mu, wgt []float64) {
	ws.reserveLattice(n, p)
	return make([]float64, n), make([]float64, n)
}

// FitPoissonGLM fits a log-link Poisson regression of counts y on the
// design matrix x by Fisher scoring. limits optionally gives a right
// truncation bound per observation; pass nil or +Inf entries for plain
// Poisson cells.
func FitPoissonGLM(x [][]float64, y []float64, limits []float64) (*GLMResult, error) {
	return FitPoissonGLMInit(x, y, limits, nil)
}

// FitPoissonGLMInit is FitPoissonGLM with warm-start coefficients.
func FitPoissonGLMInit(x [][]float64, y []float64, limits []float64, init []float64) (*GLMResult, error) {
	if len(x) == 0 || len(y) != len(x) {
		return nil, errors.New("stats: empty design or dimension mismatch")
	}
	return FitPoissonGLMFlat(matrixFromRows(x), y, limits, init, nil)
}

// FitPoissonGLMFlat is the fit over a flat row-major design. ws supplies
// reusable scratch; pass nil for a one-off fit.
func FitPoissonGLMFlat(x Matrix, y []float64, limits []float64, init []float64, ws *Workspace) (*GLMResult, error) {
	n, p := x.Rows, x.Cols
	if n == 0 || len(y) != n {
		return nil, errors.New("stats: empty design or dimension mismatch")
	}
	if p == 0 || p > n {
		return nil, errors.New("stats: design must have 1..n columns")
	}
	if ws == nil {
		ws = &Workspace{}
	}
	mu, wgt := ws.reserve(n, p)

	coef := ws.coef[:p]
	if len(init) == p {
		copy(coef, init)
	} else {
		// Intercept (column 0) at log of the mean count; zero the rest.
		meanY := 0.0
		for _, v := range y {
			meanY += v
		}
		meanY /= float64(n)
		if meanY <= 0 {
			meanY = 0.5
		}
		for j := range coef {
			coef[j] = 0
		}
		coef[0] = math.Log(meanY)
	}

	lim := func(i int) float64 {
		if limits == nil {
			return math.Inf(1)
		}
		return limits[i]
	}

	var logFactSum float64
	for _, v := range y {
		logFactSum += LogFactorial(v)
	}
	ll := glmLogLik(x, y, limits, coef, logFactSum)
	var it int
	converged := false
	for it = 0; it < 200; it++ {
		for i := 0; i < n; i++ {
			e := dot(x.Row(i), coef)
			if e > maxEta {
				e = maxEta
			} else if e < -maxEta {
				e = -maxEta
			}
			tp := TruncPoisson{Lambda: math.Exp(e), Limit: lim(i)}
			mu[i] = tp.Mean()
			w := tp.Variance()
			if w < 1e-10 {
				w = 1e-10
			}
			wgt[i] = w
		}
		// Normal equations: (XᵀWX) δ = Xᵀ(y − μ).
		xtwx := ws.xtwx[:p*p]
		for j := range xtwx {
			xtwx[j] = 0
		}
		xtr := ws.xtr[:p]
		for j := range xtr {
			xtr[j] = 0
		}
		for i := 0; i < n; i++ {
			xi := x.Row(i)
			r := y[i] - mu[i]
			for a := 0; a < p; a++ {
				va := xi[a]
				if va == 0 {
					continue
				}
				xtr[a] += va * r
				wa := wgt[i] * va
				row := xtwx[a*p:]
				for b := a; b < p; b++ {
					row[b] += wa * xi[b]
				}
			}
		}
		for a := 1; a < p; a++ {
			for b := 0; b < a; b++ {
				xtwx[a*p+b] = xtwx[b*p+a]
			}
		}
		delta := ws.delta[:p]
		if err := solveSPDFlat(xtwx, p, xtr, delta, ws.chol); err != nil {
			return nil, err
		}
		// Step halving: accept the longest step that does not reduce the
		// log-likelihood.
		step := 1.0
		var nextLL float64
		improved := false
		cand := ws.cand[:p]
		for h := 0; h < 30; h++ {
			for j := range cand {
				cand[j] = coef[j] + step*delta[j]
			}
			candLL := glmLogLik(x, y, limits, cand, logFactSum)
			if candLL >= ll-1e-12 && !math.IsNaN(candLL) {
				nextLL, improved = candLL, true
				break
			}
			step /= 2
		}
		if !improved {
			break
		}
		done := math.Abs(nextLL-ll) < 1e-9*(math.Abs(ll)+1)
		ws.coef, ws.cand = cand, coef
		coef, ll = cand, nextLL
		if done {
			converged = true
			break
		}
	}

	outCoef := make([]float64, p)
	copy(outCoef, coef)
	return &GLMResult{
		Coef:       outCoef,
		LogLik:     ll,
		Iterations: it + 1,
		Converged:  converged,
	}, nil
}

// denseRates derives a dense fit's rate per row, exp(x·coef) with η
// clamped at maxEta, from its coefficients: GLMResult carries no fitted
// vector.
func denseRates(x Matrix, coef []float64) []float64 {
	rates := make([]float64, x.Rows)
	for i := range rates {
		rates[i] = math.Exp(math.Min(dot(x.Row(i), coef), maxEta))
	}
	return rates
}

// latticeRates derives a lattice fit's rate per cell (length 2^T; entry 0
// is the unobserved cell's rate whether or not Cell0 is set) from its
// coefficients, as denseRates does for the dense kernel.
func latticeRates(ld Lattice, coef []float64) []float64 {
	rates := make([]float64, 1<<uint(ld.T))
	LatticeEta(ld.T, ld.Masks, coef, rates)
	for s, e := range rates {
		rates[s] = math.Exp(math.Min(e, maxEta))
	}
	return rates
}

// glmLogLik evaluates the (possibly right-truncated) Poisson
// log-likelihood of counts y under coefficients coef; logFactSum is the
// precomputed Σ ln(y_i!).
func glmLogLik(x Matrix, y []float64, limits []float64, coef []float64, logFactSum float64) float64 {
	ll := -logFactSum
	for i := 0; i < x.Rows; i++ {
		e := dot(x.Row(i), coef)
		if e > maxEta {
			e = maxEta
		} else if e < -maxEta {
			e = -maxEta
		}
		lambda := math.Exp(e)
		ll += y[i]*e - lambda
		if limits != nil && !math.IsInf(limits[i], 1) && !TruncationNegligible(limits[i], lambda) {
			ll -= LogPoissonCDF(limits[i], lambda)
		}
	}
	return ll
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}
