package stats

// GLMResult holds the fitted Poisson regression.
type GLMResult struct {
	Coef       []float64 // coefficient per design column
	LogLik     float64   // maximised log-likelihood (full, incl. constants)
	Iterations int
	Converged  bool
	Screened   bool // stopped early by Lattice.Screen; Lattice.Polish resumes it
}

// maxEta bounds the linear predictor so exp never overflows; e^30 ≈ 1e13
// comfortably exceeds any count in the IPv4 space.
const maxEta = 30

// Workspace holds the scratch buffers of one Fisher-scoring fit so hot
// loops (the stepwise search, profile-interval bisection, bootstrap
// replication) can reuse them across fits instead of reallocating every
// iteration. The zero value is ready; buffers grow on demand and are
// retained. A Workspace is not safe for concurrent use — keep one per
// goroutine.
type Workspace struct {
	xtwx, chol []float64 // p×p normal equations and Cholesky factor
	xtr        []float64 // p-vector Xᵀ(y−μ) / solve scratch
	delta      []float64 // Fisher step
	coef, cand []float64 // current and trial coefficients

	// Per-cell scratch, all 2^t long. The cand-suffixed buffers are filled
	// by logLik for trial coefficients and swapped in wholesale when a
	// trial is accepted, so the scoring loop never recomputes η, λ or the
	// truncation-negligibility test.
	eta, etaCand []float64 // linear predictor per lattice cell
	lam, lamCand []float64 // per-cell rate exp(clamped η)
	tn, tnCand   []bool    // per-cell: truncation negligible (or absent)
	zw, zr       []float64 // zeta-transform buffers for weights and residuals

	// The last truncation limit logLik met and its crossover rate
	// (TruncationCrossover), valid once crossSet.
	crossLimit, cross float64
	crossSet          bool
}

// grow returns b resized to want, reallocating only when it lacks the
// capacity.
func grow(b []float64, want int) []float64 {
	if cap(b) < want {
		return make([]float64, want)
	}
	return b[:want]
}

// reserveLattice sizes every buffer for an n-cell, p-column lattice fit.
func (ws *Workspace) reserveLattice(n, p int) {
	ws.xtwx = grow(ws.xtwx, p*p)
	ws.chol = grow(ws.chol, p*p)
	ws.xtr = grow(ws.xtr, p)
	ws.delta = grow(ws.delta, p)
	ws.coef = grow(ws.coef, p)
	ws.cand = grow(ws.cand, p)
	ws.eta = grow(ws.eta, n)
	ws.etaCand = grow(ws.etaCand, n)
	ws.lam = grow(ws.lam, n)
	ws.lamCand = grow(ws.lamCand, n)
	ws.zw = grow(ws.zw, n)
	ws.zr = grow(ws.zr, n)
	if cap(ws.tn) < n {
		ws.tn = make([]bool, n)
	}
	ws.tn = ws.tn[:n]
	if cap(ws.tnCand) < n {
		ws.tnCand = make([]bool, n)
	}
	ws.tnCand = ws.tnCand[:n]
}
