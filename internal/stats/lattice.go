package stats

import (
	"errors"
	"math"

	"ghosts/internal/telemetry"
)

// Lattice describes a Poisson GLM whose design is a pure subset indicator
// over the 2^T capture-history lattice: column j of the design is
// x[s][j] = 1 iff Masks[j] ⊆ s. The log-linear CR designs of §3.3 are all
// of this form (intercept mask 0, main effects single bits, interactions
// multi-bit masks), which collapses the IRLS normal equations to zeta
// transforms:
//
//	(XᵀWX)[j][k] = Σ_{s ⊇ Masks[j]|Masks[k]} w_s   (one superset sum of w)
//	(Xᵀr)[j]     = Σ_{s ⊇ Masks[j]} r_s            (one superset sum of r)
//	η_s          = Σ_{m ⊆ s} c_m, c scattered β    (one subset sum)
//
// so each Fisher-scoring iteration costs O(T·2^T + p²) instead of a dense
// design's O(p²·2^T). Rows are lattice cells: cell s holds the observation
// with capture history s. Cell 0 (the unobserved history) is excluded
// unless Cell0 is set — the profile-likelihood fit pins the unobserved
// count by including exactly that cell, whose design row is the intercept
// alone, i.e. lattice cell 0.
type Lattice struct {
	T     int
	Masks []int // one mask per design column, distinct; column 0 is the intercept (mask 0)
	Cell0 bool  // include lattice cell 0 as an observation row (profile fits)
}

// Validate checks the lattice description without fitting.
func (ld Lattice) Validate() error {
	if ld.T < 1 || ld.T > 16 {
		return errors.New("stats: lattice supports 1..16 sources")
	}
	n := 1 << uint(ld.T)
	p := len(ld.Masks)
	if p == 0 {
		return errors.New("stats: lattice design needs at least one column")
	}
	rows := n - 1
	if ld.Cell0 {
		rows = n
	}
	if p > rows {
		return errors.New("stats: lattice design must have at most one column per cell")
	}
	for i, m := range ld.Masks {
		if m < 0 || m >= n {
			return errors.New("stats: lattice mask out of range")
		}
		for _, prev := range ld.Masks[:i] {
			if prev == m {
				return errors.New("stats: duplicate lattice mask")
			}
		}
	}
	return nil
}

// SubsetSum replaces v (length 2^t, indexed by cell mask) with its subset
// zeta transform: out[s] = Σ_{m ⊆ s} v[m], in O(t·2^t). The bit-plane
// passes walk aligned blocks pairwise (lo half into hi half), which visits
// the updated cells in the same ascending order as the naive masked loop —
// the additions are bit-identical — without a branch per cell.
func SubsetSum(t int, v []float64) {
	n := 1 << uint(t)
	v = v[:n]
	for i := 0; i < t; i++ {
		bit := 1 << uint(i)
		for base := 0; base < n; base += bit << 1 {
			lo := v[base : base+bit : base+bit]
			hi := v[base+bit : base+bit<<1]
			for k := range hi {
				hi[k] += lo[k]
			}
		}
	}
}

// SupersetSum replaces v (length 2^t, indexed by cell mask) with its
// superset zeta transform: out[s] = Σ_{m ⊇ s} v[m], in O(t·2^t). Same
// blocked, branch-free walk as SubsetSum (hi half into lo half), preserving
// the naive loop's update order exactly.
func SupersetSum(t int, v []float64) {
	n := 1 << uint(t)
	v = v[:n]
	for i := 0; i < t; i++ {
		bit := 1 << uint(i)
		for base := 0; base < n; base += bit << 1 {
			lo := v[base : base+bit : base+bit]
			hi := v[base+bit : base+bit<<1]
			for k := range lo {
				lo[k] += hi[k]
			}
		}
	}
}

// LatticeEta writes the linear predictor η_s = Σ_{j: Masks[j] ⊆ s} coef[j]
// for every lattice cell into eta (length 2^t): coefficients are scattered
// onto their column masks and subset-summed. η is unclamped.
func LatticeEta(t int, masks []int, coef []float64, eta []float64) {
	for s := range eta {
		eta[s] = 0
	}
	for j, m := range masks {
		eta[m] += coef[j]
	}
	SubsetSum(t, eta)
}

// Fit runs the lattice-aware Fisher-scoring fit. y holds the per-cell
// counts (length 2^T, indexed by capture-history mask; y[0] is ignored
// unless Cell0), limits the optional per-cell right-truncation bounds (nil
// for plain Poisson), init optional warm-start coefficients in column
// order, and ws reusable scratch (nil for a one-off fit).
//
// Fitted in the returned GLMResult is indexed by lattice cell (length 2^T;
// entry 0 is the fitted unobserved-cell rate whether or not Cell0 is set).
// The dense row-major kernel in the package tests is the oracle: its
// summation order differs, so coefficients agree to tolerance (≤1e-9
// relative, pinned by the differential tests), not bit-exactly.
func (ld Lattice) Fit(y, limits, init []float64, ws *Workspace) (*GLMResult, error) {
	if err := ld.Validate(); err != nil {
		return nil, err
	}
	n := 1 << uint(ld.T)
	p := len(ld.Masks)
	if len(y) != n || (limits != nil && len(limits) != n) {
		return nil, errors.New("stats: lattice dimension mismatch")
	}
	if ws == nil {
		ws = &Workspace{}
	}
	ws.reserveLattice(n, p)

	first := 1 // first active cell
	if ld.Cell0 {
		first = 0
	}
	coef := ws.coef[:p]
	if len(init) == p {
		copy(coef, init)
	} else {
		meanY := 0.0
		for s := first; s < n; s++ {
			meanY += y[s]
		}
		meanY /= float64(n - first)
		if meanY <= 0 {
			meanY = 0.5
		}
		for j := range coef {
			coef[j] = 0
		}
		coef[0] = math.Log(meanY)
	}

	lim := func(s int) float64 {
		if limits == nil {
			return math.Inf(1)
		}
		return limits[s]
	}
	var logFactSum float64
	for s := first; s < n; s++ {
		logFactSum += LogFactorial(y[s])
	}
	ll := ld.logLik(y, limits, coef, logFactSum, ws)
	// logLik left η(coef), λ(coef) and the per-cell truncation flags in the
	// candidate buffers; swap them in so every iteration reads the current
	// values without recomputing the subset sum, the exponentials or the
	// negligibility tests: the accepted candidate's buffers are swapped the
	// same way below, keeping the invariant that ws.eta/ws.lam/ws.tn always
	// describe the current coef.
	ws.eta, ws.etaCand = ws.etaCand, ws.eta
	ws.lam, ws.lamCand = ws.lamCand, ws.lam
	ws.tn, ws.tnCand = ws.tnCand, ws.tn
	var it int
	converged := false
	for it = 0; it < 200; it++ {
		// Per-cell truncated mean and variance at the current η (λ and the
		// truncation flags already in ws.lam/ws.tn), with the inactive cell
		// 0 zero-weighted so the zeta sums skip it.
		lam, tn := ws.lam[:n], ws.tn[:n]
		zw, zr := ws.zw[:n], ws.zr[:n]
		if !ld.Cell0 {
			zw[0], zr[0] = 0, 0
		}
		for s := first; s < n; s++ {
			lambda := lam[s]
			var mu, w float64
			if tn[s] {
				// Untruncated (or negligibly truncated) cell: the moments
				// degenerate to the plain Poisson's, exactly as Moments
				// returns on its fast path.
				mu, w = lambda, lambda
			} else {
				tp := TruncPoisson{Lambda: lambda, Limit: lim(s)}
				mu, w, _ = tp.Moments()
			}
			if w < 1e-10 {
				w = 1e-10
			}
			zw[s] = w
			zr[s] = y[s] - mu
		}
		// Normal equations by zeta transform: one superset sum each for the
		// weights and residuals, then an O(p²) gather.
		SupersetSum(ld.T, zw)
		SupersetSum(ld.T, zr)
		xtwx := ws.xtwx[:p*p]
		xtr := ws.xtr[:p]
		for a := 0; a < p; a++ {
			ma := ld.Masks[a]
			xtr[a] = zr[ma]
			row := xtwx[a*p:]
			for b := a; b < p; b++ {
				row[b] = zw[ma|ld.Masks[b]]
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
			candLL := ld.logLik(y, limits, cand, logFactSum, ws)
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
		ws.coef, ws.cand = cand, coef // swap buffers instead of copying
		// The last logLik call evaluated the accepted candidate, so its η,
		// λ and truncation flags are current again after the swap.
		ws.eta, ws.etaCand = ws.etaCand, ws.eta
		ws.lam, ws.lamCand = ws.lamCand, ws.lam
		ws.tn, ws.tnCand = ws.tnCand, ws.tn
		coef, ll = cand, nextLL
		if done {
			converged = true
			break
		}
	}

	// ws.eta still holds η of the final coefficients (the loop invariant),
	// so the fitted rates need no further transform.
	fitted := make([]float64, n)
	copy(fitted, ws.eta[:n])
	for s := range fitted {
		e := fitted[s]
		if e > maxEta {
			e = maxEta
		}
		fitted[s] = math.Exp(e)
	}
	telemetry.Active().FitDone(it+1, converged)
	outCoef := make([]float64, p)
	copy(outCoef, coef)
	return &GLMResult{
		Coef:       outCoef,
		Fitted:     fitted,
		LogLik:     ll,
		Iterations: it + 1,
		Converged:  converged,
	}, nil
}

// logLik evaluates the (possibly right-truncated) Poisson log-likelihood at
// coef, computing η by subset sum into the workspace's candidate buffers.
// Alongside the likelihood it records per-cell λ = exp(clamped η) and
// whether the cell's truncation is absent or negligible, so the scoring
// loop can reuse both when the candidate is accepted.
func (ld Lattice) logLik(y, limits, coef []float64, logFactSum float64, ws *Workspace) float64 {
	n := 1 << uint(ld.T)
	eta := ws.etaCand[:n]
	lam := ws.lamCand[:n]
	tn := ws.tnCand[:n]
	LatticeEta(ld.T, ld.Masks, coef, eta)
	first := 1
	if ld.Cell0 {
		first = 0
	}
	ll := -logFactSum
	for s := first; s < n; s++ {
		e := eta[s]
		if e > maxEta {
			e = maxEta
		} else if e < -maxEta {
			e = -maxEta
		}
		lambda := math.Exp(e)
		lam[s] = lambda
		ll += y[s]*e - lambda
		if limits != nil && !math.IsInf(limits[s], 1) {
			if TruncationNegligible(limits[s], lambda) {
				tn[s] = true
			} else {
				tn[s] = false
				ll -= LogPoissonCDF(limits[s], lambda)
			}
		} else {
			tn[s] = true
		}
	}
	return ll
}
