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
// zeta transform: out[s] = Σ_{m ⊆ s} v[m], in O(t·2^t). Three consecutive
// bit-planes only mix the eight cells of one group (base + j·2^plane for
// j = 0..7), so each run of three planes is one fused pass per group —
// register-resident for planes 0–2 — and a leftover plane or two walks
// aligned blocks pairwise (lo half into hi half). Either way every cell
// receives the same additions in the same order as the naive masked loop —
// the results are bit-identical — without a branch per cell.
func SubsetSum(t int, v []float64) {
	n := 1 << uint(t)
	v = v[:n]
	plane := 0
	if t >= 3 {
		for b := v; len(b) >= 8; b = b[8:] {
			b0, b1, b2, b3, b4, b5, b6, b7 := b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]
			b1 += b0 // plane 0
			b3 += b2
			b5 += b4
			b7 += b6
			b2 += b0 // plane 1
			b3 += b1
			b6 += b4
			b7 += b5
			b4 += b0 // plane 2
			b5 += b1
			b6 += b2
			b7 += b3
			b[1], b[2], b[3], b[4], b[5], b[6], b[7] = b1, b2, b3, b4, b5, b6, b7
		}
		plane = 3
	}
	for ; plane+3 <= t; plane += 3 {
		bit := 1 << uint(plane)
		for b := v; len(b) >= bit<<3; b = b[bit<<3:] {
			c0 := b[:bit:bit]
			c1, c2, c3 := b[bit:][:len(c0)], b[2*bit:][:len(c0)], b[3*bit:][:len(c0)]
			c4, c5, c6, c7 := b[4*bit:][:len(c0)], b[5*bit:][:len(c0)], b[6*bit:][:len(c0)], b[7*bit:][:len(c0)]
			for k, x0 := range c0 {
				x1, x2, x3, x4, x5, x6, x7 := c1[k], c2[k], c3[k], c4[k], c5[k], c6[k], c7[k]
				x1 += x0 // plane
				x3 += x2
				x5 += x4
				x7 += x6
				x2 += x0 // plane+1
				x3 += x1
				x6 += x4
				x7 += x5
				x4 += x0 // plane+2
				x5 += x1
				x6 += x2
				x7 += x3
				c1[k], c2[k], c3[k], c4[k], c5[k], c6[k], c7[k] = x1, x2, x3, x4, x5, x6, x7
			}
		}
	}
	for ; plane < t; plane++ {
		bit := 1 << uint(plane)
		for b := v; len(b) >= bit<<1; b = b[bit<<1:] {
			lo, hi := b[:bit:bit], b[bit:bit<<1]
			hi = hi[:len(lo)]
			for k, x := range lo {
				hi[k] += x
			}
		}
	}
}

// SupersetSum replaces v (length 2^t, indexed by cell mask) with its
// superset zeta transform: out[s] = Σ_{m ⊇ s} v[m], in O(t·2^t). Same
// fused three-plane groups and blocked leftover planes as SubsetSum (hi
// into lo), preserving the naive loop's update order exactly.
func SupersetSum(t int, v []float64) {
	n := 1 << uint(t)
	v = v[:n]
	plane := 0
	if t >= 3 {
		for b := v; len(b) >= 8; b = b[8:] {
			b0, b1, b2, b3, b4, b5, b6, b7 := b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]
			b0 += b1 // plane 0
			b2 += b3
			b4 += b5
			b6 += b7
			b0 += b2 // plane 1
			b1 += b3
			b4 += b6
			b5 += b7
			b0 += b4 // plane 2
			b1 += b5
			b2 += b6
			b3 += b7
			b[0], b[1], b[2], b[3], b[4], b[5], b[6] = b0, b1, b2, b3, b4, b5, b6
		}
		plane = 3
	}
	for ; plane+3 <= t; plane += 3 {
		bit := 1 << uint(plane)
		for b := v; len(b) >= bit<<3; b = b[bit<<3:] {
			c7 := b[7*bit : 8*bit : 8*bit]
			c0, c1, c2, c3 := b[:len(c7)], b[bit:][:len(c7)], b[2*bit:][:len(c7)], b[3*bit:][:len(c7)]
			c4, c5, c6 := b[4*bit:][:len(c7)], b[5*bit:][:len(c7)], b[6*bit:][:len(c7)]
			for k, x7 := range c7 {
				x0, x1, x2, x3, x4, x5, x6 := c0[k], c1[k], c2[k], c3[k], c4[k], c5[k], c6[k]
				x0 += x1 // plane
				x2 += x3
				x4 += x5
				x6 += x7
				x0 += x2 // plane+1
				x1 += x3
				x4 += x6
				x5 += x7
				x0 += x4 // plane+2
				x1 += x5
				x2 += x6
				x3 += x7
				c0[k], c1[k], c2[k], c3[k], c4[k], c5[k], c6[k] = x0, x1, x2, x3, x4, x5, x6
			}
		}
	}
	for ; plane < t; plane++ {
		bit := 1 << uint(plane)
		for b := v; len(b) >= bit<<1; b = b[bit<<1:] {
			lo, hi := b[:bit:bit], b[bit:bit<<1]
			hi = hi[:len(lo)]
			for k, x := range hi {
				lo[k] += x
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

// LatticeStart is the state a lattice fit derives from its starting
// coefficients before the first Fisher step: η, the log-likelihood and the
// superset-summed weights and residuals of the first iteration. All of it
// depends on the coefficients only through η, so fits whose starts scatter
// to the same η share it bit for bit — the stepwise search's candidates,
// which extend the parent's coefficients with a zero on a mask no other
// column uses (adding +0 to a cell that is already +0 changes no float).
// Prologue fills it once and Screen only reads it, so concurrent fits may
// share one. The zero value is ready; buffers grow on demand and are
// retained.
type LatticeStart struct {
	// LogFactSum is Σ ln y_s! over the active cells (LogFactorialSum). It
	// depends only on the response, so callers set it once per y.
	LogFactSum float64

	logLik      float64
	eta, zw, zr []float64 // per lattice cell, 2^T long
}

// check validates the lattice and the response and limit vectors.
func (ld Lattice) check(y, limits []float64) error {
	if err := ld.Validate(); err != nil {
		return err
	}
	n := 1 << uint(ld.T)
	if len(y) != n || (limits != nil && len(limits) != n) {
		return errors.New("stats: lattice dimension mismatch")
	}
	return nil
}

// LogFactorialSum returns Σ ln y_s! over ld's active cells (1..2^T−1, or
// every cell with Cell0): the constant term of the log-likelihood.
func (ld Lattice) LogFactorialSum(y []float64) float64 {
	first := 1
	if ld.Cell0 {
		first = 0
	}
	var sum float64
	for s := first; s < 1<<uint(ld.T); s++ {
		sum += LogFactorial(y[s])
	}
	return sum
}

// Prologue fills st with the start state of a fit of ld from coef (in
// column order), evaluating the log-likelihood against st.LogFactSum and
// using ws (required) as scratch. A later Screen of the same y and limits,
// on a lattice with the same T and Cell0, may pass st as its start when
// its init coefficients scatter to the same η as coef.
func (ld Lattice) Prologue(y, limits, coef []float64, st *LatticeStart, ws *Workspace) error {
	if err := ld.check(y, limits); err != nil {
		return err
	}
	n := 1 << uint(ld.T)
	p := len(ld.Masks)
	if len(coef) != p {
		return errors.New("stats: lattice start needs one coefficient per column")
	}
	ws.reserveLattice(n, p)
	st.logLik = ld.logLik(y, limits, coef, st.LogFactSum, ws)
	st.eta = grow(st.eta, n)
	copy(st.eta, ws.etaCand[:n])
	st.zw = grow(st.zw, n)
	st.zr = grow(st.zr, n)
	ld.scoreSums(y, limits, ws.lamCand[:n], ws.tnCand[:n], st.zw, st.zr)
	return nil
}

// fitCap bounds the Fisher-scoring iterations of one fit; a screened fit
// and its polish share it.
const fitCap = 200

// ScreenTol is τ, the screening tolerance of Screen: a candidate fit may
// stop once a full Newton step gains less than τ·(|ℓ|+1) in
// log-likelihood, and the stepwise search polishes every screened
// candidate within the same band of the round's best.
const ScreenTol = 1e-5

// Fit runs the lattice-aware Fisher-scoring fit. y holds the per-cell
// counts (length 2^T, indexed by capture-history mask; y[0] is ignored
// unless Cell0), limits the optional per-cell right-truncation bounds (nil
// for plain Poisson), init optional warm-start coefficients in column
// order, and ws reusable scratch (nil for a one-off fit).
//
// The result carries coefficients, not fitted rates: LatticeEta gives η
// for any coefficient vector. The dense row-major kernel in the package
// tests is the oracle: its summation order differs, so coefficients agree
// to tolerance (≤1e-9 relative, pinned by the differential tests), not
// bit-exactly.
func (ld Lattice) Fit(y, limits, init []float64, ws *Workspace) (*GLMResult, error) {
	return ld.fit(y, limits, init, nil, nil, fitCap, false, ws)
}

// Screen is Fit for a stepwise candidate, which may stop early: after any
// full Newton step but the first whose log-likelihood gain g is below
// ScreenTol·(|ℓ|+1) and at most a tenth of the previous step's gain, it
// returns with Screened set (and Converged unset). Under that contraction
// the rest of the climb adds about g/9 at most, so a screened fit that
// cannot reach the round's best need not finish. Otherwise Screen's result
// is Fit's, bit for bit. A screened result resumes with Polish. start is
// the optional shared start state of init (see LatticeStart; it requires
// init, and nil computes it here); it changes no number.
func (ld Lattice) Screen(y, limits, init []float64, start *LatticeStart, ws *Workspace) (*GLMResult, error) {
	return ld.fit(y, limits, init, start, nil, fitCap, true, ws)
}

// Polish resumes a screened fit res of the same y and limits from its
// coefficients with the iterations left of the cap; logFactSum is
// LogFactorialSum(y), which the screened fit read from its start.
// Resuming replays the iterates the unscreened fit would have taken, so
// the result — coefficients, log-likelihood, convergence and the total
// iteration count — is bit for bit Fit's. A result that was not screened
// is returned as is.
func (ld Lattice) Polish(y, limits []float64, res *GLMResult, logFactSum float64, ws *Workspace) (*GLMResult, error) {
	if !res.Screened {
		return res, nil
	}
	out, err := ld.fit(y, limits, res.Coef, nil, &logFactSum, fitCap-res.Iterations, false, ws)
	if err != nil {
		return nil, err
	}
	out.Iterations += res.Iterations
	return out, nil
}

// fit is the Fisher-scoring loop behind Fit, Screen and Polish: at most
// maxIter iterations, stopping early when screen allows it. logFactSum,
// when non-nil, stands in for Σ ln y_s! (a start supplies its own); with
// neither, the fit sums it.
func (ld Lattice) fit(y, limits, init []float64, start *LatticeStart, logFactSum *float64, maxIter int, screen bool, ws *Workspace) (*GLMResult, error) {
	if err := ld.check(y, limits); err != nil {
		return nil, err
	}
	n := 1 << uint(ld.T)
	p := len(ld.Masks)
	if start != nil && (len(init) != p || len(start.eta) != n) {
		return nil, errors.New("stats: lattice start needs init coefficients of the same shape")
	}
	if ws == nil {
		ws = &Workspace{}
	}
	ws.reserveLattice(n, p)

	coef := ws.coef[:p]
	if len(init) == p {
		copy(coef, init)
	} else {
		first := 1 // first active cell
		if ld.Cell0 {
			first = 0
		}
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

	var lfs, ll float64
	if start != nil {
		// The shared start stands in for the logLik call below and for the
		// first iteration's score sums. ws.lam and ws.tn stay stale: only
		// those sums would read them before an accepted step swaps in the
		// candidate's, and a fit that accepts no step reads only ws.eta.
		lfs, ll = start.LogFactSum, start.logLik
		copy(ws.eta[:n], start.eta)
	} else {
		if logFactSum != nil {
			lfs = *logFactSum
		} else {
			lfs = ld.LogFactorialSum(y)
		}
		ll = ld.logLik(y, limits, coef, lfs, ws)
		// logLik left η(coef), λ(coef) and the per-cell truncation flags in
		// the candidate buffers; swap them in so every iteration reads the
		// current values without recomputing the subset sum, the
		// exponentials or the negligibility tests: the accepted candidate's
		// buffers are swapped the same way below, keeping the invariant
		// that ws.eta/ws.lam/ws.tn always describe the current coef.
		ws.eta, ws.etaCand = ws.etaCand, ws.eta
		ws.lam, ws.lamCand = ws.lamCand, ws.lam
		ws.tn, ws.tnCand = ws.tnCand, ws.tn
	}
	var it int
	converged, screened := false, false
	prevGain := 0.0
	for it = 0; it < maxIter; it++ {
		zw, zr := ws.zw[:n], ws.zr[:n]
		if it == 0 && start != nil {
			zw, zr = start.zw, start.zr
		} else {
			ld.scoreSums(y, limits, ws.lam[:n], ws.tn[:n], zw, zr)
		}
		// Normal equations from the superset-summed weights and residuals:
		// an O(p²) gather.
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
			candLL := ld.logLik(y, limits, cand, lfs, ws)
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
		gain := nextLL - ll
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
		if screen && it > 0 && step == 1 && gain < ScreenTol*(math.Abs(ll)+1) && gain <= prevGain/10 {
			screened = true
			break
		}
		prevGain = gain
	}

	// A screened stop is not a failure to converge: the fit either
	// resumes (Polish) or cannot win its round.
	telemetry.Active().FitDone(it+1, converged || screened)
	outCoef := make([]float64, p)
	copy(outCoef, coef)
	return &GLMResult{
		Coef:       outCoef,
		LogLik:     ll,
		Iterations: it + 1,
		Converged:  converged,
		Screened:   screened,
	}, nil
}

// scoreSums writes the per-cell truncated-Poisson weights and residuals
// y − μ at rates lam (truncation flags tn) into zw and zr, zero-weighting
// the inactive cell 0, and superset-sums both, so that entry m holds the
// normal-equation sum over every cell that contains mask m.
func (ld Lattice) scoreSums(y, limits, lam []float64, tn []bool, zw, zr []float64) {
	first := 1
	if ld.Cell0 {
		first = 0
	} else {
		zw[0], zr[0] = 0, 0
	}
	for s := first; s < len(zw); s++ {
		lambda := lam[s]
		var mu, w float64
		if tn[s] {
			// Untruncated (or negligibly truncated) cell: the moments
			// degenerate to the plain Poisson's, exactly as Moments returns
			// on its fast path.
			mu, w = lambda, lambda
		} else {
			tp := TruncPoisson{Lambda: lambda, Limit: limits[s]}
			mu, w, _ = tp.Moments()
		}
		if w < 1e-10 {
			w = 1e-10
		}
		zw[s] = w
		zr[s] = y[s] - mu
	}
	SupersetSum(ld.T, zw)
	SupersetSum(ld.T, zr)
}

// logLik evaluates the (possibly right-truncated) Poisson log-likelihood at
// coef, computing η by subset sum into the workspace's candidate buffers.
// Alongside the likelihood it records per-cell λ = exp(clamped η) and
// whether the cell's truncation is absent or negligible, so the scoring
// loop can reuse both when the candidate is accepted. Negligibility is one
// comparison against the limit's crossover rate (TruncationCrossover),
// cached in ws while consecutive cells share a limit.
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
			if l := limits[s]; !ws.crossSet || l != ws.crossLimit {
				ws.crossLimit, ws.cross, ws.crossSet = l, TruncationCrossover(l), true
			}
			if lambda <= ws.cross {
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
