package stats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// denseFromMasks materialises the subset-indicator design the lattice
// kernel works on implicitly: one row per lattice cell (cells 1..2^t−1, or
// 0..2^t−1 with cell0), column j = 1 iff masks[j] ⊆ cell.
func denseFromMasks(t int, masks []int, cell0 bool) Matrix {
	n := 1 << uint(t)
	first := 1
	if cell0 {
		first = 0
	}
	m := Matrix{Rows: n - first, Cols: len(masks), Data: make([]float64, (n-first)*len(masks))}
	for s := first; s < n; s++ {
		row := m.Data[(s-first)*len(masks):]
		for j, mask := range masks {
			if s&mask == mask {
				row[j] = 1
			}
		}
	}
	return m
}

// randomLattice draws a random subset-indicator design for t sources:
// intercept, all main effects, and a random subset of the multi-bit
// interaction masks.
func randomLattice(t int, rng *rand.Rand) Lattice {
	n := 1 << uint(t)
	masks := []int{0}
	for i := 0; i < t; i++ {
		masks = append(masks, 1<<uint(i))
	}
	var multi []int
	for m := 1; m < n; m++ {
		if m&(m-1) != 0 {
			multi = append(multi, m)
		}
	}
	rng.Shuffle(len(multi), func(i, j int) { multi[i], multi[j] = multi[j], multi[i] })
	// Cap the interaction count the way the engine's stepwise search does
	// (p ≪ 2^t): near-saturated designs with sparse cells have divergent
	// MLEs that neither kernel can be expected to converge on.
	extra := rng.Intn(2*t + 1)
	if max := n - 1 - len(masks); extra > max {
		extra = max
	}
	if extra > len(multi) {
		extra = len(multi)
	}
	masks = append(masks, multi[:extra]...)
	return Lattice{T: t, Masks: masks}
}

// randomCells draws positive-ish counts and a mix of infinite and tight
// truncation bounds for every lattice cell.
func randomCells(t int, rng *rand.Rand) (y, limits []float64) {
	n := 1 << uint(t)
	y = make([]float64, n)
	limits = make([]float64, n)
	for s := 0; s < n; s++ {
		y[s] = float64(1 + rng.Intn(200))
		if rng.Intn(3) == 0 {
			limits[s] = y[s] + float64(1+rng.Intn(50))
		} else {
			limits[s] = math.Inf(1)
		}
	}
	return y, limits
}

// denseStep computes one full Fisher-scoring step at coef using the dense
// kernel's algebra (row scans, Mean/Variance moments).
func denseStep(x Matrix, y, limits, coef []float64) []float64 {
	n, p := x.Rows, x.Cols
	xtwx := make([]float64, p*p)
	xtr := make([]float64, p)
	for i := 0; i < n; i++ {
		xi := x.Row(i)
		e := dot(xi, coef)
		l := math.Inf(1)
		if limits != nil {
			l = limits[i]
		}
		tp := TruncPoisson{Lambda: math.Exp(e), Limit: l}
		w := tp.Variance()
		r := y[i] - tp.Mean()
		for a := 0; a < p; a++ {
			if xi[a] == 0 {
				continue
			}
			xtr[a] += r
			for b := 0; b < p; b++ {
				xtwx[a*p+b] += w * xi[b]
			}
		}
	}
	delta := make([]float64, p)
	if err := solveSPDFlat(xtwx, p, xtr, delta, make([]float64, p*p)); err != nil {
		panic(err)
	}
	return delta
}

// latticeStep computes one full Fisher-scoring step at coef using the
// lattice kernel's algebra (zeta transforms, fused Moments).
func latticeStep(ld Lattice, y, limits, coef []float64) []float64 {
	n := 1 << uint(ld.T)
	p := len(ld.Masks)
	first := 1
	if ld.Cell0 {
		first = 0
	}
	eta := make([]float64, n)
	LatticeEta(ld.T, ld.Masks, coef, eta)
	zw := make([]float64, n)
	zr := make([]float64, n)
	for s := first; s < n; s++ {
		l := math.Inf(1)
		if limits != nil {
			l = limits[s]
		}
		tp := TruncPoisson{Lambda: math.Exp(eta[s]), Limit: l}
		mu, w, _ := tp.Moments()
		zw[s] = w
		zr[s] = y[s] - mu
	}
	SupersetSum(ld.T, zw)
	SupersetSum(ld.T, zr)
	xtwx := make([]float64, p*p)
	xtr := make([]float64, p)
	for a := 0; a < p; a++ {
		xtr[a] = zr[ld.Masks[a]]
		for b := 0; b < p; b++ {
			xtwx[a*p+b] = zw[ld.Masks[a]|ld.Masks[b]]
		}
	}
	delta := make([]float64, p)
	if err := solveSPDFlat(xtwx, p, xtr, delta, make([]float64, p*p)); err != nil {
		panic(err)
	}
	return delta
}

// refine iterates pure full Fisher steps from start until the step
// vanishes, converging to the fixed point of the supplied algebra at
// machine precision. It returns the refined coefficients and how far they
// moved from start (max relative component), which bounds the stopping
// slack the kernel's convergence criterion left behind.
func refine(step func(coef []float64) []float64, start []float64) ([]float64, float64) {
	coef := append([]float64(nil), start...)
	for k := 0; k < 60; k++ {
		d := step(coef)
		worst := 0.0
		for j := range coef {
			coef[j] += d[j]
			if w := math.Abs(d[j]) / (1 + math.Abs(coef[j])); w > worst {
				worst = w
			}
		}
		if worst < 1e-14 {
			break
		}
	}
	moved := 0.0
	for j := range coef {
		if d := relDiff(coef[j], start[j]); d > moved {
			moved = d
		}
	}
	return coef, moved
}

func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return d / scale
}

// TestLatticeTransformsHand pins the t=2 zeta transforms by hand:
// subset sum of [a b c d] is [a, a+b, a+c, a+b+c+d]; superset sum is the
// mirror [a+b+c+d, b+d, c+d, d].
func TestLatticeTransformsHand(t *testing.T) {
	v := []float64{1, 2, 4, 8}
	SubsetSum(2, v)
	for i, want := range []float64{1, 3, 5, 15} {
		if v[i] != want {
			t.Fatalf("SubsetSum[%d] = %v, want %v", i, v[i], want)
		}
	}
	v = []float64{1, 2, 4, 8}
	SupersetSum(2, v)
	for i, want := range []float64{15, 10, 12, 8} {
		if v[i] != want {
			t.Fatalf("SupersetSum[%d] = %v, want %v", i, v[i], want)
		}
	}
}

// naiveZeta is the reference the blocked zeta transforms must reproduce
// bit for bit: one masked pass over every cell per bit-plane, in ascending
// plane and cell order.
func naiveZeta(t int, v []float64, superset bool) {
	n := 1 << uint(t)
	for i := 0; i < t; i++ {
		bit := 1 << uint(i)
		for s := 0; s < n; s++ {
			switch {
			case superset && s&bit == 0:
				v[s] += v[s|bit]
			case !superset && s&bit != 0:
				v[s] += v[s^bit]
			}
		}
	}
}

// TestLatticeZetaMatchesNaive pins SubsetSum and SupersetSum (fused low
// bit-planes, blocked higher planes) to the naive masked loop with exact
// float equality, on values of mixed sign spanning 1e-300..1e300 so that
// any reordering of the additions would show up as a rounding difference.
func TestLatticeZetaMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for tt := 1; tt <= 12; tt++ {
		n := 1 << uint(tt)
		for _, superset := range []bool{false, true} {
			v := make([]float64, n)
			for s := range v {
				v[s] = (rng.Float64() + 0.5) * math.Pow(10, float64(rng.Intn(601)-300))
				if rng.Intn(2) == 0 {
					v[s] = -v[s]
				}
			}
			want := append([]float64(nil), v...)
			naiveZeta(tt, want, superset)
			if superset {
				SupersetSum(tt, v)
			} else {
				SubsetSum(tt, v)
			}
			for s := range v {
				if math.Float64bits(v[s]) != math.Float64bits(want[s]) {
					t.Fatalf("t=%d superset=%v cell %d: got %v, naive loop gives %v", tt, superset, s, v[s], want[s])
				}
			}
		}
	}
}

// benchmarkZeta times zeta in place on one vector. The vector is all
// zeros so that it stays finite however many times it is transformed; a
// float addition costs the same for any normal or zero operand.
func benchmarkZeta(b *testing.B, zeta func(int, []float64)) {
	const t = 9
	v := make([]float64, 1<<t)
	for i := 0; i < b.N; i++ {
		zeta(t, v)
	}
}

// BenchmarkSupersetSum9 and BenchmarkSubsetSum9 time one zeta transform at
// t = 9 sources (512 cells), the size the paper's full model runs at.
func BenchmarkSupersetSum9(b *testing.B) { benchmarkZeta(b, SupersetSum) }
func BenchmarkSubsetSum9(b *testing.B)   { benchmarkZeta(b, SubsetSum) }

// TestLatticeHandT2 pins a hand-solved t=2 fit. The design {0, 01, 10} is
// saturated on the three observed cells, so the MLE reproduces the counts
// exactly: with y = (6, 3, 2) for cells 01, 10, 11, solving
// β0+β1 = ln 6, β0+β2 = ln 3, β0+β1+β2 = ln 2 gives
// β = (ln 9, ln 2/3, ln 1/3).
func TestLatticeHandT2(t *testing.T) {
	ld := Lattice{T: 2, Masks: []int{0, 1, 2}}
	y := []float64{0, 6, 3, 2}
	want := []float64{math.Log(9), math.Log(2.0 / 3), math.Log(1.0 / 3)}
	res, err := ld.Fit(y, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("lattice fit did not converge")
	}
	for j, w := range want {
		if relDiff(res.Coef[j], w) > 1e-8 {
			t.Fatalf("coef[%d] = %v, want %v", j, res.Coef[j], w)
		}
	}
	rates := latticeRates(ld, res.Coef)
	for s, wantFit := range []float64{0, 6, 3, 2} {
		if s == 0 {
			continue // unobserved cell checked separately below
		}
		if relDiff(rates[s], wantFit) > 1e-8 {
			t.Fatalf("fitted[%d] = %v, want %v", s, rates[s], wantFit)
		}
	}
	// The unobserved cell's rate is the intercept alone: e^{β0} = 9.
	if relDiff(rates[0], 9) > 1e-8 {
		t.Fatalf("fitted[0] = %v, want 9", rates[0])
	}
	// The dense kernel on the materialised design must agree.
	dense, err := FitPoissonGLMFlat(denseFromMasks(2, ld.Masks, false), y[1:], nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		if relDiff(res.Coef[j], dense.Coef[j]) > 1e-9 {
			t.Fatalf("lattice vs dense coef[%d]: %v vs %v", j, res.Coef[j], dense.Coef[j])
		}
	}
}

// TestLatticeNormalEquationsMatchDense checks the per-iteration building
// blocks — η, the gradient Xᵀr and the Fisher information XᵀWX — against
// direct dense accumulation, for random designs at every t in 2..9.
func TestLatticeNormalEquationsMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for tt := 2; tt <= 9; tt++ {
		ld := randomLattice(tt, rng)
		n := 1 << uint(tt)
		p := len(ld.Masks)
		x := denseFromMasks(tt, ld.Masks, false)

		coef := make([]float64, p)
		w := make([]float64, n)
		r := make([]float64, n)
		for j := range coef {
			coef[j] = rng.NormFloat64()
		}
		for s := 1; s < n; s++ {
			w[s] = rng.Float64() + 0.01
			r[s] = rng.NormFloat64() * 10
		}

		// η by subset sum vs dense row dot products.
		eta := make([]float64, n)
		LatticeEta(tt, ld.Masks, coef, eta)
		for s := 1; s < n; s++ {
			want := dot(x.Row(s-1), coef)
			if relDiff(eta[s], want) > 1e-9 {
				t.Fatalf("t=%d eta[%d] = %v, want %v", tt, s, eta[s], want)
			}
		}

		// XᵀWX and Xᵀr by superset sum vs dense triple loop.
		zw := append([]float64(nil), w...)
		zr := append([]float64(nil), r...)
		SupersetSum(tt, zw)
		SupersetSum(tt, zr)
		for a := 0; a < p; a++ {
			wantG := 0.0
			for s := 1; s < n; s++ {
				wantG += x.Row(s - 1)[a] * r[s]
			}
			if relDiff(zr[ld.Masks[a]], wantG) > 1e-9 {
				t.Fatalf("t=%d gradient[%d] = %v, want %v", tt, a, zr[ld.Masks[a]], wantG)
			}
			for b := a; b < p; b++ {
				wantI := 0.0
				for s := 1; s < n; s++ {
					wantI += x.Row(s - 1)[a] * w[s] * x.Row(s - 1)[b]
				}
				got := zw[ld.Masks[a]|ld.Masks[b]]
				if relDiff(got, wantI) > 1e-9 {
					t.Fatalf("t=%d xtwx[%d,%d] = %v, want %v", tt, a, b, got, wantI)
				}
			}
		}
	}
}

// TestLatticeFitMatchesDense is the end-to-end differential: full
// truncated fits on random designs agree with the dense kernel within
// 1e-9 relative for every t in 2..9, with and without the cell-0 row and
// with and without warm starts.
func TestLatticeFitMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ws := &Workspace{}
	for tt := 2; tt <= 9; tt++ {
		for _, cell0 := range []bool{false, true} {
			ld := randomLattice(tt, rng)
			ld.Cell0 = cell0
			n := 1 << uint(tt)
			p := len(ld.Masks)
			y, limits := randomCells(tt, rng)
			if cell0 {
				y[0] = float64(rng.Intn(500))
				limits[0] = math.Inf(1)
			}
			first := 1
			if cell0 {
				first = 0
			}
			x := denseFromMasks(tt, ld.Masks, cell0)

			var init []float64
			if tt%2 == 0 { // exercise the warm-start path on half the cases
				init = make([]float64, p)
				init[0] = 1
				for j := 1; j < p; j++ {
					init[j] = rng.NormFloat64() * 0.1
				}
			}
			lat, err := ld.Fit(y, limits, init, ws)
			if err != nil {
				t.Fatalf("t=%d cell0=%v lattice fit: %v", tt, cell0, err)
			}
			dense, err := FitPoissonGLMFlat(x, y[first:], limits[first:], init, nil)
			if err != nil {
				t.Fatalf("t=%d cell0=%v dense fit: %v", tt, cell0, err)
			}
			if !lat.Converged || !dense.Converged {
				t.Fatalf("t=%d cell0=%v convergence: lattice %v dense %v", tt, cell0, lat.Converged, dense.Converged)
			}
			// Both kernels stop at the same Δll criterion, which leaves up
			// to ~1e-7 of coefficient slack along flat likelihood
			// directions — slack, not algebra error. Refine each result
			// with pure full Fisher steps of its *own* algebra until the
			// step vanishes: each converges to the fixed point of its own
			// math at machine precision, so the 1e-9 comparison below tests
			// algebra equivalence, while the movement bound proves the raw
			// fits were already at that optimum.
			latCoef, latMoved := refine(func(c []float64) []float64 {
				return latticeStep(ld, y, limits, c)
			}, lat.Coef)
			denseCoef, denseMoved := refine(func(c []float64) []float64 {
				return denseStep(x, y[first:], limits[first:], c)
			}, dense.Coef)
			if latMoved > 1e-6 || denseMoved > 1e-6 {
				t.Fatalf("t=%d cell0=%v kernel stopped far from its optimum: lattice moved %v, dense moved %v", tt, cell0, latMoved, denseMoved)
			}
			for j := 0; j < p; j++ {
				if relDiff(latCoef[j], denseCoef[j]) > 1e-9 {
					t.Fatalf("t=%d cell0=%v coef[%d]: lattice %v dense %v", tt, cell0, j, latCoef[j], denseCoef[j])
				}
			}
			// Raw log-likelihoods carry the stopping slack (≲1e-9 relative
			// per kernel), hence the 1e-8 band.
			if relDiff(lat.LogLik, dense.LogLik) > 1e-8 {
				t.Fatalf("t=%d cell0=%v loglik: lattice %v dense %v", tt, cell0, lat.LogLik, dense.LogLik)
			}
			// Fitted rates at the common refined optimum agree through the
			// η identity; spot-check the raw fits correspond cell-for-cell.
			latFit, denseFit := latticeRates(ld, lat.Coef), denseRates(x, dense.Coef)
			for s := first; s < n; s++ {
				if relDiff(latFit[s], denseFit[s-first]) > 1e-6 {
					t.Fatalf("t=%d cell0=%v fitted[%d]: lattice %v dense %v", tt, cell0, s, latFit[s], denseFit[s-first])
				}
			}
		}
	}
}

// TestMomentsMatchesMeanVariance: the fused recurrence must agree with the
// independent Mean/Variance evaluations across the λ × limit grid.
func TestMomentsMatchesMeanVariance(t *testing.T) {
	for _, lambda := range []float64{1e-6, 0.5, 1, 3, 17, 120, 5000} {
		for _, limit := range []float64{math.Inf(1), 0, 1, 2, 3, 10, 100, 4000} {
			tp := TruncPoisson{Lambda: lambda, Limit: limit}
			mean, variance, logF := tp.Moments()
			// Deep in the left tail (λ=5000 with l=100 has F ≈ e^{-3500})
			// Deep in the left tail (λ=5000 with l=100 has F ≈ e^{-3500})
			// the continued-fraction evaluations carry ~1e-7 relative
			// error, and the variance formula E[X(X−1)] + μ − μ² cancels
			// most of its leading digits (μ² can exceed Var by 1e6×), so
			// the recurrence and the independent calls legitimately
			// disagree at the 1e-5 level there; everywhere realistic the
			// agreement is ~1e-12.
			tol := 1e-12
			if limit < lambda {
				tol = 1e-4
			}
			if relDiff(mean, tp.Mean()) > tol {
				t.Fatalf("λ=%v l=%v mean %v vs %v", lambda, limit, mean, tp.Mean())
			}
			if relDiff(variance, tp.Variance()) > tol {
				t.Fatalf("λ=%v l=%v variance %v vs %v", lambda, limit, variance, tp.Variance())
			}
			if relDiff(logF, tp.logF(tp.Limit)) > tol {
				t.Fatalf("λ=%v l=%v logF %v vs %v", lambda, limit, logF, tp.logF(tp.Limit))
			}
		}
	}
}

func TestLatticeValidate(t *testing.T) {
	cases := []Lattice{
		{T: 0, Masks: []int{0}},
		{T: 17, Masks: []int{0}},
		{T: 2, Masks: nil},
		{T: 2, Masks: []int{0, 1, 4}},    // mask out of range
		{T: 2, Masks: []int{0, 1, 1}},    // duplicate
		{T: 2, Masks: []int{0, 1, 2, 3}}, // more columns than active cells
		{T: 1, Masks: []int{0, 1}},       // p=2 > 1 active cell
	}
	for i, ld := range cases {
		if err := ld.Validate(); err == nil {
			t.Fatalf("case %d: expected validation error for %+v", i, ld)
		}
	}
	ok := Lattice{T: 2, Masks: []int{0, 1, 2, 3}, Cell0: true}
	if err := ok.Validate(); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if _, err := (Lattice{T: 2, Masks: []int{0, 1}}).Fit([]float64{0, 1, 2}, nil, nil, nil); err == nil {
		t.Fatal("expected dimension mismatch error")
	}
}

// TestLatticeScreenPolishMatchesFit pins the screened path to Fit: a
// Screen result is either Fit's bit for bit, or screened, and then Polish
// resumes it to Fit's coefficients, log-likelihood, convergence flag and
// iteration count, bit for bit — from a cold start, a warm start, and a
// shared start filled by Prologue. Sparse cells (IRLS converges only
// linearly there) and tight limits are in the mix, and the test fails if
// nothing was screened.
func TestLatticeScreenPolishMatchesFit(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ws, wsRef := &Workspace{}, &Workspace{}
	screened := 0
	for rep := 0; rep < 6; rep++ {
		for tt := 2; tt <= 9; tt++ {
			ld := randomLattice(tt, rng)
			y, limits := randomCells(tt, rng)
			for s := range y {
				if rng.Intn(4) == 0 {
					y[s] = 0 // sampling zero
				}
			}
			if rep%2 == 1 {
				limits = nil
			}
			var init []float64
			var start *LatticeStart
			if mode := rep % 3; mode > 0 {
				init = make([]float64, len(ld.Masks))
				init[0] = 3
				for j := 1; j < len(init); j++ {
					init[j] = rng.NormFloat64() * 0.3
				}
				if mode == 2 {
					start = &LatticeStart{LogFactSum: ld.LogFactorialSum(y)}
					if err := ld.Prologue(y, limits, init, start, &Workspace{}); err != nil {
						t.Fatal(err)
					}
				}
			}
			name := fmt.Sprintf("rep=%d t=%d masks=%v", rep, tt, ld.Masks)
			want, wantErr := ld.Fit(y, limits, init, wsRef)
			got, gotErr := ld.Screen(y, limits, init, start, ws)
			if gotErr == nil && got.Screened {
				screened++
				if got.Converged {
					t.Fatalf("%s: screened fit claims convergence", name)
				}
				got, gotErr = ld.Polish(y, limits, got, ld.LogFactorialSum(y), ws)
			}
			if (wantErr != nil) != (gotErr != nil) {
				t.Fatalf("%s: errors differ: screened %v, Fit %v", name, gotErr, wantErr)
			}
			if wantErr != nil {
				continue
			}
			if got.Screened || got.Converged != want.Converged || got.Iterations != want.Iterations ||
				math.Float64bits(got.LogLik) != math.Float64bits(want.LogLik) {
				t.Fatalf("%s: screened+polished %+v, Fit %+v", name, got, want)
			}
			for j := range want.Coef {
				if math.Float64bits(got.Coef[j]) != math.Float64bits(want.Coef[j]) {
					t.Fatalf("%s: coef[%d] = %v, Fit %v", name, j, got.Coef[j], want.Coef[j])
				}
			}
		}
	}
	if screened == 0 {
		t.Fatal("no fit was screened: the test exercises nothing")
	}
	t.Logf("%d of %d fits screened", screened, 6*8)
}
