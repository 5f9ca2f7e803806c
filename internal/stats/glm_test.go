package stats

import (
	"math"
	"testing"

	"ghosts/internal/rng"
)

// Tests of the dense reference kernel (dense_test.go) itself: before it
// can serve as the lattice kernel's oracle it must recover known answers.

func TestGLMInterceptOnly(t *testing.T) {
	// With only an intercept, the MLE rate is the sample mean.
	y := []float64{3, 5, 7, 9}
	x := [][]float64{{1}, {1}, {1}, {1}}
	res, err := FitPoissonGLM(x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("intercept-only fit should converge")
	}
	approx(t, "exp(coef)", math.Exp(res.Coef[0]), 6, 1e-6)
}

func TestGLMTwoGroups(t *testing.T) {
	// Two groups with separate means: saturated fit recovers both exactly.
	x := [][]float64{{1, 0}, {1, 0}, {1, 1}, {1, 1}}
	y := []float64{10, 14, 100, 140}
	res, err := FitPoissonGLM(x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	rates := denseRates(matrixFromRows(x), res.Coef)
	approx(t, "group 0 rate", rates[0], 12, 1e-5)
	approx(t, "group 1 rate", rates[2], 120, 1e-3)
}

func TestGLMRecoversSimulatedCoefficients(t *testing.T) {
	// Simulate y ~ Poisson(exp(b0 + b1 x1 + b2 x2)) and check recovery.
	r := rng.New(99)
	trueCoef := []float64{2.0, 0.7, -0.4}
	const n = 2000
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x1 := r.Float64()*2 - 1
		x2 := r.Float64()*2 - 1
		x[i] = []float64{1, x1, x2}
		lambda := math.Exp(trueCoef[0] + trueCoef[1]*x1 + trueCoef[2]*x2)
		y[i] = float64(r.Poisson(lambda))
	}
	res, err := FitPoissonGLM(x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	for j, want := range trueCoef {
		if math.Abs(res.Coef[j]-want) > 0.08 {
			t.Errorf("coef[%d] = %v, want ≈%v", j, res.Coef[j], want)
		}
	}
}

func TestGLMTruncatedBiasCorrection(t *testing.T) {
	// Right-truncated observations: a plain Poisson fit of truncated data
	// underestimates λ; the truncated likelihood recovers it.
	r := rng.New(7)
	const lambda = 10.0
	const limit = 11.0
	const n = 4000
	x := make([][]float64, n)
	y := make([]float64, n)
	limits := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = []float64{1}
		limits[i] = limit
		for {
			v := float64(r.Poisson(lambda))
			if v <= limit {
				y[i] = v
				break
			}
		}
	}
	plain, err := FitPoissonGLM(x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	trunc, err := FitPoissonGLM(x, y, limits)
	if err != nil {
		t.Fatal(err)
	}
	plainRate := math.Exp(plain.Coef[0])
	truncRate := math.Exp(trunc.Coef[0])
	if plainRate >= lambda-0.3 {
		t.Fatalf("plain fit should underestimate: got %v", plainRate)
	}
	if math.Abs(truncRate-lambda) > 0.4 {
		t.Fatalf("truncated fit should recover λ=10: got %v", truncRate)
	}
	if trunc.LogLik < plain.LogLik {
		// The truncated likelihood includes the -ln F terms, so it is the
		// correct model's likelihood; it should not be worse than the
		// misspecified one evaluated on its own scale. (Not directly
		// comparable in general, but for sanity both must be finite.)
		if math.IsInf(trunc.LogLik, 0) || math.IsNaN(trunc.LogLik) {
			t.Fatal("truncated log-likelihood must be finite")
		}
	}
}

func TestGLMErrors(t *testing.T) {
	if _, err := FitPoissonGLM(nil, nil, nil); err == nil {
		t.Fatal("empty design should fail")
	}
	if _, err := FitPoissonGLM([][]float64{{1}}, []float64{1, 2}, nil); err == nil {
		t.Fatal("dimension mismatch should fail")
	}
	if _, err := FitPoissonGLM([][]float64{{1, 0}, {1, 1}}, []float64{1}, nil); err == nil {
		t.Fatal("mismatched y should fail")
	}
}

func TestGLMZeroCounts(t *testing.T) {
	// All-zero cells must not break the fit (rates go to ~0).
	x := [][]float64{{1}, {1}, {1}}
	y := []float64{0, 0, 0}
	res, err := FitPoissonGLM(x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rate := denseRates(matrixFromRows(x), res.Coef)[0]; rate > 0.01 {
		t.Fatalf("fitted rate for all-zero data = %v, want ≈0", rate)
	}
}

func TestGLMLargeCounts(t *testing.T) {
	// Counts at IPv4 scale must not overflow.
	x := [][]float64{{1, 0}, {1, 1}}
	y := []float64{3e8, 7e8}
	res, err := FitPoissonGLM(x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	rates := denseRates(matrixFromRows(x), res.Coef)
	approx(t, "rate 0", rates[0], 3e8, 1)
	approx(t, "rate 1", rates[1], 7e8, 3)
}

func TestGLMFlatMatchesRowAPI(t *testing.T) {
	// The flat workspace kernel must be bit-identical to the [][]float64
	// entry point, and a reused workspace must not leak state across fits.
	r := rng.New(17)
	const n = 63
	rows := make([][]float64, n)
	y := make([]float64, n)
	limits := make([]float64, n)
	for i := 0; i < n; i++ {
		rows[i] = []float64{1, r.Float64(), r.Float64()}
		y[i] = float64(r.Poisson(40))
		limits[i] = 90
	}
	want, err := FitPoissonGLM(rows, y, limits)
	if err != nil {
		t.Fatal(err)
	}
	m := matrixFromRows(rows)
	var ws Workspace
	for trial := 0; trial < 3; trial++ {
		got, err := FitPoissonGLMFlat(m, y, limits, nil, &ws)
		if err != nil {
			t.Fatal(err)
		}
		if got.LogLik != want.LogLik || got.Iterations != want.Iterations {
			t.Fatalf("trial %d: flat fit (ll=%v it=%d) != row fit (ll=%v it=%d)",
				trial, got.LogLik, got.Iterations, want.LogLik, want.Iterations)
		}
		for j := range want.Coef {
			if got.Coef[j] != want.Coef[j] {
				t.Fatalf("trial %d: coef[%d] = %v, want %v", trial, j, got.Coef[j], want.Coef[j])
			}
		}
	}
}

func TestMatrixRow(t *testing.T) {
	m := NewMatrix(3, 2)
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			m.Row(i)[j] = float64(10*i + j)
		}
	}
	if m.Data[5] != 21 {
		t.Fatalf("row-major layout broken: %v", m.Data)
	}
	// Row views must be capacity-clamped so an append cannot spill into the
	// next row.
	r0 := m.Row(0)
	r0 = append(r0, -1)
	if m.Data[2] == -1 {
		t.Fatal("append through a row view corrupted the next row")
	}
	_ = r0
}
