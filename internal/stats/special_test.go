package stats

import (
	"math"
	"math/rand"
	"testing"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (tol %v)", name, got, want, tol)
	}
}

func TestLogGamma(t *testing.T) {
	// Γ(1)=1, Γ(2)=1, Γ(5)=24, Γ(0.5)=√π
	approx(t, "LogGamma(1)", LogGamma(1), 0, 1e-12)
	approx(t, "LogGamma(2)", LogGamma(2), 0, 1e-12)
	approx(t, "LogGamma(5)", LogGamma(5), math.Log(24), 1e-10)
	approx(t, "LogGamma(0.5)", LogGamma(0.5), 0.5*math.Log(math.Pi), 1e-10)
	approx(t, "LogGamma(101)", LogGamma(101), LogFactorial(100), 1e-9)
	// Stirling sanity at large argument.
	x := 1e6
	stirling := (x-0.5)*math.Log(x) - x + 0.5*math.Log(2*math.Pi)
	if rel := math.Abs(LogGamma(x)-stirling) / stirling; rel > 1e-7 {
		t.Errorf("LogGamma(1e6) relative error vs Stirling = %v", rel)
	}
	if !math.IsInf(LogGamma(0), 1) || !math.IsInf(LogGamma(-3), 1) {
		t.Error("LogGamma must be +Inf for non-positive arguments")
	}
}

func TestLogFactorialSmall(t *testing.T) {
	fact := 1.0
	for n := 1; n <= 20; n++ {
		fact *= float64(n)
		approx(t, "LogFactorial", LogFactorial(float64(n)), math.Log(fact), 1e-9)
	}
	approx(t, "LogFactorial(0)", LogFactorial(0), 0, 1e-12)
}

func TestGammaPQComplement(t *testing.T) {
	for _, a := range []float64{0.5, 1, 3, 10, 100} {
		for _, x := range []float64{0.1, 1, 5, 50, 200} {
			p, q := GammaP(a, x), GammaQ(a, x)
			approx(t, "P+Q", p+q, 1, 1e-10)
			if p < 0 || p > 1 || q < 0 || q > 1 {
				t.Errorf("GammaP/Q(%v,%v) out of [0,1]: %v %v", a, x, p, q)
			}
		}
	}
}

func TestPoissonCDFExact(t *testing.T) {
	// Compare against direct summation for moderate λ.
	for _, lambda := range []float64{0.5, 2, 10, 40} {
		sum := 0.0
		for k := 0; k <= 80; k++ {
			sum += math.Exp(LogPoissonPMF(float64(k), lambda))
			got := PoissonCDF(float64(k), lambda)
			if math.Abs(got-sum) > 1e-9 {
				t.Fatalf("PoissonCDF(%d, %v) = %v, want %v", k, lambda, got, sum)
			}
		}
	}
}

func TestPoissonCDFEdges(t *testing.T) {
	if PoissonCDF(-1, 5) != 0 {
		t.Error("CDF below support must be 0")
	}
	approx(t, "PoissonCDF(0, 2)", PoissonCDF(0, 2), math.Exp(-2), 1e-12)
	approx(t, "PoissonCDF(k, 0)", PoissonCDF(3, 0), 1, 0)
	// Large k: effectively 1.
	approx(t, "PoissonCDF(1000, 5)", PoissonCDF(1000, 5), 1, 1e-12)
}

func TestLogPoissonCDFDeepTail(t *testing.T) {
	// λ = 500, k = 100: F is astronomically small but ln F must be finite.
	lf := LogPoissonCDF(100, 500)
	if math.IsInf(lf, -1) || lf > -100 {
		t.Fatalf("LogPoissonCDF(100,500) = %v, want a large negative finite value", lf)
	}
	// Consistency with the pmf: F(k) >= pmf(k), so ln F >= ln pmf.
	if lp := LogPoissonPMF(100, 500); lf < lp {
		t.Fatalf("ln F(k) = %v < ln p(k) = %v", lf, lp)
	}
}

func TestTruncPoissonDegenerate(t *testing.T) {
	tp := TruncPoisson{Lambda: 7, Limit: math.Inf(1)}
	approx(t, "untruncated mean", tp.Mean(), 7, 1e-12)
	approx(t, "untruncated variance", tp.Variance(), 7, 1e-12)
}

func TestTruncPoissonMatchesDirect(t *testing.T) {
	// Direct computation over the support for small limits.
	for _, tc := range []struct{ lambda, limit float64 }{
		{2, 5}, {10, 8}, {1, 1}, {5, 20}, {50, 40},
	} {
		tp := TruncPoisson{Lambda: tc.lambda, Limit: tc.limit}
		var z, ex, exx float64
		for k := 0.0; k <= tc.limit; k++ {
			p := math.Exp(LogPoissonPMF(k, tc.lambda))
			z += p
			ex += k * p
			exx += k * k * p
		}
		wantMean := ex / z
		wantVar := exx/z - wantMean*wantMean
		approx(t, "TruncPoisson.Mean", tp.Mean(), wantMean, 1e-8*(1+wantMean))
		approx(t, "TruncPoisson.Variance", tp.Variance(), wantVar, 1e-6*(1+wantVar))
		// LogProb should renormalise to 1 over the support.
		var total float64
		for k := 0.0; k <= tc.limit; k++ {
			total += math.Exp(tp.LogProb(k))
		}
		approx(t, "TruncPoisson pmf sum", total, 1, 1e-9)
	}
}

func TestTruncPoissonSupport(t *testing.T) {
	tp := TruncPoisson{Lambda: 3, Limit: 4}
	if !math.IsInf(tp.LogProb(5), -1) || !math.IsInf(tp.LogProb(-1), -1) {
		t.Error("LogProb outside support must be -Inf")
	}
	zero := TruncPoisson{Lambda: 3, Limit: 0}
	approx(t, "Limit 0 mean", zero.Mean(), 0, 0)
	approx(t, "Limit 0 variance", zero.Variance(), 0, 0)
}

func TestInvNormCDF(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959963984540054},
		{0.025, -1.959963984540054},
		{0.8413447460685429, 1},
		{1e-7, -5.199337582187471},
	}
	for _, c := range cases {
		approx(t, "InvNormCDF", InvNormCDF(c.p), c.want, 1e-8)
	}
	if !math.IsInf(InvNormCDF(0), -1) || !math.IsInf(InvNormCDF(1), 1) {
		t.Error("InvNormCDF must diverge at the boundaries")
	}
	// Round trip through the normal CDF.
	for _, p := range []float64{0.001, 0.1, 0.3, 0.77, 0.9999} {
		x := InvNormCDF(p)
		back := 0.5 * math.Erfc(-x/math.Sqrt2)
		approx(t, "round trip", back, p, 1e-10)
	}
}

func TestChiSquare1Quantile(t *testing.T) {
	approx(t, "chi2(0.95)", ChiSquare1Quantile(0.95), 3.841458820694124, 1e-8)
	approx(t, "chi2(0.99)", ChiSquare1Quantile(0.99), 6.634896601021217, 1e-8)
	// α = 1e-7 as used by the paper's profile intervals.
	q := ChiSquare1Quantile(1 - 1e-7)
	if q < 28 || q > 29 {
		t.Fatalf("chi2(1-1e-7) = %v, want ≈28.37", q)
	}
}

func BenchmarkLogPoissonCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		LogPoissonCDF(1e6, 1.2e6)
	}
}

func TestChiSquareCDF(t *testing.T) {
	// χ²₁: F(3.841) ≈ 0.95; χ²₅: F(11.07) ≈ 0.95.
	approx(t, "chi2cdf df=1", ChiSquareCDF(1, 3.841458820694124), 0.95, 1e-8)
	approx(t, "chi2cdf df=5", ChiSquareCDF(5, 11.070497693516351), 0.95, 1e-8)
	if ChiSquareCDF(3, 0) != 0 || ChiSquareCDF(0, 5) != 0 {
		t.Fatal("edge cases must be 0")
	}
	// Consistency with the df=1 quantile.
	q := ChiSquare1Quantile(0.99)
	approx(t, "quantile round trip", ChiSquareCDF(1, q), 0.99, 1e-8)
}

// TestTruncationCrossoverMatchesPredicate pins λ* = TruncationCrossover(l)
// to TruncationNegligible: the predicate holds at λ* and below it, fails at
// the next float above it, and agrees with λ ≤ λ* at random (λ, limit)
// pairs, including limits where it never holds and rates near the limit.
func TestTruncationCrossoverMatchesPredicate(t *testing.T) {
	limits := []float64{math.NaN(), -5, 0, 50, 100, math.Nextafter(100, 200), 100.5, 101, 150,
		1e3, 4000, 1e6, 1e9, 1 << 53, 1e15, 1e300, math.MaxFloat64, math.Inf(1)}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 200; i++ {
		limits = append(limits, math.Floor(math.Pow(10, 18*rng.Float64())))
	}
	for _, l := range limits {
		star := TruncationCrossover(l)
		if math.IsInf(star, -1) {
			if TruncationNegligible(l, 0) {
				t.Fatalf("limit %v: crossover −Inf but negligible at λ=0", l)
			}
		} else {
			if !TruncationNegligible(l, star) {
				t.Fatalf("limit %v: not negligible at its crossover %v", l, star)
			}
			if up := math.Nextafter(star, math.Inf(1)); TruncationNegligible(l, up) {
				t.Fatalf("limit %v: still negligible at %v, above the crossover %v", l, up, star)
			}
			if down := math.Nextafter(star, 0); star > 0 && !TruncationNegligible(l, down) {
				t.Fatalf("limit %v: not negligible at %v, below the crossover %v", l, down, star)
			}
		}
		for k := 0; k < 50; k++ {
			lambda := math.Pow(10, 28*rng.Float64()-14)
			if k%2 == 1 && !math.IsInf(l, 0) && l > 0 {
				lambda = l * (0.5 + rng.Float64()) // near the limit
			}
			if got, want := lambda <= star, TruncationNegligible(l, lambda); got != want {
				t.Fatalf("limit %v, λ %v: λ ≤ λ* = %v, predicate %v", l, lambda, got, want)
			}
		}
	}
}
