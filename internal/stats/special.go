package stats

import (
	"math"
)

// lanczos coefficients (g=7, n=9), standard double-precision set.
var lanczos = [...]float64{
	0.99999999999980993,
	676.5203681218851,
	-1259.1392167224028,
	771.32342877765313,
	-176.61502916214059,
	12.507343278686905,
	-0.13857109526572012,
	9.9843695780195716e-6,
	1.5056327351493116e-7,
}

// LogGamma returns ln Γ(x) for x > 0.
func LogGamma(x float64) float64 {
	if x <= 0 {
		return math.Inf(1)
	}
	if x < 0.5 {
		// Reflection: Γ(x)Γ(1−x) = π / sin(πx)
		return math.Log(math.Pi/math.Sin(math.Pi*x)) - LogGamma(1-x)
	}
	x--
	a := lanczos[0]
	t := x + 7.5
	for i := 1; i < len(lanczos); i++ {
		a += lanczos[i] / (x + float64(i))
	}
	return 0.5*math.Log(2*math.Pi) + (x+0.5)*math.Log(t) - t + math.Log(a)
}

// LogFactorial returns ln(n!).
func LogFactorial(n float64) float64 {
	if n < 0 {
		return math.Inf(1)
	}
	return LogGamma(n + 1)
}

// regularized incomplete gamma P(a,x) by series (valid for x < a+1).
func gammaPSeries(a, x float64) float64 {
	if x <= 0 {
		return 0
	}
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < 500; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*1e-15 {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-LogGamma(a))
}

// logGammaQCF returns ln Q(a,x) by continued fraction (valid for x >= a+1).
func logGammaQCF(a, x float64) float64 {
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i < 500; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-15 {
			break
		}
	}
	return -x + a*math.Log(x) - LogGamma(a) + math.Log(h)
}

// GammaP returns the regularized lower incomplete gamma P(a, x).
func GammaP(a, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x < a+1:
		return gammaPSeries(a, x)
	default:
		return 1 - math.Exp(logGammaQCF(a, x))
	}
}

// GammaQ returns the regularized upper incomplete gamma Q(a, x) = 1−P(a,x).
func GammaQ(a, x float64) float64 {
	switch {
	case x <= 0:
		return 1
	case x < a+1:
		return 1 - gammaPSeries(a, x)
	default:
		return math.Exp(logGammaQCF(a, x))
	}
}

// LogGammaQ returns ln Q(a, x), staying in log space when Q underflows.
func LogGammaQ(a, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x < a+1:
		q := 1 - gammaPSeries(a, x)
		if q <= 0 {
			// P rounded to 1; fall back to the CF which still extracts the
			// exponentially small tail.
			return logGammaQCF(a, x)
		}
		return math.Log(q)
	default:
		return logGammaQCF(a, x)
	}
}

// PoissonCDF returns F(k; lambda) = P(X <= k) for X ~ Poisson(lambda).
// Identity: F(k; λ) = Q(k+1, λ).
func PoissonCDF(k float64, lambda float64) float64 {
	if k < 0 {
		return 0
	}
	if lambda <= 0 {
		return 1
	}
	return GammaQ(math.Floor(k)+1, lambda)
}

// LogPoissonCDF returns ln F(k; lambda), accurate even when F underflows.
func LogPoissonCDF(k float64, lambda float64) float64 {
	if k < 0 {
		return math.Inf(-1)
	}
	if lambda <= 0 {
		return 0
	}
	return LogGammaQ(math.Floor(k)+1, lambda)
}

// LogPoissonPMF returns ln P(X = k) for X ~ Poisson(lambda).
func LogPoissonPMF(k float64, lambda float64) float64 {
	if lambda <= 0 {
		if k == 0 {
			return 0
		}
		return math.Inf(-1)
	}
	return k*math.Log(lambda) - lambda - LogFactorial(k)
}

// TruncPoisson describes the right-truncated Poisson distribution on
// [0, Limit] used for contingency-table cells bounded by the routed space
// (§3.3.1). A Limit of +Inf degenerates to the plain Poisson.
type TruncPoisson struct {
	Lambda float64
	Limit  float64 // integer-valued truncation bound l
}

// TruncationNegligible reports whether a right-truncation bound is so far
// into the Poisson tail (beyond mean + 40σ) that F(limit; λ) is 1 to
// double precision; callers can then skip the incomplete-gamma work. The
// tail probability beyond λ + 40√λ is below e^−300.
func TruncationNegligible(limit, lambda float64) bool {
	return limit > lambda+40*math.Sqrt(lambda)+100
}

// TruncationCrossover returns λ*, the largest rate at which
// TruncationNegligible(limit, λ) holds (−Inf when it holds at no λ ≥ 0).
// λ + 40√λ + 100 is non-decreasing in λ even in floating point — every
// operation is a correctly rounded monotone function — so for every rate
// λ ≥ 0, and for NaN, TruncationNegligible(limit, λ) is exactly λ ≤ λ*. It
// is found by bisection on the float bit patterns, which order like the
// values for λ ≥ 0, so it costs about 62 evaluations once per limit
// instead of a square root per cell.
func TruncationCrossover(limit float64) float64 {
	if !TruncationNegligible(limit, 0) {
		return math.Inf(-1)
	}
	// The predicate holds at lo and fails at hi (λ = limit never passes;
	// for limit = +Inf the search ends at the largest finite rate).
	lo, hi := math.Float64bits(0), math.Float64bits(limit)
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if TruncationNegligible(limit, math.Float64frombits(mid)) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Float64frombits(lo)
}

// logF returns ln F(l; λ) for the truncation bound.
func (tp TruncPoisson) logF(l float64) float64 {
	if math.IsInf(tp.Limit, 1) {
		return 0
	}
	return LogPoissonCDF(l, tp.Lambda)
}

// Mean returns E[X | X <= Limit] = λ F(l−1)/F(l).
func (tp TruncPoisson) Mean() float64 {
	if math.IsInf(tp.Limit, 1) || TruncationNegligible(tp.Limit, tp.Lambda) {
		return tp.Lambda
	}
	if tp.Limit <= 0 {
		return 0
	}
	return tp.Lambda * math.Exp(tp.logF(tp.Limit-1)-tp.logF(tp.Limit))
}

// Variance returns Var[X | X <= Limit] via
// E[X(X−1)] = λ² F(l−2)/F(l).
func (tp TruncPoisson) Variance() float64 {
	if math.IsInf(tp.Limit, 1) || TruncationNegligible(tp.Limit, tp.Lambda) {
		return tp.Lambda
	}
	if tp.Limit <= 0 {
		return 0
	}
	mu := tp.Mean()
	if tp.Limit < 2 {
		// Support {0,1}: Bernoulli-like; E[X(X-1)] = 0.
		return mu * (1 - mu)
	}
	exx1 := tp.Lambda * tp.Lambda * math.Exp(tp.logF(tp.Limit-2)-tp.logF(tp.Limit))
	v := exx1 + mu - mu*mu
	if v < 0 {
		v = 0
	}
	return v
}

// Moments returns the truncated mean and variance together with ln F(l; λ),
// sharing a single incomplete-gamma evaluation: F(l−1) and F(l) are obtained
// from F(l−2) by the CDF recurrence F(k) = F(k−1) + p(k; λ). Mean and
// Variance call LogPoissonCDF once per bound (six evaluations per cell per
// IRLS iteration); the lattice kernel calls Moments instead, paying one.
// The recurrence agrees with the independent evaluations to ~1e-15 relative.
func (tp TruncPoisson) Moments() (mean, variance, logF float64) {
	if math.IsInf(tp.Limit, 1) || TruncationNegligible(tp.Limit, tp.Lambda) {
		return tp.Lambda, tp.Lambda, 0
	}
	l := math.Floor(tp.Limit)
	if l <= 0 {
		if l < 0 {
			return 0, 0, math.Inf(-1)
		}
		return 0, 0, LogPoissonCDF(0, tp.Lambda)
	}
	if l < 2 {
		// Support {0,1}: Bernoulli-like, E[X(X−1)] = 0.
		logF1 := LogPoissonCDF(1, tp.Lambda)
		mean = tp.Lambda * math.Exp(LogPoissonCDF(0, tp.Lambda)-logF1)
		return mean, mean * (1 - mean), logF1
	}
	logF2 := LogPoissonCDF(l-2, tp.Lambda) // the one gamma evaluation
	logF1 := logAddExp(logF2, LogPoissonPMF(l-1, tp.Lambda))
	logF = logAddExp(logF1, LogPoissonPMF(l, tp.Lambda))
	mean = tp.Lambda * math.Exp(logF1-logF)
	exx1 := tp.Lambda * tp.Lambda * math.Exp(logF2-logF)
	variance = exx1 + mean - mean*mean
	if variance < 0 {
		variance = 0
	}
	return mean, variance, logF
}

// logAddExp returns ln(e^a + e^b) without overflow.
func logAddExp(a, b float64) float64 {
	if a < b {
		a, b = b, a
	}
	if math.IsInf(b, -1) {
		return a
	}
	return a + math.Log1p(math.Exp(b-a))
}

// LogProb returns the truncated log-pmf ln[p(k;λ)/F(l;λ)] for k in
// [0, Limit]; −Inf outside the support.
func (tp TruncPoisson) LogProb(k float64) float64 {
	if k < 0 || k > tp.Limit {
		return math.Inf(-1)
	}
	return LogPoissonPMF(k, tp.Lambda) - tp.logF(tp.Limit)
}

// InvNormCDF returns the quantile function of the standard normal
// distribution (Acklam's rational approximation, |ε| < 1.15e-9, refined by
// one Halley step).
func InvNormCDF(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	a := [...]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [...]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [...]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [...]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}
	const plow = 0.02425
	var x float64
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-plow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement using erfc.
	e := 0.5*math.Erfc(-x/math.Sqrt2) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x -= u / (1 + x*u/2)
	return x
}

// ChiSquareCDF returns P(X ≤ x) for X ~ χ²_df, via the regularized lower
// incomplete gamma: F(x; df) = P(df/2, x/2).
func ChiSquareCDF(df, x float64) float64 {
	if x <= 0 || df <= 0 {
		return 0
	}
	return GammaP(df/2, x/2)
}

// ChiSquare1Quantile returns the q-quantile of the chi-square distribution
// with one degree of freedom: (Φ⁻¹((1+q)/2))². The profile-likelihood
// interval (§3.3.3) uses this with q = 1 − 1e-7.
func ChiSquare1Quantile(q float64) float64 {
	z := InvNormCDF((1 + q) / 2)
	return z * z
}
