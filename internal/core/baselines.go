package core

import "math"

// HeidemannFactor is the ping-to-total correction factor of 1.86 proposed
// by Heidemann et al. (§2); the paper finds CR implies a factor of 2.6–2.7
// instead (§6.2).
const HeidemannFactor = 1.86

// LincolnPetersen computes the classical two-sample estimate N = M·C/R
// (§3.2.1) from the sizes of two samples and their overlap. It returns +Inf
// when the samples do not overlap.
func LincolnPetersen(m, c, r int64) float64 {
	if r <= 0 {
		return math.Inf(1)
	}
	return float64(m) * float64(c) / float64(r)
}

// LincolnPetersenPair applies the two-sample estimator to sources i and j
// of a table, ignoring all other sources. Under positive (apparent) source
// dependence it underestimates; under negative dependence it overestimates
// (§3.2.2), which is why the paper abandons it in favour of log-linear
// models.
func LincolnPetersenPair(tb *Table, i, j int) float64 {
	return LincolnPetersen(tb.SourceTotal(i), tb.SourceTotal(j), tb.PairOverlap(i, j))
}

// ChaoLowerBound computes Chao's heterogeneity-robust lower bound
// N ≥ M + f₁²/(2 f₂), where f_k is the number of individuals captured by
// exactly k sources. When f₂ = 0 it uses the bias-corrected form
// M + f₁(f₁−1)/2.
func ChaoLowerBound(tb *Table) float64 {
	m := float64(tb.Observed())
	f1 := float64(tb.CapturedExactly(1))
	f2 := float64(tb.CapturedExactly(2))
	if f2 <= 0 {
		return m + f1*(f1-1)/2
	}
	return m + f1*f1/(2*f2)
}

// PingCorrection applies the Heidemann ×1.86 multiplier to a raw ping
// count — the only under-sampling correction attempted before this paper.
func PingCorrection(pinged int64) float64 {
	return HeidemannFactor * float64(pinged)
}

// SampleCoverage computes Chao & Lee's sample-coverage estimator, the
// other standard heterogeneity-aware CR family: coverage Ĉ = 1 − f₁/n with
// n = Σ k·f_k the total number of captures, a first-order estimate
// N̂₀ = M/Ĉ, and a coefficient-of-variation correction
//
//	N̂ = M/Ĉ + (n(1−Ĉ)/Ĉ)·γ̂²,  γ̂² = max(0, N̂₀·Σk(k−1)f_k / (n(n−1)) − 1).
//
// It treats the t sources as t capture occasions, so unlike the log-linear
// model it cannot exploit which *specific* sources overlap — a useful
// contrast baseline. The estimator is designed for many capture occasions;
// with only a handful of sources it overestimates homogeneous populations
// and underestimates under strong heterogeneity (Ĉ = 1 − f₁/n overstates
// coverage when captures concentrate on "loud" individuals) — one more
// reason the paper prefers log-linear models. Returns +Inf when every
// individual was captured exactly once (zero estimated coverage).
func SampleCoverage(tb *Table) float64 {
	m := float64(tb.Observed())
	var n, sumK1 float64 // captures, Σ k(k−1) f_k
	var f1 float64
	for k := 1; k <= tb.T; k++ {
		fk := float64(tb.CapturedExactly(k))
		n += float64(k) * fk
		sumK1 += float64(k) * float64(k-1) * fk
		if k == 1 {
			f1 = fk
		}
	}
	if n <= 1 {
		return m
	}
	c := 1 - f1/n
	if c <= 0 {
		return math.Inf(1)
	}
	n0 := m / c
	gamma2 := n0*sumK1/(n*(n-1)) - 1
	if gamma2 < 0 {
		gamma2 = 0
	}
	return n0 + n*(1-c)/c*gamma2
}
