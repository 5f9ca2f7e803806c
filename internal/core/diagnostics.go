package core

import (
	"math"

	"ghosts/internal/stats"
)

// Dependence quantifies the pairwise (apparent) source dependence that
// motivates log-linear models over Lincoln-Petersen (§3.2.2). For each
// source pair (i, j) it computes the log odds ratio of joint capture
// conditioned on the individual being observed by at least one *other*
// source — the third-sample trick that makes the 2×2 table complete:
//
//	OR = (n₁₁·n₀₀) / (n₁₀·n₀₁)
//
// over the individuals seen by some source outside {i, j}. Positive log-OR
// means the pair is positively correlated (L-P on that pair would
// underestimate); negative means the opposite. Cells are smoothed by +0.5
// (Haldane–Anscombe) so empty cells stay finite. The diagonal is zero.
func Dependence(tb *Table) [][]float64 {
	t := tb.T
	out := make([][]float64, t)
	for i := range out {
		out[i] = make([]float64, t)
	}
	for i := 0; i < t; i++ {
		for j := i + 1; j < t; j++ {
			maskI, maskJ := 1<<uint(i), 1<<uint(j)
			var n [2][2]float64
			for s := 1; s < len(tb.Counts); s++ {
				if s&^(maskI|maskJ) == 0 {
					continue // seen only by i/j: outside the conditioning universe
				}
				bi, bj := 0, 0
				if s&maskI != 0 {
					bi = 1
				}
				if s&maskJ != 0 {
					bj = 1
				}
				n[bi][bj] += float64(tb.Counts[s])
			}
			lor := math.Log(((n[1][1] + 0.5) * (n[0][0] + 0.5)) /
				((n[1][0] + 0.5) * (n[0][1] + 0.5)))
			out[i][j] = lor
			out[j][i] = lor
		}
	}
	return out
}

// GOF is a goodness-of-fit summary for a fitted log-linear model (§3.3.2's
// "adequate fit").
type GOF struct {
	Deviance float64 // G² = 2 Σ z ln(z/μ̂)
	Pearson  float64 // X² = Σ (z−μ̂)²/μ̂
	DF       int     // observable cells − free parameters
	// PValue is the chi-square upper-tail probability of the deviance; a
	// small value means the model does not explain the table. It assumes
	// Poisson sampling, which — as the paper stresses for its intervals —
	// understates real-world variance.
	PValue float64
}

// GoodnessOfFit evaluates how well a fitted model reproduces the observed
// contingency table. The fitted log-rates come from the lattice identity
// η_s = Σ_{j: mask_j ⊆ s} β_j, the same one the fit itself runs on.
func GoodnessOfFit(tb *Table, fit *FitResult) GOF {
	n := 1 << uint(fit.Model.T)
	eta := make([]float64, n)
	stats.LatticeEta(fit.Model.T, fit.Model.ColumnMasks(), fit.Coef, eta)
	g := GOF{DF: n - 1 - fit.Model.NumParams()}
	for s := 1; s < len(tb.Counts); s++ {
		z := float64(tb.Counts[s])
		e := eta[s]
		if e > 30 {
			e = 30
		}
		mu := math.Exp(e)
		if mu < 1e-12 {
			mu = 1e-12
		}
		if z > 0 {
			g.Deviance += 2 * (z*math.Log(z/mu) - (z - mu))
		} else {
			g.Deviance += 2 * mu
		}
		g.Pearson += (z - mu) * (z - mu) / mu
	}
	if g.DF > 0 {
		g.PValue = 1 - stats.ChiSquareCDF(float64(g.DF), g.Deviance)
	} else {
		g.PValue = 1 // saturated: fits by construction
	}
	return g
}
