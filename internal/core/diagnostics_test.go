package core

import (
	"math"
	"testing"

	"ghosts/internal/rng"
)

func TestDependenceDetectsCorrelation(t *testing.T) {
	r := rng.New(61)
	// Sources 0 and 1 share a latent class; source 2 is neutral.
	base := []float64{0.08, 0.08, 0.35}
	hot := []float64{0.6, 0.6, 0.35}
	tb := sampleTable(r, 200000, base, hot, 0.3)
	dep := Dependence(tb)
	if dep[0][1] <= 0.2 {
		t.Fatalf("log-OR(0,1) = %v, want clearly positive", dep[0][1])
	}
	if math.Abs(dep[0][2]) > math.Abs(dep[0][1])/2 {
		t.Fatalf("log-OR(0,2) = %v should be much weaker than (0,1) = %v", dep[0][2], dep[0][1])
	}
	// Symmetry and zero diagonal.
	for i := 0; i < tb.T; i++ {
		if dep[i][i] != 0 {
			t.Fatal("diagonal must be zero")
		}
		for j := 0; j < tb.T; j++ {
			if dep[i][j] != dep[j][i] {
				t.Fatal("matrix must be symmetric")
			}
		}
	}
}

func TestDependenceIndependentNearZero(t *testing.T) {
	r := rng.New(62)
	tb := sampleTable(r, 150000, []float64{0.3, 0.25, 0.35}, nil, 0)
	dep := Dependence(tb)
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			if math.Abs(dep[i][j]) > 0.1 {
				t.Errorf("log-OR(%d,%d) = %v, want ≈0 for independent sources", i, j, dep[i][j])
			}
		}
	}
}

func TestGoodnessOfFit(t *testing.T) {
	r := rng.New(63)
	// Data generated with dependence: the independence model must fit
	// poorly, the model with the right interaction much better.
	base := []float64{0.08, 0.08, 0.3, 0.25}
	hot := []float64{0.55, 0.55, 0.3, 0.25}
	tb := sampleTable(r, 250000, base, hot, 0.3)

	indep, err := FitModel(tb, IndependenceModel(4), math.Inf(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	gofIndep := GoodnessOfFit(tb, indep)
	dep, err := FitModel(tb, IndependenceModel(4).With(0b0011), math.Inf(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	gofDep := GoodnessOfFit(tb, dep)

	if gofDep.Deviance >= gofIndep.Deviance {
		t.Fatalf("adding the true interaction must reduce deviance: %v -> %v",
			gofIndep.Deviance, gofDep.Deviance)
	}
	if gofIndep.PValue > 1e-6 {
		t.Fatalf("independence model should be rejected, p = %v", gofIndep.PValue)
	}
	if gofIndep.DF != 15-5 || gofDep.DF != 15-6 {
		t.Fatalf("df = %d, %d", gofIndep.DF, gofDep.DF)
	}
	if gofDep.Pearson <= 0 || gofIndep.Pearson <= gofDep.Pearson {
		t.Fatalf("Pearson: %v vs %v", gofIndep.Pearson, gofDep.Pearson)
	}
}

func TestGoodnessOfFitPerfect(t *testing.T) {
	// Exact expected counts under independence: deviance ≈ 0, p ≈ 1.
	tb := expectedTable(1e6, []float64{0.3, 0.4, 0.2})
	fit, err := FitModel(tb, IndependenceModel(3), math.Inf(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	g := GoodnessOfFit(tb, fit)
	if g.Deviance > 1 {
		t.Fatalf("deviance %v on exact data", g.Deviance)
	}
	if g.PValue < 0.99 {
		t.Fatalf("p-value %v on exact data", g.PValue)
	}
}

// denseGOF is the reference goodness-of-fit computation: η as the dot
// product of each materialised design row with the coefficients.
func denseGOF(tb *Table, fit *FitResult) GOF {
	x := denseDesign(fit.Model)
	g := GOF{DF: len(x) - fit.Model.NumParams()}
	for s := 1; s < len(tb.Counts); s++ {
		z := float64(tb.Counts[s])
		eta := 0.0
		for j, v := range x[s-1] {
			eta += v * fit.Coef[j]
		}
		mu := math.Max(math.Exp(math.Min(eta, 30)), 1e-12)
		if z > 0 {
			g.Deviance += 2 * (z*math.Log(z/mu) - (z - mu))
		} else {
			g.Deviance += 2 * mu
		}
		g.Pearson += (z - mu) * (z - mu) / mu
	}
	return g
}

// TestGoodnessOfFitMatchesDenseDesign pins GoodnessOfFit's lattice η
// against the dense-design computation for t = 2..6, with and without
// interaction terms.
func TestGoodnessOfFitMatchesDenseDesign(t *testing.T) {
	r := rng.New(64)
	for tt := 2; tt <= 6; tt++ {
		probs := make([]float64, tt)
		hot := make([]float64, tt)
		for i := range probs {
			probs[i] = 0.1 + 0.05*float64(i)
			hot[i] = 0.5
		}
		tb := sampleTable(r, 60000, probs, hot, 0.2)
		models := []Model{IndependenceModel(tt)}
		if tt >= 3 {
			models = append(models, IndependenceModel(tt).With(0b011).With(0b101))
		}
		for _, m := range models {
			fit, err := FitModel(tb, m, math.Inf(1), 1)
			if err != nil {
				t.Fatal(err)
			}
			got, want := GoodnessOfFit(tb, fit), denseGOF(tb, fit)
			if got.DF != want.DF {
				t.Fatalf("t=%d %v: DF %d, want %d", tt, m.Terms, got.DF, want.DF)
			}
			for _, c := range []struct {
				name      string
				got, want float64
			}{{"deviance", got.Deviance, want.Deviance}, {"pearson", got.Pearson, want.Pearson}} {
				if math.Abs(c.got-c.want) > 1e-9*math.Max(1, math.Abs(c.want)) {
					t.Fatalf("t=%d %v: %s %v, want %v", tt, m.Terms, c.name, c.got, c.want)
				}
			}
		}
	}
}
