package core

import (
	"math"
	"testing"

	"ghosts/internal/rng"
)

func TestModelHierarchical(t *testing.T) {
	m := IndependenceModel(3)
	if !m.Hierarchical(0b011) {
		t.Error("pairwise terms are always addable to the independence model")
	}
	if m.Hierarchical(0b111) {
		t.Error("3-way term requires all pairwise terms first")
	}
	if m.Hierarchical(0b001) {
		t.Error("main effects are not interaction terms")
	}
	m = m.With(0b011).With(0b101).With(0b110)
	if !m.Hierarchical(0b111) {
		t.Error("3-way term addable once all pairs present")
	}
}

func TestModelWithHas(t *testing.T) {
	m := IndependenceModel(4).With(0b1100).With(0b0011)
	if !m.Has(0b0011) || !m.Has(0b1100) || m.Has(0b0101) {
		t.Fatalf("Has wrong: %v", m.Terms)
	}
	if m.Terms[0] != 0b0011 {
		t.Fatalf("terms should be sorted: %v", m.Terms)
	}
	if m.NumParams() != 1+4+2 {
		t.Fatalf("NumParams = %d", m.NumParams())
	}
}

func TestTermName(t *testing.T) {
	if got := TermName(0b101); got != "u{1,3}" {
		t.Errorf("TermName(0b101) = %q", got)
	}
	if got := TermName(0b11); got != "u{1,2}" {
		t.Errorf("TermName(0b11) = %q", got)
	}
	// Source indices ≥ 10 must render as decimal, not bytes past '9'.
	if got := TermName(1<<9 | 1<<11); got != "u{10,12}" {
		t.Errorf("TermName(1<<9|1<<11) = %q, want u{10,12}", got)
	}
	if got := TermName(1 | 1<<15); got != "u{1,16}" {
		t.Errorf("TermName(1|1<<15) = %q, want u{1,16}", got)
	}
}

// denseDesign materialises m's GLM design, one row per observable history
// s = 1..2^t−1: column j is 1 iff column mask j ⊆ s. The fit never builds
// it — the lattice kernel works on the masks directly — so it exists only
// as the reference the tests check the mask bridge and the diagnostics
// against.
func denseDesign(m Model) [][]float64 {
	masks := m.ColumnMasks()
	x := make([][]float64, 1<<uint(m.T)-1)
	for s := 1; s <= len(x); s++ {
		row := make([]float64, len(masks))
		for j, h := range masks {
			if s&h == h {
				row[j] = 1
			}
		}
		x[s-1] = row
	}
	return x
}

func TestDesignShape(t *testing.T) {
	m := IndependenceModel(3).With(0b011)
	// Column order: intercept, mains, then interactions.
	masks := m.ColumnMasks()
	wantMasks := []int{0, 0b001, 0b010, 0b100, 0b011}
	if len(masks) != len(wantMasks) {
		t.Fatalf("column masks = %v, want %v", masks, wantMasks)
	}
	for j := range wantMasks {
		if masks[j] != wantMasks[j] {
			t.Fatalf("column masks = %v, want %v", masks, wantMasks)
		}
	}
	x := denseDesign(m)
	if len(x) != 7 {
		t.Fatalf("rows = %d, want 7", len(x))
	}
	if len(x[0]) != m.NumParams() {
		t.Fatalf("cols = %d, want %d", len(x[0]), m.NumParams())
	}
	for i := range x {
		if x[i][0] != 1 {
			t.Fatal("intercept column must be 1")
		}
	}
	// History 0b011 (row index 2): mains 1,2 present, interaction {1,2} on.
	row := x[0b011-1]
	if row[1] != 1 || row[2] != 1 || row[3] != 0 || row[4] != 1 {
		t.Fatalf("design row for 011 = %v", row)
	}
	// History 0b101: the {1,2} interaction is not a subset, so it is off.
	row = x[0b101-1]
	if row[1] != 1 || row[2] != 0 || row[3] != 1 || row[4] != 0 {
		t.Fatalf("design row for 101 = %v", row)
	}
	// History 0b111: everything on.
	row = x[0b111-1]
	if row[1] != 1 || row[2] != 1 || row[3] != 1 || row[4] != 1 {
		t.Fatalf("design row for 111 = %v", row)
	}
}

func TestFitIndependentExact(t *testing.T) {
	// Exact expected counts for independent sources: the independence model
	// must recover the unobserved cell essentially exactly.
	const n = 1e6
	probs := []float64{0.3, 0.4, 0.2}
	tb := expectedTable(n, probs)
	wantZ0 := n * (1 - 0.3) * (1 - 0.4) * (1 - 0.2)
	fit, err := FitModel(tb, IndependenceModel(3), math.Inf(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(fit.Z0-wantZ0) / wantZ0; rel > 0.01 {
		t.Fatalf("Z0 = %v, want %v (rel err %v)", fit.Z0, wantZ0, rel)
	}
	if math.Abs(fit.N-(float64(tb.Observed())+fit.Z0)) > 1e-6 {
		t.Fatal("N must equal M + Z0")
	}
}

func TestFitRecoversSampledPopulation(t *testing.T) {
	r := rng.New(123)
	const n = 200000
	probs := []float64{0.25, 0.35, 0.15, 0.3}
	tb := sampleTable(r, n, probs, nil, 0)
	fit, err := FitModel(tb, IndependenceModel(4), math.Inf(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(fit.N-n) / n; rel > 0.03 {
		t.Fatalf("N = %v, want ≈%v (rel err %v)", fit.N, float64(n), rel)
	}
}

func TestFitWithInteractionBeatsIndependenceUnderDependence(t *testing.T) {
	// Latent two-class heterogeneity between sources 1 and 2 induces
	// apparent dependence; the model with u_{12} gets closer to the truth.
	r := rng.New(5)
	const n = 300000
	base := []float64{0.1, 0.1, 0.3}
	hot := []float64{0.6, 0.6, 0.3} // classes differ only in sources 1,2
	tb := sampleTable(r, n, base, hot, 0.3)
	indep, err := FitModel(tb, IndependenceModel(3), math.Inf(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := FitModel(tb, IndependenceModel(3).With(0b011), math.Inf(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	errIndep := math.Abs(indep.N - n)
	errDep := math.Abs(dep.N - n)
	if errDep >= errIndep {
		t.Fatalf("interaction model should improve: indep err %v, dep err %v", errIndep, errDep)
	}
	// Positive dependence ⇒ independence model underestimates (§3.2.2).
	if indep.N >= n {
		t.Fatalf("independence model should underestimate under positive dependence, N = %v", indep.N)
	}
}

func TestFitTruncatedClampsImplausible(t *testing.T) {
	// With a binding truncation limit the estimate must respect the bound
	// better than the unbounded Poisson (§5.2 shows truncation helps for
	// small strata).
	const n = 1e4
	probs := []float64{0.05, 0.05, 0.05}
	tb := expectedTable(n, probs)
	limit := 1.2e4
	plain, err := FitModel(tb, IndependenceModel(3), math.Inf(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	trunc, err := FitModel(tb, IndependenceModel(3), limit, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(trunc.N) || trunc.N <= 0 {
		t.Fatalf("truncated fit invalid: %v", trunc.N)
	}
	_ = plain
}

func TestFitScaledDivisor(t *testing.T) {
	// Scaling counts by d then multiplying Z0 back must approximately
	// reproduce the unscaled estimate for well-populated tables.
	const n = 1e6
	probs := []float64{0.3, 0.4, 0.2}
	tb := expectedTable(n, probs)
	f1, err := FitModel(tb, IndependenceModel(3), math.Inf(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	f100, err := FitModel(tb, IndependenceModel(3), math.Inf(1), 100)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(f1.Z0-f100.Z0) / f1.Z0; rel > 0.02 {
		t.Fatalf("scaled fit Z0 = %v vs %v", f100.Z0, f1.Z0)
	}
}
