package core

import (
	"context"
	"math"
	"testing"

	"ghosts/internal/rng"
)

func TestBootstrapIntervalBracketsEstimate(t *testing.T) {
	r := rng.New(41)
	tb := sampleTable(r, 80000, []float64{0.3, 0.25, 0.2}, nil, 0)
	fit, err := FitModel(tb, IndependenceModel(3), math.Inf(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	iv, err := BootstrapIntervalCtx(context.Background(), tb, fit, math.Inf(1), 200, 0.95, 7)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Lo > fit.N || iv.Hi < fit.N {
		t.Fatalf("interval [%v,%v] excludes estimate %v", iv.Lo, iv.Hi, fit.N)
	}
	if iv.Hi <= iv.Lo {
		t.Fatal("degenerate interval")
	}
	// Poisson-only noise: the width should be modest relative to N.
	if (iv.Hi-iv.Lo)/fit.N > 0.2 {
		t.Fatalf("interval [%v,%v] too wide for pure sampling noise", iv.Lo, iv.Hi)
	}
	// Truth (80000) should be near or inside; allow model bias slack.
	if iv.Hi < 70000 || iv.Lo > 90000 {
		t.Fatalf("interval [%v,%v] far from truth 80000", iv.Lo, iv.Hi)
	}
}

func TestBootstrapIntervalCoverage(t *testing.T) {
	// Repeated simulation: the 90% bootstrap interval should cover the
	// truth most of the time when the model is correctly specified.
	const truth = 30000
	covered, trials := 0, 12
	for i := 0; i < trials; i++ {
		r := rng.New(uint64(100 + i))
		tb := sampleTable(r, truth, []float64{0.35, 0.3, 0.25}, nil, 0)
		fit, err := FitModel(tb, IndependenceModel(3), math.Inf(1), 1)
		if err != nil {
			t.Fatal(err)
		}
		iv, err := BootstrapIntervalCtx(context.Background(), tb, fit, math.Inf(1), 120, 0.90, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if iv.Lo <= truth && truth <= iv.Hi {
			covered++
		}
	}
	if covered < trials/2 {
		t.Fatalf("interval covered the truth only %d/%d times", covered, trials)
	}
}

func TestBootstrapIntervalRespectsLimit(t *testing.T) {
	r := rng.New(43)
	tb := sampleTable(r, 50000, []float64{0.1, 0.12, 0.09}, nil, 0)
	limit := 52000.0
	fit, err := FitModel(tb, IndependenceModel(3), limit, 1)
	if err != nil {
		t.Fatal(err)
	}
	iv, err := BootstrapIntervalCtx(context.Background(), tb, fit, limit, 100, 0.95, 3)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Hi > limit+1e-9 {
		t.Fatalf("upper bound %v exceeds truncation limit %v", iv.Hi, limit)
	}
}

// TestBootstrapIntervalPinned pins the interval endpoints to the values
// the pre-lattice implementation produced (cold divisor-1 refit, dense
// design-row λ̂ accumulation). The warm-started refit and the subset-sum η
// must reproduce them: the refit converges to the same maximiser and
// λ̂-level differences are ~1e-12 relative, far below the resolution at
// which Poisson inversion sampling would flip a draw.
func TestBootstrapIntervalPinned(t *testing.T) {
	relErr := func(a, b float64) float64 { return math.Abs(a-b) / math.Abs(b) }
	r := rng.New(41)
	tb := sampleTable(r, 80000, []float64{0.3, 0.25, 0.2}, nil, 0)
	fit, err := FitModel(tb, IndependenceModel(3), math.Inf(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	iv, err := BootstrapIntervalCtx(context.Background(), tb, fit, math.Inf(1), 200, 0.95, 7)
	if err != nil {
		t.Fatal(err)
	}
	if relErr(iv.Lo, 78112.8786943375) > 1e-8 || relErr(iv.Hi, 80247.7577738891) > 1e-8 {
		t.Fatalf("interval [%.10f, %.10f] drifted from the cold-refit implementation's [78112.8786943375, 80247.7577738891]", iv.Lo, iv.Hi)
	}

	r2 := rng.New(43)
	tb2 := sampleTable(r2, 50000, []float64{0.1, 0.12, 0.09}, nil, 0)
	limit := 52000.0
	fit2, err := FitModel(tb2, IndependenceModel(3), limit, 1)
	if err != nil {
		t.Fatal(err)
	}
	iv2, err := BootstrapIntervalCtx(context.Background(), tb2, fit2, limit, 100, 0.95, 3)
	if err != nil {
		t.Fatal(err)
	}
	if relErr(iv2.Lo, 46887.2366863552) > 1e-8 || relErr(iv2.Hi, 51188.4509607143) > 1e-8 {
		t.Fatalf("truncated interval [%.10f, %.10f] drifted from the cold-refit implementation's [46887.2366863552, 51188.4509607143]", iv2.Lo, iv2.Hi)
	}
}

func TestBootstrapIntervalErrors(t *testing.T) {
	r := rng.New(44)
	tb := sampleTable(r, 1000, []float64{0.4, 0.4}, nil, 0)
	fit, err := FitModel(tb, IndependenceModel(2), math.Inf(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BootstrapIntervalCtx(context.Background(), tb, fit, math.Inf(1), 5, 0.95, 1); err == nil {
		t.Fatal("too few replicates accepted")
	}
	if _, err := BootstrapIntervalCtx(context.Background(), tb, fit, math.Inf(1), 100, 1.5, 1); err == nil {
		t.Fatal("bad confidence accepted")
	}
}
