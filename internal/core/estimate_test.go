package core

import (
	"errors"
	"math"
	"testing"

	"ghosts/internal/rng"
	"ghosts/internal/telemetry"
)

func TestEstimateRecoversTruth(t *testing.T) {
	r := rng.New(77)
	const n = 150000
	tb := sampleTable(r, n, []float64{0.3, 0.25, 0.2, 0.35}, nil, 0)
	est := NewEstimator(AIC, Fixed1, math.Inf(1))
	res, err := est.Estimate(tb)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(res.N-n) / n; rel > 0.05 {
		t.Fatalf("N = %v, want ≈%v", res.N, float64(n))
	}
	if res.Unseen <= 0 {
		t.Fatal("ghosts must be positive for undersampled population")
	}
	if res.Interval.Lo > res.N || res.Interval.Hi < res.N {
		t.Fatalf("interval [%v,%v] must contain N = %v", res.Interval.Lo, res.Interval.Hi, res.N)
	}
	if res.Interval.Lo < float64(res.Observed) {
		t.Fatalf("interval lower bound %v below observed %v", res.Interval.Lo, res.Observed)
	}
}

func TestEstimateBeatsObservedAndPing(t *testing.T) {
	// The headline claim: CR gets closer to the truth than raw observation
	// counts, under heterogeneity (§5.2, Table 4).
	r := rng.New(88)
	const n = 200000
	// Source 0 plays IPING: biased towards "servers" (hot class).
	base := []float64{0.05, 0.2, 0.15, 0.25}
	hot := []float64{0.8, 0.35, 0.3, 0.4}
	tb := sampleTable(r, n, base, hot, 0.2)
	est := DefaultEstimator(math.Inf(1))
	res, err := est.Estimate(tb)
	if err != nil {
		t.Fatal(err)
	}
	obsErr := math.Abs(float64(tb.Observed()) - n)
	crErr := math.Abs(res.N - n)
	if crErr >= obsErr {
		t.Fatalf("CR (err %v) should beat raw observed (err %v)", crErr, obsErr)
	}
}

func TestEstimateTruncationClampsToLimit(t *testing.T) {
	r := rng.New(99)
	const n = 50000
	tb := sampleTable(r, n, []float64{0.1, 0.12, 0.09}, nil, 0)
	est := DefaultEstimator(float64(n) * 1.05)
	res, err := est.Estimate(tb)
	if err != nil {
		t.Fatal(err)
	}
	if res.N > float64(n)*1.05+1e-6 {
		t.Fatalf("estimate %v exceeds truncation limit", res.N)
	}
	if res.Interval.Hi > float64(n)*1.05+1e-6 {
		t.Fatalf("interval upper %v exceeds truncation limit", res.Interval.Hi)
	}
}

func TestEstimateEmptyTable(t *testing.T) {
	est := DefaultEstimator(math.Inf(1))
	if _, err := est.Estimate(nil); err == nil {
		t.Fatal("nil table should fail")
	}
	if _, err := est.Estimate(NewTable(3)); err == nil {
		t.Fatal("empty table should fail")
	}
}

// oneSourceTable is a 3-source table in which only source 1 observed
// anything: after DropEmptySources it has a single source.
func oneSourceTable() *Table {
	tb := NewTable(3)
	tb.Counts[0b001] = 1500
	return tb
}

// TestEstimateOneSource: a table with fewer than two non-empty sources is
// refused with ErrTooFewSources before any fit runs.
func TestEstimateOneSource(t *testing.T) {
	rec := telemetry.NewRecorder()
	telemetry.Enable(rec)
	defer telemetry.Disable()
	est := DefaultEstimator(math.Inf(1))
	if _, err := est.Estimate(oneSourceTable()); !errors.Is(err, ErrTooFewSources) {
		t.Fatalf("err = %v, want ErrTooFewSources", err)
	}
	if _, _, err := est.EstimateSweepPoint(oneSourceTable(), nil); !errors.Is(err, ErrTooFewSources) {
		t.Fatalf("sweep err = %v, want ErrTooFewSources", err)
	}
	if got := rec.Fits.Load(); got != 0 {
		t.Fatalf("%d fits ran for a one-source table, want 0", got)
	}
}

// TestEstimateStratifiedOneSource: a stratum seen by a single source
// falls back to its observed count.
func TestEstimateStratifiedOneSource(t *testing.T) {
	r := rng.New(14)
	strataTables := []StratumTable{
		{Label: "alpha", Table: sampleTable(r, 80000, []float64{0.3, 0.2, 0.25}, nil, 0)},
		{Label: "lone", Table: oneSourceTable()},
	}
	est := NewEstimator(AIC, Fixed1, math.Inf(1))
	res, err := est.EstimateStratified(strataTables, 0)
	if err != nil {
		t.Fatal(err)
	}
	lone, ok := res.PerStrat["lone"]
	if !ok {
		t.Fatal("one-source stratum missing from the result")
	}
	if lone.N != 1500 || lone.Observed != 1500 {
		t.Fatalf("one-source stratum = %+v, want N = Observed = 1500", lone)
	}
}

func TestEstimateDropsEmptySources(t *testing.T) {
	r := rng.New(111)
	tb := sampleTable(r, 50000, []float64{0.3, 0.25}, nil, 0)
	// Embed in a 4-source table with two dead sources.
	big := NewTable(4)
	for s := 1; s < 4; s++ {
		// Map source 0→0, 1→2 (leaving 1 and 3 empty).
		ns := 0
		if s&1 != 0 {
			ns |= 1
		}
		if s&2 != 0 {
			ns |= 4
		}
		big.Counts[ns] = tb.Counts[s]
	}
	est := NewEstimator(AIC, Fixed1, math.Inf(1))
	res, err := est.Estimate(big)
	if err != nil {
		t.Fatal(err)
	}
	want := LincolnPetersen(tb.SourceTotal(0), tb.SourceTotal(1), tb.PairOverlap(0, 1))
	// Two-source LLM equals Lincoln-Petersen.
	if rel := math.Abs(res.N-want) / want; rel > 0.02 {
		t.Fatalf("2-source LLM N = %v, want L-P %v", res.N, want)
	}
}

func TestEstimateStratified(t *testing.T) {
	r := rng.New(13)
	strataTables := []StratumTable{
		{Label: "alpha", Table: sampleTable(r, 80000, []float64{0.3, 0.2, 0.25}, nil, 0)},
		{Label: "beta", Table: sampleTable(r, 40000, []float64{0.4, 0.3, 0.2}, nil, 0)},
		{Label: "tiny", Table: sampleTable(r, 50, []float64{0.5, 0.5, 0.5}, nil, 0)},
	}
	est := NewEstimator(AIC, Fixed1, math.Inf(1))
	res, err := est.EstimateStratified(strataTables, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Excluded) != 1 || res.Excluded[0] != "tiny" {
		t.Fatalf("sampling-zero exclusion failed: %v", res.Excluded)
	}
	if rel := math.Abs(res.Total-120000) / 120000; rel > 0.05 {
		t.Fatalf("stratified total = %v, want ≈120000", res.Total)
	}
	if _, ok := res.PerStrat["alpha"]; !ok {
		t.Fatal("per-stratum result missing")
	}
	// Disabling exclusion includes the tiny stratum.
	res2, err := est.EstimateStratified(strataTables, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Excluded) != 0 {
		t.Fatalf("exclusion should be disabled: %v", res2.Excluded)
	}
}

func TestEstimateStratifiedAllEmpty(t *testing.T) {
	est := DefaultEstimator(math.Inf(1))
	_, err := est.EstimateStratified([]StratumTable{{Label: "x", Table: NewTable(2)}}, 0)
	if err == nil {
		t.Fatal("all-empty strata should fail")
	}
}

// TestProfileIntervalWarmStartTelemetry: the bisection's evaluations must
// warm-start from one another — the saved
// Fisher iterations (cold-evaluation count minus each warm evaluation's)
// land in the WarmStartSaved counter.
func TestProfileIntervalWarmStartTelemetry(t *testing.T) {
	rec := telemetry.NewRecorder()
	telemetry.Enable(rec)
	defer telemetry.Disable()
	r := rng.New(41)
	tb := sampleTable(r, 80000, []float64{0.3, 0.25, 0.2}, nil, 0)
	fit, err := FitModel(tb, IndependenceModel(3), math.Inf(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ProfileInterval(tb, fit, math.Inf(1), 1e-7, math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	if got := rec.Fits.Load(); got == 0 {
		t.Fatal("profile evaluations ran no fits")
	}
	if got := rec.WarmStartSaved.Load(); got == 0 {
		t.Fatal("warm-started profile evaluations saved no Fisher iterations")
	}
}

func TestProfileIntervalWidensWithAlpha(t *testing.T) {
	r := rng.New(17)
	tb := sampleTable(r, 60000, []float64{0.3, 0.25, 0.3}, nil, 0)
	fit, err := FitModel(tb, IndependenceModel(3), math.Inf(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := ProfileInterval(tb, fit, math.Inf(1), 0.05, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	wide, err := ProfileInterval(tb, fit, math.Inf(1), 1e-7, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if wide.Hi-wide.Lo <= narrow.Hi-narrow.Lo {
		t.Fatalf("α=1e-7 interval [%v,%v] should be wider than α=0.05 [%v,%v]",
			wide.Lo, wide.Hi, narrow.Lo, narrow.Hi)
	}
	if narrow.Lo > fit.N || narrow.Hi < fit.N {
		t.Fatalf("interval must contain the point estimate")
	}
}

func TestBaselines(t *testing.T) {
	// Exact independent two-source table: L-P is exact.
	tb := expectedTable(100000, []float64{0.4, 0.3})
	lp := LincolnPetersenPair(tb, 0, 1)
	if math.Abs(lp-100000) > 500 {
		t.Fatalf("L-P on exact independent data = %v, want ≈100000", lp)
	}
	ch := Chapman(tb.SourceTotal(0), tb.SourceTotal(1), tb.PairOverlap(0, 1))
	if math.Abs(ch-lp) > 5 {
		t.Fatalf("Chapman %v should be close to L-P %v here", ch, lp)
	}
	if LincolnPetersen(10, 10, 0) != math.Inf(1) {
		t.Fatal("L-P with zero overlap must be +Inf")
	}
	if Chapman(10, 10, 0) != 120 {
		t.Fatalf("Chapman(10,10,0) = %v, want 120", Chapman(10, 10, 0))
	}
	// Chao is a lower bound for heterogeneous populations.
	r := rng.New(19)
	het := sampleTable(r, 100000, []float64{0.1, 0.1, 0.1}, []float64{0.7, 0.7, 0.7}, 0.3)
	chao := ChaoLowerBound(het)
	if chao < float64(het.Observed()) {
		t.Fatal("Chao must be at least the observed count")
	}
	if chao > 130000 {
		t.Fatalf("Chao = %v should stay below gross overestimates", chao)
	}
	if got := PingCorrection(100); got != 186 {
		t.Fatalf("PingCorrection(100) = %v", got)
	}
}

func TestChaoNoDoubles(t *testing.T) {
	tb := NewTable(2)
	tb.Counts[0b01] = 5
	tb.Counts[0b10] = 5
	// f2 = 0 → bias-corrected form.
	want := 10 + 10.0*9/2
	if got := ChaoLowerBound(tb); got != want {
		t.Fatalf("Chao fallback = %v, want %v", got, want)
	}
}

func BenchmarkEstimateFourSources(b *testing.B) {
	r := rng.New(23)
	tb := sampleTable(r, 100000, []float64{0.3, 0.25, 0.2, 0.35}, nil, 0)
	est := NewEstimator(BIC, Adaptive1000, math.Inf(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.EstimatePoint(tb); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectModelNineSources(b *testing.B) {
	r := rng.New(29)
	probs := []float64{0.3, 0.1, 0.15, 0.25, 0.1, 0.2, 0.3, 0.12, 0.18}
	hot := []float64{0.7, 0.5, 0.4, 0.5, 0.3, 0.6, 0.5, 0.3, 0.4}
	tb := sampleTable(r, 300000, probs, hot, 0.25)
	opt := SelectionOptions{IC: BIC, Divisor: Adaptive1000, Limit: math.Inf(1), MaxTerms: 6, MaxOrder: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := SelectModel(tb, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSampleCoverage(t *testing.T) {
	// Homogeneous capture with t = 3 occasions: SC lands above the truth
	// by the known small-t factor (1−q³)/Ĉ ≈ 1.29 here — the documented
	// bias of coverage estimators with few occasions.
	r := rng.New(71)
	const n = 120000
	tb := sampleTable(r, n, []float64{0.3, 0.3, 0.3}, nil, 0)
	sc := SampleCoverage(tb)
	if sc < 1.1*n || sc > 1.45*n {
		t.Fatalf("SC = %v, want ≈1.29×%v for t=3 homogeneous capture", sc, float64(n))
	}
	// It must exceed the observed count when some individuals are singly
	// captured.
	if sc <= float64(tb.Observed()) {
		t.Fatal("SC must estimate beyond the observed count")
	}
	// Degenerate: all singletons → infinite.
	deg := NewTable(2)
	deg.Counts[0b01] = 10
	deg.Counts[0b10] = 10
	if !math.IsInf(SampleCoverage(deg), 1) {
		t.Fatal("zero coverage must be +Inf")
	}
	// Single capture of a single individual: falls back to M.
	one := NewTable(2)
	one.Counts[0b01] = 1
	if got := SampleCoverage(one); got != 1 {
		t.Fatalf("SampleCoverage on one capture = %v", got)
	}
}

func TestSampleCoverageHeterogeneous(t *testing.T) {
	// Under strong two-class heterogeneity with t = 3 the coverage
	// estimate is inflated by the loud class, so SC lands between the
	// observed count and the truth — while the log-linear model with the
	// heterogeneity-induced interaction gets much closer.
	r := rng.New(72)
	const truth = 150000
	tb := sampleTable(r, truth, []float64{0.08, 0.08, 0.08}, []float64{0.6, 0.6, 0.6}, 0.3)
	sc := SampleCoverage(tb)
	m := float64(tb.Observed())
	if sc <= m {
		t.Fatalf("SC = %v must exceed observed %v", sc, m)
	}
	if sc >= truth {
		t.Fatalf("SC = %v should underestimate truth %v under heterogeneity", sc, float64(truth))
	}
}
