package crossval

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"ghosts/internal/core"
	"ghosts/internal/dataset"
	"ghosts/internal/ipset"
	"ghosts/internal/ipv4"
	"ghosts/internal/parallel"
	"ghosts/internal/rng"
	"ghosts/internal/sources"
	"ghosts/internal/universe"
	"ghosts/internal/windows"
)

var cachedBundle *dataset.Bundle

// mustRun is Run on the joint table of sets under a context that never
// cancels.
func mustRun(t *testing.T, names []sources.Name, sets []*ipset.Set, est *core.Estimator, withCI bool) []SourceResult {
	t.Helper()
	out, err := Run(context.Background(), names, core.TableFromSets(sets, nil), est, withCI)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func bundle(t *testing.T) *dataset.Bundle {
	t.Helper()
	if cachedBundle == nil {
		u := universe.New(universe.TinyConfig(44))
		suite := sources.NewSuite(u, 7)
		raw := dataset.CollectRaw(u, suite, []windows.Window{windows.Paper()[9]})[0]
		cachedBundle = raw.Assemble(u, suite, dataset.DefaultOptions())
	}
	return cachedBundle
}

func TestRunBasics(t *testing.T) {
	b := bundle(t)
	est := core.NewEstimator(core.BIC, core.Adaptive1000, math.Inf(1))
	est.MaxTerms = 3
	est.MaxOrder = 2
	results := mustRun(t, b.Names, b.Sets, est, false)
	if len(results) != len(b.Sets) {
		t.Fatalf("results for %d of %d sources", len(results), len(b.Sets))
	}
	for _, r := range results {
		if r.Truth <= 0 {
			t.Fatalf("%s: no truth", r.Name)
		}
		if r.ObsAll <= 0 || r.ObsAll > r.Truth {
			t.Fatalf("%s: observed %d outside (0, %d]", r.Name, r.ObsAll, r.Truth)
		}
		if r.Est < float64(r.ObsAll) {
			t.Fatalf("%s: estimate %f below observed %d", r.Name, r.Est, r.ObsAll)
		}
		if r.Est > float64(r.Truth)*1.6 {
			t.Errorf("%s: estimate %.0f wildly above truth %d", r.Name, r.Est, r.Truth)
		}
		if r.Name != sources.IPING && r.ObsPing <= 0 {
			t.Errorf("%s: no ping overlap recorded", r.Name)
		}
	}
}

func TestCRBeatsObservedOnAverage(t *testing.T) {
	// The headline validation claim (§5): CR estimates are closer to the
	// truth than just counting the observed addresses.
	b := bundle(t)
	est := core.NewEstimator(core.BIC, core.Adaptive1000, math.Inf(1))
	est.MaxTerms = 3
	est.MaxOrder = 2
	results := mustRun(t, b.Names, b.Sets, est, false)
	var crErr, obsErr float64
	for _, r := range results {
		crErr += math.Abs(r.Error())
		obsErr += math.Abs(float64(r.ObsAll) - float64(r.Truth))
	}
	if crErr >= obsErr {
		t.Fatalf("CR MAE %.0f should beat observed-count MAE %.0f", crErr, obsErr)
	}
}

func TestPingUndercountsInCV(t *testing.T) {
	// Figure 3: only 50–60% of each source's addresses are in IPING.
	b := bundle(t)
	est := core.NewEstimator(core.AIC, core.Fixed1, math.Inf(1))
	est.MaxTerms = 2
	results := mustRun(t, b.Names, b.Sets, est, false)
	for _, r := range results {
		if r.Name == sources.IPING || r.Name == sources.TPING {
			continue
		}
		frac := float64(r.ObsPing) / float64(r.Truth)
		if frac > 0.85 {
			t.Errorf("%s: ping coverage %.2f too high", r.Name, frac)
		}
	}
}

func TestRunWithCI(t *testing.T) {
	b := bundle(t)
	est := core.NewEstimator(core.BIC, core.Adaptive1000, math.Inf(1))
	est.MaxTerms = 2
	est.MaxOrder = 2
	// CI on a reduced source list to keep the test quick.
	names := b.Names[:4]
	sets := b.Sets[:4]
	results := mustRun(t, names, sets, est, true)
	for _, r := range results {
		if r.Lo == 0 && r.Hi == 0 {
			t.Fatalf("%s: no interval computed", r.Name)
		}
		if r.Lo > r.Est || r.Hi < r.Est {
			t.Fatalf("%s: interval [%v,%v] excludes estimate %v", r.Name, r.Lo, r.Hi, r.Est)
		}
	}
}

func TestErrors(t *testing.T) {
	results := []SourceResult{
		{Truth: 100, Est: 110},
		{Truth: 100, Est: 90},
	}
	rmse, mae := Errors(results)
	if rmse != 10 || mae != 10 {
		t.Fatalf("rmse=%v mae=%v, want 10, 10", rmse, mae)
	}
	if r, m := Errors(nil); r != 0 || m != 0 {
		t.Fatal("empty errors must be 0")
	}
}

func TestRunDeterministicAcrossWorkers(t *testing.T) {
	// The leave-one-out fan-out must return byte-identical results in
	// source order regardless of worker count.
	defer parallel.SetWorkers(0)
	b := bundle(t)
	est := core.NewEstimator(core.BIC, core.Adaptive1000, math.Inf(1))
	est.MaxTerms = 3
	est.MaxOrder = 2
	parallel.SetWorkers(1)
	serial := mustRun(t, b.Names, b.Sets, est, false)
	parallel.SetWorkers(8)
	par := mustRun(t, b.Names, b.Sets, est, false)
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("parallel results differ from serial:\nserial: %+v\nparallel: %+v", serial, par)
	}
}

// TestRunCanceled: a dead context aborts the sweep with its error and no
// partial results — cancellation must never fabricate per-source fallbacks.
func TestRunCanceled(t *testing.T) {
	b := bundle(t)
	est := core.NewEstimator(core.BIC, core.Adaptive1000, math.Inf(1))
	est.MaxTerms = 3
	est.MaxOrder = 2
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := Run(ctx, b.Names, core.TableFromSets(b.Sets, nil), est, false)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if results != nil {
		t.Fatalf("canceled sweep returned %d results, want none", len(results))
	}
}

// TestRunOneSource pins the result with no co-source: the one source is
// its own universe, nobody else observed any of it, so the estimate falls
// back to the observed count, zero, with and without intervals.
func TestRunOneSource(t *testing.T) {
	sets := randomOverlapSets(3, 1, 500)
	names := []sources.Name{sources.WEB}
	est := core.NewEstimator(core.BIC, core.Adaptive1000, math.Inf(1))
	for _, withCI := range []bool{false, true} {
		got := mustRun(t, names, sets, est, withCI)
		want := []SourceResult{{Name: sources.WEB, Truth: int64(sets[0].Len())}}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("withCI=%v: got %+v, want %+v", withCI, got, want)
		}
		if legacy, ok := legacySourceRun(names, sets, est, 0, -1); !ok || !reflect.DeepEqual(legacy, want[0]) {
			t.Fatalf("set-based construction gives %+v, want %+v", legacy, want[0])
		}
	}
}

// legacySourceRun reproduces the pre-fold construction for one held-out
// source: materialised intersections of every co-source with the universe,
// TableFromSets over them, and IntersectCount for the ping overlap. The
// fold path must be result-identical to it.
func legacySourceRun(names []sources.Name, sets []*ipset.Set, est *core.Estimator, i, pingIdx int) (SourceResult, bool) {
	uni := sets[i]
	if uni.Len() == 0 {
		return SourceResult{}, false
	}
	restricted := make([]*ipset.Set, 0, len(sets)-1)
	for j := range sets {
		if j != i {
			restricted = append(restricted, ipset.Intersect(sets[j], uni))
		}
	}
	tb := core.TableFromSets(restricted, nil)
	res := SourceResult{Name: names[i], Truth: int64(uni.Len())}
	if pingIdx >= 0 && pingIdx != i {
		res.ObsPing = int64(ipset.IntersectCount(sets[pingIdx], uni))
	}
	res.ObsAll = tb.Observed()
	sub := *est
	if sub.Limit <= 0 || sub.Limit > float64(uni.Len()) {
		sub.Limit = float64(uni.Len())
	}
	r, err := sub.Run(context.Background(), tb, core.RunOptions{})
	if err != nil {
		res.Est = float64(res.ObsAll)
	} else {
		res.Est = r.N
	}
	return res, true
}

// randomOverlapSets builds k sets with a rich overlap structure: each of a
// pool of addresses joins each set with its own probability, so every
// capture history is populated.
func randomOverlapSets(seed uint64, k, pool int) []*ipset.Set {
	r := rng.New(seed)
	sets := make([]*ipset.Set, k)
	probs := make([]float64, k)
	for j := range sets {
		sets[j] = ipset.New()
		probs[j] = 0.15 + 0.6*r.Float64()
	}
	for a := 0; a < pool; a++ {
		addr := ipv4.Addr(0x0a000000 + uint32(r.Intn(1<<14)))
		for j := range sets {
			if r.Float64() < probs[j] {
				sets[j].Add(addr)
			}
		}
	}
	return sets
}

// TestFoldTableMatchesSetConstruction: for every held-out source the folded
// joint histogram must yield the cell-for-cell identical table, ping
// overlap and truth as materialised intersections — across k = 2..7 and
// several random overlap structures.
func TestFoldTableMatchesSetConstruction(t *testing.T) {
	for k := 2; k <= 7; k++ {
		for trial := 0; trial < 3; trial++ {
			sets := randomOverlapSets(uint64(1000*k+trial), k, 3000)
			joint := ipset.CaptureHistogram(sets)
			for i := 0; i < k; i++ {
				uni := sets[i]
				restricted := make([]*ipset.Set, 0, k-1)
				for j := 0; j < k; j++ {
					if j != i {
						restricted = append(restricted, ipset.Intersect(sets[j], uni))
					}
				}
				want := core.TableFromSets(restricted, nil)
				got := foldTable(joint, k, i)
				if !reflect.DeepEqual(want.Counts, got.Counts) {
					t.Fatalf("k=%d trial=%d held-out=%d: folded counts %v != set-based %v", k, trial, i, got.Counts, want.Counts)
				}
				var truth int64
				for f := range joint {
					if f&(1<<uint(i)) != 0 {
						truth += joint[f]
					}
				}
				if truth != int64(uni.Len()) {
					t.Fatalf("k=%d held-out=%d: folded truth %d != |universe| %d", k, i, truth, uni.Len())
				}
				for p := 0; p < k; p++ {
					if p == i {
						continue
					}
					want := int64(ipset.IntersectCount(sets[p], uni))
					if got := foldOverlap(joint, 1<<uint(i)|1<<uint(p)); got != want {
						t.Fatalf("k=%d held-out=%d overlap with %d: fold %d != intersect %d", k, i, p, got, want)
					}
				}
			}
		}
	}
}

// TestRunMatchesSetBasedConstruction pins the full cross-validation output
// — every SourceResult field — of the table entry point to the set-based
// construction, on both the simulated dataset bundle and synthetic
// random-overlap sets.
func TestRunMatchesSetBasedConstruction(t *testing.T) {
	est := core.NewEstimator(core.BIC, core.Adaptive1000, math.Inf(1))
	est.MaxTerms = 3
	est.MaxOrder = 2

	check := func(t *testing.T, names []sources.Name, sets []*ipset.Set) {
		t.Helper()
		got := mustRun(t, names, sets, est, false)
		pingIdx := -1
		for i, n := range names {
			if n == sources.IPING {
				pingIdx = i
			}
		}
		want := make([]SourceResult, 0, len(sets))
		for i := range sets {
			if r, ok := legacySourceRun(names, sets, est, i, pingIdx); ok {
				want = append(want, r)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("fold-based run differs from set-based construction:\nfold: %+v\nsets: %+v", got, want)
		}
	}

	b := bundle(t)
	t.Run("bundle", func(t *testing.T) { check(t, b.Names, b.Sets) })
	t.Run("synthetic", func(t *testing.T) {
		sets := randomOverlapSets(99, 5, 4000)
		names := []sources.Name{sources.WIKI, sources.SPAM, sources.IPING, sources.WEB, sources.GAME}
		check(t, names, sets)
	})
	t.Run("empty-source-skipped", func(t *testing.T) {
		sets := randomOverlapSets(7, 4, 2000)
		sets[2] = ipset.New()
		names := []sources.Name{sources.WIKI, sources.SPAM, sources.MLAB, sources.WEB}
		check(t, names, sets)
	})
}
