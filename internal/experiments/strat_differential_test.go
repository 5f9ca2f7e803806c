package experiments

import (
	"math"
	"sort"
	"testing"

	"ghosts/internal/core"
	"ghosts/internal/dataset"
	"ghosts/internal/ipset"
	"ghosts/internal/parallel"
	"ghosts/internal/strata"
)

// stratSeriesSplit is the reference implementation of Env.StratSeries: it
// materialises per-stratum address sets with strata.Split and builds each
// contingency table from them. Estimation order and warm-start policy are
// the fast path's (both run stratSweep), so the two must agree bit for
// bit. Results are not cached.
func stratSeriesSplit(e *Env, k strata.Key, s24 bool) []map[string]float64 {
	splits := make([]map[string][]*ipset.Set, len(e.Win))
	sizes := make([]map[string]strata.Size, len(e.Win))
	parallel.ForEach(len(e.Win), func(i int) {
		b := e.Bundle(i, dataset.DefaultOptions())
		sets := b.Sets
		if s24 {
			sets = b.Sets24()
		}
		splits[i] = strata.Split(e.U, sets, k)
		idxs := e.U.RoutedAllocs(e.Win[i].End)
		sizes[i] = strata.RoutedSizes(e.U, k, idxs)
	})
	seen := map[string]bool{}
	var labels []string
	for _, split := range splits {
		for label := range split {
			if !seen[label] {
				seen[label] = true
				labels = append(labels, label)
			}
		}
	}
	sort.Strings(labels)
	tableOf := func(i int, label string) (*core.Table, float64, bool) {
		group, ok := splits[i][label]
		if !ok {
			return nil, 0, false
		}
		limit := math.Inf(1)
		if sz, ok := sizes[i][label]; ok {
			if s24 {
				limit = float64(sz.Slash24)
			} else {
				limit = float64(sz.Addrs)
			}
		}
		return core.TableFromSets(group, nil), limit, true
	}
	return e.stratSweep(labels, tableOf)
}

// TestStratDifferentialSeries pins the histogram fast path against the
// dense Split-based reference for every stratification key: identical
// strata, identical windows, bit-identical float64 estimates. The two
// paths share estimation order and warm-start policy and differ only in
// how the per-stratum contingency tables are built, so any mismatch is a
// fold bug, not numeric drift.
func TestStratDifferentialSeries(t *testing.T) {
	e := env(t)
	for _, k := range strata.Keys() {
		fast := e.StratSeries(k, false)
		dense := stratSeriesSplit(e, k, false)
		if len(fast) != len(dense) {
			t.Fatalf("%v: %d windows vs %d", k, len(fast), len(dense))
		}
		for i := range fast {
			if len(fast[i]) != len(dense[i]) {
				t.Fatalf("%v window %d: %d strata vs %d (%v vs %v)",
					k, i, len(fast[i]), len(dense[i]), fast[i], dense[i])
			}
			for label, want := range dense[i] {
				got, ok := fast[i][label]
				if !ok {
					t.Fatalf("%v window %d: stratum %q missing from fast path", k, i, label)
				}
				if got != want {
					t.Fatalf("%v window %d stratum %q: fast %v != dense %v (must be bit-identical)",
						k, i, label, got, want)
				}
			}
		}
	}
}

// TestStratDifferentialObserved pins StratObservedSeries (histogram cell
// sums) against per-stratum union sets built from Split.
func TestStratDifferentialObserved(t *testing.T) {
	e := env(t)
	for _, k := range strata.Keys() {
		fast := e.StratObservedSeries(k, false)
		for i := range e.Win {
			b := e.Bundle(i, dataset.DefaultOptions())
			split := strata.Split(e.U, b.Sets, k)
			dense := map[string]float64{}
			for label, group := range split {
				u := ipset.New()
				for _, s := range group {
					u.AddSet(s)
				}
				if u.Len() > 0 {
					dense[label] = float64(u.Len())
				}
			}
			if len(fast[i]) != len(dense) {
				t.Fatalf("%v window %d: %d strata vs %d", k, i, len(fast[i]), len(dense))
			}
			for label, want := range dense {
				if got := fast[i][label]; got != want {
					t.Fatalf("%v window %d stratum %q: observed %v != %v", k, i, label, got, want)
				}
			}
		}
	}
}

// TestStratObservedSeriesCached: the observed series must come out of the
// env cache on the second call.
func TestStratObservedSeriesCached(t *testing.T) {
	e := env(t)
	a := e.StratObservedSeries(strata.ByRIR, false)
	b := e.StratObservedSeries(strata.ByRIR, false)
	if len(a) == 0 || &a[0] != &b[0] {
		t.Fatal("StratObservedSeries must be cached")
	}
}
