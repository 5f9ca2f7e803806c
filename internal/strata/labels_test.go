package strata

import (
	"testing"

	"ghosts/internal/ipset"
	"ghosts/internal/ipv4"
)

// TestLabelTableDifferentialLabel pins the dense label table against the
// per-address Label lookup for every key: every used address must get the
// same label through either path, and unallocated space must stay
// unlabelled.
func TestLabelTableDifferentialLabel(t *testing.T) {
	u := testU()
	used := u.UsedAt(at())
	for _, k := range Keys() {
		lt := BuildLabelTable(u, k)
		if lt.NumStrata() < 2 {
			t.Fatalf("%v: only %d strata", k, lt.NumStrata())
		}
		n := 0
		used.Range(func(a ipv4.Addr) bool {
			want, wok := Label(u, a, k)
			got, gok := lt.LabelOf(a)
			if wok != gok || got != want {
				t.Fatalf("%v: LabelOf(%v) = %q,%v; Label = %q,%v", k, a, got, gok, want, wok)
			}
			n++
			return n < 50000
		})
		if _, ok := lt.LabelOf(ipv4.MustParseAddr("223.255.255.255")); ok {
			t.Fatalf("%v: unallocated address must not label", k)
		}
	}
}

// TestCaptureHistogramsDifferentialSplit pins the one-pass histogram fold
// against the dense reference: for every key, every stratum's histogram
// must equal ipset.CaptureHistogram over that stratum's Split sets cell
// for cell, and no stratum may appear on one side only.
func TestCaptureHistogramsDifferentialSplit(t *testing.T) {
	u := testU()
	used := u.UsedAt(at())
	half := ipset.New()
	third := ipset.New()
	i := 0
	used.Range(func(a ipv4.Addr) bool {
		if i%2 == 0 {
			half.Add(a)
		}
		if i%3 == 0 {
			third.Add(a)
		}
		i++
		return i < 200000
	})
	sets := []*ipset.Set{used, half, third}
	keys := Keys()
	lts := make([]*LabelTable, len(keys))
	for i, k := range keys {
		lts[i] = BuildLabelTable(u, k)
	}
	// One fold for every key, as Env.StratHists runs it.
	all := CaptureHistogramsAll(lts, sets)
	for i, k := range keys {
		hs := all[i]
		split := Split(u, sets, k)
		seen := 0
		hs.Range(func(label string, hist []int64) bool {
			seen++
			group, ok := split[label]
			if !ok {
				t.Fatalf("%v/%s: stratum missing from Split", k, label)
			}
			want := ipset.CaptureHistogram(group)
			if len(hist) != len(want) {
				t.Fatalf("%v/%s: histogram length %d != %d", k, label, len(hist), len(want))
			}
			for c := range want {
				if hist[c] != want[c] {
					t.Fatalf("%v/%s: cell %d = %d, want %d", k, label, c, hist[c], want[c])
				}
			}
			// Observed = union size, with no union set built.
			un := ipset.New()
			for _, s := range group {
				un.AddSet(s)
			}
			if Observed(hist) != int64(un.Len()) {
				t.Fatalf("%v/%s: observed %d != union %d", k, label, Observed(hist), un.Len())
			}
			return true
		})
		if seen != len(split) {
			t.Fatalf("%v: fold found %d strata, Split found %d", k, seen, len(split))
		}
	}
}

// TestHistSetLookups covers the HistSet accessors against Range.
func TestHistSetLookups(t *testing.T) {
	u := testU()
	sets := []*ipset.Set{u.UsedAt(at())}
	lt := BuildLabelTable(u, ByRIR)
	hs := CaptureHistogramsAll([]*LabelTable{lt}, sets)[0]
	hs.Range(func(label string, hist []int64) bool {
		got := hs.Hist(label)
		if &got[0] != &hist[0] {
			t.Fatalf("Hist(%q) returned a different slice", label)
		}
		return true
	})
	if hs.Hist("no-such-stratum") != nil {
		t.Fatal("unknown label must return nil")
	}
}

// LabelOf returns the label of address a, or false when a has no covering
// allocation — the dense-table equivalent of Label.
func (lt *LabelTable) LabelOf(a ipv4.Addr) (string, bool) {
	id := lt.ID(a.Slash24Index())
	if id < 0 {
		return "", false
	}
	return lt.labels[id], true
}
