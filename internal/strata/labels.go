package strata

import (
	"strconv"

	"ghosts/internal/ipset"
	"ghosts/internal/ipv4"
	"ghosts/internal/registry"
	"ghosts/internal/telemetry"
	"ghosts/internal/universe"
)

// LabelTable is a dense universe-level stratum labelling under one key:
// every /24 covered by an allocation maps to a small stratum ID. Every
// key's labels are /24-granular (allocations are /24-aligned or larger;
// static/dynamic is defined per /24), so the table captures the full
// labelling exactly. It is built once per (universe, key) and shared by
// every window's histogram fold, replacing the per-call
// map[uint32]string cache Split rebuilds for every window.
type LabelTable struct {
	Key    Key
	lo     uint32   // first /24 index covered; meaningless when ids is empty
	ids    []int16  // per-/24 stratum ID, offset by lo; -1 = unallocated
	labels []string // stratum ID → label, in first-encounter order
}

// BuildLabelTable walks the registry once and labels every allocated /24
// under key k. Stratum IDs are assigned in allocation order (the registry
// is sorted by base address), so the table is deterministic.
func BuildLabelTable(u *universe.Universe, k Key) *LabelTable {
	lt := &LabelTable{Key: k}
	allocs := u.Reg.Allocs
	if len(allocs) == 0 {
		return lt
	}
	lt.lo = allocs[0].Prefix.First().Slash24Index()
	hi := allocs[len(allocs)-1].Prefix.Last().Slash24Index()
	lt.ids = make([]int16, hi-lt.lo+1)
	for i := range lt.ids {
		lt.ids[i] = -1
	}
	intern := make(map[string]int16)
	id := func(label string) int16 {
		n, ok := intern[label]
		if !ok {
			if len(lt.labels) > 1<<15-2 {
				panic("strata: too many strata for one key")
			}
			n = int16(len(lt.labels))
			intern[label] = n
			lt.labels = append(lt.labels, label)
		}
		return n
	}
	for ai := range allocs {
		al := &allocs[ai]
		lo24, hi24 := al.Prefix.First().Slash24Index(), al.Prefix.Last().Slash24Index()
		if k == ByStaticDyn {
			// Static/dynamic varies within an allocation: walk its /24s.
			for key := lo24; key <= hi24; key++ {
				label := "static"
				if u.IsDynamic(ipv4.Addr(key << 8)) {
					label = "dynamic"
				}
				lt.ids[key-lt.lo] = id(label)
			}
			continue
		}
		label, ok := allocLabel(al, k)
		if !ok {
			continue
		}
		n := id(label)
		for key := lo24; key <= hi24; key++ {
			lt.ids[key-lt.lo] = n
		}
	}
	return lt
}

// allocLabel returns the stratum label an allocation carries under key k —
// the allocation-constant keys only; ByStaticDyn varies within an
// allocation and is resolved per /24 by the callers.
func allocLabel(al *registry.Allocation, k Key) (string, bool) {
	switch k {
	case ByRIR:
		return al.RIR.String(), true
	case ByCountry:
		return al.Country, true
	case ByPrefix:
		return "/" + strconv.Itoa(al.Prefix.Bits), true
	case ByAge:
		return strconv.Itoa(al.Date.Year()), true
	case ByIndustry:
		return al.Industry.String(), true
	default:
		return "", false
	}
}

// NumStrata returns the number of distinct labels in the table.
func (lt *LabelTable) NumStrata() int { return len(lt.labels) }

// Labels returns the stratum labels in ID order. Callers must not mutate
// the returned slice.
func (lt *LabelTable) Labels() []string { return lt.labels }

// ID returns the stratum ID of the /24 with the given Slash24Index, or −1
// when no allocation covers it.
func (lt *LabelTable) ID(key24 uint32) int {
	if key24 < lt.lo || key24 >= lt.lo+uint32(len(lt.ids)) {
		return -1
	}
	return int(lt.ids[key24-lt.lo])
}

// HistSet holds one window's per-stratum capture histograms under one key:
// the joint fold of the parallel source sets, partitioned by stratum. It
// is the sweep experiments' shared intermediate — per-stratum contingency
// tables, observed totals and union sizes are all cheap folds over it, so
// no per-stratum address sets are ever materialised.
type HistSet struct {
	T     int // number of sources folded
	lt    *LabelTable
	hists [][]int64 // stratum ID → histogram (length 1<<T); nil = unobserved
}

// CaptureHistogramsAll folds the parallel source sets into per-stratum
// capture histograms for several keys' label tables in a single pass over
// the merged source pages: the per-page fold — the dominant cost, and
// identical for every key — runs once, and only the cheap page→stratum
// scatter differs per key. Addresses outside any allocation are dropped
// (they cannot be labelled), exactly as in Split: each stratum's histogram
// equals ipset.CaptureHistogram(Split(u, sets, k)[label]) cell for cell.
func CaptureHistogramsAll(lts []*LabelTable, sets []*ipset.Set) []*HistSet {
	telemetry.Active().HistogramFold()
	groupings := make([]ipset.Grouping, len(lts))
	for i, lt := range lts {
		groupings[i] = ipset.Grouping{N: lt.NumStrata(), Group: lt.ID}
	}
	folded := ipset.CaptureHistogramsMulti(sets, groupings)
	out := make([]*HistSet, len(lts))
	for i, lt := range lts {
		out[i] = &HistSet{T: len(sets), lt: lt, hists: folded[i]}
	}
	return out
}

// Range calls fn for every stratum with at least one observed address, in
// stratum ID order (deterministic), until fn returns false. hist has
// length 1<<T; callers must treat it as read-only.
func (h *HistSet) Range(fn func(label string, hist []int64) bool) {
	for id, hist := range h.hists {
		if hist == nil {
			continue
		}
		if !fn(h.lt.labels[id], hist) {
			return
		}
	}
}

// Hist returns the histogram of one label, or nil when the stratum was
// unobserved.
func (h *HistSet) Hist(label string) []int64 {
	for id, hist := range h.hists {
		if hist != nil && h.lt.labels[id] == label {
			return hist
		}
	}
	return nil
}

// Observed sums a capture histogram's cells: the number of observed
// individuals (cell 0 is structurally zero). This is the stratum's
// union-of-sources size, with no union set ever built.
func Observed(hist []int64) int64 {
	var n int64
	for _, c := range hist {
		n += c
	}
	return n
}
