package ipset

import "math/bits"

// CaptureHistogram computes, for up to 16 sources, the number of addresses
// with each capture history. The returned slice has length 1<<len(sets);
// entry m counts the addresses present in exactly the sources whose bit is
// set in m (entry 0 is always zero — unobserved addresses are what the
// log-linear model estimates).
//
// The computation is page-wise: for each /24 page occupied by any source
// the per-source 256-bit bitmaps are combined 64 bits at a time. Addresses
// seen by a single source — the overwhelmingly common case — are counted
// in bulk with one popcount per source per word; only addresses covered by
// two or more sources take the per-bit mask assembly.
func CaptureHistogram(sets []*Set) []int64 {
	t := len(sets)
	if t == 0 {
		return []int64{0}
	}
	if t > 16 {
		panic("ipset: CaptureHistogram supports at most 16 sources")
	}
	counts := make([]int64, 1<<uint(t))
	for _, pages := range mergePages(sets) {
		foldPage(counts, &pages, t)
	}
	return counts
}

// A Grouping partitions occupied /24 pages for one grouped histogram:
// Group assigns a page (by Slash24Index) to a group in [0, N), or a
// negative group to drop the page under this grouping.
type Grouping struct {
	N     int
	Group func(key24 uint32) int
}

// CaptureHistogramsMulti computes CaptureHistogramsBy for several
// groupings at once, folding every merged page exactly once: the page's
// histogram lands in a scratch buffer and its touched cells are scattered
// into each grouping's target. The page fold dominates the grouped fold's
// cost and is identical for every grouping (only the page→group map
// differs), so k groupings cost barely more than one. Each result is
// cell-for-cell identical to the corresponding CaptureHistogramsBy call.
func CaptureHistogramsMulti(sets []*Set, groupings []Grouping) [][][]int64 {
	t := len(sets)
	out := make([][][]int64, len(groupings))
	for gi := range groupings {
		out[gi] = make([][]int64, groupings[gi].N)
	}
	if t == 0 || len(groupings) == 0 {
		return out
	}
	if t > 16 {
		panic("ipset: CaptureHistogramsMulti supports at most 16 sources")
	}
	scratch := make([]int64, 1<<uint(t))
	touched := make([]int, 0, 64)
	targets := make([][]int64, len(groupings))
	for idx, pages := range mergePages(sets) {
		keep := false
		for gi := range groupings {
			g := groupings[gi].Group(idx)
			if g < 0 || groupings[gi].N == 0 {
				targets[gi] = nil
				continue
			}
			counts := out[gi][g]
			if counts == nil {
				counts = make([]int64, 1<<uint(t))
				out[gi][g] = counts
			}
			targets[gi] = counts
			keep = true
		}
		if !keep {
			continue
		}
		touched = foldPageTouched(scratch, &pages, t, touched[:0])
		for _, c := range touched {
			v := scratch[c]
			scratch[c] = 0
			for _, tgt := range targets {
				if tgt != nil {
					tgt[c] += v
				}
			}
		}
	}
	return out
}

// mergePages joins the per-set page maps into one map of parallel page
// slots: one insertion per (set, occupied page) instead of t lookups per
// page of the union.
func mergePages(sets []*Set) map[uint32][16]*page {
	merged := make(map[uint32][16]*page)
	for i, s := range sets {
		for idx, p := range s.pages {
			m := merged[idx]
			m[i] = p
			merged[idx] = m
		}
	}
	return merged
}

// foldPageTouched is foldPage over a zeroed scratch histogram, additionally
// returning the cells it incremented (each listed once). Callers zero the
// listed cells again after scattering, keeping the scratch reusable.
func foldPageTouched(counts []int64, pages *[16]*page, t int, touched []int) []int {
	for w := 0; w < 4; w++ {
		var wds [16]uint64
		var any, mult uint64
		for i := 0; i < t; i++ {
			if p := pages[i]; p != nil {
				v := p[w]
				wds[i] = v
				mult |= any & v
				any |= v
			}
		}
		if any == 0 {
			continue
		}
		if single := any &^ mult; single != 0 {
			for i := 0; i < t; i++ {
				if n := bits.OnesCount64(wds[i] & single); n > 0 {
					c := 1 << uint(i)
					if counts[c] == 0 {
						touched = append(touched, c)
					}
					counts[c] += int64(n)
				}
			}
		}
		for mult != 0 {
			b := uint(bits.TrailingZeros64(mult))
			mult &^= 1 << b
			var mask int
			for i := 0; i < t; i++ {
				if wds[i]&(1<<b) != 0 {
					mask |= 1 << i
				}
			}
			if counts[mask] == 0 {
				touched = append(touched, mask)
			}
			counts[mask]++
		}
	}
	return touched
}

// foldPage accumulates one merged /24 page into a capture histogram.
func foldPage(counts []int64, pages *[16]*page, t int) {
	for w := 0; w < 4; w++ {
		var wds [16]uint64
		var any, mult uint64
		for i := 0; i < t; i++ {
			if p := pages[i]; p != nil {
				v := p[w]
				wds[i] = v
				mult |= any & v
				any |= v
			}
		}
		if any == 0 {
			continue
		}
		// Bits set in exactly one source: bulk popcount per source.
		if single := any &^ mult; single != 0 {
			for i := 0; i < t; i++ {
				if n := bits.OnesCount64(wds[i] & single); n > 0 {
					counts[1<<uint(i)] += int64(n)
				}
			}
		}
		// Bits shared by two or more sources: assemble the mask.
		for mult != 0 {
			b := uint(bits.TrailingZeros64(mult))
			mult &^= 1 << b
			var mask int
			for i := 0; i < t; i++ {
				if wds[i]&(1<<b) != 0 {
					mask |= 1 << i
				}
			}
			counts[mask]++
		}
	}
}
