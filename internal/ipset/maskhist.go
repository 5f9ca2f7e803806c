package ipset

import "ghosts/internal/ipv4"

// maskPage holds, for the 256 addresses of one /24 subnet, the capture
// mask of each address: bit i set ⇔ source i observed the address. It is
// the multi-source counterpart of page — same /24 granularity, sixteen
// bits per address instead of one.
type maskPage [256]uint16

// MaskHist is an incrementally maintained capture histogram: the same
// counts-per-capture-pattern vector CaptureHistogram computes by folding
// per-source Sets, but kept current on every insert instead of rebuilt on
// demand. Add is O(1) — read the address's old mask, move one count from
// hist[old] to hist[old|bit] — so the cost of keeping the histogram exact
// is proportional to the events ingested, never to the addresses held.
//
// The zero value is not ready for use; call NewMaskHist. MaskHist is not
// safe for concurrent use.
type MaskHist struct {
	t     int
	pages map[uint32]*maskPage
	hist  []int64 // length 1<<t; cell 0 (the unobserved cell) stays zero
	per   [16]int64
	size  int64
}

// NewMaskHist returns an empty capture histogram over t sources (1..16 —
// the same capture-history limit as CaptureHistogram).
func NewMaskHist(t int) *MaskHist {
	if t < 1 || t > 16 {
		panic("ipset: MaskHist supports 1..16 sources")
	}
	return &MaskHist{
		t:     t,
		pages: make(map[uint32]*maskPage),
		hist:  make([]int64, 1<<uint(t)),
	}
}

// T returns the number of sources the histogram currently spans.
func (h *MaskHist) T() int { return h.t }

// Grow widens the histogram to t sources (t ≥ current). Existing cells
// keep their indices: a source registered later occupies a higher mask
// bit that no stored address has set yet, so the old histogram is a
// prefix of the new one.
func (h *MaskHist) Grow(t int) {
	if t < h.t {
		panic("ipset: MaskHist.Grow cannot shrink")
	}
	if t > 16 {
		panic("ipset: MaskHist supports 1..16 sources")
	}
	if t == h.t {
		return
	}
	nh := make([]int64, 1<<uint(t))
	copy(nh, h.hist)
	h.hist = nh
	h.t = t
}

// Add records that source observed a, returning false when that exact
// (source, address) observation was already recorded. The histogram
// update is one decrement and one increment.
func (h *MaskHist) Add(source int, a ipv4.Addr) bool {
	if source < 0 || source >= h.t {
		panic("ipset: MaskHist.Add source out of range")
	}
	idx := a.Slash24Index()
	pg := h.pages[idx]
	if pg == nil {
		pg = new(maskPage)
		h.pages[idx] = pg
	}
	old := pg[a.LastByte()]
	bit := uint16(1) << uint(source)
	if old&bit != 0 {
		return false
	}
	pg[a.LastByte()] = old | bit
	if old != 0 {
		h.hist[old]--
	} else {
		h.size++
	}
	h.hist[int(old)|int(bit)]++
	h.per[source]++
	return true
}

// Len returns the number of distinct addresses observed by any source —
// the histogram total, M.
func (h *MaskHist) Len() int64 { return h.size }

// SourceLen returns the number of addresses source i has observed (its
// marginal count), maintained incrementally so empty-source checks never
// scan the histogram.
func (h *MaskHist) SourceLen(i int) int64 { return h.per[i] }

// Histogram returns the live histogram slice (length 1<<T). The slice is
// aliased, not copied: it is only valid until the next Add or Grow, and
// callers must not modify it.
func (h *MaskHist) Histogram() []int64 { return h.hist }
