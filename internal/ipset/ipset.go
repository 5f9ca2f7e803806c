package ipset

import (
	"math/bits"
	"sort"

	"ghosts/internal/ipv4"
)

// page is a 256-bit bitmap covering the 256 addresses of one /24 subnet.
type page [4]uint64

func (p *page) set(b byte)      { p[b>>6] |= 1 << (b & 63) }
func (p *page) clear(b byte)    { p[b>>6] &^= 1 << (b & 63) }
func (p *page) has(b byte) bool { return p[b>>6]&(1<<(b&63)) != 0 }
func (p *page) count() int {
	return bits.OnesCount64(p[0]) + bits.OnesCount64(p[1]) +
		bits.OnesCount64(p[2]) + bits.OnesCount64(p[3])
}
func (p *page) empty() bool { return p[0]|p[1]|p[2]|p[3] == 0 }

// Set is a mutable set of IPv4 addresses. The zero value is not ready for
// use; call New.
type Set struct {
	pages map[uint32]*page
	size  int
}

// New returns an empty address set.
func New() *Set { return &Set{pages: make(map[uint32]*page)} }

// Len returns the number of addresses in s.
func (s *Set) Len() int { return s.size }

// Add inserts a into s and reports whether it was newly added.
func (s *Set) Add(a ipv4.Addr) bool {
	idx := a.Slash24Index()
	p := s.pages[idx]
	if p == nil {
		p = new(page)
		s.pages[idx] = p
	}
	if p.has(a.LastByte()) {
		return false
	}
	p.set(a.LastByte())
	s.size++
	return true
}

// Remove deletes a from s and reports whether it was present.
func (s *Set) Remove(a ipv4.Addr) bool {
	idx := a.Slash24Index()
	p := s.pages[idx]
	if p == nil || !p.has(a.LastByte()) {
		return false
	}
	p.clear(a.LastByte())
	s.size--
	if p.empty() {
		delete(s.pages, idx)
	}
	return true
}

// Contains reports whether a is in s.
func (s *Set) Contains(a ipv4.Addr) bool {
	p := s.pages[a.Slash24Index()]
	return p != nil && p.has(a.LastByte())
}

// AddSet inserts every member of o into s.
func (s *Set) AddSet(o *Set) {
	for idx, op := range o.pages {
		p := s.pages[idx]
		if p == nil {
			cp := *op
			s.pages[idx] = &cp
			s.size += cp.count()
			continue
		}
		before := p.count()
		p[0] |= op[0]
		p[1] |= op[1]
		p[2] |= op[2]
		p[3] |= op[3]
		s.size += p.count() - before
	}
}

// Clone returns a deep copy of s.
func (s *Set) Clone() *Set {
	c := &Set{pages: make(map[uint32]*page, len(s.pages)), size: s.size}
	for idx, p := range s.pages {
		cp := *p
		c.pages[idx] = &cp
	}
	return c
}

// Union returns a new set containing members of either a or b.
func Union(a, b *Set) *Set {
	out := a.Clone()
	out.AddSet(b)
	return out
}

// Intersect returns a new set containing members of both a and b.
func Intersect(a, b *Set) *Set {
	if len(a.pages) > len(b.pages) {
		a, b = b, a
	}
	out := New()
	for idx, ap := range a.pages {
		bp := b.pages[idx]
		if bp == nil {
			continue
		}
		var np page
		np[0] = ap[0] & bp[0]
		np[1] = ap[1] & bp[1]
		np[2] = ap[2] & bp[2]
		np[3] = ap[3] & bp[3]
		if !np.empty() {
			cp := np
			out.pages[idx] = &cp
			out.size += np.count()
		}
	}
	return out
}

// IntersectCount returns |a ∩ b| without materialising the intersection.
// Capture-history construction calls this on every source pair, so it is a
// hot path.
func IntersectCount(a, b *Set) int {
	if len(a.pages) > len(b.pages) {
		a, b = b, a
	}
	n := 0
	for idx, ap := range a.pages {
		bp := b.pages[idx]
		if bp == nil {
			continue
		}
		n += bits.OnesCount64(ap[0]&bp[0]) + bits.OnesCount64(ap[1]&bp[1]) +
			bits.OnesCount64(ap[2]&bp[2]) + bits.OnesCount64(ap[3]&bp[3])
	}
	return n
}

// Range calls fn for every address in s in ascending order until fn returns
// false.
func (s *Set) Range(fn func(ipv4.Addr) bool) {
	idxs := make([]uint32, 0, len(s.pages))
	for idx := range s.pages {
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	for _, idx := range idxs {
		p := s.pages[idx]
		base := ipv4.Addr(idx << 8)
		for w := 0; w < 4; w++ {
			word := p[w]
			for word != 0 {
				bit := bits.TrailingZeros64(word)
				if !fn(base + ipv4.Addr(w*64+bit)) {
					return
				}
				word &= word - 1
			}
		}
	}
}

// Slash24Len returns the number of distinct /24 subnets with at least one
// member.
func (s *Set) Slash24Len() int { return len(s.pages) }

// RangeSlash24 calls fn with the base address and member count of every
// occupied /24 subnet, in ascending order, until fn returns false.
func (s *Set) RangeSlash24(fn func(base ipv4.Addr, count int) bool) {
	idxs := make([]uint32, 0, len(s.pages))
	for idx := range s.pages {
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	for _, idx := range idxs {
		if !fn(ipv4.Addr(idx<<8), s.pages[idx].count()) {
			return
		}
	}
}

// RemoveSlash24 deletes every member of the /24 subnet containing key and
// returns how many were removed. The spoof filter's first stage (§4.5)
// removes whole /24 subnets at once.
func (s *Set) RemoveSlash24(key ipv4.Addr) int {
	idx := key.Slash24Index()
	p := s.pages[idx]
	if p == nil {
		return 0
	}
	n := p.count()
	delete(s.pages, idx)
	s.size -= n
	return n
}

// Slash24Set projects s onto /24 subnets: the result contains the base
// address of every /24 with at least one member (§4.1's projection).
func (s *Set) Slash24Set() *Set {
	out := New()
	for idx := range s.pages {
		out.Add(ipv4.Addr(idx << 8))
	}
	return out
}

// CountInPrefix returns the number of members of s inside p.
func (s *Set) CountInPrefix(p ipv4.Prefix) int {
	if p.Bits >= 24 {
		pg := s.pages[p.Base.Slash24Index()]
		if pg == nil {
			return 0
		}
		if p.Bits == 24 {
			return pg.count()
		}
		n := 0
		for b := uint32(p.First()) & 0xff; b <= uint32(p.Last())&0xff; b++ {
			if pg.has(byte(b)) {
				n++
			}
		}
		return n
	}
	lo, hi := p.First().Slash24Index(), p.Last().Slash24Index()
	n := 0
	if span := hi - lo + 1; span < uint32(len(s.pages)) {
		for idx := lo; idx <= hi; idx++ {
			if pg := s.pages[idx]; pg != nil {
				n += pg.count()
			}
		}
		return n
	}
	for idx, pg := range s.pages {
		if idx >= lo && idx <= hi {
			n += pg.count()
		}
	}
	return n
}

// LastByteHistogram accumulates, into hist, how many members of s end with
// each final-octet value. The spoof filter estimates P(B|V) from this
// (§4.5).
func (s *Set) LastByteHistogram(hist *[256]int64) {
	for _, p := range s.pages {
		for w := 0; w < 4; w++ {
			word := p[w]
			for word != 0 {
				bit := bits.TrailingZeros64(word)
				hist[w*64+bit]++
				word &= word - 1
			}
		}
	}
}
