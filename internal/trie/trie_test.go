package trie

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ghosts/internal/ipv4"
)

func TestInsertContains(t *testing.T) {
	var tr Trie
	tr.Insert(ipv4.MustParsePrefix("10.0.0.0/8"))
	if !tr.Contains(ipv4.MustParseAddr("10.5.6.7")) {
		t.Error("should contain address inside inserted prefix")
	}
	if tr.Contains(ipv4.MustParseAddr("11.0.0.0")) {
		t.Error("should not contain address outside")
	}
	if !tr.ContainsPrefix(ipv4.MustParsePrefix("10.1.0.0/16")) {
		t.Error("should contain nested prefix")
	}
	if tr.ContainsPrefix(ipv4.MustParsePrefix("0.0.0.0/0")) {
		t.Error("should not contain enclosing prefix")
	}
}

func TestAggregation(t *testing.T) {
	var tr Trie
	tr.Insert(ipv4.MustParsePrefix("10.0.0.0/9"))
	tr.Insert(ipv4.MustParsePrefix("10.128.0.0/9"))
	ps := tr.Prefixes()
	if len(ps) != 1 || ps[0] != ipv4.MustParsePrefix("10.0.0.0/8") {
		t.Fatalf("halves should aggregate to the parent, got %v", ps)
	}
}

func TestAggregationDeep(t *testing.T) {
	var tr Trie
	// Insert all four /26 of a /24: must collapse to the /24.
	for i := 0; i < 4; i++ {
		tr.Insert(ipv4.NewPrefix(ipv4.Addr(uint32(i)<<6), 26))
	}
	ps := tr.Prefixes()
	if len(ps) != 1 || ps[0] != ipv4.NewPrefix(0, 24) {
		t.Fatalf("four /26 should collapse to one /24, got %v", ps)
	}
}

func TestInsertSubsumed(t *testing.T) {
	var tr Trie
	tr.Insert(ipv4.MustParsePrefix("10.0.0.0/8"))
	tr.Insert(ipv4.MustParsePrefix("10.1.0.0/16")) // no-op: already covered
	ps := tr.Prefixes()
	if len(ps) != 1 || ps[0] != ipv4.MustParsePrefix("10.0.0.0/8") {
		t.Fatalf("nested insert should be absorbed, got %v", ps)
	}
	// Reverse order: insert small then covering large.
	var tr2 Trie
	tr2.Insert(ipv4.MustParsePrefix("10.1.0.0/16"))
	tr2.Insert(ipv4.MustParsePrefix("10.0.0.0/8"))
	ps2 := tr2.Prefixes()
	if len(ps2) != 1 || ps2[0] != ipv4.MustParsePrefix("10.0.0.0/8") {
		t.Fatalf("covering insert should absorb, got %v", ps2)
	}
}

func TestMatch(t *testing.T) {
	var tr Trie
	tr.Insert(ipv4.MustParsePrefix("10.0.0.0/8"))
	tr.Insert(ipv4.MustParsePrefix("192.168.1.0/24"))
	p, ok := tr.Match(ipv4.MustParseAddr("10.20.30.40"))
	if !ok || p != ipv4.MustParsePrefix("10.0.0.0/8") {
		t.Errorf("Match = %v, %v", p, ok)
	}
	p, ok = tr.Match(ipv4.MustParseAddr("192.168.1.200"))
	if !ok || p != ipv4.MustParsePrefix("192.168.1.0/24") {
		t.Errorf("Match = %v, %v", p, ok)
	}
	if _, ok := tr.Match(ipv4.MustParseAddr("8.8.8.8")); ok {
		t.Error("Match should fail for uncovered address")
	}
}

func TestAddrCount(t *testing.T) {
	var tr Trie
	tr.Insert(ipv4.MustParsePrefix("10.0.0.0/8"))
	tr.Insert(ipv4.MustParsePrefix("11.0.0.0/16"))
	want := uint64(1<<24 + 1<<16)
	if got := tr.AddrCount(); got != want {
		t.Errorf("AddrCount = %d, want %d", got, want)
	}
	if got := tr.Slash24Count(); got != 1<<16+1<<8 {
		t.Errorf("Slash24Count = %d, want %d", got, 1<<16+1<<8)
	}
}

func TestWalkAscending(t *testing.T) {
	var tr Trie
	for _, s := range []string{"192.0.0.0/8", "10.0.0.0/8", "172.16.0.0/12"} {
		tr.Insert(ipv4.MustParsePrefix(s))
	}
	ps := tr.Prefixes()
	for i := 1; i < len(ps); i++ {
		if ps[i-1].Base >= ps[i].Base {
			t.Fatalf("Walk not ascending: %v", ps)
		}
	}
}

func TestComplementPartition(t *testing.T) {
	var tr Trie
	tr.Insert(ipv4.MustParsePrefix("10.0.0.0/8"))
	within := ipv4.MustParsePrefix("0.0.0.0/0")
	comp := tr.Complement(within)
	if got := comp.AddrCount() + tr.AddrCount(); got != 1<<32 {
		t.Errorf("complement + set = %d addresses, want 2^32", got)
	}
	if comp.Contains(ipv4.MustParseAddr("10.1.1.1")) {
		t.Error("complement must not contain covered address")
	}
	if !comp.Contains(ipv4.MustParseAddr("11.1.1.1")) {
		t.Error("complement must contain uncovered address")
	}
}

func TestComplementWithinSubtree(t *testing.T) {
	var tr Trie
	tr.Insert(ipv4.MustParsePrefix("10.0.0.0/9"))
	within := ipv4.MustParsePrefix("10.0.0.0/8")
	comp := tr.Complement(within)
	ps := comp.Prefixes()
	if len(ps) != 1 || ps[0] != ipv4.MustParsePrefix("10.128.0.0/9") {
		t.Fatalf("complement within /8 = %v, want [10.128.0.0/9]", ps)
	}
	// within fully covered -> empty complement
	comp2 := tr.Complement(ipv4.MustParsePrefix("10.0.0.0/10"))
	if len(comp2.Prefixes()) != 0 {
		t.Fatal("complement of covered region should be empty")
	}
	// within untouched by trie -> complement is within itself
	comp3 := tr.Complement(ipv4.MustParsePrefix("42.0.0.0/8"))
	ps3 := comp3.Prefixes()
	if len(ps3) != 1 || ps3[0] != ipv4.MustParsePrefix("42.0.0.0/8") {
		t.Fatalf("complement of untouched region = %v", ps3)
	}
}

func TestFreeBlockVectorSingleAddr(t *testing.T) {
	var tr Trie
	tr.Insert(ipv4.NewPrefix(0, 32)) // use address 0.0.0.0 only
	x := tr.FreeBlockVector(ipv4.MustParsePrefix("0.0.0.0/0"))
	// One used /32 splits the /0 into one maximal free block of each size
	// /1../32 (§7.1's A-matrix dynamics).
	for i := 1; i <= 32; i++ {
		if x[i] != 1 {
			t.Fatalf("x[%d] = %d, want 1", i, x[i])
		}
	}
	if x[0] != 0 {
		t.Fatalf("x[0] = %d, want 0", x[0])
	}
}

func TestFreeBlockVectorEmpty(t *testing.T) {
	var tr Trie
	x := tr.FreeBlockVector(ipv4.MustParsePrefix("10.0.0.0/8"))
	if x[8] != 1 {
		t.Fatalf("x[8] = %d, want 1", x[8])
	}
	for i := 0; i <= 32; i++ {
		if i != 8 && x[i] != 0 {
			t.Fatalf("x[%d] = %d, want 0", i, x[i])
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	var tr Trie
	tr.Insert(ipv4.MustParsePrefix("10.0.0.0/8"))
	c := tr.Clone()
	c.Insert(ipv4.MustParsePrefix("11.0.0.0/8"))
	if tr.Contains(ipv4.MustParseAddr("11.0.0.1")) {
		t.Fatal("Clone shares nodes with original")
	}
}

// Property: a trie built from random /32s agrees with a map-based set, and
// AddrCount equals the number of distinct addresses.
func TestTrieMatchesNaiveSet(t *testing.T) {
	f := func(vs []uint32, probes []uint32) bool {
		var tr Trie
		ref := map[uint32]bool{}
		for _, v := range vs {
			tr.Insert(ipv4.NewPrefix(ipv4.Addr(v), 32))
			ref[v] = true
		}
		if tr.AddrCount() != uint64(len(ref)) {
			return false
		}
		for _, p := range probes {
			if tr.Contains(ipv4.Addr(p)) != ref[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: complement is an involution on coverage within a region.
func TestComplementInvolution(t *testing.T) {
	f := func(vs []uint32) bool {
		var tr Trie
		for _, v := range vs {
			// Constrain to 10.0.0.0/8 and use /28 blocks for speed.
			a := ipv4.Addr(0x0a000000 | v&0x00ffffff)
			tr.Insert(ipv4.NewPrefix(a, 28))
		}
		within := ipv4.MustParsePrefix("10.0.0.0/8")
		double := tr.Complement(within).Complement(within)
		// double should cover exactly tr ∩ within
		for _, v := range vs {
			a := ipv4.Addr(0x0a000000 | v&0x00ffffff)
			if !double.Contains(a) {
				return false
			}
		}
		return double.AddrCount() == uint64(tr.AddrCount())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkInsertRandom24(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	prefixes := make([]ipv4.Prefix, 4096)
	for i := range prefixes {
		prefixes[i] = ipv4.NewPrefix(ipv4.Addr(r.Uint32()), 24)
	}
	b.ResetTimer()
	var tr Trie
	for i := 0; i < b.N; i++ {
		tr.Insert(prefixes[i&4095])
	}
}

func BenchmarkContains(b *testing.B) {
	r := rand.New(rand.NewSource(8))
	var tr Trie
	for i := 0; i < 10000; i++ {
		tr.Insert(ipv4.NewPrefix(ipv4.Addr(r.Uint32()), 24))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Contains(ipv4.Addr(uint32(i) * 2654435761))
	}
}

// The lookups below are test-side helpers: the binaries reach the trie
// through Insert, Contains and Prefixes/Walk only.

// ContainsPrefix reports whether the entire prefix p is covered.
func (t *Trie) ContainsPrefix(p ipv4.Prefix) bool {
	n := t.root
	for depth := 0; n != nil; depth++ {
		if n.covered {
			return true
		}
		if depth == p.Bits {
			return false // would need the whole subtree covered, but it is not collapsed
		}
		n = n.children[bit(p.Base, depth)]
	}
	return false
}

// Match returns the shortest covering prefix of a and true, or the zero
// Prefix and false when a is not in the trie. Because the trie aggregates,
// the shortest covering prefix is the unique maximal block containing a.
func (t *Trie) Match(a ipv4.Addr) (ipv4.Prefix, bool) {
	n := t.root
	for depth := 0; n != nil; depth++ {
		if n.covered {
			return ipv4.NewPrefix(a, depth), true
		}
		if depth == 32 {
			break
		}
		n = n.children[bit(a, depth)]
	}
	return ipv4.Prefix{}, false
}

// AddrCount returns the total number of addresses covered by the trie.
func (t *Trie) AddrCount() uint64 {
	var n uint64
	t.Walk(func(p ipv4.Prefix) bool {
		n += p.Size()
		return true
	})
	return n
}

// Slash24Count returns the number of whole /24 subnets covered; covered
// blocks smaller than /24 contribute zero.
func (t *Trie) Slash24Count() uint64 {
	var n uint64
	t.Walk(func(p ipv4.Prefix) bool {
		n += uint64(p.Slash24Count())
		return true
	})
	return n
}

// Clone returns a deep copy of t.
func (t *Trie) Clone() *Trie {
	c := &Trie{}
	if t.root != nil {
		c.root = cloneNode(t.root)
	}
	return c
}

func cloneNode(n *node) *node {
	cp := &node{covered: n.covered}
	if n.children[0] != nil {
		cp.children[0] = cloneNode(n.children[0])
	}
	if n.children[1] != nil {
		cp.children[1] = cloneNode(n.children[1])
	}
	return cp
}
