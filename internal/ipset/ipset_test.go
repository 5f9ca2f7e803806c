package ipset

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"ghosts/internal/ipv4"
)

func fromUints(vs []uint32) *Set {
	s := New()
	for _, v := range vs {
		s.Add(ipv4.Addr(v))
	}
	return s
}

func TestAddContainsRemove(t *testing.T) {
	s := New()
	a := ipv4.MustParseAddr("203.0.113.7")
	if s.Contains(a) {
		t.Fatal("empty set should not contain anything")
	}
	if !s.Add(a) {
		t.Fatal("first Add should report newly added")
	}
	if s.Add(a) {
		t.Fatal("second Add should report already present")
	}
	if !s.Contains(a) || s.Len() != 1 {
		t.Fatalf("Contains/Len wrong after add: len=%d", s.Len())
	}
	if !s.Remove(a) {
		t.Fatal("Remove should report present")
	}
	if s.Remove(a) {
		t.Fatal("second Remove should report absent")
	}
	if s.Len() != 0 || s.Slash24Len() != 0 {
		t.Fatalf("set should be empty, len=%d pages=%d", s.Len(), s.Slash24Len())
	}
}

func TestLenMatchesNaive(t *testing.T) {
	f := func(vs []uint32) bool {
		s := fromUints(vs)
		uniq := map[uint32]bool{}
		for _, v := range vs {
			uniq[v] = true
		}
		return s.Len() == len(uniq)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnionIntersectDiffProperties(t *testing.T) {
	f := func(as, bs []uint32) bool {
		a, b := fromUints(as), fromUints(bs)
		u := Union(a, b)
		i := Intersect(a, b)
		// Inclusion-exclusion and partition identities: a splits into
		// a ∩ b and the difference a \ b.
		if u.Len() != a.Len()+b.Len()-i.Len() {
			return false
		}
		diff := 0
		a.Range(func(x ipv4.Addr) bool {
			if !b.Contains(x) {
				diff++
			}
			return true
		})
		if diff != a.Len()-i.Len() {
			return false
		}
		if IntersectCount(a, b) != i.Len() {
			return false
		}
		// Every member relationship holds pointwise.
		ok := true
		u.Range(func(x ipv4.Addr) bool {
			if !a.Contains(x) && !b.Contains(x) {
				ok = false
				return false
			}
			return true
		})
		i.Range(func(x ipv4.Addr) bool {
			if !a.Contains(x) || !b.Contains(x) {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestUnionCommutes(t *testing.T) {
	f := func(as, bs []uint32) bool {
		a, b := fromUints(as), fromUints(bs)
		u1, u2 := Union(a, b), Union(b, a)
		if u1.Len() != u2.Len() {
			return false
		}
		eq := true
		u1.Range(func(x ipv4.Addr) bool {
			if !u2.Contains(x) {
				eq = false
				return false
			}
			return true
		})
		return eq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := fromUints([]uint32{1, 2, 300, 70000})
	c := a.Clone()
	c.Add(ipv4.Addr(5))
	c.Remove(ipv4.Addr(1))
	if !a.Contains(ipv4.Addr(1)) || a.Contains(ipv4.Addr(5)) {
		t.Fatal("Clone shares storage with original")
	}
}

func TestRangeAscending(t *testing.T) {
	vs := []uint32{0xffffffff, 0, 12345, 1 << 24, 256, 255}
	s := fromUints(vs)
	var got []ipv4.Addr
	s.Range(func(a ipv4.Addr) bool {
		got = append(got, a)
		return true
	})
	want := append([]uint32(nil), vs...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range got {
		if uint32(got[i]) != want[i] {
			t.Fatalf("Range visit %d = %v, want %v", i, got[i], ipv4.Addr(want[i]))
		}
	}
}

func TestRangeEarlyStop(t *testing.T) {
	s := fromUints([]uint32{1, 2, 3, 4, 5})
	n := 0
	s.Range(func(ipv4.Addr) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("Range visited %d, want 3", n)
	}
}

func TestSlash24Projection(t *testing.T) {
	s := New()
	s.Add(ipv4.MustParseAddr("10.0.0.1"))
	s.Add(ipv4.MustParseAddr("10.0.0.200"))
	s.Add(ipv4.MustParseAddr("10.0.1.1"))
	s.Add(ipv4.MustParseAddr("192.168.0.9"))
	if got := s.Slash24Len(); got != 3 {
		t.Fatalf("Slash24Len = %d, want 3", got)
	}
	p := s.Slash24Set()
	if p.Len() != 3 {
		t.Fatalf("Slash24Set len = %d, want 3", p.Len())
	}
	if !p.Contains(ipv4.MustParseAddr("10.0.0.0")) || !p.Contains(ipv4.MustParseAddr("192.168.0.0")) {
		t.Fatal("Slash24Set missing expected bases")
	}
	if got := s.pages[ipv4.MustParseAddr("10.0.0.77").Slash24Index()].count(); got != 2 {
		t.Fatalf("/24 of 10.0.0.77 holds %d members, want 2", got)
	}
}

func TestRemoveSlash24(t *testing.T) {
	s := New()
	s.Add(ipv4.MustParseAddr("10.0.0.1"))
	s.Add(ipv4.MustParseAddr("10.0.0.2"))
	s.Add(ipv4.MustParseAddr("10.0.1.1"))
	if got := s.RemoveSlash24(ipv4.MustParseAddr("10.0.0.99")); got != 2 {
		t.Fatalf("RemoveSlash24 removed %d, want 2", got)
	}
	if s.Len() != 1 || s.Contains(ipv4.MustParseAddr("10.0.0.1")) {
		t.Fatal("subnet members not removed")
	}
	if got := s.RemoveSlash24(ipv4.MustParseAddr("10.0.0.99")); got != 0 {
		t.Fatalf("second RemoveSlash24 removed %d, want 0", got)
	}
}

func TestCountInPrefix(t *testing.T) {
	s := New()
	for _, a := range []string{"10.0.0.1", "10.0.0.130", "10.0.1.1", "10.1.0.1", "11.0.0.1"} {
		s.Add(ipv4.MustParseAddr(a))
	}
	tests := []struct {
		p    string
		want int
	}{
		{"10.0.0.0/8", 4},
		{"10.0.0.0/16", 3},
		{"10.0.0.0/24", 2},
		{"10.0.0.0/25", 1},
		{"10.0.0.128/25", 1},
		{"10.0.0.0/32", 0},
		{"10.0.0.1/32", 1},
		{"0.0.0.0/0", 5},
		{"12.0.0.0/8", 0},
	}
	for _, tt := range tests {
		if got := s.CountInPrefix(ipv4.MustParsePrefix(tt.p)); got != tt.want {
			t.Errorf("CountInPrefix(%s) = %d, want %d", tt.p, got, tt.want)
		}
	}
}

func TestCountInPrefixMatchesNaive(t *testing.T) {
	f := func(vs []uint32, base uint32, bitsRaw uint8) bool {
		bitsN := int(bitsRaw % 33)
		p := ipv4.NewPrefix(ipv4.Addr(base), bitsN)
		s := fromUints(vs)
		want := 0
		s.Range(func(a ipv4.Addr) bool {
			if p.Contains(a) {
				want++
			}
			return true
		})
		return s.CountInPrefix(p) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestLastByteHistogram(t *testing.T) {
	s := New()
	s.Add(ipv4.MustParseAddr("10.0.0.1"))
	s.Add(ipv4.MustParseAddr("10.5.5.1"))
	s.Add(ipv4.MustParseAddr("10.0.0.255"))
	var hist [256]int64
	s.LastByteHistogram(&hist)
	if hist[1] != 2 || hist[255] != 1 || hist[0] != 0 {
		t.Fatalf("histogram wrong: hist[1]=%d hist[255]=%d hist[0]=%d", hist[1], hist[255], hist[0])
	}
	var total int64
	for _, c := range hist {
		total += c
	}
	if total != int64(s.Len()) {
		t.Fatalf("histogram total %d != len %d", total, s.Len())
	}
}

func TestAddSetCounts(t *testing.T) {
	f := func(as, bs []uint32) bool {
		a, b := fromUints(as), fromUints(bs)
		want := Union(a, b).Len()
		a.AddSet(b)
		return a.Len() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func randomSet(n int, seed int64) *Set {
	r := rand.New(rand.NewSource(seed))
	s := New()
	for i := 0; i < n; i++ {
		s.Add(ipv4.Addr(r.Uint32()))
	}
	return s
}

func BenchmarkAdd(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	vals := make([]ipv4.Addr, 1<<16)
	for i := range vals {
		vals[i] = ipv4.Addr(r.Uint32())
	}
	b.ResetTimer()
	s := New()
	for i := 0; i < b.N; i++ {
		s.Add(vals[i&(1<<16-1)])
	}
}

func BenchmarkIntersectCount(b *testing.B) {
	x := randomSet(100000, 1)
	y := randomSet(100000, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		IntersectCount(x, y)
	}
}

func BenchmarkUnion(b *testing.B) {
	x := randomSet(50000, 3)
	y := randomSet(50000, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Union(x, y)
	}
}
