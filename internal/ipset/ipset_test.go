package ipset

import (
	"fmt"
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

// prefixRegion is a Region made of a list of prefixes, for Retain tests.
type prefixRegion []ipv4.Prefix

func (r prefixRegion) Covers(p ipv4.Prefix) (all, some bool) {
	for _, q := range r {
		if q.ContainsPrefix(p) {
			return true, true
		}
		if q.Overlaps(p) {
			some = true
		}
	}
	return false, some
}

func (r prefixRegion) Contains(a ipv4.Addr) bool {
	for _, q := range r {
		if q.Contains(a) {
			return true
		}
	}
	return false
}

// TestSetOpsMatchMapOracle interleaves random Add, Remove, RemoveSlash24,
// AddSet, Clone and Retain calls on a few sets over four /24s and checks
// every set against a map after each call. Adds cluster in a few pages, so
// Add's last-page cache is hit, and every page delete — a Remove that
// empties a page, RemoveSlash24, Retain — is followed by adds to the same
// /24: a cache that outlives its page loses those adds.
func TestSetOpsMatchMapOracle(t *testing.T) {
	const pages = 4
	base := ipv4.MustParseAddr("198.51.100.0") &^ 0x3ff
	addr := func(r *rand.Rand) ipv4.Addr {
		// Mostly low octets, so pages empty out and refill often.
		return base + ipv4.Addr(r.Intn(pages)<<8|r.Intn(8)<<r.Intn(6))
	}
	region := func(r *rand.Rand) prefixRegion {
		var reg prefixRegion
		for i := 0; i < 1+r.Intn(3); i++ {
			reg = append(reg, ipv4.NewPrefix(addr(r), 22+r.Intn(9)))
		}
		return reg
	}
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		sets := []*Set{New(), New()}
		oracles := []map[ipv4.Addr]bool{{}, {}}
		for op := 0; op < 3000; op++ {
			i := r.Intn(len(sets))
			s, m := sets[i], oracles[i]
			var desc string
			switch k := r.Intn(20); {
			case k < 10:
				a := addr(r)
				desc = "Add " + a.String()
				if got, want := s.Add(a), !m[a]; got != want {
					t.Fatalf("seed %d op %d: %s reported %v, want %v", seed, op, desc, got, want)
				}
				m[a] = true
			case k < 14:
				a := addr(r)
				desc = "Remove " + a.String()
				if got, want := s.Remove(a), m[a]; got != want {
					t.Fatalf("seed %d op %d: %s reported %v, want %v", seed, op, desc, got, want)
				}
				delete(m, a)
			case k < 16:
				a := addr(r)
				desc = "RemoveSlash24 " + a.String()
				want := 0
				for b := range m {
					if b.Slash24Index() == a.Slash24Index() {
						delete(m, b)
						want++
					}
				}
				if got := s.RemoveSlash24(a); got != want {
					t.Fatalf("seed %d op %d: %s removed %d, want %d", seed, op, desc, got, want)
				}
			case k < 17:
				j := r.Intn(len(sets))
				desc = "AddSet"
				s.AddSet(sets[j])
				for b := range oracles[j] {
					m[b] = true
				}
			case k < 18:
				reg := region(r)
				desc = "Retain"
				s.Retain(reg)
				for b := range m {
					if !reg.Contains(b) {
						delete(m, b)
					}
				}
			default:
				desc = "Clone"
				c := s.Clone()
				cm := make(map[ipv4.Addr]bool, len(m))
				for b := range m {
					cm[b] = true
				}
				if len(sets) < 4 {
					sets, oracles = append(sets, c), append(oracles, cm)
				} else {
					j := r.Intn(len(sets))
					sets[j], oracles[j] = c, cm
				}
			}
			for j := range sets {
				if err := matchesOracle(sets[j], oracles[j]); err != "" {
					t.Fatalf("seed %d op %d (%s on set %d): set %d %s", seed, op, desc, i, j, err)
				}
			}
		}
	}
}

// matchesOracle reports how s differs from the map m, or "" if it holds
// exactly m's addresses.
func matchesOracle(s *Set, m map[ipv4.Addr]bool) string {
	if s.Len() != len(m) {
		return fmt.Sprintf("has Len %d, oracle %d", s.Len(), len(m))
	}
	n := 0
	bad := ""
	s.Range(func(a ipv4.Addr) bool {
		n++
		if !m[a] {
			bad = fmt.Sprintf("ranges over %v, not in the oracle", a)
			return false
		}
		return true
	})
	if bad != "" {
		return bad
	}
	if n != len(m) {
		return fmt.Sprintf("ranges over %d addresses, Len says %d", n, len(m))
	}
	p24 := map[uint32]bool{}
	for a := range m {
		if !s.Contains(a) {
			return fmt.Sprintf("lacks %v", a)
		}
		p24[a.Slash24Index()] = true
	}
	if s.Slash24Len() != len(p24) {
		return fmt.Sprintf("has %d /24s, oracle %d", s.Slash24Len(), len(p24))
	}
	return ""
}
