package universe

import (
	"testing"
	"time"

	"ghosts/internal/ipv4"
	"ghosts/internal/windows"
)

func tiny(t *testing.T) *Universe {
	t.Helper()
	return New(TinyConfig(1))
}

func date(y, m, d int) time.Time {
	return time.Date(y, time.Month(m), d, 0, 0, 0, 0, time.UTC)
}

func TestYearOf(t *testing.T) {
	if got := YearOf(date(2012, 1, 1)); got != 2012 {
		t.Errorf("YearOf(2012-01-01) = %v", got)
	}
	mid := YearOf(date(2012, 7, 2))
	if mid < 2012.49 || mid > 2012.51 {
		t.Errorf("YearOf(mid 2012) = %v", mid)
	}
}

func TestGrowthMonotone(t *testing.T) {
	u := tiny(t)
	prev := 0
	for _, w := range windows.Paper() {
		n := u.UsedAt(w.End).Len()
		if n < prev {
			t.Fatalf("population shrank: %d -> %d at %s", prev, n, w.Label())
		}
		prev = n
	}
	if prev == 0 {
		t.Fatal("no used addresses at the final window")
	}
}

func TestGrowthActuallyGrows(t *testing.T) {
	u := tiny(t)
	ws := windows.Paper()
	first := u.UsedAt(ws[0].End).Len()
	last := u.UsedAt(ws[len(ws)-1].End).Len()
	if first == 0 {
		t.Fatal("empty population at first window")
	}
	growth := float64(last) / float64(first)
	// Paper: used IPv4 addresses grew ≈1.6–1.7× from Dec 2011 to Jun 2014;
	// accept a band around that shape.
	if growth < 1.2 || growth > 2.6 {
		t.Fatalf("growth %v over the study period implausible (want ≈1.7)", growth)
	}
}

func TestIsUsedMatchesEnumeration(t *testing.T) {
	u := tiny(t)
	at := date(2013, 6, 30)
	set := u.UsedAt(at)
	n := 0
	set.Range(func(a ipv4.Addr) bool {
		n++
		if n > 2000 {
			return false
		}
		if !u.IsUsedAt(a, at) {
			t.Fatalf("enumerated %v not IsUsedAt", a)
		}
		return true
	})
	// Spot-check non-membership.
	misses := 0
	for i := uint32(0); i < 3000; i++ {
		a := ipv4.Addr(i * 2654435761)
		if !set.Contains(a) {
			misses++
			if u.IsUsedAt(a, at) {
				t.Fatalf("%v IsUsedAt but not enumerated", a)
			}
		}
	}
	if misses == 0 {
		t.Fatal("spot check found no negatives; universe suspiciously full")
	}
}

func TestActivationYearConsistent(t *testing.T) {
	u := tiny(t)
	at := date(2014, 6, 30)
	early := date(2011, 12, 31)
	set := u.UsedAt(at)
	checked := 0
	set.Range(func(a ipv4.Addr) bool {
		y, ok := u.ActivationYear(a)
		if !ok {
			t.Fatalf("used address %v has no activation year", a)
		}
		if y > YearOf(at) {
			t.Fatalf("activation %v after enumeration time", y)
		}
		if u.IsUsedAt(a, early) != (y <= YearOf(early)) {
			t.Fatalf("IsUsedAt inconsistent with ActivationYear for %v", a)
		}
		checked++
		return checked < 5000
	})
}

func TestUsedInPrefixSubset(t *testing.T) {
	u := tiny(t)
	at := date(2013, 12, 31)
	all := u.UsedAt(at)
	// Take the /16 of the first used address.
	var pfx ipv4.Prefix
	all.Range(func(a ipv4.Addr) bool {
		pfx = ipv4.NewPrefix(a, 16)
		return false
	})
	sub := u.UsedInPrefix(pfx, at)
	if sub.Len() == 0 {
		t.Fatal("prefix of a used address must contain used addresses")
	}
	sub.Range(func(a ipv4.Addr) bool {
		if !pfx.Contains(a) {
			t.Fatalf("%v outside %v", a, pfx)
		}
		if !all.Contains(a) {
			t.Fatalf("%v in prefix enumeration but not global", a)
		}
		return true
	})
	if got := all.CountInPrefix(pfx); got != sub.Len() {
		t.Fatalf("prefix enumeration %d != global restriction %d", sub.Len(), got)
	}
}

func TestEmptyBlocksAreEmpty(t *testing.T) {
	u := tiny(t)
	at := date(2014, 6, 30)
	for _, pfx := range u.EmptyBlocks() {
		if n := u.UsedInPrefix(pfx, at).Len(); n != 0 {
			t.Fatalf("empty /8 %v has %d used addresses", pfx, n)
		}
		// But they must be routed (so spoofed traffic in them survives
		// routed-space filtering, §4.5).
		if _, ok := u.RoutedPrefixAt(pfx.First(), at); !ok {
			t.Fatalf("empty /8 %v not routed", pfx)
		}
	}
	if len(u.EmptyBlocks()) == 0 {
		t.Fatal("tiny config should have an empty /8")
	}
}

func TestActiveFraction(t *testing.T) {
	u := tiny(t)
	w := windows.Paper()[8]
	at := w.End
	seen := 0
	u.RangeUsed(at, func(a ipv4.Addr, activation float64) bool {
		f := u.ActiveFraction(a, w.Start, w.End)
		if f < 0 || f > 1 {
			t.Fatalf("ActiveFraction = %v", f)
		}
		if activation <= YearOf(w.Start) && f != 1 {
			t.Fatalf("address active before window must have fraction 1, got %v", f)
		}
		if activation > YearOf(w.Start) && f >= 1 {
			t.Fatalf("late activator must have fraction < 1, got %v (activation %v)", f, activation)
		}
		seen++
		return seen < 5000
	})
	// Unused address has zero fraction.
	if f := u.ActiveFraction(ipv4.MustParseAddr("223.255.255.255"), w.Start, w.End); f != 0 {
		t.Fatalf("unused address fraction = %v", f)
	}
}

func TestClassesAndHeterogeneity(t *testing.T) {
	u := tiny(t)
	at := date(2014, 6, 30)
	counts := map[DeviceClass]int{}
	n := 0
	u.UsedAt(at).Range(func(a ipv4.Addr) bool {
		counts[u.Class(a)]++
		n++
		return n < 50000
	})
	if counts[Client]+counts[NATGateway] == 0 {
		t.Fatal("no clients in universe")
	}
	if counts[Server] == 0 || counts[Router] == 0 {
		t.Fatalf("class mix missing servers/routers: %v", counts)
	}
	// .1 addresses are always routers.
	if got := u.Class(ipv4.MustParseAddr("5.5.5.1")); got != Router {
		t.Fatalf("Class(.1) = %v, want Router", got)
	}
}

func TestActivityRange(t *testing.T) {
	u := tiny(t)
	hi, lo := 0.0, 1.0
	for i := uint32(0); i < 20000; i++ {
		a := ipv4.Addr(i * 2654435761)
		act := u.Activity(a)
		if act <= 0 || act > 1 {
			t.Fatalf("Activity(%v) = %v", a, act)
		}
		if act > hi {
			hi = act
		}
		if act < lo {
			lo = act
		}
	}
	if hi < 0.5 || lo > 0.05 {
		t.Fatalf("activity spread too narrow: [%v, %v]", lo, hi)
	}
}

func TestDynamicPoolsExist(t *testing.T) {
	u := tiny(t)
	at := date(2014, 6, 30)
	dyn, stat := 0, 0
	n := 0
	u.UsedAt(at).Range(func(a ipv4.Addr) bool {
		if u.IsDynamic(a) {
			dyn++
		} else {
			stat++
		}
		n++
		return n < 50000
	})
	if dyn == 0 || stat == 0 {
		t.Fatalf("expected both dynamic and static addresses: dyn=%d stat=%d", dyn, stat)
	}
}

func TestSimultaneousPeakBelowCumulative(t *testing.T) {
	u := tiny(t)
	at := date(2014, 6, 30)
	total, peak := 0, 0
	u.UsedAt(at).Range(func(a ipv4.Addr) bool {
		total++
		if u.SimultaneousPeak(a) {
			peak++
		}
		return total < 100000
	})
	if peak >= total {
		t.Fatalf("peak %d must be below cumulative %d", peak, total)
	}
	if float64(peak) < 0.3*float64(total) {
		t.Fatalf("peak %d implausibly low vs %d", peak, total)
	}
}

func TestFirewallDropRange(t *testing.T) {
	u := tiny(t)
	for i := uint32(0); i < 10000; i++ {
		a := ipv4.Addr(i * 40503)
		d := u.FirewallDrop(a)
		if d < 0 || d > 1 {
			t.Fatalf("FirewallDrop = %v", d)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := New(TinyConfig(9))
	b := New(TinyConfig(9))
	at := date(2013, 3, 31)
	sa, sb := a.UsedAt(at), b.UsedAt(at)
	if sa.Len() != sb.Len() {
		t.Fatalf("same seed different population: %d vs %d", sa.Len(), sb.Len())
	}
	c := New(TinyConfig(10))
	if c.UsedAt(at).Len() == sa.Len() {
		t.Log("different seeds gave same count (possible but unlikely)")
	}
}

func TestRoutedAllocsGrow(t *testing.T) {
	u := tiny(t)
	early := len(u.RoutedAllocs(date(2011, 12, 31)))
	late := len(u.RoutedAllocs(date(2014, 6, 30)))
	if late < early {
		t.Fatalf("routed allocations shrank: %d -> %d", early, late)
	}
	if late == 0 {
		t.Fatal("no routed allocations")
	}
}

func TestClassString(t *testing.T) {
	if Router.String() != "Router" || DeviceClass(99).String() != "unknown" {
		t.Fatal("DeviceClass stringer broken")
	}
}

func TestLastByteWeightNormalised(t *testing.T) {
	sum := 0.0
	for b := 0; b < 256; b++ {
		sum += lastByteWeight[byte(b)]
	}
	if sum < 255.9 || sum > 256.1 {
		t.Fatalf("weights sum to %v, want 256", sum)
	}
	if lastByteWeight[1] <= lastByteWeight[200] {
		t.Fatal(".1 must be more common than high bytes")
	}
}

func BenchmarkUsedAt(b *testing.B) {
	u := New(TinyConfig(1))
	at := date(2014, 6, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.UsedAt(at)
	}
}

func BenchmarkIsUsedAt(b *testing.B) {
	u := New(TinyConfig(1))
	at := date(2014, 6, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.IsUsedAt(ipv4.Addr(uint32(i)*2654435761), at)
	}
}

// TestRangeUsedTraitsMatchesAccessors: the bulk trait enumerator must visit
// exactly the RangeUsed address sequence and every trait field must equal
// the corresponding one-off accessor — the fast collection path is only
// valid because these are the same keyed-hash draws.
func TestRangeUsedTraitsMatchesAccessors(t *testing.T) {
	u := tiny(t)
	at := date(2014, 1, 1)
	ws, we := date(2013, 1, 1), date(2014, 1, 1)
	type rec struct {
		a  ipv4.Addr
		tr AddrTraits
	}
	var got []rec
	u.RangeUsedTraits(at, func(a ipv4.Addr, tr *AddrTraits) bool {
		got = append(got, rec{a, *tr})
		return true
	})
	if len(got) == 0 {
		t.Fatal("no used addresses enumerated")
	}
	i := 0
	u.RangeUsed(at, func(a ipv4.Addr, activation float64) bool {
		if i >= len(got) {
			t.Fatalf("traits enumeration stopped after %d addresses, RangeUsed has more", len(got))
		}
		r := got[i]
		i++
		if r.a != a {
			t.Fatalf("address #%d: traits %v != RangeUsed %v", i-1, r.a, a)
		}
		if r.tr.Activation != activation {
			t.Fatalf("%v: activation %v != RangeUsed %v", a, r.tr.Activation, activation)
		}
		return true
	})
	if i != len(got) {
		t.Fatalf("traits enumerated %d addresses, RangeUsed %d", len(got), i)
	}
	for _, r := range got {
		a, tr := r.a, r.tr
		if y, ok := u.ActivationYear(a); !ok || tr.Activation != y {
			t.Fatalf("%v: Activation %v != ActivationYear %v (ok=%v)", a, tr.Activation, y, ok)
		}
		if tr.Class != u.Class(a) {
			t.Fatalf("%v: Class %v != %v", a, tr.Class, u.Class(a))
		}
		if tr.Activity != u.Activity(a) {
			t.Fatalf("%v: Activity %v != %v", a, tr.Activity, u.Activity(a))
		}
		if tr.Dynamic != u.IsDynamic(a) {
			t.Fatalf("%v: Dynamic %v != %v", a, tr.Dynamic, u.IsDynamic(a))
		}
		if tr.Shielded != u.Shielded24(a) {
			t.Fatalf("%v: Shielded %v != %v", a, tr.Shielded, u.Shielded24(a))
		}
		if tr.FirewallDrop != u.FirewallDrop(a) {
			t.Fatalf("%v: FirewallDrop %v != %v", a, tr.FirewallDrop, u.FirewallDrop(a))
		}
		if tr.RespICMP != u.RespondsICMP(a) {
			t.Fatalf("%v: RespICMP %v != %v", a, tr.RespICMP, u.RespondsICMP(a))
		}
		if tr.RespTCP80 != u.RespondsTCP80(a) {
			t.Fatalf("%v: RespTCP80 %v != %v", a, tr.RespTCP80, u.RespondsTCP80(a))
		}
		if tr.RespUnreach != u.RespondsUnreachable(a) {
			t.Fatalf("%v: RespUnreach %v != %v", a, tr.RespUnreach, u.RespondsUnreachable(a))
		}
		if tr.FwRSTBlock != u.FirewallRSTBlock(a) {
			t.Fatalf("%v: FwRSTBlock %v != %v", a, tr.FwRSTBlock, u.FirewallRSTBlock(a))
		}
		if p, q := tr.ObservableBy(1.2, 0.8, 0.5), u.ObservableBy(a, 1.2, 0.8, 0.5); p != q {
			t.Fatalf("%v: traits ObservableBy %v != accessor %v", a, p, q)
		}
		af := u.ActiveFraction(a, ws, we)
		ys, ye := YearOf(ws), YearOf(we)
		var want float64
		switch {
		case tr.Activation >= ye:
			want = 0
		case tr.Activation <= ys:
			want = 1
		default:
			want = (ye - tr.Activation) / (ye - ys)
		}
		if af != want {
			t.Fatalf("%v: ActiveFraction %v != activation-derived %v", a, af, want)
		}
	}
}
