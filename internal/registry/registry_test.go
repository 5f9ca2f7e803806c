package registry

import (
	"testing"
	"time"

	"ghosts/internal/ipv4"
)

func testRegistry() *Registry {
	return Generate(Config{Slash8s: DefaultSlash8s(8), Fill: 0.9, Seed: 42})
}

func TestGenerateDisjointSorted(t *testing.T) {
	g := testRegistry()
	if len(g.Allocs) == 0 {
		t.Fatal("no allocations generated")
	}
	for i := 1; i < len(g.Allocs); i++ {
		prev, cur := g.Allocs[i-1], g.Allocs[i]
		if prev.Prefix.Base >= cur.Prefix.Base {
			t.Fatalf("allocations not sorted at %d", i)
		}
		if prev.Prefix.Overlaps(cur.Prefix) {
			t.Fatalf("allocations overlap: %v and %v", prev.Prefix, cur.Prefix)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Slash8s: DefaultSlash8s(4), Fill: 0.8, Seed: 7})
	b := Generate(Config{Slash8s: DefaultSlash8s(4), Fill: 0.8, Seed: 7})
	if len(a.Allocs) != len(b.Allocs) {
		t.Fatal("same seed must give same allocation count")
	}
	for i := range a.Allocs {
		if a.Allocs[i] != b.Allocs[i] {
			t.Fatalf("allocation %d differs", i)
		}
	}
}

func TestLookup(t *testing.T) {
	g := testRegistry()
	for _, al := range g.Allocs[:min(50, len(g.Allocs))] {
		got := g.Lookup(al.Prefix.First())
		if got == nil || got.Prefix != al.Prefix {
			t.Fatalf("Lookup(first) failed for %v", al.Prefix)
		}
		got = g.Lookup(al.Prefix.Last())
		if got == nil || got.Prefix != al.Prefix {
			t.Fatalf("Lookup(last) failed for %v", al.Prefix)
		}
	}
	// An address in an unpopulated /8 has no allocation.
	if g.Lookup(ipv4.MustParseAddr("223.255.255.255")) != nil {
		t.Fatal("Lookup outside populated space should be nil")
	}
}

func TestFillFraction(t *testing.T) {
	g := Generate(Config{Slash8s: DefaultSlash8s(4), Fill: 0.5, Seed: 1})
	var total uint64
	for _, al := range g.Allocs {
		total += al.Prefix.Size()
	}
	space := uint64(4) << 24
	frac := float64(total) / float64(space)
	if frac < 0.40 || frac > 0.62 {
		t.Fatalf("fill fraction = %v, want ≈0.5", frac)
	}
}

func TestCountryRIRConsistency(t *testing.T) {
	g := testRegistry()
	for _, al := range g.Allocs {
		rir, ok := CountryRIR(al.Country)
		if !ok {
			t.Fatalf("unknown country %q", al.Country)
		}
		if rir != al.RIR {
			t.Fatalf("country %s assigned to %v, registry says %v", al.Country, al.RIR, rir)
		}
	}
}

func TestEraPrefixSizes(t *testing.T) {
	g := testRegistry()
	for _, al := range g.Allocs {
		year := al.Date.Year()
		if year < 1983 || year > 2014 {
			t.Fatalf("allocation year %d out of range", year)
		}
		if year >= 2012 && al.Prefix.Bits < 20 {
			t.Fatalf("post-2011 allocation too large: /%d in %d", al.Prefix.Bits, year)
		}
		if al.Prefix.Bits < 8 || al.Prefix.Bits > 24 {
			t.Fatalf("prefix size /%d out of range", al.Prefix.Bits)
		}
	}
}

func TestAllocatedAddrsMonotone(t *testing.T) {
	g := testRegistry()
	prev := uint64(0)
	for year := 1990; year <= 2014; year += 4 {
		cur := g.AllocatedAddrs(time.Date(year, 12, 31, 0, 0, 0, 0, time.UTC))
		if cur < prev {
			t.Fatalf("allocated space shrank at %d", year)
		}
		prev = cur
	}
	if prev == 0 {
		t.Fatal("no space allocated by 2014")
	}
}

func TestBoomEra(t *testing.T) {
	// The 2004–2011 boom should hold a majority share of allocations.
	g := Generate(Config{Slash8s: DefaultSlash8s(16), Fill: 0.9, Seed: 3})
	boom := 0
	for _, al := range g.Allocs {
		if y := al.Date.Year(); y >= 2004 && y <= 2011 {
			boom++
		}
	}
	if frac := float64(boom) / float64(len(g.Allocs)); frac < 0.35 {
		t.Fatalf("boom era fraction = %v, want ≥0.35", frac)
	}
}

func TestStringers(t *testing.T) {
	if APNIC.String() != "APNIC" || RIR(99).String() != "unknown" {
		t.Fatal("RIR stringer broken")
	}
	if ISP.String() != "ISP" || Industry(99).String() != "unknown" {
		t.Fatal("Industry stringer broken")
	}
	if len(RIRs()) != 5 || len(Industries()) != 5 {
		t.Fatal("enumerations wrong")
	}
	if len(Countries()) < 30 {
		t.Fatal("country list too small")
	}
	if _, ok := CountryRIR("XX"); ok {
		t.Fatal("unknown country should not resolve")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func BenchmarkLookup(b *testing.B) {
	g := testRegistry()
	addrs := make([]ipv4.Addr, 1024)
	for i := range addrs {
		al := g.Allocs[i%len(g.Allocs)]
		addrs[i] = al.Prefix.First() + ipv4.Addr(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Lookup(addrs[i&1023])
	}
}

// Countries returns the country codes known to the generator.
func Countries() []string {
	out := make([]string, len(countries))
	for i, c := range countries {
		out[i] = c.code
	}
	return out
}

// CountryRIR returns the RIR responsible for a known country code.
func CountryRIR(code string) (RIR, bool) {
	for _, c := range countries {
		if c.code == code {
			return c.rir, true
		}
	}
	return 0, false
}
