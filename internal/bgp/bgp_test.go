package bgp

import (
	"reflect"
	"strings"
	"testing"

	"ghosts/internal/ipv4"
	"ghosts/internal/trie"
	"ghosts/internal/universe"
	"ghosts/internal/windows"
)

func TestAggregateCoversAllRouted(t *testing.T) {
	u := universe.New(universe.TinyConfig(2))
	w := windows.Paper()[4]
	agg := Aggregate(u, w, 99)
	for _, idx := range u.RoutedAllocs(w.End) {
		p := u.Reg.Allocs[idx].Prefix
		if !covers(agg, p) {
			t.Fatalf("aggregate missing routed prefix %v", p)
		}
	}
}

func TestSnapshotFlapsButAggregateHeals(t *testing.T) {
	u := universe.New(universe.TinyConfig(2))
	w := windows.Paper()[4]
	snap := Snapshot(u, w.End, 0.5, 7)
	agg := Aggregate(u, w, 7)
	if addrCount(snap) >= addrCount(agg) {
		t.Fatalf("heavily flapped snapshot (%d) should cover less than aggregate (%d)",
			addrCount(snap), addrCount(agg))
	}
	// Zero flap snapshot at window end == routed set.
	full := Snapshot(u, w.End, 0, 7)
	if addrCount(full) != addrCount(agg) {
		t.Fatalf("flapless end snapshot %d != aggregate %d", addrCount(full), addrCount(agg))
	}
}

func TestRoutedCountsGrow(t *testing.T) {
	u := universe.New(universe.TinyConfig(2))
	ws := windows.Paper()
	a0, s0 := RoutedCounts(u, ws[0])
	a1, s1 := RoutedCounts(u, ws[len(ws)-1])
	if a1 < a0 || s1 < s0 {
		t.Fatalf("routed space shrank: %d->%d addrs, %d->%d /24s", a0, a1, s0, s1)
	}
	if a0 == 0 {
		t.Fatal("no routed space at first window")
	}
	// The paper's routed space grew only ≈7% over two years: slow growth.
	growth := float64(a1) / float64(a0)
	if growth > 1.6 {
		t.Fatalf("routed-space growth %v implausibly fast", growth)
	}
}

func TestUsageWithinRoutedSpace(t *testing.T) {
	u := universe.New(universe.TinyConfig(2))
	w := windows.Paper()[8]
	agg := Aggregate(u, w, 1)
	bad := 0
	n := 0
	u.UsedAt(w.End).Range(func(a ipv4.Addr) bool {
		if !agg.Contains(a) {
			bad++
		}
		n++
		return n < 100000
	})
	if bad != 0 {
		t.Fatalf("%d used addresses outside the routed space", bad)
	}
}

func TestRIBRoundTrip(t *testing.T) {
	u := universe.New(universe.TinyConfig(2))
	w := windows.Paper()[6]
	agg := Aggregate(u, w, 9)
	var sb strings.Builder
	if err := WriteRIB(&sb, agg, "rib snapshot test"); err != nil {
		t.Fatal(err)
	}
	back, err := ReadRIB(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if addrCount(back) != addrCount(agg) {
		t.Fatalf("round trip: %d addrs -> %d", addrCount(agg), addrCount(back))
	}
	if !reflect.DeepEqual(back.Prefixes(), agg.Prefixes()) {
		t.Fatal("prefixes changed in round trip")
	}
	if !strings.HasPrefix(sb.String(), "# rib snapshot test\n") {
		t.Fatal("comment header missing")
	}
}

func TestReadRIBTolerant(t *testing.T) {
	in := "# comment\n\n10.0.0.0/8 64500\n192.168.0.0/16\n"
	tr, err := ReadRIB(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if addrCount(tr) != 1<<24+1<<16 {
		t.Fatalf("AddrCount = %d", addrCount(tr))
	}
	if _, err := ReadRIB(strings.NewReader("not-a-prefix 1\n")); err == nil {
		t.Fatal("bad prefix accepted")
	}
}

// addrCount sums the sizes of a trie's maximal prefixes.
func addrCount(tr *trie.Trie) uint64 {
	var n uint64
	for _, p := range tr.Prefixes() {
		n += p.Size()
	}
	return n
}

// covers reports whether tr covers all of p. The trie merges siblings, so
// a fully covered prefix always lies inside one of its maximal prefixes.
func covers(tr *trie.Trie, p ipv4.Prefix) bool {
	for _, q := range tr.Prefixes() {
		if q.ContainsPrefix(p) {
			return true
		}
	}
	return false
}
