package dataset

import (
	"testing"

	"ghosts/internal/ipset"
	"ghosts/internal/sources"
	"ghosts/internal/universe"
	"ghosts/internal/windows"
)

func build(t *testing.T, opt Options, windowIdx int) (*universe.Universe, *Bundle) {
	t.Helper()
	u := universe.New(universe.TinyConfig(15))
	suite := sources.NewSuite(u, 33)
	w := windows.Paper()[windowIdx]
	return u, CollectRaw(u, suite, []windows.Window{w})[0].Assemble(u, suite, opt)
}

func TestCollectDefault(t *testing.T) {
	u, b := build(t, DefaultOptions(), 10)
	if len(b.Names) != 9 {
		t.Fatalf("final window should have all 9 sources, got %v", b.Names)
	}
	if len(b.Sets) != len(b.Names) {
		t.Fatal("parallel slices out of sync")
	}
	if b.RoutedAddrs == 0 || b.Routed24 == 0 {
		t.Fatal("routed counts missing")
	}
	if b.Routed == nil || len(b.Routed.Prefixes()) == 0 {
		t.Fatal("routed table missing")
	}
	// Spoof filtering must have run on both NetFlow sources.
	if len(b.SpoofStats) != 2 {
		t.Fatalf("spoof stats: %v", b.SpoofStats)
	}
	if b.SpoofStats[sources.SWIN].RemovedSubnets == 0 {
		t.Fatal("SWIN filter removed nothing")
	}
	// Filtered NetFlow sets contain almost no addresses in empty blocks.
	swin := b.Source(sources.SWIN)
	for _, p := range u.EmptyBlocks() {
		if n := swin.CountInPrefix(p); n > 20 {
			t.Fatalf("filtered SWIN still has %d addresses in %v", n, p)
		}
	}
}

func TestCollectEarlyWindowOmitsSources(t *testing.T) {
	_, b := build(t, DefaultOptions(), 0) // ends Dec 2011
	for _, n := range b.Names {
		if n == sources.SPAM || n == sources.CALT || n == sources.TPING {
			t.Fatalf("%s should not collect in the first window", n)
		}
	}
	if b.Source(sources.WIKI) == nil || b.Source(sources.IPING) == nil {
		t.Fatal("WIKI and IPING must be present in the first window")
	}
}

func TestCollectDropNetflow(t *testing.T) {
	_, b := build(t, Options{DropNetflow: true}, 10)
	if b.Source(sources.SWIN) != nil || b.Source(sources.CALT) != nil {
		t.Fatal("DropNetflow must remove SWIN and CALT")
	}
	if len(b.Names) != 7 {
		t.Fatalf("expected 7 sources, got %v", b.Names)
	}
}

func TestCollectUnfiltered(t *testing.T) {
	u, b := build(t, Options{SpoofFilter: false}, 10)
	if len(b.SpoofStats) != 0 {
		t.Fatal("no spoof stats expected when filtering is off")
	}
	swin := b.Source(sources.SWIN)
	spoofedInEmpty := 0
	for _, p := range u.EmptyBlocks() {
		spoofedInEmpty += swin.CountInPrefix(p)
	}
	if spoofedInEmpty == 0 {
		t.Fatal("unfiltered SWIN should retain spoofed addresses in empty blocks")
	}
}

func TestUnionAndProjection(t *testing.T) {
	_, b := build(t, DefaultOptions(), 10)
	union := b.Union()
	for _, s := range b.Sets {
		if ipset.IntersectCount(union, s) != s.Len() {
			t.Fatal("union must contain every source")
		}
	}
	p24 := b.Sets24()
	if len(p24) != len(b.Sets) {
		t.Fatal("projection must be parallel")
	}
	for i := range p24 {
		if p24[i].Len() != b.Sets[i].Slash24Len() {
			t.Fatal("projection size mismatch")
		}
	}
	if b.Source(sources.Name("NOPE")) != nil {
		t.Fatal("unknown source must be nil")
	}
	if got := b.NameStrings(); len(got) != len(b.Names) || got[0] != string(b.Names[0]) {
		t.Fatal("NameStrings mismatch")
	}
}
