package spoof

import (
	"math"
	"testing"

	"ghosts/internal/bgp"
	"ghosts/internal/ipset"
	"ghosts/internal/ipv4"
	"ghosts/internal/sources"
	"ghosts/internal/trie"
	"ghosts/internal/universe"
	"ghosts/internal/windows"
)

func TestThreshold(t *testing.T) {
	if m := Threshold(0); m != 1 {
		t.Errorf("Threshold(0) = %d, want 1", m)
	}
	// With S = 12000 per /8, p ≈ 7.15e-4, E[X per /24] ≈ 0.18; the 1e-8
	// tail is a handful of addresses.
	m := Threshold(12000)
	if m < 3 || m > 12 {
		t.Errorf("Threshold(12000) = %d, want a small count", m)
	}
	// Monotone in S.
	prev := 0
	for _, s := range []float64{1000, 10000, 100000, 1000000} {
		m := Threshold(s)
		if m < prev {
			t.Fatalf("Threshold not monotone at S=%v", s)
		}
		prev = m
	}
	if m := Threshold(math.MaxFloat64); m != 256 {
		t.Errorf("Threshold(huge) = %d, want 256", m)
	}
}

func TestEstimateSPer8Scaling(t *testing.T) {
	data := ipset.New()
	// 100 addresses into a /12 block → 1600 per /8-equivalent.
	blk := ipv4.MustParsePrefix("53.0.0.0/12")
	for i := 0; i < 100; i++ {
		data.Add(blk.First() + ipv4.Addr(i*4099))
	}
	got := EstimateSPer8(data, []ipv4.Prefix{blk})
	if got < 1590 || got > 1610 {
		t.Fatalf("EstimateSPer8 = %v, want 1600", got)
	}
	if EstimateSPer8(data, nil) != 0 {
		t.Fatal("no empty blocks must give S=0")
	}
}

// buildScenario collects SWIN over the Dec-2013 window with spoofing on,
// and returns everything needed to judge the filter.
type scenario struct {
	u         *universe.Universe
	dirty     *ipset.Set
	genuine   *ipset.Set
	spoofFree *ipset.Set
	byteRef   *ipset.Set
	filter    *Filter
}

var cached *scenario

func scene(t *testing.T) *scenario {
	t.Helper()
	if cached != nil {
		return cached
	}
	u := universe.New(universe.TinyConfig(6))
	w := windows.Paper()[8] // ends Dec 2013
	rt := bgp.Aggregate(u, w, 3)
	obs := map[sources.Name]*ipset.Set{}
	for _, o := range sources.NewSuite(u, 21).CollectAll([]windows.Window{w}, []*trie.Trie{rt})[0] {
		obs[o.Name] = o.Addrs
	}
	dirty := obs[sources.SWIN]
	used := u.UsedAt(w.End)
	genuine := ipset.Intersect(dirty, used)
	spoofFree := ipset.New()
	for _, n := range []sources.Name{sources.WIKI, sources.WEB, sources.MLAB, sources.GAME} {
		spoofFree.AddSet(obs[n])
	}
	byteRef := spoofFree.Clone()
	for _, n := range []sources.Name{sources.SPAM, sources.IPING, sources.TPING} {
		byteRef.AddSet(obs[n])
	}
	cached = &scenario{
		u: u, dirty: dirty, genuine: genuine, spoofFree: spoofFree, byteRef: byteRef,
		filter: New(spoofFree, byteRef, u.EmptyBlocks(), 77),
	}
	return cached
}

func TestCleanRemovesSpoofed(t *testing.T) {
	s := scene(t)
	clean, st := s.filter.Clean(s.dirty)
	if st.SPer8 <= 0 {
		t.Fatal("S estimate must be positive with spoofing on")
	}
	if st.RemovedSubnets == 0 {
		t.Fatal("stage 1 removed nothing")
	}
	// Empty blocks must be (nearly) emptied.
	for _, p := range s.u.EmptyBlocks() {
		before := s.dirty.CountInPrefix(p)
		after := clean.CountInPrefix(p)
		if before == 0 {
			t.Fatalf("scenario has no spoofed addresses in %v", p)
		}
		if float64(after) > 0.02*float64(before) {
			t.Errorf("empty block %v: %d of %d spoofed addresses survive", p, after, before)
		}
	}
	// Overall spoofed survivors.
	// |clean ∩ (dirty \ genuine)| over |dirty \ genuine|.
	cleanDirty := ipset.Intersect(clean, s.dirty)
	surviving := cleanDirty.Len() - ipset.IntersectCount(cleanDirty, s.genuine)
	spoofed := s.dirty.Len() - ipset.IntersectCount(s.dirty, s.genuine)
	if frac := float64(surviving) / float64(spoofed); frac > 0.30 {
		t.Errorf("%.1f%% of spoofed addresses survive filtering", 100*frac)
	}
}

func TestCleanKeepsGenuine(t *testing.T) {
	s := scene(t)
	clean, _ := s.filter.Clean(s.dirty)
	kept := ipset.IntersectCount(clean, s.genuine)
	frac := float64(kept) / float64(s.genuine.Len())
	if frac < 0.85 {
		t.Fatalf("only %.1f%% of genuine addresses survive filtering", 100*frac)
	}
}

func TestCleanFixesSlash24Inflation(t *testing.T) {
	s := scene(t)
	clean, _ := s.filter.Clean(s.dirty)
	dirty24 := s.dirty.Slash24Len()
	clean24 := clean.Slash24Len()
	genuine24 := s.genuine.Slash24Len()
	if clean24 >= dirty24 {
		t.Fatal("filtering must reduce the /24 count")
	}
	// §4.5: after filtering, SWIN/CALT /24 counts drop to at/below the
	// level of the clean sources; allow 15% slack over genuine.
	if float64(clean24) > 1.15*float64(genuine24) {
		t.Errorf("filtered /24s = %d still well above genuine %d (dirty %d)",
			clean24, genuine24, dirty24)
	}
}

func TestCleanNoSpoofingIsGentle(t *testing.T) {
	// On a spoof-free dataset the filter should be nearly a no-op.
	s := scene(t)
	cleanInput := s.genuine.Clone()
	clean, st := s.filter.Clean(cleanInput)
	if st.SPer8 > 100 {
		t.Fatalf("S estimate %v on clean data should be ≈0", st.SPer8)
	}
	frac := float64(clean.Len()) / float64(cleanInput.Len())
	if frac < 0.95 {
		t.Fatalf("filter removed %.1f%% from clean data", 100*(1-frac))
	}
}

func TestCleanDeterministic(t *testing.T) {
	s := scene(t)
	a, _ := s.filter.Clean(s.dirty)
	b, _ := New(s.spoofFree, s.byteRef, s.u.EmptyBlocks(), 77).Clean(s.dirty)
	if a.Len() != b.Len() {
		t.Fatalf("same seed, different results: %d vs %d", a.Len(), b.Len())
	}
}

func TestLastByteBayes(t *testing.T) {
	s := scene(t)
	// Common bytes (.1) must be kept with higher probability than rare
	// high bytes under partial spoofing.
	keep := s.filter.keepProbs(12000, 0, 20000)
	if keep[1] <= keep[203] {
		t.Errorf("keep[.1]=%v should exceed keep[.203]=%v", keep[1], keep[203])
	}
	for b := 0; b < 256; b++ {
		if keep[b] < 0 || keep[b] > 1 {
			t.Fatalf("keep[%d] = %v out of range", b, keep[b])
		}
	}
	// No residual spoofing → keep everything.
	all := s.filter.keepProbs(0, 0, 20000)
	for b := 0; b < 256; b++ {
		if all[b] != 1 {
			t.Fatalf("keep[%d] = %v, want 1 with S=0", b, all[b])
		}
	}
}
