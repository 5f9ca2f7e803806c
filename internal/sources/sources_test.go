package sources

import (
	"testing"

	"ghosts/internal/bgp"
	"ghosts/internal/ipset"
	"ghosts/internal/ipv4"
	"ghosts/internal/trie"
	"ghosts/internal/universe"
	"ghosts/internal/windows"
)

type fixture struct {
	u     *universe.Universe
	suite *Suite
	w     windows.Window
	rt    *trie.Trie
	obs   map[Name]*ipset.Set
	used  *ipset.Set
}

var cached *fixture

// fix builds one shared fixture (collection over the last window is the
// expensive part of this package's tests).
func fix(t *testing.T) *fixture {
	t.Helper()
	if cached != nil {
		return cached
	}
	u := universe.New(universe.TinyConfig(3))
	ws := windows.Paper()
	w := ws[len(ws)-1]
	rt := bgp.Aggregate(u, w, 5)
	suite := NewSuite(u, 11)
	obs := map[Name]*ipset.Set{}
	for _, o := range suite.CollectAll(w, rt) {
		obs[o.Name] = o.Addrs
	}
	cached = &fixture{u: u, suite: suite, w: w, rt: rt, obs: obs, used: u.UsedAt(w.End)}
	return cached
}

func TestAvailabilityWindows(t *testing.T) {
	u := universe.New(universe.TinyConfig(3))
	suite := NewSuite(u, 11)
	ws := windows.Paper()
	first := ws[0] // ends Dec 2011
	if o := suite.Collect(SPAM, first, nil); o.Addrs.Len() != 0 {
		t.Errorf("SPAM collected %d before May 2012", o.Addrs.Len())
	}
	if o := suite.Collect(CALT, first, nil); o.Addrs.Len() != 0 {
		t.Errorf("CALT collected %d before Jun 2013", o.Addrs.Len())
	}
	if o := suite.Collect(TPING, first, nil); o.Addrs.Len() != 0 {
		t.Errorf("TPING collected %d before Mar 2012", o.Addrs.Len())
	}
	if o := suite.Collect(WIKI, first, nil); o.Addrs.Len() == 0 {
		t.Error("WIKI should collect in the first window")
	}
	if o := suite.Collect(IPING, first, nil); o.Addrs.Len() == 0 {
		t.Error("IPING should collect in the first window")
	}
}

func TestSourcesObserveOnlyUsedOrSpoofed(t *testing.T) {
	f := fix(t)
	for _, n := range []Name{WIKI, SPAM, MLAB, WEB, GAME, IPING, TPING} {
		bad := 0
		f.obs[n].Range(func(a ipv4.Addr) bool {
			if !f.used.Contains(a) {
				bad++
			}
			return true
		})
		if bad != 0 {
			t.Errorf("%s observed %d unused addresses", n, bad)
		}
	}
	// NetFlow sources DO contain unused (spoofed) addresses.
	for _, n := range []Name{SWIN, CALT} {
		spoofed := f.obs[n].Len() - ipset.IntersectCount(f.obs[n], f.used)
		if spoofed == 0 {
			t.Errorf("%s should contain spoofed addresses", n)
		}
	}
}

func TestRelativeSourceSizes(t *testing.T) {
	f := fix(t)
	sizes := map[Name]int{}
	for n, s := range f.obs {
		sizes[n] = s.Len()
		if s.Len() == 0 {
			t.Fatalf("%s observed nothing in the final window", n)
		}
	}
	// Table 2 shape: IPING is the largest source; WIKI the smallest of the
	// passive logs; TPING well below IPING.
	if sizes[IPING] <= sizes[WEB] || sizes[IPING] <= sizes[CALT] {
		t.Errorf("IPING (%d) should be the largest source: WEB=%d CALT=%d",
			sizes[IPING], sizes[WEB], sizes[CALT])
	}
	if sizes[TPING] >= sizes[IPING] {
		t.Errorf("TPING (%d) should be well below IPING (%d)", sizes[TPING], sizes[IPING])
	}
	for _, n := range []Name{SPAM, MLAB, WEB, GAME, SWIN, CALT} {
		if sizes[WIKI] >= sizes[n] {
			t.Errorf("WIKI (%d) should be smaller than %s (%d)", sizes[WIKI], n, sizes[n])
		}
	}
}

func TestPingUndercountsCombined(t *testing.T) {
	f := fix(t)
	union := ipset.New()
	for _, s := range f.obs {
		union.AddSet(s)
	}
	usedN := f.used.Len()
	pingFrac := float64(f.obs[IPING].Len()) / float64(usedN)
	unionGenuine := ipset.Intersect(union, f.used)
	unionFrac := float64(unionGenuine.Len()) / float64(usedN)
	// Paper: ping sees ≈36% of the used space, all sources combined ≈62%.
	if pingFrac < 0.2 || pingFrac > 0.55 {
		t.Errorf("IPING coverage = %.2f, want ≈0.36", pingFrac)
	}
	if unionFrac <= pingFrac+0.05 {
		t.Errorf("union coverage %.2f should clearly exceed ping coverage %.2f", unionFrac, pingFrac)
	}
	if unionFrac > 0.9 {
		t.Errorf("union coverage %.2f leaves too few ghosts to estimate", unionFrac)
	}
	// §5.3: of each passive source's addresses, only 50–60%% are in IPING.
	for _, n := range []Name{WEB, GAME} {
		genuine := ipset.Intersect(f.obs[n], f.used)
		inPing := ipset.IntersectCount(genuine, f.obs[IPING])
		frac := float64(inPing) / float64(genuine.Len())
		if frac > 0.8 {
			t.Errorf("%s: %.2f of its addresses in IPING; pinging should undercount", n, frac)
		}
	}
}

func TestSpoofedInflateSlash24s(t *testing.T) {
	f := fix(t)
	// §4.5: unfiltered SWIN/CALT /24 counts rival or exceed every other
	// source because spoofed addresses land in otherwise-empty /24s.
	calt24 := f.obs[CALT].Slash24Len()
	web24 := f.obs[WEB].Slash24Len()
	if calt24 <= web24 {
		t.Errorf("unfiltered CALT /24s (%d) should exceed WEB /24s (%d)", calt24, web24)
	}
	// Spoofed addresses appear in the empty /8s, roughly uniformly.
	counts := make([]int, 0, 2)
	for _, p := range f.u.EmptyBlocks() {
		n := f.obs[SWIN].CountInPrefix(p)
		if n == 0 {
			t.Fatalf("no spoofed SWIN addresses in empty /8 %v", p)
		}
		counts = append(counts, n)
	}
	if len(counts) >= 2 {
		lo, hi := counts[0], counts[0]
		for _, c := range counts {
			if c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
		if float64(hi) > 1.6*float64(lo) {
			t.Errorf("spoofed counts across empty /8s not uniform: %v", counts)
		}
	}
}

func TestSpoofScaleZeroDisables(t *testing.T) {
	f := fix(t)
	clean := NewSuite(f.u, 11)
	clean.SpoofScale = 0
	o := clean.Collect(SWIN, f.w, f.rt)
	spoofed := o.Addrs.Len() - ipset.IntersectCount(o.Addrs, f.used)
	if spoofed != 0 {
		t.Fatalf("SpoofScale=0 still produced %d spoofed addresses", spoofed)
	}
}

func TestCollectDeterministic(t *testing.T) {
	f := fix(t)
	again := NewSuite(f.u, 11).Collect(WEB, f.w, f.rt)
	if again.Addrs.Len() != f.obs[WEB].Len() {
		t.Fatalf("same seed, different WEB observation: %d vs %d",
			again.Addrs.Len(), f.obs[WEB].Len())
	}
	other := NewSuite(f.u, 12).Collect(WEB, f.w, f.rt)
	if other.Addrs.Len() == f.obs[WEB].Len() {
		if ipset.IntersectCount(other.Addrs, f.obs[WEB]) == f.obs[WEB].Len() {
			t.Fatal("different seed produced identical observation")
		}
	}
}

func TestUnknownSource(t *testing.T) {
	f := fix(t)
	o := f.suite.Collect(Name("NOPE"), f.w, nil)
	if o.Addrs.Len() != 0 {
		t.Fatal("unknown source must observe nothing")
	}
}

func TestCALTSpikesMar2014(t *testing.T) {
	f := fix(t)
	ws := windows.Paper()
	dec2013 := ws[8] // ends Dec 2013
	rtEarly := bgp.Aggregate(f.u, dec2013, 5)
	early := f.suite.Collect(CALT, dec2013, rtEarly)
	late := f.obs[CALT] // ends Jun 2014, includes the spike
	spoofEarly := early.Addrs.Len() - ipset.IntersectCount(early.Addrs, f.u.UsedAt(dec2013.End))
	spoofLate := late.Len() - ipset.IntersectCount(late, f.used)
	if spoofLate < 3*spoofEarly {
		t.Errorf("CALT spoof volume should spike ≈10x: %d -> %d", spoofEarly, spoofLate)
	}
}

func TestCollectAllMatchesCollect(t *testing.T) {
	f := fix(t)
	// The single-pass CollectAll must be bit-identical to per-source
	// Collect calls (the fixture used CollectAll).
	for _, n := range []Name{WIKI, IPING, SWIN} {
		single := f.suite.Collect(n, f.w, f.rt).Addrs
		batch := f.obs[n]
		if single.Len() != batch.Len() || ipset.IntersectCount(single, batch) != batch.Len() {
			t.Fatalf("%s: Collect (%d) differs from CollectAll (%d)", n, single.Len(), batch.Len())
		}
	}
}

func TestGameChurnShape(t *testing.T) {
	f := fix(t)
	res := f.suite.GameChurn(f.w.End, 16, 3000)
	if len(res.AddrsByDay) != 16 || len(res.S24ByDay) != 16 {
		t.Fatalf("per-day series wrong length: %d/%d", len(res.AddrsByDay), len(res.S24ByDay))
	}
	// Cumulative series are monotone.
	for i := 1; i < 16; i++ {
		if res.AddrsByDay[i] < res.AddrsByDay[i-1] || res.S24ByDay[i] < res.S24ByDay[i-1] {
			t.Fatal("cumulative counts must be monotone")
		}
	}
	// §4.6 shape: from day 4 to day 16 addresses grow strongly (paper:
	// ×2.7) while /24s grow much less (paper: ×1.2).
	addrGrowth := float64(res.AddrsByDay[15]) / float64(res.AddrsByDay[3])
	s24Growth := float64(res.S24ByDay[15]) / float64(res.S24ByDay[3])
	if addrGrowth < 1.8 {
		t.Errorf("address churn growth = %.2f, want ≥1.8 (paper 2.7)", addrGrowth)
	}
	if s24Growth > 1.45 {
		t.Errorf("/24 growth = %.2f, want ≤1.45 (paper 1.2)", s24Growth)
	}
	if addrGrowth <= s24Growth {
		t.Error("addresses must churn faster than /24s")
	}
}

func TestGameCollectionGap(t *testing.T) {
	// The paper mentions a gap in GAME collection; the window spanning
	// Jul–Oct 2012 must observe measurably less than its neighbours.
	f := fix(t)
	ws := windows.Paper()
	inGap := f.suite.Collect(GAME, ws[3], nil).Addrs.Len()    // Oct 2011–Sep 2012
	afterGap := f.suite.Collect(GAME, ws[7], nil).Addrs.Len() // Oct 2012–Sep 2013
	// Normalise by the growing population: the gap window should fall
	// clearly short of the later, gap-free window.
	if float64(inGap) > 0.92*float64(afterGap) {
		t.Errorf("gap window observed %d vs gap-free %d; expected a visible dip", inGap, afterGap)
	}
	// Outside the gap, fractions are unaffected (spec bounds full window).
	full := availFraction(specs[GAME], ws[10])
	if full != 1 {
		t.Errorf("final window availability = %v, want 1", full)
	}
	gapFrac := availFraction(specs[GAME], ws[3])
	if gapFrac >= 1 || gapFrac < 0.5 {
		t.Errorf("gap window availability = %v, want in (0.5, 1)", gapFrac)
	}
}

// TestCollectAllMatchesCollectAllSources: the trait-based single-pass
// CollectAll must stay bit-identical to per-source Collect for every one of
// the nine sources — passive, netflow and census alike — including with
// routed filtering disabled.
func TestCollectAllMatchesCollectAllSources(t *testing.T) {
	f := fix(t)
	for _, rt := range []*trie.Trie{f.rt, nil} {
		batch := map[Name]*ipset.Set{}
		for _, o := range f.suite.CollectAll(f.w, rt) {
			batch[o.Name] = o.Addrs
		}
		for _, n := range All() {
			single := f.suite.Collect(n, f.w, rt).Addrs
			b := batch[n]
			if single.Len() != b.Len() || ipset.IntersectCount(single, b) != b.Len() {
				t.Fatalf("%s (routed=%v): Collect (%d) differs from CollectAll (%d)",
					n, rt != nil, single.Len(), b.Len())
			}
		}
	}
}
