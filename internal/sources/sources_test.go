package sources

import (
	"fmt"
	"testing"
	"time"

	"ghosts/internal/bgp"
	"ghosts/internal/ipset"
	"ghosts/internal/ipv4"
	"ghosts/internal/parallel"
	"ghosts/internal/rng"
	"ghosts/internal/trie"
	"ghosts/internal/universe"
	"ghosts/internal/windows"
)

// Collect is the per-source reference for CollectAll: it produces the
// observation of source n over window w from the universe's point
// accessors, one address at a time, with its own copy of the capture rule
// (seenProb). CollectAll must match it bit for bit.
func (s *Suite) Collect(n Name, w windows.Window, routed *trie.Trie) Observation {
	sp, ok := specs[n]
	if !ok {
		return Observation{Name: n, Addrs: ipset.New()}
	}
	frac := availFraction(sp, w)
	out := ipset.New()
	if frac == 0 {
		return Observation{Name: n, Addrs: out}
	}
	key := s.Seed ^ hashName(n) ^ uint64(w.End.Unix())
	s.U.RangeUsed(w.End, func(a ipv4.Addr, _ float64) bool {
		af := s.U.ActiveFraction(a, w.Start, w.End)
		if rng.Hash01(key, uint64(a)) < s.seenProb(n, sp, a, frac, af) {
			out.Add(a)
		}
		return true
	})
	if sp.netflow {
		s.injectSpoofed(sp, w, frac, rng.New(key), out)
	}
	filterRouted(out, routed)
	return Observation{Name: n, Addrs: out}
}

// filterRouted is the per-address reference for the routed filter: it
// drops every observation outside the aggregated routed space (§4.4)
// with one trie lookup per address; nil disables filtering.
func filterRouted(out *ipset.Set, routed *trie.Trie) {
	if routed == nil {
		return
	}
	var drop []ipv4.Addr
	out.Range(func(a ipv4.Addr) bool {
		if !routed.Contains(a) {
			drop = append(drop, a)
		}
		return true
	})
	for _, a := range drop {
		out.Remove(a)
	}
}

// seenProb is the probability that source n logs address a during a window
// where a was active for fraction af, with availability fraction frac.
func (s *Suite) seenProb(n Name, sp spec, a ipv4.Addr, frac, af float64) float64 {
	u := s.U
	if sp.probe == passive {
		vis := sp.vis
		if vis <= 0 {
			vis = 1
		}
		if rng.Hash01(s.Seed^hashName(n)^0x24a7, uint64(a.Slash24Index())) >= vis {
			return 0
		}
		return u.ObservableBy(a, sp.rate*frac, sp.clientBias, af)
	}
	var responds bool
	if n == IPING {
		responds = u.RespondsICMP(a) || u.RespondsUnreachable(a)
	} else {
		responds = !u.FirewallRSTBlock(a) &&
			(u.RespondsTCPPort(a, 80) || (!u.RespondsICMP(a) && u.RespondsUnreachable(a)))
	}
	if !responds {
		return 0
	}
	return frac * (0.25 + 0.75*af) * (1 - s.Loss)
}

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
	for _, o := range suite.CollectAll([]windows.Window{w}, []*trie.Trie{rt})[0] {
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

// TestCollectAllMatchesCollect: one CollectAll call over several windows
// must give, window by window and source by source, exactly the sets of
// the per-source Collect oracle, whatever the window list (all paper
// windows, calendar years, one window, the paper windows reversed) and
// whatever the walk's worker count.
func TestCollectAllMatchesCollect(t *testing.T) {
	u := universe.New(universe.Config{Seed: 3, Slash8s: 1, EmptyBlocks: 2, Fill: 0.05})
	suite := NewSuite(u, 11)
	paper := windows.Paper()
	var years, reversed []windows.Window
	for y := 2011; y <= 2013; y++ {
		years = append(years, windows.Window{
			Start: time.Date(y, 1, 1, 0, 0, 0, 0, time.UTC),
			End:   time.Date(y+1, 1, 1, 0, 0, 0, 0, time.UTC),
		})
	}
	for i := len(paper) - 1; i >= 0; i-- {
		reversed = append(reversed, paper[i])
	}
	// The oracle is slow, so each (window, source) set is built once.
	oracle := map[windows.Window][]*ipset.Set{}
	want := func(w windows.Window, rt *trie.Trie) []*ipset.Set {
		if sets, ok := oracle[w]; ok {
			return sets
		}
		var sets []*ipset.Set
		for _, n := range All() {
			sets = append(sets, suite.Collect(n, w, rt).Addrs)
		}
		oracle[w] = sets
		return sets
	}
	defer parallel.SetWorkers(0)
	for _, tc := range []struct {
		name string
		ws   []windows.Window
	}{
		{"paper", paper},
		{"years", years},
		{"one", paper[len(paper)-1:]},
		{"reversed", reversed},
	} {
		rts := make([]*trie.Trie, len(tc.ws))
		for i, w := range tc.ws {
			rts[i] = bgp.Aggregate(u, w, 5)
		}
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				parallel.SetWorkers(workers)
				got := suite.CollectAll(tc.ws, rts)
				if len(got) != len(tc.ws) {
					t.Fatalf("%d observation lists for %d windows", len(got), len(tc.ws))
				}
				for i, w := range tc.ws {
					for si, n := range All() {
						o := got[i][si]
						if o.Name != n {
							t.Fatalf("%s: source %d is %s, want %s", w.Label(), si, o.Name, n)
						}
						if ref := want(w, rts[i])[si]; !sameSet(o.Addrs, ref) {
							t.Fatalf("%s %s: CollectAll (%d) differs from Collect (%d)", w.Label(), n, o.Addrs.Len(), ref.Len())
						}
					}
				}
			})
		}
	}
}

// sameSet reports whether a and b hold the same addresses.
func sameSet(a, b *ipset.Set) bool {
	return a.Len() == b.Len() && ipset.IntersectCount(a, b) == a.Len()
}

// TestRetainRoutedMatchesFilterRouted: the per-/24 routed filter
// (ipset.Set.Retain over the routed trie) must keep exactly what the
// per-address filterRouted oracle keeps — on the real routed table, on a
// nil trie (no filtering) and on a trie holding prefixes longer than /24,
// whose /24s it must split address by address.
func TestRetainRoutedMatchesFilterRouted(t *testing.T) {
	f := fix(t)
	split := &trie.Trie{}
	var bases []ipv4.Addr
	f.obs[WEB].RangeSlash24(func(base ipv4.Addr, _ int) bool {
		bases = append(bases, base)
		return len(bases) < 40
	})
	for i, base := range bases {
		switch i % 4 {
		case 0: // a /25 and a /27 inside the /24
			split.Insert(ipv4.NewPrefix(base, 25))
			split.Insert(ipv4.NewPrefix(base+0xa0, 27))
		case 1: // the whole /24
			split.Insert(ipv4.NewPrefix(base, 24))
		case 2: // a covering /22
			split.Insert(ipv4.NewPrefix(base, 22))
		}
	}
	for _, tc := range []struct {
		name string
		rt   *trie.Trie
	}{
		{"routed", f.rt},
		{"nil", nil},
		{"longer-than-24", split},
		{"empty", &trie.Trie{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, n := range All() {
				want := f.obs[n].Clone()
				filterRouted(want, tc.rt)
				got := f.obs[n].Clone()
				if tc.rt != nil {
					got.Retain(tc.rt)
				}
				if !sameSet(got, want) || got.Slash24Len() != want.Slash24Len() {
					t.Fatalf("%s: Retain kept %d addresses in %d /24s, filterRouted %d in %d",
						n, got.Len(), got.Slash24Len(), want.Len(), want.Slash24Len())
				}
			}
		})
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
		for _, o := range f.suite.CollectAll([]windows.Window{f.w}, []*trie.Trie{rt})[0] {
			batch[o.Name] = o.Addrs
		}
		for _, n := range All() {
			single := f.suite.Collect(n, f.w, rt).Addrs
			b := batch[n]
			if !sameSet(single, b) {
				t.Fatalf("%s (routed=%v): Collect (%d) differs from CollectAll (%d)",
					n, rt != nil, single.Len(), b.Len())
			}
		}
	}
}

var benchObs [][]Observation

// BenchmarkCollectAll times collection as the batch path runs it, on the
// tiny universe with the routed tables dataset.CollectRaw aggregates: the
// 11 paper windows in one call, and the last window alone.
func BenchmarkCollectAll(b *testing.B) {
	u := universe.New(universe.TinyConfig(1))
	suite := NewSuite(u, 1)
	paper := windows.Paper()
	for _, bc := range []struct {
		name string
		ws   []windows.Window
	}{
		{"paper", paper},
		{"last", paper[len(paper)-1:]},
	} {
		rts := make([]*trie.Trie, len(bc.ws))
		for i, w := range bc.ws {
			rts[i] = bgp.Aggregate(u, w, suite.Seed^0xb6b6)
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchObs = suite.CollectAll(bc.ws, rts)
			}
		})
	}
}
