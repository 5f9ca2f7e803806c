package sources

import (
	"time"

	"ghosts/internal/ipset"
	"ghosts/internal/ipv4"
	"ghosts/internal/rng"
	"ghosts/internal/trie"
	"ghosts/internal/universe"
	"ghosts/internal/windows"
)

// Name identifies a data source.
type Name string

// The nine sources, in the paper's Table 2 order.
const (
	WIKI  Name = "WIKI"
	SPAM  Name = "SPAM"
	MLAB  Name = "MLAB"
	WEB   Name = "WEB"
	GAME  Name = "GAME"
	SWIN  Name = "SWIN"
	CALT  Name = "CALT"
	IPING Name = "IPING"
	TPING Name = "TPING"
)

// All lists the nine sources in canonical order.
func All() []Name {
	return []Name{WIKI, SPAM, MLAB, WEB, GAME, SWIN, CALT, IPING, TPING}
}

// spec describes one source's sampling behaviour.
type spec struct {
	// rate scales overall coverage; clientBias is the passive vantage
	// (1 = pure client log, 0 = pure server-side view).
	rate, clientBias float64
	// available bounds collection (Table 2 "Time collected").
	from, to time.Time
	// probe is how an active census sweeps the space; passive for logs.
	probe probeKind
	// gaps lists collection outages (the paper mentions "a gap in the
	// GAME data collection" that depressed early observed counts, §6.3).
	gaps []windows.Window
	// vis is the per-/24 visibility: the probability that this vantage
	// point ever exchanges traffic with a given /24. Real sources cover
	// wildly different /24 fractions (Table 2: WIKI reaches ≈35% of the
	// observed /24s, WEB/GAME ≈70%); 0 means 1 (censuses sweep everything
	// and are limited by shielding instead).
	vis float64
	// netflow marks sources with spoofed-source pollution (§4.5).
	netflow bool
	// spoofPer8 is the number of spoofed addresses injected per routed
	// /8-equivalent per window (the paper's S: 10,000–15,000 for SWIN;
	// 15,000–20,000 for CALT, spiking to ≈250,000 in March 2014).
	spoofPer8 float64
}

// probeKind is how a source meets addresses.
type probeKind int

const (
	passive  probeKind = iota // a log of hosts seen in traffic
	icmpEcho                  // ICMP echo requests (IPING)
	tcp80SYN                  // TCP SYNs to port 80 (TPING)
)

func date(y, m int) time.Time { return time.Date(y, time.Month(m), 1, 0, 0, 0, 0, time.UTC) }

var specs = map[Name]spec{
	WIKI: {rate: 0.32, clientBias: 0.95, vis: 0.35, from: date(2011, 1), to: date(2014, 7)},
	SPAM: {rate: 0.88, clientBias: 0.80, vis: 0.30, from: date(2012, 5), to: date(2014, 7)},
	MLAB: {rate: 0.75, clientBias: 0.95, vis: 0.45, from: date(2011, 1), to: date(2014, 7)},
	WEB:  {rate: 1.28, clientBias: 0.97, vis: 0.70, from: date(2011, 3), to: date(2014, 7)},
	GAME: {rate: 1.14, clientBias: 0.98, vis: 0.70, from: date(2011, 1), to: date(2014, 7),
		gaps: []windows.Window{{Start: date(2012, 7), End: date(2012, 11)}}},
	SWIN:  {rate: 1.87, clientBias: 0.72, vis: 0.60, from: date(2011, 1), to: date(2014, 7), netflow: true, spoofPer8: 6000},
	CALT:  {rate: 1.55, clientBias: 0.65, vis: 0.68, from: date(2013, 6), to: date(2014, 7), netflow: true, spoofPer8: 9000},
	IPING: {probe: icmpEcho, from: date(2011, 3), to: date(2014, 7)},
	TPING: {probe: tcp80SYN, from: date(2012, 3), to: date(2014, 7)},
}

// Observation is one source's view of one window.
type Observation struct {
	Name  Name
	Addrs *ipset.Set
}

// Suite generates observations for all sources over a universe.
type Suite struct {
	U    *universe.Universe
	Seed uint64
	// Loss is the probe-loss rate applied to censuses.
	Loss float64
	// SpoofScale multiplies the netflow spoof injection (1 = default; 0
	// disables spoofing, for ablations and Figure 2's comparison).
	SpoofScale float64
}

// NewSuite returns a Suite with the default configuration.
func NewSuite(u *universe.Universe, seed uint64) *Suite {
	return &Suite{U: u, Seed: seed, Loss: 0.02, SpoofScale: 1}
}

// availFraction returns how much of the window the source was collecting,
// after subtracting any collection gaps.
func availFraction(sp spec, w windows.Window) float64 {
	start, end := w.Start, w.End
	if sp.from.After(start) {
		start = sp.from
	}
	if sp.to.Before(end) {
		end = sp.to
	}
	if !start.Before(end) {
		return 0
	}
	active := end.Sub(start).Hours()
	for _, g := range sp.gaps {
		gs, ge := g.Start, g.End
		if gs.Before(start) {
			gs = start
		}
		if ge.After(end) {
			ge = end
		}
		if gs.Before(ge) {
			active -= ge.Sub(gs).Hours()
		}
	}
	if active <= 0 {
		return 0
	}
	return active / w.End.Sub(w.Start).Hours()
}

// CollectAll runs every source over the window in one pass over the
// ground-truth population and returns one Observation per source, in All
// order. Routed is the aggregated routed table for the window, used to
// filter the observations (§4.4); pass nil to skip filtering. It rides the
// universe's trait enumerator: the per-address draws (activation, class,
// activity, probe responses) are made once and shared by all nine
// sources, and each source's visibility gate is drawn once per /24. A
// source logs an address when a keyed hash of (seed, source, window,
// address) falls below captureProb.
func (s *Suite) CollectAll(w windows.Window, routed *trie.Trie) []Observation {
	names := All()
	srcs := make([]source, len(names))
	for i, n := range names {
		sp := specs[n]
		srcs[i] = source{
			name:   n,
			sp:     &sp,
			frac:   availFraction(sp, w),
			key:    s.Seed ^ hashName(n) ^ uint64(w.End.Unix()),
			visKey: s.Seed ^ hashName(n) ^ 0x24a7,
			out:    ipset.New(),
		}
	}
	ys, ye := universe.YearOf(w.Start), universe.YearOf(w.End)
	cur24 := ^uint32(0)
	s.U.RangeUsedTraits(w.End, func(a ipv4.Addr, tr *universe.AddrTraits) bool {
		if k := a.Slash24Index(); k != cur24 {
			cur24 = k
			for i := range srcs {
				srcs[i].sees24 = srcs[i].frac > 0 && srcs[i].visible24(k)
			}
		}
		af := universe.ActiveFractionYears(tr.Activation, ys, ye)
		for i := range srcs {
			src := &srcs[i]
			if p := s.captureProb(src, tr, af); p > 0 && rng.Hash01(src.key, uint64(a)) < p {
				src.out.Add(a)
			}
		}
		return true
	})
	obs := make([]Observation, len(srcs))
	for i := range srcs {
		src := &srcs[i]
		if src.sp.netflow && src.frac > 0 {
			s.injectSpoofed(*src.sp, w, src.frac, rng.New(src.key), src.out)
		}
		s.filterRouted(src.out, routed)
		obs[i] = Observation{Name: src.name, Addrs: src.out}
	}
	return obs
}

// source is one source's sampling state over a window.
type source struct {
	name   Name
	sp     *spec
	frac   float64 // availFraction of the window
	key    uint64  // keyed-hash stream of the per-address draws
	visKey uint64  // keyed-hash stream of the per-/24 visibility gate
	// sees24 reports whether the source can log anything in the /24
	// being walked: it collects during the window (frac > 0) and the /24
	// passes visible24.
	sees24 bool
	out    *ipset.Set
}

// visible24 is the per-(source, /24) visibility gate: routing locality and
// service mix make whole subnets invisible to individual vantage points
// (Table 2's very different per-source /24 coverage). Censuses (spec.vis
// 0, meaning 1) see every /24.
func (src *source) visible24(key24 uint32) bool {
	vis := src.sp.vis
	if vis <= 0 {
		vis = 1
	}
	return rng.Hash01(src.visKey, uint64(key24)) < vis
}

// captureProb is the probability that src logs an address with traits tr
// that was active for fraction af of the window: zero behind the /24 gate
// (sees24), visibleProb otherwise. It stays small enough to inline, so the
// gated-off sources of a /24 cost no call.
func (s *Suite) captureProb(src *source, tr *universe.AddrTraits, af float64) float64 {
	if !src.sees24 {
		return 0
	}
	return s.visibleProb(src, tr, af)
}

// visibleProb is captureProb in a /24 the source sees. A passive source
// logs by ObservableBy; a census logs responders to its probe.
func (s *Suite) visibleProb(src *source, tr *universe.AddrTraits, af float64) float64 {
	var responds bool
	switch src.sp.probe {
	case passive:
		return tr.ObservableBy(src.sp.rate*src.frac, src.sp.clientBias, af)
	case icmpEcho:
		responds = tr.RespICMP || tr.RespUnreach
	case tcp80SYN:
		responds = !tr.FwRSTBlock && (tr.RespTCP80 || (!tr.RespICMP && tr.RespUnreach))
	}
	if !responds {
		return 0
	}
	// The census only sees hosts active when their /24 was swept;
	// censuses run twice a year, so a host activating late in the window
	// may be missed. Loss adds a little noise on top.
	return src.frac * (0.25 + 0.75*af) * (1 - s.Loss)
}

// filterRouted drops observations outside the aggregated routed space
// (§4.4 preprocessing); nil disables filtering.
func (s *Suite) filterRouted(out *ipset.Set, routed *trie.Trie) {
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

// injectSpoofed adds uniformly distributed spoofed source addresses to a
// NetFlow source (§4.5: DDoS attacks and decoy scans draw source addresses
// uniformly at random, including from completely unused /8s). On the wire
// the spoofed addresses are uniform over the whole 32-bit space; the ones
// in unrouted or unallocated space are removed by preprocessing, so the
// effective pollution is uniform over the routed space — which is what
// this draws directly, for efficiency.
func (s *Suite) injectSpoofed(sp spec, w windows.Window, frac float64, r *rng.RNG, out *ipset.Set) {
	scale := s.SpoofScale
	if scale == 0 {
		return
	}
	// CALT's spoofed volume spiked roughly tenfold in March 2014 (§4.5),
	// the event that makes unfiltered estimates blow up in Figure 2. The
	// simulated spike is gentler (×4): at reduced scale the genuine
	// per-/8 counts are far smaller than the paper's, so the relative
	// spoof pressure is already much higher.
	per8 := sp.spoofPer8
	if sp.spoofPer8 >= 9000 && !w.End.Before(date(2014, 3)) {
		per8 *= 4
	}
	// Cumulative routed sizes for uniform sampling over the routed space.
	idxs := s.U.RoutedAllocs(w.End)
	if len(idxs) == 0 {
		return
	}
	cum := make([]uint64, len(idxs))
	var total uint64
	for i, idx := range idxs {
		total += s.U.Reg.Allocs[idx].Prefix.Size()
		cum[i] = total
	}
	n := int(per8 * scale * frac * float64(total) / float64(uint64(1)<<24))
	for i := 0; i < n; i++ {
		k := r.Uint64n(total)
		lo, hi := 0, len(cum)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] <= k {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		p := s.U.Reg.Allocs[idxs[lo]].Prefix
		off := k
		if lo > 0 {
			off -= cum[lo-1]
		}
		out.Add(p.First() + ipv4.Addr(off))
	}
}

func hashName(n Name) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(n); i++ {
		h ^= uint64(n[i])
		h *= 1099511628211
	}
	return h
}
