package sources

import (
	"context"
	"time"

	"ghosts/internal/ipset"
	"ghosts/internal/ipv4"
	"ghosts/internal/parallel"
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

// CollectAll runs every source over each window of ws in one pass over
// the ground-truth population and returns, per window, one Observation per
// source in All order. routed holds the aggregated routed table of each
// window, used to filter its observations (§4.4); a nil routed, or a nil
// entry, skips filtering for those windows. It rides the universe's trait
// enumerator up to the latest window end: the per-address draws
// (activation, class, activity, probe responses) are made once and shared
// by every window and source, each source's visibility gate is drawn once
// per /24, and an address is offered to every window it is used by (its
// activation year is at or before the window's end). A source logs an
// address in a window when a keyed hash of (seed, source, window,
// address) falls below captureProb, so the result does not depend on
// which windows are collected together. The walk fans out over the
// allocations into per-worker sets, merged by page union, so the sets do
// not depend on scheduling either.
func (s *Suite) CollectAll(ws []windows.Window, routed []*trie.Trie) [][]Observation {
	if len(ws) == 0 {
		return nil
	}
	names := All()
	srcs := make([]source, len(names))
	for i, n := range names {
		sp := specs[n]
		srcs[i] = source{name: n, sp: &sp, visKey: s.Seed ^ hashName(n) ^ 0x24a7}
	}
	wins := make([]window, len(ws))
	var end time.Time
	for wi, w := range ws {
		win := &wins[wi]
		win.w, win.ys, win.ye = w, universe.YearOf(w.Start), universe.YearOf(w.End)
		win.draws = make([]draw, len(srcs))
		for si := range srcs {
			src := &srcs[si]
			win.draws[si] = draw{
				src:  src,
				frac: availFraction(*src.sp, w),
				key:  s.Seed ^ hashName(src.name) ^ uint64(w.End.Unix()),
			}
		}
		if w.End.After(end) {
			end = w.End
		}
	}
	allocs := s.U.Reg.Allocs
	workers := make([]*collector, len(allocs))
	// A background context never cancels, so the walk cannot fail.
	_ = parallel.ForEachWorkerCtx(context.Background(), len(allocs), func(worker, i int) {
		c := workers[worker]
		if c == nil {
			c = newCollector(srcs, wins)
			workers[worker] = c
		}
		s.U.RangeUsedTraits(allocs[i].Prefix, end, c.offer(s))
	})
	obs := make([][]Observation, len(wins))
	for wi := range obs {
		obs[wi] = make([]Observation, len(srcs))
	}
	parallel.ForEach(len(wins)*len(srcs), func(j int) {
		wi, si := j/len(srcs), j%len(srcs)
		d := &wins[wi].draws[si]
		var out *ipset.Set
		for _, c := range workers {
			switch {
			case c == nil:
			case out == nil:
				out = c.wins[wi].draws[si].out
			default:
				out.AddSet(c.wins[wi].draws[si].out)
			}
		}
		if out == nil {
			out = ipset.New()
		}
		if d.src.sp.netflow && d.frac > 0 {
			s.injectSpoofed(*d.src.sp, wins[wi].w, d.frac, rng.New(d.key), out)
		}
		if routed != nil && routed[wi] != nil {
			out.Retain(routed[wi])
		}
		obs[wi][si] = Observation{Name: d.src.name, Addrs: out}
	})
	return obs
}

// source is one source's identity and its per-/24 visibility stream,
// shared by every window.
type source struct {
	name   Name
	sp     *spec
	visKey uint64 // keyed-hash stream of the per-/24 visibility gate
}

// window is one collected window with its per-source sampling state.
type window struct {
	w      windows.Window
	ys, ye float64 // fractional years of w.Start and w.End
	draws  []draw  // one per source, in All order
}

// draw is one source's sampling state over one window.
type draw struct {
	src  *source
	frac float64 // availFraction of the window
	key  uint64  // keyed-hash stream of the per-address draws
	// sees24 reports whether the source can log anything in the /24
	// being walked: it collects during the window (frac > 0) and the /24
	// passes visible24.
	sees24 bool
	out    *ipset.Set
}

// collector is one walk worker's state: its own copy of every window's
// draws, with sets of its own, and the /24 it is in.
type collector struct {
	srcs  []source
	wins  []window
	cur24 uint32
}

func newCollector(srcs []source, wins []window) *collector {
	c := &collector{srcs: srcs, wins: make([]window, len(wins)), cur24: ^uint32(0)}
	for wi, win := range wins {
		win.draws = append([]draw(nil), win.draws...)
		for di := range win.draws {
			win.draws[di].out = ipset.New()
		}
		c.wins[wi] = win
	}
	return c
}

// offer returns the walk callback that draws every window's captures of
// one used address into c's sets.
func (c *collector) offer(s *Suite) func(a ipv4.Addr, tr *universe.AddrTraits) bool {
	return func(a ipv4.Addr, tr *universe.AddrTraits) bool {
		if k := a.Slash24Index(); k != c.cur24 {
			c.cur24 = k
			for si := range c.srcs {
				vis := c.srcs[si].visible24(k)
				for wi := range c.wins {
					d := &c.wins[wi].draws[si]
					d.sees24 = d.frac > 0 && vis
				}
			}
		}
		for wi := range c.wins {
			win := &c.wins[wi]
			if tr.Activation > win.ye {
				continue // not yet used at the window's end
			}
			af := universe.ActiveFractionYears(tr.Activation, win.ys, win.ye)
			for di := range win.draws {
				d := &win.draws[di]
				if p := s.captureProb(d, tr, af); p > 0 && rng.Hash01(d.key, uint64(a)) < p {
					d.out.Add(a)
				}
			}
		}
		return true
	}
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

// captureProb is the probability that d's source logs an address with
// traits tr that was active for fraction af of d's window: zero behind the
// /24 gate (sees24), visibleProb otherwise. It stays small enough to
// inline, so the gated-off sources of a /24 cost no call.
func (s *Suite) captureProb(d *draw, tr *universe.AddrTraits, af float64) float64 {
	if !d.sees24 {
		return 0
	}
	return s.visibleProb(d, tr, af)
}

// visibleProb is captureProb in a /24 the source sees. A passive source
// logs by ObservableBy; a census logs responders to its probe.
func (s *Suite) visibleProb(d *draw, tr *universe.AddrTraits, af float64) float64 {
	sp := d.src.sp
	var responds bool
	switch sp.probe {
	case passive:
		return tr.ObservableBy(sp.rate*d.frac, sp.clientBias, af)
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
	return d.frac * (0.25 + 0.75*af) * (1 - s.Loss)
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
