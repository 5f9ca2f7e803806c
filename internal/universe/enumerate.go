package universe

import (
	"math"
	"sort"
	"time"

	"ghosts/internal/ipset"
	"ghosts/internal/ipv4"
	"ghosts/internal/registry"
)

// neverYear marks "never activates".
const neverYear = math.MaxFloat64

// block is a /24 holding used addresses: its allocation's industry and
// profile, the per-/24 draws that address activation reads, and its used
// addresses in ascending order with their activation years.
type block struct {
	ind  registry.Industry
	p    *profile
	key  uint32  // Slash24Index
	d24  float64 // slash24Density
	dyn  bool    // dynamic24
	n    int     // used addresses: addr[:n], activated in ta[:n]
	addr [256]ipv4.Addr
	ta   [256]float64
}

// walk is the one enumeration of the used space, allocation → /24 →
// address, behind RangeUsed, UsedInPrefix, PeakUsedInPrefix and
// RangeUsedTraits. It visits every /24 holding an address inside pfx used
// at t, in ascending order, until fn returns false. Each address's
// activation year is no earlier than its allocation was routed. b is
// reused across calls and must not be retained.
func (u *Universe) walk(pfx ipv4.Prefix, t time.Time, fn func(b *block) bool) {
	yt := YearOf(t)
	var b block
	// The allocations are sorted and disjoint, so the ones overlapping pfx
	// are one run, starting at the first allocation that ends inside it.
	allocs := u.Reg.Allocs
	first := sort.Search(len(allocs), func(i int) bool { return allocs[i].Prefix.Last() >= pfx.First() })
	for i := first; i < len(allocs) && allocs[i].Prefix.Overlaps(pfx); i++ {
		al := &allocs[i]
		p := &u.profiles[i]
		if !p.routed || p.routedAt > yt || p.util24 <= 0 {
			continue
		}
		lo, hi := al.Prefix.First(), al.Prefix.Last()
		if f := pfx.First(); f > lo {
			lo = f
		}
		if l := pfx.Last(); l < hi {
			hi = l
		}
		b.ind, b.p = al.Industry, p
		for key := lo.Slash24Index(); key <= hi.Slash24Index(); key++ {
			t24 := u.slash24ActivationYear(p, key)
			if t24 > yt {
				continue
			}
			b.key, b.d24, b.dyn, b.n = key, u.slash24Density(key), u.dynamic24(p, key), 0
			base := ipv4.Addr(key << 8)
			for o := 0; o < 256; o++ {
				a := base + ipv4.Addr(o)
				if a < lo || a > hi {
					continue
				}
				ta := u.addrActivationWith(p, a, t24, b.d24, b.dyn)
				if ta > yt {
					continue
				}
				b.addr[b.n], b.ta[b.n] = a, max(ta, p.routedAt)
				b.n++
			}
			if b.n > 0 && !fn(&b) {
				return
			}
		}
	}
}

// slash24ActivationYear returns the fractional year at which the /24
// containing key starts being used under profile p, or neverYear.
func (u *Universe) slash24ActivationYear(p *profile, key uint32) float64 {
	if p.util24 <= 0 {
		return neverYear
	}
	h := u.hash01(h24Activate, uint64(key))
	if h >= p.util24 {
		return neverYear
	}
	return p.rampStart + (h/p.util24)*(p.rampEnd-p.rampStart)
}

// slash24Density is the per-/24 fill factor: block density is highly
// heterogeneous in practice (Cai et al., §2: "most addresses in about
// one-fifth of /24 blocks are in use less than 10% of the time"), so the
// allocation-level density is modulated by a right-skewed per-subnet
// factor. Sparse, quiet subnets are what every source can miss — the /24
// ghosts of §6.3.
func (u *Universe) slash24Density(key uint32) float64 {
	h := u.hash01(h24Density, uint64(key))
	return 0.10 + 1.55*h*h
}

// dynamic24 reports whether the /24 key is operated as a dynamically
// assigned (DHCP/PPPoE) pool under profile p (§4.6).
func (u *Universe) dynamic24(p *profile, key uint32) bool {
	return u.hash01(h24Dynamic, uint64(key)) < p.dynFrac
}

// firewallDrop24 is the probe-filtering probability of the /24 key: the
// profile's rate with per-/24 jitter, so some subnets are tightly
// firewalled and some open.
func (u *Universe) firewallDrop24(p *profile, key uint32) float64 {
	j := u.hash01(hAllocJitter2, uint64(key)^0xabcd)
	return clamp01(p.fwDrop * (0.6 + 0.8*j))
}

// addrActivationYear returns the fractional year at which address a becomes
// used, combining the /24 and per-address activation processes; neverYear
// if it never does. The caller must pass the allocation profile covering a.
func (u *Universe) addrActivationYear(p *profile, a ipv4.Addr) float64 {
	key24 := a.Slash24Index()
	t24 := u.slash24ActivationYear(p, key24)
	if t24 == neverYear {
		return neverYear
	}
	return u.addrActivationWith(p, a, t24, u.slash24Density(key24), u.dynamic24(p, key24))
}

// addrActivationWith is addrActivationYear with the per-/24 quantities —
// activation year t24, density d24, dynamic-pool membership dyn —
// precomputed, so the walk pays for them once per /24 instead of once per
// address.
func (u *Universe) addrActivationWith(p *profile, a ipv4.Addr, t24, d24 float64, dyn bool) float64 {
	h := u.hash01(hAddrActivate, uint64(a))
	// Dynamic pools cycle through essentially every address within months
	// of the pool going live (§4.6: over a 12-month window all pool
	// addresses are touched and count as de-facto used), and draw leases
	// uniformly, so the last-byte shape is flat for them.
	if dyn {
		const poolFill = 0.96
		if h >= poolFill {
			return neverYear
		}
		return t24 + 1.5*(h/poolFill) // the pool fills over ~18 months
	}
	thr := p.density * d24 * lastByteWeight[a.LastByte()]
	if thr > 1 {
		thr = 1
	}
	if thr <= 0 {
		return neverYear
	}
	if h >= thr {
		return neverYear
	}
	ta := p.rampStart + (h/thr)*(p.rampEnd-p.rampStart)
	if ta < t24 {
		ta = t24
	}
	return ta
}

// ActivationYear returns the fractional year address a becomes used and
// true, or false if it never does.
func (u *Universe) ActivationYear(a ipv4.Addr) (float64, bool) {
	idx := u.Reg.LookupIndex(a)
	if idx < 0 {
		return 0, false
	}
	p := &u.profiles[idx]
	if !p.routed {
		return 0, false
	}
	y := u.addrActivationYear(p, a)
	if y == neverYear {
		return 0, false
	}
	if r := p.routedAt; y < r {
		y = r
	}
	return y, true
}

// IsUsedAt reports whether address a is used at time t (i.e. has activated
// by then; the population only grows, matching the paper's cumulative
// window semantics).
func (u *Universe) IsUsedAt(a ipv4.Addr, t time.Time) bool {
	y, ok := u.ActivationYear(a)
	return ok && y <= YearOf(t)
}

// UsedAt enumerates all used addresses at time t.
func (u *Universe) UsedAt(t time.Time) *ipset.Set {
	return u.UsedInPrefix(ipv4.Prefix{}, t)
}

// UsedInPrefix enumerates the used addresses inside pfx at time t.
func (u *Universe) UsedInPrefix(pfx ipv4.Prefix, t time.Time) *ipset.Set {
	out := ipset.New()
	u.walk(pfx, t, func(b *block) bool {
		for _, a := range b.addr[:b.n] {
			out.Add(a)
		}
		return true
	})
	return out
}

// RangeUsed visits every used address at time t in ascending order,
// passing its activation year, until fn returns false.
func (u *Universe) RangeUsed(t time.Time, fn func(a ipv4.Addr, activation float64) bool) {
	u.walk(ipv4.Prefix{}, t, func(b *block) bool {
		for j, a := range b.addr[:b.n] {
			if !fn(a, b.ta[j]) {
				return false
			}
		}
		return true
	})
}

// ActiveFraction returns the fraction of window [start, end) during which
// address a was active: 0 if it never activates or activates after end, 1
// if active for the whole window. Passive sources use this to weight how
// likely they are to log an address that only appeared late in the window.
func (u *Universe) ActiveFraction(a ipv4.Addr, start, end time.Time) float64 {
	y, ok := u.ActivationYear(a)
	if !ok {
		return 0
	}
	return ActiveFractionYears(y, YearOf(start), YearOf(end))
}

// ActiveFractionYears is ActiveFraction for an address activating in
// fractional year activation and a window from year ys to year ye.
func ActiveFractionYears(activation, ys, ye float64) float64 {
	switch {
	case activation >= ye:
		return 0
	case activation <= ys:
		return 1
	}
	return (ye - activation) / (ye - ys)
}

// Class returns the device class of address a, shaped by the covering
// allocation's industry and by positional conventions (.1 and .254 are
// routers/gateways).
func (u *Universe) Class(a ipv4.Addr) DeviceClass {
	ind := registry.ISP
	if idx := u.Reg.LookupIndex(a); idx >= 0 {
		ind = u.Reg.Allocs[idx].Industry
	}
	return u.classIn(a, ind)
}

// classIn is Class for an address in an allocation of industry ind.
func (u *Universe) classIn(a ipv4.Addr, ind registry.Industry) DeviceClass {
	if b := a.LastByte(); b == 1 || b == 254 {
		return Router
	}
	cum := &classMix[ind]
	h := u.hash01(hAddrClass, uint64(a))
	switch {
	case h < cum[0]:
		return Router
	case h < cum[1]:
		return Server
	case h < cum[2]:
		return Client
	case h < cum[3]:
		return NATGateway
	default:
		return Specialised
	}
}

// classMix holds cumulative class probabilities (Router, Server, Client,
// NATGateway; remainder Specialised) per industry, indexed by
// registry.Industry.
var classMix = [...][4]float64{
	registry.ISP:        {0.02, 0.05, 0.50, 0.95},
	registry.Corporate:  {0.05, 0.35, 0.85, 0.93},
	registry.Education:  {0.05, 0.30, 0.90, 0.95},
	registry.Government: {0.05, 0.30, 0.85, 0.92},
	registry.Military:   {0.05, 0.25, 0.90, 0.95},
}

// Activity returns a per-address activity level in (0, 1]: how much
// traffic the host generates, hence how likely it is to appear in passive
// logs. Heavily skewed: most hosts are quiet, a few are loud. Activity is
// additionally correlated within a /24 — whole subnets are quiet (lights-
// out servers, infrastructure, little outbound traffic), which is what
// lets *every* passive source miss a used subnet at once.
func (u *Universe) Activity(a ipv4.Addr) float64 {
	return u.activity(a, u.slash24Density(a.Slash24Index()), u.Class(a))
}

// activity is Activity for an address of class cls in a /24 of density
// d24.
func (u *Universe) activity(a ipv4.Addr, d24 float64, cls DeviceClass) float64 {
	h := u.hash01(hAddrActivity, uint64(a))
	// Square the uniform draw for a right-skewed distribution; keep a
	// floor so every used address is observable in principle (CR requires
	// nonzero capture probability, §3.1).
	// The /24 factor reuses the subnet-density draw: sparse subnets are
	// also quiet (few hosts, little traffic), so their addresses are hard
	// for every passive vantage point at once.
	act := h * h * (0.08 + 1.4*(d24/1.65))
	switch cls {
	case Server:
		act = 0.3 + 0.7*act
	case Router:
		act = 0.1 + 0.5*act
	case Specialised:
		act *= 0.2
	}
	if act < 0.01 {
		act = 0.01
	}
	if act > 1 {
		act = 1
	}
	return act
}

// IsDynamic reports whether a sits in a dynamically-assigned (DHCP/PPPoE)
// pool /24 (§4.6).
func (u *Universe) IsDynamic(a ipv4.Addr) bool {
	idx := u.Reg.LookupIndex(a)
	return idx >= 0 && u.dynamic24(&u.profiles[idx], a.Slash24Index())
}

// FirewallDrop returns the probability that an active probe to a is
// silently filtered (never answered), before considering whether the host
// itself responds.
func (u *Universe) FirewallDrop(a ipv4.Addr) float64 {
	idx := u.Reg.LookupIndex(a)
	if idx < 0 {
		return 1
	}
	return u.firewallDrop24(&u.profiles[idx], a.Slash24Index())
}

// SimultaneousPeak reports whether a counts toward the peak simultaneous
// usage of its network: dynamic-pool addresses are only partly in use at
// any instant, so the peak ("high watermark", the Table 4 ground truth) is
// below the cumulative 12-month usage.
func (u *Universe) SimultaneousPeak(a ipv4.Addr) bool {
	frac := 0.92
	if u.IsDynamic(a) {
		frac = 0.55
	}
	return u.hash01(hAddrSim, uint64(a)) < frac
}

// RoutedPrefixAt reports whether the allocation covering a was routed by
// time t, and returns its prefix.
func (u *Universe) RoutedPrefixAt(a ipv4.Addr, t time.Time) (ipv4.Prefix, bool) {
	idx := u.Reg.LookupIndex(a)
	if idx < 0 {
		return ipv4.Prefix{}, false
	}
	p := &u.profiles[idx]
	if !p.routed || p.routedAt > YearOf(t) {
		return ipv4.Prefix{}, false
	}
	return u.Reg.Allocs[idx].Prefix, true
}

// RoutedAllocs returns the indices of allocations routed by time t.
func (u *Universe) RoutedAllocs(t time.Time) []int {
	yt := YearOf(t)
	var out []int
	for i := range u.profiles {
		if u.profiles[i].routed && u.profiles[i].routedAt <= yt {
			out = append(out, i)
		}
	}
	return out
}
