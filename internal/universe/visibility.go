package universe

import (
	"time"

	"ghosts/internal/ipv4"
	"ghosts/internal/registry"
)

// Probe-response propensities per device class (§4.2): servers and routers
// answer pings; clients sit behind host firewalls; NAT gateways (home
// routers) respond fairly often; specialised devices mostly answer only on
// their service ports.
var icmpRespond = [numClasses]float64{
	Router:      0.95,
	Server:      0.88,
	Client:      0.26,
	NATGateway:  0.74,
	Specialised: 0.06,
}

var tcp80Respond = [numClasses]float64{
	Router:      0.30, // admin web UIs
	Server:      0.85,
	Client:      0.06,
	NATGateway:  0.32, // CPE web UIs (§4.2's Cable/DSL router observation)
	Specialised: 0.18, // devices listening on service ports only
}

// portFactor scales the port-80 response propensity for other TCP ports.
// The paper's footnote 2: the authors surveyed common ports and found 80
// the most responsive; this table reproduces that ordering. Specialised
// devices are the exception — they answer on their service ports (9100 is
// the Internet Printing example of §4.2's footnote 5).
var portFactor = map[uint16][numClasses]float64{
	80:   {1, 1, 1, 1, 1},
	443:  {0.7, 0.9, 0.5, 0.6, 0.4},
	22:   {0.9, 0.55, 0.1, 0.25, 0.1},
	25:   {0.1, 0.35, 0.05, 0.05, 0.05},
	23:   {0.6, 0.1, 0.02, 0.35, 0.6},
	8080: {0.3, 0.25, 0.1, 0.2, 0.3},
	9100: {0.02, 0.02, 0.01, 0.01, 4.5},
}

// RespondsTCPPort reports whether a used address answers SYNs to the given
// TCP port; unknown ports get a small residual response rate.
func (u *Universe) RespondsTCPPort(a ipv4.Addr, port uint16) bool {
	return u.respondsTCP(a, u.Class(a), u.Shielded24(a), u.FirewallDrop(a), port)
}

// respondsTCP is RespondsTCPPort for an address of class cls in a /24
// with the given shielding and firewall-drop probability. Port 80 draws
// from hRespTCP itself, every other port from its own stream.
func (u *Universe) respondsTCP(a ipv4.Addr, cls DeviceClass, shielded bool, fwDrop float64, port uint16) bool {
	if shielded {
		return false
	}
	tag, factor := hRespTCP, 1.0
	if port != 80 {
		tag ^= uint64(port) * 0x9e37
		factor = 0.02
		if f, ok := portFactor[port]; ok {
			factor = f[cls]
		}
	}
	return u.hash01(tag, uint64(a)) < min(tcp80Respond[cls]*factor*(1-fwDrop), 1)
}

const (
	hRespICMP uint64 = 100 + iota
	hRespTCP
	hFwRST
	hProtoUnreach
	hShield24
)

// shieldFrac is the fraction of /24 subnets per industry whose border
// firewall silently drops every probe: whole subnets invisible to active
// measurement, regardless of what is inside. This is what creates
// /24-level ghosts — used subnets no census can see (§6.3: even the /24
// estimate exceeds the observed count). Indexed by registry.Industry.
var shieldFrac = [...]float64{
	registry.ISP:        0.06,
	registry.Corporate:  0.30,
	registry.Education:  0.12,
	registry.Government: 0.35,
	registry.Military:   0.55,
}

// Shielded24 reports whether a's entire /24 subnet is behind a
// drop-everything firewall.
func (u *Universe) Shielded24(a ipv4.Addr) bool {
	idx := u.Reg.LookupIndex(a)
	return idx >= 0 && u.shielded24(u.Reg.Allocs[idx].Industry, a.Slash24Index())
}

// shielded24 is Shielded24 for the /24 key of an allocation of industry
// ind.
func (u *Universe) shielded24(ind registry.Industry, key uint32) bool {
	return u.hash01(hShield24, uint64(key)) < shieldFrac[ind]
}

// RespondsICMP reports whether a used address a answers ICMP echo requests
// (before network loss). The decision is a fixed per-address property so
// the packet-level prober and the fast census path agree exactly. Shielded
// subnets never answer.
func (u *Universe) RespondsICMP(a ipv4.Addr) bool {
	return u.respondsICMP(a, u.Class(a), u.Shielded24(a), u.FirewallDrop(a))
}

// respondsICMP is RespondsICMP for an address of class cls in a /24 with
// the given shielding and firewall-drop probability.
func (u *Universe) respondsICMP(a ipv4.Addr, cls DeviceClass, shielded bool, fwDrop float64) bool {
	return !shielded && u.hash01(hRespICMP, uint64(a)) < icmpRespond[cls]*(1-fwDrop)
}

// RespondsTCP80 reports whether a used address answers SYNs to port 80
// with SYN/ACK.
func (u *Universe) RespondsTCP80(a ipv4.Addr) bool { return u.RespondsTCPPort(a, 80) }

// RespondsUnreachable reports whether probing a used, non-ICMP-responding
// address elicits a "destination protocol/port unreachable" instead of
// silence; the paper counts these as evidence of use (§4.4).
func (u *Universe) RespondsUnreachable(a ipv4.Addr) bool {
	return u.respondsUnreachable(a, u.Shielded24(a), u.RespondsICMP(a))
}

// respondsUnreachable is RespondsUnreachable for an address whose /24 is
// shielded or not and which answers ICMP echo (icmp) or not.
func (u *Universe) respondsUnreachable(a ipv4.Addr, shielded, icmp bool) bool {
	return !shielded && !icmp && u.hash01(hProtoUnreach, uint64(a)) < 0.05
}

// FirewallRSTBlock reports whether address a lies in a block whose border
// firewall answers SYNs with RSTs for the entire (/25 or larger) range.
// §4.4: "25% of RSTs cover nearly contiguous /25 or larger networks,
// suggesting they may have originated from firewalls" — which is why the
// prober must ignore RSTs.
func (u *Universe) FirewallRSTBlock(a ipv4.Addr) bool {
	idx := u.Reg.LookupIndex(a)
	return idx >= 0 && u.rstBlock24(&u.profiles[idx], a.Slash24Index())
}

// rstBlock24 is FirewallRSTBlock for the /24 key under profile p:
// tightly-firewalled industries RST-scan whole subnets.
func (u *Universe) rstBlock24(p *profile, key uint32) bool {
	return u.hash01(hFwRST, uint64(key)) < 0.12*p.fwDrop/0.25
}

// ObservableBy reports the probability that a passive source with client
// bias b ∈ [0,1] logs address a during a window where a was active for
// fraction frac of the time. b = 1 means a pure client-side log (web,
// game); b = 0 means a server-side vantage. rate scales overall coverage.
//
// This is the heterogeneity engine: the same address has very different
// capture probabilities across sources, producing the apparent source
// dependence that breaks Lincoln-Petersen and motivates log-linear CR
// (§3.2.2).
func (u *Universe) ObservableBy(a ipv4.Addr, rate, clientBias, frac float64) float64 {
	if frac <= 0 {
		return 0
	}
	return observableWith(u.Activity(a), u.Class(a), u.IsDynamic(a), rate, clientBias, frac)
}

// observableWith is ObservableBy with the per-address draws already in
// hand — the one definition behind the accessor above and
// AddrTraits.ObservableBy.
func observableWith(act float64, cls DeviceClass, dyn bool, rate, clientBias, frac float64) float64 {
	if frac <= 0 {
		return 0
	}
	classWeight := 1.0
	switch cls {
	case Client:
		classWeight = clientBias
	case NATGateway:
		classWeight = 0.8*clientBias + 0.2*(1-clientBias)
	case Server:
		classWeight = 1.35 * (1 - clientBias)
	case Router:
		classWeight = 0.35 * (1 - clientBias)
	case Specialised:
		classWeight = 0.02
	}
	// Dynamic-pool addresses rotate through many subscribers over a long
	// window, so a pool address is *more* likely to show up in a
	// client-side log than a static single-host address (§4.6).
	if dyn {
		classWeight *= 1 + 0.8*clientBias
	}
	p := rate * act * classWeight * frac
	return clamp01(p)
}

// PeakUsedInPrefix counts the peak number of simultaneously used addresses
// inside pfx at time t — the "high watermark" ground truth of Table 4.
func (u *Universe) PeakUsedInPrefix(pfx ipv4.Prefix, t time.Time) int {
	n := 0
	u.walk(pfx, t, func(b *block) bool {
		for _, a := range b.addr[:b.n] {
			if u.SimultaneousPeak(a) {
				n++
			}
		}
		return true
	})
	return n
}
