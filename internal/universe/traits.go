package universe

import (
	"time"

	"ghosts/internal/ipv4"
)

// AddrTraits bundles the per-address visibility primitives that every data
// source consults when deciding whether it logs an address. Each field
// comes from the same function as its point accessor (Activation ↔
// ActivationYear, Class ↔ Class, RespICMP ↔ RespondsICMP, …): every draw is
// declared once, and the enumerator only hoists the per-allocation and
// per-/24 inputs out of the address loop instead of re-deriving them,
// allocation lookup included, once per accessor call per source.
type AddrTraits struct {
	Activation   float64 // fractional year the address became used
	Class        DeviceClass
	Activity     float64
	Dynamic      bool    // in a dynamic (DHCP/PPPoE) pool /24
	Shielded     bool    // whole /24 behind a drop-everything firewall
	FirewallDrop float64 // probe-filtering probability
	RespICMP     bool    // answers ICMP echo
	RespTCP80    bool    // answers TCP/80 SYNs
	RespUnreach  bool    // elicits protocol/port unreachable
	FwRSTBlock   bool    // /24 behind a RST-answering border firewall
}

// ObservableBy is Universe.ObservableBy evaluated from the cached traits.
func (tr *AddrTraits) ObservableBy(rate, clientBias, frac float64) float64 {
	return observableWith(tr.Activity, tr.Class, tr.Dynamic, rate, clientBias, frac)
}

// RangeUsedTraits visits every address inside pfx used at time t in
// ascending order — the same addresses, in the same order, as RangeUsed
// restricted to pfx — passing its full trait set. The zero Prefix walks
// the whole space. One AddrTraits value is reused across calls; callers
// must not retain or modify it. This is the collection fast path: a suite
// of sources observing the same windows shares one trait computation per
// address, with the /24 draws made once per /24, and disjoint prefixes
// can be walked concurrently.
func (u *Universe) RangeUsedTraits(pfx ipv4.Prefix, t time.Time, fn func(a ipv4.Addr, tr *AddrTraits) bool) {
	var tr AddrTraits
	u.walk(pfx, t, func(b *block) bool {
		tr.Dynamic = b.dyn
		tr.Shielded = u.shielded24(b.ind, b.key)
		tr.FirewallDrop = u.firewallDrop24(b.p, b.key)
		tr.FwRSTBlock = u.rstBlock24(b.p, b.key)
		for j, a := range b.addr[:b.n] {
			tr.Activation = b.ta[j]
			tr.Class = u.classIn(a, b.ind)
			tr.Activity = u.activity(a, b.d24, tr.Class)
			tr.RespICMP = u.respondsICMP(a, tr.Class, tr.Shielded, tr.FirewallDrop)
			tr.RespTCP80 = u.respondsTCP(a, tr.Class, tr.Shielded, tr.FirewallDrop, 80)
			tr.RespUnreach = u.respondsUnreachable(a, tr.Shielded, tr.RespICMP)
			if !fn(a, &tr) {
				return false
			}
		}
		return true
	})
}
