// Package universe synthesises the ground-truth "Internet" that the
// measurement sources sample and the capture-recapture estimator tries to
// recover.
//
// The paper's real inputs (the IPv4 Internet and nine proprietary logs) are
// unavailable, so — per the reproduction's substitution policy — this
// package generates a population of used IPv4 addresses with the properties
// that make the estimation problem hard and interesting:
//
//   - heterogeneous device classes (routers, servers, clients, NAT
//     gateways, specialised devices) with very different visibility to
//     active and passive measurement (§4.2);
//   - per-allocation utilisation profiles driven by registry metadata
//     (RIR, country, industry, allocation age), so stratified growth
//     matches the shapes of Figures 6–9;
//   - growth over time through per-address activation dates, giving the
//     roughly linear growth of Figures 4–5;
//   - dynamic (DHCP-like) address pools whose addresses are all touched
//     over a 12-month window (§4.6);
//   - a non-uniform final-byte distribution, which the spoof filter's
//     Bayesian stage exploits (§4.5);
//   - a handful of allocated, routed, but empty /8s, needed to estimate
//     the spoofed-traffic rate (§4.5).
//
// Everything is functional: whether an address is used at time t is a pure
// function of (seed, address, t), so membership is O(1), enumeration never
// materialises more state than the resulting sets, and all components see
// exactly the same ground truth. Each per-/24 and per-address draw is a
// keyed hash (rng.Hash01) declared in one function; the point accessors
// and the bulk enumerators (RangeUsed, UsedInPrefix, RangeUsedTraits)
// call those functions, and the enumerators share one allocation → /24 →
// address walk, so the two paths agree bit for bit. UsedInPrefix and
// RangeUsedTraits take the prefix to walk, so a caller can walk disjoint
// prefixes (allocations, say) concurrently.
//
// The main entry points are New over a Config (TinyConfig, SmallConfig and
// MediumConfig are the standard scales), the membership and metadata
// queries on Universe (usage at a time, device Class, activation year,
// empty blocks, routed allocations), and YearOf, the fractional-year
// helper the growth fits share.
package universe
