// Package registry models the RIR allocation database the paper stratifies
// by (§3.4): every allocation carries its RIR, country, prefix size,
// industry class and allocation date. Real delegation files are not
// redistributable, so Generate synthesises an allocation table with
// realistic marginals (RIR shares, country mixes, era-dependent prefix
// sizes, the 2004–2011 allocation boom and the post-2011 slowdown seen in
// Figure 10).
//
// The main entry points are Generate (a synthetic Registry from a Config),
// Registry.Lookup (O(log n) address-to-Allocation resolution, the basis of
// every stratifier) and Registry.AllocatedAddrs (the Figure 10 allocation
// curve).
package registry
