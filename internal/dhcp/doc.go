// Package dhcp simulates dynamic address pools at the lease level,
// implementing the §4.6 discussion directly: how the *allocation policy*
// of a pool determines what long passive measurements see.
//
//   - With a lowest-free policy, the set of addresses ever handed out
//     equals the pool's peak simultaneous utilisation: long observation
//     windows measure the high watermark.
//   - With a uniform (random) policy, every pool address is eventually
//     handed out even if only a handful of subscribers are online at any
//     instant: long windows observe the whole pool.
//
// The paper argues the over-count is not an error — addresses held by a
// pool cannot be used elsewhere, so they are de facto in use — but the
// distinction matters when interpreting CR estimates, and this simulator
// makes it measurable.
//
// The main entry point is NewPool, which builds a Pool over a CIDR block
// under the chosen Policy; churn is driven through Lease/Advance (or the
// Churn convenience sweep, whose cumulative ever-used counts are set
// against Peak) — the comparison behind the `ghosts -exp pools` ablation.
package dhcp
