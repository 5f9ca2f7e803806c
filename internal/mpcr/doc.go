// Package mpcr implements secure multi-party capture-recapture: building
// the capture-history contingency table across several measurement
// operators without any operator revealing which IPv4 addresses it
// observed. This is the paper's stated future work (§8, citing the
// authors' INFOCOM poster "Estimating the used IPv4 address space with
// secure multi-party capture-recapture").
//
// The main entry points are NewParty (one operator with its secret
// exponent and observation set), ComputeTable — which circulates the
// encrypted batches and tallies them into a core.Table, which any
// core.Estimator then runs on; Tally is the combiner step alone.
//
// # Protocol
//
// The construction is the classic commutative-encryption private-set
// protocol (Pohlig–Hellman exponentiation over a safe-prime group):
//
//  1. Every party i holds a secret exponent k_i and its observation set
//     S_i. Addresses are deterministically hashed into the prime-order
//     subgroup of quadratic residues mod p: H(a) = (h(a) mod p)².
//  2. Encryption is E_i(x) = x^{k_i} mod p, which commutes:
//     E_i(E_j(x)) = E_j(E_i(x)) = x^{k_i·k_j}.
//  3. Each party encrypts its own hashed set and shuffles it, then the
//     batches circulate: every other party applies its own exponent (and
//     shuffles) in turn. After all t parties have touched a batch, equal
//     addresses — regardless of who contributed them — map to equal group
//     elements x^{k_1···k_t}.
//  4. A combiner (any party, or a third party) matches the fully
//     encrypted batches and tallies the number of elements per source
//     subset: exactly the z_s counts the log-linear model needs. Only the
//     *counts* ever become public; the matching tokens are pseudorandom
//     group elements.
//
// # Threat model
//
// Semi-honest (honest-but-curious) parties, as in the standard DDH-based
// PSI-cardinality literature: parties follow the protocol but may inspect
// what they receive. Shuffling between hops breaks positional linkage; the
// final tokens reveal nothing but equality. Two inherent caveats, shared
// by every deterministic-encryption PSI design: (a) any coalition holding
// *all* keys can dictionary-attack the small IPv4 domain, and (b) a party
// can test membership of a chosen address by injecting it into its own
// set. Operators must therefore be distinct non-colluding entities — the
// setting of the paper, where the sources are run by different
// organisations that cannot share raw logs for privacy reasons.
package mpcr
