// Package rng provides a deterministic, seedable random number generator
// and the sampling distributions the simulators need (Bernoulli, normal,
// exponential, Poisson, Zipf). Every simulation component takes an
// explicit *RNG so experiment runs are exactly reproducible from a seed.
//
// The main entry points are New (an xoshiro256** generator seeded through
// splitmix64), the sampler methods on RNG, and RNG.Split, which derives an
// independent per-goroutine or per-replicate stream — the bootstrap's
// determinism under any worker count rests on splitting streams up front.
package rng
