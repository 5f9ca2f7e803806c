package rng

import (
	"math"
	"math/bits"
)

// RNG is a small, fast xoshiro256**-based generator seeded through
// splitmix64, following the reference constructions. It is not safe for
// concurrent use; derive per-goroutine generators with Split.
type RNG struct {
	s [4]uint64
}

// New returns a generator seeded from seed via splitmix64.
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Hash01 returns a uniform [0, 1) value that is a pure function of (key,
// x): x is spread by a multiply, xored into key, and mixed by the
// splitmix64 finaliser. Keyed draws that must agree wherever they are
// evaluated (one per address, per /24 or per source) use it instead of a
// stream.
func Hash01(key, x uint64) float64 {
	z := key ^ (x * 0xbf58476d1ce4e5b9)
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// Split returns a new independent generator derived from r's stream,
// advancing r. Use it to give each simulated source its own stream so that
// adding a source does not perturb the others.
func (r *RNG) Split() *RNG { return New(r.Uint64()) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform integer in [0, n) using Lemire's
// multiply-shift method with bias rejection.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, n)
		if lo >= n || lo >= -n%n {
			return hi
		}
	}
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Exp returns an exponential variate with rate 1.
func (r *RNG) Exp() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Poisson returns a Poisson(lambda) variate. Knuth's method for small
// lambda, PTRS-style normal approximation with rejection for large lambda.
func (r *RNG) Poisson(lambda float64) int64 {
	if lambda <= 0 {
		return 0
	}
	if lambda < 30 {
		l := math.Exp(-lambda)
		var k int64
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	// For large lambda, sum of two halves keeps Knuth usable while staying
	// exact in distribution (Poisson is infinitely divisible).
	half := lambda / 2
	return r.Poisson(half) + r.Poisson(lambda-half)
}

// Zipf samples ranks in [0, n) with probability proportional to
// 1/(rank+1)^s, by inversion on the precomputed CDF. Build one with
// NewZipf; sampling is O(log n).
type Zipf struct {
	cdf []float64
	rng *RNG
}

// NewZipf constructs a Zipf sampler over n ranks with exponent s > 0.
func NewZipf(r *RNG, n int, s float64) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf with non-positive n")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf, rng: r}
}

// Next returns the next Zipf-distributed rank.
func (z *Zipf) Next() int {
	u := z.rng.Float64()
	lo, hi := 0, len(z.cdf)
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= len(z.cdf) {
		lo = len(z.cdf) - 1
	}
	return lo
}

// Shuffle permutes the first n elements addressed by swap uniformly at
// random (Fisher–Yates).
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}
