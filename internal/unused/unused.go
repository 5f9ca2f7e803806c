package unused

import (
	"math"
	"math/bits"

	"ghosts/internal/ipset"
	"ghosts/internal/ipv4"
	"ghosts/internal/rng"
)

// Vector counts maximal vacant /i blocks; index i ∈ [0, 32] is the prefix
// length (x_i in the paper).
type Vector [33]int64

// AddressesBySize returns the addresses held in vacant blocks of each
// prefix length (Figure 12's y-axis).
func (x Vector) AddressesBySize() [33]float64 {
	var out [33]float64
	for i := 0; i <= 32; i++ {
		out[i] = float64(x[i]) * float64(uint64(1)<<(32-uint(i)))
	}
	return out
}

// Slash24s returns the number of whole /24 subnets inside vacant blocks of
// size /24 or larger.
func (x Vector) Slash24s() float64 {
	var n float64
	for i := 0; i <= 24; i++ {
		n += float64(x[i]) * float64(uint64(1)<<(24-uint(i)))
	}
	return n
}

// FreeVector decomposes the complement of used within the given space
// prefixes into maximal aligned free blocks, counting them by size. The
// decomposition walks the used addresses in ascending order and carves
// each gap into canonical CIDR blocks — O(n·32) for n used addresses, with
// no trie materialisation.
func FreeVector(used *ipset.Set, space []ipv4.Prefix) Vector {
	var x Vector
	for _, p := range space {
		lo := uint64(p.First())
		end := uint64(p.Last())
		next := lo
		used.Range(func(a ipv4.Addr) bool {
			v := uint64(a)
			if v < lo {
				return true
			}
			if v > end {
				return false
			}
			if v > next {
				carveRange(&x, next, v-1)
			}
			next = v + 1
			return true
		})
		if next <= end {
			carveRange(&x, next, end)
		}
	}
	return x
}

// carveRange decomposes the inclusive address range [lo, hi] into maximal
// aligned CIDR blocks and counts them in x.
func carveRange(x *Vector, lo, hi uint64) {
	for lo <= hi {
		// Largest power-of-two block aligned at lo…
		size := lo & (^lo + 1)
		if lo == 0 {
			size = 1 << 32
		}
		// …that also fits within the range.
		for size > hi-lo+1 {
			size >>= 1
		}
		x[32-log2(size)]++
		lo += size
		if lo == 0 {
			return // wrapped past 2^32−1
		}
	}
}

func log2(v uint64) uint { return uint(bits.TrailingZeros64(v)) }

// SolveA solves A·n = d for the paper's accounting matrix A (equation 3).
// Allocating an address into a vacant /j removes one /j and creates one
// vacant /i for every longer prefix i > j, so in ascending prefix-length
// indexing the dynamics are d_i = −n_i + Σ_{j<i} n_j (the paper writes A
// upper-triangular because its vector runs from longest to shortest
// prefix). The closed form is the forward recursion C_1 = 0,
// n_i = C_i − d_i, C_{i+1} = 2·C_i − d_i with C_i = Σ_{j<i} n_j.
func SolveA(d Vector) [33]float64 {
	var n [33]float64
	var c float64 // C_i = Σ_{j<i} n_j
	for i := 1; i <= 32; i++ {
		n[i] = c - float64(d[i])
		c = 2*c - float64(d[i])
	}
	return n
}

// Ratios are the paper's f_1..f_32, normalised so f_32 = 1.
type Ratios [33]float64

// EstimateRatios computes f from one dataset merge: base is the free
// vector of the existing union S, merged the free vector of S ∪ Δ.
// Following equation (4), f_i ∝ N_i / (x_i + Σ_{j<i} N_j).
func EstimateRatios(base, merged Vector) Ratios {
	var d Vector
	for i := range d {
		d[i] = merged[i] - base[i]
	}
	n := SolveA(d)
	var f Ratios
	var cum float64
	for i := 1; i <= 32; i++ {
		den := float64(base[i]) + cum
		if den > 0 && n[i] > 0 {
			f[i] = n[i] / den
		}
		cum += n[i]
	}
	// Normalise to f_32 = 1 when possible.
	if f[32] > 0 {
		inv := 1 / f[32]
		for i := range f {
			f[i] *= inv
		}
	}
	return f
}

// AverageRatios averages several ratio estimates elementwise, ignoring
// zero entries (the paper averages over Δ ∈ {IPING, GAME, WEB, WIKI} to
// de-noise the rare large-block fills).
func AverageRatios(rs []Ratios) Ratios {
	var out Ratios
	for i := 1; i <= 32; i++ {
		var sum float64
		var n int
		for _, r := range rs {
			if r[i] > 0 {
				sum += r[i]
				n++
			}
		}
		if n > 0 {
			out[i] = sum / float64(n)
		}
	}
	if out[32] == 0 {
		out[32] = 1
	}
	return out
}

// DistributeGhosts simulates allocating ghosts unobserved addresses over
// the vacant blocks: each address lands in a vacant /i with probability
// proportional to f_i·x_i, splitting the block per the A-matrix dynamics.
// It returns the final vacant-block vector.
func DistributeGhosts(x Vector, f Ratios, ghosts int64, seed uint64) Vector {
	r := rng.New(seed)
	cur := x
	for g := int64(0); g < ghosts; g++ {
		var total float64
		var w [33]float64
		for i := 1; i <= 32; i++ {
			if cur[i] > 0 && f[i] > 0 {
				w[i] = f[i] * float64(cur[i])
				total += w[i]
			}
		}
		if total <= 0 {
			break // no vacancy with positive fill ratio
		}
		pick := r.Float64() * total
		sel := 32
		for i := 1; i <= 32; i++ {
			if w[i] <= 0 {
				continue
			}
			pick -= w[i]
			if pick < 0 {
				sel = i
				break
			}
		}
		cur[sel]--
		for j := sel + 1; j <= 32; j++ {
			cur[j]++
		}
	}
	return cur
}

// RunoutYear projects when a supply of `available` units is exhausted
// under linear growth `perYear`, starting from `from` (fractional year).
// It returns +Inf for non-positive growth.
func RunoutYear(available, perYear, from float64) float64 {
	if perYear <= 0 {
		return math.Inf(1)
	}
	return from + available/perYear
}

// FIBPrefixes counts the routable prefixes (/24 or larger) in the vacant
// decomposition — §7.2.1's check that allocating all unused prefixes will
// not overflow router FIBs.
func (x Vector) FIBPrefixes() int64 {
	var n int64
	for i := 0; i <= 24; i++ {
		n += x[i]
	}
	return n
}
