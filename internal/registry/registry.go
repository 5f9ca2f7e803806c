package registry

import (
	"sort"
	"time"

	"ghosts/internal/ipv4"
	"ghosts/internal/rng"
)

// RIR identifies a Regional Internet Registry.
type RIR int

// The five RIRs.
const (
	AfriNIC RIR = iota
	APNIC
	ARIN
	LACNIC
	RIPE
	numRIRs
)

var rirNames = [...]string{"AfriNIC", "APNIC", "ARIN", "LACNIC", "RIPE"}

func (r RIR) String() string {
	if r < 0 || int(r) >= len(rirNames) {
		return "unknown"
	}
	return rirNames[r]
}

// RIRs lists all five registries in display order.
func RIRs() []RIR { return []RIR{AfriNIC, APNIC, ARIN, LACNIC, RIPE} }

// Industry is the whois-derived industry class (§3.4 footnote: education,
// military, government, corporate, or ISP).
type Industry int

// Industry classes.
const (
	Education Industry = iota
	Military
	Government
	Corporate
	ISP
	numIndustries
)

var industryNames = [...]string{"Education", "Military", "Government", "Corporate", "ISP"}

func (i Industry) String() string {
	if i < 0 || int(i) >= len(industryNames) {
		return "unknown"
	}
	return industryNames[i]
}

// Industries lists all industry classes.
func Industries() []Industry {
	return []Industry{Education, Military, Government, Corporate, ISP}
}

// Allocation is one allocated prefix with its registry metadata.
type Allocation struct {
	Prefix   ipv4.Prefix
	RIR      RIR
	Country  string
	Industry Industry
	Date     time.Time
}

// Registry is an ordered, non-overlapping allocation table with O(log n)
// address lookup.
type Registry struct {
	Allocs []Allocation // sorted by Prefix.Base, pairwise disjoint
}

// Lookup returns the allocation containing a, or nil.
func (g *Registry) Lookup(a ipv4.Addr) *Allocation {
	if i := g.LookupIndex(a); i >= 0 {
		return &g.Allocs[i]
	}
	return nil
}

// LookupIndex returns the index of the allocation containing a, or −1.
func (g *Registry) LookupIndex(a ipv4.Addr) int {
	i := sort.Search(len(g.Allocs), func(i int) bool {
		return g.Allocs[i].Prefix.Base > a
	})
	if i == 0 {
		return -1
	}
	if g.Allocs[i-1].Prefix.Contains(a) {
		return i - 1
	}
	return -1
}

// AllocatedAddrs returns the total number of allocated addresses as of
// date t (counting only allocations dated at or before t).
func (g *Registry) AllocatedAddrs(t time.Time) uint64 {
	var n uint64
	for i := range g.Allocs {
		if !g.Allocs[i].Date.After(t) {
			n += g.Allocs[i].Prefix.Size()
		}
	}
	return n
}

// countryInfo ties a country code to its RIR and relative weight within the
// RIR (loosely reflecting real allocation shares).
type countryInfo struct {
	code   string
	rir    RIR
	weight float64
}

var countries = []countryInfo{
	// ARIN
	{"US", ARIN, 70}, {"CA", ARIN, 10},
	// APNIC
	{"CN", APNIC, 30}, {"JP", APNIC, 15}, {"KR", APNIC, 10}, {"IN", APNIC, 7},
	{"AU", APNIC, 7}, {"TW", APNIC, 5}, {"ID", APNIC, 4}, {"VN", APNIC, 4},
	{"TH", APNIC, 3}, {"MY", APNIC, 3}, {"HK", APNIC, 3},
	// RIPE
	{"DE", RIPE, 12}, {"GB", RIPE, 11}, {"FR", RIPE, 9}, {"IT", RIPE, 7},
	{"NL", RIPE, 6}, {"RU", RIPE, 6}, {"ES", RIPE, 5}, {"SE", RIPE, 4},
	{"PL", RIPE, 4}, {"RO", RIPE, 3}, {"TR", RIPE, 3}, {"UA", RIPE, 3},
	{"CH", RIPE, 3}, {"CZ", RIPE, 2}, {"GR", RIPE, 2}, {"PT", RIPE, 2},
	{"BE", RIPE, 2}, {"AT", RIPE, 2}, {"DK", RIPE, 2}, {"NO", RIPE, 2},
	{"FI", RIPE, 2}, {"HU", RIPE, 2}, {"IL", RIPE, 2},
	// LACNIC
	{"BR", LACNIC, 45}, {"MX", LACNIC, 18}, {"AR", LACNIC, 15},
	{"CL", LACNIC, 12}, {"CO", LACNIC, 10},
	// AfriNIC
	{"ZA", AfriNIC, 45}, {"EG", AfriNIC, 20}, {"NG", AfriNIC, 15},
	{"KE", AfriNIC, 10}, {"MA", AfriNIC, 10},
}

// rirShare is each RIR's share of the generated space, roughly matching
// the relative sizes of real allocations (ARIN largest, then RIPE, APNIC).
var rirShare = map[RIR]float64{
	ARIN:    0.36,
	RIPE:    0.28,
	APNIC:   0.26,
	LACNIC:  0.06,
	AfriNIC: 0.04,
}

var industryShare = map[Industry]float64{
	ISP:        0.55,
	Corporate:  0.25,
	Education:  0.10,
	Government: 0.06,
	Military:   0.04,
}

// Config controls allocation synthesis.
type Config struct {
	// Slash8s lists the first octets to populate with allocations. Scale
	// is set by how many /8s are used and Fill.
	Slash8s []byte
	// Fill is the fraction of each /8 that is allocated (0..1].
	Fill float64
	// Seed drives the deterministic generator.
	Seed uint64
}

// DefaultSlash8s returns n distinct first octets avoiding reserved ranges.
func DefaultSlash8s(n int) []byte {
	var out []byte
	for o := 1; o < 224 && len(out) < n; o++ {
		a := ipv4.AddrFromOctets(byte(o), 0, 0, 0)
		if ipv4.IsReserved(a) {
			continue
		}
		out = append(out, byte(o))
	}
	return out
}

// allocation-date eras: (start year, end year, weight). The 2004–2011 boom
// and post-2011 slowdown match Figure 10's two phases.
var eras = []struct {
	from, to int
	weight   float64
}{
	{1983, 1995, 0.18},
	{1996, 2003, 0.34},
	{2004, 2011, 0.38},
	{2012, 2014, 0.10},
}

// prefix-size mix per era: older allocations are big (/8–/16), recent ones
// small (/20–/24, with /22 the APNIC/RIPE final-allocation unit, §6.5).
func eraPrefixBits(r *rng.RNG, year int) int {
	u := r.Float64()
	switch {
	case year <= 1995:
		switch {
		case u < 0.05:
			return 8
		case u < 0.10:
			return 9
		case u < 0.25:
			return 12
		case u < 0.60:
			return 16
		default:
			return 18
		}
	case year <= 2003:
		switch {
		case u < 0.10:
			return 12
		case u < 0.30:
			return 14
		case u < 0.65:
			return 16
		case u < 0.85:
			return 18
		default:
			return 20
		}
	case year <= 2011:
		switch {
		case u < 0.08:
			return 13
		case u < 0.25:
			return 15
		case u < 0.50:
			return 17
		case u < 0.75:
			return 19
		case u < 0.92:
			return 21
		default:
			return 23
		}
	default:
		switch {
		case u < 0.15:
			return 20
		case u < 0.40:
			return 21
		case u < 0.85:
			return 22
		default:
			return 24
		}
	}
}

// Generate synthesises a registry under cfg. Allocation is hierarchical:
// each /8 is assigned to one RIR, then carved left-to-right into
// era-appropriate prefixes until Fill is reached.
func Generate(cfg Config) *Registry {
	if cfg.Fill <= 0 || cfg.Fill > 1 {
		cfg.Fill = 0.9
	}
	r := rng.New(cfg.Seed)
	g := &Registry{}
	for _, oct := range cfg.Slash8s {
		// RIRs hold /10-granular chunks so that even single-/8 universes
		// mix regions (the real Internet interleaves RIR blocks at /8
		// scale, but a downscaled universe must interleave finer to keep
		// per-RIR statistics meaningful).
		var chunkRIR [4]RIR
		for i := range chunkRIR {
			chunkRIR[i] = pickRIR(r)
		}
		base := ipv4.AddrFromOctets(oct, 0, 0, 0)
		budget := uint64(float64(uint64(1)<<24) * cfg.Fill)
		var used uint64
		cursor := uint64(0)
		for used < budget && cursor < 1<<24 {
			year := pickYear(r)
			bits := eraPrefixBits(r, year)
			// RIR chunks are /10-granular, so no allocation exceeds a /10;
			// and no single block may eat more than 1/16 of the fill
			// budget, so even small universes get a varied allocation mix
			// rather than one giant block.
			if bits < 10 {
				bits = 10
			}
			for bits < 24 && uint64(1)<<(32-uint(bits)) > budget/16 {
				bits++
			}
			size := uint64(1) << (32 - uint(bits))
			// Align cursor to the block size.
			if rem := cursor % size; rem != 0 {
				cursor += size - rem
			}
			// Shrink further if the aligned block overruns the /8.
			for cursor+size > 1<<24 && bits < 24 {
				bits++
				size >>= 1
			}
			if cursor+size > 1<<24 {
				break
			}
			rir := chunkRIR[cursor>>22]
			a := Allocation{
				Prefix:   ipv4.NewPrefix(base+ipv4.Addr(cursor), bits),
				RIR:      rir,
				Country:  pickCountry(r, rir),
				Industry: pickIndustry(r),
				Date:     midYearDate(r, year),
			}
			g.Allocs = append(g.Allocs, a)
			cursor += size
			used += size
		}
	}
	sort.Slice(g.Allocs, func(i, j int) bool {
		return g.Allocs[i].Prefix.Base < g.Allocs[j].Prefix.Base
	})
	return g
}

func pickRIR(r *rng.RNG) RIR {
	u := r.Float64()
	acc := 0.0
	for _, rr := range RIRs() {
		acc += rirShare[rr]
		if u < acc {
			return rr
		}
	}
	return RIPE
}

func pickIndustry(r *rng.RNG) Industry {
	u := r.Float64()
	acc := 0.0
	for _, ind := range Industries() {
		acc += industryShare[ind]
		if u < acc {
			return ind
		}
	}
	return ISP
}

func pickCountry(r *rng.RNG, rir RIR) string {
	total := 0.0
	for _, c := range countries {
		if c.rir == rir {
			total += c.weight
		}
	}
	u := r.Float64() * total
	for _, c := range countries {
		if c.rir != rir {
			continue
		}
		u -= c.weight
		if u < 0 {
			return c.code
		}
	}
	return "US"
}

func pickYear(r *rng.RNG) int {
	u := r.Float64()
	acc := 0.0
	for _, e := range eras {
		acc += e.weight
		if u < acc {
			return e.from + r.Intn(e.to-e.from+1)
		}
	}
	return 2013
}

func midYearDate(r *rng.RNG, year int) time.Time {
	day := r.Intn(364)
	return time.Date(year, 1, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, day)
}
