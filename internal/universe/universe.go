package universe

import (
	"time"

	"ghosts/internal/ipv4"
	"ghosts/internal/registry"
)

// DeviceClass groups hosts by their measurement visibility (§4.2).
type DeviceClass int

// Device classes.
const (
	Router DeviceClass = iota
	Server
	Client
	NATGateway
	Specialised
	numClasses
)

var classNames = [...]string{"Router", "Server", "Client", "NATGateway", "Specialised"}

func (c DeviceClass) String() string {
	if c < 0 || int(c) >= len(classNames) {
		return "unknown"
	}
	return classNames[c]
}

// Config controls universe synthesis.
type Config struct {
	Seed uint64
	// Slash8s is the number of populated /8 blocks; this is the scale
	// knob (the real routed Internet is ≈163 /8s).
	Slash8s int
	// EmptyBlocks is the number of additional /12 blocks that are
	// allocated and routed but essentially unused — the scaled-down
	// analogue of the paper's 53/8-like empty /8s, used to estimate the
	// spoofed-traffic rate (§4.5).
	EmptyBlocks int
	// Fill is the allocated fraction of each populated /8.
	Fill float64
}

// EmptyBlockBits is the prefix length of the 'empty /8' analogues; /12
// keeps them a small share of the routed space at reduced scale, as the
// six empty /8s are of the real routed Internet.
const EmptyBlockBits = 12

// TinyConfig is the unit-test scale: one /8 plus two empty /12s.
func TinyConfig(seed uint64) Config {
	return Config{Seed: seed, Slash8s: 1, EmptyBlocks: 2, Fill: 0.25}
}

// SmallConfig is the experiment/bench scale: two populated /8s (≈1/80 of
// the real routed space) plus two empty /12s.
func SmallConfig(seed uint64) Config {
	return Config{Seed: seed, Slash8s: 2, EmptyBlocks: 2, Fill: 0.9}
}

// MediumConfig is for longer CLI runs.
func MediumConfig(seed uint64) Config {
	return Config{Seed: seed, Slash8s: 6, EmptyBlocks: 3, Fill: 0.9}
}

// profile is the per-allocation usage model.
type profile struct {
	util24    float64 // eventual fraction of /24s used
	density   float64 // eventual address fill within a used /24
	rampStart float64 // fractional year when usage starts growing
	rampEnd   float64 // fractional year when usage saturates
	dynFrac   float64 // fraction of /24s operated as dynamic pools
	fwDrop    float64 // probability a probe is filtered (firewall)
	routed    bool
	routedAt  float64 // fractional year the prefix appeared in BGP
	empty     bool    // one of the 'empty /8' blocks
}

// Universe couples a synthetic registry with usage profiles.
type Universe struct {
	Reg      *registry.Registry
	cfg      Config
	seed     uint64
	profiles []profile
	// emptyBases are the first octets of the empty /8s.
	emptyBases []byte
}

// New builds the universe for cfg.
func New(cfg Config) *Universe {
	if cfg.Slash8s < 1 {
		cfg.Slash8s = 1
	}
	oct := registry.DefaultSlash8s(cfg.Slash8s + cfg.EmptyBlocks)
	popOct := oct[:cfg.Slash8s]
	emptyOct := oct[cfg.Slash8s:]
	reg := registry.Generate(registry.Config{Slash8s: popOct, Fill: cfg.Fill, Seed: cfg.Seed})
	// Empty blocks: old military allocations that are routed but unused.
	for _, o := range emptyOct {
		reg.Allocs = append(reg.Allocs, registry.Allocation{
			Prefix:   ipv4.NewPrefix(ipv4.AddrFromOctets(o, 0, 0, 0), EmptyBlockBits),
			RIR:      registry.ARIN,
			Country:  "US",
			Industry: registry.Military,
			Date:     time.Date(1985, 6, 1, 0, 0, 0, 0, time.UTC),
		})
	}
	sortAllocs(reg)
	u := &Universe{Reg: reg, cfg: cfg, seed: cfg.Seed, emptyBases: emptyOct}
	u.profiles = make([]profile, len(reg.Allocs))
	for i := range reg.Allocs {
		u.profiles[i] = u.makeProfile(i, &reg.Allocs[i])
	}
	return u
}

func sortAllocs(reg *registry.Registry) {
	a := reg.Allocs
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j].Prefix.Base < a[j-1].Prefix.Base; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// YearOf converts a time to fractional years (the internal clock).
func YearOf(t time.Time) float64 {
	y := t.Year()
	start := time.Date(y, 1, 1, 0, 0, 0, 0, time.UTC)
	end := time.Date(y+1, 1, 1, 0, 0, 0, 0, time.UTC)
	return float64(y) + t.Sub(start).Seconds()/end.Sub(start).Seconds()
}

// rirRamp gives each registry's maturity curve: mature regions started
// early and grow slowly; AfriNIC/LACNIC/APNIC ramp late and fast, giving
// the relative-growth ordering of Figure 6.
var rirRamp = map[registry.RIR]struct{ start, dur float64 }{
	registry.ARIN:    {1994, 17},
	registry.RIPE:    {1996, 16},
	registry.APNIC:   {2002, 12},
	registry.LACNIC:  {2007, 9},
	registry.AfriNIC: {2010, 6},
}

// fastCountries grow markedly faster than their RIR baseline (Figure 9:
// Romania plus several Asian and South American countries).
var fastCountries = map[string]float64{
	"RO": 0.55, "BR": 0.6, "CO": 0.5, "ID": 0.6, "IN": 0.6,
	"VN": 0.55, "AR": 0.65, "TH": 0.65, "TW": 0.7, "CN": 0.7, "CL": 0.7,
}

var industryUtil = map[registry.Industry]struct{ util, density, dyn, fw float64 }{
	registry.ISP:        {0.85, 1.10, 0.70, 0.25},
	registry.Corporate:  {0.60, 0.70, 0.15, 0.55},
	registry.Education:  {0.70, 0.80, 0.10, 0.35},
	registry.Government: {0.50, 0.65, 0.10, 0.65},
	registry.Military:   {0.20, 0.40, 0.05, 0.90},
}

func (u *Universe) makeProfile(idx int, al *registry.Allocation) profile {
	if al.Industry == registry.Military && al.Prefix.Bits == EmptyBlockBits && u.isEmptyBase(al.Prefix.Base) {
		return profile{
			util24: 0, density: 0, rampStart: 2000, rampEnd: 2001,
			routed: true, routedAt: 2008, empty: true, fwDrop: 1,
		}
	}
	base := industryUtil[al.Industry]
	rr := rirRamp[al.RIR]
	start := rr.start
	dur := rr.dur
	if f, ok := fastCountries[al.Country]; ok {
		dur *= f
		start += rr.dur * 0.18 // late starters catching up fast
	}
	// Per-allocation jitter so strata are not deterministic copies.
	j1 := u.hash01(hAllocJitter, uint64(idx))
	j2 := u.hash01(hAllocJitter2, uint64(idx))
	util := clamp01(base.util * (0.6 + 0.8*j1))
	density := clamp01(base.density * (0.6 + 0.8*j2))
	allocYear := YearOf(al.Date)
	if allocYear > start {
		start = allocYear
	}
	end := start + dur*(0.7+0.6*u.hash01(hAllocJitter3, uint64(idx)))
	// Routedness: 80% of allocations are routed; military less often.
	pRouted := 0.85
	if al.Industry == registry.Military {
		pRouted = 0.45
	}
	routed := u.hash01(hAllocRouted, uint64(idx)) < pRouted
	routedAt := start - 0.5 + u.hash01(hAllocRoutedAt, uint64(idx))
	if routedAt < allocYear {
		routedAt = allocYear
	}
	return profile{
		util24:    util,
		density:   density,
		rampStart: start,
		rampEnd:   end,
		dynFrac:   base.dyn,
		fwDrop:    base.fw,
		routed:    routed,
		routedAt:  routedAt,
	}
}

func (u *Universe) isEmptyBase(a ipv4.Addr) bool {
	for _, o := range u.emptyBases {
		if a.Octets()[0] == o {
			return true
		}
	}
	return false
}

// Space returns the /8 blocks this universe manages (populated /8s plus
// the /8s hosting the empty blocks). The unused-space model (§7) computes
// free-block decompositions within this space; like the paper, it does not
// exclude unrouted or unallocated space, only reserved space (which the
// universe never touches).
func (u *Universe) Space() []ipv4.Prefix {
	seen := map[byte]bool{}
	var out []ipv4.Prefix
	add := func(o byte) {
		if !seen[o] {
			seen[o] = true
			out = append(out, ipv4.NewPrefix(ipv4.AddrFromOctets(o, 0, 0, 0), 8))
		}
	}
	for i := range u.Reg.Allocs {
		add(u.Reg.Allocs[i].Prefix.First().Octets()[0])
	}
	for _, o := range u.emptyBases {
		add(o)
	}
	return out
}

// EmptyBlocks returns the prefixes of the allocated, routed, but unused
// blocks (the scaled analogue of the paper's empty /8s).
func (u *Universe) EmptyBlocks() []ipv4.Prefix {
	out := make([]ipv4.Prefix, 0, len(u.emptyBases))
	for _, o := range u.emptyBases {
		out = append(out, ipv4.NewPrefix(ipv4.AddrFromOctets(o, 0, 0, 0), EmptyBlockBits))
	}
	return out
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// hash tags: distinct streams of the keyed hash.
const (
	hAllocJitter uint64 = iota + 1
	hAllocJitter2
	hAllocJitter3
	hAllocRouted
	hAllocRoutedAt
	h24Activate
	h24Density
	h24Dynamic
	hAddrActivate
	hAddrClass
	hAddrActivity
	hAddrSim
)

// hash01 returns a uniform [0,1) value keyed by (seed, tag, key),
// via splitmix64.
func (u *Universe) hash01(tag, key uint64) float64 {
	z := u.seed ^ (tag * 0x9e3779b97f4a7c15) ^ (key * 0xbf58476d1ce4e5b9)
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// lastByteWeight models the non-uniform distribution of the final octet of
// used addresses: low bytes (gateways, servers at .1–.20) and a few
// conventional values are much more common. Normalised to mean 1.
var lastByteWeight [256]float64

func init() {
	sum := 0.0
	for b := 0; b < 256; b++ {
		w := 1.0
		switch {
		case b == 0 || b == 255:
			w = 0.05 // network/broadcast rarely used as hosts
		case b == 1:
			w = 4.0
		case b <= 20:
			w = 2.0
		case b <= 100:
			w = 1.2
		case b >= 250:
			w = 1.5 // .254 gateways
		default:
			w = 0.8
		}
		lastByteWeight[b] = w
		sum += w
	}
	for b := range lastByteWeight {
		lastByteWeight[b] *= 256 / sum
	}
}
