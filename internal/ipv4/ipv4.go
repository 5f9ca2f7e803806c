package ipv4

import (
	"fmt"
	"strconv"
	"strings"
)

// Addr is an IPv4 address in host byte order.
type Addr uint32

// AddrFromOctets assembles an address from its four dotted-quad octets.
func AddrFromOctets(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// Octets returns the four dotted-quad octets of a.
func (a Addr) Octets() (o [4]byte) {
	o[0] = byte(a >> 24)
	o[1] = byte(a >> 16)
	o[2] = byte(a >> 8)
	o[3] = byte(a)
	return o
}

// String renders a in dotted-quad notation.
func (a Addr) String() string {
	o := a.Octets()
	// Hand-rolled to avoid fmt overhead on hot paths (set dumps, logs).
	var b [15]byte
	buf := strconv.AppendUint(b[:0], uint64(o[0]), 10)
	buf = append(buf, '.')
	buf = strconv.AppendUint(buf, uint64(o[1]), 10)
	buf = append(buf, '.')
	buf = strconv.AppendUint(buf, uint64(o[2]), 10)
	buf = append(buf, '.')
	buf = strconv.AppendUint(buf, uint64(o[3]), 10)
	return string(buf)
}

// Slash24 returns the address with the last octet cleared, identifying the
// /24 subnet containing a. The paper's /24 datasets are produced exactly
// this way (§4.1: "setting the last octet of each address to zero").
func (a Addr) Slash24() Addr { return a &^ 0xff }

// Slash24Index returns the dense index of a's /24 subnet in [0, 2^24).
func (a Addr) Slash24Index() uint32 { return uint32(a) >> 8 }

// LastByte returns the final octet B of the address, used by the Bayesian
// spoof filter (§4.5).
func (a Addr) LastByte() byte { return byte(a) }

// ParseAddr parses a dotted-quad IPv4 address.
func ParseAddr(s string) (Addr, error) {
	var out Addr
	rest := s
	for i := 0; i < 4; i++ {
		var part string
		if i == 3 {
			part, rest = rest, ""
		} else {
			dot := strings.IndexByte(rest, '.')
			if dot < 0 {
				return 0, fmt.Errorf("ipv4: invalid address %q", s)
			}
			part, rest = rest[:dot], rest[dot+1:]
		}
		n, err := strconv.ParseUint(part, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("ipv4: invalid address %q: %v", s, err)
		}
		out = out<<8 | Addr(n)
	}
	return out, nil
}

// MustParseAddr is ParseAddr that panics on error, for tests and tables.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// Prefix is a CIDR block: the canonical (masked) base address plus the
// prefix length in [0, 32].
type Prefix struct {
	Base Addr
	Bits int
}

// NewPrefix canonicalises base to bits and returns the prefix. It panics if
// bits is outside [0, 32]; prefix lengths are program constants or parsed
// through ParsePrefix which validates them.
func NewPrefix(base Addr, bits int) Prefix {
	if bits < 0 || bits > 32 {
		panic("ipv4: prefix bits out of range")
	}
	return Prefix{Base: base & maskFor(bits), Bits: bits}
}

func maskFor(bits int) Addr {
	if bits == 0 {
		return 0
	}
	return Addr(^uint32(0) << (32 - uint(bits)))
}

// Size returns the number of addresses covered by p.
func (p Prefix) Size() uint64 { return 1 << (32 - uint(p.Bits)) }

// First returns the first address in p.
func (p Prefix) First() Addr { return p.Base }

// Last returns the last address in p.
func (p Prefix) Last() Addr { return p.Base | ^maskFor(p.Bits) }

// Contains reports whether a lies within p.
func (p Prefix) Contains(a Addr) bool { return a&maskFor(p.Bits) == p.Base }

// ContainsPrefix reports whether q is entirely within p.
func (p Prefix) ContainsPrefix(q Prefix) bool {
	return q.Bits >= p.Bits && p.Contains(q.Base)
}

// Overlaps reports whether p and q share any address.
func (p Prefix) Overlaps(q Prefix) bool {
	return p.ContainsPrefix(q) || q.ContainsPrefix(p)
}

// Halves splits p into its two children one bit longer. It panics on a /32.
func (p Prefix) Halves() (Prefix, Prefix) {
	if p.Bits >= 32 {
		panic("ipv4: cannot split a /32")
	}
	b := p.Bits + 1
	return Prefix{p.Base, b}, Prefix{p.Base | (1 << (32 - uint(b))), b}
}

// Slash24Count returns the number of /24 subnets covered by p; prefixes
// longer than /24 count as a fraction of zero /24s and return 0.
func (p Prefix) Slash24Count() uint32 {
	if p.Bits > 24 {
		return 0
	}
	return 1 << (24 - uint(p.Bits))
}

// String renders p in CIDR notation.
func (p Prefix) String() string {
	return p.Base.String() + "/" + strconv.Itoa(p.Bits)
}

// ParsePrefix parses CIDR notation ("a.b.c.d/len") and canonicalises the
// base address.
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("ipv4: missing '/' in prefix %q", s)
	}
	a, err := ParseAddr(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	bits, err := strconv.Atoi(s[slash+1:])
	if err != nil || bits < 0 || bits > 32 {
		return Prefix{}, fmt.Errorf("ipv4: invalid prefix length in %q", s)
	}
	return NewPrefix(a, bits), nil
}

// MustParsePrefix is ParsePrefix that panics on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// Reserved prefixes excluded from the usable space before computing
// remaining unused prefixes (§7.1: private, multicast, experimental and
// reserved space such as 224.0.0.0/3 or 10.0.0.0/8).
var Reserved = []Prefix{
	{Base: AddrFromOctets(0, 0, 0, 0), Bits: 8},      // "this network"
	{Base: AddrFromOctets(10, 0, 0, 0), Bits: 8},     // RFC 1918
	{Base: AddrFromOctets(100, 64, 0, 0), Bits: 10},  // CGN shared space
	{Base: AddrFromOctets(127, 0, 0, 0), Bits: 8},    // loopback
	{Base: AddrFromOctets(169, 254, 0, 0), Bits: 16}, // link local
	{Base: AddrFromOctets(172, 16, 0, 0), Bits: 12},  // RFC 1918
	{Base: AddrFromOctets(192, 0, 2, 0), Bits: 24},   // TEST-NET-1
	{Base: AddrFromOctets(192, 168, 0, 0), Bits: 16}, // RFC 1918
	{Base: AddrFromOctets(198, 18, 0, 0), Bits: 15},  // benchmarking
	{Base: AddrFromOctets(224, 0, 0, 0), Bits: 3},    // multicast + reserved + broadcast
}

// IsReserved reports whether a falls in any reserved prefix.
func IsReserved(a Addr) bool {
	for _, p := range Reserved {
		if p.Contains(a) {
			return true
		}
	}
	return false
}

// ReverseBits returns the bit-reversal of a 32-bit value. The census prober
// traverses the address space in reversed-bit-counting order (§4.1) so that
// consecutive probes land in distant /24s, keeping the per-subnet probe
// rate low.
func ReverseBits(v uint32) uint32 {
	v = v>>16 | v<<16
	v = (v&0xff00ff00)>>8 | (v&0x00ff00ff)<<8
	v = (v&0xf0f0f0f0)>>4 | (v&0x0f0f0f0f)<<4
	v = (v&0xcccccccc)>>2 | (v&0x33333333)<<2
	v = (v&0xaaaaaaaa)>>1 | (v&0x55555555)<<1
	return v
}
