package dhcp

import (
	"errors"
	"sort"
	"time"

	"ghosts/internal/ipset"
	"ghosts/internal/ipv4"
	"ghosts/internal/rng"
)

// Policy selects how a pool picks the address for a new lease.
type Policy int

// Allocation policies.
const (
	// LowestFree hands out the lowest currently-unleased address (the
	// classic ISC dhcpd behaviour).
	LowestFree Policy = iota
	// Uniform hands out a uniformly random free address (privacy-oriented
	// allocators; also the behaviour the paper's measurements suggest).
	Uniform
)

func (p Policy) String() string {
	if p == Uniform {
		return "uniform"
	}
	return "lowest-free"
}

// Pool is one dynamic pool over a CIDR block.
type Pool struct {
	Prefix ipv4.Prefix
	Policy Policy

	r      *rng.RNG
	leases map[ipv4.Addr]lease
	free   []ipv4.Addr // maintained sorted for LowestFree
	// everUsed accumulates every address ever leased.
	everUsed *ipset.Set
	peak     int
	now      time.Time
}

type lease struct {
	client int
	expiry time.Time
}

// NewPool builds a pool over prefix (network and broadcast addresses are
// excluded for /31 and larger host ranges, matching real deployments).
func NewPool(prefix ipv4.Prefix, policy Policy, seed uint64) *Pool {
	p := &Pool{
		Prefix:   prefix,
		Policy:   policy,
		r:        rng.New(seed),
		leases:   make(map[ipv4.Addr]lease),
		everUsed: ipset.New(),
	}
	first, last := prefix.First(), prefix.Last()
	if prefix.Bits < 31 {
		first++ // skip network address
		last--  // skip broadcast
	}
	for a := first; ; a++ {
		p.free = append(p.free, a)
		if a == last {
			break
		}
	}
	return p
}

// Capacity returns the number of leasable addresses.
func (p *Pool) Capacity() int { return len(p.free) + len(p.leases) }

// Advance moves the pool clock forward, expiring leases.
func (p *Pool) Advance(now time.Time) {
	p.now = now
	var expired []ipv4.Addr
	for a, l := range p.leases {
		if !l.expiry.After(now) {
			expired = append(expired, a)
		}
	}
	// Keep the free list sorted: collect, then merge.
	sort.Slice(expired, func(i, j int) bool { return expired[i] < expired[j] })
	for _, a := range expired {
		delete(p.leases, a)
	}
	p.free = mergeSorted(p.free, expired)
}

func mergeSorted(a, b []ipv4.Addr) []ipv4.Addr {
	if len(b) == 0 {
		return a
	}
	out := make([]ipv4.Addr, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// ErrPoolExhausted is returned by Lease when no address is free.
var ErrPoolExhausted = errors.New("dhcp: pool exhausted")

// Lease assigns an address to client until expiry.
func (p *Pool) Lease(client int, duration time.Duration) (ipv4.Addr, error) {
	if len(p.free) == 0 {
		return 0, ErrPoolExhausted
	}
	var idx int
	switch p.Policy {
	case Uniform:
		idx = p.r.Intn(len(p.free))
	default:
		idx = 0 // sorted: lowest free
	}
	a := p.free[idx]
	p.free = append(p.free[:idx], p.free[idx+1:]...)
	p.leases[a] = lease{client: client, expiry: p.now.Add(duration)}
	p.everUsed.Add(a)
	if n := len(p.leases); n > p.peak {
		p.peak = n
	}
	return a, nil
}

// Peak returns the maximum simultaneous leases seen so far (the high
// watermark the paper's Table 4 ground truth uses).
func (p *Pool) Peak() int { return p.peak }

// Churn runs a synthetic subscriber workload against the pool: clients
// subscribers, each online with the given probability per step, re-leasing
// whenever their lease lapsed; steps ticks of the given length. It returns
// the cumulative ever-used count after each step.
func (p *Pool) Churn(start time.Time, steps int, step time.Duration, clients int, pOnline float64, leaseTime time.Duration) []int {
	out := make([]int, 0, steps)
	online := make(map[int]ipv4.Addr, clients)
	for i := 0; i < steps; i++ {
		now := start.Add(time.Duration(i) * step)
		p.Advance(now)
		// Drop clients whose lease expired from the online map.
		for c, a := range online {
			if _, held := p.leases[a]; !held {
				delete(online, c)
			}
		}
		for c := 0; c < clients; c++ {
			if _, on := online[c]; on {
				continue
			}
			if !p.r.Bernoulli(pOnline) {
				continue
			}
			a, err := p.Lease(c, leaseTime)
			if err != nil {
				break // pool full this tick
			}
			online[c] = a
		}
		out = append(out, p.everUsed.Len())
	}
	return out
}
