package dhcp

import (
	"testing"
	"time"

	"ghosts/internal/ipv4"
)

func t0() time.Time { return time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC) }

func TestPoolBasics(t *testing.T) {
	p := NewPool(ipv4.MustParsePrefix("10.0.0.0/24"), LowestFree, 1)
	if p.Capacity() != 254 {
		t.Fatalf("capacity = %d, want 254 (network+broadcast excluded)", p.Capacity())
	}
	p.Advance(t0())
	a, err := p.Lease(1, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if a != ipv4.MustParseAddr("10.0.0.1") {
		t.Fatalf("lowest-free first lease = %v, want 10.0.0.1", a)
	}
	b, _ := p.Lease(2, time.Hour)
	if b != ipv4.MustParseAddr("10.0.0.2") {
		t.Fatalf("second lease = %v, want 10.0.0.2", b)
	}
	if len(p.leases) != 2 || p.Peak() != 2 {
		t.Fatalf("active=%d peak=%d", len(p.leases), p.Peak())
	}
}

func TestLeaseExpiry(t *testing.T) {
	p := NewPool(ipv4.MustParsePrefix("10.0.0.0/28"), LowestFree, 1)
	p.Advance(t0())
	a, _ := p.Lease(1, time.Hour)
	p.Advance(t0().Add(2 * time.Hour))
	if len(p.leases) != 0 {
		t.Fatal("lease should have expired")
	}
	// The expired address returns to the head of the free list.
	b, _ := p.Lease(2, time.Hour)
	if b != a {
		t.Fatalf("re-lease = %v, want %v", b, a)
	}
}

func TestPoolExhaustion(t *testing.T) {
	p := NewPool(ipv4.MustParsePrefix("10.0.0.0/30"), Uniform, 1)
	p.Advance(t0())
	for i := 0; i < 2; i++ { // /30 has 2 hosts
		if _, err := p.Lease(i, time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Lease(9, time.Hour); err != ErrPoolExhausted {
		t.Fatalf("want ErrPoolExhausted, got %v", err)
	}
}

// The §4.6 contrast: under lowest-free, a long observation accumulates
// only the peak simultaneous usage; under uniform it accumulates the
// whole pool even though simultaneous usage is identical.
func TestPolicyDeterminesLongTermObservation(t *testing.T) {
	const clients = 40 // ≈16% of a /24 pool online at a time
	run := func(policy Policy) *Pool {
		p := NewPool(ipv4.MustParsePrefix("10.0.0.0/24"), policy, 7)
		p.Churn(t0(), 2000, time.Hour, clients, 0.5, 3*time.Hour)
		return p
	}
	low := run(LowestFree)
	uni := run(Uniform)

	if low.Peak() > clients || uni.Peak() > clients {
		t.Fatalf("peaks %d/%d cannot exceed client count %d", low.Peak(), uni.Peak(), clients)
	}
	lowEver := low.everUsed.Len()
	uniEver := uni.everUsed.Len()
	// Lowest-free: ever-used ≈ peak.
	if lowEver > low.Peak()+5 {
		t.Errorf("lowest-free ever-used %d should approximate peak %d", lowEver, low.Peak())
	}
	// Uniform: ever-used ≈ whole pool.
	if uniEver < 240 {
		t.Errorf("uniform ever-used %d should approach pool size 254", uniEver)
	}
	if uniEver <= 2*lowEver {
		t.Errorf("uniform (%d) must dwarf lowest-free (%d) over a long window", uniEver, lowEver)
	}
}

func TestChurnMonotone(t *testing.T) {
	p := NewPool(ipv4.MustParsePrefix("10.0.0.0/25"), Uniform, 3)
	series := p.Churn(t0(), 200, time.Hour, 20, 0.4, 2*time.Hour)
	if len(series) != 200 {
		t.Fatalf("series length %d", len(series))
	}
	for i := 1; i < len(series); i++ {
		if series[i] < series[i-1] {
			t.Fatal("ever-used series must be monotone")
		}
	}
	if series[len(series)-1] == 0 {
		t.Fatal("no leases ever issued")
	}
}

func TestSlash31PoolUsesAllAddresses(t *testing.T) {
	p := NewPool(ipv4.MustParsePrefix("10.0.0.0/31"), LowestFree, 1)
	if p.Capacity() != 2 {
		t.Fatalf("/31 capacity = %d, want 2 (RFC 3021 semantics)", p.Capacity())
	}
}

func TestPolicyString(t *testing.T) {
	if LowestFree.String() != "lowest-free" || Uniform.String() != "uniform" {
		t.Fatal("Policy stringer broken")
	}
}

func BenchmarkChurnUniform(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := NewPool(ipv4.MustParsePrefix("10.0.0.0/24"), Uniform, uint64(i))
		p.Churn(t0(), 500, time.Hour, 50, 0.5, 3*time.Hour)
	}
}
