package unused

import (
	"math"
	"testing"
	"testing/quick"

	"ghosts/internal/ipset"
	"ghosts/internal/ipv4"
	"ghosts/internal/stats"
)

func TestFreeVectorEmptySpace(t *testing.T) {
	x := FreeVector(ipset.New(), []ipv4.Prefix{ipv4.MustParsePrefix("10.0.0.0/8")})
	if x[8] != 1 {
		t.Fatalf("x[8] = %d, want 1", x[8])
	}
	for i := 0; i <= 32; i++ {
		if i != 8 && x[i] != 0 {
			t.Fatalf("x[%d] = %d, want 0", i, x[i])
		}
	}
}

func TestFreeVectorSingleAddress(t *testing.T) {
	used := ipset.New()
	used.Add(ipv4.MustParseAddr("10.0.0.0"))
	x := FreeVector(used, []ipv4.Prefix{ipv4.MustParsePrefix("10.0.0.0/8")})
	// One used /32 at the base splits the /8 into one free block of each
	// size /9../32 (§7.1's A-matrix intuition).
	for i := 9; i <= 32; i++ {
		if x[i] != 1 {
			t.Fatalf("x[%d] = %d, want 1", i, x[i])
		}
	}
	if x.Addresses() != float64(1<<24-1) {
		t.Fatalf("free addresses = %v, want 2^24−1", x.Addresses())
	}
}

func TestFreeVectorMiddleAddress(t *testing.T) {
	used := ipset.New()
	used.Add(ipv4.MustParseAddr("10.128.0.0")) // start of the upper /9
	x := FreeVector(used, []ipv4.Prefix{ipv4.MustParsePrefix("10.0.0.0/8")})
	if x[9] != 1 { // lower /9 fully free
		t.Fatalf("x[9] = %d, want 1", x[9])
	}
	var total float64
	for i := 0; i <= 32; i++ {
		total += float64(x[i]) * float64(uint64(1)<<(32-uint(i)))
	}
	if total != float64(1<<24-1) {
		t.Fatalf("free total = %v", total)
	}
}

func TestFreeVectorFullSpace(t *testing.T) {
	used := ipset.New()
	p := ipv4.MustParsePrefix("10.0.0.0/28")
	for i := uint64(0); i < p.Size(); i++ {
		used.Add(p.First() + ipv4.Addr(i))
	}
	x := FreeVector(used, []ipv4.Prefix{p})
	for i := 0; i <= 32; i++ {
		if x[i] != 0 {
			t.Fatalf("fully used space has free x[%d] = %d", i, x[i])
		}
	}
}

// Property: free addresses + used addresses = space size, for random
// sparse populations of a /16.
func TestFreeVectorConservation(t *testing.T) {
	space := ipv4.MustParsePrefix("172.16.0.0/16")
	f := func(vs []uint16) bool {
		used := ipset.New()
		for _, v := range vs {
			used.Add(space.First() + ipv4.Addr(v))
		}
		x := FreeVector(used, []ipv4.Prefix{space})
		return x.Addresses() == float64(space.Size())-float64(used.Len())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the trie-based FreeBlockVector and the gap-walk FreeVector
// agree (two independent implementations of the same decomposition).
func TestFreeVectorMatchesTrie(t *testing.T) {
	space := ipv4.MustParsePrefix("192.168.0.0/20")
	f := func(vs []uint16) bool {
		used := ipset.New()
		var tr trieLike
		for _, v := range vs {
			a := space.First() + ipv4.Addr(v&0x0fff)
			used.Add(a)
			tr.add(a)
		}
		x := FreeVector(used, []ipv4.Prefix{space})
		y := tr.freeVector(space)
		return x == y
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSolveAMatchesDense(t *testing.T) {
	// Build A explicitly and compare SolveA with the dense solver.
	// In ascending prefix-length order the matrix is lower triangular:
	// d_i = −n_i + Σ_{j<i} n_j (the paper's A is the same matrix with the
	// vector reversed).
	const n = 32
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		a[i][i] = -1
		for j := 0; j < i; j++ {
			a[i][j] = 1
		}
	}
	var d Vector
	for i := 1; i <= n; i++ {
		d[i] = int64((i*7)%11 - 5)
	}
	b := make([]float64, n)
	for i := 1; i <= n; i++ {
		b[i-1] = float64(d[i])
	}
	want, err := stats.Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	got := SolveA(d)
	for i := 1; i <= n; i++ {
		if math.Abs(got[i]-want[i-1]) > 1e-6 {
			t.Fatalf("n[%d] = %v, want %v", i, got[i], want[i-1])
		}
	}
}

func TestSolveAInverse(t *testing.T) {
	// A(SolveA(d)) must reproduce d: allocating n_i addresses into /i
	// blocks yields Δx_i = −n_i + Σ_{j<i} n_j.
	var d Vector
	d[32] = 10
	d[24] = -3
	d[16] = 5
	n := SolveA(d)
	for i := 1; i <= 32; i++ {
		got := -n[i]
		for j := 1; j < i; j++ {
			got += n[j]
		}
		if math.Abs(got-float64(d[i])) > 1e-6 {
			t.Fatalf("A·n mismatch at %d: %v vs %d", i, got, d[i])
		}
	}
}

func TestDistributeGhostsConservation(t *testing.T) {
	var x Vector
	x[16] = 4
	x[24] = 100
	var f Ratios
	for i := 1; i <= 32; i++ {
		f[i] = 1
	}
	before := x.Addresses()
	out := DistributeGhosts(x, f, 1000, 7)
	after := out.Addresses()
	if before-after != 1000 {
		t.Fatalf("free space shrank by %v, want 1000", before-after)
	}
	for i := 0; i <= 32; i++ {
		if out[i] < 0 {
			t.Fatalf("negative block count x[%d] = %d", i, out[i])
		}
	}
}

func TestDistributeGhostsExhaustion(t *testing.T) {
	var x Vector
	x[32] = 5 // only five free addresses
	var f Ratios
	f[32] = 1
	out := DistributeGhosts(x, f, 100, 7)
	if out.Addresses() != 0 {
		t.Fatalf("free space should be exhausted, %v left", out.Addresses())
	}
}

func TestEstimateRatiosSimple(t *testing.T) {
	// Base: 10 free /24s and 1000 free /32s. Merge: 2 /24s consumed (each
	// leaving /25../32 splinters) and some /32s consumed.
	var base Vector
	base[24] = 10
	base[32] = 1000
	var merged Vector
	merged[24] = 8
	for i := 25; i <= 31; i++ {
		merged[i] = base[i] + 2
	}
	merged[32] = base[32] - 50 + 2
	f := EstimateRatios(base, merged)
	if f[32] != 1 {
		t.Fatalf("f[32] = %v, want 1 after normalisation", f[32])
	}
	if f[24] <= 0 {
		t.Fatal("f[24] must be positive: /24s were filled")
	}
	// Per-block fill rate of /24s (2/10) should exceed that of /32s
	// (48/1000) in this constructed example.
	if f[24] <= f[32] {
		t.Fatalf("f[24] = %v should exceed f[32] = 1", f[24])
	}
}

func TestAverageRatios(t *testing.T) {
	var a, b Ratios
	a[24], a[32] = 2, 1
	b[24], b[32] = 0, 1 // zero entries are ignored
	avg := AverageRatios([]Ratios{a, b})
	if avg[24] != 2 || avg[32] != 1 {
		t.Fatalf("avg = %v, %v", avg[24], avg[32])
	}
	empty := AverageRatios(nil)
	if empty[32] != 1 {
		t.Fatal("empty average must still normalise f[32]")
	}
}

func TestRunoutYear(t *testing.T) {
	if got := RunoutYear(100, 10, 2014.5); got != 2024.5 {
		t.Fatalf("RunoutYear = %v, want 2024.5", got)
	}
	if !math.IsInf(RunoutYear(100, 0, 2014.5), 1) {
		t.Fatal("zero growth must never run out")
	}
}

func TestFIBPrefixes(t *testing.T) {
	var x Vector
	x[8] = 1
	x[24] = 10
	x[25] = 100 // not routable
	if got := x.FIBPrefixes(); got != 11 {
		t.Fatalf("FIBPrefixes = %d, want 11", got)
	}
}

func TestSlash24s(t *testing.T) {
	var x Vector
	x[22] = 1 // 4 /24s
	x[24] = 3
	x[30] = 9 // none
	if got := x.Slash24s(); got != 7 {
		t.Fatalf("Slash24s = %v, want 7", got)
	}
}

// trieLike is a minimal reference implementation: a set of /32s with a
// recursive free-block decomposition, used only to cross-check FreeVector.
type trieLike struct {
	addrs map[uint32]bool
}

func (t *trieLike) add(a ipv4.Addr) {
	if t.addrs == nil {
		t.addrs = map[uint32]bool{}
	}
	t.addrs[uint32(a)] = true
}

func (t *trieLike) countIn(p ipv4.Prefix) int {
	n := 0
	for a := range t.addrs {
		if p.Contains(ipv4.Addr(a)) {
			n++
		}
	}
	return n
}

func (t *trieLike) freeVector(space ipv4.Prefix) Vector {
	var x Vector
	var rec func(p ipv4.Prefix)
	rec = func(p ipv4.Prefix) {
		c := t.countIn(p)
		if c == 0 {
			x[p.Bits]++
			return
		}
		if p.Bits == 32 {
			return
		}
		lo, hi := p.Halves()
		rec(lo)
		rec(hi)
	}
	rec(space)
	return x
}

func BenchmarkFreeVector(b *testing.B) {
	used := ipset.New()
	space := ipv4.MustParsePrefix("10.0.0.0/8")
	for i := 0; i < 100000; i++ {
		used.Add(space.First() + ipv4.Addr(uint32(i)*151+7))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FreeVector(used, []ipv4.Prefix{space})
	}
}

// Addresses returns the total number of addresses in vacant blocks.
func (x Vector) Addresses() float64 {
	var n float64
	for i := 0; i <= 32; i++ {
		n += float64(x[i]) * float64(uint64(1)<<(32-uint(i)))
	}
	return n
}
