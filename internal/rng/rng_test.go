package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := New(43)
	same := 0
	a = New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds should give different streams, %d collisions", same)
	}
}

func TestSplitIndependent(t *testing.T) {
	r := New(1)
	s1 := r.Split()
	s2 := r.Split()
	if s1.Uint64() == s2.Uint64() {
		t.Fatal("split streams should differ")
	}
}

func TestIntnRange(t *testing.T) {
	r := New(2)
	seen := map[int]bool{}
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) hit %d distinct values, want 7", len(seen))
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of range", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := New(4)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) must be false")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) must be true")
		}
	}
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	if p := float64(hits) / n; math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) rate = %v", p)
	}
}

func TestPoissonMoments(t *testing.T) {
	for _, lambda := range []float64{0.5, 3, 50, 200} {
		r := New(5)
		const n = 20000
		var sum, sumsq float64
		for i := 0; i < n; i++ {
			v := float64(r.Poisson(lambda))
			sum += v
			sumsq += v * v
		}
		mean := sum / n
		variance := sumsq/n - mean*mean
		if math.Abs(mean-lambda) > 4*math.Sqrt(lambda/n)+0.05 {
			t.Errorf("Poisson(%v) mean = %v", lambda, mean)
		}
		if math.Abs(variance-lambda)/lambda > 0.15 {
			t.Errorf("Poisson(%v) variance = %v", lambda, variance)
		}
	}
}

func TestPoissonZero(t *testing.T) {
	r := New(6)
	if r.Poisson(0) != 0 || r.Poisson(-1) != 0 {
		t.Fatal("Poisson of non-positive lambda must be 0")
	}
}

func TestZipfShape(t *testing.T) {
	r := New(10)
	z := NewZipf(r, 100, 1.0)
	counts := make([]int, 100)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	if counts[0] <= counts[9] || counts[9] <= counts[50] {
		t.Fatalf("Zipf counts not decreasing: c0=%d c9=%d c50=%d", counts[0], counts[9], counts[50])
	}
	// Rank 0 should get ~1/H(100) ≈ 19% of mass at s=1.
	frac := float64(counts[0]) / n
	if frac < 0.15 || frac > 0.25 {
		t.Fatalf("Zipf rank-0 mass = %v, want ≈0.19", frac)
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	r := New(11)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make([]bool, 10)
	for _, v := range xs {
		if seen[v] {
			t.Fatal("shuffle produced duplicate")
		}
		seen[v] = true
	}
}

func TestExpMean(t *testing.T) {
	r := New(12)
	const n = 50000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp()
	}
	if mean := sum / n; math.Abs(mean-1) > 0.03 {
		t.Fatalf("Exp mean = %v, want 1", mean)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		r.Uint64()
	}
}

func BenchmarkPoissonSmall(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		r.Poisson(4)
	}
}
