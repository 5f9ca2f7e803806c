package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSolveKnown(t *testing.T) {
	a := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "x[0]", x[0], 1, 1e-12)
	approx(t, "x[1]", x[1], 3, 1e-12)
}

func TestSolveSingular(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 4}}
	if _, err := Solve(a, []float64{1, 2}); err == nil {
		t.Fatal("Solve of singular matrix should fail")
	}
}

func TestSolveDimensionErrors(t *testing.T) {
	if _, err := Solve(nil, nil); err == nil {
		t.Fatal("empty system should fail")
	}
	if _, err := Solve([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Fatal("non-square system should fail")
	}
	if _, err := Solve([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Fatal("mismatched rhs should fail")
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Zero leading pivot forces a row swap.
	a := [][]float64{{0, 1}, {1, 0}}
	x, err := Solve(a, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "x[0]", x[0], 3, 1e-12)
	approx(t, "x[1]", x[1], 2, 1e-12)
}

// Property: for random SPD systems built as A = MᵀM + I, Solve recovers x
// with A x = b.
func TestSolveResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := newTestRand(seed)
		n := 2 + int(uint64(seed)%5)
		m := make([][]float64, n)
		for i := range m {
			m[i] = make([]float64, n)
			for j := range m[i] {
				m[i][j] = r()
			}
		}
		a := make([][]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				s := 0.0
				for k := 0; k < n; k++ {
					s += m[k][i] * m[k][j]
				}
				a[i][j] = s
				if i == j {
					a[i][j]++
				}
			}
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = r()
		}
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		res := matVec(a, x)
		for i := range res {
			if math.Abs(res[i]-b[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// newTestRand returns a tiny deterministic float generator in [-1, 1).
func newTestRand(seed int64) func() float64 {
	s := uint64(seed)*2654435761 + 1
	return func() float64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return float64(int64(s%2000)-1000) / 1000
	}
}

func TestMatVec(t *testing.T) {
	a := [][]float64{{1, 2}, {3, 4}}
	got := matVec(a, []float64{5, 6})
	if got[0] != 17 || got[1] != 39 {
		t.Fatalf("matVec = %v", got)
	}
}

// matVec returns A x.
func matVec(a [][]float64, x []float64) []float64 {
	out := make([]float64, len(a))
	for i, row := range a {
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}
