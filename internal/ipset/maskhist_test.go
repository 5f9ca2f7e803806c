package ipset

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ghosts/internal/ipv4"
)

func TestMaskHistBasics(t *testing.T) {
	h := NewMaskHist(3)
	a := ipv4.AddrFromOctets(10, 0, 0, 1)
	b := ipv4.AddrFromOctets(10, 0, 1, 1)

	if !h.Add(0, a) {
		t.Fatal("first add reported duplicate")
	}
	if h.Add(0, a) {
		t.Fatal("duplicate add reported new")
	}
	h.Add(1, a)
	h.Add(2, b)

	if got := h.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	if got := h.pages[a.Slash24Index()][a.LastByte()]; got != 0b011 {
		t.Fatalf("Mask(a) = %b, want 011", got)
	}
	if got := h.SourceLen(0); got != 1 {
		t.Fatalf("SourceLen(0) = %d, want 1", got)
	}
	hist := h.Histogram()
	if hist[0] != 0 || hist[0b011] != 1 || hist[0b100] != 1 {
		t.Fatalf("histogram = %v", hist)
	}
	var total int64
	for _, c := range hist {
		total += c
	}
	if total != h.Len() {
		t.Fatalf("histogram total %d != Len %d", total, h.Len())
	}
	if len(h.pages) != 2 {
		t.Fatalf("%d pages, want 2", len(h.pages))
	}
}

func TestMaskHistGrow(t *testing.T) {
	h := NewMaskHist(2)
	a := ipv4.AddrFromOctets(10, 0, 0, 1)
	h.Add(0, a)
	h.Add(1, a)
	h.Grow(2) // no-op
	h.Grow(4)
	if h.T() != 4 {
		t.Fatalf("T = %d, want 4", h.T())
	}
	if got := h.Histogram()[0b0011]; got != 1 {
		t.Fatalf("cell 0011 = %d after Grow, want 1", got)
	}
	h.Add(3, a)
	hist := h.Histogram()
	if hist[0b0011] != 0 || hist[0b1011] != 1 {
		t.Fatalf("histogram after post-Grow add = %v", hist)
	}
}

func TestMaskHistPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewMaskHist(0) },
		func() { NewMaskHist(17) },
		func() { NewMaskHist(2).Grow(1) },
		func() { NewMaskHist(2).Grow(17) },
		func() { NewMaskHist(2).Add(2, 0) },
		func() { NewMaskHist(2).Add(-1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

// TestMaskHistMatchesCaptureHistogram is the core differential property:
// after any sequence of adds, the incrementally maintained histogram is
// cell-for-cell identical to CaptureHistogram rebuilt from equivalent
// per-source Sets, for every source count the estimator supports in
// streaming (t ∈ 2..9), with duplicate observations and clustered /24s.
func TestMaskHistMatchesCaptureHistogram(t *testing.T) {
	for tt := 2; tt <= 9; tt++ {
		tt := tt
		check := func(seed int64, n uint16) bool {
			rng := rand.New(rand.NewSource(seed))
			events := int(n%2048) + 1
			h := NewMaskHist(tt)
			sets := make([]*Set, tt)
			for i := range sets {
				sets[i] = New()
			}
			for e := 0; e < events; e++ {
				src := rng.Intn(tt)
				// Cluster addresses into few /24s so multi-source
				// overlaps (the per-bit fold path) actually occur.
				a := ipv4.AddrFromOctets(10, byte(rng.Intn(2)), byte(rng.Intn(4)), byte(rng.Intn(64)))
				wasNew := h.Add(src, a)
				if setNew := sets[src].Add(a); setNew != wasNew {
					t.Errorf("t=%d seed=%d: Add newness mismatch", tt, seed)
					return false
				}
			}
			want := CaptureHistogram(sets)
			got := h.Histogram()
			if len(got) != len(want) {
				t.Errorf("t=%d: histogram length %d != %d", tt, len(got), len(want))
				return false
			}
			for c := range want {
				if got[c] != want[c] {
					t.Errorf("t=%d seed=%d: cell %b = %d, want %d", tt, seed, c, got[c], want[c])
					return false
				}
			}
			var union Set
			union.pages = make(map[uint32]*page)
			for _, s := range sets {
				union.AddSet(s)
			}
			if int64(union.Len()) != h.Len() {
				t.Errorf("t=%d: Len %d != union %d", tt, h.Len(), union.Len())
				return false
			}
			for i := 0; i < tt; i++ {
				if h.SourceLen(i) != int64(sets[i].Len()) {
					t.Errorf("t=%d: SourceLen(%d) %d != set %d", tt, i, h.SourceLen(i), sets[i].Len())
					return false
				}
			}
			return true
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
			t.Fatalf("t=%d: %v", tt, err)
		}
	}
}

// TestMaskHistGrowMatchesCaptureHistogram interleaves Grow with adds —
// the streaming pipeline grows a window's histogram when a new source
// registers mid-window — and checks the final histogram against a
// rebuild over the full source count.
func TestMaskHistGrowMatchesCaptureHistogram(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const tmax = 6
		h := NewMaskHist(2)
		live := 2
		sets := make([]*Set, tmax)
		for i := range sets {
			sets[i] = New()
		}
		for e := 0; e < 600; e++ {
			if live < tmax && rng.Intn(97) == 0 {
				live++
				h.Grow(live)
			}
			src := rng.Intn(live)
			a := ipv4.AddrFromOctets(10, 0, byte(rng.Intn(3)), byte(rng.Intn(96)))
			h.Add(src, a)
			sets[src].Add(a)
		}
		h.Grow(tmax)
		want := CaptureHistogram(sets)
		got := h.Histogram()
		for c := range want {
			if got[c] != want[c] {
				t.Errorf("seed=%d: cell %b = %d, want %d", seed, c, got[c], want[c])
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
