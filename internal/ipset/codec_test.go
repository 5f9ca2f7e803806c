package ipset

import (
	"bytes"
	"testing"
	"testing/quick"

	"ghosts/internal/ipv4"
)

func TestCodecRoundTrip(t *testing.T) {
	s := randomSet(50000, 9)
	var buf bytes.Buffer
	n, err := s.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	back := New()
	m, err := back.ReadFrom(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if m != n {
		t.Fatalf("ReadFrom consumed %d bytes, want %d", m, n)
	}
	if back.Len() != s.Len() || back.Slash24Len() != s.Slash24Len() {
		t.Fatalf("sizes differ: %d/%d vs %d/%d", back.Len(), back.Slash24Len(), s.Len(), s.Slash24Len())
	}
	if IntersectCount(back, s) != s.Len() {
		t.Fatal("contents differ after round trip")
	}
}

// TestCodecReadFromResetsAddCache: ReadFrom replaces a set's pages, so an
// Add after it must land in the decoded pages, not in the page the set's
// last Add touched before.
func TestCodecReadFromResetsAddCache(t *testing.T) {
	a := ipv4.MustParseAddr("192.0.2.1")
	var buf bytes.Buffer
	if _, err := fromUints([]uint32{uint32(a) + 1}).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	s := New()
	s.Add(a)
	if _, err := s.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	s.Add(a + 2)
	if s.Len() != 2 || s.Contains(a) || !s.Contains(a+1) || !s.Contains(a+2) {
		t.Fatalf("after ReadFrom and Add: Len %d, contains %v %v %v; want 2, false true true",
			s.Len(), s.Contains(a), s.Contains(a+1), s.Contains(a+2))
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	f := func(vs []uint32) bool {
		s := fromUints(vs)
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			return false
		}
		back := New()
		if _, err := back.ReadFrom(bytes.NewReader(buf.Bytes())); err != nil {
			return false
		}
		return back.Len() == s.Len() && IntersectCount(back, s) == s.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCodecEmptySet(t *testing.T) {
	var buf bytes.Buffer
	if _, err := New().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back := New()
	back.Add(ipv4.Addr(7)) // must be replaced by the read
	if _, err := back.ReadFrom(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if back.Len() != 0 {
		t.Fatalf("empty round trip has %d members", back.Len())
	}
}

func TestCodecCompactness(t *testing.T) {
	// Dense pages: far below 4 bytes per address.
	s := New()
	for i := 0; i < 100*256; i++ {
		s.Add(ipv4.Addr(uint32(0x0a000000 + i)))
	}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	perAddr := float64(buf.Len()) / float64(s.Len())
	if perAddr > 0.2 {
		t.Fatalf("%.2f bytes/address for dense pages, want ≤0.2", perAddr)
	}
}

func TestCodecRejectsCorruption(t *testing.T) {
	s := randomSet(1000, 3)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   append([]byte("XSET"), raw[4:]...),
		"bad version": append(append([]byte{}, raw[:4]...), append([]byte{9}, raw[5:]...)...),
		"truncated":   raw[:len(raw)-5],
	}
	for name, data := range cases {
		back := New()
		if _, err := back.ReadFrom(bytes.NewReader(data)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func BenchmarkCodecWrite(b *testing.B) {
	s := randomSet(100000, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecRead(b *testing.B) {
	s := randomSet(100000, 5)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		back := New()
		if _, err := back.ReadFrom(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
