package mpcr

import (
	"context"
	"math"
	"math/big"
	"testing"

	"ghosts/internal/core"
	"ghosts/internal/ipset"
	"ghosts/internal/ipv4"
	"ghosts/internal/rng"
)

// buildSets samples overlapping observation sets for t parties over a
// hidden population.
func buildSets(t *testing.T, parties int, population int, prob float64) ([]*ipset.Set, []*ipset.Set) {
	t.Helper()
	r := rng.New(9)
	sets := make([]*ipset.Set, parties)
	for i := range sets {
		sets[i] = ipset.New()
	}
	base := ipv4.MustParseAddr("20.0.0.0")
	for i := 0; i < population; i++ {
		a := base + ipv4.Addr(i)
		for j := range sets {
			if r.Bernoulli(prob) {
				sets[j].Add(a)
			}
		}
	}
	return sets, sets
}

func mkParties(t *testing.T, names []string, sets []*ipset.Set) []*Party {
	t.Helper()
	out := make([]*Party, len(names))
	for i, n := range names {
		p, err := NewParty(n, uint64(100+i), sets[i])
		if err != nil {
			t.Fatal(err)
		}
		out[i] = p
	}
	return out
}

func TestGroupIsSafePrime(t *testing.T) {
	g, err := newGroup(defaultPrimeHex)
	if err != nil {
		t.Fatal(err)
	}
	if g.p.BitLen() < 500 {
		t.Fatalf("modulus only %d bits", g.p.BitLen())
	}
	if _, err := newGroup("1234"); err == nil {
		t.Fatal("non-prime literal accepted")
	}
	if _, err := newGroup("xyz"); err == nil {
		t.Fatal("garbage literal accepted")
	}
}

func TestHashToGroupDeterministicDistinct(t *testing.T) {
	g, _ := newGroup(defaultPrimeHex)
	a := g.hashToGroup(ipv4.MustParseAddr("1.2.3.4"))
	b := g.hashToGroup(ipv4.MustParseAddr("1.2.3.4"))
	c := g.hashToGroup(ipv4.MustParseAddr("1.2.3.5"))
	if a.Cmp(b) != 0 {
		t.Fatal("hash must be deterministic")
	}
	if a.Cmp(c) == 0 {
		t.Fatal("distinct addresses must hash differently")
	}
	if a.Cmp(g.p) >= 0 || a.Sign() <= 0 {
		t.Fatal("hash outside group range")
	}
}

func TestCommutativity(t *testing.T) {
	sets, _ := buildSets(t, 2, 10, 1)
	ps := mkParties(t, []string{"A", "B"}, sets)
	g := ps[0].g
	x := g.hashToGroup(ipv4.MustParseAddr("9.9.9.9"))
	ab := new(big.Int).Exp(x, ps[0].key, g.p)
	ab.Exp(ab, ps[1].key, g.p)
	ba := new(big.Int).Exp(x, ps[1].key, g.p)
	ba.Exp(ba, ps[0].key, g.p)
	if ab.Cmp(ba) != 0 {
		t.Fatal("encryption must commute")
	}
}

func TestComputeTableMatchesPlaintext(t *testing.T) {
	names := []string{"PING", "WEB", "FLOW"}
	sets, _ := buildSets(t, 3, 3000, 0.4)
	ps := mkParties(t, names, sets)
	secure, err := ComputeTable(ps)
	if err != nil {
		t.Fatal(err)
	}
	plain := core.TableFromSets(sets, names)
	if secure.T != plain.T {
		t.Fatalf("T = %d, want %d", secure.T, plain.T)
	}
	for s := 1; s < len(plain.Counts); s++ {
		if secure.Counts[s] != plain.Counts[s] {
			t.Fatalf("cell %03b: secure %d != plaintext %d", s, secure.Counts[s], plain.Counts[s])
		}
	}
}

func TestCiphertextsHideAddresses(t *testing.T) {
	// The batch a party emits must not contain the hashed plaintexts (one
	// exponentiation already randomises them), and two hops from parties
	// with different keys must differ.
	sets, _ := buildSets(t, 2, 50, 1)
	ps := mkParties(t, []string{"A", "B"}, sets)
	g := ps[0].g
	batch := ps[0].EncryptOwn()
	plain := map[string]bool{}
	sets[0].Range(func(a ipv4.Addr) bool {
		plain[string(g.hashToGroup(a).Bytes())] = true
		return true
	})
	for _, e := range batch.Elems {
		if plain[string(e.Bytes())] {
			t.Fatal("ciphertext equals hashed plaintext")
		}
	}
	again := ps[1].Raise(batch)
	if again.Hops != 2 {
		t.Fatalf("hops = %d", again.Hops)
	}
}

func TestShufflingBreaksOrder(t *testing.T) {
	// With ≥32 elements, the probability that a shuffle is the identity is
	// negligible; verify the emitted order differs from ascending-set
	// order for at least one position.
	set := ipset.New()
	for i := 0; i < 64; i++ {
		set.Add(ipv4.Addr(0x0a000000 + uint32(i)))
	}
	p, err := NewParty("X", 7, set)
	if err != nil {
		t.Fatal(err)
	}
	batch := p.EncryptOwn()
	g := p.g
	inOrder := true
	i := 0
	set.Range(func(a ipv4.Addr) bool {
		want := new(big.Int).Exp(g.hashToGroup(a), p.key, g.p)
		if batch.Elems[i].Cmp(want) != 0 {
			inOrder = false
			return false
		}
		i++
		return true
	})
	if inOrder {
		t.Fatal("batch emitted in plaintext order")
	}
}

func TestEstimateEndToEnd(t *testing.T) {
	// Secure estimate equals the plaintext estimate exactly (same table).
	names := []string{"A", "B", "C"}
	sets, _ := buildSets(t, 3, 5000, 0.35)
	ps := mkParties(t, names, sets)
	tb, err := ComputeTable(ps)
	if err != nil {
		t.Fatal(err)
	}
	est := core.DefaultEstimator(math.Inf(1))
	secure, err := est.Run(context.Background(), tb, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := est.Run(context.Background(), core.TableFromSets(sets, names), core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(secure.N-plain.N) > 1e-6 {
		t.Fatalf("secure estimate %v != plaintext %v", secure.N, plain.N)
	}
	// And it should be in the neighbourhood of the truth (5000).
	if secure.N < 4000 || secure.N > 7000 {
		t.Fatalf("estimate %v implausible for population 5000", secure.N)
	}
}

func TestErrors(t *testing.T) {
	sets, _ := buildSets(t, 2, 10, 1)
	ps := mkParties(t, []string{"A", "B"}, sets)
	if _, err := ComputeTable(ps[:1]); err == nil {
		t.Fatal("single party accepted")
	}
	if _, err := Tally([]*Batch{{Source: "GHOST"}}, []string{"A"}); err == nil {
		t.Fatal("unknown source accepted")
	}
}

func BenchmarkProtocolThreeParties(b *testing.B) {
	r := rng.New(3)
	sets := make([]*ipset.Set, 3)
	for i := range sets {
		sets[i] = ipset.New()
		for j := 0; j < 500; j++ {
			sets[i].Add(ipv4.Addr(0x14000000 + uint32(r.Uint64()>>32)%2000))
		}
	}
	ps := make([]*Party, 3)
	for i := range ps {
		p, err := NewParty(string(rune('A'+i)), uint64(i+1), sets[i])
		if err != nil {
			b.Fatal(err)
		}
		ps[i] = p
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ComputeTable(ps); err != nil {
			b.Fatal(err)
		}
	}
}
