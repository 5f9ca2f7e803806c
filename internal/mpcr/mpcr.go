package mpcr

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"

	"ghosts/internal/core"
	"ghosts/internal/ipset"
	"ghosts/internal/ipv4"
	"ghosts/internal/rng"
)

// DefaultPrime is a 512-bit safe prime (p = 2q+1) for the demo deployment;
// production deployments would use ≥2048 bits. Generated once with
// crypto/rand + ProbablyPrime and fixed here so runs are reproducible.
const defaultPrimeHex = "cb7bcf0533c27cbef5f3fec9b7d39b0ee56813ba08e6d98de5c6a3e275eca333" +
	"bf2ba66ca497c4718be9bb0e6e5452003a5940f3d79cd0eebbb42ddb4adf0923"

// group wraps the modulus and precomputed values.
type group struct {
	p *big.Int // safe prime
}

// newGroup parses and sanity-checks the modulus.
func newGroup(pHex string) (*group, error) {
	p, ok := new(big.Int).SetString(pHex, 16)
	if !ok {
		return nil, errors.New("mpcr: bad prime literal")
	}
	if !p.ProbablyPrime(32) {
		return nil, errors.New("mpcr: modulus is not prime")
	}
	q := new(big.Int).Rsh(p, 1)
	if !q.ProbablyPrime(32) {
		return nil, errors.New("mpcr: modulus is not a safe prime")
	}
	return &group{p: p}, nil
}

// hashToGroup maps an IPv4 address into the quadratic-residue subgroup.
func (g *group) hashToGroup(a ipv4.Addr) *big.Int {
	var buf [8]byte
	binary.BigEndian.PutUint32(buf[:4], uint32(a))
	// Two hash blocks give enough bytes to cover the modulus width.
	h1 := sha256.Sum256(append([]byte("mpcr-h1:"), buf[:]...))
	h2 := sha256.Sum256(append([]byte("mpcr-h2:"), buf[:]...))
	x := new(big.Int).SetBytes(append(h1[:], h2[:]...))
	x.Mod(x, g.p)
	if x.Sign() == 0 {
		x.SetInt64(2)
	}
	// Square into the prime-order subgroup (removes the order-2 component).
	return x.Mul(x, x).Mod(x, g.p)
}

// Party is one measurement operator participating in the protocol.
type Party struct {
	Name string

	g   *group
	key *big.Int // secret exponent in [2, q)
	set *ipset.Set
	r   *rng.RNG
}

// NewParty creates a participant with a deterministic secret derived from
// seed (tests and simulations need reproducibility; a real deployment
// would draw the exponent from crypto/rand).
func NewParty(name string, seed uint64, observations *ipset.Set) (*Party, error) {
	g, err := newGroup(defaultPrimeHex)
	if err != nil {
		return nil, err
	}
	r := rng.New(seed ^ 0x5ec7e7)
	q := new(big.Int).Rsh(g.p, 1)
	// Rejection-sample a uniform exponent in [2, q).
	key := new(big.Int)
	for {
		var raw [64]byte
		for i := 0; i < len(raw); i += 8 {
			binary.BigEndian.PutUint64(raw[i:], r.Uint64())
		}
		key.SetBytes(raw[:]).Mod(key, q)
		if key.Cmp(big.NewInt(2)) >= 0 {
			break
		}
	}
	return &Party{Name: name, g: g, key: key, set: observations, r: r}, nil
}

// Batch is a shuffled list of group elements in transit between parties,
// tagged with the (public) identity of the source it originated from and
// how many parties have already encrypted it.
type Batch struct {
	Source string
	Hops   int
	Elems  []*big.Int
}

// EncryptOwn hashes and encrypts the party's own observation set and
// shuffles the result — the first hop of the protocol.
func (pt *Party) EncryptOwn() *Batch {
	elems := make([]*big.Int, 0, pt.set.Len())
	pt.set.Range(func(a ipv4.Addr) bool {
		x := pt.g.hashToGroup(a)
		elems = append(elems, x.Exp(x, pt.key, pt.g.p))
		return true
	})
	pt.shuffle(elems)
	return &Batch{Source: pt.Name, Hops: 1, Elems: elems}
}

// Raise applies the party's exponent to a batch received from another
// party, shuffling before passing it on.
func (pt *Party) Raise(b *Batch) *Batch {
	out := make([]*big.Int, len(b.Elems))
	for i, e := range b.Elems {
		out[i] = new(big.Int).Exp(e, pt.key, pt.g.p)
	}
	pt.shuffle(out)
	return &Batch{Source: b.Source, Hops: b.Hops + 1, Elems: out}
}

func (pt *Party) shuffle(xs []*big.Int) {
	pt.r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

// ComputeTable runs the full protocol among the parties and returns the
// capture-history contingency table — bit i of a history corresponds to
// parties[i] — without any party's plaintext set leaving it.
func ComputeTable(parties []*Party) (*core.Table, error) {
	t := len(parties)
	if t < 2 {
		return nil, errors.New("mpcr: need at least two parties")
	}
	if t > 16 {
		return nil, errors.New("mpcr: at most 16 parties")
	}
	// Round 1: everyone encrypts its own set.
	batches := make([]*Batch, t)
	for i, p := range parties {
		batches[i] = p.EncryptOwn()
	}
	// Rounds 2..t: circulate every batch through all other parties.
	for i := range batches {
		for j := range parties {
			if parties[j].Name == batches[i].Source {
				continue
			}
			batches[i] = parties[j].Raise(batches[i])
		}
		if batches[i].Hops != t {
			return nil, fmt.Errorf("mpcr: batch from %s saw %d of %d parties",
				batches[i].Source, batches[i].Hops, t)
		}
	}
	return Tally(batches, partyNames(parties))
}

// Tally is the combiner step: match fully-encrypted batches by token
// equality and count elements per source subset. It is exported separately
// so a deployment can hand the final batches to an independent
// aggregation party.
func Tally(batches []*Batch, order []string) (*core.Table, error) {
	t := len(order)
	idx := make(map[string]int, t)
	for i, n := range order {
		idx[n] = i
	}
	masks := make(map[string]int)
	for _, b := range batches {
		bit, ok := idx[b.Source]
		if !ok {
			return nil, fmt.Errorf("mpcr: batch from unknown party %q", b.Source)
		}
		for _, e := range b.Elems {
			masks[string(e.Bytes())] |= 1 << uint(bit)
		}
	}
	tb := core.NewTable(t)
	tb.Names = append([]string(nil), order...)
	for _, m := range masks {
		tb.Counts[m]++
	}
	return tb, nil
}

func partyNames(parties []*Party) []string {
	out := make([]string, len(parties))
	for i, p := range parties {
		out[i] = p.Name
	}
	return out
}
