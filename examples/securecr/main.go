// Securecr: three measurement operators jointly estimate the used address
// space without revealing their observation logs to each other — the
// paper's stated future work (§8), implemented with commutative
// Pohlig–Hellman encryption.
//
// Each operator hashes its addresses into a prime-order group, encrypts
// with its secret exponent, and the batches circulate until every batch is
// encrypted under every key. Equal addresses then match as opaque tokens,
// which is all the contingency table needs.
//
//	go run ./examples/securecr
//
// It takes 6–8 minutes on a 2-core VM. Collecting the three
// operators' 882,397 addresses takes about a second and a half; the rest
// is the protocol's ~2.6M modular exponentiations (big.Int.Exp), because
// every batch is raised under all three secret keys.
package main

import (
	"context"
	"fmt"
	"math"

	"ghosts/internal/bgp"
	"ghosts/internal/core"
	"ghosts/internal/ipset"
	"ghosts/internal/mpcr"
	"ghosts/internal/sources"
	"ghosts/internal/trie"
	"ghosts/internal/universe"
	"ghosts/internal/windows"
)

func main() {
	u := universe.New(universe.TinyConfig(31))
	ws := windows.Paper()
	w := ws[len(ws)-1]
	rt := bgp.Aggregate(u, w, 2)
	suite := sources.NewSuite(u, 77)

	collected := map[sources.Name]*ipset.Set{}
	for _, o := range suite.CollectAll([]windows.Window{w}, []*trie.Trie{rt})[0] {
		collected[o.Name] = o.Addrs
	}
	operators := []sources.Name{sources.IPING, sources.WEB, sources.GAME}
	var sets []*ipset.Set
	var parties []*mpcr.Party
	fmt.Println("Operators and their (private) observation sets:")
	for i, n := range operators {
		obs := collected[n]
		sets = append(sets, obs)
		p, err := mpcr.NewParty(string(n), uint64(1000+i), obs)
		if err != nil {
			panic(err)
		}
		parties = append(parties, p)
		fmt.Printf("  %-6s %7d addresses (never leave the operator)\n", n, obs.Len())
	}

	fmt.Println("\nRunning the commutative-encryption protocol…")
	tb, err := mpcr.ComputeTable(parties)
	if err != nil {
		panic(err)
	}
	fmt.Printf("Combiner sees only capture-history counts (%d cells):\n", len(tb.Counts)-1)
	for s := 1; s < len(tb.Counts); s++ {
		fmt.Printf("  history %03b: %7d\n", s, tb.Counts[s])
	}

	est := core.DefaultEstimator(math.Inf(1))
	secure, err := est.Run(context.Background(), tb, core.RunOptions{Interval: true})
	if err != nil {
		panic(err)
	}
	plain, err := est.Run(context.Background(), core.TableFromSets(sets, nil), core.RunOptions{})
	if err != nil {
		panic(err)
	}
	truth := u.UsedAt(w.End).Len()
	fmt.Printf("\nSecure estimate:    %.0f  [%.0f, %.0f]\n", secure.N, secure.Interval.Lo, secure.Interval.Hi)
	fmt.Printf("Plaintext estimate: %.0f  (identical table, same estimate)\n", plain.N)
	fmt.Printf("Ground truth:       %d used addresses\n", truth)
	fmt.Printf("Observed union:     %d\n", plain.Observed)
}
