// Spooffilter: ship NetFlow v5 records — genuine traffic plus uniformly
// spoofed DDoS/decoy sources — from an exporter to a UDP collector, then
// remove the spoofed addresses with the paper's two-stage filter (§4.5)
// and show what spoofing would otherwise do to /24 counts and CR
// estimates.
//
//	go run ./examples/spooffilter
package main

import (
	"fmt"
	"time"

	"ghosts/internal/bgp"
	"ghosts/internal/ipset"
	"ghosts/internal/ipv4"
	"ghosts/internal/netflow"
	"ghosts/internal/rng"
	"ghosts/internal/sources"
	"ghosts/internal/spoof"
	"ghosts/internal/trie"
	"ghosts/internal/universe"
	"ghosts/internal/windows"
)

func main() {
	u := universe.New(universe.TinyConfig(11))
	ws := windows.Paper()
	w := ws[8] // ends Dec 2013
	routed := bgp.Aggregate(u, w, 3)
	suite := sources.NewSuite(u, 55)

	// Build the access router's view: genuine flows from a clean SWIN
	// collection, plus spoofed sources drawn uniformly over the routed
	// space (DDoS attacks and nmap decoy scans, §4.5).
	clean := *suite
	clean.SpoofScale = 0
	genuine := collect(&clean, w, routed)[sources.SWIN]

	collector, err := netflow.NewCollector()
	if err != nil {
		panic(err)
	}
	defer collector.Close()
	exporter, err := netflow.NewExporter(collector.Addr())
	if err != nil {
		panic(err)
	}

	count := 0
	pace := func() {
		// Pace the export so the collector's socket buffer keeps up; real
		// routers spread flow expiry over time too.
		if count%3000 == 0 {
			time.Sleep(2 * time.Millisecond)
		}
	}
	genuine.Range(func(a ipv4.Addr) bool {
		rec := netflow.Record{Src: a, Dst: ipv4.MustParseAddr("192.0.2.9"),
			SrcPort: 40000, DstPort: 443, Proto: 6, Packets: 12, Octets: 9000}
		if err := exporter.Export(rec); err != nil {
			panic(err)
		}
		count++
		pace()
		return true
	})
	// Spoofed flood: uniform over the routed space.
	r := rng.New(77)
	prefixes := routed.Prefixes()
	var total uint64
	cum := make([]uint64, len(prefixes))
	for i, p := range prefixes {
		total += p.Size()
		cum[i] = total
	}
	spoofedSent := genuine.Len() / 20
	for i := 0; i < spoofedSent; i++ {
		k := r.Uint64n(total)
		lo, hi := 0, len(cum)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] <= k {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		off := k
		if lo > 0 {
			off -= cum[lo-1]
		}
		rec := netflow.Record{Src: prefixes[lo].First() + ipv4.Addr(off),
			Dst: ipv4.MustParseAddr("192.0.2.9"), Proto: 17, Packets: 1, Octets: 64}
		if err := exporter.Export(rec); err != nil {
			panic(err)
		}
		count++
		pace()
	}
	if err := exporter.Close(); err != nil {
		panic(err)
	}
	// Wait until the collector goes quiet. Bursty UDP export over
	// loopback drops some datagrams under load — exactly as real NetFlow
	// does — so wait for the stream to settle rather than for every
	// record.
	var last int64 = -1
	for {
		recs, _ := collector.Stats()
		if recs == last {
			break
		}
		last = recs
		time.Sleep(50 * time.Millisecond)
	}
	dirty := collector.Sources()
	recs, _ := collector.Stats()
	fmt.Printf("NetFlow collector: %d of %d records delivered (UDP drops are normal), %d distinct sources (%d genuine + spoofed)\n",
		recs, count, dirty.Len(), genuine.Len())
	fmt.Printf("  /24 subnets: genuine %d, with spoofing %d (+%.0f%%)\n\n",
		genuine.Slash24Len(), dirty.Slash24Len(),
		100*(float64(dirty.Slash24Len())/float64(genuine.Slash24Len())-1))

	// The paper's two-stage filter, trained on the spoof-free sources.
	obs := collect(suite, w, routed)
	spoofFree := ipset.New()
	for _, n := range []sources.Name{sources.WIKI, sources.WEB, sources.MLAB, sources.GAME} {
		spoofFree.AddSet(obs[n])
	}
	byteRef := spoofFree.Clone()
	for _, n := range []sources.Name{sources.SPAM, sources.IPING, sources.TPING} {
		byteRef.AddSet(obs[n])
	}
	f := spoof.New(spoofFree, byteRef, u.EmptyBlocks(), 99)
	cleaned, st := f.Clean(dirty)

	fmt.Printf("Spoof filter: S=%.0f per /8-equivalent, stage-1 threshold m=%d\n", st.SPer8, st.M)
	fmt.Printf("  removed %d whole /24s (%d addrs), %d more by last-byte Bayes\n",
		st.RemovedSubnets, st.RemovedAddrs, st.Stage2Removed)
	fmt.Printf("  kept %d addresses in %d /24s\n\n", cleaned.Len(), cleaned.Slash24Len())

	kept := ipset.IntersectCount(cleaned, genuine)
	spoofedIn := dirty.Len() - ipset.IntersectCount(dirty, genuine)
	spoofedOut := cleaned.Len() - kept
	fmt.Printf("Genuine retention: %.1f%%   spoofed surviving: %d of %d\n",
		100*float64(kept)/float64(genuine.Len()), spoofedOut, spoofedIn)
	fmt.Printf("/24 error vs genuine: unfiltered %+d, filtered %+d\n",
		dirty.Slash24Len()-genuine.Slash24Len(), cleaned.Slash24Len()-genuine.Slash24Len())
}

// collect runs every source of the suite over window w and indexes the
// observations by source.
func collect(s *sources.Suite, w windows.Window, routed *trie.Trie) map[sources.Name]*ipset.Set {
	obs := map[sources.Name]*ipset.Set{}
	for _, o := range s.CollectAll([]windows.Window{w}, []*trie.Trie{routed})[0] {
		obs[o.Name] = o.Addrs
	}
	return obs
}
