package registry

import (
	"bufio"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"time"

	"ghosts/internal/ipv4"
)

// This file implements, for the tests, the RIR "extended delegation"
// statistics format —
// the pipe-separated files the registries publish daily and the paper's
// stratifications are derived from:
//
//	apnic|CN|ipv4|1.0.0.0|256|20110414|allocated|opaque-id
//
// with header and summary lines:
//
//	2|apnic|20140630|1234|19830101|20140630|+10
//	apnic|*|ipv4|*|1234|summary
//
// A Registry round-trips through this format; the industry class (not part
// of the public format) is carried in the opaque-id column, as registries
// use that column for registration handles. No binary reads or writes
// delegation files, so the codec lives beside its tests and fuzz target.

// WriteDelegation serialises the registry in extended delegation format.
// Records are emitted in address order; a prefix whose size is not a power
// of two never occurs here (allocations are CIDR blocks), but multi-line
// output for non-CIDR ranges is the format's job, not ours.
func (g *Registry) WriteDelegation(w io.Writer, asOf time.Time) error {
	bw := bufio.NewWriter(w)
	recs := append([]Allocation(nil), g.Allocs...)
	sort.Slice(recs, func(i, j int) bool { return recs[i].Prefix.Base < recs[j].Prefix.Base })
	fmt.Fprintf(bw, "2|ghosts|%s|%d|19830101|%s|+00\n",
		asOf.Format("20060102"), len(recs), asOf.Format("20060102"))
	fmt.Fprintf(bw, "ghosts|*|ipv4|*|%d|summary\n", len(recs))
	for _, a := range recs {
		fmt.Fprintf(bw, "%s|%s|ipv4|%s|%d|%s|allocated|%s\n",
			strings.ToLower(a.RIR.String()),
			a.Country,
			a.Prefix.First(),
			a.Prefix.Size(),
			a.Date.Format("20060102"),
			strings.ToLower(a.Industry.String()),
		)
	}
	return bw.Flush()
}

// ReadDelegation parses extended delegation format into a Registry.
// Unknown registries, non-ipv4 records, and summary/header lines are
// skipped; a record whose address count is not a power of two is rejected
// (this implementation only models CIDR allocations).
func ReadDelegation(r io.Reader) (*Registry, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	g := &Registry{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "2|") {
			continue
		}
		f := strings.Split(line, "|")
		if len(f) >= 6 && f[5] == "summary" {
			continue
		}
		if len(f) < 7 {
			return nil, fmt.Errorf("registry: line %d: %d fields", lineNo, len(f))
		}
		if f[2] != "ipv4" {
			continue
		}
		rir, ok := parseRIR(f[0])
		if !ok {
			continue
		}
		base, err := ipv4.ParseAddr(f[3])
		if err != nil {
			return nil, fmt.Errorf("registry: line %d: %v", lineNo, err)
		}
		count, err := strconv.ParseUint(f[4], 10, 64)
		if err != nil || count == 0 {
			return nil, fmt.Errorf("registry: line %d: bad count %q", lineNo, f[4])
		}
		if count&(count-1) != 0 {
			return nil, fmt.Errorf("registry: line %d: non-CIDR count %d", lineNo, count)
		}
		prefixBits := 32 - bits.TrailingZeros64(count)
		if prefixBits < 0 || prefixBits > 32 {
			return nil, fmt.Errorf("registry: line %d: count %d out of range", lineNo, count)
		}
		date, err := time.Parse("20060102", f[5])
		if err != nil {
			return nil, fmt.Errorf("registry: line %d: bad date %q", lineNo, f[5])
		}
		ind := Corporate
		if len(f) >= 8 {
			if v, ok := parseIndustry(f[7]); ok {
				ind = v
			}
		}
		g.Allocs = append(g.Allocs, Allocation{
			Prefix:   ipv4.NewPrefix(base, prefixBits),
			RIR:      rir,
			Country:  f[1],
			Industry: ind,
			Date:     date,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.Slice(g.Allocs, func(i, j int) bool { return g.Allocs[i].Prefix.Base < g.Allocs[j].Prefix.Base })
	return g, nil
}

func parseRIR(s string) (RIR, bool) {
	switch strings.ToLower(s) {
	case "afrinic":
		return AfriNIC, true
	case "apnic":
		return APNIC, true
	case "arin":
		return ARIN, true
	case "lacnic":
		return LACNIC, true
	case "ripe", "ripencc", "ghosts":
		return RIPE, true
	default:
		return 0, false
	}
}

func parseIndustry(s string) (Industry, bool) {
	for _, ind := range Industries() {
		if strings.EqualFold(s, ind.String()) {
			return ind, true
		}
	}
	return 0, false
}
