package main

import (
	"fmt"
	"sort"
	"time"
)

// samples is a set of raw latency samples kept by the benchmark. Percentiles
// come from the sorted samples themselves (nearest rank), never from
// bucketed histograms.
type samples struct {
	xs     []float64 // in arrival order
	sorted []float64 // sorted copy, built on first use
}

func (s *samples) add(d time.Duration) { s.addValue(millis(d)) }

func (s *samples) addValue(v float64) {
	s.xs = append(s.xs, v)
	s.sorted = nil
}

func (s *samples) n() int { return len(s.xs) }

// quantile returns the nearest-rank q-quantile: the smallest sample with at
// least a share q of the samples at or below it.
func (s *samples) quantile(q float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	if len(s.sorted) != len(s.xs) {
		s.sorted = append([]float64(nil), s.xs...)
		sort.Float64s(s.sorted)
	}
	rank := int(q*float64(len(s.xs))+0.999999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s.xs) {
		rank = len(s.xs) - 1
	}
	return s.sorted[rank]
}

// tailLevels are the percentiles a tail is chosen from, highest first.
var tailLevels = []float64{0.9999, 0.999, 0.99, 0.95, 0.9, 0.5}

// tail returns the highest percentile of tailLevels that still has at least
// ten samples above its rank, its value, and how many samples lie beyond.
func (s *samples) tail() (q, v float64, beyond int) {
	n := len(s.xs)
	for _, q := range tailLevels {
		rank := int(q*float64(n) + 0.999999999)
		if n-rank >= 10 {
			return q, s.quantile(q), n - rank
		}
	}
	return 0.5, s.quantile(0.5), n - (n+1)/2
}

// describe renders "p50=… p99=… (n=…, k beyond p99)" for a note line.
func (s *samples) describe(unit string) string {
	q, v, beyond := s.tail()
	return fmt.Sprintf("p50=%.4f%s p%s=%.4f%s (n=%d, %d beyond p%s)",
		s.quantile(0.5), unit, pct(q), v, unit, s.n(), beyond, pct(q))
}

// pct formats a quantile as a percentile label: 0.99 → "99", 0.999 → "99.9".
func pct(q float64) string {
	return fmt.Sprintf("%.4g", q*100)
}

// medianTail returns the median over parts of each part's tail (see tail),
// the percentile the first part's tail is, and its samples beyond it. A run
// holds several parts — replays, or one-second stretches of a request
// schedule — so the median of their tails is far steadier than one
// order statistic of the pooled samples.
func medianTail(parts []samples) (q, v float64, beyond int) {
	var tails []float64
	for i := range parts {
		pq, pv, pb := parts[i].tail()
		if i == 0 {
			q, beyond = pq, pb
		}
		tails = append(tails, pv)
	}
	return q, median(tails), beyond
}

// chunks splits xs into consecutive parts of size n (the last part may be
// larger, absorbing the remainder).
func chunks(xs []float64, n int) []samples {
	var out []samples
	for len(xs) >= 2*n {
		out = append(out, samples{xs: append([]float64(nil), xs[:n]...)})
		xs = xs[n:]
	}
	return append(out, samples{xs: append([]float64(nil), xs...)})
}
