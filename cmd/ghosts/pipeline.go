package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"ghosts/internal/core"
	"ghosts/internal/dataset"
	"ghosts/internal/experiments"
	"ghosts/internal/ipset"
	"ghosts/internal/report"
	"ghosts/internal/serve"
)

// The two-stage pipeline: `-collect <dir>` simulates the final window's
// nine sources and persists each observation set as <dir>/<SOURCE>.gset
// (the ipset binary codec); `-estimate <dir>` later loads whatever .gset
// files are present and runs the estimator on them. This is the shape of a
// real deployment, where collection and estimation are separated by months
// and machines — and it means the estimator can be pointed at *real*
// observation sets, not just simulated ones.

// collect writes the final window's observation sets into dir.
func collect(env *experiments.Env, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b := env.Bundle(len(env.Win)-1, dataset.DefaultOptions())
	for i, name := range b.Names {
		path := filepath.Join(dir, string(name)+".gset")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if _, err := b.Sets[i].WriteTo(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		st, _ := os.Stat(path)
		fmt.Printf("wrote %-28s %9d addresses, %8d bytes\n", path, b.Sets[i].Len(), st.Size())
	}
	// The routed-space bound travels with the data.
	meta := filepath.Join(dir, "routed.txt")
	if err := os.WriteFile(meta, []byte(fmt.Sprintf("%d %d\n", b.RoutedAddrs, b.Routed24)), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (truncation bounds)\n", meta)
	return nil
}

// estimate loads every .gset in dir and runs the paper-default estimator.
// With jsonOut, the result is emitted as the ghosts.api/v1 estimate
// envelope through the same serve.Compute/Encode path the ghostsd daemon
// uses, so CLI and server responses are byte-identical for the same data.
func estimate(dir string, jsonOut bool) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var names []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".gset") {
			names = append(names, e.Name())
		}
	}
	if len(names) < 2 {
		return fmt.Errorf("need at least two .gset files in %s, found %d", dir, len(names))
	}
	sort.Strings(names)
	var sets []*ipset.Set
	var labels []string
	for _, n := range names {
		f, err := os.Open(filepath.Join(dir, n))
		if err != nil {
			return err
		}
		s := ipset.New()
		_, err = s.ReadFrom(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
		sets = append(sets, s)
		labels = append(labels, strings.TrimSuffix(n, ".gset"))
	}
	limit := math.Inf(1)
	if raw, err := os.ReadFile(filepath.Join(dir, "routed.txt")); err == nil {
		var addrs, s24 uint64
		if _, err := fmt.Sscan(string(raw), &addrs, &s24); err == nil && addrs > 0 {
			limit = float64(addrs)
		}
	}

	tb := core.TableFromSets(sets, labels)
	if jsonOut {
		req := &serve.EstimateRequest{Sources: labels, Counts: tb.Counts}
		if !math.IsInf(limit, 1) {
			req.Limit = limit
		}
		if err := req.Normalize(); err != nil {
			return err
		}
		resp, err := serve.Compute(context.Background(), req)
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(resp.Encode())
		return err
	}
	t := report.Table{Title: "Loaded observation sets", Headers: []string{"Source", "Addresses", "/24s"}}
	for i, l := range labels {
		t.AddRow(l, report.Group(int64(sets[i].Len())), report.Group(int64(sets[i].Slash24Len())))
	}
	t.Render(os.Stdout)

	est := core.DefaultEstimator(limit)
	res, err := est.Run(context.Background(), tb, core.RunOptions{Interval: true})
	if err != nil {
		return err
	}
	fmt.Printf("\nObserved by any source: %s\n", report.Group(res.Observed))
	fmt.Printf("CR estimate:            %s  [%s, %s]\n",
		report.FormatFloat(res.N), report.FormatFloat(res.Interval.Lo), report.FormatFloat(res.Interval.Hi))
	fmt.Printf("Ghosts (unseen):        %s\n", report.FormatFloat(res.Unseen))
	terms := "independence"
	if len(res.Model.Terms) > 0 {
		parts := make([]string, len(res.Model.Terms))
		for i, h := range res.Model.Terms {
			parts[i] = core.TermName(h)
		}
		terms = strings.Join(parts, " ")
	}
	fmt.Printf("Selected model:         %s (divisor %g)\n", terms, res.Divisor)

	// Pairwise dependence diagnostics (§3.2.2).
	dep := core.Dependence(tb)
	d := report.Table{Title: "\nPairwise source dependence (log odds ratios)", Headers: append([]string{""}, labels...)}
	for i, l := range labels {
		row := []string{l}
		for j := range labels {
			row = append(row, fmt.Sprintf("%+.2f", dep[i][j]))
		}
		d.AddRow(row...)
	}
	d.Render(os.Stdout)
	return nil
}
