package experiments

import (
	"context"
	"fmt"
	"io"
	"math"

	"ghosts/internal/core"
	"ghosts/internal/dataset"
	"ghosts/internal/report"
	"ghosts/internal/sources"
)

// EstimatorsData compares the whole estimator family against the known
// ground truth at the final window — the comparison the paper could only
// approximate through cross-validation, made exact by the synthetic
// universe. It extends the paper's baselines (Heidemann ×1.86,
// Lincoln-Petersen) with Chao's lower bound and the Chao-Lee
// sample-coverage estimator.
type EstimatorsData struct {
	WindowLabel string
	Truth       float64
	Rows        []EstimatorRow
}

// EstimatorRow is one estimator's outcome.
type EstimatorRow struct {
	Name     string
	Estimate float64
	// ErrPct is the signed relative error versus the truth.
	ErrPct float64
}

// Estimators runs every estimator on the final window's address data.
func Estimators(e *Env) *EstimatorsData {
	last := len(e.Win) - 1
	b := e.Bundle(last, dataset.DefaultOptions())
	tb := core.TableFromSets(b.Sets, b.NameStrings())
	truth := float64(e.U.UsedAt(b.Window.End).Len())
	d := &EstimatorsData{WindowLabel: b.Window.Label(), Truth: truth}
	add := func(name string, v float64) {
		row := EstimatorRow{Name: name, Estimate: v}
		if truth > 0 && !math.IsInf(v, 0) {
			row.ErrPct = 100 * (v - truth) / truth
		}
		d.Rows = append(d.Rows, row)
	}

	add("Observed union", float64(tb.Observed()))
	pingIdx, webIdx := -1, -1
	for i, n := range b.Names {
		switch n {
		case sources.IPING:
			pingIdx = i
		case sources.WEB:
			webIdx = i
		}
	}
	if pingIdx >= 0 {
		add("Heidemann 1.86 x ping", core.PingCorrection(int64(b.Sets[pingIdx].Len())))
	}
	if pingIdx >= 0 && webIdx >= 0 {
		add("Lincoln-Petersen (IPING x WEB)", core.LincolnPetersenPair(tb, pingIdx, webIdx))
	}
	add("Chao lower bound", core.ChaoLowerBound(tb))
	add("Sample coverage (Chao-Lee)", core.SampleCoverage(tb))
	if res, err := e.Estimator(float64(b.RoutedAddrs)).Run(context.Background(), tb, core.RunOptions{}); err == nil {
		add("Log-linear CR (paper)", res.N)
	}
	return d
}

// Render writes the comparison table.
func (d *EstimatorsData) Render(w io.Writer) {
	t := report.Table{
		Title:   fmt.Sprintf("Estimator comparison at %s (truth: %s used addresses)", d.WindowLabel, report.FormatFloat(d.Truth)),
		Headers: []string{"Estimator", "Estimate", "Error vs truth"},
	}
	for _, r := range d.Rows {
		t.AddRow(r.Name, report.FormatFloat(r.Estimate), fmt.Sprintf("%+.1f%%", r.ErrPct))
	}
	t.Render(w)
}
