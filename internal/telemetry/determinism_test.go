package telemetry_test

import (
	"context"
	"testing"

	"ghosts/internal/core"
	"ghosts/internal/telemetry"
)

// sampleTable builds a deterministic 4-source capture-history table with
// every observable cell populated.
func sampleTable() *core.Table {
	tb := core.NewTable(4)
	for s := 1; s < len(tb.Counts); s++ {
		tb.Counts[s] = int64((s*7919)%100 + 1)
	}
	return tb
}

type estimate struct {
	n, unseen, ic, lo, hi float64
	terms                 []int
}

func runEstimate(t *testing.T) estimate {
	t.Helper()
	res, err := core.DefaultEstimator(5000).Run(context.Background(), sampleTable(), core.RunOptions{Interval: true})
	if err != nil {
		t.Fatal(err)
	}
	return estimate{
		n: res.N, unseen: res.Unseen, ic: res.IC,
		lo: res.Interval.Lo, hi: res.Interval.Hi,
		terms: res.Model.Terms,
	}
}

// TestEstimateIdenticalWithTelemetry is the core guarantee of the
// telemetry layer: enabling a recorder must not perturb a single bit of
// the estimation results.
func TestEstimateIdenticalWithTelemetry(t *testing.T) {
	telemetry.Disable()
	off := runEstimate(t)

	rec := telemetry.NewRecorder()
	telemetry.Enable(rec)
	defer telemetry.Disable()
	on := runEstimate(t)

	if off.n != on.n || off.unseen != on.unseen || off.ic != on.ic {
		t.Fatalf("point estimate differs with telemetry on: off=%+v on=%+v", off, on)
	}
	if off.lo != on.lo || off.hi != on.hi {
		t.Fatalf("interval differs with telemetry on: off=[%v,%v] on=[%v,%v]", off.lo, off.hi, on.lo, on.hi)
	}
	if len(off.terms) != len(on.terms) {
		t.Fatalf("selected model differs: off=%v on=%v", off.terms, on.terms)
	}
	for i := range off.terms {
		if off.terms[i] != on.terms[i] {
			t.Fatalf("selected model differs: off=%v on=%v", off.terms, on.terms)
		}
	}

	// And the recorder must actually have observed the work.
	if rec.Fits.Load() == 0 {
		t.Fatal("recorder saw no GLM fits")
	}
	if rec.Selections.Load() == 0 || rec.SelectRounds.Load() == 0 {
		t.Fatal("recorder saw no model selection")
	}
	if rec.PoolGets.Load() == 0 {
		t.Fatal("recorder saw no pool checkouts")
	}
}

// TestBootstrapIdenticalWithTelemetry repeats the guarantee for the
// parametric bootstrap, whose RNG stream must be untouched by metrics.
func TestBootstrapIdenticalWithTelemetry(t *testing.T) {
	tb := sampleTable()
	fit, err := core.FitModel(tb, core.IndependenceModel(4), 5000, 1)
	if err != nil {
		t.Fatal(err)
	}

	telemetry.Disable()
	off, err := core.BootstrapIntervalCtx(context.Background(), tb, fit, 5000, 200, 0.95, 42)
	if err != nil {
		t.Fatal(err)
	}

	rec := telemetry.NewRecorder()
	telemetry.Enable(rec)
	defer telemetry.Disable()
	on, err := core.BootstrapIntervalCtx(context.Background(), tb, fit, 5000, 200, 0.95, 42)
	if err != nil {
		t.Fatal(err)
	}

	if off.Lo != on.Lo || off.Hi != on.Hi {
		t.Fatalf("bootstrap interval differs with telemetry on: off=[%v,%v] on=[%v,%v]", off.Lo, off.Hi, on.Lo, on.Hi)
	}
	if rec.BootstrapReplicates.Load() != 200 {
		t.Fatalf("recorder counted %d replicates, want 200", rec.BootstrapReplicates.Load())
	}
}
