package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"ghosts/internal/parallel"
	"ghosts/internal/rng"
)

// TestSelectModelDeterministicAcrossWorkers is the engine's central
// guarantee: the parallel candidate scan must pick the same model, with
// bit-identical IC and coefficients, as the serial one.
func TestSelectModelDeterministicAcrossWorkers(t *testing.T) {
	defer parallel.SetWorkers(0)
	r := rng.New(77)
	base := []float64{0.08, 0.1, 0.25, 0.2, 0.15}
	hot := []float64{0.55, 0.6, 0.27, 0.22, 0.15}
	tb := sampleTable(r, 250000, base, hot, 0.3)
	opt := SelectionOptions{IC: AIC, Divisor: Fixed10, Limit: math.Inf(1)}

	parallel.SetWorkers(1)
	serialModel, serialIC, err := SelectModelCtx(context.Background(), tb, opt)
	if err != nil {
		t.Fatal(err)
	}
	serialFit, err := FitModel(tb, serialModel, math.Inf(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		parallel.SetWorkers(workers)
		m, ic, err := SelectModelCtx(context.Background(), tb, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m.Terms, serialModel.Terms) || m.T != serialModel.T {
			t.Fatalf("workers=%d selected %v, serial selected %v", workers, m.Terms, serialModel.Terms)
		}
		if ic != serialIC {
			t.Fatalf("workers=%d IC = %v, serial IC = %v (must be bit-identical)", workers, ic, serialIC)
		}
		fit, err := FitModel(tb, m, math.Inf(1), 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fit.Coef, serialFit.Coef) {
			t.Fatalf("workers=%d coefficients differ from serial fit", workers)
		}
		if fit.N != serialFit.N {
			t.Fatalf("workers=%d N = %v, serial N = %v", workers, fit.N, serialFit.N)
		}
	}
}

// TestEstimateDeterministicAcrossWorkers exercises the full Estimate path
// (selection + fit + profile interval) under both modes.
func TestEstimateDeterministicAcrossWorkers(t *testing.T) {
	defer parallel.SetWorkers(0)
	r := rng.New(909)
	tb := sampleTable(r, 120000, []float64{0.2, 0.3, 0.25, 0.15}, nil, 0)
	est := NewEstimator(BIC, Adaptive1000, math.Inf(1))

	parallel.SetWorkers(1)
	serial, err := est.Run(context.Background(), tb, RunOptions{Interval: true})
	if err != nil {
		t.Fatal(err)
	}
	parallel.SetWorkers(8)
	par, err := est.Run(context.Background(), tb, RunOptions{Interval: true})
	if err != nil {
		t.Fatal(err)
	}
	if serial.N != par.N || serial.IC != par.IC {
		t.Fatalf("parallel estimate (N=%v IC=%v) differs from serial (N=%v IC=%v)",
			par.N, par.IC, serial.N, serial.IC)
	}
	if serial.Interval != par.Interval {
		t.Fatalf("parallel interval %+v differs from serial %+v", par.Interval, serial.Interval)
	}
}

// TestBootstrapDeterministicAcrossWorkers: replicate streams are derived
// with rng.Split before the fan-out, so the interval is a pure function of
// the seed.
func TestBootstrapDeterministicAcrossWorkers(t *testing.T) {
	defer parallel.SetWorkers(0)
	r := rng.New(31)
	tb := sampleTable(r, 50000, []float64{0.3, 0.25, 0.2}, nil, 0)
	fit, err := FitModel(tb, IndependenceModel(3), math.Inf(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel.SetWorkers(1)
	serial, err := BootstrapIntervalCtx(context.Background(), tb, fit, math.Inf(1), 60, 0.9, 5)
	if err != nil {
		t.Fatal(err)
	}
	parallel.SetWorkers(8)
	par, err := BootstrapIntervalCtx(context.Background(), tb, fit, math.Inf(1), 60, 0.9, 5)
	if err != nil {
		t.Fatal(err)
	}
	if serial != par {
		t.Fatalf("parallel bootstrap %+v differs from serial %+v", par, serial)
	}
}

// TestWarmStartInsertsZeroColumn checks the coefficient-vector surgery the
// stepwise search performs when adding a term: the parent coefficients must
// be preserved and a zero inserted exactly at the new term's design column.
func TestWarmStartInsertsZeroColumn(t *testing.T) {
	cur := IndependenceModel(3).With(0b011) // columns: 1 intercept + 3 mains + u{1,2}
	coef := []float64{10, 1, 2, 3, 44}      // parent fit, design order

	// Adding 0b101 sorts after 0b011: zero goes to the last column.
	cand := cur.With(0b101)
	got := warmStart(cur, cand, 0b101, coef)
	want := []float64{10, 1, 2, 3, 44, 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("warmStart append-position = %v, want %v", got, want)
	}

	// Adding 0b110 from {0b011, 0b101}: sorted terms are {011, 101, 110},
	// so the zero lands after both existing interaction coefficients.
	cur2 := IndependenceModel(3).With(0b011).With(0b101)
	coef2 := []float64{10, 1, 2, 3, 44, 55}
	cand2 := cur2.With(0b110)
	got = warmStart(cur2, cand2, 0b110, coef2)
	want = []float64{10, 1, 2, 3, 44, 55, 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("warmStart end-position = %v, want %v", got, want)
	}

	// Adding 0b011 to {0b101}: the new term sorts FIRST in the interaction
	// block, so the zero must displace the existing interaction coefficient.
	cur3 := IndependenceModel(3).With(0b101)
	coef3 := []float64{10, 1, 2, 3, 55}
	cand3 := cur3.With(0b011)
	got = warmStart(cur3, cand3, 0b011, coef3)
	want = []float64{10, 1, 2, 3, 0, 55}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("warmStart front-position = %v, want %v", got, want)
	}
}

// budgetCtx is a context whose Err flips to context.Canceled after a fixed
// number of Err() calls — a deterministic way to trigger cancellation at an
// exact cooperative checkpoint, since the ctx-aware engine entry points
// poll Err() at every checkpoint and nowhere else.
type budgetCtx struct {
	context.Context
	remaining atomic.Int64
}

func newBudgetCtx(n int64) *budgetCtx {
	c := &budgetCtx{Context: context.Background()}
	c.remaining.Store(n)
	return c
}

func (c *budgetCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestCanceledContextAborts: a context that is dead on arrival must stop
// every ctx-aware entry point before any work, returning its error.
func TestCanceledContextAborts(t *testing.T) {
	r := rng.New(31)
	tb := sampleTable(r, 50000, []float64{0.3, 0.25, 0.2}, nil, 0)
	fit, err := FitModel(tb, IndependenceModel(3), math.Inf(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, _, err := SelectModelCtx(ctx, tb, SelectionOptions{IC: AIC, Divisor: Fixed10, Limit: math.Inf(1)}); !errors.Is(err, context.Canceled) {
		t.Fatalf("SelectModelCtx err = %v, want context.Canceled", err)
	}
	est := NewEstimator(AIC, Fixed10, math.Inf(1))
	if _, err := est.Run(ctx, tb, RunOptions{Interval: true}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run err = %v, want context.Canceled", err)
	}
	if _, err := est.Run(ctx, tb, RunOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run (point) err = %v, want context.Canceled", err)
	}
	if _, err := BootstrapIntervalCtx(ctx, tb, fit, math.Inf(1), 40, 0.9, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("BootstrapIntervalCtx err = %v, want context.Canceled", err)
	}
	if _, err := ProfileIntervalScaledCtx(ctx, tb, fit, math.Inf(1), 1e-7, math.Inf(1), 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("ProfileIntervalScaledCtx err = %v, want context.Canceled", err)
	}
}

// TestCancellationStopsAtCheckpoint: cancelling partway through must stop
// the engine at its next cooperative checkpoint — not run to completion.
// budgetCtx flips to canceled after a handful of checkpoint polls, so a
// successful return here would mean the search stopped consulting its
// context mid-flight.
func TestCancellationStopsAtCheckpoint(t *testing.T) {
	defer parallel.SetWorkers(0)
	parallel.SetWorkers(1) // serial: the checkpoint sequence is deterministic
	r := rng.New(77)
	tb := sampleTable(r, 250000, []float64{0.08, 0.1, 0.25, 0.2, 0.15}, []float64{0.55, 0.6, 0.27, 0.22, 0.15}, 0.3)

	for _, budget := range []int64{1, 3, 8} {
		ctx := newBudgetCtx(budget)
		_, _, err := SelectModelCtx(ctx, tb, SelectionOptions{IC: AIC, Divisor: Fixed10, Limit: math.Inf(1)})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("budget=%d: SelectModelCtx err = %v, want context.Canceled", budget, err)
		}
	}
	est := NewEstimator(AIC, Fixed10, math.Inf(1))
	if _, err := est.Run(newBudgetCtx(5), tb, RunOptions{Interval: true}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run err = %v, want context.Canceled", err)
	}
	fit, err := FitModel(tb, IndependenceModel(tb.T), math.Inf(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BootstrapIntervalCtx(newBudgetCtx(5), tb, fit, math.Inf(1), 40, 0.9, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("BootstrapIntervalCtx err = %v, want context.Canceled", err)
	}
	if _, err := ProfileIntervalScaledCtx(newBudgetCtx(5), tb, fit, math.Inf(1), 1e-7, math.Inf(1), 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("ProfileIntervalScaledCtx err = %v, want context.Canceled", err)
	}
}
