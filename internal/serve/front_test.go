package serve

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingCompute wraps the real Compute with an invocation counter and an
// optional entry gate, so tests can pin exactly how many underlying core
// fits a traffic pattern triggers.
type countingCompute struct {
	calls atomic.Int64
	gate  chan struct{} // when non-nil, compute blocks until it can receive
}

func (cc *countingCompute) fn(ctx context.Context, req *EstimateRequest) (*EstimateResponse, error) {
	cc.calls.Add(1)
	if cc.gate != nil {
		<-cc.gate
	}
	return Compute(ctx, req)
}

func TestFrontCacheHitByteIdentity(t *testing.T) {
	cc := &countingCompute{}
	f := NewFront(FrontConfig{Compute: cc.fn})
	cold, st, err := f.Estimate(context.Background(), threeSourceRequest())
	if err != nil {
		t.Fatal(err)
	}
	if st != StatusComputed {
		t.Fatalf("first request status = %q, want %q", st, StatusComputed)
	}
	hit, st, err := f.Estimate(context.Background(), threeSourceRequest())
	if err != nil {
		t.Fatal(err)
	}
	if st != StatusHit {
		t.Fatalf("second request status = %q, want %q", st, StatusHit)
	}
	if !bytes.Equal(cold, hit) {
		t.Fatal("cache hit bytes differ from cold-compute bytes")
	}
	if n := cc.calls.Load(); n != 1 {
		t.Fatalf("%d core fits, want exactly 1", n)
	}
}

// TestFrontSingleFlight pins the acceptance criterion: N concurrent
// identical requests trigger exactly one underlying core fit, and every
// response is byte-identical.
func TestFrontSingleFlight(t *testing.T) {
	const n = 8
	cc := &countingCompute{gate: make(chan struct{})}
	f := NewFront(FrontConfig{Compute: cc.fn})

	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		bodies    [][]byte
		statuses  []Status
		firstErrs []error
	)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			b, st, err := f.Estimate(context.Background(), threeSourceRequest())
			mu.Lock()
			bodies = append(bodies, b)
			statuses = append(statuses, st)
			firstErrs = append(firstErrs, err)
			mu.Unlock()
		}()
	}
	// Wait until the leader is inside compute and every other request is
	// parked on its in-flight call, then let the leader finish: all eight
	// must be served by that single fit.
	deadline := time.Now().Add(10 * time.Second)
	for cc.calls.Load() == 0 || f.flights.waiters.Load() < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("requests never coalesced: %d fits, %d waiters",
				cc.calls.Load(), f.flights.waiters.Load())
		}
		time.Sleep(time.Millisecond)
	}
	close(cc.gate)
	wg.Wait()

	if got := cc.calls.Load(); got != 1 {
		t.Fatalf("%d core fits for %d concurrent identical requests, want exactly 1", got, n)
	}
	for i, err := range firstErrs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("response %d differs from response 0", i)
		}
	}
	computed, coalesced := 0, 0
	for _, st := range statuses {
		switch st {
		case StatusComputed:
			computed++
		case StatusCoalesced:
			coalesced++
		}
	}
	if computed != 1 || coalesced != n-1 {
		t.Fatalf("statuses = %v, want 1 computed and %d coalesced", statuses, n-1)
	}
}

func TestFrontValidationErrorSurfaces(t *testing.T) {
	f := NewFront(FrontConfig{})
	_, _, err := f.Estimate(context.Background(), &EstimateRequest{Counts: []int64{1, 2, 3}})
	var reqErr *RequestError
	if !errors.As(err, &reqErr) {
		t.Fatalf("err = %v, want *RequestError", err)
	}
}

func TestFrontDistinctRequestsBothCompute(t *testing.T) {
	cc := &countingCompute{}
	f := NewFront(FrontConfig{Compute: cc.fn})
	a := threeSourceRequest()
	b := threeSourceRequest()
	b.Limit = 6000
	if _, _, err := f.Estimate(context.Background(), a); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Estimate(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	if n := cc.calls.Load(); n != 2 {
		t.Fatalf("%d fits for two distinct requests, want 2", n)
	}
	if f.cache.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", f.cache.Len())
	}
}

func TestGateSaturation(t *testing.T) {
	g := NewGate(1, 1)
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	// One waiter is admitted to the queue...
	waiterIn := make(chan error, 1)
	go func() { waiterIn <- g.Acquire(context.Background()) }()
	deadline := time.Now().Add(5 * time.Second)
	for g.Waiting() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	// ...and the next caller is shed immediately.
	if err := g.Acquire(context.Background()); !errors.Is(err, ErrSaturated) {
		t.Fatalf("err = %v, want ErrSaturated", err)
	}
	g.Release()
	if err := <-waiterIn; err != nil {
		t.Fatalf("queued waiter failed: %v", err)
	}
	g.Release()
}

func TestGateContextCancel(t *testing.T) {
	g := NewGate(1, 4)
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- g.Acquire(ctx) }()
	deadline := time.Now().Add(5 * time.Second)
	for g.Waiting() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	g.Release()
}
