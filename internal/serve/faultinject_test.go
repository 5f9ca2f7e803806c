package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ghosts/internal/telemetry"
)

// Fault-injection harness for the serving path: faultCompute scripts the
// behaviour of the compute function call by call (block, fail, panic,
// observe cancellation), so tests can stage exact failure interleavings
// against the cache / single-flight / gate stack. Call i runs steps[i];
// the last step repeats for any further calls.
type faultCompute struct {
	calls atomic.Int64
	steps []computeStep
}

type computeStep func(ctx context.Context, req *EstimateRequest) (*EstimateResponse, error)

func (fc *faultCompute) fn(ctx context.Context, req *EstimateRequest) (*EstimateResponse, error) {
	i := int(fc.calls.Add(1)) - 1
	if i >= len(fc.steps) {
		i = len(fc.steps) - 1
	}
	return fc.steps[i](ctx, req)
}

// TestLeaderPanicReleasesFollowers pins the central containment guarantee:
// a panic inside the leader's compute is recovered into a *PanicError that
// reaches the leader AND every coalesced follower (nobody wedges), the
// panic counter ticks once, nothing is cached, and the very next request
// for the same key computes fresh — proving the in-flight key was removed
// and the failure was not cached.
func TestLeaderPanicReleasesFollowers(t *testing.T) {
	rec := telemetry.NewRecorder()
	telemetry.Enable(rec)
	defer telemetry.Disable()

	started := make(chan struct{})
	release := make(chan struct{})
	fc := &faultCompute{steps: []computeStep{
		func(context.Context, *EstimateRequest) (*EstimateResponse, error) {
			close(started)
			<-release
			panic("injected: leader blew up mid-fit")
		},
		Compute, // recovery path: the retry after the panic must succeed
	}}
	f := NewFront(FrontConfig{Compute: fc.fn})

	const n = 6
	var wg sync.WaitGroup
	errs := make([]error, n)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = f.Estimate(context.Background(), threeSourceRequest())
		}(i)
	}
	<-started
	waitFor(t, "followers to coalesce", func() bool { return f.flights.waiters.Load() >= n-1 })
	close(release)
	wg.Wait()

	for i, err := range errs {
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("request %d: err = %v, want *PanicError", i, err)
		}
		if len(pe.Stack) == 0 {
			t.Fatalf("request %d: PanicError carries no stack", i)
		}
	}
	if got := rec.Panics.Load(); got != 1 {
		t.Fatalf("panic counter = %d, want 1 (one recovery serves the whole burst)", got)
	}
	if f.cache.Len() != 0 {
		t.Fatalf("cache holds %d entries after a failed compute, want 0", f.cache.Len())
	}

	// The key must be free again: a follow-up request becomes a new leader
	// and succeeds via the second (healthy) step.
	b, st, err := f.Estimate(context.Background(), threeSourceRequest())
	if err != nil {
		t.Fatalf("post-panic request: %v", err)
	}
	if st != StatusComputed || len(b) == 0 {
		t.Fatalf("post-panic request status = %q (%d bytes), want fresh compute", st, len(b))
	}
	if got := fc.calls.Load(); got != 2 {
		t.Fatalf("%d compute calls, want 2 (panicking leader + recovery)", got)
	}
}

// TestFollowerCancelReturnsPromptly: a follower whose own request dies must
// stop waiting immediately with its ctx error, while the leader keeps
// computing and lands its result in the cache for the next caller.
func TestFollowerCancelReturnsPromptly(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	fc := &faultCompute{steps: []computeStep{
		func(ctx context.Context, req *EstimateRequest) (*EstimateResponse, error) {
			close(started)
			<-release
			return Compute(ctx, req)
		},
	}}
	f := NewFront(FrontConfig{Compute: fc.fn})

	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := f.Estimate(context.Background(), threeSourceRequest())
		leaderDone <- err
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	followerDone := make(chan error, 1)
	go func() {
		_, _, err := f.Estimate(ctx, threeSourceRequest())
		followerDone <- err
	}()
	waitFor(t, "follower to park", func() bool { return f.flights.waiters.Load() == 1 })

	cancel()
	select {
	case err := <-followerDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("follower err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled follower still waiting on the leader")
	}

	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader should be unaffected by the follower's exit: %v", err)
	}
	if f.cache.Len() != 1 {
		t.Fatalf("leader's result not cached (len = %d)", f.cache.Len())
	}
}

// TestLeaderCancelSparesFollowers: when the *leader's* client vanishes
// mid-compute, its cancellation must not fail followers whose contexts are
// still live — a follower retries, becomes the new leader, and completes.
func TestLeaderCancelSparesFollowers(t *testing.T) {
	started := make(chan struct{})
	fc := &faultCompute{steps: []computeStep{
		func(ctx context.Context, req *EstimateRequest) (*EstimateResponse, error) {
			close(started)
			<-ctx.Done() // honour cancellation like the real engine
			return nil, ctx.Err()
		},
		Compute, // the promoted follower's run
	}}
	f := NewFront(FrontConfig{Compute: fc.fn})

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := f.Estimate(leaderCtx, threeSourceRequest())
		leaderDone <- err
	}()
	<-started

	type outcome struct {
		st  Status
		err error
	}
	followerDone := make(chan outcome, 1)
	go func() {
		_, st, err := f.Estimate(context.Background(), threeSourceRequest())
		followerDone <- outcome{st, err}
	}()
	waitFor(t, "follower to park", func() bool { return f.flights.waiters.Load() == 1 })

	cancelLeader()
	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	select {
	case out := <-followerDone:
		if out.err != nil {
			t.Fatalf("live follower inherited the leader's cancellation: %v", out.err)
		}
		if out.st != StatusComputed {
			t.Fatalf("follower status = %q, want %q (it must have become the new leader)", out.st, StatusComputed)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("follower never completed after the leader's cancellation")
	}
	if got := fc.calls.Load(); got != 2 {
		t.Fatalf("%d compute calls, want 2 (canceled leader + promoted follower)", got)
	}
}

// TestGateAcquireDeadContext: a context that is already dead must be
// refused on the fast path even when a slot is free — and the free slot
// must not be consumed by the refusal.
func TestGateAcquireDeadContext(t *testing.T) {
	g := NewGate(1, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := g.Acquire(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Acquire(dead ctx) = %v, want context.Canceled", err)
	}
	// The slot is still available for a live caller.
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatalf("slot was leaked to the refused caller: %v", err)
	}
	g.Release()
}

// TestFailedComputeNotCached: compute errors must never be stored — an
// identical follow-up request recomputes and can succeed.
func TestFailedComputeNotCached(t *testing.T) {
	injected := errors.New("injected: transient fit failure")
	fc := &faultCompute{steps: []computeStep{
		func(context.Context, *EstimateRequest) (*EstimateResponse, error) { return nil, injected },
		Compute,
	}}
	f := NewFront(FrontConfig{Compute: fc.fn})

	if _, _, err := f.Estimate(context.Background(), threeSourceRequest()); !errors.Is(err, injected) {
		t.Fatalf("first request err = %v, want the injected failure", err)
	}
	if f.cache.Len() != 0 {
		t.Fatalf("failed compute was cached (len = %d)", f.cache.Len())
	}
	b, st, err := f.Estimate(context.Background(), threeSourceRequest())
	if err != nil {
		t.Fatalf("identical follow-up request: %v", err)
	}
	if st != StatusComputed || len(b) == 0 {
		t.Fatalf("follow-up status = %q, want a fresh compute", st)
	}
	if got := fc.calls.Load(); got != 2 {
		t.Fatalf("%d compute calls, want 2 (failure + recompute)", got)
	}
}

// TestDeadlockSmoke is the bounded-time regression net for the
// leader-panic deadlock: repeated coalesced bursts, each with the leader
// panicking mid-flight, must fully complete — every waiter released, the
// key freed, the next burst healthy — well within the deadline. Run under
// -race in CI (scripts/ci.sh pins this).
func TestDeadlockSmoke(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for round := 0; round < 3; round++ {
			started := make(chan struct{})
			release := make(chan struct{})
			fc := &faultCompute{steps: []computeStep{
				func(context.Context, *EstimateRequest) (*EstimateResponse, error) {
					close(started)
					<-release
					panic("injected: smoke-test leader panic")
				},
				Compute,
			}}
			f := NewFront(FrontConfig{Compute: fc.fn})

			const n = 8
			var wg sync.WaitGroup
			wg.Add(n)
			for i := 0; i < n; i++ {
				go func() {
					defer wg.Done()
					f.Estimate(context.Background(), threeSourceRequest())
				}()
			}
			<-started
			waitFor(t, "burst to coalesce", func() bool { return f.flights.waiters.Load() >= n-1 })
			close(release)
			wg.Wait()
			// The panicked key must be reusable immediately.
			if _, _, err := f.Estimate(context.Background(), threeSourceRequest()); err != nil {
				t.Errorf("round %d: post-panic request failed: %v", round, err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("deadlock: coalesced panic bursts did not complete in time")
	}
}
