package serve

import (
	"context"
	"errors"
	"time"

	"ghosts/internal/telemetry"
)

// Status says how an estimate response was produced. Responses are
// byte-identical across all three, so the status travels out of band (the
// server puts it in the X-Ghosts-Cache header, never the body).
type Status string

const (
	// StatusComputed: this request ran the estimator itself.
	StatusComputed Status = "miss"
	// StatusHit: served from the result cache.
	StatusHit Status = "hit"
	// StatusCoalesced: waited on an identical in-flight computation.
	StatusCoalesced Status = "coalesced"
	// StatusPeer: filled from a fleet peer's cache instead of computing —
	// the stored encoded bytes travelled verbatim, so the body is still
	// byte-identical to every other path (FLEET.md documents the protocol).
	StatusPeer Status = "peer"
)

// FrontConfig configures a Front. Zero values select the defaults noted on
// each field.
type FrontConfig struct {
	CacheSize int           // result-cache entries; default 256, negative disables
	CacheTTL  time.Duration // result lifetime; default 15m, negative disables expiry
	Slots     int           // concurrent computations; default 1
	MaxQueue  int           // admission-queue depth; default 64, negative disables queueing
	// Compute overrides the estimator invocation (tests use it to count,
	// gate and fault-inject underlying fits); default is Compute. The
	// context is the computing request's — implementations must honour it
	// cooperatively.
	Compute func(context.Context, *EstimateRequest) (*EstimateResponse, error)
	// PeerFill, when set, is consulted on a cache miss before computing:
	// given the canonical request key it may return another fleet member's
	// stored encoded response bytes (internal/fleet.PeerFiller does this
	// over GET /v1/cache/{key}). The bytes are cached and served verbatim
	// with Status "peer", so only one node in a fleet ever computes a given
	// estimate. It runs under the single-flight leader but outside the
	// admission gate — a peer fetch must not burn a compute slot.
	PeerFill func(ctx context.Context, key string) ([]byte, bool)
}

// Front is the estimation front-end: canonical keys, result cache,
// single-flight deduplication and admission control, in that order. One
// Front serves both the HTTP handlers and the async job runner.
type Front struct {
	cache    *Cache
	flights  flightGroup
	gate     *Gate
	compute  func(context.Context, *EstimateRequest) (*EstimateResponse, error)
	peerFill func(context.Context, string) ([]byte, bool)
}

// NewFront builds a Front from cfg.
func NewFront(cfg FrontConfig) *Front {
	size := cfg.CacheSize
	if size == 0 {
		size = 256
	}
	ttl := cfg.CacheTTL
	if ttl == 0 {
		ttl = 15 * time.Minute
	}
	slots := cfg.Slots
	if slots == 0 {
		slots = 1
	}
	queue := cfg.MaxQueue
	if queue == 0 {
		queue = 64
	} else if queue < 0 {
		queue = 0
	}
	comp := cfg.Compute
	if comp == nil {
		comp = Compute
	}
	return &Front{
		cache:    NewCache(size, ttl),
		gate:     NewGate(slots, queue),
		compute:  comp,
		peerFill: cfg.PeerFill,
	}
}

// Estimate normalises req and returns the encoded response bytes. The
// fast path is a cache hit; otherwise identical concurrent requests share
// one computation (single-flight) and computations are throttled by the
// admission gate. The returned bytes are shared and must not be mutated.
//
// The request context propagates into the compute path: a canceled ctx
// stops an in-flight fit at its next cooperative checkpoint. Failed
// computations (including recovered panics, surfaced as *PanicError) are
// never stored in the result cache, so a follow-up identical request
// recomputes. A follower is not failed by the *leader's* cancellation:
// when the leader's client vanishes mid-compute, followers whose own
// contexts are still live retry — one of them becomes the next leader.
func (f *Front) Estimate(ctx context.Context, req *EstimateRequest) ([]byte, Status, error) {
	if err := req.Normalize(); err != nil {
		return nil, "", err
	}
	key := req.Key()
	for {
		if b, ok := f.cache.Get(key); ok {
			telemetry.Active().CacheHit()
			return b, StatusHit, nil
		}
		// The leader reports how it produced the bytes (peer fill vs local
		// compute) through this variable; followers receive the coalesced
		// status either way.
		leaderStatus := StatusComputed
		b, err, shared := f.flights.Do(ctx, key, func() ([]byte, error) {
			if f.peerFill != nil {
				if b, ok := f.peerFill(ctx, key); ok {
					telemetry.Active().PeerFill(true)
					f.cache.Put(key, b)
					leaderStatus = StatusPeer
					return b, nil
				}
				telemetry.Active().PeerFill(false)
			}
			if err := f.gate.Acquire(ctx); err != nil {
				return nil, err
			}
			defer f.gate.Release()
			telemetry.Active().CacheMiss()
			resp, err := f.compute(ctx, req)
			if err != nil {
				return nil, err
			}
			enc := resp.Encode()
			f.cache.Put(key, enc)
			return enc, nil
		})
		if err != nil {
			if shared && ctx.Err() == nil && errors.Is(err, context.Canceled) {
				// The leader's context died, not ours: its cancellation is
				// an accident of queueing order, not a property of the
				// computation. Go around again with our live context.
				continue
			}
			return nil, "", err
		}
		if shared {
			telemetry.Active().CoalescedFollower()
			return b, StatusCoalesced, nil
		}
		return b, leaderStatus, nil
	}
}

// AcquireSlot claims a compute slot from the admission gate for work that
// bypasses Estimate (the async job runner), so jobs and synchronous
// requests contend under one bound.
func (f *Front) AcquireSlot(ctx context.Context) error { return f.gate.Acquire(ctx) }

// ReleaseSlot returns a slot claimed with AcquireSlot.
func (f *Front) ReleaseSlot() { f.gate.Release() }

// Cached returns the stored encoded response bytes for a canonical request
// key, refreshing its recency, without ever computing. It backs the
// fleet-internal GET /v1/cache/{key} endpoint: peers receive the exact
// bytes this node would serve, which is what keeps routed, peer-filled and
// failover responses byte-identical. The bytes are shared — callers must
// not mutate them.
func (f *Front) Cached(key string) ([]byte, bool) { return f.cache.Get(key) }

// Load is a point-in-time saturation snapshot of the front-end: compute
// slots held vs available, admission-queue occupancy vs bound, and cache
// fill. The /v1/loadz endpoint serves it so the fleet router and the load
// generator can see per-worker pressure.
type Load struct {
	SlotsBusy    int `json:"slots_busy"`
	Slots        int `json:"slots"`
	QueueWaiting int `json:"queue_waiting"`
	QueueCap     int `json:"queue_cap"`
	CacheLen     int `json:"cache_len"`
}

// Load reports the front-end's current admission and cache occupancy.
func (f *Front) Load() Load {
	return Load{
		SlotsBusy:    f.gate.InUse(),
		Slots:        f.gate.Slots(),
		QueueWaiting: f.gate.Waiting(),
		QueueCap:     f.gate.QueueCap(),
		CacheLen:     f.cache.Len(),
	}
}
