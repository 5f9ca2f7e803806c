package telemetry

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// active is the process-wide recorder consulted by the instrumented hot
// paths. A nil pointer means telemetry is disabled; the instrumentation
// then costs one atomic load per emission point.
var active atomic.Pointer[Recorder]

// Enable installs r as the process-wide recorder. Passing nil disables
// telemetry (same as Disable).
func Enable(r *Recorder) { active.Store(r) }

// Disable removes the process-wide recorder; subsequent emissions are
// no-ops.
func Disable() { active.Store(nil) }

// Active returns the installed recorder, or nil when telemetry is
// disabled. All Recorder methods are nil-safe, so callers may chain
// without checking: telemetry.Active().FitDone(it, ok).
func Active() *Recorder { return active.Load() }

// Counter is an atomic monotonic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous level: unlike a Counter it goes up and
// down (slots in use, queue occupancy, live fleet members). The zero value
// is ready for use.
type Gauge struct{ v atomic.Int64 }

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Set replaces the gauge's value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Timer accumulates monotonic durations: total nanoseconds and the number
// of measured intervals.
type Timer struct{ nanos, count atomic.Int64 }

// Add records one measured interval.
func (t *Timer) Add(d time.Duration) {
	t.nanos.Add(int64(d))
	t.count.Add(1)
}

// Total returns the accumulated duration.
func (t *Timer) Total() time.Duration { return time.Duration(t.nanos.Load()) }

// Count returns the number of recorded intervals.
func (t *Timer) Count() int64 { return t.count.Load() }

// histBuckets is the number of power-of-two histogram buckets. Bucket i
// covers values v with bits.Len64(v) == i, i.e. upper bound 2^i − 1; the
// last bucket also absorbs everything larger. 24 buckets cover 0..2^24−1,
// far beyond any Fisher-iteration or IC-delta magnitude seen in practice.
const histBuckets = 24

// Histogram counts observations in power-of-two buckets and tracks count,
// sum and max. The zero value is ready for use; all methods are safe for
// concurrent use.
type Histogram struct {
	count, sum, max atomic.Int64
	buckets         [histBuckets]atomic.Int64
}

// Observe records a value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	i := bits.Len64(uint64(v))
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Max returns the largest observed value (0 when empty).
func (h *Histogram) Max() int64 { return h.max.Load() }

// Mean returns the arithmetic mean of the observations (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Bucket is one non-empty histogram bucket: N observations with value
// ≤ Le (and greater than the previous bucket's bound).
type Bucket struct {
	Le int64 `json:"le"`
	N  int64 `json:"n"`
}

// HistogramSnapshot is a point-in-time copy of a Histogram, in the shape
// the JSON run report uses.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Mean    float64  `json:"mean"`
	Max     int64    `json:"max"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Quantile returns an upper bound on the q-quantile of the observations:
// the upper bound of the power-of-two bucket holding the ⌈q·count⌉-th
// smallest value, clamped to the observed maximum. It is coarse by design
// (buckets double), but monotone in q and cheap enough for a load
// generator to derive p50/p99 from the same histograms the run report
// snapshots. Returns 0 when the histogram is empty; q is clamped to (0,1].
func (h *Histogram) Quantile(q float64) int64 { return h.Snapshot().Quantile(q) }

// Quantile is Histogram.Quantile over a snapshot.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		q = 1e-9
	}
	if q > 1 {
		q = 1
	}
	target := int64(q * float64(s.Count))
	if float64(target) < q*float64(s.Count) || target == 0 {
		target++
	}
	var cum int64
	for _, b := range s.Buckets {
		cum += b.N
		if cum >= target {
			if b.Le > s.Max {
				return s.Max
			}
			return b.Le
		}
	}
	return s.Max
}

// Snapshot copies the histogram's current state, keeping only non-empty
// buckets (in ascending bound order, so the output is deterministic).
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Mean:  h.Mean(),
		Max:   h.max.Load(),
	}
	for i := 0; i < histBuckets; i++ {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, Bucket{Le: 1<<uint(i) - 1, N: n})
		}
	}
	return s
}

// Phase aggregates one named pipeline phase: accumulated wall time across
// calls and a caller-defined item count (windows estimated, replicates
// drawn, sources held out, ...).
type Phase struct {
	Time  Timer
	Items Counter
}

// Recorder is one run's worth of metrics. The zero value is ready; all
// fields and methods are safe for concurrent use, and every method is a
// no-op on a nil receiver so disabled telemetry costs nothing beyond the
// Active() pointer load.
//
// OBSERVABILITY.md documents each metric's name, unit and emission point.
type Recorder struct {
	// GLM kernel (stats.Lattice.Fit).
	Fits            Counter   // completed Fisher-scoring fits
	FitIters        Histogram // iterations per fit
	FitNonConverged Counter   // fits that hit the iteration cap or stalled
	WarmStartSaved  Counter   // Fisher iterations saved by warm-started profile evals
	SweepWarmStarts Counter   // final fits warm-started from an adjacent window's fit

	// Stratified sweeps (strata.CaptureHistograms).
	HistogramFolds Counter // labeled capture-histogram folds (one per window×key pass)

	// Fit scratch pool (core fit path).
	PoolGets   Counter // scratch checkouts
	PoolMisses Counter // checkouts that had to allocate

	// Stepwise model selection (core.SelectModel).
	Selections    Counter   // completed selection searches
	SelectRounds  Counter   // forward-stepwise rounds across searches
	CandidateFits Counter   // candidate terms fitted across rounds
	TermsAccepted Counter   // rounds that accepted a term
	Screened      Counter   // candidate fits stopped early by screening
	Polished      Counter   // screened candidate fits resumed to convergence
	ICImprovement Histogram // IC drop per accepted term, rounded to integer IC units

	// Parametric bootstrap (core.BootstrapInterval).
	BootstrapReplicates Counter // replicates drawn
	BootstrapFailures   Counter // replicates discarded (empty resample or failed refit)

	// Worker pool (parallel.ForEach).
	FanOuts Counter // ForEach invocations
	Tasks   Counter // iterations executed across fan-outs
	Busy    Timer   // summed task execution time across workers
	Wall    Timer   // summed fan-out wall time (one interval per ForEach)

	// Serving layer (internal/serve front-end, internal/server handlers).
	HTTPRequests   Counter   // requests handled (all routes)
	HTTPErrors     Counter   // requests that ended in a 4xx/5xx
	HTTPLatencyUS  Histogram // per-request latency, microseconds
	CacheHits      Counter   // estimate responses served from the result cache
	CacheMisses    Counter   // estimate requests that had to compute
	CacheEvictions Counter   // cache entries dropped (LRU pressure or TTL)
	Coalesced      Counter   // single-flight followers served by a leader's fit
	QueueDepth     Histogram // admission-queue waiters sampled at enqueue
	JobsRun        Counter   // async jobs that reached a terminal state
	JobsFailed     Counter   // async jobs that ended in failure or cancellation
	SlotsBusy      Gauge     // admission-gate compute slots currently held
	QueueWaiting   Gauge     // callers currently queued behind the admission gate

	// Fleet (internal/fleet: router forwarding on the router process, peer
	// cache fill on worker processes).
	FleetForwards  Counter // estimate requests forwarded to a worker
	FleetRetries   Counter // forward attempts relaunched after a retryable failure
	FleetHedges    Counter // hedge attempts launched against a slow worker
	FleetFailovers Counter // responses served by a non-primary ring candidate
	FleetExhausted Counter // forwards that ran out of candidate workers
	FleetMembers   Gauge   // ring members currently passing /readyz
	FleetJoins     Counter // workers registered via POST /v1/fleet/join (new members, not renewals)
	FleetLeaves    Counter // workers deregistered via POST /v1/fleet/leave
	FleetExpiries  Counter // dynamic members dropped because their lease lapsed
	PeerFills      Counter // cache misses answered from a fleet peer's cache
	PeerFillMisses Counter // peer-fill rounds that found no stored copy

	// Failure containment (single-flight leader, job runner, HTTP
	// middleware; estimate handler error mapping).
	Panics           Counter // panics recovered and converted to failed responses
	RequestsCanceled Counter // estimates abandoned because the client went away (499)
	RequestsTimedOut Counter // estimates that hit the compute deadline (504)

	// Streaming ingest (internal/ingest pipeline, /v1/watch SSE).
	IngestEvents          Counter   // capture events accepted into a live window
	IngestDropped         Counter   // events discarded (late arrivals, source overflow, clock skew)
	IngestRotations       Counter   // live windows retired from the ring
	IngestHistUpdates     Counter   // O(1) incremental capture-histogram updates applied by Offer
	IngestWindowsParallel Gauge     // dirty windows the most recent tick re-estimated concurrently
	TickLatencyUS         Histogram // per-tick re-estimation latency, microseconds
	WatchSubscribers      Counter   // /v1/watch SSE subscriptions opened
	WatchTicksShed        Counter   // tick frames shed to slow subscribers
	WatchDeltas           Counter   // /v1/watch frames sent as deltas instead of full ticks

	mu     sync.Mutex
	phases map[string]*Phase
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// FitDone records one completed GLM fit.
func (r *Recorder) FitDone(iterations int, converged bool) {
	if r == nil {
		return
	}
	r.Fits.Inc()
	r.FitIters.Observe(int64(iterations))
	if !converged {
		r.FitNonConverged.Inc()
	}
}

// WarmStartSavedIters records Fisher iterations avoided because a profile
// evaluation warm-started from the previous bisection step's coefficients
// (the first, cold evaluation's iteration count minus this one's, floored
// at zero).
func (r *Recorder) WarmStartSavedIters(n int) {
	if r == nil || n <= 0 {
		return
	}
	r.WarmStartSaved.Add(int64(n))
}

// SweepWarmStart records a final model fit seeded with an adjacent sweep
// step's converged coefficients (same selected model on the neighbouring
// window of a series), instead of a cold start.
func (r *Recorder) SweepWarmStart() {
	if r == nil {
		return
	}
	r.SweepWarmStarts.Inc()
}

// HistogramFold records one labeled capture-histogram pass: a single
// merged-page fold that replaces a full per-stratum Split of the source
// sets for one (window, key) pair.
func (r *Recorder) HistogramFold() {
	if r == nil {
		return
	}
	r.HistogramFolds.Inc()
}

// PoolGet records one fit-scratch checkout.
func (r *Recorder) PoolGet() {
	if r == nil {
		return
	}
	r.PoolGets.Inc()
}

// PoolMiss records a checkout that allocated a fresh scratch (a sync.Pool
// miss). Hits are PoolGets − PoolMisses.
func (r *Recorder) PoolMiss() {
	if r == nil {
		return
	}
	r.PoolMisses.Inc()
}

// SelectRound records one forward-stepwise round that fitted candidates
// candidate terms.
func (r *Recorder) SelectRound(candidates int) {
	if r == nil {
		return
	}
	r.SelectRounds.Inc()
	r.CandidateFits.Add(int64(candidates))
}

// CandidatesScreened records n candidate fits of one round that stopped
// early by screening (stats.Lattice.Screen).
func (r *Recorder) CandidatesScreened(n int) {
	if r == nil {
		return
	}
	r.Screened.Add(int64(n))
}

// CandidatesPolished records n screened candidate fits resumed to
// convergence (stats.Lattice.Polish).
func (r *Recorder) CandidatesPolished(n int) {
	if r == nil {
		return
	}
	r.Polished.Add(int64(n))
}

// TermAccepted records an accepted interaction term and the IC improvement
// it brought (icDrop ≥ 0, in IC units; the histogram stores it rounded).
func (r *Recorder) TermAccepted(icDrop float64) {
	if r == nil {
		return
	}
	r.TermsAccepted.Inc()
	r.ICImprovement.Observe(int64(icDrop + 0.5))
}

// SelectionDone records one completed model-selection search.
func (r *Recorder) SelectionDone() {
	if r == nil {
		return
	}
	r.Selections.Inc()
}

// BootstrapDone records one bootstrap run of total replicates, failed of
// which were discarded.
func (r *Recorder) BootstrapDone(total, failed int) {
	if r == nil {
		return
	}
	r.BootstrapReplicates.Add(int64(total))
	r.BootstrapFailures.Add(int64(failed))
}

// FanOut records a ForEach dispatching tasks iterations.
func (r *Recorder) FanOut(tasks int) {
	if r == nil {
		return
	}
	r.FanOuts.Inc()
	r.Tasks.Add(int64(tasks))
}

// TaskDone records one task's execution time.
func (r *Recorder) TaskDone(d time.Duration) {
	if r == nil {
		return
	}
	r.Busy.Add(d)
}

// FanOutDone records one ForEach's wall time.
func (r *Recorder) FanOutDone(wall time.Duration) {
	if r == nil {
		return
	}
	r.Wall.Add(wall)
}

// HTTPDone records one handled HTTP request: its route (folded into the
// per-route "http.<route>" phase), wall latency, and whether it ended in an
// error status. The latency histogram is process-wide across routes.
func (r *Recorder) HTTPDone(route string, d time.Duration, errored bool) {
	if r == nil {
		return
	}
	r.HTTPRequests.Inc()
	if errored {
		r.HTTPErrors.Inc()
	}
	r.HTTPLatencyUS.Observe(int64(d / time.Microsecond))
	r.AddPhase("http."+route, d, 1)
}

// CacheHit records an estimate served straight from the result cache.
func (r *Recorder) CacheHit() {
	if r == nil {
		return
	}
	r.CacheHits.Inc()
}

// CacheMiss records an estimate that had to be computed.
func (r *Recorder) CacheMiss() {
	if r == nil {
		return
	}
	r.CacheMisses.Inc()
}

// CacheEvicted records n cache entries dropped by LRU pressure or TTL.
func (r *Recorder) CacheEvicted(n int) {
	if r == nil {
		return
	}
	r.CacheEvictions.Add(int64(n))
}

// CoalescedFollower records a request that waited on another request's
// identical in-flight computation instead of starting its own.
func (r *Recorder) CoalescedFollower() {
	if r == nil {
		return
	}
	r.Coalesced.Inc()
}

// QueueSampled records the number of admission-queue waiters observed when
// a request asked for a compute slot.
func (r *Recorder) QueueSampled(waiting int) {
	if r == nil {
		return
	}
	r.QueueDepth.Observe(int64(waiting))
}

// PanicRecovered records a panic caught by one of the serving path's
// recovery points (single-flight leader, job runner, HTTP middleware)
// instead of crashing or wedging the process.
func (r *Recorder) PanicRecovered() {
	if r == nil {
		return
	}
	r.Panics.Inc()
}

// RequestCanceled records an estimate abandoned on its own context's
// cancellation (the client disconnected or shutdown interrupted it).
func (r *Recorder) RequestCanceled() {
	if r == nil {
		return
	}
	r.RequestsCanceled.Inc()
}

// RequestTimedOut records an estimate that exceeded the per-request
// compute deadline.
func (r *Recorder) RequestTimedOut() {
	if r == nil {
		return
	}
	r.RequestsTimedOut.Inc()
}

// IngestEvent records one capture event accepted into a live window of the
// streaming ingest pipeline.
func (r *Recorder) IngestEvent() {
	if r == nil {
		return
	}
	r.IngestEvents.Inc()
}

// IngestEventDropped records a capture event the ingest pipeline or its
// feed discarded: it arrived after its window was retired, no source slot
// was free, or its timestamp was implausibly far in the future.
func (r *Recorder) IngestEventDropped() {
	if r == nil {
		return
	}
	r.IngestDropped.Inc()
}

// IngestRotated records n window rotations (each retires one previously
// live window from the ring; filling an unfull ring rotates nothing, and a
// quiet period retires at most the ring size at once).
func (r *Recorder) IngestRotated(n int) {
	if r == nil || n <= 0 {
		return
	}
	r.IngestRotations.Add(int64(n))
}

// IngestHistUpdate records one incremental capture-histogram update: an
// accepted event moved one count between histogram cells instead of
// marking the window for a full set fold at the next tick.
func (r *Recorder) IngestHistUpdate() {
	if r == nil {
		return
	}
	r.IngestHistUpdates.Inc()
}

// IngestTickParallel records how many dirty windows the most recent tick
// re-estimated through the worker pool (0 when every window was clean,
// 1 when the tick ran serially).
func (r *Recorder) IngestTickParallel(n int) {
	if r == nil {
		return
	}
	r.IngestWindowsParallel.Set(int64(n))
}

// TickDone records one streaming re-estimation tick's wall latency.
func (r *Recorder) TickDone(d time.Duration) {
	if r == nil {
		return
	}
	r.TickLatencyUS.Observe(int64(d / time.Microsecond))
}

// WatchSubscribed records a new /v1/watch SSE subscription.
func (r *Recorder) WatchSubscribed() {
	if r == nil {
		return
	}
	r.WatchSubscribers.Inc()
}

// WatchTickShed records a tick frame dropped instead of delivered because
// a subscriber's buffer was full (the slow consumer loses ticks rather
// than stalling ingest).
func (r *Recorder) WatchTickShed() {
	if r == nil {
		return
	}
	r.WatchTicksShed.Inc()
}

// WatchDeltaEmitted records one /v1/watch frame sent as a delta — only
// the windows whose estimate changed since the subscriber's previous
// frame — instead of a full tick.
func (r *Recorder) WatchDeltaEmitted() {
	if r == nil {
		return
	}
	r.WatchDeltas.Inc()
}

// GateSlots moves the slot-occupancy gauge: +1 when the admission gate
// hands out a compute slot, −1 when it is released. The gauge is the
// per-instance saturation signal the fleet router's shed/hedge decisions
// and the loadgen report read (one Gate per process in practice).
func (r *Recorder) GateSlots(delta int64) {
	if r == nil {
		return
	}
	r.SlotsBusy.Add(delta)
}

// GateQueue moves the queue-occupancy gauge: +1 when a caller starts
// waiting for a compute slot, −1 when it stops (admitted, shed or
// canceled). Unlike the QueueDepth histogram — samples at enqueue — this
// is the live level.
func (r *Recorder) GateQueue(delta int64) {
	if r == nil {
		return
	}
	r.QueueWaiting.Add(delta)
}

// FleetForwarded records one estimate request the router forwarded into
// the fleet (counted once per request, not per attempt).
func (r *Recorder) FleetForwarded() {
	if r == nil {
		return
	}
	r.FleetForwards.Inc()
}

// FleetRetried records a forward attempt relaunched on the next ring
// candidate after a retryable failure (connection error, 503 shed, 504
// compute timeout).
func (r *Recorder) FleetRetried() {
	if r == nil {
		return
	}
	r.FleetRetries.Inc()
}

// FleetHedged records a hedge attempt launched because the current attempt
// had not answered within the hedge delay.
func (r *Recorder) FleetHedged() {
	if r == nil {
		return
	}
	r.FleetHedges.Inc()
}

// FleetFailedOver records a routed response served by a worker other than
// the key's primary ring candidate.
func (r *Recorder) FleetFailedOver() {
	if r == nil {
		return
	}
	r.FleetFailovers.Inc()
}

// FleetGaveUp records a forward that exhausted every candidate worker
// without a servable response (the router answers 502/503).
func (r *Recorder) FleetGaveUp() {
	if r == nil {
		return
	}
	r.FleetExhausted.Inc()
}

// FleetMembersNow sets the live-member gauge after a probe pass.
func (r *Recorder) FleetMembersNow(n int) {
	if r == nil {
		return
	}
	r.FleetMembers.Set(int64(n))
}

// FleetJoined records a new worker registering with the router's dynamic
// membership registry (heartbeat renewals are not counted).
func (r *Recorder) FleetJoined() {
	if r == nil {
		return
	}
	r.FleetJoins.Inc()
}

// FleetLeft records a worker deregistering from the membership registry
// (the drain-time POST /v1/fleet/leave).
func (r *Recorder) FleetLeft() {
	if r == nil {
		return
	}
	r.FleetLeaves.Inc()
}

// FleetLeaseExpired records a dynamic member dropped from the registry
// because its lease lapsed without a heartbeat.
func (r *Recorder) FleetLeaseExpired() {
	if r == nil {
		return
	}
	r.FleetExpiries.Inc()
}

// PeerFill records one peer cache-fill round on a worker: hit means a peer
// returned stored bytes and the local compute was skipped.
func (r *Recorder) PeerFill(hit bool) {
	if r == nil {
		return
	}
	if hit {
		r.PeerFills.Inc()
	} else {
		r.PeerFillMisses.Inc()
	}
}

// JobFinished records one async job reaching a terminal state; ok is false
// for failed or cancelled jobs.
func (r *Recorder) JobFinished(ok bool) {
	if r == nil {
		return
	}
	r.JobsRun.Inc()
	if !ok {
		r.JobsFailed.Inc()
	}
}

// phase returns the named phase, creating it on first use.
func (r *Recorder) phase(name string) *Phase {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.phases == nil {
		r.phases = make(map[string]*Phase)
	}
	p, ok := r.phases[name]
	if !ok {
		p = &Phase{}
		r.phases[name] = p
	}
	return p
}

// AddPhase folds a finished interval into the named phase directly —
// Span.End uses it, and tests and out-of-process mergers can inject
// deterministic durations through it.
func (r *Recorder) AddPhase(name string, d time.Duration, items int64) {
	if r == nil {
		return
	}
	p := r.phase(name)
	p.Time.Add(d)
	p.Items.Add(items)
}

// phaseNames returns the recorded phase names in sorted order.
func (r *Recorder) phaseNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.phases))
	for n := range r.phases {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Span is an in-flight phase measurement. The zero Span (from a nil
// recorder) is inert.
type Span struct {
	r    *Recorder
	name string
	t0   time.Time
}

// StartSpan begins timing the named phase. End the span exactly once.
func (r *Recorder) StartSpan(name string) Span {
	if r == nil {
		return Span{}
	}
	return Span{r: r, name: name, t0: time.Now()}
}

// End stops the span and folds its wall time plus the processed item count
// into the phase.
func (s Span) End(items int64) {
	if s.r == nil {
		return
	}
	s.r.AddPhase(s.name, time.Since(s.t0), items)
}
