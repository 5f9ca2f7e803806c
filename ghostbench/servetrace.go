package main

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"time"

	"ghosts/internal/core"
	"ghosts/internal/fleet"
	"ghosts/internal/rng"
	"ghosts/internal/serve"
	"ghosts/internal/telemetry"
)

// spanKey and startKey carry a request's span id and Front.Estimate start
// time into the in-process compute hook.
type (
	spanKey  struct{}
	startKey struct{}
)

// tracedFront is an in-process serve.Front whose compute hook records how
// long each computing request waited for admission and how long the
// computation took.
type tracedFront struct {
	front   *serve.Front
	reqs    map[string]*serve.EstimateRequest
	mu      sync.Mutex
	wait    samples
	compute samples
}

func newTracedFront(b *bench, corpus []corpusEntry) (*tracedFront, error) {
	tf := &tracedFront{reqs: make(map[string]*serve.EstimateRequest, len(corpus))}
	for i := range corpus {
		req := new(serve.EstimateRequest)
		if err := json.Unmarshal(corpus[i].body, req); err != nil {
			return nil, err
		}
		tf.reqs[corpus[i].key] = req
	}
	tf.front = serve.NewFront(serve.FrontConfig{
		CacheSize: 2 * serveCacheSize, // the fleet's capacity
		Slots:     2,                  // one per worker
		Compute: func(ctx context.Context, req *serve.EstimateRequest) (*serve.EstimateResponse, error) {
			t0 := time.Now()
			parent, _ := ctx.Value(spanKey{}).(int)
			id := b.tr.begin("serve.compute", parent, 0)
			resp, err := serve.Compute(ctx, req)
			b.tr.end(id)
			d := time.Since(t0)
			tf.mu.Lock()
			if st, ok := ctx.Value(startKey{}).(time.Time); ok {
				tf.wait.add(t0.Sub(st))
			}
			tf.compute.add(d)
			tf.mu.Unlock()
			return resp, err
		},
	})
	return tf, nil
}

// send calls Front.Estimate for a corpus entry; the request was decoded
// once up front, so the path holds only the Front's layers.
func (tf *tracedFront) send(ctx context.Context, e *corpusEntry) (reply, error) {
	ctx = context.WithValue(ctx, startKey{}, time.Now())
	body, status, err := tf.front.Estimate(ctx, tf.reqs[e.key])
	if errors.Is(err, serve.ErrSaturated) {
		return reply{status: http.StatusServiceUnavailable}, nil
	}
	if err != nil {
		return reply{}, err
	}
	return reply{status: http.StatusOK, body: body, cache: string(status)}, nil
}

// traceServe is the traced serve pass: the nominal request sequence sent
// routed, then direct to each key's owner worker, then through an
// in-process serve.Front. Each layer's share is the difference between
// adjacent paths' median latencies.
func traceServe(b *bench, f *serveFleet, corpus []corpusEntry, shots []shot, client *http.Client, primary bool) {
	routed := httpSender(client, func(*corpusEntry) string { return f.router.url }, f)
	var untraced *phase
	if primary {
		saved := b.tr
		b.tr = newTracer(false)
		untraced = drive(b, shots, corpus, routed, "serve.routed")
		b.tr = saved
	}
	rt := drive(b, shots, corpus, routed, "serve.routed")
	serveTail(b, &rt.lat, true)
	owner := make(map[string]string)
	for i, s := range shots {
		if w := rt.worker[i]; w != "" {
			owner[corpus[s.entry].key] = w
		}
	}
	direct := httpSender(client, func(e *corpusEntry) string { return owner[e.key] }, f)
	dp := drive(b, shots, corpus, direct, "serve.direct")
	reps := reconcileFleet(b, f)

	tf, err := newTracedFront(b, corpus)
	if err != nil {
		b.problem("serve: in-process front: %v", err)
		return
	}
	warm(b, corpus, tf.send, rng.New(b.seed^0x3a3a))
	tf.wait, tf.compute = samples{}, samples{}
	fp := drive(b, shots, corpus, tf.send, "serve.front")

	b.note("traced serve p50: routed %.4fms, direct %.4fms, in-process %.4fms (n=%d each)",
		rt.lat.quantile(0.5), dp.lat.quantile(0.5), fp.lat.quantile(0.5), len(shots))
	b.set("fleet.route_ms", "ms", rt.lat.quantile(0.5)-dp.lat.quantile(0.5))
	b.set("server.http_ms", "ms", dp.lat.quantile(0.5)-fp.lat.quantile(0.5))
	_, qw, _ := tf.wait.tail()
	b.set("serve.queue_wait_ms", "ms", qw)
	b.note("serve.queue_wait_ms (admission wait of computing requests): %s", tf.wait.describe("ms"))
	b.set("serve.compute_ms", "ms", tf.compute.quantile(0.5))
	b.note("serve.compute_ms (in-process misses): %s", tf.compute.describe("ms"))
	b.set("serve.shed", "count", float64(rt.shed+dp.shed+fp.shed))
	_, lag, _ := rt.lag.tail()
	b.set("gen.lag_ms", "ms", lag)
	b.note("gen.lag_ms (timer lateness of idle connections, routed pass): %s", rt.lag.describe("ms"))
	serveMicro(b, corpus)

	if reps == nil {
		return
	}
	router, workers := reps[0], sumReports(reps[1:])
	served := workers.Serve.CacheHits + workers.Serve.CacheMisses + workers.Serve.Coalesced + workers.Fleet.PeerFills
	b.set("serve.cache_hit_ratio", "ratio", float64(workers.Serve.CacheHits)/float64(served))
	b.note("serve.cache_hit_ratio: base %d worker-served requests", served)
	b.set("serve.cache_evictions", "count", float64(workers.Serve.CacheEvictions))
	b.set("serve.coalesced", "count", float64(workers.Serve.Coalesced))
	per1k := func(n int64) float64 { return 1000 * float64(n) / float64(router.Fleet.Forwards) }
	b.set("fleet.retries", "1/1k", per1k(router.Fleet.Retries))
	b.set("fleet.hedges", "1/1k", per1k(router.Fleet.Hedges))
	b.set("fleet.failovers", "1/1k", per1k(router.Fleet.Failovers))
	b.note("fleet.retries/hedges/failovers: per 1000 of %d routed forwards", router.Fleet.Forwards)
	rounds := workers.Fleet.PeerFills + workers.Fleet.PeerFillMisses
	ratio := 0.0
	if rounds > 0 {
		ratio = float64(workers.Fleet.PeerFills) / float64(rounds)
	}
	b.set("fleet.peer_fill_ratio", "ratio", ratio)
	b.note("fleet.peer_fill_ratio: base %d peer-fill rounds", rounds)
	if primary {
		b.set("trace.overhead_pct", "%", 100*(rt.lat.quantile(0.5)-untraced.lat.quantile(0.5))/untraced.lat.quantile(0.5))
		b.note("trace.overhead_pct: traced routed p50 %.4fms vs untraced %.4fms", rt.lat.quantile(0.5), untraced.lat.quantile(0.5))
		coreCounts(b, workers)
		b.set("parallel.utilization", "ratio", workers.Parallel.Utilization)
		b.note("parallel.utilization: base %d fan-outs, %.1f ms fan-out wall", workers.Parallel.FanOuts, workers.Parallel.WallMS)
		var tables []coreInput
		for _, e := range corpus[:14] {
			req := e.resp.Request
			tables = append(tables, coreInput{tb: core.TableFromHistogram(req.Counts, req.Sources), est: estimatorOf(req)})
		}
		coreBreakdown(b, tables)
	}
}

// serveMicro times the request-side helpers of the serve and fleet layers
// on every corpus entry: Normalize, Key, response Encode, and the
// bounded-load ring lookup.
func serveMicro(b *bench, corpus []corpusEntry) {
	var norm, key, enc, ring samples
	r := fleet.NewRing(0)
	r.SetLive("http://127.0.0.1:1", true)
	r.SetLive("http://127.0.0.1:2", true)
	bal := fleet.NewBalancer(r, 1.25)
	for i := range corpus {
		e := &corpus[i]
		var req serve.EstimateRequest
		if err := json.Unmarshal(e.body, &req); err != nil {
			b.problem("serve: corpus body: %v", err)
			return
		}
		t0 := time.Now()
		err := req.Normalize()
		norm.addValue(micros(time.Since(t0)))
		t0 = time.Now()
		k := req.Key()
		key.addValue(micros(time.Since(t0)))
		if err != nil || k != e.key {
			b.problem("serve: corpus entry %d re-normalizes to another key", i)
		}
		t0 = time.Now()
		e.resp.Encode()
		enc.addValue(micros(time.Since(t0)))
		t0 = time.Now()
		bal.Sequence(e.key, 3)
		ring.addValue(micros(time.Since(t0)))
	}
	b.set("serve.normalize_us", "us", norm.quantile(0.5))
	b.set("serve.key_us", "us", key.quantile(0.5))
	b.set("serve.encode_us", "us", enc.quantile(0.5))
	b.set("fleet.ring_us", "us", ring.quantile(0.5))
	b.note("serve.normalize_us/key_us/encode_us, fleet.ring_us: p50 over %d corpus entries", len(corpus))
}

// sumReports adds up the worker reports' counters that the per-layer
// metrics read.
func sumReports(reps []*telemetry.Report) *telemetry.Report {
	s := new(telemetry.Report)
	var busy, wall float64
	for _, r := range reps {
		s.Serve.CacheHits += r.Serve.CacheHits
		s.Serve.CacheMisses += r.Serve.CacheMisses
		s.Serve.CacheEvictions += r.Serve.CacheEvictions
		s.Serve.Coalesced += r.Serve.Coalesced
		s.Fleet.PeerFills += r.Fleet.PeerFills
		s.Fleet.PeerFillMisses += r.Fleet.PeerFillMisses
		s.Select.CandidateFits += r.Select.CandidateFits
		s.Select.Rounds += r.Select.Rounds
		s.Fit.SweepWarmStarts += r.Fit.SweepWarmStarts
		s.Fit.Count += r.Fit.Count
		s.Fit.NonConverged += r.Fit.NonConverged
		s.Fit.Iterations.Sum += r.Fit.Iterations.Sum
		s.Pool.Gets += r.Pool.Gets
		s.Pool.Misses += r.Pool.Misses
		s.Parallel.FanOuts += r.Parallel.FanOuts
		s.Parallel.WallMS += r.Parallel.WallMS
		busy += r.Parallel.BusyMS
		wall += r.Parallel.WallMS * float64(max(r.Workers, 1))
	}
	if s.Pool.Gets > 0 {
		s.Pool.HitRate = float64(s.Pool.Gets-s.Pool.Misses) / float64(s.Pool.Gets)
	}
	if wall > 0 {
		s.Parallel.Utilization = busy / wall
	}
	return s
}
