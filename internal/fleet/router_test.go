package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ghosts/internal/serve"
	"ghosts/internal/server"
	"ghosts/internal/telemetry"
)

// estimateBody mirrors the canonical serving-test request.
const estimateBody = `{
  "sources": ["A", "B", "C"],
  "counts": [0, 400, 350, 120, 300, 90, 80, 40],
  "limit": 5000
}`

// latePeer lets a worker's PeerFill target peers whose URLs are only
// known after every worker is listening (fronts are built first).
type latePeer struct{ pf atomic.Pointer[PeerFiller] }

func (l *latePeer) fill(ctx context.Context, key string) ([]byte, bool) {
	if p := l.pf.Load(); p != nil {
		return p.Fill(ctx, key)
	}
	return nil, false
}

// testWorker is one fleet member under httptest: a real server.Server with
// a counting compute and late-bound peer fill.
type testWorker struct {
	srv      *server.Server
	ts       *httptest.Server
	computes *atomic.Int64
	peers    *latePeer
}

func newTestWorker(t *testing.T) *testWorker {
	t.Helper()
	w := &testWorker{computes: &atomic.Int64{}, peers: &latePeer{}}
	front := serve.NewFront(serve.FrontConfig{
		Compute: func(ctx context.Context, req *serve.EstimateRequest) (*serve.EstimateResponse, error) {
			w.computes.Add(1)
			return serve.Compute(ctx, req)
		},
		PeerFill: w.peers.fill,
	})
	w.srv = server.New(server.Config{Front: front, Log: io.Discard})
	w.ts = httptest.NewServer(w.srv.Handler())
	t.Cleanup(w.ts.Close)
	return w
}

// newTestFleet boots n workers with peer fill wired to each other plus a
// router over all of them, already probed live.
func newTestFleet(t *testing.T, n int, cfg RouterConfig) ([]*testWorker, *Router, *httptest.Server) {
	t.Helper()
	workers := make([]*testWorker, n)
	urls := make([]string, n)
	for i := range workers {
		workers[i] = newTestWorker(t)
		urls[i] = workers[i].ts.URL
	}
	for i, w := range workers {
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		w.peers.pf.Store(NewPeerFiller(peers, 0, 0))
	}
	cfg.Workers = urls
	if cfg.ProbeEvery == 0 {
		cfg.ProbeEvery = time.Hour // membership changes only via ProbeNow
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = time.Millisecond
	}
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.ProbeNow(context.Background())
	if got := rt.ring.Live(); got != n {
		t.Fatalf("after initial probe Live = %d, want %d", got, n)
	}
	rts := httptest.NewServer(rt.mux)
	t.Cleanup(rts.Close)
	return workers, rt, rts
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/estimate", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func totalComputes(workers []*testWorker) int64 {
	var n int64
	for _, w := range workers {
		n += w.computes.Load()
	}
	return n
}

// TestFleetSingleComputeByteIdentity pins the headline acceptance
// criterion: however a request reaches the fleet — direct to a worker,
// routed cold, routed again, or routed after the owner drains — the
// response bytes are identical and the fleet performs exactly one core
// fit in total (peer fill moves bytes, never recomputes).
func TestFleetSingleComputeByteIdentity(t *testing.T) {
	workers, rt, rts := newTestFleet(t, 2, RouterConfig{})
	byURL := map[string]*testWorker{}
	for _, w := range workers {
		byURL[w.ts.URL] = w
	}

	// Direct to worker 0: the one and only compute.
	resp, base := post(t, workers[0].ts.URL, estimateBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("direct status %d: %s", resp.StatusCode, base)
	}
	if got := resp.Header.Get("X-Ghosts-Cache"); got != string(serve.StatusComputed) {
		t.Fatalf("direct X-Ghosts-Cache = %q", got)
	}
	if n := totalComputes(workers); n != 1 {
		t.Fatalf("computes after direct request = %d, want 1", n)
	}

	// Routed: the owner either has it cached (worker 0 owns the key) or
	// peer-fills from worker 0. Never a second fit.
	resp, routed := post(t, rts.URL, estimateBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed status %d: %s", resp.StatusCode, routed)
	}
	if !bytes.Equal(routed, base) {
		t.Fatalf("routed bytes differ from direct bytes:\n%s\nvs\n%s", routed, base)
	}
	status := resp.Header.Get("X-Ghosts-Cache")
	if status != string(serve.StatusHit) && status != string(serve.StatusPeer) {
		t.Fatalf("routed X-Ghosts-Cache = %q, want hit or peer", status)
	}
	owner := resp.Header.Get("X-Ghosts-Worker")
	if byURL[owner] == nil {
		t.Fatalf("X-Ghosts-Worker = %q, not a fleet member", owner)
	}
	if n := totalComputes(workers); n != 1 {
		t.Fatalf("computes after routed request = %d, want 1", n)
	}

	// Routed warm: the owner serves its cache.
	resp, warm := post(t, rts.URL, estimateBody)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(warm, base) {
		t.Fatalf("warm routed response diverged (status %d)", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Ghosts-Cache"); got != string(serve.StatusHit) {
		t.Fatalf("warm X-Ghosts-Cache = %q, want hit", got)
	}

	// Drain the owner; its keys rehash to the survivor, which either has
	// the bytes already or peer-fills them from the draining owner's
	// still-serving cache. Still no second fit.
	byURL[owner].srv.SetReady(false)
	rt.ProbeNow(context.Background())
	if got := rt.ring.Live(); got != 1 {
		t.Fatalf("after drain Live = %d, want 1", got)
	}
	resp, failover := post(t, rts.URL, estimateBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover status %d: %s", resp.StatusCode, failover)
	}
	if !bytes.Equal(failover, base) {
		t.Fatalf("failover bytes differ from direct bytes")
	}
	if got := resp.Header.Get("X-Ghosts-Worker"); got == owner {
		t.Fatalf("failover request still served by drained owner %s", got)
	}
	if n := totalComputes(workers); n != 1 {
		t.Fatalf("computes after failover = %d, want 1 (byte moves, not refits)", n)
	}
}

// drainBody returns a distinct request body per index (distinct limit →
// distinct canonical key).
func drainBody(i int) string {
	return fmt.Sprintf(`{"sources":["A","B","C"],"counts":[0,400,350,120,300,90,80,40],"limit":%d,"interval":false}`, 4000+i)
}

// TestFleetDrainMidRun is the membership satellite: a worker flips
// /readyz to draining while traffic is in flight. Requirements pinned
// here: no request is dropped (every response is 200), in-flight requests
// complete, and after the probe notices the drain every key routes to the
// survivor.
func TestFleetDrainMidRun(t *testing.T) {
	workers, rt, rts := newTestFleet(t, 2, RouterConfig{})
	const keys = 12
	const rounds = 4
	var wg sync.WaitGroup
	var failures atomic.Int64
	fire := func() {
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					for i := g; i < keys; i += 4 {
						resp, body := post(t, rts.URL, drainBody(i))
						if resp.StatusCode != http.StatusOK {
							t.Logf("request for key %d failed: %d %s", i, resp.StatusCode, body)
							failures.Add(1)
						}
					}
				}
			}(g)
		}
	}

	// Phase 1: both workers live, traffic flowing; drain worker 1 while
	// requests are in flight, then let the prober notice.
	fire()
	time.Sleep(10 * time.Millisecond)
	workers[1].srv.SetReady(false)
	rt.ProbeNow(context.Background())
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d requests failed across the drain", n)
	}
	if got := rt.ring.Live(); got != 1 {
		t.Fatalf("after drain Live = %d, want 1", got)
	}

	// Phase 2: all keys — including the drained worker's — must now be
	// served by the survivor, byte-identically.
	for i := 0; i < keys; i++ {
		resp, body := post(t, rts.URL, drainBody(i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-drain key %d: status %d: %s", i, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Ghosts-Worker"); got != workers[0].ts.URL {
			t.Fatalf("post-drain key %d served by %s, want survivor %s", i, got, workers[0].ts.URL)
		}
	}

	// Rejoin: the prober readmits the worker and keys flow back.
	workers[1].srv.SetReady(true)
	rt.ProbeNow(context.Background())
	if got := rt.ring.Live(); got != 2 {
		t.Fatalf("after rejoin Live = %d, want 2", got)
	}
}

// TestRouterRetriesSheddingWorker: a member that sheds every estimate with
// 503 (but passes /readyz) must not make routed requests fail — the
// router walks to the next ring candidate and the retry counter ticks.
func TestRouterRetriesSheddingWorker(t *testing.T) {
	rec := telemetry.NewRecorder()
	telemetry.Enable(rec)
	defer telemetry.Disable()

	healthy := newTestWorker(t)
	shedder := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			fmt.Fprintln(w, "ok")
			return
		}
		http.Error(w, "shed", http.StatusServiceUnavailable)
	}))
	t.Cleanup(shedder.Close)

	rt, err := NewRouter(RouterConfig{
		Workers:      []string{shedder.URL, healthy.ts.URL},
		RetryBackoff: time.Millisecond,
		ProbeEvery:   time.Hour,
		Log:          io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.ProbeNow(context.Background())
	rts := httptest.NewServer(rt.mux)
	t.Cleanup(rts.Close)

	for i := 0; i < 8; i++ {
		resp, body := post(t, rts.URL, drainBody(i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("key %d: status %d: %s", i, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Ghosts-Worker"); got != healthy.ts.URL {
			t.Fatalf("key %d served by %s, want the healthy worker", i, got)
		}
	}
	if rec.FleetRetries.Load() == 0 {
		t.Fatal("no retries recorded though half the ring sheds everything")
	}
	if rec.FleetFailovers.Load() == 0 {
		t.Fatal("no failovers recorded though the shedder owns some keys")
	}
}

// TestRouterEdgeValidation: malformed requests die at the router with the
// worker's error schema and are never forwarded; an empty ring answers
// 503; /readyz and /v1/fleet report membership.
func TestRouterEdgeValidation(t *testing.T) {
	workers, rt, rts := newTestFleet(t, 1, RouterConfig{})

	for _, tc := range []struct {
		name, body, wantCode string
	}{
		{"garbage", `{]`, "invalid_json"},
		{"unknown field", `{"counts":[0,1,2,3],"bogus":1}`, "invalid_json"},
		{"invalid table", `{"counts":[5,1,2,3]}`, "invalid_request"},
	} {
		resp, body := post(t, rts.URL, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
		var env struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatalf("%s: undecodable error body %s", tc.name, body)
		}
		if env.Error.Code != tc.wantCode {
			t.Fatalf("%s: code %q, want %q", tc.name, env.Error.Code, tc.wantCode)
		}
	}
	if n := totalComputes(workers); n != 0 {
		t.Fatalf("invalid requests reached a worker (%d computes)", n)
	}

	// Fleet debug endpoint.
	resp, body := func() (*http.Response, []byte) {
		resp, err := http.Get(rts.URL + "/v1/fleet")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, b
	}()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/fleet status %d", resp.StatusCode)
	}
	var fl struct {
		Live    int `json:"live"`
		Members []struct {
			URL  string `json:"url"`
			Live bool   `json:"live"`
		} `json:"members"`
	}
	if err := json.Unmarshal(body, &fl); err != nil {
		t.Fatalf("/v1/fleet: %v in %s", err, body)
	}
	if fl.Live != 1 || len(fl.Members) != 1 || !fl.Members[0].Live {
		t.Fatalf("/v1/fleet = %s", body)
	}

	// Drain the only worker: readyz flips, estimates answer 503.
	workers[0].srv.SetReady(false)
	rt.ProbeNow(context.Background())
	if resp, err := http.Get(rts.URL + "/readyz"); err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("empty-ring readyz: %v %v", resp, err)
	}
	resp2, body2 := post(t, rts.URL, estimateBody)
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("empty-ring estimate status %d: %s", resp2.StatusCode, body2)
	}
}

// TestPeerFillerMissAndError: peer fill is best-effort — a peer without
// the key, a 404, or a refused connection all yield ok=false, never an
// error surfaced to the caller.
func TestPeerFillerMissAndError(t *testing.T) {
	w := newTestWorker(t)
	dead := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {}))
	dead.Close() // connection refused from here on

	pf := NewPeerFiller([]string{dead.URL, w.ts.URL}, 4, 0)
	key := "0000000000000000000000000000000000000000000000000000000000000000"
	if _, ok := pf.Fill(context.Background(), key); ok {
		t.Fatal("Fill reported a hit for a key nobody holds")
	}

	// Warm the worker, then fill its real key through the peer protocol.
	resp, base := post(t, w.ts.URL, estimateBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm status %d", resp.StatusCode)
	}
	var env struct {
		Key string `json:"key"`
	}
	if err := json.Unmarshal(base, &env); err != nil || env.Key == "" {
		t.Fatalf("no key in estimate response: %v", err)
	}
	got, ok := pf.Fill(context.Background(), env.Key)
	if !ok {
		t.Fatal("Fill missed a key the peer holds")
	}
	if !bytes.Equal(got, base) {
		t.Fatal("peer-filled bytes differ from the origin response")
	}
}

// keyOf computes the canonical request key the router derives at the edge
// for a raw JSON body (decode → normalise → Key, exactly handleEstimate's
// path).
func keyOf(t *testing.T, body string) string {
	t.Helper()
	var req serve.EstimateRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	return req.Key()
}

// bodyOwnedBy finds a request body whose ring owner is member (key
// placement depends on the members' URLs, which httptest picks at
// runtime).
func bodyOwnedBy(t *testing.T, rt *Router, member string) string {
	t.Helper()
	for i := 0; i < 256; i++ {
		body := drainBody(i)
		if seq := rt.ring.Sequence(keyOf(t, body), 1); len(seq) == 1 && seq[0] == member {
			return body
		}
	}
	t.Fatalf("no candidate body hashed to %s", member)
	return ""
}

// TestRouterRetriesDisabled is the Retries-sentinel regression: a negative
// Retries disables the retry walk entirely, so a retryable 503 from the
// key's owner is relayed to the client instead of failing over. Before the
// sentinel fix both negative and zero were silently coerced to 2 and this
// request would have succeeded via the healthy worker.
func TestRouterRetriesDisabled(t *testing.T) {
	rec := telemetry.NewRecorder()
	telemetry.Enable(rec)
	defer telemetry.Disable()

	healthy := newTestWorker(t)
	shedder := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			fmt.Fprintln(w, "ok")
			return
		}
		http.Error(w, "shed", http.StatusServiceUnavailable)
	}))
	t.Cleanup(shedder.Close)

	rt, err := NewRouter(RouterConfig{
		Workers:      []string{shedder.URL, healthy.ts.URL},
		Retries:      -1, // explicitly disabled
		RetryBackoff: time.Millisecond,
		ProbeEvery:   time.Hour,
		Log:          io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.ProbeNow(context.Background())
	rts := httptest.NewServer(rt.mux)
	t.Cleanup(rts.Close)

	resp, body := post(t, rts.URL, bodyOwnedBy(t, rt, shedder.URL))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d (body %s), want the owner's 503 relayed verbatim", resp.StatusCode, body)
	}
	if got := rec.FleetRetries.Load(); got != 0 {
		t.Fatalf("retries counter = %d with retries disabled", got)
	}

	// Zero still means the default: the same request now fails over.
	rt2, err := NewRouter(RouterConfig{
		Workers:      []string{shedder.URL, healthy.ts.URL},
		RetryBackoff: time.Millisecond,
		ProbeEvery:   time.Hour,
		Log:          io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt2.ProbeNow(context.Background())
	rts2 := httptest.NewServer(rt2.mux)
	t.Cleanup(rts2.Close)
	resp, body = post(t, rts2.URL, bodyOwnedBy(t, rt2, shedder.URL))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("default retries: status %d (%s), want failover success", resp.StatusCode, body)
	}
}

// TestRouterRejectsOversizedUpstream: a worker response over the relay cap
// must fail the attempt (502 once every candidate fails), never be
// truncated to the cap and relayed as corrupt success bytes.
func TestRouterRejectsOversizedUpstream(t *testing.T) {
	huge := bytes.Repeat([]byte("x"), maxUpstreamBytes+1)
	big := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			fmt.Fprintln(w, "ok")
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(huge)
	}))
	t.Cleanup(big.Close)

	rt, err := NewRouter(RouterConfig{
		Workers:      []string{big.URL},
		Retries:      -1,
		RetryBackoff: time.Millisecond,
		ProbeEvery:   time.Hour,
		Log:          io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.ProbeNow(context.Background())
	rts := httptest.NewServer(rt.mux)
	t.Cleanup(rts.Close)

	resp, body := post(t, rts.URL, estimateBody)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502 for an over-cap upstream response", resp.StatusCode)
	}
	if len(body) >= maxUpstreamBytes {
		t.Fatalf("router relayed %d truncated bytes instead of rejecting", len(body))
	}
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != "fleet_exhausted" {
		t.Fatalf("error body = %s", body)
	}
}

// TestPeerFillerRejectsOversized: an oversized peer cache body is a miss,
// never a truncated fill.
func TestPeerFillerRejectsOversized(t *testing.T) {
	huge := bytes.Repeat([]byte("x"), maxUpstreamBytes+1)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(huge)
	}))
	t.Cleanup(peer.Close)

	pf := NewPeerFiller([]string{peer.URL}, 1, time.Second)
	key := "0000000000000000000000000000000000000000000000000000000000000000"
	if b, ok := pf.Fill(context.Background(), key); ok {
		t.Fatalf("Fill accepted an over-cap body (%d bytes)", len(b))
	}
}

// TestRouterStatusWriterFlush: the shared instrument middleware, mounted
// on the router's mux, must forward Flush so a streamed passthrough is not
// buffered behind it.
func TestRouterStatusWriterFlush(t *testing.T) {
	rt, err := NewRouter(RouterConfig{Workers: []string{"http://unused:1"}, ProbeEvery: time.Hour, Log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	flushed := false
	rt.mux.HandleFunc("GET /test", server.Instrument(io.Discard, "test", func(w http.ResponseWriter, r *http.Request) {
		f, ok := w.(http.Flusher)
		if !ok {
			t.Fatal("instrumented ResponseWriter does not implement http.Flusher")
		}
		w.Write([]byte("frame 1\n"))
		f.Flush()
		flushed = true
	}))
	rec := httptest.NewRecorder()
	rt.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/test", nil))
	if !flushed {
		t.Fatal("handler never reached Flush")
	}
	if !rec.Flushed {
		t.Fatal("Flush did not propagate to the underlying writer")
	}
}

// TestRouterWorkerErrorIdentity: a malformed POST /v1/estimate gets the
// same status and byte-identical error body whether it reaches a worker
// directly or dies at the router's edge.
func TestRouterWorkerErrorIdentity(t *testing.T) {
	workers, _, rts := newTestFleet(t, 1, RouterConfig{})
	oversize := `{"counts":[` + strings.Repeat("0,", 2<<20) + `0]}`
	for _, tc := range []struct{ name, body string }{
		{"garbage", `{]`},
		{"unknown field", `{"counts":[0,1,2,3],"bogus":1}`},
		{"trailing data", `{"counts":[0,1,2,3]} x`},
		{"trailing close", `{"counts":[0,1,2,3]}]`},
		{"over 4 MiB", oversize},
		{"invalid table", `{"counts":[5,1,2,3]}`},
	} {
		wresp, wbody := post(t, workers[0].ts.URL, tc.body)
		rresp, rbody := post(t, rts.URL, tc.body)
		if wresp.StatusCode != http.StatusBadRequest || rresp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: worker %d, router %d, want 400 from both", tc.name, wresp.StatusCode, rresp.StatusCode)
		}
		if !bytes.Equal(wbody, rbody) {
			t.Errorf("%s: error bodies differ\nworker: %s\nrouter: %s", tc.name, wbody, rbody)
		}
	}
	if n := totalComputes(workers); n != 0 {
		t.Fatalf("malformed requests reached the engine (%d computes)", n)
	}
}

// TestForwardHedgeNotDelayedByBackoff pins the backoff/hedge interaction:
// a hedge that completes with a good response while the sequential retry
// path sleeps out a loser's backoff must win immediately, not wait for the
// backoff (or further candidates). Pre-fix, the backoff select ignored the
// results channel and this took the full RetryBackoff.
func TestForwardHedgeNotDelayedByBackoff(t *testing.T) {
	// slow answers well after the hedge fires but long before the backoff
	// expires; shed fails instantly and retryably.
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(80 * time.Millisecond)
		w.Write([]byte("slow-ok"))
	}))
	t.Cleanup(slow.Close)
	shed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "shed", http.StatusServiceUnavailable)
	}))
	t.Cleanup(shed.Close)

	rt, err := NewRouter(RouterConfig{
		Workers:      []string{slow.URL, shed.URL},
		HedgeAfter:   10 * time.Millisecond,
		RetryBackoff: 5 * time.Second,
		ProbeEvery:   time.Hour,
		Log:          io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Candidate order: the hedge races shed (instant 503) against slow
	// (good after 80ms); the third candidate exists so the retry path has
	// somewhere to back off toward — pre-fix it slept 5s there while
	// slow's win sat undrained in the channel.
	t0 := time.Now()
	u := rt.forward(context.Background(), []string{slow.URL, shed.URL, shed.URL}, []byte("{}"))
	elapsed := time.Since(t0)
	if u == nil || u.err != nil || u.status != http.StatusOK {
		t.Fatalf("forward = %+v, want slow's 200", u)
	}
	if string(u.body) != "slow-ok" || u.member != slow.URL {
		t.Fatalf("forward returned %q from %s, want slow-ok from the slow worker", u.body, u.member)
	}
	if elapsed > time.Second {
		t.Fatalf("good hedge result waited %v behind a loser's backoff", elapsed)
	}
}
