package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ghosts/internal/core"
	"ghosts/internal/serve"
	"ghosts/internal/telemetry"
)

// estimateBody is the canonical test request: three sources with healthy
// overlap, mirroring internal/serve's test table.
const estimateBody = `{
  "sources": ["A", "B", "C"],
  "counts": [0, 400, 350, 120, 300, 90, 80, 40],
  "limit": 5000
}`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { s.jobs.BeginShutdown(); s.jobs.Drain() })
	return s, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
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

func getJSON(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
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

// TestEstimateByteIdentity pins the headline acceptance criterion: cold
// compute, cache hit and the CLI's serve.Compute/Encode path all emit the
// same bytes for the same request.
func TestEstimateByteIdentity(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp1, cold := postJSON(t, ts.URL+"/v1/estimate", estimateBody)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("cold status %d: %s", resp1.StatusCode, cold)
	}
	if got := resp1.Header.Get("X-Ghosts-Cache"); got != string(serve.StatusComputed) {
		t.Fatalf("cold X-Ghosts-Cache = %q", got)
	}
	resp2, hit := postJSON(t, ts.URL+"/v1/estimate", estimateBody)
	if got := resp2.Header.Get("X-Ghosts-Cache"); got != string(serve.StatusHit) {
		t.Fatalf("second X-Ghosts-Cache = %q", got)
	}
	if !bytes.Equal(cold, hit) {
		t.Fatal("cache hit bytes differ from cold bytes")
	}

	// The ghosts CLI's -json path: same request through serve directly.
	var req serve.EstimateRequest
	if err := json.Unmarshal([]byte(estimateBody), &req); err != nil {
		t.Fatal(err)
	}
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	cliResp, err := serve.Compute(context.Background(), &req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cold, cliResp.Encode()) {
		t.Fatalf("CLI bytes differ from server bytes:\n--- server ---\n%s\n--- cli ---\n%s", cold, cliResp.Encode())
	}
}

// TestEstimateSingleFlightOverHTTP: concurrent identical POSTs trigger
// exactly one core fit end to end, and followers get identical bytes.
func TestEstimateSingleFlightOverHTTP(t *testing.T) {
	const n = 6
	var fits atomic.Int64
	gate := make(chan struct{})
	front := serve.NewFront(serve.FrontConfig{
		Compute: func(ctx context.Context, req *serve.EstimateRequest) (*serve.EstimateResponse, error) {
			fits.Add(1)
			<-gate
			return serve.Compute(ctx, req)
		},
	})
	_, ts := newTestServer(t, Config{Front: front})

	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		bodies [][]byte
		codes  []int
	)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			resp, b := postJSON(t, ts.URL+"/v1/estimate", estimateBody)
			mu.Lock()
			bodies = append(bodies, b)
			codes = append(codes, resp.StatusCode)
			mu.Unlock()
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for fits.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no fit started")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	if got := fits.Load(); got != 1 {
		t.Fatalf("%d core fits for %d concurrent identical requests, want 1", got, n)
	}
	for i := range bodies {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("response %d differs", i)
		}
	}
}

func TestEstimateValidationErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		body string
		code string
	}{
		{"malformed json", `{`, "invalid_json"},
		{"unknown field", `{"counts":[0,1,2,3],"bogus":1}`, "invalid_json"},
		{"no counts", `{}`, "invalid_request"},
		{"unobserved cell", `{"counts":[9,1,2,3]}`, "invalid_request"},
		{"bad ic", `{"counts":[0,1,2,3],"ic":"DIC"}`, "invalid_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, b := postJSON(t, ts.URL+"/v1/estimate", tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, body %s", resp.StatusCode, b)
			}
			var env struct {
				API   string `json:"api"`
				Kind  string `json:"kind"`
				Error struct {
					Code    string `json:"code"`
					Message string `json:"message"`
				} `json:"error"`
			}
			if err := json.Unmarshal(b, &env); err != nil {
				t.Fatalf("error body is not JSON: %s", b)
			}
			if env.API != serve.APIVersion || env.Kind != "error" || env.Error.Code != tc.code {
				t.Fatalf("envelope = %+v, want code %q", env, tc.code)
			}
		})
	}
}

// TestEstimateOneSourceUnprocessable: a table in which only one source
// observed anything is well-formed but cannot be estimated, so it gets a
// 422 whose message names the cause.
func TestEstimateOneSourceUnprocessable(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, b := postJSON(t, ts.URL+"/v1/estimate", `{"counts":[0,1500,0,0,0,0,0,0]}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, body %s", resp.StatusCode, b)
	}
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(b, &env); err != nil {
		t.Fatalf("error body is not JSON: %s", b)
	}
	if env.Error.Code != "estimation_failed" || env.Error.Message != core.ErrTooFewSources.Error() {
		t.Fatalf("error = %+v, want estimation_failed with %q", env.Error, core.ErrTooFewSources)
	}
}

func TestEstimateSheddingWhenSaturated(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	front := serve.NewFront(serve.FrontConfig{
		Slots:    1,
		MaxQueue: -1, // no waiting room: second distinct request sheds
		Compute: func(ctx context.Context, req *serve.EstimateRequest) (*serve.EstimateResponse, error) {
			started <- struct{}{}
			<-release
			return serve.Compute(ctx, req)
		},
	})
	_, ts := newTestServer(t, Config{Front: front})
	defer close(release)

	first := make(chan int, 1)
	go func() {
		resp, _ := http.Post(ts.URL+"/v1/estimate", "application/json", strings.NewReader(estimateBody))
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	<-started // the slot is now held
	// A *different* request (no single-flight coalescing) finds slot busy
	// and zero queue capacity → 503.
	other := strings.Replace(estimateBody, "5000", "6000", 1)
	resp, b := postJSON(t, ts.URL+"/v1/estimate", other)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, body %s", resp.StatusCode, b)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 must carry Retry-After")
	}
	release <- struct{}{}
	if code := <-first; code != http.StatusOK {
		t.Fatalf("first request status %d", code)
	}
}

func TestExperimentsCatalogue(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, b := getJSON(t, ts.URL+"/v1/experiments")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var env struct {
		API         string   `json:"api"`
		Kind        string   `json:"kind"`
		Scales      []string `json:"scales"`
		Experiments []struct{ ID, Title string }
	}
	if err := json.Unmarshal(b, &env); err != nil {
		t.Fatal(err)
	}
	if env.Kind != "experiments" || len(env.Experiments) != 21 {
		t.Fatalf("%d experiments, want 21 (%s)", len(env.Experiments), b)
	}
	for i := 1; i < len(env.Experiments); i++ {
		if env.Experiments[i-1].ID >= env.Experiments[i].ID {
			t.Fatalf("catalogue not sorted: %q before %q", env.Experiments[i-1].ID, env.Experiments[i].ID)
		}
	}
}

// TestJobLifecycleOverHTTP drives pending → running → done through the
// API with a gated job executor.
func TestJobLifecycleOverHTTP(t *testing.T) {
	release := make(chan struct{})
	running := make(chan struct{})
	var once sync.Once
	_, ts := newTestServer(t, Config{
		RunJob: func(ctx context.Context, spec serve.JobSpec) (serve.JobResult, error) {
			once.Do(func() { close(running) })
			<-release
			return serve.JobResult{Output: "ran " + spec.Experiment, Data: []byte(`{"ok":true}`)}, nil
		},
	})
	resp, b := postJSON(t, ts.URL+"/v1/jobs", `{"experiment":"summary","scale":"tiny","seed":7}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var job serve.Job
	if err := json.Unmarshal(b, &job); err != nil {
		t.Fatal(err)
	}
	if job.State != serve.JobPending || job.ID == "" {
		t.Fatalf("submit snapshot: %+v", job)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+job.ID {
		t.Fatalf("Location = %q", loc)
	}
	<-running
	_, b = getJSON(t, ts.URL+"/v1/jobs/"+job.ID)
	var mid serve.Job
	json.Unmarshal(b, &mid)
	if mid.State != serve.JobRunning {
		t.Fatalf("mid-flight state = %q, want running", mid.State)
	}
	close(release)
	deadline := time.Now().Add(10 * time.Second)
	var final serve.Job
	for {
		_, b = getJSON(t, ts.URL+"/v1/jobs/"+job.ID)
		json.Unmarshal(b, &final)
		if final.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %+v", final)
		}
		time.Sleep(time.Millisecond)
	}
	if final.State != serve.JobDone || final.Output != "ran summary" {
		t.Fatalf("final job: %+v", final)
	}
	// The envelope is indented in transit, so compare the payload compacted.
	var compact bytes.Buffer
	if err := json.Compact(&compact, final.Data); err != nil {
		t.Fatal(err)
	}
	if compact.String() != `{"ok":true}` {
		t.Fatalf("job data = %s", compact.String())
	}
}

func TestJobValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, _ := postJSON(t, ts.URL+"/v1/jobs", `{"experiment":"nope"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown experiment: status %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/jobs", `{"experiment":"summary","scale":"galactic"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown scale: status %d", resp.StatusCode)
	}
	resp, _ = getJSON(t, ts.URL+"/v1/jobs/j999")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job: status %d", resp.StatusCode)
	}
}

func TestHealthAndReadiness(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if resp, _ := getJSON(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	if resp, _ := getJSON(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz status %d", resp.StatusCode)
	}
	s.SetReady(false)
	if resp, _ := getJSON(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz status %d", resp.StatusCode)
	}
	if resp, _ := getJSON(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatal("healthz must stay OK while draining")
	}
}

func TestDebugSurface(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, b := getJSON(t, ts.URL+"/debug/vars")
	if resp.StatusCode != http.StatusOK || !json.Valid(b) {
		t.Fatalf("debug/vars status %d valid=%v", resp.StatusCode, json.Valid(b))
	}
	resp, _ = getJSON(t, ts.URL+"/debug/pprof/cmdline")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof status %d", resp.StatusCode)
	}
}

// TestRunGracefulShutdown boots the real listener, holds one job running
// and one queued behind it, then cancels: the queued job must cancel, the
// running one must drain to done, and Run must return cleanly.
func TestRunGracefulShutdown(t *testing.T) {
	front := serve.NewFront(serve.FrontConfig{Slots: 1})
	release := make(chan struct{})
	s := New(Config{
		Front: front,
		Log:   io.Discard,
		RunJob: func(ctx context.Context, spec serve.JobSpec) (serve.JobResult, error) {
			if err := front.AcquireSlot(ctx); err != nil {
				return serve.JobResult{}, err
			}
			defer front.ReleaseSlot()
			<-release
			return serve.JobResult{Output: "drained"}, nil
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx, "127.0.0.1:0") }()
	waitRun := time.Now().Add(10 * time.Second)
	for s.Addr() == "" {
		if time.Now().After(waitRun) {
			t.Fatal("server never came up")
		}
		time.Sleep(time.Millisecond)
	}
	base := "http://" + s.Addr()
	resp, b := postJSON(t, base+"/v1/jobs", `{"experiment":"summary","scale":"tiny"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 1: status %d %s", resp.StatusCode, b)
	}
	var j1 serve.Job
	json.Unmarshal(b, &j1)
	_, b = postJSON(t, base+"/v1/jobs", `{"experiment":"summary","scale":"tiny"}`)
	var j2 serve.Job
	json.Unmarshal(b, &j2)

	// j1 holds the slot, j2 queues behind it.
	waitQ := time.Now().Add(10 * time.Second)
	for front.QueueDepth() == 0 {
		if time.Now().After(waitQ) {
			t.Fatal("second job never queued")
		}
		time.Sleep(time.Millisecond)
	}

	cancel()
	// Shutdown cancels the queued job first; wait for that before letting
	// the running one finish, so the freed slot cannot be re-claimed.
	waitCancel := time.Now().Add(10 * time.Second)
	for {
		g2, _ := s.Jobs().Get(j2.ID)
		if g2.State.Terminal() {
			break
		}
		if time.Now().After(waitCancel) {
			t.Fatalf("queued job never terminal: %+v", g2)
		}
		time.Sleep(time.Millisecond)
	}
	// The running job is still draining. Let it go.
	close(release)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Run never returned")
	}
	g1, _ := s.Jobs().Get(j1.ID)
	g2, _ := s.Jobs().Get(j2.ID)
	if g1.State != serve.JobDone || g1.Output != "drained" {
		t.Fatalf("running job after shutdown: %+v", g1)
	}
	if g2.State != serve.JobCanceled {
		t.Fatalf("queued job after shutdown: %+v", g2)
	}
	// The listener is gone.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("server still reachable after shutdown")
	}
}

// TestMethodNotAllowed: the typed mux rejects wrong verbs.
func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/estimate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/estimate status %d, want 405", resp.StatusCode)
	}
}

// errCode decodes the uniform error envelope and returns its code.
func errCode(t *testing.T, b []byte) string {
	t.Helper()
	var env struct {
		Kind  string `json:"kind"`
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(b, &env); err != nil {
		t.Fatalf("error body is not JSON: %s", b)
	}
	if env.Kind != "error" {
		t.Fatalf("kind = %q, want error (%s)", env.Kind, b)
	}
	return env.Error.Code
}

// TestEstimatePanicIsContained: a compute panic surfaces as a 500 with the
// internal_panic code, ticks the panic counter, and — the important part —
// leaves the server fully able to serve the next request.
func TestEstimatePanicIsContained(t *testing.T) {
	rec := telemetry.NewRecorder()
	telemetry.Enable(rec)
	defer telemetry.Disable()

	var calls atomic.Int64
	front := serve.NewFront(serve.FrontConfig{
		Compute: func(ctx context.Context, req *serve.EstimateRequest) (*serve.EstimateResponse, error) {
			if calls.Add(1) == 1 {
				panic("injected: fit exploded")
			}
			return serve.Compute(ctx, req)
		},
	})
	_, ts := newTestServer(t, Config{Front: front})

	resp, b := postJSON(t, ts.URL+"/v1/estimate", estimateBody)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500 (%s)", resp.StatusCode, b)
	}
	if code := errCode(t, b); code != "internal_panic" {
		t.Fatalf("error code = %q, want internal_panic", code)
	}
	if got := rec.Panics.Load(); got != 1 {
		t.Fatalf("panic counter = %d, want 1", got)
	}
	// The process survived, the failure was not cached: retry succeeds.
	resp, b = postJSON(t, ts.URL+"/v1/estimate", estimateBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-panic status %d, want 200 (%s)", resp.StatusCode, b)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("%d compute calls, want 2 (panic + fresh compute)", got)
	}
}

// TestEstimateComputeTimeout: with -compute-timeout set, a compute that
// honours its context but never finishes yields 504 compute_timeout and
// ticks the timeout counter.
func TestEstimateComputeTimeout(t *testing.T) {
	rec := telemetry.NewRecorder()
	telemetry.Enable(rec)
	defer telemetry.Disable()

	front := serve.NewFront(serve.FrontConfig{
		Compute: func(ctx context.Context, req *serve.EstimateRequest) (*serve.EstimateResponse, error) {
			<-ctx.Done() // a cooperative engine checkpoint would do the same
			return nil, ctx.Err()
		},
	})
	_, ts := newTestServer(t, Config{Front: front, ComputeTimeout: 50 * time.Millisecond})

	resp, b := postJSON(t, ts.URL+"/v1/estimate", estimateBody)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%s)", resp.StatusCode, b)
	}
	if code := errCode(t, b); code != "compute_timeout" {
		t.Fatalf("error code = %q, want compute_timeout", code)
	}
	if got := rec.RequestsTimedOut.Load(); got != 1 {
		t.Fatalf("timeout counter = %d, want 1", got)
	}
}

// TestEstimateClientCancel499: when the request's own context dies before
// the compute finishes, the handler records the 499 envelope (for proxies
// and logs) and the cancellation counter ticks.
func TestEstimateClientCancel499(t *testing.T) {
	rec := telemetry.NewRecorder()
	telemetry.Enable(rec)
	defer telemetry.Disable()

	started := make(chan struct{})
	front := serve.NewFront(serve.FrontConfig{
		Compute: func(ctx context.Context, req *serve.EstimateRequest) (*serve.EstimateResponse, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	s := New(Config{Front: front, Log: io.Discard})
	t.Cleanup(func() { s.jobs.BeginShutdown(); s.jobs.Drain() })

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("POST", "/v1/estimate", strings.NewReader(estimateBody)).WithContext(ctx)
	rr := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Handler().ServeHTTP(rr, req)
	}()
	<-started
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("handler never returned after cancellation")
	}
	if rr.Code != statusClientClosedRequest {
		t.Fatalf("status %d, want 499 (%s)", rr.Code, rr.Body.Bytes())
	}
	if code := errCode(t, rr.Body.Bytes()); code != "client_closed_request" {
		t.Fatalf("error code = %q, want client_closed_request", code)
	}
	if got := rec.RequestsCanceled.Load(); got != 1 {
		t.Fatalf("cancellation counter = %d, want 1", got)
	}
}

// TestInstrumentPanicBarrier exercises the outermost containment layer
// directly: a panic escaping any handler is recovered by Instrument, turned
// into a 500 envelope when the response has not started, and counted.
func TestInstrumentPanicBarrier(t *testing.T) {
	rec := telemetry.NewRecorder()
	telemetry.Enable(rec)
	defer telemetry.Disable()

	h := Instrument(io.Discard, "boom", func(w http.ResponseWriter, r *http.Request) {
		panic("injected: handler panic")
	})
	rr := httptest.NewRecorder()
	h(rr, httptest.NewRequest("GET", "/boom", nil))
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rr.Code)
	}
	if code := errCode(t, rr.Body.Bytes()); code != "internal_panic" {
		t.Fatalf("error code = %q, want internal_panic", code)
	}
	if got := rec.Panics.Load(); got != 1 {
		t.Fatalf("panic counter = %d, want 1", got)
	}

	// When the response already started, the barrier must not try to write
	// a second status line — it only records and counts.
	rr2 := httptest.NewRecorder()
	h2 := Instrument(io.Discard, "late", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("partial"))
		panic("injected: after first byte")
	})
	h2(rr2, httptest.NewRequest("GET", "/late", nil))
	if rr2.Code != http.StatusOK || rr2.Body.String() != "partial" {
		t.Fatalf("started response was rewritten: %d %q", rr2.Code, rr2.Body.String())
	}
	if got := rec.Panics.Load(); got != 2 {
		t.Fatalf("panic counter = %d, want 2", got)
	}
}
