package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"ghosts/internal/telemetry"
)

// newDynamicRouter boots a router with no static workers: membership comes
// entirely from joins. ProbeEvery is pinned high so transitions happen only
// via ProbeNow / join-time probes, keeping tests deterministic.
func newDynamicRouter(t *testing.T, cfg RouterConfig) (*Router, *httptest.Server) {
	t.Helper()
	if cfg.ProbeEvery == 0 {
		cfg.ProbeEvery = time.Hour
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
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	return rt, rts
}

// fleetSnapshot decodes GET /v1/fleet.
func fleetSnapshot(t *testing.T, routerURL string) fleetEnvelope {
	t.Helper()
	resp, err := http.Get(routerURL + "/v1/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var env fleetEnvelope
	if err := json.Unmarshal(b, &env); err != nil {
		t.Fatalf("GET /v1/fleet: %v in %s", err, b)
	}
	return env
}

// TestJoinLifecycleOverHTTP drives the wire protocol directly: join grants
// a clamped lease, /v1/fleet reflects membership and lease state, renewal
// is not a second join, leave deregisters idempotently.
func TestJoinLifecycleOverHTTP(t *testing.T) {
	rec := telemetry.NewRecorder()
	telemetry.Enable(rec)
	defer telemetry.Disable()

	w := newTestWorker(t)
	_, rts := newDynamicRouter(t, RouterConfig{})

	// An empty fleet: no members, router not ready.
	if env := fleetSnapshot(t, rts.URL); env.Live != 0 || len(env.Members) != 0 {
		t.Fatalf("empty fleet = %+v", env)
	}
	if resp, err := http.Get(rts.URL + "/readyz"); err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("empty-fleet readyz: %v %v", resp, err)
	}

	join := func(ttlSeconds float64) leaseEnvelope {
		body, _ := json.Marshal(map[string]any{"url": w.ts.URL, "ttl_seconds": ttlSeconds})
		resp, err := http.Post(rts.URL+"/v1/fleet/join", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("join status %d: %s", resp.StatusCode, b)
		}
		var lease leaseEnvelope
		if err := json.Unmarshal(b, &lease); err != nil {
			t.Fatalf("join response: %v in %s", err, b)
		}
		return lease
	}

	// Default TTL, ready worker: live immediately (join probes
	// synchronously).
	lease := join(0)
	if lease.TTLSeconds != DefaultLeaseTTL.Seconds() || !lease.Live {
		t.Fatalf("default lease = %+v", lease)
	}
	env := fleetSnapshot(t, rts.URL)
	if env.Live != 1 || len(env.Members) != 1 {
		t.Fatalf("fleet after join = %+v", env)
	}
	m := env.Members[0]
	if m.URL != w.ts.URL || !m.Live || m.Source != "lease" || m.LeaseExpiresIn <= 0 {
		t.Fatalf("member after join = %+v", m)
	}
	if resp, err := http.Get(rts.URL + "/readyz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after join: %v %v", resp, err)
	}

	// Renewal: clamped TTL, still one join counted.
	if lease := join(0.01); lease.TTLSeconds != MinLeaseTTL.Seconds() {
		t.Fatalf("tiny TTL not clamped up: %+v", lease)
	}
	if lease := join((MaxLeaseTTL + time.Hour).Seconds()); lease.TTLSeconds != MaxLeaseTTL.Seconds() {
		t.Fatalf("huge TTL not clamped down: %+v", lease)
	}
	if got := rec.FleetJoins.Load(); got != 1 {
		t.Fatalf("joins = %d after renewals, want 1", got)
	}

	// Leave: member gone, router not ready again; a second leave is a
	// harmless no-op.
	leave := func() leftEnvelope {
		body, _ := json.Marshal(map[string]string{"url": w.ts.URL})
		resp, err := http.Post(rts.URL+"/v1/fleet/leave", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("leave status %d: %s", resp.StatusCode, b)
		}
		var left leftEnvelope
		if err := json.Unmarshal(b, &left); err != nil {
			t.Fatal(err)
		}
		return left
	}
	if left := leave(); !left.Registered {
		t.Fatalf("leave = %+v, want registered=true", left)
	}
	if left := leave(); left.Registered {
		t.Fatalf("second leave = %+v, want registered=false", left)
	}
	if env := fleetSnapshot(t, rts.URL); len(env.Members) != 0 {
		t.Fatalf("fleet after leave = %+v", env)
	}
	if got, want := rec.FleetLeaves.Load(), int64(1); got != want {
		t.Fatalf("leaves = %d, want %d", got, want)
	}
}

// TestJoinValidation: malformed join bodies die with the uniform error
// envelope and never touch the registry.
func TestJoinValidation(t *testing.T) {
	rt, rts := newDynamicRouter(t, RouterConfig{})
	for _, tc := range []struct {
		name, body, wantCode string
	}{
		{"garbage", `{]`, "invalid_json"},
		{"unknown field", `{"url":"http://x:1","bogus":1}`, "invalid_json"},
		{"missing url", `{}`, "invalid_request"},
		{"relative url", `{"url":"x:1"}`, "invalid_request"},
		{"path url", `{"url":"http://x:1/api"}`, "invalid_request"},
		{"negative ttl", `{"url":"http://x:1","ttl_seconds":-4}`, "invalid_request"},
	} {
		resp, err := http.Post(rts.URL+"/v1/fleet/join", "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
		var env struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		if err := json.Unmarshal(b, &env); err != nil || env.Error.Code != tc.wantCode {
			t.Fatalf("%s: error body %s, want code %q", tc.name, b, tc.wantCode)
		}
	}
	if got := rt.Registry().Members(); len(got) != 0 {
		t.Fatalf("invalid joins registered members: %v", got)
	}
}

// TestJoinerHeartbeatKeepsLeaseAlive runs the worker-side client against a
// real router: with a lease far shorter than the test, heartbeats must keep
// the worker registered; OnPeers must see the other member; and Leave must
// deregister.
func TestJoinerHeartbeatKeepsLeaseAlive(t *testing.T) {
	w := newTestWorker(t)
	other := newTestWorker(t)
	_, rts := newDynamicRouter(t, RouterConfig{})

	// A second member, joined out-of-band, that the joiner should report
	// as a peer.
	body, _ := json.Marshal(map[string]string{"url": other.ts.URL})
	if resp, err := http.Post(rts.URL+"/v1/fleet/join", "application/json", bytes.NewReader(body)); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("out-of-band join: %v %v", resp, err)
	}

	peerc := make(chan []string, 16)
	j, err := NewJoiner(rts.URL, w.ts.URL, MinLeaseTTL, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	j.OnPeers = func(peers []string) {
		select {
		case peerc <- peers:
		default:
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); j.Run(ctx) }()

	// First beat: the peer list holds exactly the other member.
	select {
	case peers := <-peerc:
		if !reflect.DeepEqual(peers, []string{other.ts.URL}) {
			t.Fatalf("peers = %v, want [%s]", peers, other.ts.URL)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("joiner never reported peers")
	}

	// Outlive the lease several times over: heartbeats must keep both the
	// registration and the ring liveness (renewals re-probe).
	time.Sleep(3 * MinLeaseTTL)
	env := fleetSnapshot(t, rts.URL)
	var urls []string
	for _, m := range env.Members {
		urls = append(urls, m.URL)
	}
	sort.Strings(urls)
	want := []string{other.ts.URL, w.ts.URL}
	sort.Strings(want)
	if !reflect.DeepEqual(urls, want) {
		t.Fatalf("members after 3 lease lifetimes = %v, want %v", urls, want)
	}

	// Drain: stop the heartbeat loop, then deregister explicitly (the
	// PreDrain ordering ghostsd uses).
	cancel()
	<-done
	if err := j.Leave(context.Background()); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	env = fleetSnapshot(t, rts.URL)
	for _, m := range env.Members {
		if m.URL == w.ts.URL {
			t.Fatalf("worker still registered after Leave: %+v", env)
		}
	}
}

// TestDynamicFleetChurnByteIdentity is the headline acceptance criterion:
// a fleet assembled with ZERO static configuration — router with no worker
// list, workers joining over the wire — serves identical requests for one
// fit fleet-wide with byte-identical responses across a join →
// lease-expiry → rejoin churn sequence.
func TestDynamicFleetChurnByteIdentity(t *testing.T) {
	// Two workers with peer fill wired both ways (as -join derives it from
	// /v1/fleet in production).
	w1, w2 := newTestWorker(t), newTestWorker(t)
	w1.peers.pf.Store(NewPeerFiller([]string{w2.ts.URL}, 0, 0))
	w2.peers.pf.Store(NewPeerFiller([]string{w1.ts.URL}, 0, 0))
	byURL := map[string]*testWorker{w1.ts.URL: w1, w2.ts.URL: w2}
	workers := []*testWorker{w1, w2}

	rt, rts := newDynamicRouter(t, RouterConfig{LeaseTTL: MinLeaseTTL})
	clock := newFakeClock()
	rt.Registry().now = clock.now

	joinWorker := func(w *testWorker) {
		t.Helper()
		body, _ := json.Marshal(map[string]string{"url": w.ts.URL})
		resp, err := http.Post(rts.URL+"/v1/fleet/join", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("join: %d %s", resp.StatusCode, b)
		}
	}
	joinWorker(w1)
	joinWorker(w2)
	if got := rt.Ring().Live(); got != 2 {
		t.Fatalf("live after joins = %d, want 2", got)
	}

	// Cold through the router: exactly one fit somewhere in the fleet.
	resp, base := post(t, rts.URL, estimateBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold status %d: %s", resp.StatusCode, base)
	}
	owner := resp.Header.Get("X-Ghosts-Worker")
	if byURL[owner] == nil {
		t.Fatalf("X-Ghosts-Worker = %q", owner)
	}
	if n := totalComputes(workers); n != 1 {
		t.Fatalf("computes after cold routed request = %d, want 1", n)
	}

	// Lease expiry: the owner misses its heartbeats (simulated by the
	// clock); the next probe pass sweeps it out and its keys rehash. The
	// expired worker's process is still up — exactly a worker that lost
	// its heartbeat path but not its cache — so the survivor peer-fills
	// the displaced key instead of refitting.
	clock.advance(MinLeaseTTL + time.Millisecond)
	rt.ProbeNow(context.Background())
	env := fleetSnapshot(t, rts.URL)
	if len(env.Members) != 0 || env.Live != 0 {
		// Both workers joined at the same fake-clock instant, so both
		// expire together.
		t.Fatalf("fleet after expiry = %+v, want empty", env)
	}

	// Rejoin only the non-owner: the key now rehashes to it.
	survivor := w1
	if owner == w1.ts.URL {
		survivor = w2
	}
	joinWorker(survivor)
	resp, b := post(t, rts.URL, estimateBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-expiry status %d: %s", resp.StatusCode, b)
	}
	if got := resp.Header.Get("X-Ghosts-Worker"); got != survivor.ts.URL {
		t.Fatalf("post-expiry served by %s, want survivor %s", got, survivor.ts.URL)
	}
	if !bytes.Equal(b, base) {
		t.Fatalf("bytes diverged across lease expiry:\n%s\nvs\n%s", b, base)
	}
	if n := totalComputes(workers); n != 1 {
		t.Fatalf("computes after expiry failover = %d, want 1 (peer fill moves bytes)", n)
	}

	// Rejoin the original owner: it reclaims its keys (minimal
	// disruption) and serves the same bytes from its own cache.
	joinWorker(byURL[owner])
	resp, b = post(t, rts.URL, estimateBody)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(b, base) {
		t.Fatalf("post-rejoin response diverged (status %d)", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Ghosts-Worker"); got != owner {
		t.Fatalf("rejoined owner did not reclaim its key: served by %s, want %s", got, owner)
	}
	if n := totalComputes(workers); n != 1 {
		t.Fatalf("computes after full churn = %d, want 1", n)
	}
}

// TestProberPicksUpRegistryChanges: a member registered after the prober
// starts is probed on the next pass (the probe list is consulted fresh
// each pass, not captured at construction).
func TestProberPicksUpRegistryChanges(t *testing.T) {
	w := newTestWorker(t)
	rt, _ := newDynamicRouter(t, RouterConfig{})
	rt.ProbeNow(context.Background())
	if got := rt.Ring().Live(); got != 0 {
		t.Fatalf("live before any registration = %d", got)
	}
	// Register directly (no join-time probe) and let the cadence probe
	// find it.
	rt.Registry().Join(w.ts.URL, time.Hour)
	if got := rt.Ring().Live(); got != 0 {
		t.Fatalf("registration alone made the member live: %d", got)
	}
	rt.ProbeNow(context.Background())
	if got := rt.Ring().Live(); got != 1 {
		t.Fatalf("live after probe pass = %d, want 1", got)
	}
}

// TestJoinerPeersRejectsOversized: a /v1/fleet reply over the response cap
// is an error that names the cap, not a syntax error from decoding a
// truncated prefix.
func TestJoinerPeersRejectsOversized(t *testing.T) {
	huge := bytes.Repeat([]byte(" "), maxUpstreamBytes+1)
	router := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(huge)
	}))
	t.Cleanup(router.Close)

	j, err := NewJoiner(router.URL, "http://127.0.0.1:1", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = j.Peers(context.Background())
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%d-byte cap", maxUpstreamBytes)) {
		t.Fatalf("Peers error = %v, want one naming the %d-byte cap", err, maxUpstreamBytes)
	}
}

// FuzzDecodeJoinBody feeds arbitrary bytes through the join/leave body
// decoder: it must never panic, every rejection is a 400 error envelope
// coded invalid_json or invalid_request, and every accepted URL is already
// in normal form.
func FuzzDecodeJoinBody(f *testing.F) {
	for _, seed := range []string{
		`{"url":"http://10.0.0.7:8080"}`,
		`{"url":" 10.0.0.7:8080/ ","ttl_seconds":15}`,
		`{"url":"https://user@h:1/","ttl_seconds":0.5}`,
		`{"url":"http://h:1","ttl_seconds":-1}`,
		`{"url":"ftp://h"}`,
		`{"url":"http://h:1/path?q=1"}`,
		`{"url":"http://h:1","bogus":true}`,
		`{"url":"http://h:1"} x`,
		`{]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/fleet/join", bytes.NewReader(body))
		_, member, ok := decodeJoinBody(rec, req)
		if ok {
			if rec.Body.Len() != 0 {
				t.Fatalf("accepted body %q also wrote a response: %s", body, rec.Body.Bytes())
			}
			if norm, err := NormalizeMemberURL(member); err != nil || norm != member {
				t.Fatalf("accepted URL %q is not normal: NormalizeMemberURL = %q, %v", member, norm, err)
			}
			return
		}
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("rejected body %q answered %d, want 400", body, rec.Code)
		}
		var env struct {
			Kind  string `json:"kind"`
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("rejected body %q answered an undecodable envelope: %s", body, rec.Body.Bytes())
		}
		if env.Kind != "error" || (env.Error.Code != "invalid_json" && env.Error.Code != "invalid_request") {
			t.Fatalf("rejected body %q answered kind %q code %q", body, env.Kind, env.Error.Code)
		}
	})
}
