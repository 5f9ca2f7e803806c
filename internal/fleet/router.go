package fleet

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"ghosts/internal/serve"
	"ghosts/internal/server"
	"ghosts/internal/telemetry"
)

// maxUpstreamBytes caps the body of every response the fleet reads from
// another node — relayed estimates, peer fills, registry replies and
// probes (a 16-source estimate response is far smaller).
const maxUpstreamBytes = 8 << 20

// fetch sends one request to url through client and returns the response
// with its body read in full; a non-nil body is sent as JSON. It reads one
// byte past maxUpstreamBytes so an oversized body is an error, never a
// silently truncated prefix that is relayed, cached or decoded as if it
// were whole.
func fetch(ctx context.Context, client *http.Client, method, url string, body []byte) (*http.Response, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxUpstreamBytes+1))
	if err != nil {
		return nil, nil, err
	}
	if len(b) > maxUpstreamBytes {
		return nil, nil, fmt.Errorf("%s %s: response exceeds the %d-byte cap", method, url, maxUpstreamBytes)
	}
	return resp, b, nil
}

// RouterConfig assembles a Router. Zero values select the defaults noted.
type RouterConfig struct {
	// Workers are static seed members' base URLs (e.g. http://10.0.0.1:8080).
	// Optional since dynamic membership: a router may start with none and
	// let workers self-register via POST /v1/fleet/join.
	Workers []string
	// Replicas is the virtual-node count per member; default DefaultReplicas.
	Replicas int
	// LoadBound is the bounded-load factor c: a member over ⌈c·total/live⌉
	// in-flight forwards yields to the next ring candidate. Default 1.25.
	LoadBound float64
	// Retries caps how many additional ring candidates a request may try
	// after a retryable failure (connection error, 503 shed, 504 compute
	// timeout). Zero selects the default of 2; a negative value disables
	// retries entirely (the repo's negative-disables convention, like
	// -cache-size), so a retryable failure is relayed to the client as-is.
	Retries int
	// LeaseTTL is the lease granted to a joining worker that does not
	// request one; default DefaultLeaseTTL. Requested leases clamp into
	// [MinLeaseTTL, MaxLeaseTTL] regardless.
	LeaseTTL time.Duration
	// RetryBackoff is the first retry's delay, doubling per retry.
	// Default 25ms.
	RetryBackoff time.Duration
	// HedgeAfter, when positive, launches the next ring candidate in
	// parallel if the current attempt has not answered within it. Off by
	// default: hedging trades the single-compute guarantee for tail
	// latency, so it is an explicit opt-in.
	HedgeAfter time.Duration
	// ProbeEvery is the /readyz probe cadence; default 1s.
	ProbeEvery time.Duration
	// ProbeTimeout bounds one probe; default ProbeEvery/2.
	ProbeTimeout time.Duration
	// ForwardTimeout bounds one forward attempt end to end; default 0 (the
	// client request's own deadline governs).
	ForwardTimeout time.Duration
	// DrainTimeout bounds Run's graceful shutdown; default 30s.
	DrainTimeout time.Duration
	// Client overrides the forwarding HTTP client (tests inject transports).
	Client *http.Client
	// Log receives lifecycle lines; default os.Stderr.
	Log io.Writer
}

// Router is the stateless fleet front: it owns no estimator, no cache and
// no gate — just the ring, the health prober and the forwarding logic.
// Any number of router replicas can sit behind one DNS name because the
// key → worker mapping is a pure function of the ring membership.
type Router struct {
	cfg      RouterConfig
	mux      *http.ServeMux
	edge     *server.Edge
	ring     *Ring
	registry *Registry
	balancer *Balancer
	prober   *Prober
	client   *http.Client
}

// NewRouter builds a Router from cfg. A router with no static Workers is
// valid: it starts with an empty fleet and fills in as workers join.
func NewRouter(cfg RouterConfig) (*Router, error) {
	switch {
	case cfg.Retries < 0:
		cfg.Retries = 0 // negative = retries explicitly disabled
	case cfg.Retries == 0:
		cfg.Retries = 2
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 25 * time.Millisecond
	}
	log := cfg.Log
	if log == nil {
		log = os.Stderr
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	seeds := make([]string, 0, len(cfg.Workers))
	for _, w := range cfg.Workers {
		u, err := NormalizeMemberURL(w)
		if err != nil {
			return nil, fmt.Errorf("fleet: static worker: %v", err)
		}
		seeds = append(seeds, u)
	}
	ring := NewRing(cfg.Replicas)
	registry := NewRegistry(ring, seeds, log)
	rt := &Router{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		edge:     server.NewEdge("router ", log, cfg.DrainTimeout),
		ring:     ring,
		registry: registry,
		balancer: NewBalancer(ring, cfg.LoadBound),
		prober:   NewProber(ring, registry.Members, cfg.ProbeEvery, cfg.ProbeTimeout, log),
		client:   client,
	}
	rt.mux.HandleFunc("POST /v1/estimate", server.Instrument(log, "fleet.estimate", rt.handleEstimate))
	rt.mux.HandleFunc("GET /v1/fleet", server.Instrument(log, "fleet.members", rt.handleFleet))
	rt.mux.HandleFunc("POST /v1/fleet/join", server.Instrument(log, "fleet.join", rt.handleJoin))
	rt.mux.HandleFunc("POST /v1/fleet/leave", server.Instrument(log, "fleet.leave", rt.handleLeave))
	rt.mux.HandleFunc("GET /healthz", server.Instrument(log, "healthz", server.Healthz))
	rt.mux.HandleFunc("GET /readyz", server.Instrument(log, "readyz", rt.handleReadyz))
	return rt, nil
}

// Handler returns the router's root handler (also useful under httptest).
func (rt *Router) Handler() http.Handler { return rt.mux }

// Addr returns the bound listen address once Run is serving ("" before).
func (rt *Router) Addr() string { return rt.edge.Addr() }

// ProbeNow forces one synchronous membership refresh. Run calls it before
// accepting traffic; tests call it to make membership transitions
// deterministic instead of waiting out the probe cadence.
func (rt *Router) ProbeNow(ctx context.Context) { rt.prober.ProbeOnce(ctx) }

// Ring exposes the membership ring (tests and the /v1/fleet handler).
func (rt *Router) Ring() *Ring { return rt.ring }

// Registry exposes the dynamic membership registry (tests).
func (rt *Router) Registry() *Registry { return rt.registry }

// Run serves on addr until ctx is cancelled, then drains gracefully. The
// prober runs for the duration; one synchronous probe pass happens before
// the listener opens so the first request already sees live members.
func (rt *Router) Run(ctx context.Context, addr string) error {
	rt.ProbeNow(ctx)
	rt.prober.Start(ctx)
	note := fmt.Sprintf(" (router, %d static workers, dynamic joins on POST /v1/fleet/join)", len(rt.cfg.Workers))
	return rt.edge.Serve(ctx, addr, rt.mux, note, nil)
}

// upstream is one forward attempt's outcome.
type upstream struct {
	member string
	status int
	ctype  string
	cache  string // X-Ghosts-Cache from the worker
	body   []byte
	err    error
}

// retryable reports whether the attempt should move to the next ring
// candidate: transport failures, a shedding worker (503) and a compute
// timeout (504) are; everything else — including a worker's 4xx/500,
// which would fail identically anywhere — is relayed as-is.
func (u *upstream) retryable() bool {
	if u.err != nil {
		return true
	}
	return u.status == http.StatusServiceUnavailable || u.status == http.StatusGatewayTimeout
}

// handleEstimate is the routed POST /v1/estimate: validate and
// canonicalise once at the edge, pick the key's owner from the ring, and
// relay the owner's response bytes verbatim (byte-identity across direct,
// routed and failover paths is a test-pinned invariant). Retryable
// failures walk the ring with backoff; an optional hedge races the next
// candidate against a slow one.
func (rt *Router) handleEstimate(w http.ResponseWriter, r *http.Request) {
	var req serve.EstimateRequest
	raw, ok := server.DecodeJSON(w, r, &req)
	if !ok {
		return
	}
	if err := req.Normalize(); err != nil {
		server.WriteError(w, http.StatusBadRequest, "invalid_request", "%s", err.Error())
		return
	}
	key := req.Key()

	owner := rt.ring.Sequence(key, 1)
	cands := rt.balancer.Sequence(key, 1+rt.cfg.Retries)
	if len(cands) == 0 {
		telemetry.Active().FleetGaveUp()
		w.Header().Set("Retry-After", "1")
		server.WriteError(w, http.StatusServiceUnavailable, "no_ready_workers",
			"no fleet worker is passing /readyz")
		return
	}
	telemetry.Active().FleetForwarded()
	u := rt.forward(r.Context(), cands, raw)
	if u == nil || u.err != nil {
		telemetry.Active().FleetGaveUp()
		msg := "every candidate worker failed"
		if u != nil {
			msg = fmt.Sprintf("last worker (%s): %v", u.member, u.err)
		}
		server.WriteError(w, http.StatusBadGateway, "fleet_exhausted", "%s", msg)
		return
	}
	if len(owner) > 0 && u.member != owner[0] {
		telemetry.Active().FleetFailedOver()
	}
	if u.ctype != "" {
		w.Header().Set("Content-Type", u.ctype)
	}
	if u.cache != "" {
		w.Header().Set("X-Ghosts-Cache", u.cache)
	}
	w.Header().Set("X-Ghosts-Worker", u.member)
	w.WriteHeader(u.status)
	w.Write(u.body)
}

// forward tries cands in order: sequential retries with exponential
// backoff on retryable failures, plus at most one hedge launched when the
// in-flight attempt is slower than HedgeAfter. The first non-retryable
// response wins; outstanding attempts are cancelled through the shared
// context. Returns the last failure when every candidate failed.
func (rt *Router) forward(ctx context.Context, cands []string, body []byte) *upstream {
	actx := ctx
	var cancel context.CancelFunc
	if rt.cfg.ForwardTimeout > 0 {
		actx, cancel = context.WithTimeout(ctx, rt.cfg.ForwardTimeout)
	} else {
		actx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	results := make(chan *upstream, len(cands))
	next := 0
	launch := func() bool {
		if next >= len(cands) {
			return false
		}
		m := cands[next]
		next++
		go func() { results <- rt.attempt(actx, m, body) }()
		return true
	}
	launch()

	var hedge <-chan time.Time
	if rt.cfg.HedgeAfter > 0 {
		t := time.NewTimer(rt.cfg.HedgeAfter)
		defer t.Stop()
		hedge = t.C
	}
	outstanding := 1
	backoff := rt.cfg.RetryBackoff
	var last *upstream
	for outstanding > 0 {
		select {
		case u := <-results:
			outstanding--
			if !u.retryable() {
				return u
			}
			last = u
			if next < len(cands) {
				// The backoff must keep draining results: a hedge launched
				// earlier may win while the sequential path sleeps, and its
				// response must not wait out a loser's backoff. A further
				// retryable result short-circuits the sleep — both attempts
				// already failed, so delaying the next candidate buys nothing.
				timer := time.NewTimer(backoff)
				waiting := true
				for waiting {
					select {
					case <-timer.C:
						waiting = false
					case u2 := <-results:
						outstanding--
						if !u2.retryable() {
							timer.Stop()
							return u2
						}
						last = u2
						waiting = false
					case <-actx.Done():
						timer.Stop()
						return last
					}
				}
				timer.Stop()
				backoff *= 2
				telemetry.Active().FleetRetried()
				launch()
				outstanding++
			}
		case <-hedge:
			hedge = nil
			if next < len(cands) {
				telemetry.Active().FleetHedged()
				launch()
				outstanding++
			}
		case <-actx.Done():
			if last == nil {
				last = &upstream{err: actx.Err()}
			}
			return last
		}
	}
	return last
}

// attempt forwards the body to one worker and reads the full response.
func (rt *Router) attempt(ctx context.Context, member string, body []byte) *upstream {
	release := rt.balancer.Acquire(member)
	defer release()
	resp, b, err := fetch(ctx, rt.client, http.MethodPost, member+"/v1/estimate", body)
	if err != nil {
		return &upstream{member: member, err: err}
	}
	return &upstream{
		member: member,
		status: resp.StatusCode,
		ctype:  resp.Header.Get("Content-Type"),
		cache:  resp.Header.Get("X-Ghosts-Cache"),
		body:   b,
	}
}

// fleetEnvelope is the body of GET /v1/fleet: registered membership (with
// lease state) and per-member in-flight load, for operators, the load
// generator, and workers deriving their peer-fill lists.
type fleetEnvelope struct {
	API     string        `json:"api"`
	Kind    string        `json:"kind"` // always "fleet"
	Live    int           `json:"live"`
	Members []fleetMember `json:"members"`
}

type fleetMember struct {
	URL            string  `json:"url"`
	Live           bool    `json:"live"`
	Inflight       int     `json:"inflight"`
	Source         string  `json:"source"`                     // "static" (seeded) or "lease" (joined)
	LeaseExpiresIn float64 `json:"lease_expires_in,omitempty"` // seconds; absent for static members
}

func (rt *Router) handleFleet(w http.ResponseWriter, r *http.Request) {
	liveness := rt.ring.Members()
	env := fleetEnvelope{API: serve.APIVersion, Kind: "fleet"}
	for _, info := range rt.registry.Snapshot() {
		m := fleetMember{
			URL:      info.URL,
			Live:     liveness[info.URL],
			Inflight: rt.balancer.Inflight(info.URL),
			Source:   "lease",
		}
		if info.Static {
			m.Source = "static"
		} else {
			m.LeaseExpiresIn = info.LeaseIn.Seconds()
		}
		if m.Live {
			env.Live++
		}
		env.Members = append(env.Members, m)
	}
	server.WriteJSON(w, http.StatusOK, env)
}

// joinRequest is the body of POST /v1/fleet/join (initial registration and
// heartbeat renewal alike) and of POST /v1/fleet/leave.
type joinRequest struct {
	// URL is the worker's advertised base URL, reachable from the router.
	URL string `json:"url"`
	// TTLSeconds is the requested lease; 0 selects the router's default.
	TTLSeconds float64 `json:"ttl_seconds,omitempty"`
}

// leaseEnvelope is the join response: the granted lease and a suggested
// heartbeat cadence (renew well before the lease lapses).
type leaseEnvelope struct {
	API              string  `json:"api"`
	Kind             string  `json:"kind"` // always "lease"
	URL              string  `json:"url"`
	TTLSeconds       float64 `json:"ttl_seconds"`
	HeartbeatSeconds float64 `json:"heartbeat_seconds"`
	Live             bool    `json:"live"` // did the worker pass its admission probe
}

// decodeJoinBody reads and strictly decodes a join/leave body, returning
// the normalised member URL.
func decodeJoinBody(w http.ResponseWriter, r *http.Request) (joinRequest, string, bool) {
	var req joinRequest
	if _, ok := server.DecodeJSON(w, r, &req); !ok {
		return req, "", false
	}
	member, err := NormalizeMemberURL(req.URL)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, "invalid_request", "%s", err.Error())
		return req, "", false
	}
	if req.TTLSeconds < 0 {
		server.WriteError(w, http.StatusBadRequest, "invalid_request", "ttl_seconds must be non-negative")
		return req, "", false
	}
	return req, member, true
}

// handleJoin is POST /v1/fleet/join: register (or renew) a worker under a
// heartbeat lease. The worker is probed synchronously so a ready joiner is
// routable the moment this call returns; an unready one is registered but
// stays out of the ring until a probe passes — exactly the static-member
// admission rule.
func (rt *Router) handleJoin(w http.ResponseWriter, r *http.Request) {
	req, member, ok := decodeJoinBody(w, r)
	if !ok {
		return
	}
	ttl := clampTTL(time.Duration(req.TTLSeconds*float64(time.Second)), rt.cfg.LeaseTTL)
	rt.registry.Join(member, ttl)
	live := rt.prober.ProbeMember(r.Context(), member)
	server.WriteJSON(w, http.StatusOK, leaseEnvelope{
		API:              serve.APIVersion,
		Kind:             "lease",
		URL:              member,
		TTLSeconds:       ttl.Seconds(),
		HeartbeatSeconds: (ttl / 3).Seconds(),
		Live:             live,
	})
}

// leftEnvelope is the leave response.
type leftEnvelope struct {
	API        string `json:"api"`
	Kind       string `json:"kind"` // always "left"
	URL        string `json:"url"`
	Registered bool   `json:"registered"` // was the member actually under lease
}

// handleLeave is POST /v1/fleet/leave: a worker's drain-time deregister.
// Idempotent — leaving an unknown or already-expired member answers 200
// with registered=false, so a drain race against lease expiry is harmless.
func (rt *Router) handleLeave(w http.ResponseWriter, r *http.Request) {
	_, member, ok := decodeJoinBody(w, r)
	if !ok {
		return
	}
	known := rt.registry.Leave(member)
	server.WriteJSON(w, http.StatusOK, leftEnvelope{API: serve.APIVersion, Kind: "left", URL: member, Registered: known})
}

// handleReadyz: the router is ready while it is not draining and at least
// one worker is live — a router with an empty ring can serve nothing.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	switch {
	case !rt.edge.Ready():
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
	case rt.ring.Live() == 0:
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "no ready workers")
	default:
		fmt.Fprintln(w, "ok")
	}
}
