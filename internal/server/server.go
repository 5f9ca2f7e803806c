package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"time"

	"ghosts/internal/experiments"
	"ghosts/internal/ingest"
	"ghosts/internal/parallel"
	"ghosts/internal/serve"
	"ghosts/internal/telemetry"
)

// statusClientClosedRequest is nginx's 499: the client went away before
// the response was ready. There is no standard code for it; 499 is the
// de-facto convention and keeps cancellations distinct from server faults
// in logs and metrics.
const statusClientClosedRequest = 499

// Config assembles a Server. Zero values select defaults.
type Config struct {
	Front   *serve.Front // required: the estimation front-end
	MaxJobs int          // job-store capacity; default 64
	// RunJob overrides the job executor (tests inject gates and counters);
	// default runs the named catalogue experiment.
	RunJob serve.RunJobFunc
	// DrainTimeout bounds Run's graceful shutdown of in-flight HTTP
	// requests; default 30s. Job draining is not subject to it — running
	// jobs always complete.
	DrainTimeout time.Duration
	// ComputeTimeout, when positive, bounds each estimate request's
	// compute (queueing included): past it the engine stops at its next
	// cooperative checkpoint and the request fails with 504. Zero means
	// no per-request deadline.
	ComputeTimeout time.Duration
	// Recorder, when set, is published as the live "telemetry" expvar.
	Recorder *telemetry.Recorder
	// Watch, when set, enables GET /v1/watch: the streaming pipeline whose
	// ticks the endpoint relays as server-sent events. Nil (the default)
	// means the route answers 404 — ghostsd without a live feed has no
	// tick stream to serve.
	Watch *ingest.Pipeline
	// PreDrain, when set, runs at the start of graceful shutdown — after
	// readiness flips but before the listener closes — with a context
	// bounded by the drain budget. ghostsd uses it to deregister from the
	// fleet router (fleet.Joiner.Leave) while this worker's cache is still
	// being served, so displaced keys can be peer-filled during the drain
	// window instead of refitted.
	PreDrain func(ctx context.Context)
	// Log receives one line per lifecycle event; default os.Stderr.
	Log io.Writer
}

// Server wires the serve front-end and job store into an http.Handler and
// owns readiness and graceful shutdown.
type Server struct {
	mux            *http.ServeMux
	edge           *Edge
	front          *serve.Front
	jobs           *serve.Jobs
	watch          *ingest.Pipeline
	preDrain       func(ctx context.Context)
	computeTimeout time.Duration
	start          time.Time
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	if cfg.Front == nil {
		cfg.Front = serve.NewFront(serve.FrontConfig{})
	}
	s := &Server{
		mux:            http.NewServeMux(),
		edge:           NewEdge("", cfg.Log, cfg.DrainTimeout),
		front:          cfg.Front,
		watch:          cfg.Watch,
		preDrain:       cfg.PreDrain,
		computeTimeout: cfg.ComputeTimeout,
		start:          time.Now(),
	}
	runJob := cfg.RunJob
	if runJob == nil {
		runJob = s.runExperimentJob
	}
	s.jobs = serve.NewJobs(cfg.MaxJobs, runJob)

	log := s.edge.log
	s.mux.HandleFunc("POST /v1/estimate", Instrument(log, "estimate", s.handleEstimate))
	s.mux.HandleFunc("GET /v1/experiments", Instrument(log, "experiments", s.handleExperiments))
	s.mux.HandleFunc("POST /v1/jobs", Instrument(log, "jobs.submit", s.handleJobSubmit))
	s.mux.HandleFunc("GET /v1/jobs", Instrument(log, "jobs.list", s.handleJobList))
	s.mux.HandleFunc("GET /v1/jobs/{id}", Instrument(log, "jobs.get", s.handleJobGet))
	s.mux.HandleFunc("GET /v1/watch", Instrument(log, "watch", s.handleWatch))
	s.mux.HandleFunc("GET /v1/cache/{key}", Instrument(log, "cache.get", s.handleCacheGet))
	s.mux.HandleFunc("GET /v1/loadz", Instrument(log, "loadz", s.handleLoadz))
	s.mux.HandleFunc("GET /healthz", Instrument(log, "healthz", Healthz))
	s.mux.HandleFunc("GET /readyz", Instrument(log, "readyz", s.handleReadyz))

	// The existing debug surface, folded into the same mux.
	s.mux.Handle("GET /debug/vars", expvar.Handler())
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if cfg.Recorder != nil {
		rec, start := cfg.Recorder, s.start
		publishExpvarOnce("telemetry", expvar.Func(func() any {
			return rec.Report(start, time.Now(), parallel.Workers())
		}))
	}
	return s
}

// publishExpvarOnce tolerates re-registration (tests build several
// servers in one process; expvar.Publish panics on duplicates).
func publishExpvarOnce(name string, v expvar.Var) {
	if expvar.Get(name) == nil {
		expvar.Publish(name, v)
	}
}

// Handler returns the root handler (also useful under httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// Addr returns the bound listen address once Run is serving ("" before).
// With "-addr :0" this is how callers learn the picked port.
func (s *Server) Addr() string { return s.edge.Addr() }

// SetReady flips the /readyz probe; Run clears it when shutdown begins so
// load balancers stop routing before the listener closes.
func (s *Server) SetReady(ready bool) { s.edge.ready.Store(ready) }

// Run serves on addr until ctx is cancelled, then shuts down gracefully:
// readiness goes false, pending jobs are cancelled, PreDrain runs,
// in-flight HTTP requests get DrainTimeout to finish, and running jobs
// are drained to completion before Run returns. A clean shutdown returns
// nil.
func (s *Server) Run(ctx context.Context, addr string) error {
	err := s.edge.Serve(ctx, addr, s.mux, "", func(ctx context.Context) {
		// Pending jobs are canceled the moment shutdown starts, so nothing
		// new can claim a compute slot; in-flight HTTP requests and
		// already-running jobs then drain to completion.
		s.jobs.BeginShutdown()
		if s.preDrain != nil {
			s.preDrain(ctx)
		}
	})
	s.jobs.Drain()
	return err
}

// runExperimentJob is the default job executor: build a fresh environment
// at the requested scale and seed, run the catalogue experiment, capture
// the rendered report and the typed data. The admission gate is shared
// with synchronous estimates so jobs cannot oversubscribe the engine.
func (s *Server) runExperimentJob(ctx context.Context, spec serve.JobSpec) (serve.JobResult, error) {
	ex, ok := experiments.Lookup(spec.Experiment)
	if !ok {
		return serve.JobResult{}, fmt.Errorf("unknown experiment %q", spec.Experiment)
	}
	cfg, ok := experiments.EnvConfig(spec.Scale, spec.Seed)
	if !ok {
		return serve.JobResult{}, fmt.Errorf("unknown scale %q", spec.Scale)
	}
	if err := s.front.AcquireSlot(ctx); err != nil {
		return serve.JobResult{}, err
	}
	defer s.front.ReleaseSlot()
	env := experiments.New(cfg, spec.Seed)
	result := ex.Run(env)
	var buf bytes.Buffer
	result.Render(&buf)
	data, err := json.Marshal(result)
	if err != nil {
		return serve.JobResult{Output: buf.String()}, nil
	}
	return serve.JobResult{Output: buf.String(), Data: data}, nil
}

// handleEstimate is POST /v1/estimate: validate, then serve through the
// cache / single-flight / admission front-end. The response bytes come
// back pre-encoded so every production path emits identical bytes; the
// X-Ghosts-Cache header says which path ran (hit, miss, coalesced).
//
// The request context (plus the optional compute deadline) propagates all
// the way into the engine's cooperative checkpoints. Failure mapping: a
// vanished client is 499 (nginx convention), a compute deadline is 504, a
// recovered compute panic is 500 — each with its own telemetry counter.
func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	var req serve.EstimateRequest
	if _, ok := DecodeJSON(w, r, &req); !ok {
		return
	}
	ctx := r.Context()
	if s.computeTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.computeTimeout)
		defer cancel()
	}
	body, status, err := s.front.Estimate(ctx, &req)
	if err != nil {
		var reqErr *serve.RequestError
		var panicErr *serve.PanicError
		switch {
		case errors.As(err, &reqErr):
			WriteError(w, http.StatusBadRequest, "invalid_request", "%s", reqErr.Error())
		case errors.As(err, &panicErr):
			WriteError(w, http.StatusInternalServerError, "internal_panic",
				"estimation aborted: %v", panicErr)
		case errors.Is(err, serve.ErrSaturated):
			w.Header().Set("Retry-After", "1")
			WriteError(w, http.StatusServiceUnavailable, "saturated", "admission queue full, retry later")
		case errors.Is(err, context.DeadlineExceeded):
			telemetry.Active().RequestTimedOut()
			WriteError(w, http.StatusGatewayTimeout, "compute_timeout",
				"estimate exceeded the compute deadline (%v)", s.computeTimeout)
		case errors.Is(err, context.Canceled):
			telemetry.Active().RequestCanceled()
			// Best-effort: the client is usually gone; the envelope is for
			// proxies and logs.
			WriteError(w, statusClientClosedRequest, "client_closed_request", "request canceled: %v", err)
		default:
			WriteError(w, http.StatusUnprocessableEntity, "estimation_failed", "%v", err)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Ghosts-Cache", string(status))
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// experimentsEnvelope is the body of GET /v1/experiments.
type experimentsEnvelope struct {
	API         string          `json:"api"`
	Kind        string          `json:"kind"` // always "experiments"
	Scales      []string        `json:"scales"`
	Experiments []experimentRef `json:"experiments"`
}

type experimentRef struct {
	ID    string `json:"id"`
	Title string `json:"title"`
}

// handleExperiments is GET /v1/experiments: the catalogue, sorted by id —
// the same registry the ghosts CLI's -list prints.
func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	env := experimentsEnvelope{
		API:    serve.APIVersion,
		Kind:   "experiments",
		Scales: experiments.Scales(),
	}
	for _, ex := range experiments.Catalogue() {
		env.Experiments = append(env.Experiments, experimentRef{ID: ex.ID, Title: ex.Title})
	}
	WriteJSON(w, http.StatusOK, env)
}

// handleJobSubmit is POST /v1/jobs: validate the spec against the
// catalogue and scale vocabulary, then enqueue.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var spec serve.JobSpec
	if _, ok := DecodeJSON(w, r, &spec); !ok {
		return
	}
	if _, ok := experiments.Lookup(spec.Experiment); !ok {
		WriteError(w, http.StatusBadRequest, "invalid_request",
			"unknown experiment %q (see GET /v1/experiments)", spec.Experiment)
		return
	}
	if spec.Scale == "" {
		spec.Scale = "tiny"
	}
	if _, ok := experiments.EnvConfig(spec.Scale, spec.Seed); !ok {
		WriteError(w, http.StatusBadRequest, "invalid_request",
			"unknown scale %q (tiny, small, medium)", spec.Scale)
		return
	}
	job, err := s.jobs.Submit(spec)
	if err != nil {
		WriteError(w, http.StatusTooManyRequests, "jobs_full", "%v", err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+job.ID)
	WriteJSON(w, http.StatusAccepted, job)
}

// handleJobGet is GET /v1/jobs/{id}.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.jobs.Get(id)
	if !ok {
		WriteError(w, http.StatusNotFound, "not_found", "no job %q", id)
		return
	}
	WriteJSON(w, http.StatusOK, job)
}

// jobsEnvelope is the body of GET /v1/jobs.
type jobsEnvelope struct {
	API  string      `json:"api"`
	Kind string      `json:"kind"` // always "jobs"
	Jobs []serve.Job `json:"jobs"`
}

// handleJobList is GET /v1/jobs: every stored job, submission order.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, jobsEnvelope{API: serve.APIVersion, Kind: "jobs", Jobs: s.jobs.List()})
}

// handleCacheGet is GET /v1/cache/{key}: the fleet-internal peer-fill
// endpoint. It serves the stored encoded response bytes for a canonical
// request key verbatim — never computing — or 404 when this node holds no
// copy. Peers (internal/fleet.PeerFiller) use it so a key rehashed to a
// new owner is answered from the old owner's cache instead of being
// refitted, keeping fleet-wide computes at one per key.
// validKey reports whether key has the canonical request-key shape: 64
// lowercase hex characters (the SHA-256 serve.EstimateRequest.Key emits).
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !validKey(key) {
		WriteError(w, http.StatusBadRequest, "invalid_request",
			"key must be a 64-hex-character canonical request key")
		return
	}
	body, ok := s.front.Cached(key)
	if !ok {
		WriteError(w, http.StatusNotFound, "not_cached", "no stored response for key %s", key)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Ghosts-Cache", string(serve.StatusHit))
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// loadEnvelope is the body of GET /v1/loadz.
type loadEnvelope struct {
	API   string     `json:"api"`
	Kind  string     `json:"kind"` // always "load"
	Ready bool       `json:"ready"`
	Load  serve.Load `json:"load"`
}

// handleLoadz is GET /v1/loadz: the worker's live saturation snapshot —
// compute-slot and admission-queue occupancy plus cache fill — for the
// fleet router's shed/hedge decisions.
func (s *Server) handleLoadz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, loadEnvelope{
		API:   serve.APIVersion,
		Kind:  "load",
		Ready: s.edge.Ready(),
		Load:  s.front.Load(),
	})
}

// handleReadyz reports readiness: 503 once shutdown has begun.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.edge.Ready() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}
