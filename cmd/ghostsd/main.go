// Command ghostsd is the long-running estimation service: the ghosts
// capture-recapture engine behind an HTTP API, with a result cache,
// single-flight deduplication of identical requests, bounded admission in
// front of the GLM/bootstrap hot paths, and an async job API over the
// experiment catalogue.
//
// The same binary also runs as a fleet router (-router): a stateless
// front that consistent-hashes request keys across worker processes, with
// health-gated membership, retry/hedging, and verbatim response relay
// (FLEET.md documents the full protocol).
//
// Usage:
//
//	ghostsd                                  # serve on :8080
//	ghostsd -addr localhost:9090             # explicit address
//	ghostsd -slots 2 -queue 128              # widen admission bounds
//	ghostsd -compute-timeout 30s             # bound each estimate's compute (504 past it)
//	ghostsd -cache-size 1024 -cache-ttl 1h   # result-cache tuning
//	ghostsd -metrics run.json                # telemetry report on shutdown
//	ghostsd -netflow-listen                  # live NetFlow ingest + /v1/watch tick stream
//	ghostsd -netflow-listen -watch-window 1m -watch-every 30s -watch-windows 3
//	ghostsd -peers http://host2:8080         # worker: fill cache misses from peers first
//	ghostsd -router http://h1:8080,http://h2:8080 -addr :8000   # fleet router mode (static seeds)
//	ghostsd -router-mode -addr :8000         # fleet router with no static workers (dynamic joins only)
//	ghostsd -join http://router:8000         # worker: self-register at the router under a heartbeat lease
//	ghostsd -join http://router:8000 -advertise http://10.0.0.7:8080 -lease-ttl 15s
//
// Endpoints (SERVING.md documents schemas and semantics; STREAMING.md
// covers /v1/watch):
//
//	POST /v1/estimate     capture-history estimate with profile interval
//	GET  /v1/experiments  the experiment catalogue
//	POST /v1/jobs         launch an experiment asynchronously
//	GET  /v1/jobs/{id}    job status and result
//	GET  /v1/watch        SSE stream of rolling window estimates (with -netflow-listen)
//	GET  /v1/cache/{key}  stored response bytes for a canonical key (fleet peer fill)
//	GET  /v1/loadz        admission-gate and cache occupancy snapshot
//
// Router-mode endpoints additionally include dynamic membership
// (FLEET.md): POST /v1/fleet/join (register/renew a worker under a
// heartbeat lease), POST /v1/fleet/leave (drain-time deregister), and
// GET /v1/fleet (registered members with liveness and lease state).
//
//	GET  /healthz         liveness
//	GET  /readyz          readiness (503 while draining)
//	GET  /debug/vars      expvar, including the live telemetry report
//	GET  /debug/pprof/    profiling
//
// SIGINT/SIGTERM begin a graceful shutdown: readiness flips, in-flight
// requests drain, pending jobs are cancelled and running jobs complete.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"ghosts/internal/fleet"
	"ghosts/internal/ingest"
	"ghosts/internal/netflow"
	"ghosts/internal/parallel"
	"ghosts/internal/serve"
	"ghosts/internal/server"
	"ghosts/internal/telemetry"
)

// splitURLs parses a comma-separated worker/peer list, normalising each
// entry to a base URL: a bare host:port gains http://, trailing slashes
// are trimmed so path concatenation stays clean.
func splitURLs(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if !strings.Contains(part, "://") {
			part = "http://" + part
		}
		out = append(out, strings.TrimRight(part, "/"))
	}
	return out
}

func main() {
	var (
		addrFlag     = flag.String("addr", ":8080", "listen address")
		parallelFlag = flag.Int("parallel", 0, "worker goroutines per computation (0 = GOMAXPROCS, 1 = serial)")
		slotsFlag    = flag.Int("slots", 1, "concurrent computations admitted (each fans out across -parallel workers)")
		queueFlag    = flag.Int("queue", 64, "admission-queue depth before requests are shed with 503")
		cacheFlag    = flag.Int("cache-size", 256, "result-cache entries (negative disables caching)")
		ttlFlag      = flag.Duration("cache-ttl", 15*time.Minute, "result-cache entry lifetime (negative disables expiry)")
		jobsFlag     = flag.Int("max-jobs", 64, "job-store capacity (oldest finished jobs are evicted)")
		drainFlag    = flag.Duration("drain", 30*time.Second, "graceful-shutdown budget for in-flight HTTP requests")
		computeFlag  = flag.Duration("compute-timeout", 0, "per-request compute deadline for /v1/estimate (0 = none; past it the request fails with 504)")
		metricsFlag  = flag.String("metrics", "", "write a JSON telemetry run report here on shutdown (see OBSERVABILITY.md)")
		netflowFlag  = flag.Bool("netflow-listen", false, "receive NetFlow v5 on loopback UDP (address printed at startup) and stream windowed estimates on GET /v1/watch")
		wwindowFlag  = flag.Duration("watch-window", time.Minute, "streaming: width of one observation window (with -netflow-listen)")
		wcountFlag   = flag.Int("watch-windows", 3, "streaming: live windows kept before the oldest rotates out (with -netflow-listen)")
		weveryFlag   = flag.Duration("watch-every", 30*time.Second, "streaming: re-estimation cadence (with -netflow-listen)")
		wrotateFlag  = flag.Int("watch-rotate-every", 0, "streaming: rotate windows every N accepted events instead of by wall clock; windows are then labelled by event ordinal (with -netflow-listen)")
		routerFlag   = flag.String("router", "", "fleet router mode: comma-separated static worker base URLs to route across (disables the local engine)")
		routerModeF  = flag.Bool("router-mode", false, "fleet router mode with no static workers: membership comes entirely from POST /v1/fleet/join")
		joinFlag     = flag.String("join", "", "worker mode: router base URL to self-register at under a heartbeat lease (peers are then derived from GET /v1/fleet)")
		advertiseF   = flag.String("advertise", "", "worker mode: base URL to advertise on -join (default http://<bound addr>; set it when listening on a wildcard address)")
		leaseFlag    = flag.Duration("lease-ttl", 0, "lease duration: requested on -join (worker), granted by default to joiners (router); 0 = the fleet default (15s)")
		peersFlag    = flag.String("peers", "", "worker mode: comma-separated static peer base URLs to consult for cached results before computing (X-Ghosts-Cache: peer); merged with -join-derived peers")
		retriesFlag  = flag.Int("retries", 2, "router: additional workers to try after a retryable failure (conn error, 503, 504); negative disables retries")
		hedgeFlag    = flag.Duration("hedge-after", 0, "router: launch the next candidate in parallel past this latency (0 disables hedging, preserving the fleet-wide single-compute guarantee)")
		probeFlag    = flag.Duration("probe-every", time.Second, "router: /readyz probe cadence for ring membership")
		boundFlag    = flag.Float64("load-bound", 1.25, "router: bounded-load factor c; a worker over ceil(c*total/live) in-flight forwards yields to the next ring candidate")
	)
	flag.Parse()
	parallel.SetWorkers(*parallelFlag)

	// The daemon always records telemetry: the live report feeds
	// /debug/vars and the per-route histograms in the shutdown report.
	start := time.Now()
	rec := telemetry.NewRecorder()
	telemetry.Enable(rec)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Router mode: no local engine, cache or gate — just the ring, the
	// registry, the health prober and the forwarding logic from
	// internal/fleet. -router seeds static members; -router-mode starts
	// with none and relies entirely on dynamic joins.
	if *routerFlag != "" || *routerModeF {
		rt, err := fleet.NewRouter(fleet.RouterConfig{
			Workers:      splitURLs(*routerFlag),
			Retries:      *retriesFlag,
			HedgeAfter:   *hedgeFlag,
			ProbeEvery:   *probeFlag,
			LoadBound:    *boundFlag,
			LeaseTTL:     *leaseFlag,
			DrainTimeout: *drainFlag,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "ghostsd: %v\n", err)
			os.Exit(1)
		}
		shutdownReport(rec, start, *metricsFlag, rt.Run(ctx, *addrFlag))
		return
	}

	frontCfg := serve.FrontConfig{
		CacheSize: *cacheFlag,
		CacheTTL:  *ttlFlag,
		Slots:     *slotsFlag,
		MaxQueue:  *queueFlag,
	}
	// Peer cache fill: static peers come from -peers; with -join the list
	// is additionally kept in sync with the router's member registry after
	// every heartbeat (static entries always stay).
	staticPeers := splitURLs(*peersFlag)
	var filler *fleet.PeerFiller
	if len(staticPeers) > 0 || *joinFlag != "" {
		filler = fleet.NewPeerFiller(staticPeers, 0, 0)
		frontCfg.PeerFill = filler.Fill
	}
	front := serve.NewFront(frontCfg)

	// -netflow-listen turns on the streaming side: a NetFlow v5 collector
	// feeding the sliding-window pipeline behind GET /v1/watch. Vantages
	// are keyed by exporter address; event time is the export header's
	// UnixSecs, and a wall-clock ticker keeps estimates flowing through
	// quiet periods (the pipeline's logical clock is the max of both).
	var pipe *ingest.Pipeline
	if *netflowFlag {
		pipe = ingest.New(ingest.Config{
			Window:      *wwindowFlag,
			Windows:     *wcountFlag,
			Every:       *weveryFlag,
			RotateEvery: *wrotateFlag,
		})
		// The header timestamp is attacker-controlled wire input: one
		// datagram stamped far in the future would drag the pipeline's
		// monotonic logical clock there for good, turning every genuine
		// event into a late drop. Ordinary exporter clock skew is seconds;
		// reject anything further ahead of the wall clock than that, with
		// a margin (the drop is counted in ingest.dropped).
		const maxFutureSkew = 5 * time.Minute
		col, err := netflow.NewCollectorFunc(func(from *net.UDPAddr, r netflow.Record, at time.Time) {
			if at.After(time.Now().Add(maxFutureSkew)) {
				telemetry.Active().IngestEventDropped()
				return
			}
			src, err := pipe.Source(from.IP.String())
			if err != nil {
				src = -1 // beyond the 16-vantage table limit: Offer counts the drop
			}
			pipe.Offer(src, r.Src, at)
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "ghostsd: netflow collector: %v\n", err)
			os.Exit(1)
		}
		defer col.Close()
		fmt.Fprintf(os.Stderr, "ghostsd: netflow collector on udp://%s, tick stream on GET /v1/watch\n", col.Addr())
		go func() {
			tick := time.NewTicker(*weveryFlag)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case now := <-tick.C:
					pipe.Advance(now.UTC())
				}
			}
		}()
	}

	// The joiner self-registers this worker at a router and deregisters at
	// drain time. It is bound late (the advertised URL may derive from the
	// listen address, known only once Run is serving), so PreDrain loads it
	// through an atomic pointer.
	var joiner atomic.Pointer[fleet.Joiner]
	srv := server.New(server.Config{
		Front:          front,
		MaxJobs:        *jobsFlag,
		DrainTimeout:   *drainFlag,
		ComputeTimeout: *computeFlag,
		Recorder:       rec,
		Watch:          pipe,
		PreDrain: func(ctx context.Context) {
			if j := joiner.Load(); j != nil {
				if err := j.Leave(ctx); err != nil {
					fmt.Fprintf(os.Stderr, "ghostsd: fleet deregister: %v\n", err)
				}
			}
		},
	})

	if *joinFlag != "" {
		go func() {
			self := *advertiseF
			if self == "" {
				for srv.Addr() == "" {
					select {
					case <-ctx.Done():
						return
					case <-time.After(10 * time.Millisecond):
					}
				}
				self = "http://" + srv.Addr()
			}
			j, err := fleet.NewJoiner(*joinFlag, self, *leaseFlag, os.Stderr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ghostsd: %v\n", err)
				return
			}
			j.OnPeers = func(peers []string) {
				merged := append(append([]string(nil), staticPeers...), peers...)
				filler.SetPeers(merged)
			}
			joiner.Store(j)
			j.Run(ctx)
		}()
	}

	shutdownReport(rec, start, *metricsFlag, srv.Run(ctx, *addrFlag))
}

// shutdownReport ends a serve run in either mode: it writes the telemetry
// run report to path when -metrics asked for one, then exits 1 if the
// report or the serve loop (runErr) failed.
func shutdownReport(rec *telemetry.Recorder, start time.Time, path string, runErr error) {
	if path != "" {
		rep := rec.Report(start, time.Now(), parallel.Workers())
		if err := rep.WriteFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "ghostsd: writing metrics report: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "ghostsd: wrote telemetry run report to %s\n", path)
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "ghostsd: %v\n", runErr)
		os.Exit(1)
	}
}
