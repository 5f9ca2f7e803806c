package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ghosts/internal/core"
	"ghosts/internal/parallel"
	"ghosts/internal/rng"
	"ghosts/internal/serve"
	"ghosts/internal/telemetry"
)

// Serve workload shape. A seeded corpus of 3–9-source capture-history
// tables (with profile intervals) is requested through a router and two
// ghostsd workers wired for peer fill both ways. Requests pick entries by
// Zipf rank; the corpus is four times the fleet's cache capacity, so the
// caches keep evicting and a steady minority of requests are cold fits.
const (
	serveCorpus     = 512
	serveCacheSize  = 64 // entries per worker
	serveZipfS      = 1.1
	serveNominalRPS = 300
	serveWarmup     = 600   // requests sent closed-loop before timing
	serveLimitMS    = 100.0 // latency limit on the tail, for goodput

	serveRung         = 1500 * time.Millisecond // length of one goodput ladder rung
	serveTraceNominal = 9 * time.Second         // nominal schedule of the traced pass, sent three ways
)

// serveLadder is the fixed rate ladder goodput is read from: 150
// requests/s and up in steps of 1.2×, to 2311. The steps are fine so that a
// knee moving with the machine's speed moves goodput by one step, not by
// half.
var serveLadder = func() []float64 {
	var l []float64
	for r := 150.0; len(l) < 16; r *= 1.2 {
		l = append(l, math.Round(r))
	}
	return l
}()

// corpusEntry is one request body with its canonical key and the bytes
// the in-process serve.Compute path encodes for it.
type corpusEntry struct {
	body []byte
	key  string
	want []byte
	resp *serve.EstimateResponse
}

// buildCorpus derives the request corpus from the seed. Each entry
// simulates a closed population with heterogeneous catchability seen by t
// sources of differing coverage, so model selection has dependence to
// find. Entries whose estimate fails are redrawn: the workload contains
// no request that should fail.
func buildCorpus(seed uint64) ([]corpusEntry, error) {
	master := rng.New(seed ^ 0xc0ffee)
	out := make([]corpusEntry, serveCorpus)
	reqs := make([]serve.EstimateRequest, serveCorpus)
	draw := func(i int, r *rng.RNG) {
		t := 3 + i%7
		n := 500 + r.Intn(1500)
		cover := make([]float64, t)
		for s := range cover {
			cover[s] = 0.1 + 0.4*r.Float64()
		}
		counts := make([]int64, 1<<uint(t))
		for k := 0; k < n; k++ {
			h := math.Exp(0.2 * r.NormFloat64())
			mask := 0
			for s, p := range cover {
				if r.Float64() < math.Min(1, p*h) {
					mask |= 1 << uint(s)
				}
			}
			counts[mask]++
		}
		counts[0] = 0
		names := make([]string, t)
		for s := range names {
			names[s] = fmt.Sprintf("c%d-s%d", i, s+1)
		}
		reqs[i] = serve.EstimateRequest{Sources: names, Counts: counts, Limit: float64(4 * n)}
	}
	rngs := make([]*rng.RNG, serveCorpus)
	for i := range rngs {
		rngs[i] = master.Split()
		draw(i, rngs[i])
	}
	errs := make([]error, serveCorpus)
	compute := func(i int) {
		req := reqs[i]
		if err := req.Normalize(); err != nil {
			errs[i] = err
			return
		}
		body, err := json.Marshal(&req)
		if err != nil {
			errs[i] = err
			return
		}
		resp, err := serve.Compute(context.Background(), &req)
		if err != nil {
			errs[i] = err
			return
		}
		errs[i] = nil
		out[i] = corpusEntry{body: body, key: req.Key(), want: resp.Encode(), resp: resp}
	}
	parallel.ForEach(serveCorpus, compute)
	for i, err := range errs {
		for try := 0; err != nil && try < 5; try++ {
			draw(i, rngs[i])
			compute(i)
			err = errs[i]
		}
		if err != nil {
			return nil, fmt.Errorf("serve: corpus entry %d: %v", i, err)
		}
	}
	return out, nil
}

// proc is one ghostsd process.
type proc struct {
	name    string
	url     string
	metrics string
	log     string
	cmd     *exec.Cmd
	done    chan error
}

// serveFleet is a router and two workers on loopback.
type serveFleet struct {
	router  *proc
	workers []*proc
	okSent  atomic.Int64 // successful estimate requests the benchmark sent to this fleet
}

// freePorts reserves n loopback ports by listening and closing.
func freePorts(n int) ([]int, error) {
	var ports []int
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		ports = append(ports, ln.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// startProc launches ghostsd with args, logging to dir/name.log.
func startProc(b *bench, dir, name string, port int, args ...string) (*proc, error) {
	p := &proc{
		name:    name,
		url:     fmt.Sprintf("http://127.0.0.1:%d", port),
		metrics: filepath.Join(dir, name+".json"),
		log:     filepath.Join(dir, name+".log"),
		done:    make(chan error, 1),
	}
	logf, err := os.Create(p.log)
	if err != nil {
		return nil, err
	}
	args = append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", port), "-metrics", p.metrics}, args...)
	p.cmd = exec.Command(b.ghostsd, args...)
	p.cmd.Stdout, p.cmd.Stderr = logf, logf
	// The process must not outlive the benchmark, whatever happens to it.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	go func() {
		p.done <- p.cmd.Wait()
		logf.Close()
	}()
	return p, nil
}

// wait waits for the process to exit after SIGTERM; it is killed if it
// has not exited after 40 seconds (ghostsd drains for up to 30). A failed
// exit carries the end of the process's log.
func (p *proc) wait() error {
	var err error
	select {
	case err = <-p.done:
	case <-time.After(40 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
		err = errors.New("did not exit on SIGTERM")
	}
	if err != nil {
		log, _ := os.ReadFile(p.log)
		if len(log) > 600 {
			log = log[len(log)-600:]
		}
		return fmt.Errorf("%s: %v; log ends: %q", p.name, err, log)
	}
	return nil
}

// startFleet launches two workers (each peer-filling from the other) and a
// router over them, and waits until the router sees both workers ready.
func startFleet(b *bench, dir string) (*serveFleet, error) {
	ports, err := freePorts(3)
	if err != nil {
		return nil, err
	}
	f := &serveFleet{}
	url := func(i int) string { return fmt.Sprintf("http://127.0.0.1:%d", ports[i]) }
	for i := 0; i < 2; i++ {
		w, err := startProc(b, dir, fmt.Sprintf("worker%d", i), ports[i],
			"-cache-size", strconv.Itoa(serveCacheSize), "-peers", url(1-i))
		if err != nil {
			f.stop()
			return nil, err
		}
		f.workers = append(f.workers, w)
	}
	f.router, err = startProc(b, dir, "router", ports[2],
		"-router", url(0)+","+url(1), "-probe-every", "50ms")
	if err != nil {
		f.stop()
		return nil, err
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		if live, _ := fleetLive(f.router.url); live == 2 {
			return f, nil
		}
		if time.Now().After(deadline) {
			f.stop()
			return nil, errors.New("serve: router did not see both workers ready within 20s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// fleetLive returns how many workers the router reports live.
func fleetLive(router string) (int, error) {
	resp, err := http.Get(router + "/v1/fleet")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var env struct {
		Live int `json:"live"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		return 0, err
	}
	return env.Live, nil
}

// peakRSS returns the largest VmHWM among the fleet's processes.
func (f *serveFleet) peakRSS() (float64, error) {
	var peak float64
	for _, p := range append([]*proc{f.router}, f.workers...) {
		v, err := peakRSSMB(strconv.Itoa(p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		peak = math.Max(peak, v)
	}
	return peak, nil
}

// stop drains every process and returns their telemetry reports, router
// first.
func (f *serveFleet) stop() ([]*telemetry.Report, error) {
	var procs []*proc
	if f.router != nil {
		procs = append(procs, f.router)
	}
	procs = append(procs, f.workers...)
	// The router drains first, so no forward is in flight when the
	// workers stop; the workers then drain together.
	var errs []error
	if f.router != nil {
		f.router.cmd.Process.Signal(syscall.SIGTERM)
		errs = append(errs, f.router.wait())
	}
	for _, w := range f.workers {
		w.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, w := range f.workers {
		errs = append(errs, w.wait())
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	var reps []*telemetry.Report
	for _, p := range procs {
		raw, err := os.ReadFile(p.metrics)
		if err != nil {
			return nil, err
		}
		rep := new(telemetry.Report)
		if err := json.Unmarshal(raw, rep); err != nil {
			return nil, fmt.Errorf("%s metrics: %v", p.name, err)
		}
		reps = append(reps, rep)
	}
	return reps, nil
}

// shot is one scheduled request: a corpus entry due at an offset from the
// start of the phase.
type shot struct {
	entry int
	due   time.Duration
}

// schedule draws n requests at rate per second: Poisson arrivals (scaled
// so the phase lasts exactly n/rate) over Zipf-ranked corpus entries.
func schedule(r *rng.RNG, n int, rate float64) []shot {
	zipf := rng.NewZipf(r.Split(), serveCorpus, serveZipfS)
	out := make([]shot, n)
	var t float64
	gaps := make([]float64, n)
	for i := range gaps {
		gaps[i] = r.Exp()
		t += gaps[i]
	}
	scale := float64(n) / rate / t
	var at float64
	for i := range out {
		out[i] = shot{entry: zipf.Next(), due: time.Duration(at * scale * float64(time.Second))}
		at += gaps[i]
	}
	return out
}

// reply is what one request returned.
type reply struct {
	status int
	body   []byte
	cache  string
	worker string
}

// sender issues one request for a corpus entry.
type sender func(ctx context.Context, e *corpusEntry) (reply, error)

// phase is the outcome of one open-loop pass.
type phase struct {
	lat     samples // due time → response, ms; failures are +Inf
	lag     samples // how late an idle connection started a due request, ms
	late    []time.Duration
	ok      int
	failed  int
	shed    int // 503 responses: admission refused the request
	cache   map[string]int
	worker  []string // per shot, the X-Ghosts-Worker that answered
	elapsed time.Duration
}

// drive sends shots open-loop over conns connections: each connection
// takes the next due request in schedule order, so requests queue at the
// client when both are busy, and every latency runs from the due time.
func drive(b *bench, shots []shot, corpus []corpusEntry, send sender, name string) *phase {
	conns := runtime.NumCPU()
	ph := &phase{cache: map[string]int{}, worker: make([]string, len(shots)), late: make([]time.Duration, len(shots))}
	lats := make([]float64, len(shots))
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lag []float64
			for {
				i := int(next.Add(1) - 1)
				if i >= len(shots) {
					break
				}
				due := start.Add(shots[i].due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
					lag = append(lag, millis(time.Since(due)))
				}
				ph.late[i] = time.Since(due)
				e := &corpus[shots[i].entry]
				id := b.tr.begin(name, -1, int64(i))
				rp, err := send(context.WithValue(context.Background(), spanKey{}, id), e)
				b.tr.end(id)
				lats[i] = millis(time.Since(due))
				shed := err == nil && rp.status == http.StatusServiceUnavailable
				if err == nil && rp.status != http.StatusOK {
					err = fmt.Errorf("serve: %s status %d: %.200s", name, rp.status, rp.body)
				}
				if err == nil && !bytes.Equal(rp.body, e.want) {
					err = fmt.Errorf("serve: %s response for key %.12s differs from in-process serve.Compute", name, e.key)
				}
				mu.Lock()
				if shed {
					ph.shed++
				}
				if err != nil {
					ph.failed++
					lats[i] = math.Inf(1)
					b.op(err)
				} else {
					ph.ok++
					b.op(nil)
					ph.cache[rp.cache]++
					ph.worker[i] = rp.worker
				}
				mu.Unlock()
			}
			mu.Lock()
			ph.lag.xs = append(ph.lag.xs, lag...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	ph.lat.xs = lats
	return ph
}

// httpSender posts corpus bodies to base/v1/estimate over a client limited
// to one connection per CPU, counting successes against the fleet.
func httpSender(client *http.Client, base func(e *corpusEntry) string, f *serveFleet) sender {
	return func(ctx context.Context, e *corpusEntry) (reply, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base(e)+"/v1/estimate", bytes.NewReader(e.body))
		if err != nil {
			return reply{}, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			return reply{}, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return reply{}, err
		}
		if resp.StatusCode == http.StatusOK {
			f.okSent.Add(1)
		}
		return reply{status: resp.StatusCode, body: body, cache: resp.Header.Get("X-Ghosts-Cache"), worker: resp.Header.Get("X-Ghosts-Worker")}, nil
	}
}

func newClient() *http.Client {
	n := runtime.NumCPU()
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true},
	}
}

// warm sends the seeded warm-up sequence closed-loop.
func warm(b *bench, corpus []corpusEntry, send sender, r *rng.RNG) {
	shots := schedule(r, serveWarmup, 1e9)
	drive(b, shots, corpus, send, "serve.warmup")
}

// servePath is the serving path. Every round starts a fresh fleet, warms
// its caches, sends it an open-loop schedule at the nominal rate and
// drains it, so no ghostsd process runs while the other paths measure.
// Each round's start and warm-up is one set-up.
type servePath struct {
	own    bool
	corpus []corpusEntry
	client *http.Client
	r      *rng.RNG
	lat    samples
	cache  map[string]int
	setups []float64
	rss    float64
}

func (p *servePath) setup(b *bench, own bool) error {
	p.own = own
	corpus, err := buildCorpus(b.seed)
	if err != nil {
		return err
	}
	p.corpus = corpus
	p.client = newClient()
	p.cache = map[string]int{}
	p.r = rng.New(b.seed ^ 0x7e57)
	return nil
}

// startWarm launches a fleet, waits for the router to see both workers
// ready, and warms the caches with the seeded warm-up sequence, the same
// in every round.
func (p *servePath) startWarm(b *bench) (*serveFleet, sender, error) {
	f, err := startFleet(b, b.workdir)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: starting fleet: %v", err)
	}
	routed := httpSender(p.client, func(*corpusEntry) string { return f.router.url }, f)
	warm(b, p.corpus, routed, rng.New(b.seed^0x3a3a))
	return f, routed, nil
}

// serveSlice is how long the serve path sends its nominal schedule in
// each round.
func serveSlice(budget time.Duration) time.Duration { return budget / 45 }

func (p *servePath) round(b *bench, budget time.Duration) {
	d := serveSlice(budget)
	t0 := time.Now()
	f, routed, err := p.startWarm(b)
	if err != nil {
		b.op(err)
		return
	}
	p.setups = append(p.setups, seconds(time.Since(t0)))
	ph := drive(b, schedule(p.r, max(1, int(serveNominalRPS*d.Seconds())), serveNominalRPS), p.corpus, routed, "serve.routed")
	p.lat.xs = append(p.lat.xs, ph.lat.xs...)
	for k, v := range ph.cache {
		p.cache[k] += v
	}
	rss, err := f.peakRSS()
	if err != nil {
		b.problem("serve: peak rss: %v", err)
	}
	p.rss = math.Max(p.rss, rss)
	reconcileFleet(b, f)
}

func (p *servePath) finish(b *bench) {
	p.client.CloseIdleConnections()
	if p.lat.n() == 0 {
		b.op(fmt.Errorf("serve: no round completed"))
		return
	}
	b.set("serve_p50_ms", "ms", p.lat.quantile(0.5))
	b.note("serve latency at %d rps (from due time): p50=%.4fms over n=%d; cache %v", serveNominalRPS, p.lat.quantile(0.5), p.lat.n(), p.cache)
	serveTail(b, &p.lat, false)
	if p.own {
		b.set("setup_s", "s", median(p.setups))
		b.note("setup_s: median of %d fleet starts, each to both workers ready plus a %d-request warm-up: %.3f s", len(p.setups), serveWarmup, p.setups)
		b.set("peak_rss_mb", "MiB", p.rss)
	}
}

// trace is the traced serve pass on one fleet: goodput on the rate ladder,
// then the nominal request sequence sent three ways (see traceServe).
func (p *servePath) trace(b *bench) {
	defer p.client.CloseIdleConnections()
	f, routed, err := p.startWarm(b)
	if err != nil {
		b.op(err)
		return
	}
	shots := schedule(p.r, int(serveNominalRPS*serveTraceNominal.Seconds()), serveNominalRPS)
	b.set("serve_goodput_rps", "1/s", goodput(b, p.corpus, routed, p.r))
	traceServe(b, f, p.corpus, shots, p.client, p.own) // drains and reconciles the fleet
}

// lateQuarter is the median delay between due time and send over the last
// quarter of a phase: it grows when the fleet cannot keep up.
func lateQuarter(late []time.Duration) time.Duration {
	var s samples
	for _, d := range late[len(late)*3/4:] {
		s.add(d)
	}
	return time.Duration(s.quantile(0.5) * float64(time.Millisecond))
}

// reconcileFleet drains the fleet and checks its telemetry against what
// the benchmark saw: every successful request was a worker hit, miss,
// coalesced follower or peer fill.
func reconcileFleet(b *bench, f *serveFleet) []*telemetry.Report {
	reps, err := f.stop()
	if err != nil {
		b.problem("serve: stopping fleet: %v", err)
		return nil
	}
	var served int64
	for _, rep := range reps[1:] {
		served += rep.Serve.CacheHits + rep.Serve.CacheMisses + rep.Serve.Coalesced + rep.Fleet.PeerFills
	}
	if served != f.okSent.Load() {
		b.problem("serve: workers report hit+miss+coalesced+peer = %d, the benchmark saw %d successful requests", served, f.okSent.Load())
	}
	return reps
}

// estimatorOf mirrors the estimator serve.Compute builds for a normalised
// request with the default criterion and divisor, as every corpus entry has.
func estimatorOf(req *serve.EstimateRequest) *core.Estimator {
	est := core.NewEstimator(core.BIC, core.Adaptive1000, req.Limit)
	est.Alpha = req.Alpha
	return est
}

// serveTail reads the tail of a nominal-rate pass per second of its
// schedule and takes the median of those per-second tails. It is printed
// on every run and recorded as serve_tail_ms on traced runs only: on a
// shared two-core machine its run-to-run spread exceeds any regression
// bound the benchmark may set.
func serveTail(b *bench, lat *samples, record bool) {
	parts := chunks(lat.xs, serveNominalRPS)
	q, tail, beyond := medianTail(parts)
	if record {
		b.set("serve_tail_ms", "ms", tail)
	}
	b.note("serve tail: %.4fms, the median over %d one-second stretches of each stretch's p%s (n=%d, %d beyond); pooled: %s",
		tail, len(parts), pct(q), parts[0].n(), beyond, lat.describe("ms"))
}

// goodput returns the achieved rate at the highest rung of serveLadder
// whose tail meets serveLimitMS with no growing backlog. It bisects the
// ladder, assuming a rung that fails makes every higher rung fail. It runs
// in traced runs only, as serve_goodput_rps: on a shared two-core machine
// the passing rung moves by one or two steps from run to run, more than any
// regression bound allows.
func goodput(b *bench, corpus []corpusEntry, routed sender, r *rng.RNG) float64 {
	var gp float64
	lo, hi := -1, len(serveLadder) // highest rung known to pass, lowest known to fail
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		rate := serveLadder[mid]
		ph := drive(b, schedule(r, int(rate*serveRung.Seconds()), rate), corpus, routed, "serve.ladder")
		// As for the nominal tail, the tail is the median of half-second tails.
		parts := chunks(ph.lat.xs, int(rate/2))
		q, tl, _ := medianTail(parts)
		backlog := lateQuarter(ph.late)
		pass := ph.failed == 0 && tl <= serveLimitMS && millis(backlog) <= serveLimitMS
		b.note("ladder %g rps: tail %.4fms (median of %d half-second p%s), pooled %s, last-quarter send delay p50 %.3fms, achieved %.1f rps, pass=%v",
			rate, tl, len(parts), pct(q), ph.lat.describe("ms"), millis(backlog), float64(ph.ok)/ph.elapsed.Seconds(), pass)
		if pass {
			lo, gp = mid, float64(ph.ok)/ph.elapsed.Seconds()
		} else {
			hi = mid
		}
	}
	return gp
}
