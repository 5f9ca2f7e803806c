// Command ghostbench is the repository's end-to-end benchmark. It measures
// the three paths users hit — a batch experiment run, POST /v1/estimate
// through a router and two ghostsd workers, and a streaming replay — checks
// that their outputs are correct, and prints one JSON result line.
//
// Usage (from the repository root, normally through run.sh, which builds
// this program and ghostsd first):
//
//	ghostbench -ghostsd .bench_build/ghostsd -workdir .bench_build \
//	    --workload serve|stream --seed N --seconds S --trace 0|1
//
// Every run measures all three paths, so every metric named in
// BENCHMARK.json is printed on every workload. The paths take turns in
// rounds that share the --seconds budget, so each path's samples spread
// over the whole run rather than one stretch of it. The workload (serve or
// stream) names the path whose set-up time and peak memory are reported.
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// the per-layer metrics of a separate traced pass (README.md in this
// directory lists both, with the end-to-end metric each layer should move).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench accumulates one run's metrics, operation counts and check failures.
type bench struct {
	seed    uint64
	trace   bool
	workdir string
	ghostsd string
	tr      *tracer

	metrics   map[string]metric
	attempted int64
	failed    int64
	problems  []string
}

// op counts one attempted operation, and a failed one when err is set.
func (b *bench) op(err error) {
	b.attempted++
	if err != nil {
		b.failed++
		b.problem("%v", err)
	}
}

// problem records a failed correctness check without counting an
// operation (reconciliation and set-up checks).
func (b *bench) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(b.problems) < 20 {
		fmt.Fprintf(os.Stderr, "ghostbench: FAIL: %s\n", msg)
	}
	b.problems = append(b.problems, msg)
}

// set records a metric. A non-finite value is a failed check: the result
// line must carry numbers.
func (b *bench) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		b.problem("metric %s is not finite (%v)", name, v)
		v = 0
	}
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// note prints one human-readable line (sample counts, percentiles and
// ratio bases) ahead of the result line.
func (b *bench) note(format string, args ...any) {
	fmt.Printf(format+"\n", args...)
}

// path is one measured system path.
type path interface {
	// setup builds the path's inputs. own marks the workload's own path,
	// which reports setup_s (the median of several set-ups of its system
	// in the run) and peak_rss_mb.
	setup(b *bench, own bool) error
	// round measures the path for its share of one round of a run with
	// the given budget, and at least one operation.
	round(b *bench, budget time.Duration)
	// finish checks the outputs and sets the path's metrics.
	finish(b *bench)
	// trace is the traced pass, run in place of rounds and finish.
	trace(b *bench)
}

// workloads maps a workload to the path that is its own.
var workloads = map[string]func() path{
	"serve":  func() path { return &servePath{} },
	"stream": func() path { return &streamPath{} },
}

// otherPaths returns the paths a workload measures besides its own.
func otherPaths(workload string) []path {
	out := []path{&batchPath{}}
	for _, name := range []string{"serve", "stream"} {
		if name != workload {
			out = append(out, workloads[name]())
		}
	}
	return out
}

// minRounds is the fewest rounds a run measures, so that every median of
// batch runs has at least three samples. A round is one batch run (about
// ten seconds on two cores), a stream slice and a serve slice (see
// streamSlice and serveSlice); at the nominal 45-second budget, minRounds
// rounds fill it.
const minRounds = 3

func main() {
	var (
		workload = flag.String("workload", "", "serve or stream")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 45, "measurement budget shared by the paths")
		traceF   = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
		ghostsd  = flag.String("ghostsd", "", "path to the ghostsd binary")
		workdir  = flag.String("workdir", ".bench_build", "directory for per-run scratch files")
	)
	flag.Parse()
	newOwn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceF != 0 && *traceF != 1) || *ghostsd == "" {
		fmt.Fprintln(os.Stderr, "usage: ghostbench -ghostsd PATH --workload serve|stream --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "ghostbench: %v\n", err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	b := &bench{
		seed:    *seed,
		trace:   *traceF == 1,
		workdir: dir,
		ghostsd: *ghostsd,
		tr:      newTracer(*traceF == 1),
		metrics: map[string]metric{},
	}
	b.note("workload=%s seed=%d seconds=%d trace=%d gomaxprocs=%d host_cpus=%d",
		*workload, *seed, *seconds, *traceF, runtime.GOMAXPROCS(0), runtime.NumCPU())

	// The workload's own path goes first, so its peak memory is read
	// before the other paths touch the process.
	ps := append([]path{newOwn()}, otherPaths(*workload)...)
	if b.trace {
		for i, p := range ps {
			freeHeap()
			if err := p.setup(b, i == 0); err != nil {
				b.op(err)
				continue
			}
			p.trace(b)
		}
		if err := b.tr.write(filepath.Join(*workdir, fmt.Sprintf("trace-%s-%d.jsonl", *workload, *seed))); err != nil {
			b.problem("writing spans: %v", err)
		}
	} else {
		measure(b, ps, time.Duration(*seconds)*time.Second)
	}
	res := result{
		Correct:   len(b.problems) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.metrics,
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = 1
		res.Correct = false
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ghostbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// measure sets up every path (the first is the workload's own) and drives
// them in rounds until the budget is spent, then finishes them. A path
// sets up just before its first round. The round count is fixed after the
// first round, from how long that round measured, and is at least
// minRounds.
func measure(b *bench, ps []path, budget time.Duration) {
	live := make([]bool, len(ps))
	rounds := minRounds
	for r := 0; r < rounds; r++ {
		var took time.Duration
		for i, p := range ps {
			if r == 0 {
				freeHeap()
				if err := p.setup(b, i == 0); err != nil {
					b.op(err)
					continue
				}
				live[i] = true
			}
			if !live[i] {
				continue
			}
			freeHeap()
			t0 := time.Now()
			p.round(b, budget)
			took += time.Since(t0)
		}
		if r == 0 {
			rounds = max(minRounds, int(math.Round(float64(budget)/float64(took))))
		}
	}
	b.note("measured %d rounds; per round, one batch run, stream %v, serve %v", rounds, streamSlice(budget), serveSlice(budget))
	for i, p := range ps {
		if live[i] {
			p.finish(b)
		}
	}
}

// freeHeap hands the previous step's heap back, so its garbage is not
// collected during the next step's measurement.
func freeHeap() {
	runtime.GC()
	debug.FreeOSMemory()
}

// peakRSSMB returns VmHWM of the process with the given /proc status path
// ("self" or a pid), in MiB.
func peakRSSMB(pid string) (float64, error) {
	raw, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// median returns the median of xs (0 when empty); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }
