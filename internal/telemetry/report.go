package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// Schema identifies the run-report JSON layout; bump on incompatible
// change.
const Schema = "ghosts.telemetry/v1"

// Report is the JSON run report: a deterministic snapshot of a Recorder.
// Timestamps are injected by the caller (Recorder.Report), never read from
// the system clock here, so a report built from fixed inputs is
// byte-for-byte reproducible.
type Report struct {
	Schema   string          `json:"schema"`
	Started  string          `json:"started"`  // RFC 3339, injected
	Finished string          `json:"finished"` // RFC 3339, injected
	WallMS   float64         `json:"wall_ms"`  // finished − started
	Workers  int             `json:"workers,omitempty"`
	Fit      FitReport       `json:"glm_fit"`
	Strata   StrataReport    `json:"strata"`
	Pool     PoolReport      `json:"fit_pool"`
	Select   SelectReport    `json:"model_selection"`
	Boot     BootstrapReport `json:"bootstrap"`
	Parallel ParallelReport  `json:"parallel"`
	Serve    ServeReport     `json:"serve"`
	Fleet    FleetReport     `json:"fleet"`
	Ingest   IngestReport    `json:"ingest"`
	Watch    WatchReport     `json:"watch"`
	Phases   []PhaseReport   `json:"phases"`
}

// FitReport summarises the GLM kernel (metric prefix glm_fit).
type FitReport struct {
	Count           int64             `json:"count"`
	NonConverged    int64             `json:"non_converged"`
	WarmStartSaved  int64             `json:"warm_start_iters_saved"`
	SweepWarmStarts int64             `json:"sweep_warm_starts"`
	Iterations      HistogramSnapshot `json:"iterations"`
}

// StrataReport summarises the stratified-sweep fast path (metric prefix
// strata).
type StrataReport struct {
	HistogramFolds int64 `json:"histogram_folds"`
}

// PoolReport summarises the fit-scratch pool (metric prefix fit_pool).
type PoolReport struct {
	Gets    int64   `json:"gets"`
	Misses  int64   `json:"misses"`
	HitRate float64 `json:"hit_rate"` // (gets − misses) / gets; 0 when unused
}

// SelectReport summarises the stepwise model search (metric prefix
// model_selection).
type SelectReport struct {
	Selections    int64             `json:"selections"`
	Rounds        int64             `json:"rounds"`
	CandidateFits int64             `json:"candidate_fits"`
	TermsAccepted int64             `json:"terms_accepted"`
	Screened      int64             `json:"screened"`
	Polished      int64             `json:"polished"`
	ICImprovement HistogramSnapshot `json:"ic_improvement"`
}

// BootstrapReport summarises parametric-bootstrap effort (metric prefix
// bootstrap).
type BootstrapReport struct {
	Replicates int64 `json:"replicates"`
	Failures   int64 `json:"failures"`
}

// ParallelReport summarises the worker pool (metric prefix parallel).
// Utilization is summed busy time over summed fan-out wall time scaled by
// the worker count: 1.0 means every worker was busy for every fan-out's
// whole duration.
type ParallelReport struct {
	FanOuts     int64   `json:"fan_outs"`
	Tasks       int64   `json:"tasks"`
	BusyMS      float64 `json:"busy_ms"`
	WallMS      float64 `json:"wall_ms"`
	Utilization float64 `json:"utilization"`
}

// ServeReport summarises the HTTP serving layer (metric prefix serve):
// handler traffic, the estimate result cache, single-flight coalescing,
// admission-queue pressure and the async job store. Per-route latency lives
// in the "http.<route>" phases.
type ServeReport struct {
	Requests       int64             `json:"requests"`
	Errors         int64             `json:"errors"`
	LatencyUS      HistogramSnapshot `json:"latency_us"`
	CacheHits      int64             `json:"cache_hits"`
	CacheMisses    int64             `json:"cache_misses"`
	CacheEvictions int64             `json:"cache_evictions"`
	Coalesced      int64             `json:"coalesced"`
	QueueDepth     HistogramSnapshot `json:"queue_depth"`
	JobsRun        int64             `json:"jobs_run"`
	JobsFailed     int64             `json:"jobs_failed"`
	Panics         int64             `json:"panics"`
	Canceled       int64             `json:"canceled"`
	TimedOut       int64             `json:"timed_out"`
	SlotsBusy      int64             `json:"slots_busy"`    // gauge at snapshot time
	QueueWaiting   int64             `json:"queue_waiting"` // gauge at snapshot time
}

// FleetReport summarises the fleet layer (metric prefix fleet): router
// forwarding on a router process, peer cache fill on worker processes.
// All-zero on a process that is neither.
type FleetReport struct {
	Forwards       int64 `json:"forwards"`
	Retries        int64 `json:"retries"`
	Hedges         int64 `json:"hedges"`
	Failovers      int64 `json:"failovers"`
	Exhausted      int64 `json:"exhausted"`
	Members        int64 `json:"members"` // gauge at snapshot time
	Joins          int64 `json:"joins"`
	Leaves         int64 `json:"leaves"`
	LeaseExpiries  int64 `json:"lease_expiries"`
	PeerFills      int64 `json:"peer_fills"`
	PeerFillMisses int64 `json:"peer_fill_misses"`
}

// IngestReport summarises the streaming ingest pipeline (metric prefix
// ingest): event intake, window rotation, and per-tick re-estimation
// latency. Zero unless the process runs an internal/ingest pipeline
// (ghostsd with a live feed, or ghosts -replay).
type IngestReport struct {
	Events          int64             `json:"events"`
	Dropped         int64             `json:"dropped"`
	Rotations       int64             `json:"rotations"`
	HistUpdates     int64             `json:"hist_updates"`
	WindowsParallel int64             `json:"windows_parallel"` // gauge at snapshot time
	TickUS          HistogramSnapshot `json:"tick_us"`
}

// WatchReport summarises the /v1/watch SSE endpoint (metric prefix watch).
type WatchReport struct {
	Subscribers int64 `json:"subscribers"`
	TicksShed   int64 `json:"ticks_shed"` // frames dropped on full subscriber buffers
	Deltas      int64 `json:"deltas"`     // frames sent as deltas instead of full ticks
}

// PhaseReport is one named pipeline phase (metric prefix phase).
type PhaseReport struct {
	Name   string  `json:"name"`
	Calls  int64   `json:"calls"`
	WallMS float64 `json:"wall_ms"`
	Items  int64   `json:"items"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Report snapshots the recorder into a Report. started and finished are
// injected by the caller — pass fixed times to make the output replayable.
// workers is the fan-out width used for the utilization figure (pass 0 to
// omit; the telemetry package cannot import internal/parallel, which
// imports it).
func (r *Recorder) Report(started, finished time.Time, workers int) *Report {
	rep := &Report{
		Schema:   Schema,
		Started:  started.UTC().Format(time.RFC3339),
		Finished: finished.UTC().Format(time.RFC3339),
		WallMS:   ms(finished.Sub(started)),
		Workers:  workers,
	}
	if r == nil {
		return rep
	}
	rep.Fit = FitReport{
		Count:           r.Fits.Load(),
		NonConverged:    r.FitNonConverged.Load(),
		WarmStartSaved:  r.WarmStartSaved.Load(),
		SweepWarmStarts: r.SweepWarmStarts.Load(),
		Iterations:      r.FitIters.Snapshot(),
	}
	rep.Strata = StrataReport{HistogramFolds: r.HistogramFolds.Load()}
	gets, misses := r.PoolGets.Load(), r.PoolMisses.Load()
	rep.Pool = PoolReport{Gets: gets, Misses: misses}
	if gets > 0 {
		rep.Pool.HitRate = float64(gets-misses) / float64(gets)
	}
	rep.Select = SelectReport{
		Selections:    r.Selections.Load(),
		Rounds:        r.SelectRounds.Load(),
		CandidateFits: r.CandidateFits.Load(),
		TermsAccepted: r.TermsAccepted.Load(),
		Screened:      r.Screened.Load(),
		Polished:      r.Polished.Load(),
		ICImprovement: r.ICImprovement.Snapshot(),
	}
	rep.Boot = BootstrapReport{
		Replicates: r.BootstrapReplicates.Load(),
		Failures:   r.BootstrapFailures.Load(),
	}
	busy, wall := r.Busy.Total(), r.Wall.Total()
	rep.Parallel = ParallelReport{
		FanOuts: r.FanOuts.Load(),
		Tasks:   r.Tasks.Load(),
		BusyMS:  ms(busy),
		WallMS:  ms(wall),
	}
	if wall > 0 && workers > 0 {
		rep.Parallel.Utilization = float64(busy) / (float64(wall) * float64(workers))
	}
	rep.Serve = ServeReport{
		Requests:       r.HTTPRequests.Load(),
		Errors:         r.HTTPErrors.Load(),
		LatencyUS:      r.HTTPLatencyUS.Snapshot(),
		CacheHits:      r.CacheHits.Load(),
		CacheMisses:    r.CacheMisses.Load(),
		CacheEvictions: r.CacheEvictions.Load(),
		Coalesced:      r.Coalesced.Load(),
		QueueDepth:     r.QueueDepth.Snapshot(),
		JobsRun:        r.JobsRun.Load(),
		JobsFailed:     r.JobsFailed.Load(),
		Panics:         r.Panics.Load(),
		Canceled:       r.RequestsCanceled.Load(),
		TimedOut:       r.RequestsTimedOut.Load(),
		SlotsBusy:      r.SlotsBusy.Load(),
		QueueWaiting:   r.QueueWaiting.Load(),
	}
	rep.Fleet = FleetReport{
		Forwards:       r.FleetForwards.Load(),
		Retries:        r.FleetRetries.Load(),
		Hedges:         r.FleetHedges.Load(),
		Failovers:      r.FleetFailovers.Load(),
		Exhausted:      r.FleetExhausted.Load(),
		Members:        r.FleetMembers.Load(),
		Joins:          r.FleetJoins.Load(),
		Leaves:         r.FleetLeaves.Load(),
		LeaseExpiries:  r.FleetExpiries.Load(),
		PeerFills:      r.PeerFills.Load(),
		PeerFillMisses: r.PeerFillMisses.Load(),
	}
	rep.Ingest = IngestReport{
		Events:          r.IngestEvents.Load(),
		Dropped:         r.IngestDropped.Load(),
		Rotations:       r.IngestRotations.Load(),
		HistUpdates:     r.IngestHistUpdates.Load(),
		WindowsParallel: r.IngestWindowsParallel.Load(),
		TickUS:          r.TickLatencyUS.Snapshot(),
	}
	rep.Watch = WatchReport{
		Subscribers: r.WatchSubscribers.Load(),
		TicksShed:   r.WatchTicksShed.Load(),
		Deltas:      r.WatchDeltas.Load(),
	}
	for _, name := range r.phaseNames() {
		p := r.phase(name)
		rep.Phases = append(rep.Phases, PhaseReport{
			Name:   name,
			Calls:  p.Time.Count(),
			WallMS: ms(p.Time.Total()),
			Items:  p.Items.Load(),
		})
	}
	return rep
}

// WriteJSON writes the report as indented JSON. Field order is fixed by
// the struct layout and phases are name-sorted, so equal inputs produce
// equal bytes.
func (rep *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// WriteFile writes the report to path (0644, truncating).
func (rep *Report) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// StartProgress launches a goroutine that writes a one-line snapshot of
// the recorder to w every interval, and returns a stop function that
// halts it (idempotent). Intended for the CLI's -progress flag; the lines
// go to stderr so they never pollute piped experiment output.
func (r *Recorder) StartProgress(w io.Writer, interval time.Duration) (stop func()) {
	if r == nil || interval <= 0 {
		return func() {}
	}
	start := time.Now()
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				fmt.Fprintln(w, r.progressLine(time.Since(start)))
			}
		}
	}()
	var once bool
	return func() {
		if once {
			return
		}
		once = true
		close(done)
		<-finished
	}
}

// progressLine renders one human-oriented progress summary.
func (r *Recorder) progressLine(elapsed time.Duration) string {
	line := fmt.Sprintf("[telemetry] t=%s fits=%d (mean %.1f iters) selections=%d tasks=%d busy=%s",
		elapsed.Round(time.Second), r.Fits.Load(), r.FitIters.Mean(),
		r.Selections.Load(), r.Tasks.Load(), r.Busy.Total().Round(time.Millisecond))
	for _, name := range r.phaseNames() {
		p := r.phase(name)
		line += fmt.Sprintf(" %s=%d", name, p.Items.Load())
	}
	return line
}
