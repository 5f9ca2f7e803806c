package telemetry

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	if c.Load() != 0 {
		t.Fatalf("zero counter = %d, want 0", c.Load())
	}
	c.Inc()
	c.Add(41)
	if c.Load() != 42 {
		t.Fatalf("counter = %d, want 42", c.Load())
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Load() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Load())
	}
}

func TestTimer(t *testing.T) {
	var tm Timer
	tm.Add(time.Second)
	tm.Add(500 * time.Millisecond)
	if got := tm.Total(); got != 1500*time.Millisecond {
		t.Fatalf("total = %v, want 1.5s", got)
	}
	if tm.Count() != 2 {
		t.Fatalf("count = %d, want 2", tm.Count())
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	// Bucket upper bounds are 2^i − 1: 0, 1, 3, 7, 15, ...
	for _, v := range []int64{0, 1, 2, 3, 4, 7, 8, 200, -5} {
		h.Observe(v)
	}
	if h.Snapshot().Count != 9 {
		t.Fatalf("count = %d, want 9", h.Snapshot().Count)
	}
	if h.Snapshot().Sum != 0+1+2+3+4+7+8+200+0 {
		t.Fatalf("sum = %d", h.Snapshot().Sum)
	}
	if h.Snapshot().Max != 200 {
		t.Fatalf("max = %d, want 200", h.Snapshot().Max)
	}
	s := h.Snapshot()
	want := map[int64]int64{0: 2, 1: 1, 3: 2, 7: 2, 15: 1, 255: 1}
	if len(s.Buckets) != len(want) {
		t.Fatalf("got %d non-empty buckets %v, want %d", len(s.Buckets), s.Buckets, len(want))
	}
	for _, b := range s.Buckets {
		if want[b.Le] != b.N {
			t.Fatalf("bucket le=%d has n=%d, want %d", b.Le, b.N, want[b.Le])
		}
	}
	if mean := h.Mean(); mean != 225.0/9 {
		t.Fatalf("mean = %v, want 25", mean)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	var h Histogram
	h.Observe(1 << 40) // far past the last bucket bound
	s := h.Snapshot()
	if len(s.Buckets) != 1 || s.Buckets[0].Le != 1<<(histBuckets-1)-1 {
		t.Fatalf("overflow observation landed in %v, want last bucket", s.Buckets)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Snapshot().Max != 0 || h.Snapshot().Count != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	if s := h.Snapshot(); len(s.Buckets) != 0 {
		t.Fatalf("empty histogram has buckets %v", s.Buckets)
	}
}

// TestNilRecorderNoOp pins the disabled path: every emission method must be
// callable on a nil *Recorder without panicking or doing work.
func TestNilRecorderNoOp(t *testing.T) {
	var r *Recorder
	r.FitDone(5, true)
	r.FitDone(5, false)
	r.PoolGet()
	r.PoolMiss()
	r.SelectRound(10)
	r.TermAccepted(3.2)
	r.SelectionDone()
	r.BootstrapDone(100, 3)
	r.FanOut(8)
	r.TaskDone(time.Millisecond)
	r.FanOutDone(time.Millisecond)
	r.AddPhase("x", time.Second, 1)
	sp := r.StartSpan("x")
	sp.End(1)
	rep := r.Report(time.Unix(0, 0), time.Unix(1, 0), 4)
	if rep.Fit.Count != 0 || len(rep.Phases) != 0 {
		t.Fatalf("nil recorder report must be empty, got %+v", rep)
	}
	stop := r.StartProgress(&bytes.Buffer{}, time.Millisecond)
	stop()
}

func TestEnableDisableActive(t *testing.T) {
	defer Disable()
	if Active() != nil {
		t.Fatal("telemetry must start disabled")
	}
	r := NewRecorder()
	Enable(r)
	if Active() != r {
		t.Fatal("Active() did not return the enabled recorder")
	}
	Disable()
	if Active() != nil {
		t.Fatal("Disable() did not clear the recorder")
	}
}

func TestRecorderEmissions(t *testing.T) {
	r := NewRecorder()
	r.FitDone(3, true)
	r.FitDone(7, false)
	if r.Fits.Load() != 2 || r.FitNonConverged.Load() != 1 {
		t.Fatalf("fits=%d nonconv=%d", r.Fits.Load(), r.FitNonConverged.Load())
	}
	if r.FitIters.Snapshot().Sum != 10 {
		t.Fatalf("iteration sum = %d, want 10", r.FitIters.Snapshot().Sum)
	}
	r.SelectRound(20)
	r.SelectRound(15)
	r.TermAccepted(9.7) // rounds to 10
	r.SelectionDone()
	if r.SelectRounds.Load() != 2 || r.CandidateFits.Load() != 35 {
		t.Fatalf("rounds=%d candidates=%d", r.SelectRounds.Load(), r.CandidateFits.Load())
	}
	if r.ICImprovement.Snapshot().Sum != 10 {
		t.Fatalf("IC improvement sum = %d, want 10", r.ICImprovement.Snapshot().Sum)
	}
	r.BootstrapDone(50, 2)
	if r.BootstrapReplicates.Load() != 50 || r.BootstrapFailures.Load() != 2 {
		t.Fatal("bootstrap counters wrong")
	}
}

func TestSpanAggregation(t *testing.T) {
	r := NewRecorder()
	r.AddPhase("estimates", 100*time.Millisecond, 11)
	r.AddPhase("estimates", 50*time.Millisecond, 11)
	r.AddPhase("crossval", 10*time.Millisecond, 9)
	p := r.phase("estimates")
	if p.Time.Total() != 150*time.Millisecond || p.Time.Count() != 2 || p.Items.Load() != 22 {
		t.Fatalf("phase estimates = %v/%d calls/%d items", p.Time.Total(), p.Time.Count(), p.Items.Load())
	}
	if got := r.phaseNames(); len(got) != 2 || got[0] != "crossval" || got[1] != "estimates" {
		t.Fatalf("phase names = %v, want sorted [crossval estimates]", got)
	}
	// A real span measures at least the elapsed wall time.
	sp := r.StartSpan("timed")
	time.Sleep(2 * time.Millisecond)
	sp.End(5)
	tp := r.phase("timed")
	if tp.Time.Total() < 2*time.Millisecond || tp.Items.Load() != 5 {
		t.Fatalf("span recorded %v/%d items", tp.Time.Total(), tp.Items.Load())
	}
}

func TestStartProgress(t *testing.T) {
	r := NewRecorder()
	r.FitDone(4, true)
	r.AddPhase("env.estimates", time.Second, 22)
	var buf bytes.Buffer
	stop := r.StartProgress(&buf, 5*time.Millisecond)
	time.Sleep(30 * time.Millisecond)
	stop()
	stop() // idempotent
	out := buf.String()
	if !strings.Contains(out, "[telemetry]") || !strings.Contains(out, "fits=1") {
		t.Fatalf("progress output missing expected fields: %q", out)
	}
	if !strings.Contains(out, "env.estimates=22") {
		t.Fatalf("progress output missing phase items: %q", out)
	}
}
