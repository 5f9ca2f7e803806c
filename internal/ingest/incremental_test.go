package ingest

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"ghosts/internal/core"
	"ghosts/internal/ipset"
	"ghosts/internal/ipv4"
	"ghosts/internal/parallel"
)

// setOracle is the reference the incremental histograms are checked
// against. It shadows every event the pipeline accepts into per-window,
// per-source ipset.Sets and, at every tick, folds each live window's
// non-empty shadow sets through core.TableFromSets: the resulting table
// must equal the compacted histogram table the estimator receives, cell
// for cell, and the tick's Sources and Observed must match it.
type setOracle struct {
	t        *testing.T
	p        *Pipeline
	sets     map[int64][]*ipset.Set // absolute window index → per-source sets
	accepted int64                  // accepted events (count-mode ordinals)
	checked  int                    // live windows compared across ticks
	series   bytes.Buffer           // every tick, encoded, in order
}

func newSetOracle(t *testing.T, cfg Config) *setOracle {
	o := &setOracle{t: t, sets: make(map[int64][]*ipset.Set)}
	cfg.OnTick = o.onTick
	o.p = New(cfg)
	return o
}

// offer feeds one event to the pipeline and, when it is accepted, to the
// shadow set of the window the windowing rules assign it to.
func (o *setOracle) offer(source int, a ipv4.Addr, at time.Time) {
	dropped := o.p.Dropped()
	o.p.Offer(source, a, at)
	if o.p.Dropped() != dropped {
		return
	}
	idx := at.UnixNano() / int64(o.p.cfg.Window)
	if n := int64(o.p.cfg.RotateEvery); n > 0 {
		idx = o.accepted / n
	}
	o.accepted++
	ws := o.sets[idx]
	if ws == nil {
		ws = make([]*ipset.Set, MaxSources)
		o.sets[idx] = ws
	}
	if ws[source] == nil {
		ws[source] = ipset.New()
	}
	ws[source].Add(a)
}

// onTick runs under the pipeline lock, so it reads the ring directly.
func (o *setOracle) onTick(tk *Tick) {
	o.series.Write(tk.Encode())
	p := o.p
	oldest := p.newest - int64(len(p.ring)) + 1
	if oldest < 0 {
		oldest = 0
	}
	for idx := range o.sets {
		if idx < oldest {
			delete(o.sets, idx) // retired
		}
	}
	var live []*windowState
	for i := oldest; i <= p.newest; i++ {
		if w := &p.ring[int(i%int64(len(p.ring)))]; w.index == i {
			live = append(live, w)
		}
	}
	if len(live) != len(tk.Windows) {
		o.t.Fatalf("tick %d: %d windows, %d live in the ring", tk.Seq, len(tk.Windows), len(live))
	}
	for k, w := range live {
		we := tk.Windows[k]
		var sets []*ipset.Set
		var names []string
		for si, s := range o.sets[w.index] {
			if s != nil && s.Len() > 0 {
				sets = append(sets, s)
				names = append(names, p.names[si])
			}
		}
		if we.Sources != len(sets) {
			o.t.Fatalf("tick %d window %s: sources %d, oracle %d", tk.Seq, we.Start, we.Sources, len(sets))
		}
		var observed int64
		if len(sets) > 0 {
			want := core.TableFromSets(sets, names)
			observed = want.Observed()
			if w.hist == nil {
				o.t.Fatalf("tick %d window %s: no histogram for %d shadowed sources", tk.Seq, we.Start, len(sets))
			}
			got := p.windowTable(w.hist, new(tickScratch))
			if got.T != want.T || fmt.Sprint(got.Names) != fmt.Sprint(want.Names) {
				o.t.Fatalf("tick %d window %s: table sources %v, oracle %v", tk.Seq, we.Start, got.Names, want.Names)
			}
			for c := range want.Counts {
				if got.Counts[c] != want.Counts[c] {
					o.t.Fatalf("tick %d window %s: cell %b = %d, oracle %d", tk.Seq, we.Start, c, got.Counts[c], want.Counts[c])
				}
			}
		} else if w.hist != nil && w.hist.Len() != 0 {
			o.t.Fatalf("tick %d window %s: histogram holds %d addresses, oracle none", tk.Seq, we.Start, w.hist.Len())
		}
		if we.Observed != observed {
			o.t.Fatalf("tick %d window %s: observed %d, oracle %d", tk.Seq, we.Start, we.Observed, observed)
		}
		o.checked++
	}
}

// runScripted drives one pipeline through a deterministic event script —
// randomized Offers interleaved with Advances, late events and clock
// jumps — under the set oracle, and returns the concatenated encoded tick
// series and the number of live windows the oracle checked.
func runScripted(t *testing.T, cfg Config, seed int64, nsources, events int) ([]byte, int) {
	t.Helper()
	o := newSetOracle(t, cfg)
	p := o.p
	src := make([]int, nsources)
	for i := range src {
		s, err := p.Source(fmt.Sprintf("v%d", i))
		if err != nil {
			t.Fatal(err)
		}
		src[i] = s
	}
	r := rand.New(rand.NewSource(seed))
	now := time.Unix(1700000000, 0).UTC()
	for e := 0; e < events; e++ {
		switch r.Intn(20) {
		case 0: // quiet-period Advance, sometimes a jump past the whole ring
			jump := time.Duration(r.Intn(45)) * time.Second
			if r.Intn(10) == 0 {
				jump = time.Duration(r.Intn(20)) * time.Minute
			}
			now = now.Add(jump)
			p.Advance(now)
		case 1: // late event: behind the clock, possibly behind the ring
			at := now.Add(-time.Duration(r.Intn(600)) * time.Second)
			o.offer(src[r.Intn(nsources)], addr(uint32(r.Intn(500))), at)
		default:
			now = now.Add(time.Duration(r.Intn(2000)) * time.Millisecond)
			o.offer(src[r.Intn(nsources)], addr(uint32(r.Intn(500))), now)
		}
	}
	p.Flush()
	return o.series.Bytes(), o.checked
}

// TestIncrementalMatchesRebuild is the tentpole differential property:
// for randomized Offer/Advance/rotate sequences with late events and
// clock jumps, across source counts 2..9, every live window's
// incrementally maintained histogram table equals the table rebuilt from
// the set oracle's shadow sets at every tick.
func TestIncrementalMatchesRebuild(t *testing.T) {
	for _, nsources := range []int{2, 3, 5, 9} {
		nsources := nsources
		t.Run(fmt.Sprintf("t=%d", nsources), func(t *testing.T) {
			check := func(seed int64) bool {
				cfg := Config{Window: time.Minute, Windows: 3, Every: 30 * time.Second}
				if _, checked := runScripted(t, cfg, seed, nsources, 400); checked == 0 {
					t.Errorf("seed %d: the oracle checked no windows", seed)
					return false
				}
				return true
			}
			n := 6
			if testing.Short() {
				n = 2
			}
			if err := quick.Check(check, &quick.Config{MaxCount: n}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestIncrementalMatchesRebuildCountMode runs the same differential under
// count-based rotation, where rotation is driven by intake rather than
// the clock.
func TestIncrementalMatchesRebuildCountMode(t *testing.T) {
	check := func(seed int64) bool {
		cfg := Config{Windows: 3, Every: 30 * time.Second, RotateEvery: 120}
		if _, checked := runScripted(t, cfg, seed, 3, 500); checked == 0 {
			t.Errorf("seed %d: the oracle checked no windows", seed)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 4}); err != nil {
		t.Fatal(err)
	}
}

// TestParallelTickMatchesSerial pins the fan-out determinism contract:
// with every window dirty at each tick, a pipeline running the tick
// fan-out over 8 workers emits byte-identical ticks to one forced serial.
func TestParallelTickMatchesSerial(t *testing.T) {
	run := func(workers int) []byte {
		parallel.SetWorkers(workers)
		defer parallel.SetWorkers(0)
		series, _ := runScripted(t, Config{Window: time.Minute, Windows: 4, Every: 20 * time.Second}, 42, 4, 900)
		return series
	}
	serial := run(1)
	wide := run(8)
	if !bytes.Equal(serial, wide) {
		t.Fatalf("parallel tick series differs from serial\n--- serial ---\n%s--- parallel ---\n%s", serial, wide)
	}
	if len(serial) == 0 {
		t.Fatal("script produced no ticks")
	}
}

// TestCountRotation pins count-based window semantics: windows hold
// exactly RotateEvery accepted events, are labelled by acceptance
// ordinal, rotate on intake regardless of timestamps, and never drop an
// event as late.
func TestCountRotation(t *testing.T) {
	p := New(Config{Windows: 2, Every: 30 * time.Second, RotateEvery: 10})
	s, err := p.Source("v1")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := p.Source("v2")
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1700000000, 0).UTC()
	for i := 0; i < 25; i++ {
		src := s
		if i%2 == 1 {
			src = s2
		}
		// Timestamps wobble backwards: count mode must accept them all.
		p.Offer(src, addr(uint32(i)), base.Add(time.Duration(25-i)*time.Millisecond))
	}
	if got := p.Dropped(); got != 0 {
		t.Fatalf("count mode dropped %d events, want 0", got)
	}
	tk := p.Flush()
	if tk == nil {
		t.Fatal("no tick")
	}
	// 25 events, 10 per window, ring of 2: windows #0 and #10 retired,
	// #10..#20 and #20..#30 live with 10 and 5 events.
	if len(tk.Windows) != 2 {
		t.Fatalf("live windows = %d, want 2", len(tk.Windows))
	}
	w0, w1 := tk.Windows[0], tk.Windows[1]
	if w0.Start != "#10" || w0.End != "#20" {
		t.Fatalf("window 0 bounds = %s..%s, want #10..#20", w0.Start, w0.End)
	}
	if w1.Start != "#20" || w1.End != "#30" {
		t.Fatalf("window 1 bounds = %s..%s, want #20..#30", w1.Start, w1.End)
	}
	if w0.Observed != 10 || w1.Observed != 5 {
		t.Fatalf("observed = %d,%d, want 10,5", w0.Observed, w1.Observed)
	}
}

// TestCountRotationTicksStayTimeDriven: in count mode the cadence still
// runs on the logical clock — Advances through a quiet period fire ticks
// without rotating any window, and a clock jump fires a bounded number.
func TestCountRotationTicksStayTimeDriven(t *testing.T) {
	var ticks []*Tick
	p := New(Config{Windows: 3, Every: 30 * time.Second, RotateEvery: 100,
		OnTick: func(tk *Tick) { ticks = append(ticks, tk) }})
	s, err := p.Source("v1")
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1700000100, 0).UTC()
	for i := 0; i < 20; i++ {
		p.Offer(s, addr(uint32(i)), base.Add(time.Duration(i)*time.Second))
	}
	p.Advance(base.Add(95 * time.Second))
	if len(ticks) < 2 {
		t.Fatalf("cadence fired %d ticks over 95s with Every=30s, want ≥2", len(ticks))
	}
	for _, tk := range ticks {
		if len(tk.Windows) != 1 || tk.Windows[0].Start != "#0" {
			t.Fatalf("quiet ticks must keep the single live window: %+v", tk.Windows)
		}
	}
	// A clock jump years ahead fires a bounded number of further ticks
	// and retires nothing (rotation is intake-driven).
	before := len(ticks)
	p.Advance(base.Add(1000 * time.Hour))
	if fired := len(ticks) - before; fired > 3 {
		t.Fatalf("clock jump fired %d ticks, want ≤3", fired)
	}
	last := ticks[len(ticks)-1]
	if len(last.Windows) != 1 || last.Windows[0].Observed != 20 {
		t.Fatalf("window lost across clock jump: %+v", last.Windows)
	}
	// Seq stays dense over fired ticks.
	for i, tk := range ticks {
		if tk.Seq != int64(i)+1 {
			t.Fatalf("seq not dense: tick %d has seq %d", i, tk.Seq)
		}
	}
}

func deltaTickFixture(seq int64, at string, ws ...WindowEstimate) *Tick {
	return &Tick{API: WatchAPIVersion, Kind: "tick", Seq: seq, At: at, Windows: ws}
}

func TestDeltaTick(t *testing.T) {
	w := func(start string, est float64) WindowEstimate {
		return WindowEstimate{Start: start, End: start + "e", Observed: 10, Estimate: est, Estimated: true}
	}
	full1 := deltaTickFixture(1, "t1", w("a", 11), w("b", 12))

	if got := DeltaTick(nil, full1); got != full1 {
		t.Fatal("nil prev must return the full tick")
	}

	// Nothing changed: frame suppressed.
	full2 := deltaTickFixture(2, "t2", w("a", 11), w("b", 12))
	if got := DeltaTick(full1, full2); got != nil {
		t.Fatalf("unchanged tick must suppress the frame, got %+v", got)
	}

	// One window changed: delta frame with just that window.
	full3 := deltaTickFixture(3, "t3", w("a", 11), w("b", 13))
	d := DeltaTick(full1, full3)
	if d == nil || !d.Delta || len(d.Windows) != 1 || d.Windows[0].Start != "b" {
		t.Fatalf("delta = %+v, want delta frame carrying only window b", d)
	}
	if d.Seq != 3 || d.At != "t3" || d.API != WatchAPIVersion {
		t.Fatalf("delta envelope = %+v", d)
	}
	if !bytes.Contains(d.Encode(), []byte(`"delta":true`)) {
		t.Fatalf("encoded delta missing marker: %s", d.Encode())
	}

	// A new window appeared (no rotation): delta carries only it.
	full4 := deltaTickFixture(4, "t4", w("a", 11), w("b", 13), w("c", 14))
	d = DeltaTick(full3, full4)
	if d == nil || !d.Delta || len(d.Windows) != 1 || d.Windows[0].Start != "c" {
		t.Fatalf("delta = %+v, want delta frame carrying only window c", d)
	}

	// Rotation (window a retired): full resync.
	full5 := deltaTickFixture(5, "t5", w("b", 13), w("c", 14))
	if got := DeltaTick(full4, full5); got != full5 {
		t.Fatalf("rotation must force a full resync, got %+v", got)
	}

	// Every window changed: the full tick is the smaller frame.
	full6 := deltaTickFixture(6, "t6", w("b", 20), w("c", 21))
	if got := DeltaTick(full5, full6); got != full6 {
		t.Fatalf("all-changed tick should be sent full, got %+v", got)
	}

	// Full ticks still encode without a delta marker (wire compat).
	if bytes.Contains(full1.Encode(), []byte("delta")) {
		t.Fatalf("full tick encoded a delta field: %s", full1.Encode())
	}
}

// TestIngestConcurrentChurn hammers one pipeline with concurrent Offers,
// Advances, Flushes and subscriber churn. It exists to run under -race
// (a named ci.sh gate) and asserts only invariants that survive
// scheduling nondeterminism.
func TestIngestConcurrentChurn(t *testing.T) {
	p := New(Config{Window: time.Second, Windows: 3, Every: 500 * time.Millisecond,
		Sources: []string{"v0", "v1", "v2", "v3"}})
	base := time.Unix(1700000000, 0).UTC()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 3000; i++ {
				at := base.Add(time.Duration(i) * time.Millisecond)
				switch {
				case i%200 == 199:
					p.Advance(at)
				case i%500 == 499:
					p.Flush()
				default:
					p.Offer(g, addr(uint32(r.Intn(800))), at)
				}
			}
		}(g)
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				ch, cancel := p.Subscribe()
				var prev *Tick
				for j := 0; j < 5; j++ {
					select {
					case tk, ok := <-ch:
						if !ok {
							t.Error("channel closed before cancel")
							return
						}
						DeltaTick(prev, tk) // exercise delta derivation under churn
						prev = tk
					default:
					}
				}
				cancel()
			}
		}()
	}
	wg.Wait()
	tk := p.Flush()
	if tk == nil || len(tk.Windows) == 0 {
		t.Fatal("churn left no live windows")
	}
	for _, w := range tk.Windows {
		if w.Observed < 0 || w.Estimate < float64(w.Observed) {
			t.Fatalf("inconsistent window after churn: %+v", w)
		}
	}
}
