package ingest

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"ghosts/internal/ipv4"
	"ghosts/internal/pcap"
	"ghosts/internal/rng"
	"ghosts/internal/telemetry"
	"ghosts/internal/wire"
)

func addr(n uint32) ipv4.Addr { return ipv4.Addr(0x0a000000 + n) } // 10.x.y.z

// feed pushes a deterministic burst of events into the pipeline: each of
// three vantages observes a Bernoulli sample of a 300-host population, all
// stamped at t.
func feed(t *testing.T, p *Pipeline, at time.Time, seed uint64) {
	t.Helper()
	r := rng.New(seed)
	src := make([]int, 3)
	for i, name := range []string{"v1", "v2", "v3"} {
		s, err := p.Source(name)
		if err != nil {
			t.Fatal(err)
		}
		src[i] = s
	}
	for h := uint32(0); h < 300; h++ {
		for _, s := range src {
			if r.Bernoulli(0.5) {
				p.Offer(s, addr(h), at)
			}
		}
	}
}

// TestWindowEdgeCountedOnce: an event stamped exactly on a window boundary
// lands in the newer window only — half-open [start, end) semantics.
func TestWindowEdgeCountedOnce(t *testing.T) {
	p := New(Config{Window: time.Minute, Windows: 4, Every: time.Minute, Sources: []string{"a", "b"}})
	base := time.Unix(6000, 0).UTC() // 100 min: a window boundary (6000s = 100*60)
	a, _ := p.Source("a")
	b, _ := p.Source("b")
	// One event strictly inside the previous window, one exactly on the
	// boundary, one inside the new window.
	p.Offer(a, addr(1), base.Add(-time.Second))
	p.Offer(a, addr(2), base) // boundary: belongs to [base, base+1m)
	p.Offer(b, addr(3), base.Add(time.Second))
	tk := p.Flush()
	if tk == nil {
		t.Fatal("no tick after flush")
	}
	byStart := map[string]WindowEstimate{}
	for _, w := range tk.Windows {
		byStart[w.Start] = w
	}
	prev := byStart[base.Add(-time.Minute).Format(time.RFC3339Nano)]
	cur := byStart[base.Format(time.RFC3339Nano)]
	if prev.Observed != 1 {
		t.Fatalf("previous window observed %d addrs, want 1 (boundary event must not land here)", prev.Observed)
	}
	if cur.Observed != 2 {
		t.Fatalf("boundary window observed %d addrs, want 2", cur.Observed)
	}
	var total int64
	for _, w := range tk.Windows {
		total += w.Observed
	}
	if total != 3 {
		t.Fatalf("events counted %d times across windows, want 3 (each exactly once)", total)
	}
}

// TestQuietPeriodRotation: several empty windows passing between bursts
// must not skew the surviving histograms — the fresh window starts empty
// and the old burst's figures are unchanged until it rotates out.
func TestQuietPeriodRotation(t *testing.T) {
	p := New(Config{Window: time.Minute, Windows: 6, Every: time.Minute, Sources: []string{"a"}})
	a, _ := p.Source("a")
	base := time.Unix(0, 0).UTC()
	p.Offer(a, addr(1), base.Add(10*time.Second))
	p.Offer(a, addr(2), base.Add(20*time.Second))
	// Quiet for 3 windows, then a second burst.
	p.Offer(a, addr(3), base.Add(4*time.Minute).Add(10*time.Second))
	tk := p.Flush()
	counts := map[string]int64{}
	for _, w := range tk.Windows {
		counts[w.Start] = w.Observed
	}
	if got := counts[base.Format(time.RFC3339Nano)]; got != 2 {
		t.Fatalf("burst window observed %d, want 2 after quiet period", got)
	}
	if got := counts[base.Add(4*time.Minute).Format(time.RFC3339Nano)]; got != 1 {
		t.Fatalf("post-quiet window observed %d, want 1", got)
	}
	for start, n := range counts {
		if start != base.Format(time.RFC3339Nano) && start != base.Add(4*time.Minute).Format(time.RFC3339Nano) && n != 0 {
			t.Fatalf("quiet window %s observed %d, want 0", start, n)
		}
	}
	// Now push far enough that everything before rotates out entirely.
	p.Advance(base.Add(30 * time.Minute))
	tk = p.Flush()
	for _, w := range tk.Windows {
		if w.Observed != 0 {
			t.Fatalf("window %s survived a full rotation with %d observations", w.Start, w.Observed)
		}
	}
}

// TestLateEventDropped: an event older than the oldest live window is
// discarded and counted, never resurrected into a rotated slot.
func TestLateEventDropped(t *testing.T) {
	p := New(Config{Window: time.Minute, Windows: 2, Every: time.Minute, Sources: []string{"a"}})
	a, _ := p.Source("a")
	base := time.Unix(0, 0).UTC()
	p.Offer(a, addr(1), base.Add(10*time.Minute))
	p.Offer(a, addr(2), base) // 10 minutes late, ring holds 2 windows
	if got := p.Dropped(); got != 1 {
		t.Fatalf("dropped = %d, want 1", got)
	}
	tk := p.Flush()
	var total int64
	for _, w := range tk.Windows {
		total += w.Observed
	}
	if total != 1 {
		t.Fatalf("late event leaked into a live window (total observed %d, want 1)", total)
	}
}

// TestLateEventWithinRing: an event for an older window that is still
// inside the live ring but whose slot was never opened (its window's first
// event arrives after the clock already passed it) must be counted, not
// panic — the startup shape is Offer at window N, then window N-1.
func TestLateEventWithinRing(t *testing.T) {
	p := New(Config{Window: time.Minute, Windows: 4, Every: time.Minute, Sources: []string{"a"}})
	a, _ := p.Source("a")
	base := time.Unix(6000, 0).UTC()
	p.Offer(a, addr(1), base)                   // first event: window N
	p.Offer(a, addr(2), base.Add(-time.Second)) // late but within the ring: window N-1
	if got := p.Dropped(); got != 0 {
		t.Fatalf("dropped = %d, want 0 (event was within the live ring)", got)
	}
	tk := p.Flush()
	counts := map[string]int64{}
	for _, w := range tk.Windows {
		counts[w.Start] = w.Observed
	}
	if got := counts[base.Add(-time.Minute).Format(time.RFC3339Nano)]; got != 1 {
		t.Fatalf("late event's window observed %d, want 1", got)
	}
	if got := counts[base.Format(time.RFC3339Nano)]; got != 1 {
		t.Fatalf("first window observed %d, want 1", got)
	}
}

// TestRotationsCountRetiredOnly: filling the ring for the first time is
// not a rotation; only a live window falling out of the ring counts, and
// a quiet gap retires at most the ring size — never one per window
// skipped.
func TestRotationsCountRetiredOnly(t *testing.T) {
	rec := telemetry.NewRecorder()
	telemetry.Enable(rec)
	defer telemetry.Disable()
	p := New(Config{Window: time.Minute, Windows: 3, Every: time.Minute, Sources: []string{"a"}})
	a, _ := p.Source("a")
	base := time.Unix(0, 0).UTC()
	p.Offer(a, addr(1), base.Add(time.Second))
	p.Offer(a, addr(2), base.Add(time.Minute+time.Second))
	p.Offer(a, addr(3), base.Add(2*time.Minute+time.Second))
	if got := rec.IngestRotations.Load(); got != 0 {
		t.Fatalf("rotations = %d while the ring was still filling, want 0", got)
	}
	p.Offer(a, addr(4), base.Add(3*time.Minute+time.Second)) // retires window 0
	if got := rec.IngestRotations.Load(); got != 1 {
		t.Fatalf("rotations = %d after first retirement, want 1", got)
	}
	// A quiet gap of 20 windows retires the 3 live windows plus the few
	// empty ones the clock opens while walking the final ring span —
	// never anything close to one per window skipped.
	p.Advance(base.Add(23 * time.Minute))
	if got := rec.IngestRotations.Load(); got < 4 || got > 10 {
		t.Fatalf("rotations = %d after a 20-window quiet gap, want 4..10 (not one per skipped window)", got)
	}
}

// TestClockJumpBounded: one event stamped absurdly far in the future must
// not fire a tick per cadence boundary crossed — ticks per Advance are
// bounded by the ring span over the cadence, so a hostile timestamp cannot
// stall the pipeline.
func TestClockJumpBounded(t *testing.T) {
	var ticks int
	p := New(Config{
		Window:  time.Minute,
		Windows: 4,
		Every:   30 * time.Second,
		Sources: []string{"a"},
		OnTick:  func(*Tick) { ticks++ },
	})
	a, _ := p.Source("a")
	base := time.Unix(0, 0).UTC()
	p.Offer(a, addr(1), base.Add(time.Second))
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Offer(a, addr(2), time.Unix(0xFFFFFFFF, 0).UTC()) // year 2106
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("far-future event stalled the pipeline (tick per boundary crossed)")
	}
	// One tick flushing the pre-jump state plus at most one ring span of
	// boundaries at the far end — versus the ~143 million the bug fired.
	if ticks > 12 {
		t.Fatalf("fired %d ticks across the jump, want <= 12", ticks)
	}
	if tk := p.Flush(); tk == nil || tk.Windows[len(tk.Windows)-1].Observed != 1 {
		t.Fatalf("post-jump event lost: %+v", p.Last())
	}
}

// TestTickCadenceAndSeq: ticks fire once per Every boundary crossed, in
// order, with dense sequence numbers, even when one Advance jumps several
// boundaries.
func TestTickCadenceAndSeq(t *testing.T) {
	var ticks []*Tick
	p := New(Config{
		Window:  time.Minute,
		Windows: 4,
		Every:   30 * time.Second,
		Sources: []string{"a", "b"},
		OnTick:  func(tk *Tick) { ticks = append(ticks, tk) },
	})
	a, _ := p.Source("a")
	base := time.Unix(0, 0).UTC()
	p.Offer(a, addr(1), base.Add(5*time.Second))
	p.Advance(base.Add(95 * time.Second)) // crosses 30s, 60s, 90s
	if len(ticks) != 3 {
		t.Fatalf("fired %d ticks, want 3", len(ticks))
	}
	for i, tk := range ticks {
		if tk.Seq != int64(i+1) {
			t.Fatalf("tick %d has seq %d", i, tk.Seq)
		}
	}
	if ticks[1].At != base.Add(time.Minute).Format(time.RFC3339Nano) {
		t.Fatalf("second tick at %s, want %s", ticks[1].At, base.Add(time.Minute).Format(time.RFC3339Nano))
	}
	// The clock must not regress: advancing to an earlier time is a no-op.
	p.Advance(base.Add(10 * time.Second))
	if len(ticks) != 3 {
		t.Fatal("regressed Advance fired a tick")
	}
}

// TestEstimateAndWarmStart: with three overlapping vantages the window is
// estimable (N̂ > observed), and the second tick over the same window
// warm-starts from the first tick's accepted coefficients.
func TestEstimateAndWarmStart(t *testing.T) {
	rec := telemetry.NewRecorder()
	telemetry.Enable(rec)
	defer telemetry.Disable()
	var ticks []*Tick
	p := New(Config{
		Window: time.Minute,
		Every:  15 * time.Second,
		OnTick: func(tk *Tick) { ticks = append(ticks, tk) },
	})
	base := time.Unix(0, 0).UTC()
	feed(t, p, base.Add(5*time.Second), 1)
	p.Advance(base.Add(16 * time.Second)) // first tick: cold fit
	feed(t, p, base.Add(20*time.Second), 2)
	p.Advance(base.Add(31 * time.Second)) // second tick: same window, dirty again
	if len(ticks) != 2 {
		t.Fatalf("fired %d ticks, want 2", len(ticks))
	}
	w0 := ticks[0].Windows[0]
	if !w0.Estimated || w0.Estimate <= float64(w0.Observed) {
		t.Fatalf("first tick not estimated past the union: %+v", w0)
	}
	if w0.Warm {
		t.Fatal("first fit of a window claims a warm start")
	}
	w1 := ticks[1].Windows[0]
	if !w1.Estimated {
		t.Fatalf("second tick lost the estimate: %+v", w1)
	}
	if !w1.Warm {
		t.Fatal("second tick over the same window did not warm-start (model should be stable across ticks of the same data)")
	}
	if rec.SweepWarmStarts.Load() == 0 {
		t.Fatal("telemetry glm_fit.sweep_warm_starts stayed 0 across warm tick")
	}
	if rec.TickLatencyUS.Count() != 2 {
		t.Fatalf("tick latency histogram has %d samples, want 2", rec.TickLatencyUS.Count())
	}
}

// TestCleanWindowReusesEstimate: a tick over an untouched window must
// republish the cached figures without refitting.
func TestCleanWindowReusesEstimate(t *testing.T) {
	rec := telemetry.NewRecorder()
	telemetry.Enable(rec)
	defer telemetry.Disable()
	var ticks []*Tick
	p := New(Config{
		Window: time.Minute,
		Every:  15 * time.Second,
		OnTick: func(tk *Tick) { ticks = append(ticks, tk) },
	})
	base := time.Unix(0, 0).UTC()
	feed(t, p, base.Add(5*time.Second), 7)
	p.Advance(base.Add(16 * time.Second))
	fitsAfterFirst := rec.Fits.Load()
	p.Advance(base.Add(31 * time.Second)) // no new events: window is clean
	if got := rec.Fits.Load(); got != fitsAfterFirst {
		t.Fatalf("clean window refit anyway (%d fits after, %d before)", got, fitsAfterFirst)
	}
	if len(ticks) != 2 {
		t.Fatalf("fired %d ticks, want 2", len(ticks))
	}
	if ticks[0].Windows[0].Estimate != ticks[1].Windows[0].Estimate {
		t.Fatal("cached estimate drifted on a clean tick")
	}
}

// TestDuplicateEventsKeepWindowClean: an interval that only repeats
// (source, address) pairs the window already holds leaves its table
// unchanged, so the tick republishes the previous figures without a refit,
// while ingest.hist_updates still counts every accepted event.
func TestDuplicateEventsKeepWindowClean(t *testing.T) {
	rec := telemetry.NewRecorder()
	telemetry.Enable(rec)
	defer telemetry.Disable()
	var ticks []*Tick
	p := New(Config{
		Window: time.Minute,
		Every:  15 * time.Second,
		OnTick: func(tk *Tick) { ticks = append(ticks, tk) },
	})
	base := time.Unix(0, 0).UTC()
	feed(t, p, base.Add(5*time.Second), 7)
	p.Advance(base.Add(16 * time.Second))
	fits, updates := rec.Fits.Load(), rec.IngestHistUpdates.Load()
	feed(t, p, base.Add(20*time.Second), 7) // the same events again
	p.Advance(base.Add(31 * time.Second))
	if got := rec.Fits.Load(); got != fits {
		t.Fatalf("duplicate events forced a refit (%d fits after, %d before)", got, fits)
	}
	if got := rec.IngestHistUpdates.Load(); got != 2*updates {
		t.Fatalf("hist_updates = %d after replaying %d events, want %d", got, updates, 2*updates)
	}
	if len(ticks) != 2 {
		t.Fatalf("fired %d ticks, want 2", len(ticks))
	}
	first, second := ticks[0].Windows[0], ticks[1].Windows[0]
	if !first.Estimated || !reflect.DeepEqual(first, second) {
		t.Fatalf("duplicate-only interval changed the window: %+v, then %+v", first, second)
	}
}

// TestSubscribeMatchesOnTick: channel subscribers observe the same ticks,
// in the same order, as the synchronous OnTick callback, and the SSE-bound
// encoding of both is identical.
func TestSubscribeMatchesOnTick(t *testing.T) {
	var inline []*Tick
	p := New(Config{
		Window:  time.Minute,
		Every:   30 * time.Second,
		Sources: []string{"a", "b"},
		OnTick:  func(tk *Tick) { inline = append(inline, tk) },
	})
	ch, cancel := p.Subscribe()
	defer cancel()
	a, _ := p.Source("a")
	b, _ := p.Source("b")
	base := time.Unix(0, 0).UTC()
	for i := uint32(0); i < 20; i++ {
		p.Offer(a, addr(i), base.Add(time.Duration(i)*time.Second))
		p.Offer(b, addr(i+10), base.Add(time.Duration(i)*time.Second))
	}
	p.Advance(base.Add(2 * time.Minute))
	for i, want := range inline {
		got := <-ch
		if !bytes.Equal(got.Encode(), want.Encode()) {
			t.Fatalf("subscriber tick %d differs from OnTick:\n%s%s", i, got.Encode(), want.Encode())
		}
	}
	cancel()
	if _, ok := <-ch; ok {
		t.Fatal("channel still open after cancel")
	}
	cancel() // idempotent
}

// TestSourceLimit: the 17th source is rejected, the first 16 keep working.
func TestSourceLimit(t *testing.T) {
	p := New(Config{})
	for i := 0; i < MaxSources; i++ {
		if _, err := p.Source(string(rune('a' + i))); err != nil {
			t.Fatalf("source %d rejected: %v", i, err)
		}
	}
	if _, err := p.Source("overflow"); err == nil {
		t.Fatal("17th source accepted")
	}
	if got, _ := p.Source("a"); got != 0 {
		t.Fatal("re-registering an existing source moved it")
	}
}

// TestEncodeDeterministic: equal ticks encode to equal bytes, one line,
// newline-terminated, carrying the schema tag.
func TestEncodeDeterministic(t *testing.T) {
	tk := &Tick{API: WatchAPIVersion, Kind: "tick", Seq: 3, At: "2026-01-02T03:04:05Z",
		Windows: []WindowEstimate{{Start: "a", End: "b", Sources: 2, Observed: 10, Estimate: 12.5, Unseen: 2.5, Estimated: true, Warm: true, Model: []string{"u{1,2}"}}}}
	b1, b2 := tk.Encode(), tk.Encode()
	if !bytes.Equal(b1, b2) {
		t.Fatal("Encode not deterministic")
	}
	if b1[len(b1)-1] != '\n' || bytes.Count(b1, []byte("\n")) != 1 {
		t.Fatal("Encode must emit exactly one newline-terminated line")
	}
	if !bytes.Contains(b1, []byte(`"api":"ghosts.watch/v1"`)) {
		t.Fatalf("missing schema tag: %s", b1)
	}
}

// buildCapture writes a small raw-IP pcap where three monitors each log
// echo-requests from a Bernoulli sample of the population, spread over
// several windows — more windows than the replay ring holds, so at least
// one live window retires during the replay.
func buildCapture(t *testing.T, seed uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	pw := pcap.NewWriter(&buf)
	r := rng.New(seed)
	monitors := []ipv4.Addr{
		ipv4.MustParseAddr("10.0.0.1"),
		ipv4.MustParseAddr("10.0.0.2"),
		ipv4.MustParseAddr("10.0.0.3"),
	}
	base := time.Unix(1700000000, 0).UTC()
	for step := 0; step < 250; step++ {
		at := base.Add(time.Duration(step) * time.Second)
		host := addr(uint32(r.Intn(200)) + 256)
		for mi, m := range monitors {
			if !r.Bernoulli(0.6) {
				continue
			}
			pkt := wire.EchoRequest(host, m, uint16(mi+1), uint16(step))
			data, err := pkt.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			if err := pw.WritePacket(at, data); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func replayOnce(t *testing.T, capture []byte) ([]byte, *ReplayStats) {
	t.Helper()
	var out bytes.Buffer
	p := New(Config{
		Window:  time.Minute,
		Windows: 3,
		Every:   30 * time.Second,
		OnTick:  func(tk *Tick) { out.Write(tk.Encode()) },
	})
	st, err := Replay(bytes.NewReader(capture), p)
	if err != nil {
		t.Fatal(err)
	}
	return out.Bytes(), st
}

// TestReplayDeterministic: replaying the same capture twice yields
// byte-identical tick series — the pinned determinism contract behind
// `ghosts -replay`.
func TestReplayDeterministic(t *testing.T) {
	capture := buildCapture(t, 42)
	out1, st1 := replayOnce(t, capture)
	out2, st2 := replayOnce(t, capture)
	if !bytes.Equal(out1, out2) {
		t.Fatalf("replay not deterministic:\n--- run 1 ---\n%s--- run 2 ---\n%s", out1, out2)
	}
	if *st1 != *st2 {
		t.Fatalf("replay stats differ: %+v vs %+v", st1, st2)
	}
	if st1.Sources != 3 {
		t.Fatalf("discovered %d vantages, want 3", st1.Sources)
	}
	if st1.Malformed != 0 || st1.Dropped != 0 {
		t.Fatalf("clean capture reported malformed=%d dropped=%d", st1.Malformed, st1.Dropped)
	}
	if st1.Ticks < 4 {
		t.Fatalf("capture spanning 250s at 30s cadence fired only %d ticks", st1.Ticks)
	}
	if bytes.Count(out1, []byte("\n")) != int(st1.Ticks) {
		t.Fatalf("output lines %d != ticks %d", bytes.Count(out1, []byte("\n")), st1.Ticks)
	}
}

// TestReplayWarmStarts: a replay long enough to tick the same window twice
// must exercise the warm-start path — the cheapness claim behind the
// cadence < window design.
func TestReplayWarmStarts(t *testing.T) {
	rec := telemetry.NewRecorder()
	telemetry.Enable(rec)
	defer telemetry.Disable()
	capture := buildCapture(t, 7)
	out, _ := replayOnce(t, capture)
	if rec.SweepWarmStarts.Load() == 0 {
		t.Fatal("replay never warm-started a fit")
	}
	if rec.IngestEvents.Load() == 0 || rec.IngestRotations.Load() == 0 {
		t.Fatalf("ingest counters flat: events=%d rotations=%d",
			rec.IngestEvents.Load(), rec.IngestRotations.Load())
	}
	if !bytes.Contains(out, []byte(`"warm":true`)) {
		t.Fatal("no tick reported a warm window")
	}
}

// TestReplaySourceLimit: packets whose vantage falls beyond the 16-source
// table limit decoded fine — they are pipeline drops, not malformed.
func TestReplaySourceLimit(t *testing.T) {
	var buf bytes.Buffer
	pw := pcap.NewWriter(&buf)
	at := time.Unix(1700000000, 0).UTC()
	for i := 0; i < MaxSources+2; i++ {
		monitor := ipv4.Addr(0x0b000000 + uint32(i)) // 11.0.0.i: one vantage per packet
		pkt := wire.EchoRequest(addr(uint32(100+i)), monitor, uint16(i+1), 1)
		data, err := pkt.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if err := pw.WritePacket(at.Add(time.Duration(i)*time.Second), data); err != nil {
			t.Fatal(err)
		}
	}
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	p := New(Config{Window: time.Minute, Every: 30 * time.Second})
	st, err := Replay(bytes.NewReader(buf.Bytes()), p)
	if err != nil {
		t.Fatal(err)
	}
	if st.Malformed != 0 {
		t.Fatalf("over-limit vantages counted as malformed: %+v", st)
	}
	if st.Dropped != 2 {
		t.Fatalf("dropped = %d, want 2 (the vantages beyond the table limit)", st.Dropped)
	}
	if st.Sources != MaxSources {
		t.Fatalf("registered %d vantages, want %d", st.Sources, MaxSources)
	}
}

// TestReplayMalformed: junk packets are counted and skipped, valid ones
// still land.
func TestReplayMalformed(t *testing.T) {
	var buf bytes.Buffer
	pw := pcap.NewWriter(&buf)
	at := time.Unix(1700000000, 0).UTC()
	if err := pw.WritePacket(at, []byte{0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	pkt := wire.EchoRequest(addr(9), ipv4.MustParseAddr("10.0.0.1"), 1, 1)
	data, err := pkt.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := pw.WritePacket(at.Add(time.Second), data); err != nil {
		t.Fatal(err)
	}
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	p := New(Config{Window: time.Minute, Every: 30 * time.Second})
	st, err := Replay(bytes.NewReader(buf.Bytes()), p)
	if err != nil {
		t.Fatal(err)
	}
	if st.Packets != 2 || st.Malformed != 1 {
		t.Fatalf("stats = %+v, want 2 packets with 1 malformed", st)
	}
	if last := p.Last(); last == nil || last.Windows[len(last.Windows)-1].Observed != 1 {
		t.Fatalf("valid packet lost: %+v", p.Last())
	}
}
