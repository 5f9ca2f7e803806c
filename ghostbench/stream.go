package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sync"
	"time"

	"ghosts/internal/core"
	"ghosts/internal/ingest"
	"ghosts/internal/ipset"
	"ghosts/internal/ipv4"
	"ghosts/internal/parallel"
	"ghosts/internal/pcap"
	"ghosts/internal/rng"
	"ghosts/internal/telemetry"
	"ghosts/internal/wire"
)

// Stream workload shape. Nine monitors with heterogeneous coverage log
// ICMP echo requests from a Zipf-active host population over ten minutes
// of capture time; a fixed share of packets arrive late (half of them past
// the live ring, so the pipeline drops them) and a fixed share are
// malformed. Both are injected on purpose and are not failures.
const (
	streamContacts  = 30000 // host contacts; each reaches every monitor with its coverage probability
	streamHosts     = 50000 // host population, activity Zipf-distributed
	streamZipfS     = 0.6
	streamSpan      = 10 * time.Minute
	streamLateShare = 0.02 // of packets: timestamp pushed into the past
	streamBadShare  = 0.01 // of packets: truncated below an IPv4 header
)

// streamCoverage is each monitor's chance of logging a contact.
var streamCoverage = []float64{0.08, 0.12, 0.18, 0.25, 0.32, 0.40, 0.50, 0.60, 0.70}

// streamConfig is the pipeline the capture is replayed through: one-minute
// windows, three live, a tick every five seconds of capture time.
func streamConfig() ingest.Config {
	return ingest.Config{Window: time.Minute, Windows: 3, Every: 5 * time.Second}
}

// genPacket is the generator's record of one packet.
type genPacket struct {
	at        time.Time
	monitor   int // index into capture.monitors
	host      ipv4.Addr
	malformed bool
	dropped   bool // expected to be dropped as late past the ring
	trigger   bool // its Offer fires at least one cadence tick
}

// tickTrigger is one cadence tick the capture fires: the packet whose
// Offer crosses the boundary, and the boundary itself.
type tickTrigger struct {
	split int   // index into capture.splits of the trigger packet
	at    int64 // boundary, Unix nanoseconds
}

// capture is the generated input of the stream workload.
type capture struct {
	data      []byte // the pcap file
	packets   []genPacket
	monitors  []ipv4.Addr
	order     []int // monitor indices in first-appearance order (the pipeline's table order)
	malformed int
	dropped   int
	splits    []int // byte offsets of trigger packets' records
	triggers  []tickTrigger
}

// genCapture builds the seeded capture in memory.
func genCapture(seed uint64) (*capture, error) {
	r := rng.New(seed ^ 0x5eed5eed)
	c := &capture{}
	for i := range streamCoverage {
		c.monitors = append(c.monitors, ipv4.Addr(0x0a000001+uint32(i)))
	}
	zipf := rng.NewZipf(r.Split(), streamHosts, streamZipfS)
	// Host ranks map to scattered addresses in 10.64.0.0/10.
	perm := make([]uint32, streamHosts)
	for i := range perm {
		perm[i] = uint32(i)
	}
	r.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	base := time.Unix(1700000000, 0).UTC()
	step := streamSpan / streamContacts
	for k := 0; k < streamContacts; k++ {
		at := base.Add(time.Duration(k) * step).Truncate(time.Microsecond)
		host := ipv4.Addr(0x0a400000 + perm[zipf.Next()]*37%(1<<22))
		for m, p := range streamCoverage {
			if !r.Bernoulli(p) {
				continue
			}
			pk := genPacket{at: at, monitor: m, host: host}
			if k > 1000 {
				switch u := r.Float64(); {
				case u < streamBadShare:
					pk.malformed = true
				case u < streamBadShare+streamLateShare/2:
					pk.at = at.Add(-time.Duration(20+r.Intn(40)) * time.Second) // late, still live
				case u < streamBadShare+streamLateShare:
					pk.at = at.Add(-time.Duration(200+r.Intn(200)) * time.Second) // past the ring
				}
			}
			c.packets = append(c.packets, pk)
		}
	}

	var buf bytes.Buffer
	pw := pcap.NewWriter(&buf)
	off := 24 // pcap file header
	seen := make([]bool, len(c.monitors))
	cfg := streamConfig()
	var (
		started  bool
		clock    time.Time
		nextTick int64
	)
	for i := range c.packets {
		pk := &c.packets[i]
		data, err := wire.EchoRequest(pk.host, c.monitors[pk.monitor], uint16(pk.monitor+1), uint16(i)).Marshal()
		if err != nil {
			return nil, err
		}
		if pk.malformed {
			data = data[:12]
			c.malformed++
		}
		recOff := off
		off += 16 + len(data)
		if err := pw.WritePacket(pk.at, data); err != nil {
			return nil, err
		}
		if pk.malformed {
			continue
		}
		if !seen[pk.monitor] {
			seen[pk.monitor] = true
			c.order = append(c.order, pk.monitor)
		}
		// Mirror the pipeline's clock: the first event starts it, a later
		// event fires every tick boundary at or before its time, and an
		// event whose window is older than the live ring is dropped.
		t := pk.at.UnixNano()
		if !started {
			started, clock = true, pk.at
			nextTick = t/int64(cfg.Every) + 1
			continue
		}
		if pk.at.After(clock) {
			for nextTick*int64(cfg.Every) <= t {
				if !pk.trigger {
					pk.trigger = true
					c.splits = append(c.splits, recOff)
				}
				c.triggers = append(c.triggers, tickTrigger{split: len(c.splits) - 1, at: nextTick * int64(cfg.Every)})
				nextTick++
			}
			clock = pk.at
		}
		if t/int64(cfg.Window) <= clock.UnixNano()/int64(cfg.Window)-int64(cfg.Windows) {
			pk.dropped = true
			c.dropped++
		}
	}
	if err := pw.Flush(); err != nil {
		return nil, err
	}
	c.data = buf.Bytes()
	return c, nil
}

// splitReader serves the capture so that every trigger packet's record
// starts a fresh Read, and stamps the time of that Read: it is when
// pcap.Reader.Next begins decoding the packet whose Offer fires the tick.
type splitReader struct {
	data   []byte
	off    int
	splits []int
	marks  []time.Time
	next   int
}

func (r *splitReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	if r.next < len(r.splits) && r.off == r.splits[r.next] {
		r.marks[r.next] = time.Now()
		r.next++
	}
	limit := len(r.data)
	if r.next < len(r.splits) {
		limit = r.splits[r.next]
	}
	n := copy(p, r.data[r.off:limit])
	r.off += n
	return n, nil
}

// replayOutcome is what one timed replay measured.
type replayOutcome struct {
	wall     time.Duration
	stats    *ingest.ReplayStats
	lat      samples // Offer start → subscriber holding the encoded frame, cadence ticks
	encode   samples // DeltaTick + Encode per tick, ms
	last     *ingest.Tick
	received int
	badTicks int
}

// replay runs the capture once through a fresh pipeline via ingest.Replay,
// with one subscriber doing the /v1/watch work (DeltaTick, Encode) on
// every tick.
func replay(c *capture, tr *tracer, parent int) (*replayOutcome, error) {
	rd := &splitReader{data: c.data, splits: c.splits, marks: make([]time.Time, len(c.splits))}
	p := ingest.New(streamConfig())
	ch, cancel := p.Subscribe()
	out := &replayOutcome{}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var prev *ingest.Tick
		for tk := range ch {
			t0 := time.Now()
			id := tr.begin("watch.encode", parent, tk.Seq)
			if d := ingest.DeltaTick(prev, tk); d != nil {
				_ = d.Encode()
			}
			tr.end(id)
			held := time.Now()
			prev = tk
			out.received++
			out.last = tk
			out.encode.add(held.Sub(t0))
			if i := int(tk.Seq) - 1; i < len(c.triggers) {
				trig := c.triggers[i]
				if tk.At != time.Unix(0, trig.at).UTC().Format(time.RFC3339Nano) {
					out.badTicks++
					continue
				}
				out.lat.add(held.Sub(rd.marks[trig.split]))
			}
		}
	}()
	start := time.Now()
	st, err := ingest.Replay(rd, p)
	out.wall = time.Since(start)
	cancel()
	wg.Wait()
	out.stats = st
	return out, err
}

// checkReplay checks one replay's counts and ticks against the generator.
func checkReplay(b *bench, c *capture, o *replayOutcome) {
	want := len(c.triggers) + 1 // cadence ticks plus the final flush
	bad := want - o.received + o.badTicks
	b.attempted += int64(want)
	b.failed += int64(bad)
	if bad > 0 {
		b.problem("stream: %d of %d ticks reached the subscriber, %d at unexpected boundaries", o.received, want, o.badTicks)
	}
	st := o.stats
	if st.Packets != int64(len(c.packets)) || st.Malformed != int64(c.malformed) || st.Dropped != int64(c.dropped) {
		b.problem("stream: replay read %d packets, %d malformed, %d dropped; generated %d, %d, %d",
			st.Packets, st.Malformed, st.Dropped, len(c.packets), c.malformed, c.dropped)
	}
}

// reestimate rebuilds every window of the final tick from the generated
// packets — per-source ipset.Sets folded through core.TableFromSets and a
// cold estimate — and compares: observed counts and models must match
// exactly, estimates within a relative 1e-6 (the pipeline warm-starts its
// final fits). It returns the tables for the core breakdown.
func reestimate(b *bench, c *capture, last *ingest.Tick) []coreInput {
	if last == nil {
		b.op(fmt.Errorf("stream: no final tick"))
		return nil
	}
	est := core.DefaultEstimator(streamConfig().Limit)
	var tables []coreInput
	for _, we := range last.Windows {
		b.op(func() error {
			from, err1 := time.Parse(time.RFC3339Nano, we.Start)
			to, err2 := time.Parse(time.RFC3339Nano, we.End)
			if err1 != nil || err2 != nil {
				return fmt.Errorf("stream: window bounds %q..%q", we.Start, we.End)
			}
			sets := make([]*ipset.Set, len(c.monitors))
			for _, pk := range c.packets {
				if pk.malformed || pk.at.Before(from) || !pk.at.Before(to) {
					continue
				}
				if sets[pk.monitor] == nil {
					sets[pk.monitor] = ipset.New()
				}
				sets[pk.monitor].Add(pk.host)
			}
			var kept []*ipset.Set
			var names []string
			for _, m := range c.order {
				if sets[m] != nil {
					kept = append(kept, sets[m])
					names = append(names, c.monitors[m].String())
				}
			}
			if len(kept) != we.Sources {
				return fmt.Errorf("stream: window %s has %d sources, re-estimate %d", we.Start, we.Sources, len(kept))
			}
			tb := core.TableFromSets(kept, names)
			if tb.Observed() != we.Observed {
				return fmt.Errorf("stream: window %s observed %d, re-estimate %d", we.Start, we.Observed, tb.Observed())
			}
			if len(kept) < 2 {
				return nil
			}
			tables = append(tables, coreInput{tb: tb, est: est})
			res, err := est.EstimatePoint(tb)
			if err != nil || !we.Estimated {
				return fmt.Errorf("stream: window %s estimated=%v, re-estimate error %v", we.Start, we.Estimated, err)
			}
			if rel := math.Abs(res.N-we.Estimate) / res.N; rel > 1e-6 {
				return fmt.Errorf("stream: window %s estimate %v, re-estimate %v (rel %.2g)", we.Start, we.Estimate, res.N, rel)
			}
			if len(res.Model.Terms) != len(we.Model) {
				return fmt.Errorf("stream: window %s model %v, re-estimate has %d terms", we.Start, we.Model, len(res.Model.Terms))
			}
			for i, h := range res.Model.Terms {
				if core.TermName(h) != we.Model[i] {
					return fmt.Errorf("stream: window %s model %v differs from re-estimate", we.Start, we.Model)
				}
			}
			return nil
		}())
	}
	return tables
}

// checkGolden replays the committed fixture capture with the ghosts
// -replay defaults and compares the tick lines to the committed golden.
func checkGolden(b *bench) {
	b.op(func() error {
		raw, err := os.ReadFile("internal/ingest/testdata/stream.pcap")
		if err != nil {
			return fmt.Errorf("stream: golden fixture: %v", err)
		}
		want, err := os.ReadFile("internal/ingest/testdata/stream.golden")
		if err != nil {
			return fmt.Errorf("stream: golden fixture: %v", err)
		}
		var got bytes.Buffer
		p := ingest.New(ingest.Config{Window: time.Minute, Windows: 3, Every: 30 * time.Second,
			OnTick: func(tk *ingest.Tick) { got.Write(tk.Encode()) }})
		if _, err := ingest.Replay(bytes.NewReader(raw), p); err != nil {
			return fmt.Errorf("stream: golden replay: %v", err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			return fmt.Errorf("stream: fixture replay differs from stream.golden")
		}
		return nil
	}())
}

// streamPath is the streaming path: the seeded capture replayed through
// a fresh pipeline, as many times as a round's slice holds.
type streamPath struct {
	own       bool
	c         *capture
	rates     []float64
	lat       samples
	perReplay []samples
	last      *replayOutcome
}

// streamSetups is how many times the workload's own stream path builds its
// capture and pipeline for setup_s. One set-up takes tens of milliseconds.
const streamSetups = 9

func (p *streamPath) setup(b *bench, own bool) error {
	p.own = own
	var setups []float64
	for i := 0; i < streamSetups && (own || i == 0); i++ {
		t0 := time.Now()
		c, err := genCapture(b.seed)
		if err != nil {
			return fmt.Errorf("stream: generating capture: %v", err)
		}
		pl := ingest.New(streamConfig())
		_, cancel := pl.Subscribe()
		cancel()
		setups = append(setups, seconds(time.Since(t0)))
		runtime.GC() // drop the previous set-up's capture before the next
		if p.c != nil && !bytes.Equal(p.c.data, c.data) {
			b.problem("stream: the capture generator is not deterministic")
		}
		p.c = c
	}
	if own && !b.trace {
		b.set("setup_s", "s", median(setups))
		b.note("setup_s: median of %d capture and pipeline set-ups", len(setups))
	}
	b.note("stream capture: %d packets (%d malformed, %d late past the ring), %d bytes, %d cadence ticks",
		len(p.c.packets), p.c.malformed, p.c.dropped, len(p.c.data), len(p.c.triggers))
	checkGolden(b)
	return nil
}

// streamSlice is how long the stream path replays in each round. Replays
// vary most from one to the next of all the paths' operations, so the
// stream path gets the largest slice.
func streamSlice(budget time.Duration) time.Duration { return budget / 15 }

func (p *streamPath) round(b *bench, budget time.Duration) {
	c := p.c
	first := p.last == nil
	d := streamSlice(budget)
	for n, start := 0, time.Now(); n == 0 || time.Since(start) < d; n++ {
		runtime.GC() // each replay starts from the same heap
		o, err := replay(c, newTracer(false), -1)
		if err != nil {
			b.op(fmt.Errorf("stream: replay: %v", err))
			return
		}
		checkReplay(b, c, o)
		p.rates = append(p.rates, float64(o.stats.Packets)/o.wall.Seconds())
		p.lat.xs = append(p.lat.xs, o.lat.xs...)
		p.perReplay = append(p.perReplay, o.lat)
		p.last = o
	}
	if p.own && first {
		// Read before any other path runs in this process.
		rss, err := peakRSSMB("self")
		if err != nil {
			b.problem("peak rss: %v", err)
		}
		b.set("peak_rss_mb", "MiB", rss)
	}
}

func (p *streamPath) finish(b *bench) {
	if p.last == nil {
		b.op(fmt.Errorf("stream: no replay completed"))
		return
	}
	reestimate(b, p.c, p.last.last)
	reconcileStream(b, p.c)
	b.set("stream_events_per_s", "1/s", median(p.rates))
	b.set("tick_p50_ms", "ms", p.lat.quantile(0.5))
	b.note("stream_events_per_s: median of %d replays of %d packets: %.0f", len(p.rates), len(p.c.packets), p.rates)
	b.note("tick latency (Offer start to encoded frame): p50=%.4fms over n=%d", p.lat.quantile(0.5), p.lat.n())
	tickTail(b, p.perReplay, false)
}

// tickTail takes the median over replays of each replay's tick-latency
// tail. Like serveTail, it is printed on every run and recorded as
// tick_tail_ms on traced runs only.
func tickTail(b *bench, perReplay []samples, record bool) {
	q, tail, beyond := medianTail(perReplay)
	if record {
		b.set("tick_tail_ms", "ms", tail)
	}
	b.note("tick tail: %.4fms, the median over %d replays of each replay's p%s (n=%d, %d beyond)",
		tail, len(perReplay), pct(q), perReplay[0].n(), beyond)
}

// reconcileStream replays once more with in-process telemetry on and
// checks its counters against the replay's own accounting: every offered
// packet that decoded either updated a histogram or was dropped.
func reconcileStream(b *bench, c *capture) {
	rec := telemetry.NewRecorder()
	telemetry.Enable(rec)
	p := ingest.New(streamConfig())
	st, err := ingest.Replay(bytes.NewReader(c.data), p)
	telemetry.Disable()
	if err != nil {
		b.problem("stream: reconciliation replay: %v", err)
		return
	}
	offered := st.Packets - st.Malformed
	if got := rec.IngestHistUpdates.Load() + rec.IngestDropped.Load(); got != offered {
		b.problem("stream: telemetry hist_updates %d + dropped %d = %d, but %d packets were offered",
			rec.IngestHistUpdates.Load(), rec.IngestDropped.Load(), got, offered)
	}
	if rec.IngestDropped.Load() != st.Dropped {
		b.problem("stream: telemetry dropped %d, replay dropped %d", rec.IngestDropped.Load(), st.Dropped)
	}
}

// trace is the traced stream pass.
func (p *streamPath) trace(b *bench) {
	c, primary := p.c, p.own
	var untraced time.Duration
	var perReplay []samples
	if primary {
		o, err := replay(c, newTracer(false), -1)
		if err != nil {
			b.op(fmt.Errorf("stream: replay: %v", err))
			return
		}
		checkReplay(b, c, o)
		untraced = o.wall
		perReplay = append(perReplay, o.lat)
	}
	rec := telemetry.NewRecorder()
	telemetry.Enable(rec)
	root := b.tr.begin("stream.replay", -1, 0)
	t0 := time.Now()
	o, err := replay(c, b.tr, root)
	b.tr.end(root)
	rep := rec.Report(t0, time.Now(), parallel.Workers())
	telemetry.Disable()
	if err != nil {
		b.op(fmt.Errorf("stream: replay: %v", err))
		return
	}
	checkReplay(b, c, o)
	tickTail(b, append(perReplay, o.lat), true)
	b.set("ingest.hist_updates", "count", float64(rep.Ingest.HistUpdates))
	b.set("ingest.dropped", "count", float64(rep.Ingest.Dropped))
	b.set("ingest.rotations", "count", float64(rep.Ingest.Rotations))
	b.set("watch.ticks_shed", "count", float64(rep.Watch.TicksShed))
	b.set("watch.encode_us", "us", o.encode.quantile(0.5)*1000)
	b.note("watch.encode_us: DeltaTick+Encode p50 over %d ticks", o.encode.n())
	if primary {
		b.set("trace.overhead_pct", "%", 100*(o.wall.Seconds()-untraced.Seconds())/untraced.Seconds())
		b.note("trace.overhead_pct: traced %.3fs vs untraced %.3fs replay", o.wall.Seconds(), untraced.Seconds())
		coreCounts(b, rep)
		b.set("parallel.utilization", "ratio", rep.Parallel.Utilization)
		b.note("parallel.utilization: base %d fan-outs, %.1f ms fan-out wall", rep.Parallel.FanOuts, rep.Parallel.WallMS)
	}

	// pcap and wire alone: decode every packet of the capture.
	var decoded int
	d := b.tr.timed("pcap.decode", root, 0, func() {
		pr, err := pcap.NewReader(bytes.NewReader(c.data))
		if err != nil {
			b.problem("stream: decode pass: %v", err)
			return
		}
		for {
			pkt, err := pr.Next()
			if err != nil {
				break
			}
			if _, err := wire.Unmarshal(pkt.Data); err == nil {
				decoded++
			}
		}
	})
	if decoded != len(c.packets)-c.malformed {
		b.problem("stream: decode pass decoded %d packets, want %d", decoded, len(c.packets)-c.malformed)
	}
	b.set("pcap.decode_ns", "ns", float64(d.Nanoseconds())/float64(len(c.packets)))

	offerPass(b, c, root)
	tables := reestimate(b, c, o.last)
	if primary && len(tables) > 0 {
		coreBreakdown(b, tables)
	}
	reconcileStream(b, c)
}

// offerPass drives the pipeline with pre-decoded events, timing the
// non-ticking Offers in bulk and each ticking Offer from its start to the
// synchronous OnTick callback.
func offerPass(b *bench, c *capture, parent int) {
	rec := telemetry.NewRecorder()
	telemetry.Enable(rec)
	defer telemetry.Disable()
	var tickStart time.Time
	var tickLat samples
	var dirty []float64
	cfg := streamConfig()
	cfg.OnTick = func(*ingest.Tick) {
		tickLat.add(time.Since(tickStart))
		dirty = append(dirty, float64(rec.IngestWindowsParallel.Load()))
	}
	p := ingest.New(cfg)
	src := make([]int, len(c.monitors))
	for _, m := range c.order {
		i, err := p.Source(c.monitors[m].String())
		if err != nil {
			b.problem("stream: offer pass: %v", err)
			return
		}
		src[m] = i
	}
	var bulk time.Duration
	var bulkN int
	id := b.tr.begin("ingest.offer", parent, 0)
	segStart := time.Now()
	for i := range c.packets {
		pk := &c.packets[i]
		if pk.malformed {
			continue
		}
		if !pk.trigger {
			p.Offer(src[pk.monitor], pk.host, pk.at)
			bulkN++
			continue
		}
		bulk += time.Since(segStart)
		tickStart = time.Now()
		p.Offer(src[pk.monitor], pk.host, pk.at)
		segStart = time.Now()
	}
	bulk += time.Since(segStart)
	b.tr.end(id)
	if len(tickLat.xs) != len(c.triggers) {
		b.problem("stream: offer pass fired %d ticks, want %d", len(tickLat.xs), len(c.triggers))
	}
	b.set("ingest.offer_ns", "ns", float64(bulk.Nanoseconds())/float64(bulkN))
	b.set("ingest.tick_p50_ms", "ms", tickLat.quantile(0.5))
	_, tail, _ := tickLat.tail()
	b.set("ingest.tick_tail_ms", "ms", tail)
	b.note("ingest.tick (trigger Offer start to OnTick): %s", tickLat.describe("ms"))
	var sum float64
	for _, d := range dirty {
		sum += d
	}
	b.set("ingest.dirty_windows", "count", sum/float64(len(dirty)))
	b.note("ingest.dirty_windows: mean per tick over %d ticks", len(dirty))
}
