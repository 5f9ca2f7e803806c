package ingest

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ghosts/internal/core"
	"ghosts/internal/ipset"
	"ghosts/internal/ipv4"
	"ghosts/internal/parallel"
	"ghosts/internal/telemetry"
)

// MaxSources is the capture-history limit inherited from the estimator: a
// contingency table supports at most 16 sources. The per-window capture
// masks are uint16, so the limit is enforced structurally at config time
// (New panics on more pre-registered sources; Source errors past it).
const MaxSources = 16

// Config assembles a Pipeline. Zero values select the defaults noted on
// each field.
type Config struct {
	// Window is the width of one observation window; default 1 minute.
	// Ignored for windowing when RotateEvery is set (it still anchors the
	// default cadence).
	Window time.Duration
	// Windows is the number of live windows kept (the ring size N);
	// default 4. Events older than the oldest live window are dropped.
	Windows int
	// Every is the re-estimation cadence: a tick fires each time the
	// event clock crosses a multiple of it. Default Window/2, so every
	// window is re-estimated at least twice while it is still filling
	// (which is what makes warm starts pay).
	Every time.Duration
	// RotateEvery, when positive, selects count-based rotation: window k
	// holds exactly the k·N-th .. (k+1)·N−1-th accepted events (N =
	// RotateEvery) regardless of their timestamps, so every window
	// carries equal statistical weight under bursty feeds. Windows are
	// then labelled by event ordinal ("#3000") instead of wall time, no
	// event can be late (ordinals are assigned at acceptance and only
	// grow), and rotation is driven purely by intake; ticks stay
	// cadence-driven on the logical event clock.
	RotateEvery int
	// Limit right-truncates each window's estimate (the routed-space
	// bound); 0 means unbounded.
	Limit float64
	// Sources pre-registers source names in table order. Feeds may also
	// register lazily through Pipeline.Source.
	Sources []string
	// OnTick, when non-nil, is invoked synchronously with every tick, in
	// tick order, before channel subscribers see it. Replay uses it to
	// emit a deterministic estimate series.
	OnTick func(*Tick)
}

// WindowEstimate is one live window's state at a tick.
type WindowEstimate struct {
	// Start and End delimit the window: RFC 3339 UTC instants for
	// wall-clock windows (half-open [Start, End)), or "#<ordinal>" event
	// ordinals under count-based rotation (Config.RotateEvery).
	Start    string  `json:"start"`
	End      string  `json:"end"`
	Sources  int     `json:"sources"`
	Observed int64   `json:"observed"`
	Estimate float64 `json:"estimate"`
	Unseen   float64 `json:"unseen"`
	// Estimated is false when the window had fewer than two non-empty
	// sources (the estimator cannot see past the union) or the fit
	// failed; Estimate then equals Observed.
	Estimated bool `json:"estimated"`
	// Warm reports whether the fit was seeded from this window's previous
	// tick's accepted coefficients (same selected model across ticks).
	Warm  bool     `json:"warm"`
	Model []string `json:"model,omitempty"`
}

// Equal reports whether two window estimates carry identical figures —
// field-for-field, including the selected model terms. Delta watch frames
// use it to decide which windows a subscriber needs to see again.
func (we *WindowEstimate) Equal(o *WindowEstimate) bool {
	if we.Start != o.Start || we.End != o.End ||
		we.Sources != o.Sources || we.Observed != o.Observed ||
		we.Estimate != o.Estimate || we.Unseen != o.Unseen ||
		we.Estimated != o.Estimated || we.Warm != o.Warm ||
		len(we.Model) != len(o.Model) {
		return false
	}
	for i := range we.Model {
		if we.Model[i] != o.Model[i] {
			return false
		}
	}
	return true
}

// windowState is one slot of the window ring; hist is allocated on the
// window's first event.
type windowState struct {
	index int64           // absolute window number; -1 = unused
	hist  *ipset.MaskHist // incrementally maintained capture histogram
	warm  *core.FitResult // previous tick's accepted fit for this window
	last  *WindowEstimate // previous tick's published estimate
	dirty bool            // events arrived since last estimated
}

// tickScratch is one worker's reusable fit-input buffers for the tick
// fan-out: compacted histogram cells and the matching kept-source names.
// The estimator neither mutates nor retains table inputs, so one scratch
// serves every window a worker claims with no per-window allocation.
type tickScratch struct {
	counts []int64
	names  []string
	keep   []int
}

// Pipeline maintains per-source capture histograms over N sliding
// windows and re-estimates the used population N̂ per window on a fixed
// cadence, warm-starting each window's IRLS fit from its previous tick.
// Each accepted event updates its window's capture histogram in place —
// hist[old]−−, hist[old|bit]++ — so tick cost is proportional to the
// windows that changed, never to the addresses they hold.
//
// All of its behaviour is driven by the logical event clock — the largest
// event (or Advance) timestamp seen so far — never by the system clock, so
// replaying a capture file yields a bit-identical tick series every run.
// Live feeds simply call Advance with the wall clock between events.
type Pipeline struct {
	cfg Config
	est *core.Estimator

	mu       sync.Mutex
	names    []string
	byName   map[string]int
	ring     []windowState
	newest   int64     // newest absolute window index; -1 before first event
	clock    time.Time // high-water event time
	started  bool      // an event or Advance has set the clock
	nextTick int64     // absolute tick number to fire next
	accepted int64     // accepted events (count-mode window ordinals)
	seq      int64
	last     *Tick
	subs     map[int]chan *Tick
	nextSub  int
	dropped  int64 // events dropped (late or source overflow)
}

// New builds a Pipeline from cfg.
func New(cfg Config) *Pipeline {
	if cfg.Window <= 0 {
		cfg.Window = time.Minute
	}
	if cfg.Windows <= 0 {
		cfg.Windows = 4
	}
	if cfg.Every <= 0 {
		cfg.Every = cfg.Window / 2
	}
	if cfg.RotateEvery < 0 {
		cfg.RotateEvery = 0
	}
	p := &Pipeline{
		cfg:    cfg,
		est:    core.DefaultEstimator(cfg.Limit), // ≤0 means unbounded
		byName: make(map[string]int),
		ring:   make([]windowState, cfg.Windows),
		newest: -1,
		subs:   make(map[int]chan *Tick),
	}
	for i := range p.ring {
		p.ring[i].index = -1
	}
	for _, name := range cfg.Sources {
		if _, err := p.sourceLocked(name); err != nil {
			panic("ingest: " + err.Error())
		}
	}
	return p
}

// Source returns the table index for the named source, registering it on
// first use (registration order is table order, so a fixed event sequence
// always yields the same table layout). It fails once MaxSources are
// registered.
func (p *Pipeline) Source(name string) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sourceLocked(name)
}

func (p *Pipeline) sourceLocked(name string) (int, error) {
	if i, ok := p.byName[name]; ok {
		return i, nil
	}
	if len(p.names) >= MaxSources {
		return -1, fmt.Errorf("ingest: source %q exceeds the %d-source capture-history limit", name, MaxSources)
	}
	i := len(p.names)
	p.names = append(p.names, name)
	p.byName[name] = i
	return i, nil
}

// Sources returns the registered source names in table order.
func (p *Pipeline) Sources() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.names...)
}

// Offer ingests one capture event: source (a Source index) observed addr
// at time t. The event lands in the window containing t — windows are
// half-open [start, start+Window), so an event exactly on a boundary
// belongs to the newer window only — or, under count-based rotation, in
// the newest window by acceptance ordinal. Events older than the oldest
// live window are dropped (counted in telemetry as ingest.dropped). Offer
// advances the event clock, so it may fire due ticks and rotations first.
func (p *Pipeline) Offer(source int, addr ipv4.Addr, t time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if source < 0 || source >= len(p.names) {
		p.dropped++
		telemetry.Active().IngestEventDropped()
		return
	}
	p.advanceLocked(t)
	var idx int64
	if n := int64(p.cfg.RotateEvery); n > 0 {
		// Count mode: ordinals are assigned at acceptance and only grow,
		// so the event always belongs to the newest window and can never
		// be late.
		idx = p.accepted / n
		p.openLocked(idx)
	} else {
		idx = t.UnixNano() / int64(p.cfg.Window)
		if idx <= p.newest-int64(len(p.ring)) {
			// The event's window was already retired.
			p.dropped++
			telemetry.Active().IngestEventDropped()
			return
		}
	}
	w := &p.ring[int(idx%int64(len(p.ring)))]
	if w.index != idx {
		// advanceLocked opened the window containing t, so idx == newest
		// always finds its slot; an older live window's slot can still be
		// unopened (index -1, or a stale index after a clock jump larger
		// than the ring) when that window's first event arrives late but
		// within the ring. Each live-range index maps to exactly one slot,
		// and openLocked is a no-op for idx <= newest, so (re)initialize
		// the slot in place.
		*w = windowState{index: idx}
	}
	// A repeated (source, address) pair — routine in NetFlow — leaves the
	// histogram, and so the window's table, unchanged: it must not force a
	// refit, which could move the estimate's low bits and its warm flag.
	if p.insertLocked(w, source, addr) {
		w.dirty = true
	}
	p.accepted++
	telemetry.Active().IngestEvent()
}

// insertLocked lands one accepted event in window w's capture histogram:
// the O(1) incremental update. It reports whether the histogram changed
// (false for an observation the window already holds); hist_updates counts
// every accepted event either way. The histogram allocates lazily on a
// window's first event and widens in place when a source registered after
// the window opened first appears.
func (p *Pipeline) insertLocked(w *windowState, source int, addr ipv4.Addr) bool {
	if w.hist == nil {
		w.hist = ipset.NewMaskHist(len(p.names))
	} else if w.hist.T() < len(p.names) {
		w.hist.Grow(len(p.names))
	}
	telemetry.Active().IngestHistUpdate()
	return w.hist.Add(source, addr)
}

// Advance moves the event clock to t (monotonically: an earlier t is a
// no-op), firing any window rotations and re-estimation ticks that became
// due. Live deployments call it from a wall-clock ticker so estimates keep
// flowing through quiet periods; replay never needs to call it directly.
func (p *Pipeline) Advance(t time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.advanceLocked(t)
}

// advanceLocked moves the clock forward, opening windows the clock has
// entered and firing every tick boundary at or before the new clock. A
// tick at boundary time T summarises exactly the events with time < T:
// Offer advances the clock before inserting, so an event stamped exactly T
// is ingested after the tick fires — consistent with half-open windows.
// Under count-based rotation the clock drives only the tick cadence;
// windows open and retire on acceptance ordinals in Offer.
func (p *Pipeline) advanceLocked(t time.Time) {
	if p.started && !t.After(p.clock) {
		return
	}
	counting := p.cfg.RotateEvery > 0
	if !p.started {
		p.started = true
		p.clock = t
		// The first tick boundary strictly after the first event; ticks
		// are aligned to multiples of Every since the epoch, like windows.
		p.nextTick = t.UnixNano()/int64(p.cfg.Every) + 1
		if !counting {
			p.openLocked(t.UnixNano() / int64(p.cfg.Window))
		}
		return
	}
	// Fire every tick boundary in (clock, t], oldest first, rotating the
	// ring to each boundary before estimating so a tick never reads a
	// window the clock has already left behind the ring.
	for {
		boundary := p.nextTick * int64(p.cfg.Every)
		if boundary > t.UnixNano() {
			break
		}
		at := time.Unix(0, boundary).UTC()
		p.clock = at
		if !counting {
			p.openLocked((boundary - 1) / int64(p.cfg.Window))
		}
		p.tickLocked(at)
		p.nextTick++
		if counting {
			// Count-mode windows rotate on intake, not the clock, so the
			// boundaries a jump crosses would all republish the same
			// already-flushed windows. Skip to the final boundary, which
			// bounds the ticks per Advance at a constant.
			if horizon := t.UnixNano()/int64(p.cfg.Every) - 1; horizon > p.nextTick {
				p.nextTick = horizon
			}
			continue
		}
		// A clock jump longer than the whole ring (a quiet feed, or a
		// far-future event stamp) must not fire one tick per boundary
		// crossed: every boundary more than one ring span behind t would
		// summarise only windows that are empty and retired before the
		// clock reaches t, and the tick just fired already flushed
		// everything that was live. Skip straight to the last ring span,
		// which bounds the ticks per Advance at Windows*Window/Every + 1.
		span := int64(len(p.ring)) * int64(p.cfg.Window)
		if horizon := (t.UnixNano() - span) / int64(p.cfg.Every); horizon > p.nextTick {
			p.nextTick = horizon
		}
	}
	p.clock = t
	if !counting {
		p.openLocked(t.UnixNano() / int64(p.cfg.Window))
	}
}

// openLocked rotates the ring forward until window idx is live. Each
// rotation clears exactly one slot — the retired window's histogram is
// dropped wholesale, never rescanned — so the surviving windows'
// histograms are untouched and a fresh window always starts empty, even
// after a quiet period that rotates several windows at once.
func (p *Pipeline) openLocked(idx int64) {
	if idx <= p.newest {
		return
	}
	// A rotation is a previously live window falling out of the live
	// range: a window the ring actually held (slot opened, index in the
	// outgoing live range) whose index is older than the incoming range.
	// Counting by slot keeps ring-filling at zero (unopened slots hold
	// index -1) and never double-counts a stale slot left behind by an
	// earlier jump larger than the ring.
	rotated := 0
	if p.newest >= 0 {
		oldOldest := p.newest - int64(len(p.ring)) + 1
		newOldest := idx - int64(len(p.ring)) + 1
		for i := range p.ring {
			if ix := p.ring[i].index; ix >= 0 && ix >= oldOldest && ix < newOldest {
				rotated++
			}
		}
	}
	start := idx
	if p.newest >= 0 && idx-p.newest < int64(len(p.ring)) {
		start = p.newest + 1
	}
	if idx-start >= int64(len(p.ring)) {
		start = idx - int64(len(p.ring)) + 1
	}
	for i := start; i <= idx; i++ {
		w := &p.ring[int(i%int64(len(p.ring)))]
		*w = windowState{index: i}
	}
	p.newest = idx
	telemetry.Active().IngestRotated(rotated)
}

// Flush fires one final tick at the current event clock, regardless of
// cadence alignment, and returns it (nil when no event was ever ingested).
// Replay calls it at EOF so a capture shorter than one cadence interval
// still produces an estimate series.
func (p *Pipeline) Flush() *Tick {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.started {
		return nil
	}
	return p.tickLocked(p.clock)
}

// Dropped returns the number of events discarded so far.
func (p *Pipeline) Dropped() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dropped
}

// Last returns the most recent tick (nil before the first).
func (p *Pipeline) Last() *Tick {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.last
}

// Subscribe registers a tick listener. The returned channel carries every
// future tick (buffered; a slow consumer loses ticks rather than stalling
// ingest, like any monitoring feed) and closes when cancel is called.
func (p *Pipeline) Subscribe() (<-chan *Tick, func()) {
	p.mu.Lock()
	defer p.mu.Unlock()
	id := p.nextSub
	p.nextSub++
	ch := make(chan *Tick, 16)
	p.subs[id] = ch
	telemetry.Active().WatchSubscribed()
	cancel := func() {
		p.mu.Lock()
		defer p.mu.Unlock()
		if c, ok := p.subs[id]; ok {
			delete(p.subs, id)
			close(c)
		}
	}
	return ch, cancel
}

// tickLocked re-estimates every live window and publishes the tick.
// Windows are emitted oldest first; a window untouched since its last
// estimate republishes the cached figures instead of refitting, and a
// dirty window's fit seeds from its own previous tick's coefficients when
// the selected model is unchanged (core.EstimateSweepPoint). When several
// windows are dirty they re-estimate concurrently: each window's fit is
// independent (own histogram, own warm state) and results land in
// index-addressed slots, so the emitted window order and every warm-start
// handoff are bit-identical to a serial pass.
func (p *Pipeline) tickLocked(at time.Time) *Tick {
	t0 := time.Now()
	p.seq++
	tick := &Tick{
		API:  WatchAPIVersion,
		Kind: "tick",
		Seq:  p.seq,
		At:   at.UTC().Format(time.RFC3339Nano),
	}
	oldest := p.newest - int64(len(p.ring)) + 1
	if oldest < 0 {
		oldest = 0
	}
	var dirty []*windowState
	var slots []int
	for i := oldest; i <= p.newest; i++ {
		w := &p.ring[int(i%int64(len(p.ring)))]
		if w.index != i {
			continue // never opened (no events, and the clock skipped it)
		}
		tick.Windows = append(tick.Windows, WindowEstimate{})
		if !w.dirty && w.last != nil {
			tick.Windows[len(tick.Windows)-1] = *w.last
			continue
		}
		dirty = append(dirty, w)
		slots = append(slots, len(tick.Windows)-1)
	}
	telemetry.Active().IngestTickParallel(len(dirty))
	if len(dirty) > 1 {
		results := make([]WindowEstimate, len(dirty))
		scratch := make([]*tickScratch, parallel.Workers())
		parallel.ForEachWorkerCtx(context.Background(), len(dirty), func(worker, k int) {
			var sc *tickScratch
			if worker >= 0 && worker < len(scratch) {
				if scratch[worker] == nil {
					scratch[worker] = new(tickScratch)
				}
				sc = scratch[worker]
			}
			results[k] = p.estimateWindow(dirty[k], sc)
		})
		for k, w := range dirty {
			we := results[k]
			w.last = &we
			w.dirty = false
			tick.Windows[slots[k]] = we
		}
	} else {
		for k, w := range dirty {
			we := p.estimateWindow(w, nil)
			w.last = &we
			w.dirty = false
			tick.Windows[slots[k]] = we
		}
	}
	p.last = tick
	telemetry.Active().TickDone(time.Since(t0))
	if p.cfg.OnTick != nil {
		p.cfg.OnTick(tick)
	}
	for _, ch := range p.subs {
		select {
		case ch <- tick:
		default:
			telemetry.Active().WatchTickShed()
		}
	}
	return tick
}

// windowBounds renders window idx's Start/End labels: wall-clock instants
// normally, acceptance ordinals under count-based rotation.
func (p *Pipeline) windowBounds(idx int64) (string, string) {
	if n := int64(p.cfg.RotateEvery); n > 0 {
		return fmt.Sprintf("#%d", idx*n), fmt.Sprintf("#%d", (idx+1)*n)
	}
	start := time.Unix(0, idx*int64(p.cfg.Window)).UTC()
	return start.Format(time.RFC3339Nano), start.Add(p.cfg.Window).Format(time.RFC3339Nano)
}

// estimateWindow fits one window using sc's buffers (sc may be nil for a
// one-off). It only writes per-window state (w.warm), so distinct windows
// may be estimated concurrently.
func (p *Pipeline) estimateWindow(w *windowState, sc *tickScratch) WindowEstimate {
	if sc == nil {
		sc = new(tickScratch)
	}
	var we WindowEstimate
	we.Start, we.End = p.windowBounds(w.index)
	h := w.hist
	if h == nil || h.Len() == 0 {
		return we
	}
	tb := p.windowTable(h, sc)
	we.Sources = tb.T
	we.Observed = h.Len()
	we.Estimate = float64(we.Observed)
	if tb.T < 2 {
		return we // CR cannot see past a single source's union
	}
	res, fit, err := p.est.EstimateSweepPoint(tb, w.warm)
	if err != nil {
		return we
	}
	we.Warm = w.warm != nil && w.warm.Converged &&
		w.warm.Model.Equal(res.Model) && len(w.warm.Coef) == res.Model.NumParams()
	w.warm = fit
	we.Estimated = true
	we.Estimate = res.N
	we.Unseen = res.Unseen
	for _, h := range res.Model.Terms {
		we.Model = append(we.Model, core.TermName(h))
	}
	return we
}

// windowTable hands a non-empty window histogram to the estimator through
// core.TableFromHistogram, compacted over the non-empty sources — a
// bijection on non-zero cells, because an empty source contributes no mask
// bits — so no set fold, copy or rescan happens at tick time. The table
// aliases sc's buffers (or the histogram itself when no source is empty).
func (p *Pipeline) windowTable(h *ipset.MaskHist, sc *tickScratch) *core.Table {
	t := h.T()
	keep := sc.keep[:0]
	for i := 0; i < t; i++ {
		if h.SourceLen(i) > 0 {
			keep = append(keep, i)
		}
	}
	sc.keep = keep
	names := sc.names[:0]
	for _, i := range keep {
		names = append(names, p.names[i])
	}
	sc.names = names
	counts := h.Histogram()
	if len(keep) < t {
		counts = compactHistogram(sc, counts, keep)
	}
	return core.TableFromHistogram(counts, names)
}

// compactHistogram folds hist (over the window's full source span) onto
// the kept source indices, into sc's count buffer. Dropped sources are
// empty — no stored address has their bit set — so the mask re-indexing
// is a bijection on non-zero cells and the result is cell-for-cell what
// core.Table.DropEmptySources would produce.
func compactHistogram(sc *tickScratch, hist []int64, keep []int) []int64 {
	n := 1 << uint(len(keep))
	if cap(sc.counts) < n {
		sc.counts = make([]int64, n)
	}
	counts := sc.counts[:n]
	for i := range counts {
		counts[i] = 0
	}
	for s, c := range hist {
		if c == 0 {
			continue
		}
		ns := 0
		for ni, oi := range keep {
			if s&(1<<uint(oi)) != 0 {
				ns |= 1 << uint(ni)
			}
		}
		counts[ns] += c
	}
	sc.counts = counts
	return counts
}
