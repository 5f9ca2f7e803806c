package fleet

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"ghosts/internal/telemetry"
)

// Prober drives health-gated ring membership off the workers' existing
// /readyz probes: a worker answering 200 is live, anything else — a
// draining 503, a connection refusal, a timeout — takes it out of the
// ring so its keys rehash to the survivors. The member list is consulted
// fresh each pass (the Registry's sweep enforces lease expiry as a side
// effect), so dynamically joined workers are probed from the pass after
// they register and expired ones silently drop out. Probes run on a fixed
// cadence and membership transitions are logged and gauged
// (fleet.members).
type Prober struct {
	ring     *Ring
	members  func() []string
	client   *http.Client
	interval time.Duration
	log      io.Writer
}

// NewProber builds a prober whose member list comes from members (called
// once per pass; typically Registry.Members). interval is the probe
// cadence (default 1s), timeout the per-probe budget (default half the
// interval).
func NewProber(ring *Ring, members func() []string, interval, timeout time.Duration, log io.Writer) *Prober {
	if interval <= 0 {
		interval = time.Second
	}
	if timeout <= 0 {
		timeout = interval / 2
	}
	return &Prober{
		ring:     ring,
		members:  members,
		client:   &http.Client{Timeout: timeout},
		interval: interval,
		log:      log,
	}
}

// ProbeOnce probes every current member once, synchronously, and updates
// ring membership. Exported so Run can gate serving on an initial pass and
// so tests can force a membership refresh deterministically.
func (p *Prober) ProbeOnce(ctx context.Context) {
	before := p.ring.Members()
	for _, m := range p.members() {
		live := p.probe(ctx, m)
		if was, seen := before[m]; seen && was != live && p.log != nil {
			state := "joined"
			if !live {
				state = "left"
			}
			fmt.Fprintf(p.log, "fleet: worker %s %s the ring\n", m, state)
		}
		p.ring.SetLive(m, live)
	}
	telemetry.Active().FleetMembersNow(p.ring.Live())
}

// ProbeMember probes a single member synchronously and records the result
// in the ring. The join handler uses it so a ready worker is routable the
// moment its registration returns, not one probe cadence later.
func (p *Prober) ProbeMember(ctx context.Context, member string) bool {
	live := p.probe(ctx, member)
	p.ring.SetLive(member, live)
	telemetry.Active().FleetMembersNow(p.ring.Live())
	return live
}

// probe returns whether member currently passes /readyz.
func (p *Prober) probe(ctx context.Context, member string) bool {
	resp, _, err := fetch(ctx, p.client, http.MethodGet, member+"/readyz", nil)
	return err == nil && resp.StatusCode == http.StatusOK
}

// Start launches the periodic probe loop and returns immediately; the
// loop stops when ctx ends.
func (p *Prober) Start(ctx context.Context) {
	go func() {
		tick := time.NewTicker(p.interval)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				p.ProbeOnce(ctx)
			}
		}
	}()
}
