package fleet

import (
	"context"
	"net/http"
	"time"
)

// PeerFiller is the worker-side half of the fleet's single-compute
// guarantee. Plugged into serve.FrontConfig.PeerFill, it runs under the
// single-flight leader on a local cache miss — before the admission gate,
// so a peer fetch never occupies a compute slot — and asks the key's
// likely owners for their stored response bytes via GET /v1/cache/{key}.
// A hit is returned verbatim (and the Front caches it), so the response a
// client sees is byte-identical whether it came from a local compute, the
// local cache, or a peer. Misses everywhere fall through to a local fit.
type PeerFiller struct {
	ring   *Ring
	client *http.Client
	fanout int
}

// NewPeerFiller builds a filler that consults up to fanout peers (default
// 2) in ring order per key, with timeout per peer request (default
// 250ms — peer fills race against a compute that takes seconds, so a slow
// peer is cheaper to abandon than to wait on). peers are the OTHER
// workers' base URLs; they are all marked live in the filler's private
// ring, because a peer that is draining still serves its cache (that is
// precisely the failover window peer fill exists for).
func NewPeerFiller(peers []string, fanout int, timeout time.Duration) *PeerFiller {
	if fanout <= 0 {
		fanout = 2
	}
	if timeout <= 0 {
		timeout = 250 * time.Millisecond
	}
	ring := NewRing(0)
	for _, p := range peers {
		ring.SetLive(p, true)
	}
	return &PeerFiller{
		ring:   ring,
		client: &http.Client{Timeout: timeout},
		fanout: fanout,
	}
}

// Fill implements serve.FrontConfig.PeerFill: it returns the stored
// encoded response for key from the first peer that has it, or ok=false
// after every candidate misses or fails. Errors are deliberately
// swallowed — peer fill is an optimisation, and the caller's fallback
// (compute locally) is always correct.
func (pf *PeerFiller) Fill(ctx context.Context, key string) ([]byte, bool) {
	for _, peer := range pf.ring.Sequence(key, pf.fanout) {
		resp, b, err := fetch(ctx, pf.client, http.MethodGet, peer+"/v1/cache/"+key, nil)
		if err != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		return b, true
	}
	return nil, false
}

// SetPeers reconciles the filler's candidate set against peers (the
// worker's current view of the fleet, minus itself): new peers join the
// filler's private ring, absent ones go not-live. Members keep their
// virtual nodes across churn, so a peer that drops out and returns owns
// exactly the same key ranges — the consistent-hashing property the
// owner-first fill order relies on. Safe for concurrent use with Fill
// (the Joiner's heartbeat loop calls it while requests are in flight).
func (pf *PeerFiller) SetPeers(peers []string) {
	want := make(map[string]bool, len(peers))
	for _, p := range peers {
		want[p] = true
	}
	for m := range pf.ring.Members() {
		if !want[m] {
			pf.ring.SetLive(m, false)
		}
	}
	for p := range want {
		pf.ring.SetLive(p, true)
	}
}
