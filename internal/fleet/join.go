package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// Joiner is the worker-side membership client: it registers the worker at
// a router (POST /v1/fleet/join), keeps the lease alive with heartbeats,
// republishes the fleet's member list to the worker's peer filler after
// every beat, and deregisters (POST /v1/fleet/leave) when the worker
// drains. With it, scaling the fleet is one flag on the worker
// (-join <router-url>) instead of a config rollout touching every node.
type Joiner struct {
	router string
	self   string
	ttl    time.Duration
	client *http.Client
	log    io.Writer

	// OnPeers, when set, receives the fleet's member URLs (self excluded)
	// after every successful heartbeat — typically PeerFiller.SetPeers,
	// possibly merged with a static -peers list by the caller.
	OnPeers func(peers []string)
}

// NewJoiner builds a joiner for the worker advertised as self (a base URL
// reachable from the router) against router. ttl is the requested lease
// (0 lets the router pick; the granted lease governs the heartbeat
// cadence either way). log may be nil.
func NewJoiner(router, self string, ttl time.Duration, log io.Writer) (*Joiner, error) {
	r, err := NormalizeMemberURL(router)
	if err != nil {
		return nil, fmt.Errorf("fleet: join target: %v", err)
	}
	s, err := NormalizeMemberURL(self)
	if err != nil {
		return nil, fmt.Errorf("fleet: advertised URL: %v", err)
	}
	return &Joiner{
		router: r,
		self:   s,
		ttl:    ttl,
		client: &http.Client{Timeout: 5 * time.Second},
		log:    log,
	}, nil
}

// Self returns the advertised base URL (normalised).
func (j *Joiner) Self() string { return j.self }

// postJSON posts v to the router path and decodes the response into out.
func (j *Joiner) postJSON(ctx context.Context, path string, v, out any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	resp, b, err := fetch(ctx, j.client, http.MethodPost, j.router+path, body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s: %s", path, resp.Status, bytes.TrimSpace(b))
	}
	if out != nil {
		return json.Unmarshal(b, out)
	}
	return nil
}

// JoinOnce registers (or renews) the worker and returns the granted lease.
func (j *Joiner) JoinOnce(ctx context.Context) (time.Duration, error) {
	var lease leaseEnvelope
	err := j.postJSON(ctx, "/v1/fleet/join", joinRequest{URL: j.self, TTLSeconds: j.ttl.Seconds()}, &lease)
	if err != nil {
		return 0, err
	}
	granted := time.Duration(lease.TTLSeconds * float64(time.Second))
	if granted <= 0 {
		return 0, fmt.Errorf("/v1/fleet/join: granted lease %v", granted)
	}
	return granted, nil
}

// Leave deregisters the worker. Idempotent; safe to call whether or not a
// join ever succeeded (the router answers registered=false for strangers).
func (j *Joiner) Leave(ctx context.Context) error {
	return j.postJSON(ctx, "/v1/fleet/leave", joinRequest{URL: j.self}, nil)
}

// Peers fetches the router's current member list and returns every member
// URL except the worker's own.
func (j *Joiner) Peers(ctx context.Context) ([]string, error) {
	resp, b, err := fetch(ctx, j.client, http.MethodGet, j.router+"/v1/fleet", nil)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/v1/fleet: %s", resp.Status)
	}
	var env fleetEnvelope
	if err := json.Unmarshal(b, &env); err != nil {
		return nil, err
	}
	var peers []string
	for _, m := range env.Members {
		if m.URL != j.self {
			peers = append(peers, m.URL)
		}
	}
	return peers, nil
}

// Run joins and then heartbeats until ctx ends. Each successful beat
// renews the lease and republishes the peer list through OnPeers; a
// failed beat retries quickly (a restarted router re-learns the worker on
// the next successful join, because join and renew are the same call).
// Run returns when ctx is done — it does NOT deregister; the caller owns
// drain-time Leave so it can order it against readiness and shutdown
// (server.Config.PreDrain in ghostsd).
func (j *Joiner) Run(ctx context.Context) {
	const retryEvery = time.Second
	lease := time.Duration(0)
	for {
		granted, err := j.JoinOnce(ctx)
		switch {
		case err == nil:
			if lease == 0 && j.log != nil {
				fmt.Fprintf(j.log, "ghostsd: joined fleet at %s (lease %v)\n", j.router, granted)
			}
			lease = granted
			if j.OnPeers != nil {
				if peers, perr := j.Peers(ctx); perr == nil {
					j.OnPeers(peers)
				}
			}
		case ctx.Err() != nil:
			return
		default:
			if j.log != nil {
				fmt.Fprintf(j.log, "ghostsd: fleet join/heartbeat failed: %v\n", err)
			}
			lease = 0 // log the re-join when the router comes back
		}
		wait := retryEvery
		if err == nil {
			wait = lease / 3
			if wait <= 0 {
				wait = retryEvery
			}
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(wait):
		}
	}
}
