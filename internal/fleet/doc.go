// Package fleet makes ghostsd horizontal: a stateless router
// consistent-hashes canonical estimate-request keys (serve.EstimateRequest
// .Key, the SHA-256 the cache and single-flight already use) across N
// worker processes, so each key has one owning worker and the fleet-wide
// compute cost of a request burst is one model fit.
//
// The pieces, bottom up:
//
//   - Ring: a consistent-hash ring with virtual nodes over worker base
//     URLs. Lookup walks the ring from the key's point and returns live
//     members in failover order; when a member leaves only its keys
//     rehash.
//   - Balancer: bounded-load placement on top of the Ring (after
//     "Consistent Hashing with Bounded Loads", Mirrokni et al. 2016): a
//     member carrying more than ⌈c·total/live⌉ in-flight forwards is
//     passed over for the next ring candidate until it cools down.
//   - Registry: dynamic membership. The member set is static seeds ∪
//     unexpired heartbeat leases (POST /v1/fleet/join registers or
//     renews, POST /v1/fleet/leave deregisters); lapsed leases are swept
//     lazily on every membership read, so the prober's cadence doubles as
//     the expiry cadence.
//   - Prober: health-gated liveness. It polls each current member's
//     /readyz; a draining or dead worker leaves the ring (its keys rehash
//     to the survivors) and rejoins when the probe passes again.
//   - Joiner: the worker-side client for the registry. Started by
//     ghostsd -join, it registers on startup, heartbeats at a third of
//     the granted lease, learns the peer list from GET /v1/fleet, and
//     deregisters during graceful drain.
//   - Router: the HTTP front. POST /v1/estimate is validated once,
//     canonicalised to its key, and forwarded to the owner; retryable
//     failures (connection errors, 503 shed, 504 compute timeout) move to
//     the next ring candidate with exponential backoff, and an optional
//     hedge launches the next candidate when the current attempt is slow.
//     Worker response bytes are relayed verbatim, which is what extends
//     the byte-identity guarantee across routed and failover paths. Its
//     HTTP edge — middleware, error envelope, strict decoding, /healthz
//     and the drain loop — is the worker's own, from internal/server.
//   - PeerFiller: the worker-side half of "only one node ever computes a
//     given estimate". On a local cache miss a worker asks the key's
//     likely owners for their stored bytes (GET /v1/cache/{key}) before
//     fitting; a hit is cached and served with X-Ghosts-Cache: peer.
//
// FLEET.md documents the ring semantics, the peer-fill protocol, the
// failure/hedging behaviour and a worked router-plus-two-workers example;
// cmd/ghosts-loadgen drives a fleet and reports throughput and latency
// percentiles.
package fleet
