// Package server is the HTTP layer of the ghostsd daemon: routing,
// request validation, the JSON error envelope, per-route telemetry and
// graceful shutdown. Those edge pieces — Instrument, WriteError and
// WriteJSON, DecodeJSON, Healthz and the Edge listen/drain loop — are
// exported because they are the one HTTP edge of both ghostsd fronts: the
// fleet router (internal/fleet) serves through them too, so clients see
// the same error bytes, telemetry and shutdown from either. It exposes the synchronous estimation API
// (POST /v1/estimate, GET /v1/experiments), the async job API
// (POST /v1/jobs, GET /v1/jobs/{id}), the streaming tick stream
// (GET /v1/watch — server-sent events off an ingest.Pipeline; 404 when no
// pipeline is configured), the fleet surface (GET /v1/cache/{key} for
// peer cache fill, GET /v1/loadz for load snapshots — FLEET.md), the
// /healthz and /readyz probes and the standard /debug/vars + /debug/pprof
// surface, all on one mux. The
// estimation semantics (caching, single-flight, admission control, the
// job store) live in internal/serve and the streaming semantics in
// internal/ingest; this package only translates HTTP to and from them.
// SERVING.md documents every endpoint and schema; STREAMING.md covers the
// tick stream.
package server
