#!/usr/bin/env bash
# CI gate: build, vet, then the full test suite under the race detector.
# The estimation engine is concurrent (see DESIGN.md "Performance"), so the
# race detector is mandatory, not optional.
set -euo pipefail
cd "$(dirname "$0")/.."
. scripts/lib.sh

echo "== go build =="
go build ./...

echo "== go vet =="
go vet ./...

echo "== docs lint =="
# Every package must carry a package comment (the doc.go convention —
# see OBSERVABILITY.md and the per-package doc.go files).
UNDOC="$(go list -f '{{if not .Doc}}{{.ImportPath}}{{end}}' ./... | grep -v '^$' || true)"
if [ -n "$UNDOC" ]; then
    echo "packages missing a package comment:" >&2
    echo "$UNDOC" >&2
    exit 1
fi
# Every cmd/, examples/, internal/ and scripts/*.sh path that the docs,
# code comments or scripts name must exist, so a deleted binary or file
# leaves no stale pointer behind. A Go qualified name (internal/fleet.Router)
# names its package directory. The root changelog, roadmap and issue
# statement are history and plans: they name removed paths on purpose.
STALE="$( { git grep -onE '(^|[^A-Za-z0-9_./-])(\./)?((cmd|examples|internal)/[A-Za-z0-9_.-]+(/[A-Za-z0-9_.-]+)*|scripts/[A-Za-z0-9_-]+\.sh)' \
        -- '*.md' '*.go' '*.sh' || true; } \
    | sed -E '/^(CHANGES|ROADMAP|ISSUE)\.md:/d; s/^([^:]*:[0-9]+:)[^A-Za-z.]?(\.\/)?/\1/; s/\.+$//; s/\.[A-Z][A-Za-z0-9_]*$//' \
    | while IFS=: read -r file line path; do
        [ -e "$path" ] || echo "$file:$line: $path does not exist"
    done)"
if [ -n "$STALE" ]; then
    echo "stale paths:" >&2
    echo "$STALE" >&2
    exit 1
fi

echo "== link audit =="
# Every function declared under internal/ must be linked by some binary
# (cmd/, examples/ or ghostbench, built with inlining off), or be named in
# scripts/linkaudit.keep with its reason. Code that only tests call lives
# in _test.go files.
bash scripts/linkaudit.sh -check

echo "== go test -race =="
go test -race ./...

echo "== bounded fuzzing =="
# The test run above replays only each fuzz target's seed corpus; here
# every target also mutates inputs for a bounded time. go test -fuzz takes
# one target per call, so the targets run one after another.
for target in \
    ./internal/netflow:FuzzUnmarshal \
    ./internal/wire:FuzzUnmarshal \
    ./internal/pcap:FuzzReader \
    ./internal/ipv4:FuzzParsePrefix \
    ./internal/ipv4:FuzzParseAddr \
    ./internal/registry:FuzzReadDelegation \
    ./internal/fleet:FuzzDecodeJoinBody; do
    go test -run '^$' -fuzz "^${target#*:}\$" -fuzztime 5s "${target%%:*}"
done

echo "== lattice/dense differential (-race) =="
# The lattice IRLS kernel must agree with the dense reference kernel (the
# oracle in the stats tests) to tolerance on every design shape (DESIGN.md
# §8): the differential property
# tests are the licence for routing all engine fits through the lattice
# path, so they run as their own named gate, race-enabled and uncached.
# The pattern also takes in TestLatticeZetaMatchesNaive (the blocked zeta
# transforms must equal the naive masked loop bit for bit),
# TestLatticeScreenPolishMatchesFit (a screened fit resumed by Polish must
# equal Fit bit for bit) and TestTruncationCrossoverMatchesPredicate (the
# kernel's per-limit crossover rate must decide exactly as the per-cell
# negligibility test).
go test -race -count=1 -run 'TestLattice|TestMoments|TestTruncationCrossover' ./internal/stats

echo "== shared stepwise prologue (-race) =="
# Every candidate fit of a stepwise round reads one shared start state
# (the parent's η, log-likelihood and first score sums) instead of
# recomputing it, and is screened: only candidates near the round's best
# are polished to full convergence (DESIGN.md §8.1). The selected model,
# IC and coefficients must match the reference search, which fits every
# candidate to full tolerance, bit for bit, with no more IRLS iterations,
# at every worker count, and a sweep's warm-started fit must select the
# cold fit's model and N: a named gate, race-enabled and uncached.
go test -race -count=1 \
    -run 'TestSelectSharedPrologue|TestScreenedSelectionMatchesFullSearch|TestSelectModelDeterministic|TestRunWarmStartContract' \
    ./internal/core

echo "== strata fold/Split differential (-race) =="
# The labelled histogram fold must agree bit-for-bit with the dense
# Split-based path — labels, observed totals and estimates (DESIGN.md
# §8.2): these differential tests are the licence for routing the
# stratified sweeps through the fold, so they run as their own named gate,
# race-enabled and uncached.
go test -race -count=1 -run 'TestStratDifferential' ./internal/experiments
go test -race -count=1 -run 'TestLabelTableDifferential|TestCaptureHistogramsDifferential' ./internal/strata
go test -race -count=1 -run 'TestCaptureHistogramsBy' ./internal/ipset

echo "== deadlock smoke =="
# Bounded-time regression net for the single-flight leader-panic deadlock:
# coalesced bursts with injected leader panics must fully complete — every
# waiter released, the key freed — inside a hard wall-clock budget. The
# -timeout turns any reintroduced deadlock into a loud failure, not a hang.
go test -race -run 'TestDeadlockSmoke' -count=1 -timeout 90s ./internal/serve

echo "== streaming ingest (-race) =="
# The ingest pipeline is shared mutable state between feed goroutines,
# the tick loop and SSE subscribers; its suite runs race-enabled and
# uncached as its own named gate (STREAMING.md documents the pipeline).
go test -race -count=1 ./internal/ingest

echo "== incremental histogram differential + churn (-race) =="
# The tick path reads per-window capture-mask histograms that Offer
# mutates in place, and dirty windows re-estimate concurrently
# (STREAMING.md "Incremental histograms"). Two licences, both named and
# uncached: the differential suite checks every tick's histogram tables
# against tables rebuilt from the test-side set oracle (serial and
# parallel), and the churn test hammers concurrent Offer + tick +
# subscriber churn — including the delta-frame derivation — under the
# race detector.
go test -race -count=1 \
    -run 'TestIncrementalMatchesRebuild|TestParallelTickMatchesSerial|TestIngestConcurrentChurn' \
    ./internal/ingest
go test -race -count=1 -run 'TestWatchDeltaMode|TestWatchSSEMatchesPipeline' ./internal/server

echo "== streaming replay smoke =="
# Replay the committed capture fixture twice through `ghosts -replay
# -json`: the runs must be byte-identical (replay determinism), match the
# committed golden tick series, and the telemetry report must show
# warm-started sweep fits — the cadence-under-window design actually
# paying off (STREAMING.md "Warm starts").
RSDIR="$(mktemp -d)"
cleanup_replay() { rm -rf "$RSDIR"; }
trap cleanup_replay EXIT
go build -o "$RSDIR/ghosts" ./cmd/ghosts
"$RSDIR/ghosts" -replay internal/ingest/testdata/stream.pcap -json \
    -metrics "$RSDIR/replay.metrics.json" > "$RSDIR/replay1.jsonl" 2> /dev/null
"$RSDIR/ghosts" -replay internal/ingest/testdata/stream.pcap -json \
    > "$RSDIR/replay2.jsonl" 2> /dev/null
cmp -s "$RSDIR/replay1.jsonl" "$RSDIR/replay2.jsonl" \
    || { echo "replay is not deterministic across runs" >&2; exit 1; }
cmp -s "$RSDIR/replay1.jsonl" internal/ingest/testdata/stream.golden \
    || { echo "replay drifted from the committed golden series" >&2; exit 1; }
grep -q '"sweep_warm_starts": [1-9]' "$RSDIR/replay.metrics.json" \
    || { echo "replay never warm-started a fit" >&2; exit 1; }
cleanup_replay
trap - EXIT
echo "streaming replay smoke OK"

echo "== ghostsd smoke =="
# Build the daemon, boot it on a random port, hit the health probe and one
# estimate, then check it shuts down cleanly on SIGTERM (exit 0).
SMOKEDIR="$(mktemp -d)"
SMOKELOG="$SMOKEDIR/ghostsd.log"
cleanup_smoke() {
    [ -n "${SMOKEPID:-}" ] && kill "$SMOKEPID" 2>/dev/null || true
    rm -rf "$SMOKEDIR"
}
trap cleanup_smoke EXIT
go build -o "$SMOKEDIR/ghostsd" ./cmd/ghostsd
"$SMOKEDIR/ghostsd" -addr 127.0.0.1:0 2> "$SMOKELOG" &
SMOKEPID=$!
BASE="$(wait_base "$SMOKELOG")" || { echo "ghostsd never came up:" >&2; cat "$SMOKELOG" >&2; exit 1; }
curl -fsS "$BASE/healthz" | grep -q '^ok$'
curl -fsS -X POST "$BASE/v1/estimate" \
    -d '{"counts":[0,400,350,120,300,90,80,40],"limit":5000}' \
    | grep -q '"kind": "estimate"'
kill -TERM "$SMOKEPID"
wait "$SMOKEPID" || { echo "ghostsd did not exit cleanly on SIGTERM" >&2; exit 1; }
SMOKEPID=""
echo "ghostsd smoke OK ($BASE)"

echo "== fleet smoke =="
# Boot two workers and a router over them (all on random ports), estimate
# through the router, then SIGTERM one worker mid-fleet: the router must
# keep serving through the survivor and — the headline fleet invariant —
# the response bytes must be identical before and after the failover
# (FLEET.md). Everything must exit cleanly.
FLEETDIR="$(mktemp -d)"
cleanup_fleet() { # replaces cleanup_smoke as the EXIT trap, so take SMOKEDIR too
    for pid in "${W1PID:-}" "${W2PID:-}" "${RPID:-}"; do
        [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    done
    rm -rf "$FLEETDIR" "$SMOKEDIR" # SMOKEDIR still holds the shared binary
}
trap cleanup_fleet EXIT
"$SMOKEDIR/ghostsd" -addr 127.0.0.1:0 2> "$FLEETDIR/w1.log" &
W1PID=$!
"$SMOKEDIR/ghostsd" -addr 127.0.0.1:0 2> "$FLEETDIR/w2.log" &
W2PID=$!
W1="$(wait_base "$FLEETDIR/w1.log")" || { echo "worker 1 never came up" >&2; cat "$FLEETDIR/w1.log" >&2; exit 1; }
W2="$(wait_base "$FLEETDIR/w2.log")" || { echo "worker 2 never came up" >&2; cat "$FLEETDIR/w2.log" >&2; exit 1; }
"$SMOKEDIR/ghostsd" -router "$W1,$W2" -probe-every 200ms -addr 127.0.0.1:0 \
    2> "$FLEETDIR/router.log" &
RPID=$!
ROUTER="$(wait_base "$FLEETDIR/router.log")" || { echo "router never came up" >&2; cat "$FLEETDIR/router.log" >&2; exit 1; }
FLEETBODY='{"counts":[0,400,350,120,300,90,80,40],"limit":5000}'
curl -fsS -X POST "$ROUTER/v1/estimate" -d "$FLEETBODY" > "$FLEETDIR/before.json"
grep -q '"kind": "estimate"' "$FLEETDIR/before.json"
kill -TERM "$W2PID"
wait "$W2PID" || { echo "worker 2 did not exit cleanly on SIGTERM" >&2; exit 1; }
W2PID=""
sleep 0.6  # > -probe-every: let the router notice the departure
curl -fsS "$ROUTER/readyz" | grep -q '^ok$' \
    || { echo "router not ready after losing one worker" >&2; exit 1; }
curl -fsS -X POST "$ROUTER/v1/estimate" -d "$FLEETBODY" > "$FLEETDIR/after.json"
cmp -s "$FLEETDIR/before.json" "$FLEETDIR/after.json" \
    || { echo "fleet response changed across worker failover" >&2; exit 1; }
kill -TERM "$RPID"
wait "$RPID" || { echo "router did not exit cleanly on SIGTERM" >&2; exit 1; }
RPID=""
kill -TERM "$W1PID"
wait "$W1PID" || { echo "worker 1 did not exit cleanly on SIGTERM" >&2; exit 1; }
W1PID=""
rm -rf "$FLEETDIR"
trap - EXIT
echo "fleet smoke OK ($ROUTER over $W1, $W2)"

echo "== dynamic fleet smoke =="
# Zero static topology: a router in -router-mode starts with no workers,
# workers self-register over POST /v1/fleet/join and learn their peers
# from GET /v1/fleet. The sequence exercises every membership transition
# (FLEET.md "Dynamic membership"): two joins at runtime, a third join, a
# death by lease lapse (SIGKILL, no clean leave), a clean deregistration
# (SIGTERM drain), and byte-identical estimates before and after.
DYNDIR="$(mktemp -d)"
cleanup_dyn() { # replaces cleanup_fleet as the EXIT trap, so take SMOKEDIR too
    for pid in "${D1PID:-}" "${D2PID:-}" "${D3PID:-}" "${DRPID:-}"; do
        [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
    done
    rm -rf "$DYNDIR" "$SMOKEDIR"
}
trap cleanup_dyn EXIT
wait_fleet() { # router-url live-count -> waits for GET /v1/fleet to report it
    for _ in $(seq 1 100); do
        curl -fsS "$1/v1/fleet" | grep -q "\"live\": $2," && return 0
        sleep 0.1
    done
    echo "fleet never reached live=$2:" >&2
    curl -fsS "$1/v1/fleet" >&2 || true
    return 1
}
"$SMOKEDIR/ghostsd" -router-mode -probe-every 200ms -lease-ttl 1s \
    -addr 127.0.0.1:0 2> "$DYNDIR/router.log" &
DRPID=$!
DROUTER="$(wait_base "$DYNDIR/router.log")" || { echo "dynamic router never came up" >&2; cat "$DYNDIR/router.log" >&2; exit 1; }
# With no members the router is up but not ready.
[ "$(curl -s -o /dev/null -w '%{http_code}' "$DROUTER/readyz")" = "503" ] \
    || { echo "empty router claims readiness" >&2; exit 1; }
"$SMOKEDIR/ghostsd" -addr 127.0.0.1:0 -join "$DROUTER" 2> "$DYNDIR/d1.log" &
D1PID=$!
"$SMOKEDIR/ghostsd" -addr 127.0.0.1:0 -join "$DROUTER" 2> "$DYNDIR/d2.log" &
D2PID=$!
wait_fleet "$DROUTER" 2
curl -fsS "$DROUTER/v1/fleet" | grep -q '"source": "lease"' \
    || { echo "joined workers not marked as leased members" >&2; exit 1; }
curl -fsS "$DROUTER/readyz" | grep -q '^ok$' \
    || { echo "router not ready after two joins" >&2; exit 1; }
curl -fsS -X POST "$DROUTER/v1/estimate" -d "$FLEETBODY" > "$DYNDIR/before.json"
grep -q '"kind": "estimate"' "$DYNDIR/before.json"
# A third worker joins at runtime and is routable.
"$SMOKEDIR/ghostsd" -addr 127.0.0.1:0 -join "$DROUTER" 2> "$DYNDIR/d3.log" &
D3PID=$!
wait_fleet "$DROUTER" 3
# Kill it without ceremony: no leave, no drain — its lease must lapse
# (1s TTL) and the router must sweep it out on its own. Liveness drops
# within one probe interval; full deregistration takes the lease TTL.
D3URL="$(wait_base "$DYNDIR/d3.log")"
kill -9 "$D3PID"
wait "$D3PID" 2>/dev/null || true
D3PID=""
for _ in $(seq 1 100); do
    curl -fsS "$DROUTER/v1/fleet" | grep -q "\"url\": \"$D3URL\"" || break
    sleep 0.1
done
curl -fsS "$DROUTER/v1/fleet" | grep -q "\"url\": \"$D3URL\"" \
    && { echo "lease-lapsed worker still registered" >&2; exit 1; }
wait_fleet "$DROUTER" 2
# SIGTERM a worker: its drain deregisters it immediately (PreDrain leave,
# before the probe cadence could even notice).
kill -TERM "$D2PID"
wait "$D2PID" || { echo "dynamic worker 2 did not exit cleanly on SIGTERM" >&2; exit 1; }
D2PID=""
wait_fleet "$DROUTER" 1
curl -fsS -X POST "$DROUTER/v1/estimate" -d "$FLEETBODY" > "$DYNDIR/after.json"
cmp -s "$DYNDIR/before.json" "$DYNDIR/after.json" \
    || { echo "dynamic fleet response changed across churn" >&2; exit 1; }
kill -TERM "$DRPID"
wait "$DRPID" || { echo "dynamic router did not exit cleanly on SIGTERM" >&2; exit 1; }
DRPID=""
kill -TERM "$D1PID"
wait "$D1PID" || { echo "dynamic worker 1 did not exit cleanly on SIGTERM" >&2; exit 1; }
D1PID=""
cleanup_dyn
trap - EXIT
echo "dynamic fleet smoke OK ($DROUTER)"

echo "CI OK"
