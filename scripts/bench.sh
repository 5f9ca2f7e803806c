#!/usr/bin/env bash
# Snapshot the benchmark suite into BENCH_<date>.json so the performance
# trajectory is tracked PR over PR.
#
# Usage: scripts/bench.sh [bench-regex] [benchtime]
#   scripts/bench.sh                          # full suite, 1 iteration each
#   scripts/bench.sh 'CrossValidation' 5x     # one benchmark, 5 iterations
#
# Alongside the benchmark numbers, a telemetry run report of the summary
# experiment (BENCH_<date>.telemetry.json — fit counts, iteration
# histograms, pool hit rate, per-phase wall time; see OBSERVABILITY.md)
# is snapshotted so effort metrics are tracked PR over PR, not just
# ns/op. Set GHOSTS_BENCH_NO_TELEMETRY=1 to skip it.
set -euo pipefail
cd "$(dirname "$0")/.."
. scripts/lib.sh

PATTERN="${1:-.}"
BENCHTIME="${2:-1x}"
# No-clobber naming: never overwrite an existing snapshot (same-day reruns
# get a .2/.3/... suffix) — the previous snapshot is the baseline the
# regression diff below compares against.
STEM="BENCH_$(date +%Y-%m-%d)"
OUT="$STEM.json"
N=2
while [ -e "$OUT" ]; do
    OUT="$STEM.$N.json"
    N=$((N + 1))
done
STEM="${OUT%.json}"
TXT="$(mktemp)"
cleanup() {
    for pid in "${SERVEPID:-}" "${FW1PID:-}" "${FW2PID:-}" "${FRPID:-}"; do
        [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    done
    rm -rf "$TXT" "${SERVEDIR:-}" "${FLEETDIR:-}"
}
trap cleanup EXIT

go test -run '^$' -bench "$PATTERN" -benchmem -benchtime "$BENCHTIME" . | tee "$TXT"

# Convert `BenchmarkName  iters  123 ns/op  456 B/op  7 allocs/op  8.9 metric`
# lines into a JSON array of {name, iters, metrics{unit: value}} objects.
# The first element records the parallelism the numbers were taken under
# (GOMAXPROCS and the host CPU count): a multi-core snapshot is not
# comparable to a single-core one. It carries no "name"/"ns/op" pair, so
# the regression diff below skips it.
NCPU="$(nproc 2>/dev/null || echo 1)"
GMP="${GOMAXPROCS:-$NCPU}"
awk -v gmp="$GMP" -v ncpu="$NCPU" '
BEGIN {
    print "["
    printf("  {\"meta\": {\"gomaxprocs\": %d, \"host_cpus\": %d}}", gmp, ncpu)
    first = 0
}
/^Benchmark/ {
    if (!first) printf(",\n"); first = 0
    printf("  {\"name\": \"%s\", \"iters\": %s, \"metrics\": {", $1, $2)
    sep = ""
    for (i = 3; i + 1 <= NF; i += 2) {
        gsub(/"/, "", $(i+1))
        printf("%s\"%s\": %s", sep, $(i+1), $i)
        sep = ", "
    }
    printf("}}")
}
END { print "\n]" }
' "$TXT" > "$OUT"

echo "wrote $OUT"

# Diff against the previous core snapshot (picked by name, see
# bench_baseline in scripts/lib.sh): flag every benchmark whose ns/op
# regressed by more than 15%. Informational by default (a regression needs a
# justified review, not a hidden one); set GHOSTS_BENCH_STRICT=1 to make it
# fatal. A baseline that shares no benchmark name compares nothing, and
# says so instead of reporting "no regressions".
PREV="$(bench_baseline "$OUT")"
if [ -n "$PREV" ]; then
    if ! awk -v prevfile="$PREV" -v curfile="$OUT" '
        function load(file, tgt,    line, name, ns) {
            while ((getline line < file) > 0) {
                if (match(line, /"name": "[^"]+"/)) {
                    name = substr(line, RSTART + 9, RLENGTH - 10)
                    if (match(line, /"ns\/op": [0-9.e+]+/)) {
                        ns = substr(line, RSTART + 9, RLENGTH - 9) + 0
                        tgt[name] = ns
                    }
                }
            }
            close(file)
        }
        BEGIN {
            load(prevfile, p); load(curfile, c)
            bad = 0
            common = 0
            for (n in c) {
                if (!(n in p) || p[n] <= 0) continue
                common++
                r = c[n] / p[n]
                if (r > 1.15) {
                    printf("REGRESSION %s: %.0f -> %.0f ns/op (+%.1f%%)\n", n, p[n], c[n], 100 * (r - 1))
                    bad = 1
                }
            }
            if (!common) print "WARNING: no benchmark in common with " prevfile "; nothing compared"
            else if (!bad) print "no >15% ns/op regressions vs " prevfile
            exit bad
        }'; then
        if [ -n "${GHOSTS_BENCH_STRICT:-}" ]; then
            exit 1
        fi
    fi
fi

if [ -z "${GHOSTS_BENCH_NO_TELEMETRY:-}" ]; then
    TELEMETRY="$STEM.telemetry.json"
    go run ./cmd/ghosts -exp summary -scale tiny -metrics "$TELEMETRY" > /dev/null
fi

# Streaming replay snapshot: run the committed pcap fixture through the
# ingest pipeline (`ghosts -replay`) with telemetry on. The report's
# ingest section carries the per-tick re-estimation latency histogram
# (ingest.tick_us), the incremental-update counter (ingest.hist_updates)
# and the glm_fit section the warm-start counters, so the streaming
# path's cost is tracked PR over PR alongside batch and serve. The two
# headline numbers — replay throughput in events/sec and the tick-latency
# p99 — are derived from the report and committed alongside it at the top
# of the snapshot. Set GHOSTS_BENCH_NO_STREAM=1 to skip it.
if [ -z "${GHOSTS_BENCH_NO_STREAM:-}" ]; then
    STREAMOUT="$STEM.stream.json"
    STREAMRAW="$(mktemp)"
    go run ./cmd/ghosts -replay internal/ingest/testdata/stream.pcap -json \
        -metrics "$STREAMRAW" > /dev/null 2> /dev/null
    # events_per_sec = ingest.events over the run's wall clock;
    # tick_p99_us = the smallest ingest.tick_us bucket bound covering 99%
    # of ticks (the histogram max if the tail spills past the buckets).
    awk '
        NR == 1 { next }                                  # replaced by the wrapper
        /^  "wall_ms":/  && !wall      { wall = $2 + 0 }
        $1 == "\"ingest\":"            { ing = 1 }
        ing && $1 == "\"events\":"     { ev = $2 + 0 }
        ing && $1 == "\"tick_us\":"    { tick = 1 }
        tick == 1 && $1 == "\"count\":" { tc = $2 + 0 }
        tick == 1 && $1 == "\"max\":"   { tmax = $2 + 0 }
        tick == 1 && $1 == "\"le\":"    { le = $2 + 0 }
        tick == 1 && $1 == "\"n\":"     { cum += $2; if (!p99 && tc && cum >= 0.99 * tc) p99 = le }
        tick == 1 && $1 == "]"          { tick = 2 }      # end of the bucket list
        { body = body $0 "\n" }
        END {
            if (!p99) p99 = tmax
            eps = wall > 0 ? ev / (wall / 1000) : 0
            printf "{\n  \"events_per_sec\": %.1f,\n  \"tick_p99_us\": %d,\n  \"report\": {\n", eps, p99
            printf "%s}\n", body
        }' "$STREAMRAW" > "$STREAMOUT"
    rm -f "$STREAMRAW"
    echo "wrote $STREAMOUT"
fi

# Server-side latency snapshot: boot ghostsd on a random port, replay a
# small request mix (cold computes, cache hits, a distinct table), then
# shut down; the telemetry report it writes carries the serve section
# (request/latency histograms, cache hit counts — see OBSERVABILITY.md).
# Set GHOSTS_BENCH_NO_SERVE=1 to skip it.
if [ -z "${GHOSTS_BENCH_NO_SERVE:-}" ]; then
    SERVEOUT="$STEM.serve.json"
    SERVEDIR="$(mktemp -d)"
    SERVELOG="$SERVEDIR/ghostsd.log"
    go build -o "$SERVEDIR/ghostsd" ./cmd/ghostsd
    "$SERVEDIR/ghostsd" -addr 127.0.0.1:0 -metrics "$SERVEOUT" 2> "$SERVELOG" &
    SERVEPID=$!
    BASE="$(wait_base "$SERVELOG")" || { echo "ghostsd never came up:" >&2; cat "$SERVELOG" >&2; exit 1; }
    REQ='{"counts":[0,400,350,120,300,90,80,40],"limit":5000}'
    ALT='{"counts":[0,400,350,120,300,90,80,40],"limit":6000}'
    for _ in $(seq 1 10); do
        curl -fsS -X POST "$BASE/v1/estimate" -d "$REQ" > /dev/null
    done
    curl -fsS -X POST "$BASE/v1/estimate" -d "$ALT" > /dev/null
    kill -TERM "$SERVEPID"
    wait "$SERVEPID"
    SERVEPID=""
    echo "wrote $SERVEOUT"
fi

# Fleet snapshot: boot two workers and a router, drive them with the load
# generator's deterministic Zipf mix, and keep its ghosts.loadgen/v1
# summary (throughput, latency percentiles, cache-status mix — including
# gomaxprocs/host_cpus, so fleet numbers carry their parallelism context
# like the meta element above). FLEET.md documents the topology.
# Set GHOSTS_BENCH_NO_FLEET=1 to skip it.
if [ -z "${GHOSTS_BENCH_NO_FLEET:-}" ]; then
    FLEETOUT="$STEM.fleet.json"
    FLEETDIR="$(mktemp -d)"
    go build -o "$FLEETDIR/ghostsd" ./cmd/ghostsd
    go build -o "$FLEETDIR/ghosts-loadgen" ./cmd/ghosts-loadgen
    # Peer wiring needs both URLs up front but ports are dynamic, so: boot
    # worker 1 to learn its port, boot worker 2 peering at it, then restart
    # worker 1 on its (just freed) port peering back — fully symmetric, so
    # a displaced key is a byte copy on either worker, never a second fit.
    "$FLEETDIR/ghostsd" -addr 127.0.0.1:0 2> "$FLEETDIR/w1.log" &
    FW1PID=$!
    FW1="$(wait_base "$FLEETDIR/w1.log")" || { echo "fleet worker 1 never came up" >&2; exit 1; }
    "$FLEETDIR/ghostsd" -addr 127.0.0.1:0 -peers "$FW1" 2> "$FLEETDIR/w2.log" &
    FW2PID=$!
    FW2="$(wait_base "$FLEETDIR/w2.log")" || { echo "fleet worker 2 never came up" >&2; exit 1; }
    kill -TERM "$FW1PID" && wait "$FW1PID"
    "$FLEETDIR/ghostsd" -addr "${FW1#http://}" -peers "$FW2" 2> "$FLEETDIR/w1b.log" &
    FW1PID=$!
    FW1="$(wait_base "$FLEETDIR/w1b.log")" || { echo "fleet worker 1 never came back up" >&2; exit 1; }
    "$FLEETDIR/ghostsd" -router "$FW1,$FW2" -addr 127.0.0.1:0 2> "$FLEETDIR/router.log" &
    FRPID=$!
    FROUTER="$(wait_base "$FLEETDIR/router.log")" || { echo "fleet router never came up" >&2; exit 1; }
    "$FLEETDIR/ghosts-loadgen" -target "$FROUTER" \
        -requests 300 -concurrency 8 -corpus 48 -out "$FLEETOUT"
    for pid in "$FRPID" "$FW1PID" "$FW2PID"; do
        kill -TERM "$pid" && wait "$pid"
    done
    FRPID=""; FW1PID=""; FW2PID=""
    echo "wrote $FLEETOUT"
fi
