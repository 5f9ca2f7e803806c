#!/usr/bin/env bash
# Snapshot the core benchmark suite (bench_test.go: one benchmark per
# table and figure, ablations, kernels) into BENCH_<date>.json so their
# costs are tracked PR over PR. End-to-end serve, stream and batch numbers
# come from ghostbench (ghostbench/README.md), paired by scripts/ab.sh.
#
# Usage: scripts/bench.sh [bench-regex] [benchtime]
#   scripts/bench.sh                          # full suite, 1 iteration per run
#   scripts/bench.sh 'CrossValidation' 5x     # one benchmark, 5 iterations per run
#
# Every benchmark runs 6 times (go test -count 6). The first run of a
# benchmark pays the shared Env's lazy pipelines, so it is a warm-up and
# is discarded. The snapshot records, per benchmark and metric, the median
# of the other 5 runs ("metrics") and their min–max range ("spread"), so
# the noise of each warm number is stated next to it. Needs jq.
set -euo pipefail
cd "$(dirname "$0")/.."
. scripts/lib.sh

PATTERN="${1:-.}"
BENCHTIME="${2:-1x}"
COUNT=5  # recorded runs per benchmark, after one discarded warm-up run
command -v jq > /dev/null || { echo "bench.sh: jq is required" >&2; exit 2; }
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
TXT="$(mktemp)"
trap 'rm -f "$TXT"' EXIT

go test -run '^$' -bench "$PATTERN" -benchmem -benchtime "$BENCHTIME" -count "$((COUNT + 1))" . | tee "$TXT"

# Turn each `BenchmarkName  iters  123 ns/op  456 B/op  7 allocs/op  8.9 metric`
# line into one {name, metrics{unit: value}} run, drop each benchmark's
# first (warm-up) run, then fold the rest into its median and min–max
# spread per metric. The first
# element records the parallelism the numbers were taken under (GOMAXPROCS
# and the host CPU count; go test also appends GOMAXPROCS to every name
# above 1): a multi-core snapshot is not comparable to a single-core one.
# It carries no "name", so the regression diff below skips it.
NCPU="$(nproc 2>/dev/null || echo 1)"
GMP="${GOMAXPROCS:-$NCPU}"
awk '
/^Benchmark/ {
    printf("{\"name\": \"%s\", \"metrics\": {", $1)
    sep = ""
    for (i = 3; i + 1 <= NF; i += 2) {
        gsub(/"/, "", $(i+1))
        printf("%s\"%s\": %s", sep, $(i+1), $i)
        sep = ", "
    }
    print "}}"
}' "$TXT" | jq -rs --argjson gmp "$GMP" --argjson ncpu "$NCPU" --argjson count "$COUNT" '
# median of a non-empty array (the mean of the middle pair for even lengths)
def median: sort as $s | ($s | length) as $n
    | if $n % 2 == 1 then $s[($n - 1) / 2] else ($s[$n / 2 - 1] + $s[$n / 2]) / 2 end;
. as $all
| (reduce $all[].name as $n ([]; if any(.[]; . == $n) then . else . + [$n] end)) as $names
| [{meta: {gomaxprocs: $gmp, host_cpus: $ncpu, count: $count, warmup: 1}}]
  + [$names[] as $name | [$all[] | select(.name == $name) | .metrics][1:] as $runs
     | ($runs[0] | keys_unsorted) as $units
     | {name: $name, runs: ($runs | length),
        metrics: (reduce $units[] as $u ({}; .[$u] = ([$runs[][$u]] | median))),
        spread: (reduce $units[] as $u ({}; .[$u] = ([$runs[][$u]] | [min, max])))}]
# one element per line, like the snapshots before it
| "[", (map(tojson) | join(",\n  ") | "  " + .), "]"
' > "$OUT"

echo "wrote $OUT"

# Diff against the previous core snapshot (picked by name, see
# bench_baseline in scripts/lib.sh). A benchmark is listed as a shift when
# its median ns/op is more than 15% above the baseline's and the move is
# larger than the baseline's min–max spread, so a move inside the noise the
# baseline itself showed is not listed. A baseline with a single run
# (every snapshot before spreads were recorded) has no spread and is
# compared on medians alone. The two snapshots come from different
# sessions, unpaired, so a shift may be the machine rather than the code
# (a VM running 2x slower one day moves every benchmark alike); only
# scripts/ab.sh, which alternates the two revisions in one session, gives
# a verdict. Informational by default; set GHOSTS_BENCH_STRICT=1 to make
# any shift fatal. A baseline that shares no benchmark name compares
# nothing, and says so instead of reporting "no shifts".
PREV="$(bench_baseline "$OUT")"
if [ -n "$PREV" ]; then
    if ! jq -rn --slurpfile prev "$PREV" --slurpfile cur "$OUT" --arg prevfile "$PREV" '
        def rows($f): $f[0] | map(select(.name != null and .metrics["ns/op"] != null))
            | map({key: .name, value: {ns: .metrics["ns/op"],
                  spread: ((.spread["ns/op"] // [0, 0]) | .[1] - .[0])}}) | from_entries;
        rows($prev) as $p | rows($cur) as $c
        | [$c | to_entries[] | select($p[.key] != null and $p[.key].ns > 0)
           | {name: .key, was: $p[.key].ns, now: .value.ns, spread: $p[.key].spread}] as $common
        | [$common[] | select(.now > 1.15 * .was and .now - .was > .spread)] as $bad
        | if ($common | length) == 0 then
            "WARNING: no benchmark in common with \($prevfile); nothing compared"
          elif ($bad | length) == 0 then
            "no unpaired ns/op shifts past 15% and the baseline spread vs \($prevfile)"
          else
            "unpaired shifts vs \($prevfile) (different sessions: machine drift moves every benchmark alike; run scripts/ab.sh for a paired verdict):",
            ($bad[] | "SHIFT \(.name): \(.was | floor) -> \(.now | floor) ns/op (+\(((.now / .was - 1) * 1000 | round) / 10)%, baseline spread \(.spread | floor))"),
            ("" | halt_error(1))
          end'; then
        if [ -n "${GHOSTS_BENCH_STRICT:-}" ]; then
            exit 1
        fi
    fi
fi
