#!/usr/bin/env bash
# Paired benchmark verdict: this checkout against another revision.
#
#   bash scripts/ab.sh <rev> [pairs] [workload]
#
# Run it from the repository root. <rev> is any commit (e.g. HEAD~1);
# pairs defaults to 10 and workload to stream (BENCHMARK.json lists the
# workloads). <rev> is extracted with git archive into a temporary
# directory, so the repository gains no worktree or branch. Pair i runs
# ghostbench/run.sh with seed i once on each side, for BENCHMARK.json's
# run_seconds; odd pairs run <rev> first and even pairs this checkout
# first, so a drift in machine speed does not favour one side.
#
# For every end-to-end metric of BENCHMARK.json it reports the per-pair
# ratios (this checkout / <rev>), their median, the sign count (the pairs
# in which this checkout was better) and a sign-test confidence interval
# for the median ratio. A metric is "improved" or "regressed" only when
# that interval excludes 1 and the median ratio moves by more than 3%;
# otherwise it is "no change" (scripts/ab_verdict.jq holds the rule).
# batch_abs_err_pct is a science metric, not a timing: it must be equal in
# every pair.
#
# Writes BENCH_<date>.ab.json (BENCH_<date>.N.ab.json if that exists) and
# exits 1 when a run is incorrect, fails operations or the science metric
# differs. Needs jq.
set -euo pipefail
cd "$(dirname "$0")/.."

[ $# -ge 1 ] || { echo "usage: scripts/ab.sh <rev> [pairs] [workload]" >&2; exit 2; }
rev="$1"
pairs="${2:-10}"
workload="${3:-stream}"
command -v jq > /dev/null || { echo "ab.sh: jq is required" >&2; exit 2; }
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || { echo "ab.sh: pairs must be a positive integer" >&2; exit 2; }
jq -e --arg w "$workload" 'any(.workloads[]; .name == $w)' BENCHMARK.json > /dev/null \
    || { echo "ab.sh: unknown workload $workload" >&2; exit 2; }
base_commit="$(git rev-parse --verify "$rev^{commit}")"
change_commit="$(git describe --always --dirty --abbrev=40)"
seconds="$(jq -r '.run_seconds' BENCHMARK.json)"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git archive "$base_commit" | tar -x -C "$tmp/base"
root="$(pwd)"

# run <side> <dir> <pair> <order>: one benchmark run, its result line
# tagged and appended to runs.jsonl.
run() {
    local side="$1" dir="$2" pair="$3" order="$4" line
    echo "pair $pair/$pairs: $side (seed $pair)" >&2
    line="$(cd "$dir" && bash ghostbench/run.sh --workload "$workload" --seed "$pair" \
        --seconds "$seconds" --trace 0 2> "$tmp/stderr" | tail -n 1)" \
        || { cat "$tmp/stderr" >&2; echo "ab.sh: $side run failed" >&2; exit 1; }
    jq -c --arg side "$side" --argjson pair "$pair" --argjson order "$order" \
        '{pair: $pair, seed: $pair, side: $side, order: $order, result: .}' <<< "$line" \
        >> "$tmp/runs.jsonl" \
        || { echo "ab.sh: $side run printed no result: $line" >&2; exit 1; }
}

for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
        run base "$tmp/base" "$pair" 1
        run change "$root" "$pair" 2
    else
        run change "$root" "$pair" 1
        run base "$tmp/base" "$pair" 2
    fi
done

date="$(date -u +%F)"
out="BENCH_$date.ab.json"
n=2
while [ -e "$out" ]; do
    out="BENCH_$date.$n.ab.json"
    n=$((n + 1))
done

jq -s -L scripts \
    --slurpfile spec BENCHMARK.json \
    --arg rev "$rev" --arg base "$base_commit" --arg change "$change_commit" \
    --arg workload "$workload" --arg date "$date" \
    --argjson seconds "$seconds" --argjson cpus "$(nproc)" '
include "ab_verdict";
def side($s): map(select(.side == $s)) | sort_by(.pair);
side("base") as $b | side("change") as $c
| ($b | length) as $pairs
| ([range(0; $pairs)] | sign_ci) as $ci   # k and coverage depend on the pair count only
| {
    schema: "ghosts.ab/v2",
    date: $date,
    workload: $workload,
    seconds: $seconds,
    host_cpus: $cpus,
    base: {rev: $rev, commit: $base},
    change: {commit: $change},
    pairs: $pairs,
    rule: (if $ci == null then "no verdicts: a sign-test interval needs at least 6 pairs"
           else "improved/regressed: the sign-test interval for the median per-pair ratio (order statistics \($ci.k) and \($pairs + 1 - $ci.k) of \($pairs), \($ci.coverage * 1000 | round / 10)% coverage) excludes 1 and the median ratio moves by more than \(min_effect * 100)%" end),
    runs: [range(0; $pairs) as $i | {
        pair: $b[$i].pair, seed: $b[$i].seed,
        first: (if $b[$i].order == 1 then "base" else "change" end),
        base: ($b[$i].result | {correct, attempted, failed, metrics: (.metrics | map_values(.value))}),
        change: ($c[$i].result | {correct, attempted, failed, metrics: (.metrics | map_values(.value))})
    }],
    metrics: ($spec[0].end_to_end | map(. as $m
        | [$b[].result.metrics[$m.name].value] as $bv
        | [$c[].result.metrics[$m.name].value] as $cv
        | (if $m.better == "lower" then 1 else -1 end) as $dir
        | ([range(0; $pairs) | select(($cv[.] - $bv[.]) * $dir < 0)] | length) as $wins
        | ([range(0; $pairs) | select(($cv[.] - $bv[.]) * $dir > 0)] | length) as $losses
        | [range(0; $pairs) | if $bv[.] == 0 then null else $cv[.] / $bv[.] end] as $ratios
        | {key: $m.name, value: ({
            better: $m.better,
            bound: $m.bound,
            ratios: $ratios,
            median_ratio: ($ratios | map(select(. != null)) | if length > 0 then q(0.5) else null end),
            ratio_interval: ($ratios | sign_ci | if . == null then null else [.lo, .hi] end),
            better_pairs: $wins,
            worse_pairs: $losses,
            base_median: ($bv | q(0.5)),
            change_median: ($cv | q(0.5)),
            equal_every_pair: ($bv == $cv)
        } | .verdict = verdict)}) | from_entries),
    failed_runs: ([.[] | select(.result.correct | not)] | length),
    failed_ops: {base: ([$b[].result.failed] | add), change: ([$c[].result.failed] | add)}
  }
| .ok = (.failed_runs == 0 and .failed_ops.base == 0 and .failed_ops.change == 0
         and .metrics.batch_abs_err_pct.equal_every_pair)
' "$tmp/runs.jsonl" > "$out"

jq -r '"\(.workload), \(.pairs) pairs, \(.change.commit) vs \(.base.rev) (\(.base.commit[0:12]))",
    (.metrics | to_entries[] | "  \(.key): median ratio \(.value.median_ratio) in \(.value.ratio_interval), better in \(.value.better_pairs)/\(.value.ratios | length), \(.value.verdict)"),
    "  batch_abs_err_pct equal in every pair: \(.metrics.batch_abs_err_pct.equal_every_pair)",
    "  incorrect runs: \(.failed_runs); failed operations: base \(.failed_ops.base), change \(.failed_ops.change)",
    "wrote \(input_filename)"' "$out"
jq -e '.ok' "$out" > /dev/null || { echo "ab.sh: see $out: a run failed or batch_abs_err_pct differs" >&2; exit 1; }
