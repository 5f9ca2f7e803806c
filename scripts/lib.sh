# Shared helpers for the scripts in this directory; source it, don't run it.

# wait_base <logfile>: wait up to 10 s for a ghostsd to log its
# "listening on <url>" line into logfile, then print the base URL.
# Returns 1 if the line never appears.
wait_base() {
    local base=""
    for _ in $(seq 1 100); do
        base="$(sed -n 's#.*listening on \(http://[^ ]*\).*#\1#p' "$1" | head -n 1)"
        [ -n "$base" ] && { echo "$base"; return 0; }
        sleep 0.1
    done
    return 1
}

# bench_baseline [exclude]: print the newest core benchmark snapshot in
# the current directory — BENCH_YYYY-MM-DD.json or BENCH_YYYY-MM-DD.N.json,
# never an .ab verdict or an older .telemetry/.serve/.stream/.fleet
# record — other than exclude
# (the file just written). Snapshots are ordered by the date in the name,
# then by the same-day suffix (none, .2, .3, ...), never by mtime: a fresh
# checkout gives every file the same mtime. Prints nothing if none exists.
bench_baseline() {
    local f re='^BENCH_([0-9]{4}-[0-9]{2}-[0-9]{2})(\.([0-9]+))?\.json$'
    for f in BENCH_*.json; do
        [ "$f" = "${1:-}" ] && continue
        [[ "$f" =~ $re ]] || continue
        printf '%s %s %s\n' "${BASH_REMATCH[1]}" "${BASH_REMATCH[3]:-1}" "$f"
    done | sort -k1,1 -k2,2n | tail -n 1 | cut -d' ' -f3
}
