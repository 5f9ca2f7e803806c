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
