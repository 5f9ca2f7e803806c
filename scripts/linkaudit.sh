#!/usr/bin/env bash
# Link audit: list every function or method declared in a non-test file
# under internal/ that no shipped binary links. It builds each main package
# of the module and the ghostbench harness (its own module) with inlining
# off (-gcflags=all=-l), so a call that the compiler would have inlined
# still leaves its symbol behind, reads the linked symbols with
# `go tool nm`, and diffs them against the declarations. The linker's
# dead-code pass drops what nothing reaches, so a declared name missing
# from every binary is code that only tests, or nothing, call.
#
#   bash scripts/linkaudit.sh          # list unlinked declarations
#   bash scripts/linkaudit.sh -check   # fail on any not in the keep-list
#
# The keep-list, scripts/linkaudit.keep, names the unlinked functions that
# stay, one per line with its reason. -check also fails on a keep-list
# entry that is linked again or no longer declared, so the list cannot go
# stale.
set -euo pipefail
cd "$(dirname "$0")/.."

check=0
[ "${1:-}" = "-check" ] && check=1

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
export GOFLAGS= GOWORK=off

module="$(go list -m)"
for pkg in $(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...); do
    go build -gcflags=all=-l -o "$work/bin/${pkg##*/}" "$pkg"
done
(cd ghostbench && go build -gcflags=all=-l -o "$work/bin/ghostbench" .)

# Linked symbols, normalised to pkg.Func, pkg.Type.Method or
# pkg.(*Type).Method: drop generic instantiation brackets, closures
# (.func1, .gowrap2), compiler wrappers (-fm, -tramp) and the numbering of
# init functions (init.0).
for bin in "$work"/bin/*; do
    go tool nm "$bin"
done | awk '$2 == "T" || $2 == "t" { print $3 }' \
    | grep "^$module/internal/" \
    | sed -E 's/\[[^]]*\]//g; s/-(fm|tramp)$//; s/(\.(func|gowrap|deferwrap)[0-9]+)+$//; s/\.[0-9]+$//' \
    | sort -u > "$work/linked"

# Declared functions and methods of non-test files (gofmt layout: one
# "func" per line start), in the same normal form. A value-receiver method
# counts as linked under either its own name or its pointer wrapper, so it
# is listed with both.
find internal -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | sort \
    | while read -r f; do
        pkg="$module/$(dirname "$f")"
        sed -nE 's/^func \((\w+ )?(\*?\w+)(\[[^]]*\])?\) (\w+).*/\2.\4/p; s/^func (\w+)[[(].*/\1/p' "$f" \
            | while read -r decl; do
                case "$decl" in
                init) ;;
                \**) t="${decl#\*}"; echo "$pkg.(*${t%%.*}).${t#*.}" ;;
                *.*) echo "$pkg.$decl $pkg.(*${decl%%.*}).${decl#*.}" ;;
                *) echo "$pkg.$decl" ;;
                esac
            done
    done | sort -u > "$work/declared"

unlinked="$(while read -r sym alt; do
        grep -qxF -e "$sym" -e "${alt:-$sym}" "$work/linked" || echo "${sym#"$module/"}"
    done < "$work/declared")"

if [ "$check" = 0 ]; then
    [ -z "$unlinked" ] || echo "$unlinked"
    exit 0
fi

keep="$(sed -E 's/#.*//; s/[[:space:]]+$//; /^$/d' scripts/linkaudit.keep | sort -u)"
extra="$(comm -23 <(echo "$unlinked" | sed '/^$/d' | sort -u) <(echo "$keep"))"
stale="$(comm -13 <(echo "$unlinked" | sed '/^$/d' | sort -u) <(echo "$keep"))"
status=0
if [ -n "$extra" ]; then
    echo "declared under internal/ but linked by no binary (delete it, move it to a _test.go file, or add it to scripts/linkaudit.keep with a reason):" >&2
    echo "$extra" >&2
    status=1
fi
if [ -n "$stale" ]; then
    echo "scripts/linkaudit.keep entries that are linked or no longer declared:" >&2
    echo "$stale" >&2
    status=1
fi
[ "$status" = 0 ] && echo "link audit OK ($(echo "$keep" | wc -l) kept)"
exit "$status"
