#!/usr/bin/env bash
# Count Rust lines, production vs test, so a PR can report its net delta
# (ROADMAP north-star 2: "expected sign is negative").
#
#   scripts/loc.sh                 # this checkout
#   scripts/loc.sh DIR             # another checkout (e.g. a clone of the parent)
#   scripts/loc.sh --against REV   # REV (any git revision of this repo), this
#                                  # checkout, and the delta between them
#
# Test lines are every file under a `tests/` directory plus, in any other
# file, everything from the first `#[cfg(test)]` line to the end (the
# repo keeps unit tests in one trailing `mod tests`). Everything else is
# production, examples and binaries included. `perfbench/` (the
# benchmark, frozen by BENCHMARK.json) and build output are excluded.
# Lines are physical lines, so run `cargo fmt` first. `--against` unpacks
# REV with `git archive` into a temporary directory: no network, no
# second clone.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"

# Print "production test total" for the checkout in $1.
count() {
    (cd "$1" && find . -name '*.rs' -not -path './perfbench/*' -not -path '*/target/*' \
        -not -path './.bench_build/*' -print0 | sort -z |
        xargs -0 awk '
            FNR == 1 { in_test = (FILENAME ~ /\/tests\//) }
            /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
            { if (in_test) test++; else prod++ }
            END { printf "%d %d %d\n", prod, test, prod + test }')
}

if [ "${1:-}" = "--against" ]; then
    rev="${2:?usage: scripts/loc.sh --against REV}"
    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp"' EXIT
    git -C "$root" archive "$rev" | tar -x -C "$tmp"
    read -r p0 t0 s0 <<<"$(count "$tmp")"
    read -r p1 t1 s1 <<<"$(count "$root")"
    printf '%-12s %10s %10s %10s\n' "" production test total
    printf '%-12s %10d %10d %10d\n' "$rev" "$p0" "$t0" "$s0"
    printf '%-12s %10d %10d %10d\n' worktree "$p1" "$t1" "$s1"
    printf '%-12s %+10d %+10d %+10d\n' delta $((p1 - p0)) $((t1 - t0)) $((s1 - s0))
else
    read -r p t s <<<"$(count "${1:-$root}")"
    printf 'production %d\ntest %d\ntotal %d\n' "$p" "$t" "$s"
fi
