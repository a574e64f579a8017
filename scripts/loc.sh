#!/usr/bin/env bash
# Count Rust lines, production vs test, so a PR can report its net delta
# (ROADMAP north-star 2: "expected sign is negative").
#
#   scripts/loc.sh            # this checkout
#   scripts/loc.sh DIR        # another checkout (e.g. a clone of the parent)
#
# Test lines are every file under a `tests/` directory plus, in any other
# file, everything from the first `#[cfg(test)]` line to the end (the
# repo keeps unit tests in one trailing `mod tests`). Everything else is
# production, examples and binaries included. `perfbench/` (the
# benchmark, frozen by BENCHMARK.json) and build output are excluded.
# Lines are physical lines, so run `cargo fmt` first.
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

find . -name '*.rs' -not -path './perfbench/*' -not -path '*/target/*' \
    -not -path './.bench_build/*' -print0 | sort -z |
    xargs -0 awk '
        FNR == 1 { in_test = (FILENAME ~ /\/tests\//) }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
        { if (in_test) test++; else prod++ }
        END { printf "production %d\ntest %d\ntotal %d\n", prod, test, prod + test }'
