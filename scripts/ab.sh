#!/usr/bin/env bash
# Parent-vs-change A/B of one perfbench workload, the way the
# choosing-metrics guide (§8) asks a gain to be shown on a noisy box.
#
#   scripts/ab.sh PARENT_DIR WORKLOAD [PAIRS=10] [SEED=1] [SECONDS]
#
# PARENT_DIR is a checkout of the parent commit (a `git clone` under
# /root/scratch); the change is this checkout. Builds both `perfbench`
# binaries, then runs `--workload W --seconds S --trace 0 --seed SEED` in
# PAIRS alternating pairs (odd pairs parent first, even pairs change
# first), each from the root of its own checkout. SECONDS defaults to
# BENCHMARK.json's `run_seconds`; anything shorter is for iterating, not
# for a claim. Prints every `run_s` pair, each side's quartiles, pairs
# won, whether the median gap exceeds the parent's inter-quartile
# distance, each side's median of every other end-to-end metric (read
# from the same runs), and both `sim_digest`s — and refuses to compare
# when those differ, because then the two sides did different work. Reads only:
# nothing is written outside the two `perfbench/target` directories.
set -euo pipefail
[ $# -ge 2 ] || { sed -n '2,5p' "$0" >&2; exit 2; }
parent=$(cd "$1" && pwd)
change=$(cd "$(dirname "$0")/.." && pwd)
workload=$2
pairs=${3:-10}
seed=${4:-1}
seconds=${5:-$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$change/BENCHMARK.json")}

for dir in "$parent" "$change"; do
    cargo build --release --quiet --manifest-path "$dir/perfbench/Cargo.toml" --bin perfbench
done

# The end-to-end metrics BENCHMARK.json names, in the order `run` prints
# them; the first is the one the verdict is about.
metrics=(run_s setup_s peak_rss_bytes sim_afct_ms sim_p99_fct_ms)

# One run: prints each of `metrics`, then the sim_digest.
run() {
    (cd "$1" && ./perfbench/target/release/perfbench --workload "$workload" \
        --seed "$seed" --seconds "$seconds" --trace 0 2>&1) |
        awk -v names="${metrics[*]}" '
            /sim_digest=/ { digest = $0; sub(/.*sim_digest=/, "", digest); sub(/[^0-9a-fx].*/, "", digest) }
            /^\{/ { json = $0 }
            END {
                n = split(names, name, " ")
                for (i = 1; i <= n; i++) {
                    key = "\"" name[i] "\": {\"value\": "; at = index(json, key)
                    if (at) printf "%.17g ", substr(json, at + length(key)) + 0; else printf "nan "
                }
                print digest
            }'
}

echo "ab: $workload seed=$seed seconds=$seconds pairs=$pairs"
echo "ab: parent=$parent change=$change"
p_rows=() c_rows=() won=0 lost=0
for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
        read -r p_row < <(run "$parent"); read -r c_row < <(run "$change")
    else
        read -r c_row < <(run "$change"); read -r p_row < <(run "$parent")
    fi
    p_digest=${p_row##* } c_digest=${c_row##* }
    if [ -z "$p_digest" ] || [ "$p_digest" != "$c_digest" ]; then
        echo "ab: sim_digest differs (parent ${p_digest:-none}, change ${c_digest:-none}):" \
            "the two sides did different work, run_s is not comparable" >&2
        exit 1
    fi
    p_rows+=("$p_row") c_rows+=("$c_row")
    p=${p_row%% *} c=${c_row%% *}
    verdict=$(awk -v p="$p" -v c="$c" 'BEGIN { print (c < p) ? "change" : (p < c) ? "parent" : "tie" }')
    [ "$verdict" = change ] && won=$((won + 1))
    [ "$verdict" = parent ] && lost=$((lost + 1))
    awk -v i="$i" -v p="$p" -v c="$c" -v v="$verdict" \
        'BEGIN { printf "pair %2d  parent %.3f  change %.3f  %+6.1f %%  %s\n", i, p, c, (c / p - 1) * 100, v }'
done

# Quartiles of column $1 of the rows that follow, by linear
# interpolation between order statistics.
quartiles() {
    local col=$1
    shift
    printf '%s\n' "$@" | awk -v c="$col" '{ print $c }' | sort -g | awk '
        { x[NR] = $1 }
        function q(f,   h, lo) { h = (NR - 1) * f + 1; lo = int(h); return x[lo] + (h - lo) * (x[lo < NR ? lo + 1 : lo] - x[lo]) }
        END { printf "%.17g %.17g %.17g\n", q(0.25), q(0.5), q(0.75) }'
}
read -r p1 p2 p3 < <(quartiles 1 "${p_rows[@]}")
read -r c1 c2 c3 < <(quartiles 1 "${c_rows[@]}")
printf 'parent run_s  q1 %.4f  median %.4f  q3 %.4f\n' "$p1" "$p2" "$p3"
printf 'change run_s  q1 %.4f  median %.4f  q3 %.4f\n' "$c1" "$c2" "$c3"
awk -v p1="$p1" -v p2="$p2" -v p3="$p3" -v c2="$c2" -v won="$won" -v lost="$lost" -v n="$pairs" 'BEGIN {
    gap = p2 - c2; iqr = p3 - p1
    printf "median %+.1f %% (gap %.4f s, parent IQR %.4f s: gap %s IQR); change won %d, lost %d of %d pairs\n",
        (c2 / p2 - 1) * 100, gap, iqr, (gap > iqr) ? ">" : "<=", won, lost, n
    printf "gain by choosing-metrics §8 (>= 9/10 of pairs, gap > parent IQR): %s\n",
        (won * 10 >= n * 9 && gap > iqr) ? "shown" : "not shown" }'
echo "every other end-to-end metric, median of each side's $pairs runs:"
for k in $(seq 2 ${#metrics[@]}); do
    read -r _ pm _ < <(quartiles "$k" "${p_rows[@]}")
    read -r _ cm _ < <(quartiles "$k" "${c_rows[@]}")
    awk -v name="${metrics[k - 1]}" -v p="$pm" -v c="$cm" 'BEGIN {
        printf "  %-15s parent %-16.10g change %-16.10g %s\n", name, p, c,
            p == c ? "equal" : sprintf("%+.2f %%", (c / p - 1) * 100) }'
done
echo "sim_digest $p_digest on both sides"
