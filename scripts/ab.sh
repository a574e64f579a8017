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
# distance, and both `sim_digest`s — and refuses to compare when those
# differ, because then the two sides did different work. Reads only:
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

# One run: prints "<run_s> <sim_digest>".
run() {
    (cd "$1" && ./perfbench/target/release/perfbench --workload "$workload" \
        --seed "$seed" --seconds "$seconds" --trace 0 2>&1) |
        sed -n 's/.*sim_digest=\(0x[0-9a-f]*\).*/digest \1/p; s/.*"run_s": {"value": \([0-9.e-]*\).*/run_s \1/p' |
        awk '{ v[$1] = $2 } END { print v["run_s"], v["digest"] }'
}

echo "ab: $workload seed=$seed seconds=$seconds pairs=$pairs"
echo "ab: parent=$parent change=$change"
p_runs=() c_runs=() won=0 lost=0
for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
        read -r p p_digest < <(run "$parent"); read -r c c_digest < <(run "$change")
    else
        read -r c c_digest < <(run "$change"); read -r p p_digest < <(run "$parent")
    fi
    if [ -z "$p_digest" ] || [ "$p_digest" != "$c_digest" ]; then
        echo "ab: sim_digest differs (parent ${p_digest:-none}, change ${c_digest:-none}):" \
            "the two sides did different work, run_s is not comparable" >&2
        exit 1
    fi
    p_runs+=("$p") c_runs+=("$c")
    verdict=$(awk -v p="$p" -v c="$c" 'BEGIN { print (c < p) ? "change" : (p < c) ? "parent" : "tie" }')
    [ "$verdict" = change ] && won=$((won + 1))
    [ "$verdict" = parent ] && lost=$((lost + 1))
    awk -v i="$i" -v p="$p" -v c="$c" -v v="$verdict" \
        'BEGIN { printf "pair %2d  parent %.3f  change %.3f  %+6.1f %%  %s\n", i, p, c, (c / p - 1) * 100, v }'
done

# Quartiles by linear interpolation between order statistics.
quartiles() {
    printf '%s\n' "$@" | sort -g | awk '
        { x[NR] = $1 }
        function q(f,   h, lo) { h = (NR - 1) * f + 1; lo = int(h); return x[lo] + (h - lo) * (x[lo < NR ? lo + 1 : lo] - x[lo]) }
        END { printf "%.4f %.4f %.4f\n", q(0.25), q(0.5), q(0.75) }'
}
read -r p1 p2 p3 < <(quartiles "${p_runs[@]}")
read -r c1 c2 c3 < <(quartiles "${c_runs[@]}")
echo "parent run_s  q1 $p1  median $p2  q3 $p3"
echo "change run_s  q1 $c1  median $c2  q3 $c3"
awk -v p1="$p1" -v p2="$p2" -v p3="$p3" -v c2="$c2" -v won="$won" -v lost="$lost" -v n="$pairs" 'BEGIN {
    gap = p2 - c2; iqr = p3 - p1
    printf "median %+.1f %% (gap %.4f s, parent IQR %.4f s: gap %s IQR); change won %d, lost %d of %d pairs\n",
        (c2 / p2 - 1) * 100, gap, iqr, (gap > iqr) ? ">" : "<=", won, lost, n
    printf "gain by choosing-metrics §8 (>= 9/10 of pairs, gap > parent IQR): %s\n",
        (won * 10 >= n * 9 && gap > iqr) ? "shown" : "not shown" }'
echo "sim_digest $p_digest on both sides"
