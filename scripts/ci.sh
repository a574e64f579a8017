#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green.
#
#   scripts/ci.sh   # build + tests, chaos / engine-differential / figure /
#                   # scale smokes, perfbench build + smoke tests, the
#                   # frozen-paths guard (+ fmt/clippy when installed)
#
# Everything but fmt/clippy is mandatory; those two run only where the
# components are installed so the gate works on minimal toolchains.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release --workspace

# Includes the oracles the fast paths are held to: the trace renderer
# against the `core::fmt` formatting it replaced, the hash tracer against
# the rendered text, the superseding timer against the eager idiom, and
# the wheel's structural audit after every op of the heap-vs-wheel
# differential.
echo "== cargo test (workspace) =="
cargo test --workspace -q

# Chaos smoke: 8 fixed seeds x {low,high} x {PASE,DCTCP} x
# {fabric,host,gray,overload} fault storms at the quick profile, checked
# by the global invariant oracle. The host class adds NIC flap trains
# and end-host crash/restart storms; the gray class adds degrade trains
# (stochastic loss, corruption, latency inflation) with health-aware
# rerouting on; the overload class adds control-plane storms (amplified
# arbitrator inbox charges plus flash-crowd flows) exercising the
# bounded-inbox shed path, with no host crashes so every flow must
# complete; every abort must be attributable to an injected fault.
# A failing seed prints the exact command line that replays just that
# case (all 128 cases run in well under a minute at one job).
# JOBS is pinned (default 2) rather than auto-detected so CI timing is
# reproducible across machines; results are byte-identical either way.
# The last line, `sweep_digest=0x...`, hashes every case's trace and stats
# hashes in case order (event counts are in neither): it must equal the
# committed scripts/chaos_ci.digest, so a change that claims "model
# identical" fails here if it is not. A change that means to move the
# model updates that file and says why.
echo "== chaos smoke (8 seeds, fabric+host+gray+overload, quick, ${JOBS:-2} jobs) =="
chaos_out=$(./target/release/chaos --seeds 8 --faults all --quick --jobs "${JOBS:-2}")
echo "$chaos_out"
if [ "$(echo "$chaos_out" | tail -n 1)" != "$(cat scripts/chaos_ci.digest)" ]; then
    echo "chaos smoke: sweep digest differs from scripts/chaos_ci.digest" \
        "($(cat scripts/chaos_ci.digest)): the model changed" >&2
    exit 1
fi

# Scheduler-engine differential: the same 8-seed chaos slice, each case
# run once on the reference binary-heap engine and once on the timing
# wheel inside one process, must produce identical per-case trace hashes,
# stats fingerprints and event counts — the wheel is a drop-in replacement
# for the heap, not approximately one. A diverging case prints its replay
# command.
echo "== scheduler differential (heap vs wheel, 8 seeds, quick, ${JOBS:-2} jobs) =="
./target/release/engine_diff --seeds 8 --faults all --quick --jobs "${JOBS:-2}"

# Figure-registry smoke: `--only` picks figures by registry id, prints
# them without touching EXPERIMENTS.md, and exits non-zero if a cell came
# from a truncated run. One plain sweep plus all four fault tables, which
# share one run path (`RunSpec::run_with` under `figs::common::grid`).
# From a temp dir so nothing lands in the repo.
FIGS=fig09a,ext_faults,ext_link_flap,ext_gray,ext_overload
echo "== figure registry smoke (run_all --quick --only $FIGS) =="
(cd "$(mktemp -d)" && "$OLDPWD/target/release/run_all" --quick --only "$FIGS" \
    --jobs "${JOBS:-2}" >/dev/null)

# Production-scale smoke: build the k=8 fat-tree (128 hosts) under PASE,
# audit the compact interval FIBs, run a 2k-flow incast slice twice with
# invariants (packet conservation included) under the dual-run
# byte-identical-trace discipline, and hold the process to a peak-RSS
# budget and the scheduler to a peak pending-event bound. Catches scale
# regressions (dense route tables, per-flow metric blowup, one queued
# timer per packet) that the small-topology tests can't see. Then a
# build-only k=32 stage (8192 hosts, no flows, ~5 s): sampled FIBs and
# the arbitration tree against the fat-tree's coordinates, under an RSS
# budget of its own.
echo "== scale smoke (k=8 fat-tree, 2k-flow incast, dual-run; k=32 build) =="
./target/release/scale_smoke

# The repo benchmark is a package of its own compiled against the
# crates' public API: build it and run its smoke tests here so API drift
# fails this gate, not the benchmark run. The smoke profile runs all
# five workloads and every microbench (wheel near/far horizon and heap
# push/pop among them) at tiny sizes.
echo "== perfbench (build + smoke tests) =="
cargo build --release --manifest-path perfbench/Cargo.toml
cargo test --manifest-path perfbench/Cargo.toml -q

# Frozen paths: perfbench/ and BENCHMARK.json change only in `benchmark`
# PRs. Building must not rewrite them either — a crate that drops a
# dependency makes cargo rewrite perfbench/Cargo.lock, and this is where
# that shows.
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    echo "== frozen paths (perfbench/, BENCHMARK.json untouched) =="
    frozen=$(git status --short perfbench BENCHMARK.json)
    if [ -n "$frozen" ]; then
        echo "frozen benchmark paths differ from the committed tree:" >&2
        echo "$frozen" >&2
        exit 1
    fi
fi

if cargo fmt --version >/dev/null 2>&1; then
    echo "== cargo fmt --check =="
    cargo fmt --all -- --check
else
    echo "== cargo fmt not installed; skipping =="
fi

if cargo clippy --version >/dev/null 2>&1; then
    echo "== cargo clippy -D warnings =="
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "== cargo clippy not installed; skipping =="
fi

# The size every gate log carries (ROADMAP north-star 2; CHANGES.md
# reports the same three totals before and after).
echo "== scripts/loc.sh =="
scripts/loc.sh

echo "CI gate passed."
