#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green.
#
#   scripts/ci.sh   # build + tests, chaos / engine-differential / scale
#                   # smokes, the pinned quick figure sweep, the asserting
#                   # examples and the pinned packet trace, perfbench
#                   # build + smoke tests, the frozen-paths guard, the
#                   # rustdoc gate (+ fmt/clippy when installed)
#
# Everything but fmt/clippy is mandatory; those two run only where the
# components are installed so the gate works on minimal toolchains.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release --workspace

# Includes the oracles the fast paths are held to: the hash tracer
# against the rendered text, the superseding timer against the eager
# idiom, the wheel's structural audit after every op of the
# heap-vs-wheel differential, and the band queue discipline, in each of
# its three shapes, against a reference FIFO per band written from the
# RED/ECN law (prop_qdiscs.rs).
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
# The last three lines: the sweep's events by kind, the timer arms
# superseded and the data packets delivered; `stats_digest=0x...`, every
# case's stats hash in case order; `sweep_digest=0x...`, every case's
# trace and stats hashes in case order (event counts are in neither
# digest). All three must equal the committed scripts/chaos_ci.digest,
# so a change that claims "model identical" fails here if it is not, and
# so does one that spends more events on the same model (the event
# budget, as scale_smoke pins its own). A change to the trace format
# alone moves only `sweep_digest`. A change that means to move any of
# them updates that file and says why.
echo "== chaos smoke (8 seeds, fabric+host+gray+overload, quick, ${JOBS:-2} jobs) =="
chaos_out=$(./target/release/chaos --seeds 8 --faults all --quick --jobs "${JOBS:-2}")
echo "$chaos_out"
if [ "$(echo "$chaos_out" | tail -n 3)" != "$(cat scripts/chaos_ci.digest)" ]; then
    echo "chaos smoke: event budget, stats digest or sweep digest differs from" \
        "scripts/chaos_ci.digest: the model, its event count or its trace changed" >&2
    diff <(cat scripts/chaos_ci.digest) <(echo "$chaos_out" | tail -n 3) >&2 || true
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

# Figure sweep: every registry figure at the quick profile, from a temp
# dir so nothing lands in the repo; run_all exits non-zero if a cell came
# from a truncated run or from one that violated an invariant (every
# case but fig03's toy runs under the invariant oracle). Every JSON file
# must match its line in the committed scripts/figs_ci.digest
# (`sha256sum` output, one line per file, byte-sorted), and the files
# written must be exactly the files
# listed — the one pin on every scheme's figure cells (PDQ, pFabric, TCP,
# D2TCP and L2DCT run nowhere else in this gate). A mismatch names the
# figure that moved. Byte-identical at any --jobs. A change that means to
# move a figure updates that file's line and says why.
echo "== figure sweep (run_all --quick, all figures, ${JOBS:-2} jobs) =="
figs_tmp=$(mktemp -d)
(cd "$figs_tmp" && "$OLDPWD/target/release/run_all" --quick --out "$figs_tmp/out" \
    --jobs "${JOBS:-2}" >/dev/null)
figs_ok=1
(cd "$figs_tmp/out" && sha256sum -c --quiet "$OLDPWD/scripts/figs_ci.digest") || figs_ok=0
figs_written=$(cd "$figs_tmp/out" && LC_ALL=C ls -- *.json)
figs_listed=$(cut -d' ' -f3 scripts/figs_ci.digest)
if [ "$figs_written" != "$figs_listed" ]; then
    echo "figure sweep: files written differ from those in scripts/figs_ci.digest:" >&2
    diff <(echo "$figs_listed") <(echo "$figs_written") >&2 || true
    figs_ok=0
fi
rm -rf "$figs_tmp"
if [ "$figs_ok" != 1 ]; then
    echo "figure sweep: output differs from scripts/figs_ci.digest: a figure changed" >&2
    exit 1
fi
echo "figure sweep: $(wc -l <scripts/figs_ci.digest) files match scripts/figs_ci.digest"

# Production-scale smoke: build the k=8 fat-tree (128 hosts) under PASE,
# audit the compact interval FIBs, run a 2k-flow incast slice twice with
# invariants (packet conservation included) under the dual-run
# byte-identical-trace discipline, hold its trace digest, delivered
# packets and event count to constants pinned in the binary (the model
# identity check at scale), and hold the process to a peak-RSS
# budget and the scheduler to a peak pending-event bound. Catches scale
# regressions (dense route tables, per-flow metric blowup, one queued
# timer per packet) that the small-topology tests can't see. Then a
# build-only k=32 stage (8192 hosts, no flows, ~1 s: a ~0.25 s build,
# then every switch's FIB toward every host and the arbitration tree
# against the fat-tree's coordinates), under an RSS budget of its own.
echo "== scale smoke (k=8 fat-tree, 2k-flow incast, dual-run; k=32 build) =="
./target/release/scale_smoke

# The examples that assert (`cargo test` only compiles them):
# fault_injection runs PASE flows on a one-switch fabric whose every
# link loses 0 %, 0.1 %, 0.5 % and 2 % of its packets and asserts that
# every flow completes at every loss rate; quickstart asserts that a
# rack's flows complete in SRPT order; deadline_search asserts that PASE
# meets at least as many deadlines as DCTCP and as pFabric (~1 s
# together).
echo "== fault_injection example (every flow completes at every loss rate) =="
cargo run --release -q --example fault_injection
echo "== quickstart example (flows complete in SRPT order) =="
cargo run --release -q --example quickstart
echo "== deadline_search example (PASE meets >= DCTCP's and pFabric's deadlines) =="
cargo run --release -q --example deadline_search

# The one traced example: packet_trace prints every event of one PASE
# flow on a rack (115 lines), so its stdout pins the model, the trace
# format and the rack recipe's node ids and ports at once. Its sha256
# must equal the committed scripts/packet_trace.sha256; a change that
# means to move that trace updates the file and says why.
echo "== packet_trace example (stdout pinned by scripts/packet_trace.sha256) =="
trace_sum=$(cargo run --release -q --example packet_trace | sha256sum | cut -d' ' -f1)
if [ "$trace_sum" != "$(cat scripts/packet_trace.sha256)" ]; then
    echo "packet_trace: stdout sha256 $trace_sum differs from" \
        "scripts/packet_trace.sha256: the model, its trace or the rack changed" >&2
    exit 1
fi

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

# Rustdoc: every intra-doc link resolves and no public doc links to a
# private item, so a renamed type cannot leave its links rotting (a few
# seconds).
echo "== cargo doc -D warnings =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

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
