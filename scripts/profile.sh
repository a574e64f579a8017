#!/usr/bin/env bash
# Sampling profiler for any command, with nothing but a C compiler and
# binutils: where `perf` and `gdb` are missing, this is how to see which
# instructions a run spends its time on.
#
#   scripts/profile.sh [-s SYMBOL] [-n TOP] CMD [ARG...]
#
# Compiles a small LD_PRELOAD sampler into target/profile/, runs CMD
# under it, and prints
#   - the TOP (default 25) functions by share of samples, once by the
#     outermost frame (the function the code was compiled into) and once
#     by the innermost inlined frame (`addr2line -i`);
#   - with -s, the TOP hottest instructions of the outermost function
#     named SYMBOL (failing that, whose name contains it), each with its
#     source line (`objdump -d -l`).
# The sampler arms a 50 us CLOCK_MONOTONIC `timer_create` timer whose
# SIGPROF handler records the interrupted RIP. The kernel hands each
# tick to one thread of the process, a parked one too (a pool's joining
# main thread in its futex wait): a sample whose thread burned under
# half a period of CPU time since its own previous sample is counted on
# one `parked` line and left out of every share, so the shares are of
# running threads. (A CPU-clock timer would need no such test, but the
# kernel fires those only at its scheduler tick, every few ms.) The
# samples are written, one file per process, when the process exits
# normally. A stalled instruction is usually charged to the one after
# it. Build what you
# profile with line tables, or only symbols resolve, e.g.
#   CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \
#     cargo build --release --manifest-path perfbench/Cargo.toml
#   scripts/profile.sh -s netsim::engine::Scheduler::push \
#     perfbench/target/release/perfbench --workload fabric-dctcp --seconds 6 --trace 0
# Writes nothing outside target/profile/. A developer tool: ci.sh does
# not run it.
set -euo pipefail
usage() { sed -n '6p' "$0" >&2; exit 2; }
symbol='' top=25
while getopts s:n: opt; do
    case $opt in
        s) symbol=$OPTARG ;;
        n) top=$OPTARG ;;
        *) usage ;;
    esac
done
shift $((OPTIND - 1))
[ $# -ge 1 ] || usage

out=$(cd "$(dirname "$0")/.." && pwd)/target/profile
mkdir -p "$out"
rm -f "$out"/samples.*

# The sampler. Its destructor maps every RIP to (loaded object, address
# in that object's file) with dl_iterate_phdr, so PIE load bias and
# shared libraries need no post-processing.
cc -O2 -shared -fPIC -o "$out/sampler.so" -DOUT="\"$out/samples\"" -x c - <<'EOF'
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdio.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1L << 22)
#define PERIOD_NS 50000L
static unsigned long rips[MAX_SAMPLES];
static long taken, parked;
static timer_t timer;
static FILE *out;
static int objects;
/* The receiving thread's CPU time at its previous sample. */
static __thread __attribute__((tls_model("initial-exec"))) long last_cpu_ns;

static void on_prof(int sig, siginfo_t *si, void *uc) {
    struct timespec cpu;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &cpu);
    long now = cpu.tv_sec * 1000000000L + cpu.tv_nsec, ran = now - last_cpu_ns;
    last_cpu_ns = now;
    if (ran < PERIOD_NS / 2) {
        __atomic_fetch_add(&parked, 1, __ATOMIC_RELAXED);
        return;
    }
    long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES) rips[i] = ((ucontext_t *)uc)->uc_mcontext.gregs[REG_RIP];
}

__attribute__((constructor)) static void start(void) {
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    struct sigevent ev = {.sigev_notify = SIGEV_SIGNAL, .sigev_signo = SIGPROF};
    struct itimerspec every = {{0, PERIOD_NS}, {0, PERIOD_NS}};
    sigaction(SIGPROF, &sa, NULL);
    if (timer_create(CLOCK_MONOTONIC, &ev, &timer) == 0) timer_settime(timer, 0, &every, NULL);
}

/* One line per sample that falls in this object's executable segments. */
static int write_object(struct dl_phdr_info *info, size_t size, void *arg) {
    char exe[4096] = "";
    const char *name = info->dlpi_name;
    if (!*name) {
        ssize_t k = readlink("/proc/self/exe", exe, sizeof exe - 1);
        exe[k > 0 ? k : 0] = 0;
        name = exe;
    }
    long n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    fprintf(out, "object %d %s\n", ++objects, name);
    for (int p = 0; p < info->dlpi_phnum; p++) {
        const ElfW(Phdr) *ph = &info->dlpi_phdr[p];
        unsigned long lo = info->dlpi_addr + ph->p_vaddr, hi = lo + ph->p_memsz;
        if (ph->p_type != PT_LOAD || !(ph->p_flags & PF_X)) continue;
        for (long i = 0; i < n; i++)
            if (rips[i] >= lo && rips[i] < hi) fprintf(out, "%d 0x%016lx\n", objects, rips[i] - info->dlpi_addr);
    }
    return 0;
}

__attribute__((destructor)) static void stop(void) {
    char path[4200];
    timer_delete(timer);
    snprintf(path, sizeof path, "%s.%d", OUT, (int)getpid());
    if (!(out = fopen(path, "w"))) return;
    fprintf(out, "taken %ld\nparked %ld\n", taken, parked);
    dl_iterate_phdr(write_object, NULL);
    fclose(out);
}
EOF

LD_PRELOAD="$out/sampler.so" "$@" || echo "profile: the command exited with status $?" >&2

# "<count> <object path> <address>", one line per sampled address, over
# every process that ran.
for f in "$out"/samples.*; do
    awk '$1 == "object" { path[$2] = $3; next } $2 ~ /^0x/ { print path[$1], $2 }' "$f"
done | sort | uniq -c | sort -k2,2 -k3,3 >"$out/counts"
total=$(awk '$1 == "taken" { s += $2 } END { print s + 0 }' "$out"/samples.*)
parked=$(awk '$1 == "parked" { s += $2 } END { print s + 0 }' "$out"/samples.*)
[ "$total" -gt 0 ] || { echo "profile: no samples (did the command exit normally?)" >&2; exit 1; }

# Resolve every address, one row each:
#   "<count> <address>\t<object>\t<innermost>\t<outermost>"
# addr2line answers in input order, one group per address (innermost
# inlined frame first, then each frame it was inlined into), so its
# groups pair line by line with the counts they were read from.
for obj in $(awk '{ print $2 }' "$out/counts" | sort -u); do
    if [ ! -f "$obj" ]; then # the vDSO: name the object, not the function
        awk -v o="$obj" '$2 == o { printf "%s %s\t%s\t[%s]\t[%s]\n", $1, $3, o, o, o }' "$out/counts"
        continue
    fi
    paste <(awk -v o="$obj" '$2 == o { print $1, $3 }' "$out/counts") \
        <(awk -v o="$obj" '$2 == o { print $3 }' "$out/counts" |
            addr2line -a -f -i -C -e "$obj" |
            awk -v o="$obj" '
                function flush() { if (seen) printf "%s\t%s\t%s\n", o, inner, outer }
                /^0x/ { flush(); seen = 1; inner = ""; n = 0; next }
                n++ % 2 == 0 { outer = $0; if (inner == "") inner = $0 }
                END { flush() }')
done >"$out/resolved"

echo "profile: $total samples at 50 us ($(ls "$out"/samples.* | wc -l) process(es)); raw data in $out"
echo "parked: $parked samples taken by threads that were not running, left out of the shares"
# Top lists end in `awk 'NR <= n'`, not `head`: a `head` that exits
# early kills `sort` with SIGPIPE, which `pipefail` turns into an exit.
rank() { # $1 = column of resolved to rank by, $2 = heading
    echo
    echo "== top $top by $2 =="
    awk -F'\t' -v col="$1" -v total="$total" '
        { split($1, ca, " "); share[$col] += ca[1] }
        END { for (f in share) printf "%6.2f %%  %7d  %s\n", 100 * share[f] / total, share[f], f }' "$out/resolved" |
        sort -rn | awk -v n="$top" 'NR <= n'
}
rank 4 "outermost frame (the function compiled)"
rank 3 "innermost inlined frame"

[ -n "$symbol" ] || exit 0
echo
echo "== top $top instructions of the outermost function matching '$symbol' =="
# "<count> <address>" of every sample in the most-sampled object's
# functions named SYMBOL, or, if none is, whose name contains it.
match='index($4, s) && (!exact || $4 == s)'
exact=$(awk -F'\t' -v s="$symbol" '$4 == s { print 1; exit }' "$out/resolved")
obj=$(awk -F'\t' -v s="$symbol" -v exact="$exact" "$match"' { split($1, ca, " "); n[$2] += ca[1] }
    END { for (o in n) print n[o], o }' "$out/resolved" | sort -rn | awk 'NR == 1 { print $2 }')
[ -n "$obj" ] || { echo "no samples in a function matching '$symbol'"; exit 0; }
awk -F'\t' -v s="$symbol" -v exact="$exact" -v o="$obj" "$match"' && $2 == o { print $1 }' \
    "$out/resolved" >"$out/symbol"
awk -F'\t' -v s="$symbol" -v exact="$exact" -v o="$obj" "$match"' && $2 == o { print $4 }' \
    "$out/resolved" | sort -u | sed 's/^/  in: /'
read -r lo hi < <(awk '{ print $2 }' "$out/symbol" | sort | awk 'NR == 1 { lo = $0 } END { print lo, $0 }')
# objdump -l names the source line before each run of instructions it
# covers; keep the last one seen and print it beside each hot instruction.
objdump -d -l -C --no-show-raw-insn --start-address="$lo" --stop-address="$((hi + 16))" "$obj" |
    awk -v total="$total" '
        FNR == NR { a = $2; sub(/^0x0*/, "", a); hits[a] = $1; next }
        /^\/|^[^ ]+:[0-9]+/ { where = $1; sub(/.*\//, "", where); next }
        /^ *[0-9a-f]+:\t/ {
            a = $1; sub(/:$/, "", a); sub(/^0*/, "", a)
            if (a in hits) { insn = $0; sub(/^ *[0-9a-f]+:\t/, "", insn)
                printf "%6.2f %%  %6d  %8s  %-28s %s\n", 100 * hits[a] / total, hits[a], a, where, insn }
        }' "$out/symbol" - | sort -rn | awk -v n="$top" 'NR <= n'
