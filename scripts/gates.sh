#!/usr/bin/env bash
# Every figure / bench gate CI enforces, as one script that runs the
# same locally: `scripts/gates.sh [OUT_DIR]` (default: a fresh temp dir;
# outputs are kept there for inspection). Runs *every* gate, prints one
# PASS/FAIL line each with the gate's wall-clock seconds — a FAIL names
# the gate and shows the first differing line (or the tail of the
# failing binary's stderr) — ends with the build's and the whole run's
# seconds beside crates/'s Rust line count, and exits 1 if any failed.
#
# Gates, by name:
#   run:<output>          the binary exited 0 (each asserts its own
#                         claims internally: headline's claim table,
#                         fig11 critical-path bounds, fig12 contention
#                         ordering, fig13 autoscaled p95, fig14
#                         self-healing, fig15 / fig16 pool and overload
#                         ratios, bench_wasm's results and counts)
#   pass:BENCH_*.json     the committed full-run gate block says pass
#   reference:fig1{1..6}  --quick output == crates/bench/reference/*.json
#   reference:headline, reference:fig{2a,2b,6,7,8,9,10}
#                         the paper's own figures, --quick output (fig2a
#                         and fig6 take no flag) ==
#                         crates/bench/reference/*_quick.txt
#   reference:<example>   stdout of each example (quickstart,
#                         image_pipeline, traffic_analytics,
#                         mode_comparison, scatter_gather) ==
#                         crates/bench/reference/example_<example>.txt
#   count:panics:core     lines with `unwrap()` / `.expect(` / `panic!` /
#                         `unreachable!` above each file's first test item
#                         under crates/core/src, test-only child modules
#                         excluded, number exactly the pin (ROADMAP 5(e):
#                         the pin only ever falls, and a change that lowers
#                         a count re-pins it, so no pin goes stale)
#   count:panics:*        the same count under crates/{serial,baselines,
#                         http,wasi,vkernel,platform,wasm,bench}/src
#   check:docs            every backticked Rust-shaped name in DESIGN.md,
#                         README.md and EXPERIMENTS.md (`a`, `a::b`,
#                         `a::{b, c}`, `f(..)`, `m!`) is an identifier or
#                         file stem of the Rust under crates/,
#                         benchmark/src, examples/, tests/ or src/
#                         (comments stripped), or on the short list of
#                         outside names; sections under a heading that
#                         says "retired" or "history" are exempt. A
#                         failure prints file:line and the name
#   check:benchmark       benchmark/ (its own workspace, which imports the
#                         crates' public API) type-checks with every
#                         target, against its committed Cargo.lock
#   reference:benchmark   each benchmark workload's --smoke virt_digest
#                         for seeds 1 and 2 ==
#                         crates/bench/reference/benchmark_smoke_digests.txt
#                         (a host-only change leaves every virtual output
#                         of the benchmark as it was)
#
# Worker-count independence (one worker == four) is not a gate here:
# crates/bench/tests/sweep_golden.rs checks it for fig12-fig16 in tier-1.
# Nor is memo == plain: the load figures memoize only the baseline pairs,
# whose replay tests/memo_properties.rs checks under flaps and kills.
set -u

root=$(cd "$(dirname "$0")/.." && pwd)
out=${1:-$(mktemp -d "${TMPDIR:-/tmp}/roadrunner-gates.XXXXXX")}
mkdir -p "$out"
out=$(cd "$out" && pwd)
cd "$root" || exit 2

# seconds SINCE: wall-clock seconds from the $EPOCHREALTIME stamp SINCE
# to now.
seconds() { awk -v since="$1" -v now="$EPOCHREALTIME" 'BEGIN { printf "%.2f", now - since }'; }

run_start=$EPOCHREALTIME
cargo build --release --offline -p roadrunner-bench --bins || exit 2
cargo build --release --offline --examples || exit 2
echo "built in $(seconds "$run_start") s"
bin=${CARGO_TARGET_DIR:-$root/target}/release

# Each gate stamps gate_start as it begins; pass / fail print the
# seconds since beside the verdict.
failed=()
verdict() { printf '%s  %-28s %8s s\n' "$1" "$2" "$(seconds "$gate_start")"; }
pass() { verdict PASS "$1"; }
fail() {
    verdict FAIL "$1"
    [ -n "${2:-}" ] && printf '%s\n' "$2" | sed 's/^/      /'
    failed+=("$1")
}

# produce FILE BINARY [ARGS..]: stdout to $out/FILE (gate run:NAME for
# FILE = NAME.ext), run from $out so bench_wasm writes its BENCH_wasm.json
# there and not over the committed one.
produce() {
    local file=$1 exe=$2 name=${1%.*}
    shift 2
    gate_start=$EPOCHREALTIME
    if (cd "$out" && "$bin/$exe" "$@" > "$file" 2> "$name.err"); then
        pass "run:$name"
    else
        fail "run:$name" \
            "$(grep -m1 -A2 'panicked at' "$out/$name.err" || tail -n 4 "$out/$name.err")"
    fi
}

# same GATE A B: byte identity; on failure the first differing line of
# each side.
same() {
    gate_start=$EPOCHREALTIME
    if cmp -s "$2" "$3"; then
        pass "$1"
    else
        fail "$1" "$(diff "$2" "$3" | head -n 4)"
    fi
}

produce headline.txt headline --quick
produce fig2a.txt fig2a
produce fig6.txt fig6
for n in fig2b fig7 fig8 fig9 fig10; do
    produce "$n.txt" "$n" --quick
done

examples="quickstart image_pipeline traffic_analytics mode_comparison scatter_gather"
for n in $examples; do
    produce "$n.txt" "examples/$n"
done

produce fig11.json fig11_dag --quick

for fig in fig12_load fig13_elastic fig14_failures fig15_coldstart fig16_overload; do
    produce "${fig%%_*}.json" "$fig" --quick
done

# The committed full-run documents carry their own verdict.
for doc in BENCH_coldstart.json BENCH_overload.json; do
    gate_start=$EPOCHREALTIME
    if grep -q '"pass": true' "$doc"; then
        pass "pass:$doc"
    else
        fail "pass:$doc" "$(grep -n '"pass"' "$doc" | head -n 3)"
    fi
done

# After every bench above, so nothing they write can slip past it.
for n in headline fig2a fig2b fig6 fig7 fig8 fig9 fig10; do
    same "reference:$n" "$out/$n.txt" "crates/bench/reference/${n}_quick.txt"
done
for n in $examples; do
    same "reference:$n" "$out/$n.txt" "crates/bench/reference/example_$n.txt"
done
for n in fig11 fig12 fig13 fig14 fig15 fig16; do
    same "reference:$n" "$out/$n.json" "crates/bench/reference/${n}_quick.json"
done

# panic_sites CRATE: non-test lines of crates/CRATE/src that can panic
# by construction, one "count file" line per file that has any. A file
# counts up to its first `#[cfg(test)]` item, except one gating a
# `mod x;` line: that line is skipped, and the child it names (`x.rs`, or
# anything under `x/`, beside a `mod.rs` / `lib.rs` or in the declaring
# file's own directory) is test-only, so it and its children never count.
panic_sites() {
    local files skip f p n
    files=$(find "crates/$1/src" -name '*.rs' | sort)
    skip=$(for f in $files; do
        awk -v f="$f" '
            gated && /^(pub(\([^)]*\))? )?mod [A-Za-z0-9_]+;/ {
                name = $0; sub(/^.*mod /, "", name); sub(/;.*$/, "", name)
                dir = f; sub(/[^\/]*$/, "", dir)
                base = f; sub(/^.*\//, "", base); sub(/\.rs$/, "", base)
                if (base != "mod" && base != "lib" && base != "main") dir = dir base "/"
                print dir name ".rs"; print dir name "/"
            }
            { gated = /^#\[cfg\(test\)\]/ }' "$f"
    done)
    for f in $files; do
        for p in $skip; do
            case $f in "$p"*) continue 2 ;; esac
        done
        n=$(awk '
            /^#\[cfg\(test\)\]/ {
                if ((getline) > 0 && /^(pub(\([^)]*\))? )?mod [A-Za-z0-9_]+;/) next
                exit
            }
            { print }' "$f" |
            grep -c 'unwrap()\|\.expect(\|panic!\|unreachable!')
        [ "$n" -gt 0 ] && echo "$n $f"
    done
}

# count GATE CRATE PIN: the crate's panic sites number exactly PIN. A
# count below the pin fails too, naming the count to re-pin at.
count() {
    local sites total
    gate_start=$EPOCHREALTIME
    sites=$(panic_sites "$2")
    total=$(printf '%s\n' "$sites" | awk '{ n += $1 } END { print n + 0 }')
    if [ "$total" -eq "$3" ]; then
        pass "$1"
    elif [ "$total" -lt "$3" ]; then
        fail "$1" "$total panic sites, pinned at $3: re-pin at $total
$sites"
    else
        fail "$1" "$total panic sites, pinned at $3:
$sites"
    fi
}

# guest.rs 7 (module builders over constant input), api.rs 2 (arguments
# typed by the import's signature).
count count:panics:core core 9
# text.rs 3 (`to_text`'s `String::from_utf8` over bytes the encoder wrote as
# ASCII and whole `str` runs; two `write!` into a `Vec`, which cannot fail),
# payload.rs 1 (`from_utf8` over a constant ASCII alphabet), binary.rs 1 and
# value.rs 1 (`unwrap()` in a rustdoc example).
count count:panics:serial serial 6
# coldstart.rs 6 (the fig. 2a metered / hello / resize guests
# instantiated and run over constant SDK modules), wasmedge.rs 10 (the
# pair's sender and receiver: 2 instantiations of constant SDK modules,
# 6 results typed by the export's own signature, 2 memories those
# modules declare).
count count:panics:baselines baselines 16
# lib.rs 1 (`unwrap()` in a rustdoc example).
count count:panics:http http 1
# register.rs 2 (an 8-byte `chunks_exact` chunk split into two 4-byte
# words; a host-call argument typed by the import's signature).
count count:panics:wasi wasi 2
# buffer.rs 3 (segment pops behind a length or emptiness check), sched.rs 3
# (a timeline's lane heap, never empty: capacity >= 1 is checked at
# construction; a node removal that keeps at least one survivor;
# `link_between` asked for a node and itself, a documented panic).
count count:panics:vkernel vkernel 6
# loadgen/engine.rs 1 (a queue-drain pick only names lanes with queued
# arrivals), metrics.rs 2 (`replicate` over non-empty runs; the P² marker
# search, whose first marker bounds the observation), scheduler.rs 1 (a
# placement over a non-empty resource view), sweep.rs 1 (the pool filled
# every slot before the scope joined), warmpool.rs 1 (an eviction from a
# slot over its cap), wordhash.rs 1 (the hasher is only fed u64 keys),
# workflow.rs 1 (a node's input exists before it runs).
count count:panics:platform platform 8
# compile.rs 8 (six control-frame pops and peeks and one call target,
# over a body validation already accepted; one `unreachable!` arm for a
# structured instruction, which `seq` lowers before it gets there),
# encode.rs 2 (an opcode-table arm the match covers; `unwrap()` in a
# rustdoc example), interp.rs 2 (a return pops the frame it runs in; an
# op dispatched before the counted match), validate.rs 4 (control-frame
# pops and peeks: the function's own frame stays pushed until its body
# ends).
count count:panics:wasm wasm 16
# bench is the figure harness, where a panic is the failing gate itself:
# lib.rs 16 (deploys of the SDK's constant guests, their warm-up, serial
# and pair transfers, a breakdown the transfer just recorded, one
# `unreachable!` arm for the baselines, which deploy no plane), fig13.rs 10,
# fig12.rs 7, fig16.rs 7, fig14.rs 6, fig15.rs 6 (load runs over each
# figure's own configs, percentiles, pools and goodput of runs that
# completed instances, cells the sweep itself built, and fig14's
# self-healing claim), bin/bench_wasm.rs 8 (constant kernel guests
# validated, instantiated and invoked; the `BENCH_wasm.json` write),
# bin/fig11_dag.rs 4 (the three constant scenarios deployed and run; an
# acyclic DAG's critical path), bin/fig15_coldstart.rs 1 and
# bin/fig16_overload.rs 1 (the `BENCH_*.json` write), bin/fig2b.rs 1 (an
# `unreachable!` arm for the systems the loop does not visit).
count count:panics:bench bench 67

# Names the docs cite from outside the tree, one per line with why.
outside_names=$(awk '{ print $1 }' <<'NAMES'
vmsplice      Linux syscall the virtual pipe's gift splice models
memcpy        the C copy the data path counts and models
memset        C fill, weighed against plain stores in the frame arena
memmove       C overlapping copy, the interpreter's rare multi-value return
O_CREAT       POSIX open(2) flag the WASI host does not offer
SO_SNDBUF     socket option the kernel-space edge's one queued chunk mirrors
tc            Linux traffic control, the paper's link shaping tool
Vec::set_len  std method the interpreter's memory growth rejected
extend_i32_u  wasm mnemonic; the Rust opcode is I64ExtendI32U
br_table      wasm mnemonic the decoder refuses
nop           wasm mnemonic the decoder refuses
fib           the bench_wasm `calls` kernel's wasm function, which has no Rust name
vm_io         the cost model's VM-boundary copy, CostModel::vm_io_ns in code
bench_engine  the retired wall-clock engine binary, cited as history
NAMES
)

# doc_names FILE: "FILE:LINE NAME" for each backticked Rust-shaped name
# outside fenced code and history sections; `a::{b, c}` yields `a::b`
# and `a::c`, and a trailing call `(..)` or macro `!` is dropped.
doc_names() {
    awk -v f="$1" '
        /^```/ { fence = !fence; next }
        fence { next }
        /^#+ / {
            level = index($0, " ") - 1
            if (history && level <= history) history = 0
            if (!history && tolower($0) ~ /retired|history/) history = level
        }
        history { next }
        {
            line = $0
            path = "[A-Za-z][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)*"
            while (match(line, /`[^`]+`/)) {
                span = substr(line, RSTART + 1, RLENGTH - 2)
                line = substr(line, RSTART + RLENGTH)
                sub(/(\(.*\)|!)$/, "", span)
                if (span ~ ("^" path "$")) {
                    print f ":" FNR " " span
                } else if (span ~ ("^" path "::\\{[A-Za-z0-9_, ]+\\}$")) {
                    head = span
                    sub(/::\{.*$/, "", head)
                    leaves = substr(span, length(head) + 4)
                    n = split(substr(leaves, 1, length(leaves) - 1), leaf, /, */)
                    for (i = 1; i <= n; i++) print f ":" FNR " " head "::" leaf[i]
                }
            }
        }' "$1"
}

# A name is known if it, or each of its `::` segments, is a word of the
# Rust (outside `//` comments), a file stem there, or an outside name.
# benchmark/README.md joins once its stale `OpenLoop` line is fixed
# (ROADMAP 1(g)).
gate_start=$EPOCHREALTIME
rust=$(find crates benchmark/src examples tests src -name '*.rs' | sort)
stale=$(awk 'NR == FNR { known[$1]; next }
        $2 in known { next }
        { n = split($2, seg, "::"); for (i = 1; i <= n; i++) if (!(seg[i] in known)) { print; next } }' \
    <(printf '%s\n' $rust | xargs sed 's://.*$::' | grep -o '[A-Za-z_][A-Za-z0-9_]*'
      printf '%s\n' $rust | sed 's:^.*/::; s:\.rs$::'
      printf '%s\n' "$outside_names") \
    <(for doc in DESIGN.md README.md EXPERIMENTS.md; do doc_names "$doc"; done))
if [ -z "$stale" ]; then
    pass check:docs
else
    fail check:docs "$stale"
fi

produce bench_wasm.json bench_wasm --quick

# `--locked` fails the gate rather than rewrite benchmark/Cargo.lock.
gate_start=$EPOCHREALTIME
if cargo check --offline --locked --quiet --manifest-path benchmark/Cargo.toml --all-targets \
    > "$out/check_benchmark.err" 2>&1; then
    pass check:benchmark
else
    fail check:benchmark \
        "$(grep -m1 -A4 '^error' "$out/check_benchmark.err" || tail -n 4 "$out/check_benchmark.err")"
fi

# One "workload seed digest" line per smoke run; a run that fails or
# prints no digest reads "none".
gate_start=$EPOCHREALTIME
if cargo build --release --offline --locked --quiet --manifest-path benchmark/Cargo.toml \
    > "$out/build_benchmark.err" 2>&1; then
    benchmark=${CARGO_TARGET_DIR:-$root/benchmark/target}/release/roadrunner-benchmark
    for workload in hose_bulk hose_small baseline_codec edge_resize cluster_load; do
        for seed in 1 2; do
            digest=$("$benchmark" --workload "$workload" --seed "$seed" --smoke --trace 0 2>/dev/null |
                sed -n 's/^INFO .*"virt_digest": "\([0-9a-f]*\)".*/\1/p')
            echo "$workload $seed ${digest:-none}"
        done
    done > "$out/benchmark_smoke_digests.txt"
    # Not `same`: the gate's seconds include the build and the runs.
    if cmp -s "$out/benchmark_smoke_digests.txt" crates/bench/reference/benchmark_smoke_digests.txt; then
        pass reference:benchmark
    else
        fail reference:benchmark \
            "$(diff "$out/benchmark_smoke_digests.txt" crates/bench/reference/benchmark_smoke_digests.txt | head -n 4)"
    fi
else
    fail reference:benchmark \
        "$(grep -m1 -A4 '^error' "$out/build_benchmark.err" || tail -n 4 "$out/build_benchmark.err")"
fi

echo
total=$(seconds "$run_start")
# The size ROADMAP aim 2 tracks: every line of Rust under crates/, and
# each crate's share of it, counted the same way.
lines=$(find crates -name '*.rs' | xargs cat | wc -l)
for crate in crates/*/; do
    crate=${crate%/}
    printf '  %-20s %6d lines\n' "$crate" "$(find "$crate" -name '*.rs' | xargs cat | wc -l)"
done
printf '  %-20s %6d lines\n' "crates/" "$lines"
if [ ${#failed[@]} -eq 0 ]; then
    echo "all gates pass in $total s, crates/ at $lines lines of Rust (outputs in $out)"
else
    echo "${#failed[@]} gate(s) failed in $total s: ${failed[*]}; crates/ at $lines lines of Rust (outputs in $out)"
    exit 1
fi
