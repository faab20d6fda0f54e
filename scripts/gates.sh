#!/usr/bin/env bash
# Every figure / bench gate CI enforces, as one script that runs the
# same locally: `scripts/gates.sh [OUT_DIR]` (default: a fresh temp dir;
# outputs are kept there for inspection). Runs *every* gate, prints one
# PASS/FAIL line each with the gate's wall-clock seconds — a FAIL names
# the gate and shows the first differing line (or the tail of the
# failing binary's stderr) — ends with the build's and the whole run's
# seconds, and exits 1 if any failed.
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
#                         excluded, stay at or below the pin (ROADMAP 5(e):
#                         the pin only ever falls)
#   count:panics:*        the same count under crates/{serial,baselines,
#                         http,wasi,vkernel,platform,wasm,bench}/src
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

# count GATE CRATE PIN: the crate's panic sites number at most PIN.
count() {
    local sites total
    gate_start=$EPOCHREALTIME
    sites=$(panic_sites "$2")
    total=$(printf '%s\n' "$sites" | awk '{ n += $1 } END { print n + 0 }')
    if [ "$total" -le "$3" ]; then
        pass "$1"
    else
        fail "$1" "$total panic sites, pinned at <= $3:
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
# register.rs 3 (an 8-byte `chunks_exact` chunk split into two 4-byte
# words; two host-call arguments typed by the import's signature).
count count:panics:wasi wasi 3
# buffer.rs 3 (segment pops behind a length or emptiness check), sched.rs 4
# (a timeline's lane heap, never empty: capacity >= 1 is checked at
# construction; a node removal that keeps at least one survivor; two mesh
# rebuilds that take each old pair exactly once).
count count:panics:vkernel vkernel 7
# loadgen/engine.rs 1 (a queue-drain pick only names lanes with queued
# arrivals), metrics.rs 2 (`replicate` over non-empty runs; the P² marker
# search, whose first marker bounds the observation), scheduler.rs 1 (a
# placement over a non-empty resource view), sweep.rs 1 (the pool filled
# every slot before the scope joined), warmpool.rs 1 (an eviction from a
# slot over its cap), wordhash.rs 1 (the hasher is only fed u64 keys),
# workflow.rs 1 (a node's input exists before it runs).
count count:panics:platform platform 8
# compile.rs 10 (six control-frame pops and peeks and one call target,
# over a body validation already accepted; three `unreachable!` arms for
# ops only the callers' other arms produce: a non-numeric instruction, a
# non-branch patch, a structured instruction), decode.rs 4 (a float
# immediate's `try_into` over a slice read at exactly 4 or 8 bytes),
# encode.rs 2 (an opcode-table arm the match covers; `unwrap()` in a
# rustdoc example), interp.rs 2 (a return pops the frame it runs in; an op
# dispatched before the counted match), validate.rs 4 (control-frame pops
# and peeks: the function's own frame stays pushed until its body ends).
count count:panics:wasm wasm 22
# bench is the figure harness, where a panic is the failing gate itself:
# lib.rs 23 (deploys of the SDK's constant guests, their warm-up, serial
# and pair transfers, a breakdown the transfer just recorded, two
# `unreachable!` arms for baselines another branch measures), fig13.rs 10,
# fig12.rs 7, fig16.rs 7, fig14.rs 6, fig15.rs 6 (load runs over each
# figure's own configs, percentiles, pools and goodput of runs that
# completed instances, cells the sweep itself built, and fig14's
# self-healing claim), bin/bench_wasm.rs 8 (constant kernel guests
# validated, instantiated and invoked; the `BENCH_wasm.json` write),
# bin/fig11_dag.rs 4 (the three constant scenarios deployed and run; an
# acyclic DAG's critical path), bin/fig15_coldstart.rs 1 and
# bin/fig16_overload.rs 1 (the `BENCH_*.json` write), bin/fig2b.rs 1 (an
# `unreachable!` arm for the systems the loop does not visit).
count count:panics:bench bench 74

produce bench_wasm.json bench_wasm --quick

echo
total=$(seconds "$run_start")
if [ ${#failed[@]} -eq 0 ]; then
    echo "all gates pass in $total s (outputs in $out)"
else
    echo "${#failed[@]} gate(s) failed in $total s: ${failed[*]} (outputs in $out)"
    exit 1
fi
