#!/usr/bin/env bash
# Every figure / bench gate CI enforces, as one script that runs the
# same locally: `scripts/gates.sh [OUT_DIR]` (default: a fresh temp dir;
# outputs are kept there for inspection). Runs *every* gate, prints one
# PASS/FAIL line each — a FAIL names the gate and shows the first
# differing line (or the tail of the failing binary's stderr) — and
# exits 1 if any failed.
#
# Gates, by name:
#   run:<output>          the binary exited 0 (each asserts its own
#                         claims internally: fig11 critical-path bounds,
#                         fig12 contention ordering, fig13 autoscaled p95,
#                         fig14 self-healing, fig15 / fig16 pool and
#                         overload ratios, bench_wasm's results and
#                         counts)
#   memo:fig1{2,3}        memoized output == --no-memo output
#   pass:BENCH_*.json     the committed full-run gate block says pass
#   reference:fig1{1..6}  --quick output == crates/bench/reference/*.json
#   count:panics:core     lines with `unwrap()` / `expect(` / `panic!` /
#                         `unreachable!` above each file's `#[cfg(test)]`
#                         under crates/core/src stay at or below the pin
#                         (ROADMAP 5(e): the pin only ever falls)
#   count:panics:*        the same count under crates/{serial,baselines,
#                         http,wasi,vkernel,platform}/src
#
# Worker-count independence (one worker == four) is not a gate here:
# crates/bench/tests/sweep_golden.rs checks it for fig12-fig16 in tier-1.
#
# Known red since before PR 12, the only one, not weakened or skipped
# here (see crates/platform/src/memo.rs "Soundness contract" and the two
# ignored tests in tests/memo_properties.rs):
#   memo:fig12  `spread` roadrunner rows — per-function placement makes
#               the memo (a) replay the one-off TCP connection
#               establishment recorded on a shim pair's first network
#               edge, and (b) re-inject the payload when a miss follows a
#               hit. Whole-instance placements (every other row) agree.
#               fig14's `link_flap` / `kill_fixed` rows differ from
#               `--no-memo` for the same two causes (the health epoch
#               forces re-recording, instances abort mid-flight); CI
#               never diffed fig14 against `--no-memo`, so that gate is
#               for the PR that fixes the memo to add, green.
set -u

root=$(cd "$(dirname "$0")/.." && pwd)
out=${1:-$(mktemp -d "${TMPDIR:-/tmp}/roadrunner-gates.XXXXXX")}
mkdir -p "$out"
out=$(cd "$out" && pwd)
cd "$root" || exit 2

cargo build --release --offline -p roadrunner-bench --bins || exit 2
bin=${CARGO_TARGET_DIR:-$root/target}/release

failed=()
pass() { echo "PASS  $1"; }
fail() {
    echo "FAIL  $1"
    [ -n "${2:-}" ] && printf '%s\n' "$2" | sed 's/^/      /'
    failed+=("$1")
}

# produce OUTPUT BINARY [ARGS..]: stdout to $out/OUTPUT.json, run from
# $out so bench_wasm writes its BENCH_wasm.json there and not over the
# committed one.
produce() {
    local name=$1 exe=$2
    shift 2
    if (cd "$out" && "$bin/$exe" "$@" > "$name.json" 2> "$name.err"); then
        pass "run:$name"
    else
        fail "run:$name" \
            "$(grep -m1 -A2 'panicked at' "$out/$name.err" || tail -n 4 "$out/$name.err")"
    fi
}

# same GATE A B: byte identity; on failure the first differing line of
# each side.
same() {
    if cmp -s "$2" "$3"; then
        pass "$1"
    else
        fail "$1" "$(diff "$2" "$3" | head -n 4)"
    fi
}

produce fig11 fig11_dag --quick

for fig in fig12_load fig13_elastic fig14_failures fig15_coldstart fig16_overload; do
    produce "${fig%%_*}" "$fig" --quick
done
for fig in fig12_load fig13_elastic; do
    n=${fig%%_*}
    produce "$n.plain" "$fig" --quick --no-memo
    same "memo:$n" "$out/$n.json" "$out/$n.plain.json"
done

# The committed full-run documents carry their own verdict.
for doc in BENCH_coldstart.json BENCH_overload.json; do
    if grep -q '"pass": true' "$doc"; then
        pass "pass:$doc"
    else
        fail "pass:$doc" "$(grep -n '"pass"' "$doc" | head -n 3)"
    fi
done

# After every bench above, so nothing they write can slip past it.
for n in fig11 fig12 fig13 fig14 fig15 fig16; do
    same "reference:$n" "$out/$n.json" "crates/bench/reference/${n}_quick.json"
done

# panic_sites CRATE: non-test lines of crates/CRATE/src that can panic
# by construction, one "count file" line per file that has any.
panic_sites() {
    find "crates/$1/src" -name '*.rs' | sort | while read -r f; do
        n=$(awk '/^#\[cfg\(test\)\]/ { exit } { print }' "$f" |
            grep -c 'unwrap()\|expect(\|panic!\|unreachable!')
        [ "$n" -gt 0 ] && echo "$n $f"
    done
}

# count GATE CRATE PIN: the crate's panic sites number at most PIN.
count() {
    local sites total
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
# payload.rs 1 (`from_utf8` over a constant ASCII alphabet),
# text/reference.rs 1 and text/differential.rs 1 (whole files compiled
# under `text.rs`'s `#[cfg(test)] mod` lines: the oracle's hex digit of a
# nibble, the differential suite's own failure report), binary.rs 1 and
# value.rs 1 (`unwrap()` in a rustdoc example).
count count:panics:serial serial 8
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
# 9 in library code: engine.rs 1 (a queue-drain pick only names lanes with
# queued arrivals), metrics.rs 2 (`replicate` over non-empty runs; the P²
# marker search, whose first marker bounds the observation), scheduler.rs 1
# (a placement over a non-empty resource view), sweep.rs 1 (the pool
# filled every slot before the scope joined), warmpool.rs 1 (an eviction
# from a slot over its cap), wordhash.rs 1 (the hasher is only fed u64
# keys), workflow.rs 2 (a node's input exists before it runs, in both
# engines). loadgen/tests.rs 40: a whole file compiled under mod.rs's
# `#[cfg(test)] mod tests;` line, which the counter cannot see as gated.
count count:panics:platform platform 49

produce bench_wasm bench_wasm --quick

echo
if [ ${#failed[@]} -eq 0 ]; then
    echo "all gates pass (outputs in $out)"
else
    echo "${#failed[@]} gate(s) failed: ${failed[*]} (outputs in $out)"
    exit 1
fi
