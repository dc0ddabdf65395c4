#!/usr/bin/env bash
# Local CI gate: everything a PR must pass before merging.
#
#   scripts/ci.sh
#
# Runs the release build (the tier-1 artifact), the full workspace test
# suite, format and clippy gates (warnings promoted to errors), the
# release parity smokes, the benchmark's own checks, the evidence checks
# (every committed results/*.csv still has a producing repro row, the
# deterministic simulator rows reproduce theirs byte for byte, and every
# BENCH_<n>.json reduces again from its run log), the orphan gate (every
# library `pub fn` has a caller outside tests), the knob gate (every
# `EngineConfig` and `DeploymentConfig` field has a non-test setter or a
# pending decision),
# the fence gate (streaming stores and their one fence live in
# agora-math::simd only) and the tier gate (no `== SimdTier::Avx2`
# dispatch outside simd.rs).
# Fails fast.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== results/*.csv each have a producer =="
for csv in results/*.csv; do
    stem=$(basename "$csv" .csv)
    if ! grep -rqF "\"$stem\"" crates/bench/src; then
        echo "$csv: no repro row under crates/bench/src writes \"$stem\" — delete it with its producer"
        exit 1
    fi
done

echo "== every pub fn has a non-test caller =="
# A `pub fn` declared in the non-test part of a library file (above its
# first #[cfg(test)]) must be named somewhere else outside tests: in the
# non-test part of another .rs file (a lib.rs `pub use …;` re-export is
# not a caller; tests/ and crates/*/tests/ are not callers) or elsewhere
# in the non-test part of its own file. A function only tests call
# belongs under #[cfg(test)], or in the `oracles` list below with the
# test that needs it public. Word-level, so a name shared with a live
# item passes; it catches the whole-clump orphans. The bench crate's
# bins are entry points, not API. Reads benchmark/src, never writes it.
# Names a trait impl or a std convention calls without naming the file:
allow=" new default len is_empty fmt "
# Functions only tests call that another crate's tests need public (a
# scalar oracle, a harness helper), each with a test that needs it:
oracles="
unpack_samples     agora-core kernels::tests::fused_unpack_forward_matches_naive_pipeline,
                   agora-fronthaul rru::tests::pilot_symbol_survives_fft_roundtrip
wait_next          tests/uplink_integration.rs::paced_processing_tracks_frame_rate
"
words=$(mktemp)
trap 'rm -f "$words"' EXIT
# The awk reads each file to its end: exiting at the first #[cfg(test)]
# would kill the producer with SIGPIPE, which pipefail turns into a
# failure whenever the test part outgrows the pipe buffer.
find crates examples src benchmark/src -name '*.rs' -not -path '*/target/*' -not -path '*/tests/*' |
    while read -r f; do
        case "$f" in
        */lib.rs) perl -0pe 's/^\s*pub use [^;]*;//mg' "$f" ;;
        *) cat "$f" ;;
        esac | awk '/#\[cfg\(test\)\]/ { test = 1 } !test { print }' |
            grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort -u | sed "s|^|$f |"
    done >"$words"
orphans=0
for f in $(find crates/*/src -name '*.rs' -not -path 'crates/bench/*' | sort); do
    body=$(awk '/#\[cfg\(test\)\]/ { exit } { print }' "$f")
    for name in $(grep -oE 'pub (const |unsafe )*fn [a-z_0-9]+' <<<"$body" | awk '{ print $NF }' | sort -u); do
        case "$allow" in *" $name "*) continue ;; esac
        grep -qE "^$name " <<<"$oracles" && continue
        [ "$(grep -ow "$name" <<<"$body" | wc -l)" -gt 1 ] && continue
        awk -v f="$f" -v n="$name" '$2 == n && $1 != f { found = 1; exit } END { exit !found }' "$words" && continue
        echo "$f: pub fn $name has no caller outside tests"
        orphans=$((orphans + 1))
    done
done
if [ "$orphans" -ne 0 ]; then
    echo "$orphans pub fn(s) only tests call: delete them with their tests, move them under"
    echo "#[cfg(test)], or list them in scripts/ci.sh's oracles with the test that needs them"
    exit 1
fi

echo "== every EngineConfig / DeploymentConfig knob has a non-test setter or a decision pending =="
# A `pub` field of `EngineConfig` or `DeploymentConfig` that nothing but
# tests assigns is a switch with no harness: make it a constant. A field
# passes when a non-test file (the bench bins, the examples, the
# benchmark, the non-test part of crates/core/src) assigns it through a
# binding (`cfg.field = …`), or when it is listed here with who decides
# it. The `parity` bin is not a setter: it is the release-build test
# suite.
# Word-level like the orphan gate: `SimConfig` shares `batch`, which is
# why it is listed, not grepped.
decided="
cell               argument of EngineConfig::new
num_workers        argument of EngineConfig::new
cells              argument of DeploymentConfig::new
total_workers      argument of DeploymentConfig::new
batch              Table 3 / SimConfig::batch (repro table4_ablation, ext_ablations)
frame_window       deployment sizing (buffer window); ROADMAP 8(d)
rx_batch           deployment sizing (packets per recvmmsg poll)
pin_cores          deployment setting (CPU pinning)
"
setters=$(mktemp)
trap 'rm -f "$words" "$setters"' EXIT
for f in $(find crates/bench/src examples benchmark/src crates/core/src -name '*.rs' \
    -not -path crates/bench/src/bin/parity.rs); do
    awk '/#\[cfg\(test\)\]/ { exit } { print }' "$f"
done >"$setters"
knobs=0
while read -r config field; do
    grep -qE "^$field " <<<"$decided" && continue
    grep -qE "\.$field(\.[a-z_0-9]+)? = " "$setters" && continue
    echo "$config::$field is assigned by no non-test file"
    knobs=$((knobs + 1))
done < <(scripts/ledger.sh | awk '$1 == "EngineConfig" || $1 == "DeploymentConfig" {
    for (i = 3; i <= NF; i++) print $1, $i }')
if [ "$knobs" -ne 0 ]; then
    echo "$knobs knob(s) only tests can turn: make them constants and delete the other path,"
    echo "or list them in scripts/ci.sh with the ROADMAP item that decides them"
    exit 1
fi

echo "== streaming stores: one home, one fence =="
simd=crates/mimo-math/src/simd.rs
strays=$(grep -rlE '_mm_sfence|_mm256_stream_ps' --include='*.rs' . \
    --exclude-dir=target --exclude-dir=.bench_build | grep -vx "./$simd" || true)
if [ -n "$strays" ]; then
    echo "streaming-store intrinsics outside $simd (use stream_copy + stream_fence):"
    echo "$strays"
    exit 1
fi
fences=$(grep -c '_mm_sfence' "$simd")
if [ "$fences" -ne 1 ]; then
    echo "$simd: $fences _mm_sfence sites, want 1 — stream_fence() is the only fence,"
    echo "issued once per task by the caller, never per copy"
    exit 1
fi

echo "== tier dispatch: a wider tier never falls to a narrower body =="
# Tiers are ordered and a kernel with no body of its own for a tier runs
# the widest one below it, so dispatch tests `>= SimdTier::Avx2` (or
# names every tier it takes). `== SimdTier::Avx2` would send the AVX-512
# tier to the scalar body without a word.
tests=$(grep -rnE '[!=]= SimdTier::Avx2\b' --include='*.rs' crates tests examples benchmark/src src \
    | grep -v '^crates/mimo-math/src/simd.rs:' || true)
if [ -n "$tests" ]; then
    echo "$tests"
    echo "compare tiers with >= (SimdTier is ordered), not == / != SimdTier::Avx2"
    exit 1
fi

echo "== cargo build --release =="
cargo build --release

echo "== cargo test -q =="
cargo test --workspace -q

echo "== plane alignment, every IQ sample word, every LLR magnitude, every payload: release profile =="
# Allocation paths differ between profiles (and the debug run above does
# not see the optimised `alloc_zeroed`). The exhaustive unpack (2^24
# sample words), quantiser-rounding (every float in [0, 127]) and payload
# (the word generator against the bit-serial `mac_payload` for every
# frame < 8, symbol < 14, user < 16 of the 64x16 cell) checks are ignored
# in debug builds.
cargo test --release -q -p agora-core --lib -- buffers::tests \
    kernels::tests::every_sample_word_unpacks_alike_on_every_tier \
    kernels::tests::every_64x16_payload_matches_mac_payload
cargo test --release -q -p agora-phy --lib -- demod::simd_tests::rounding_matches_the_quantiser

echo "== parity smokes =="
cargo run --release -q -p agora-bench --bin parity

echo "== evidence reproduces: the deterministic simulator rows rewrite their CSVs unchanged =="
# `fig7_ccdf` is deterministic too but takes ~30 s; run it by hand when
# the simulator or the frame table changes.
cargo run --release -q -p agora-bench --bin repro -- fig6_latency fig8_scalability \
    fig10_datamove fig11_sync fig13_breakdown ext_ablations >/dev/null
git diff --exit-code -- 'results/*.csv'

echo "== every BENCH_<n>.json reduces again from its run log =="
# scripts/ab.sh's reduction of results/logs/pr<n>_benchmark_runs.txt with
# BENCHMARK.json's metrics (per-layer ones against a bound of 0.25): every
# row the committed file holds must equal the recomputed row of the same
# workload and metric. Rows the reducer added later (`failed_share`) are
# not required of older files.
mapfile -t metrics < <(jq -r '(.end_to_end[] | "\(.name):\(.better):\(.bound)"),
    (.per_layer[] | "\(.name):\(.better):0.25")' BENCHMARK.json)
for bench in BENCH_*.json; do
    n=${bench#BENCH_} && n=${n%.json}
    fresh=$(cargo run --release -q -p agora-bench --bin ab -- \
        "results/logs/pr${n}_benchmark_runs.txt" "${metrics[@]}")
    stale=$(jq -r --argjson fresh "$fresh" '.workloads[] as $row
        | select([$fresh.workloads[] | select(.workload == $row.workload and .metric == $row.metric)]
            != [$row])
        | "\($row.workload) \($row.metric)"' "$bench")
    if [ -n "$stale" ]; then
        echo "$bench: rows that its log does not reduce to:"
        echo "$stale"
        exit 1
    fi
done

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== benchmark self-checks =="
benchmark/check.sh

echo "CI OK"
