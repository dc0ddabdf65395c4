#!/usr/bin/env bash
# Local CI gate: everything a PR must pass before merging.
#
#   scripts/ci.sh
#
# Runs the release build (the tier-1 artifact), the full workspace test
# suite, format and clippy gates (warnings promoted to errors), the
# release parity smokes, the benchmark's own checks, the evidence checks
# (every committed results/*.csv still has a producing bin, and the
# deterministic simulator bins reproduce theirs byte for byte), the orphan
# gate (every library `pub fn` has a caller), the knob gate (every
# `EngineConfig` and `DeploymentConfig` field has a non-test setter or a
# pending decision) and
# the fence gate (streaming stores and their one fence live in
# agora-math::simd only).
# Fails fast.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== results/*.csv each have a producer =="
for csv in results/*.csv; do
    stem=$(basename "$csv" .csv)
    if ! grep -rqF "\"$stem\"" crates/bench/src; then
        echo "$csv: no bin under crates/bench/src writes \"$stem\" — delete it with its producer"
        exit 1
    fi
done

echo "== every pub fn has a caller =="
# A `pub fn` declared in the non-test part of a library file (above its
# first #[cfg(test)]) must be named somewhere else: in another .rs file
# (a lib.rs `pub use …;` re-export is not a caller) or elsewhere in the
# non-test part of its own file. Word-level, so a name shared with a
# live item passes; it catches the whole-clump orphans. The bench crate's
# bins are entry points, not API. Reads benchmark/src, never writes it.
# Names a trait impl or a std convention calls without naming the file:
allow=" new default len is_empty fmt "
words=$(mktemp)
trap 'rm -f "$words"' EXIT
find crates tests examples src benchmark/src -name '*.rs' -not -path '*/target/*' |
    while read -r f; do
        case "$f" in
        */lib.rs) perl -0pe 's/^\s*pub use [^;]*;//mg' "$f" ;;
        *) cat "$f" ;;
        esac | grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort -u | sed "s|^|$f |"
    done >"$words"
orphans=0
for f in $(find crates/*/src -name '*.rs' -not -path 'crates/bench/*' | sort); do
    body=$(awk '/#\[cfg\(test\)\]/ { exit } { print }' "$f")
    for name in $(grep -oE 'pub (const |unsafe )*fn [a-z_0-9]+' <<<"$body" | awk '{ print $NF }' | sort -u); do
        case "$allow" in *" $name "*) continue ;; esac
        [ "$(grep -ow "$name" <<<"$body" | wc -l)" -gt 1 ] && continue
        awk -v f="$f" -v n="$name" '$2 == n && $1 != f { found = 1; exit } END { exit !found }' "$words" && continue
        echo "$f: pub fn $name has no caller outside its own tests"
        orphans=$((orphans + 1))
    done
done
if [ "$orphans" -ne 0 ]; then
    echo "$orphans uncalled pub fn(s): delete them with their tests, or move them under #[cfg(test)]"
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
batch              Table 3 / SimConfig::batch (table4_ablation, ext_ablations)
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
    kernels::tests::every_sample_word_unpacks_alike_on_both_tiers \
    kernels::tests::every_64x16_payload_matches_mac_payload
cargo test --release -q -p agora-phy --lib -- demod::simd_tests::rounding_matches_the_quantiser

echo "== parity smokes =="
cargo run --release -q -p agora-bench --bin parity

echo "== evidence reproduces: the deterministic simulator bins rewrite their CSVs unchanged =="
# `fig7_ccdf` is deterministic too but takes ~30 s; run it by hand when
# the simulator or the frame table changes.
for bin in fig6_latency fig8_scalability fig10_datamove fig11_sync fig13_breakdown ext_ablations; do
    cargo run --release -q -p agora-bench --bin "$bin" >/dev/null
done
git diff --exit-code -- 'results/*.csv'

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== benchmark self-checks =="
benchmark/check.sh

echo "CI OK"
