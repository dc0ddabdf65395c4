#!/usr/bin/env bash
# Local CI gate: everything a PR must pass before merging.
#
#   scripts/ci.sh
#
# Runs the release build (the tier-1 artifact), the full workspace test
# suite, format and clippy gates (warnings promoted to errors), the
# release parity smokes, the benchmark's own checks, the evidence check
# (every committed results/*.csv still has a producing bin) and the fence
# gate (streaming stores and their one fence live in agora-math::simd
# only). Fails fast.
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

echo "== plane alignment, release profile =="
# Allocation paths differ between profiles (and the debug run above does
# not see the optimised `alloc_zeroed`).
cargo test --release -q -p agora-core --lib -- buffers::tests

echo "== parity smokes =="
cargo run --release -q -p agora-bench --bin parity

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== benchmark self-checks =="
benchmark/check.sh

echo "CI OK"
