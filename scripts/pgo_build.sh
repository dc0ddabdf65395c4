#!/usr/bin/env bash
# Profile-guided-optimisation build (the paper's Table 4 lists PGO as
# one of Agora's ablations; the C++ original trains on a frame loop).
#
#   scripts/pgo_build.sh [out-dir]
#
# 1. builds the repo benchmark (benchmark/, the binary that drives the
#    threaded engine) with -Cprofile-generate,
# 2. trains on its `ul_64x16 --quick` run (64x16 uplink frames through
#    the fronthaul, manager and workers),
# 3. merges the raw profiles with llvm-profdata (searched on PATH, then
#    inside `rustc --print sysroot`),
# 4. rebuilds with -Cprofile-use.
#
# If llvm-profdata is unavailable the script says so and leaves the
# plain release build in place (exit 0): the container image does not
# always ship the llvm-tools component, and a missing profiler must not
# fail CI.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-target/pgo}"
mkdir -p "$OUT/profiles"
OUT="$(cd "$OUT" && pwd)"
PROF_DIR="$OUT/profiles"

# Builds the benchmark binary into target dir $1 (its own default when
# absent) under the caller's RUSTFLAGS.
build_bench() {
    cargo build --release --offline --manifest-path benchmark/Cargo.toml ${1:+--target-dir "$1"}
}

find_llvm_profdata() {
    if command -v llvm-profdata >/dev/null 2>&1; then
        command -v llvm-profdata
        return 0
    fi
    local sysroot
    sysroot="$(rustc --print sysroot)"
    find "$sysroot" -name llvm-profdata -type f 2>/dev/null | head -n1
}

LLVM_PROFDATA="$(find_llvm_profdata || true)"
if [ -z "${LLVM_PROFDATA}" ]; then
    echo "pgo: llvm-profdata not found (PATH or rustc sysroot); keeping the plain release build"
    build_bench
    exit 0
fi
echo "pgo: using ${LLVM_PROFDATA}"

echo "== instrumented build =="
RUSTFLAGS="-Cprofile-generate=${PROF_DIR}" build_bench "$OUT/gen"

echo "== training run (threaded 64x16 uplink frames) =="
"$OUT/gen/release/agora-benchmark" --workload ul_64x16 --quick >/dev/null

echo "== merging profiles =="
# A PATH llvm-profdata can be older than rustc's LLVM and reject the
# profraw format; that is an environment limitation, not a CI failure.
if ! "${LLVM_PROFDATA}" merge -o "$PROF_DIR/merged.profdata" "$PROF_DIR"/*.profraw; then
    echo "pgo: ${LLVM_PROFDATA} cannot read rustc's profile format" \
         "(needs the llvm-tools rustup component); keeping the plain release build"
    build_bench
    exit 0
fi

echo "== optimised rebuild =="
RUSTFLAGS="-Cprofile-use=${PROF_DIR}/merged.profdata" build_bench "$OUT/use"

echo "pgo: optimised binary at $OUT/use/release/agora-benchmark"
echo "pgo: compare against the plain release build with alternating runs of"
echo "         benchmark/target/release/agora-benchmark --workload ul_64x16 --trace 0"
echo "         $OUT/use/release/agora-benchmark --workload ul_64x16 --trace 0"
