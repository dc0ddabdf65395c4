#!/usr/bin/env bash
# Local CI gate: everything a PR must pass before merging.
#
#   scripts/ci.sh
#
# Runs the release build (the tier-1 artifact), the full workspace test
# suite, format and clippy gates (warnings promoted to errors), the
# release parity smokes, the benchmark's own checks, and the evidence
# check (every committed results/*.csv still has a producing bin). Fails
# fast.
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

echo "== cargo build --release =="
cargo build --release

echo "== cargo test -q =="
cargo test --workspace -q

echo "== parity smokes =="
cargo run --release -q -p agora-bench --bin parity

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== benchmark self-checks =="
benchmark/check.sh

echo "CI OK"
