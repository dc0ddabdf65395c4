#!/usr/bin/env bash
# Everything that must hold before the benchmark is trusted: formatting,
# lints as errors, the self-tests, and a --quick run of every workload
# with and without tracing (tests/contract.rs: correctness and schema
# only; quick output is marked not comparable). Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --offline --release --all-targets -- -D warnings
# Release: the contract test runs the real engine, and the build is the
# one `cargo run --release` reuses.
cargo test --offline --release
echo "benchmark/check.sh: all checks passed"
