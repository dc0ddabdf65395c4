#!/usr/bin/env bash
# Parent against change on the repo benchmark, in alternating pairs:
#
#   scripts/ab.sh <parent-rev> <pr> [--pairs N] [--trace K] [workload…]
#
# Exports <parent-rev> with git archive (the repository itself is left
# alone) and builds the benchmark there and here once each, into their
# own target directories under target/ab, with BENCHMARK.json's command.
# Refuses to run when benchmark/ differs between the sides. Per seed
# 1..N (default 10) and workload (default: all), one run of each side,
# the parent first on odd seeds; then K `--trace 1` pairs (default 0),
# logged as workload `<name>+trace1`; then every examples/*_sweeps.rs of
# this checkout (the same file on both sides: public API only) as ten
# alternating pairs, the parent first in odd pairs.
# Writes results/logs/pr<P>_benchmark_runs.txt (every run, in order),
# results/logs/pr<P>_sweeps.txt (every sweep run's output) and
# BENCH_<P>.json (agora_bench::runs: per workload and metric both
# medians, the parent's quartiles, pairs won and a verdict; per-layer
# metrics against a bound of 0.25), where P is <pr>, the number of the
# change being measured; prints per sweep row both sides' medians, the
# pairs the change won and a verdict (the `ab` bin's `--sweeps`), also
# into results/logs/pr<P>_sweeps_rows.txt. With N = 0 only the sweeps
# run (an A/A of them: HEAD as the parent), and no BENCH_<P>.json is
# written.
# About 35 s per benchmark run and 20 s per sweep pair; do not build or
# test on the machine meanwhile.
set -euo pipefail
cd "$(dirname "$0")/.."

usage="usage: scripts/ab.sh <parent-rev> <pr> [--pairs N] [--trace K] [workload…]"
parent=${1:?$usage}
pr=${2:?$usage}
shift 2
pairs=10 traces=0 workloads=()
while [ $# -gt 0 ]; do
    case "$1" in
    --pairs) pairs=$2 && shift 2 ;;
    --trace) traces=$2 && shift 2 ;;
    *) workloads+=("$1") && shift ;;
    esac
done
[ ${#workloads[@]} -gt 0 ] || mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)
seconds=$(jq -r '.run_seconds' BENCHMARK.json)
log=results/logs/pr${pr}_benchmark_runs.txt
sweeps=results/logs/pr${pr}_sweeps.txt

work=target/ab
rm -rf "$work/parent" && mkdir -p "$work/parent"
# -m: the files take the time of extraction, not of the commit, so cargo
# rebuilds what an earlier parent left in its target directory (a build
# newer than this parent's commit would otherwise pass as fresh).
git archive "$parent" | tar -x -m -C "$work/parent"
if ! diff -r -x target -x out benchmark "$work/parent/benchmark" >/dev/null; then
    echo "benchmark/ differs between $parent and this checkout: the sides would not be measured alike"
    exit 1
fi
cp examples/*_sweeps.rs "$work/parent/examples/"

# BENCHMARK.json's command is `cargo run <flags> --`: build with the same
# flags, then run the binary.
mapfile -t cmd < <(jq -r '.command[]' BENCHMARK.json)
for side in parent change; do
    tree=$([ $side = parent ] && echo "$work/parent" || echo .)
    export CARGO_TARGET_DIR=$PWD/$work/$side-target
    (cd "$tree" && "${cmd[0]}" build "${cmd[@]:2:${#cmd[@]}-3}" &&
        cargo build --release --offline --quiet --examples)
done
unset CARGO_TARGET_DIR

run() { # side workload seed trace
    jq -r --arg side "$1" --arg w "$2$([ "$4" = 1 ] && echo +trace1)" --arg s "$3" \
        '"\($side) \($w) seed \($s): attempted \(.attempted) failed \(.failed) correct \(.correct) "
         + ([.metrics | to_entries[] | " \(.key) \(.value.value)"] | join(""))' \
        <<<"$("$work/$1-target/release/agora-benchmark" --workload "$2" --seed "$3" \
            --seconds "$seconds" --trace "$4" | tail -n 1)" | tee -a "$log"
}
if [ "$pairs" -gt 0 ]; then
    {
        echo "# Benchmark runs: parent $(git rev-parse --short "$parent") against this checkout" \
            "($(git rev-parse --short HEAD)$(git diff --quiet HEAD -- crates benchmark || echo '+dirty')), written by scripts/ab.sh."
        echo "# $(date -u +%F), $(nproc) cores, $(grep -m1 'model name' /proc/cpuinfo | cut -d: -f2 | xargs);" \
            "--seconds $seconds; $pairs pairs per workload, then $traces --trace 1 pairs; odd seeds parent first."
    } >"$log"
    for trace in 0 1; do
        for seed in $(seq 1 "$([ $trace = 0 ] && echo "$pairs" || echo "$traces")"); do
            sides=(parent change)
            [ $((seed % 2)) = 1 ] || sides=(change parent)
            for w in "${workloads[@]}"; do
                for side in "${sides[@]}"; do run "$side" "$w" "$seed" "$trace"; done
            done
        done
    done
fi

: >"$sweeps"
for example in examples/*_sweeps.rs; do
    name=$(basename "$example" .rs)
    for pair in $(seq 1 10); do
        sides=(parent change)
        [ $((pair % 2)) = 1 ] || sides=(change parent)
        for side in "${sides[@]}"; do
            echo "== $name, pair $pair, $side" >>"$sweeps"
            "$work/$side-target/release/examples/$name" >>"$sweeps"
        done
    done
done
cargo run --release --offline --quiet -p agora-bench --bin ab -- --sweeps "$sweeps" |
    tee "results/logs/pr${pr}_sweeps_rows.txt"
[ "$pairs" -gt 0 ] || exit 0

mapfile -t metrics < <(jq -r '(.end_to_end[] | "\(.name):\(.better):\(.bound)"),
    (.per_layer[] | "\(.name):\(.better):0.25")' BENCHMARK.json)
cargo run --release --offline --quiet -p agora-bench --bin ab -- "$log" "${metrics[@]}" |
    jq --arg parent "$(git rev-parse --short "$parent")" --argjson pairs "$pairs" \
        --argjson traces "$traces" --argjson nproc "$(nproc)" \
        '{parent: $parent, pairs: $pairs, trace_pairs: $traces, nproc: $nproc} + .' >"BENCH_$pr.json"
echo "wrote $log, $sweeps and BENCH_$pr.json"
