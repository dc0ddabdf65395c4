#!/usr/bin/env bash
# Writes results/calibration.txt, the simulator's kernel and queue costs,
# by running the repo benchmark (the command in BENCHMARK.json):
#
#   scripts/calibrate.sh
#
# Per seed 1-3, one `--trace 1` run of ul_64x16 (its kernel pass times
# all seven task bodies at 64x16, its queue pass the two xqueue costs) and
# one `--trace 0` run of each workload (the measured side of
# `repro model_check`). One line per run, in the benchmark logs' shape:
#
#   <trace0|trace1> <workload> seed <n>: attempted <a> failed <f> correct <c>  <metric> <value> ...
#
# `agora_bench::calibration` takes the median of each metric over the
# lines. A run that fails aborts the script and leaves the old file.
# About eight minutes; run it on an otherwise idle machine.
set -euo pipefail
cd "$(dirname "$0")/.."

mapfile -t cmd < <(jq -r '.command[]' BENCHMARK.json)
seconds=$(jq -r '.run_seconds' BENCHMARK.json)
mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)

out=results/calibration.txt
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

run() { # trace workload seed
    local json
    json=$("${cmd[@]}" --workload "$2" --seed "$3" --seconds "$seconds" --trace "$1" | tail -n 1)
    jq -r --arg side "trace$1" --arg w "$2" --arg s "$3" \
        '"\($side) \($w) seed \($s): attempted \(.attempted) failed \(.failed) correct \(.correct) "
         + ([.metrics | to_entries[] | " \(.key) \(.value.value)"] | join(""))' <<<"$json" | tee -a "$tmp"
}

{
    echo "# Benchmark runs the simulator is calibrated on; written by scripts/calibrate.sh."
    echo "# commit $(git rev-parse --short HEAD)$(git diff --quiet HEAD -- crates benchmark || echo '+dirty')," \
        "$(date -u +%F), $(nproc) cores, $(grep -m1 'model name' /proc/cpuinfo | cut -d: -f2 | xargs)"
} >"$tmp"
# Seed-major, so each seed's kernel costs and end-to-end runs share the
# machine's state of the moment.
for seed in 1 2 3; do
    run 1 ul_64x16 "$seed"
    for w in "${workloads[@]}"; do
        run 0 "$w" "$seed"
    done
done
cat "$tmp" >"$out"
echo "wrote $out"
