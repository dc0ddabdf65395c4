#!/usr/bin/env bash
# The ROADMAP aim-2 ledger, counted from the tree so CHANGES.md and
# ROADMAP.md quote one command instead of a hand count.
#
#   scripts/ledger.sh [tree]     # default: this checkout
#
# Pass another checkout (e.g. a clone of the parent commit) to get the
# "before" column with the same rules.
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

rs() { find "$@" -name '*.rs' -not -path '*/target/*' 2>/dev/null; }
lines() { rs "$@" | xargs -r cat | wc -l; }
# The part of a file above its first #[cfg(test)].
nontest() { awk '/#\[cfg\(test\)\]/ { exit } { print }' "$1"; }

echo "== Rust lines =="
total=0
for tree in crates shims tests examples; do
    n=$(lines "$tree")
    total=$((total + n))
    printf '  %-10s %6d\n' "$tree/" "$n"
done
printf '  %-10s %6d\n' "workspace" "$total"
printf '  %-10s %6d\n' "benchmark/" "$(lines benchmark)"

echo "== non-test Rust lines: per crate, then shims/ and examples/ =="
# The part of each file above its first #[cfg(test)], with tests/
# directories and the files of modules declared under #[cfg(test)] left
# out: moving code into tests is not a reduction.
testmods() {
    rs "$@" | while read -r f; do
        awk -v dir="$(dirname "$f")" 'prev ~ /^#\[cfg\(test\)\]/ && /^(pub(\(crate\))? )?mod [a-z_0-9]+;/ {
            m = $NF; sub(/;/, "", m); print dir "/" m ".rs" } { prev = $0 }' "$f"
    done
}
nontest_lines() {
    skip=$(testmods "$@")
    n=0
    for f in $(rs "$@" | grep -v '/tests/'); do
        grep -qxF "$f" <<<"$skip" || n=$((n + $(nontest "$f" | wc -l)))
    done
    echo "$n"
}
total=0
for tree in crates/* shims examples; do
    n=$(nontest_lines "$tree")
    total=$((total + n))
    printf '  %-20s %6d\n' "$tree" "$n"
done
printf '  %-20s %6d\n' total "$total"

echo "== unsafe occurrences (crates/ shims/ tests/ examples/) =="
printf '  %d, of them %d in crates/core\n' \
    "$(rs crates shims tests examples | xargs -r grep -ow unsafe | wc -l)" \
    "$(rs crates/core | xargs -r grep -ow unsafe | wc -l)"

echo "== crates/core/src per file: lines and unsafe, non-test part | tests =="
# The non-test part is what lies above the file's first #[cfg(test)].
unsafes() { { grep -ow unsafe || true; } | wc -l; }
printf '  %-18s %6s %6s | %6s %6s\n' file lines unsafe lines unsafe
sum=(0 0 0 0)
for f in crates/core/src/*.rs; do
    row=("$(nontest "$f" | wc -l)" "$(nontest "$f" | unsafes)")
    row+=("$(($(wc -l <"$f") - row[0]))" "$(($(unsafes <"$f") - row[1]))")
    printf '  %-18s %6d %6d | %6d %6d\n' "$(basename "$f")" "${row[@]}"
    for i in 0 1 2 3; do sum[i]=$((sum[i] + row[i])); done
done
printf '  %-18s %6d %6d | %6d %6d\n' total "${sum[@]}"

echo "== agora-bench bins =="
printf '  %d: %s\n' "$(rs crates/bench/src/bin | wc -l)" \
    "$(rs crates/bench/src/bin | xargs -n1 basename | sed 's/\.rs$//' | sort | tr '\n' ' ')"

echo "== _scalar/_avx2/_avx512/_with_tier functions outside tests =="
tiers=0
for f in $(rs crates | grep -v '/tests/'); do
    n=$(nontest "$f" | grep -cE 'fn [a-z_0-9]+_(scalar|avx2|avx512|with_tier)\b' || true)
    tiers=$((tiers + n))
done
printf '  %d\n' "$tiers"

echo "== pub fields of the engine, deployment, simulator and RRU emulator configurations =="
# Per pub struct declared in config.rs (`Ablation` too, on a tree that
# still has it), then `DeploymentConfig` from deploy.rs, `SimConfig`
# from sim.rs and `RruConfig` from the transport crate's rru.rs.
fields() {
    nontest "$1" | awk -v only="${2:-}" '
    /^pub struct / { name = $3; sub(/[^A-Za-z0-9_].*/, "", name); if (only != "" && name != only) name = ""; next }
    /^}/ { if (name != "") printf "  %-16s %2d: %s\n", name, n[name], list[name]; name = "" }
    name != "" && /^    pub [a-z_0-9]+:/ { f = $2; sub(/:.*/, "", f); n[name]++; list[name] = list[name] f " " }'
}
fields crates/core/src/config.rs
fields crates/core/src/deploy.rs DeploymentConfig
fields crates/core/src/sim.rs SimConfig
fields crates/transport/src/rru.rs RruConfig

echo "== engine constructors (pub fn of impl Engine returning Self) =="
nontest crates/core/src/engine.rs | awk '
    /^impl Engine / { inside = 1; next }
    /^}/ { inside = 0 }
    inside && /^    pub fn [a-z_]+\(.*-> Self/ { f = $3; sub(/\(.*/, "", f); printf "  %s\n", f }'
