#!/usr/bin/env bash
# Non-test lines per crate: for every crates/<crate>/src/**/*.rs, count
# the lines before the first `#[cfg(test)]` (the whole file when there
# is none). This is the counting rule behind the aim-2 numbers in
# ROADMAP.md and CHANGES.md.
#
# usage: scripts/nontest-loc.sh [crate ...]    (default: every crate)
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -gt 0 ]; then
    crates=("$@")
else
    crates=()
    for manifest in crates/*/Cargo.toml; do
        crates+=("$(basename "$(dirname "$manifest")")")
    done
fi

total=0
for crate in "${crates[@]}"; do
    n=$(find "crates/$crate/src" -name '*.rs' -print0 | sort -z |
        xargs -0 awk 'FNR == 1 { live = 1 } /#\[cfg\(test\)\]/ { live = 0 } live { n++ } END { print n + 0 }')
    printf '%-10s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
