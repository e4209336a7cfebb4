#!/usr/bin/env bash
# Non-test lines per crate: every line of crates/<crate>/src/**/*.rs
# except the items under a `#[cfg(test)]` attribute. An item is skipped
# from its attribute line to the brace that closes it, or to its `;` when
# it opens no brace (`mod tests;`, a `use`). Braces inside string or char
# literals are counted like code. This is the counting rule behind the
# aim-2 numbers in ROADMAP.md and CHANGES.md.
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
        xargs -0 awk '
            FNR == 1 { skip = 0 }
            !skip && /^[ \t]*#\[cfg\(test\)\]/ {
                skip = 1; depth = 0; opened = 0
                sub(/^[ \t]*#\[cfg\(test\)\]/, "")
            }
            skip {
                s = $0
                o = gsub(/[{]/, "", s)
                c = gsub(/[}]/, "", s)
                depth += o - c
                if (o > 0) opened = 1
                if ((opened && depth <= 0) || (!opened && $0 ~ /;[ \t]*$/)) skip = 0
                next
            }
            { n++ }
            END { print n + 0 }')
    printf '%-10s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
