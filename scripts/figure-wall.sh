#!/usr/bin/env bash
# Wall-clock seconds of the seven figure runs that ROADMAP.md rule (b)
# records: each run twice under `taskset -c 0` and twice unpinned,
# alternating the two, with its standard output discarded.
#
# usage: scripts/figure-wall.sh <bin-dir> <side> <commit>
#
# <bin-dir> holds the figure binaries (a `target/release` built with
# `cargo build --release -p semplar-bench --bins`). Standard output gets one
# line in the format of results/bench/PR<n>.jsonl, so append it there:
#
#   scripts/figure-wall.sh target/release pr "$(git rev-parse --short HEAD)" \
#       >> results/bench/PR<n>.jsonl
set -euo pipefail

if [ "$#" -ne 3 ]; then
    echo "usage: $0 <bin-dir> <side> <commit>" >&2
    exit 2
fi

exec python3 - "$1" "$2" "$3" <<'EOF'
import json, os, subprocess, sys, time

bins, side, commit = sys.argv[1:]
figures = [
    "fig_scale --actors --quick",
    "fig_tenants --quick",
    "fig_mc --quick",
    "fig9_compress",
    "fig6_blast",
    "fig_scale --actors",
    "fig_scale",
]

def wall(figure, pinned):
    name, *args = figure.split()
    cmd = [os.path.join(bins, name), *args]
    if pinned:
        cmd = ["taskset", "-c", "0", *cmd]
    t = time.monotonic()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return round(time.monotonic() - t, 2)

walls = {}
for figure in figures:
    runs = {"taskset_c0": [], "unpinned": []}
    for _ in range(2):
        runs["taskset_c0"].append(wall(figure, True))
        runs["unpinned"].append(wall(figure, False))
    walls[figure] = runs
    print(f"{figure}: {runs}", file=sys.stderr, flush=True)
print(json.dumps({"side": side, "commit": commit, "figure_wall_s": walls}))
EOF
