#!/usr/bin/env bash
# Alternated A/B runs of two builds of the benchmark (benchmark/): pair i
# runs both binaries on seed i, untraced, and which side goes first swaps
# from one pair to the next, so drift in host load falls on both sides.
# Pairs run seeds first..first+pairs-1; the first seed defaults to 1, and
# a later one gives held-out seeds.
#
# usage: scripts/bench-pairs.sh <parent-bin> <pr-bin> <workload> <pairs> [seconds] [first-seed]
#
# Standard error gets one row per end-to-end metric of BENCHMARK.json:
# each side's median [q1-q3], the change of the medians, and the pairs the
# PR side won (strictly better in the metric's direction) and tied. It
# also counts failed operations per side. Standard output gets the raw
# result lines, one per run, in the format of results/bench/PR<n>.jsonl,
# so append them there:
#
#   scripts/bench-pairs.sh parent/semplar-benchmark pr/semplar-benchmark \
#       overlap_ckpt 10 8 >> results/bench/PR<n>.jsonl
set -euo pipefail

if [ "$#" -lt 4 ] || [ "$#" -gt 6 ]; then
    echo "usage: $0 <parent-bin> <pr-bin> <workload> <pairs> [seconds] [first-seed]" >&2
    exit 2
fi
spec="$(cd "$(dirname "$0")/.." && pwd)/BENCHMARK.json"

exec python3 - "$spec" "$1" "$2" "$3" "$4" "${5:-8}" "${6:-1}" <<'EOF'
import json, resource, statistics, subprocess, sys, time

spec, parent, pr, workload, pairs, seconds, first = sys.argv[1:]
bins, pairs, first = {"parent": parent, "pr": pr}, int(pairs), int(first)
better ={m["name"]: m["better"] for m in json.load(open(spec))["end_to_end"]}

def run(side, seed):
    """One untraced run; the result line plus the process's own cost."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t = time.monotonic()
    out = subprocess.run(
        [bins[side], "--workload", workload, "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
        check=True, capture_output=True, text=True).stdout
    wall = time.monotonic() - t
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "wall_s": round(wall, 2),
        "ru_minflt": after.ru_minflt - before.ru_minflt,
        "user_s": round(after.ru_utime - before.ru_utime, 2),
        "sys_s": round(after.ru_stime - before.ru_stime, 2),
    }, json.loads(out.strip().splitlines()[-1])

runs = {"parent": [], "pr": []}
for pair in range(1, pairs + 1):
    order = ["parent", "pr"] if pair % 2 else ["pr", "parent"]
    seed = first + pair - 1
    for side in order:
        process, result = run(side, seed)
        runs[side].append(result)
        print(json.dumps({"side": side, "workload": workload, "seed": seed, "traced": False,
                          "pair": pair, "ran_first": order[0], "process": process, "result": result}),
              flush=True)

def values(side, name):
    return [r["metrics"][name]["value"] for r in runs[side]]

def summary(v):
    q1, med, q3 = statistics.quantiles(v, n=4, method="inclusive") if len(v) > 1 else (v[0],) * 3
    return f"{med:.4g} [{q1:.4g}-{q3:.4g}]"

err = sys.stderr
print(f"{workload}: {pairs} alternated pairs, seeds {first}-{first + pairs - 1}, --seconds {seconds}", file=err)
print(f"{'metric':<16} {'parent median [q1-q3]':<32} {'pr median [q1-q3]':<32} {'change':>8}  pr won / tied", file=err)
for name, direction in better.items():
    a, b = values("parent", name), values("pr", name)
    sign = 1 if direction == "higher" else -1
    won = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    tied = sum(x == y for x, y in zip(a, b))
    pa, pb = statistics.median(a), statistics.median(b)
    change = f"{(pb - pa) / pa:+.1%}" if pa else "-"
    print(f"{name:<16} {summary(a):<32} {summary(b):<32} {change:>8}  {won}/{pairs} / {tied}", file=err)
for side in runs:
    failed = sum(r["failed"] for r in runs[side])
    attempted = sum(r["attempted"] for r in runs[side])
    print(f"{side}: {failed} of {attempted} operations failed", file=err)
EOF
