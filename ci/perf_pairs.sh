#!/usr/bin/env bash
# Interleaved A/B of the campaign benchmark (perfbench) between a base
# revision and the working tree.
#
#   ci/perf_pairs.sh <base-rev> <workload> [seed] [pairs] [seconds]
#
# Builds perfbench twice, each with its own target directory under
# $PERF_PAIRS_DIR (default .bench_build/perf_pairs, which .gitignore
# excludes): once from <base-rev>, exported with `git archive` (so no
# worktree is registered and an interrupted run leaves nothing to prune),
# and once from the working tree.  Then it runs <pairs> pairs of
#
#   perfbench --workload <workload> --seed <seed> --seconds <seconds> --trace 0
#
# base first in odd pairs and change first in even pairs, and stops with
# status 1 at the first run whose JSON line lacks "correct": true or
# reports "failed" above 0.  Finally, for each end-to-end metric of
# BENCHMARK.json, it prints every pair's values and change/base ratio,
# each side's median [q1, q3] (linear interpolation between order
# statistics), how many pairs the change won, and whether the median gain
# exceeds the base side's interquartile range.
#
# This is also the CI perf gate.  After the summary the script exits 1,
# with one line per offending metric naming the workload and the metric,
# when an end-to-end metric's change median is worse than its base median
# by more than that metric's BENCHMARK.json `bound` (a fraction of the
# base median) and the change lost more than half of the pairs on it
# (ties count for neither side).  When <base-rev> and the working tree
# differ under perfbench/ or in BENCHMARK.json, the two sides run
# different benchmarks: every run must still be correct, but instead of
# the summary the script says that the comparison does not apply, and it
# gives no verdict.
#
# Defaults: seed 24301 (perfbench's default seed, 0x5EED), 10 pairs,
# 60 seconds per run.  Each run's JSON line is appended to
# $PERF_PAIRS_DIR/runs.jsonl and its standard error to
# $PERF_PAIRS_DIR/stderr.log.  Needs git, cargo and python3.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 5 ]; then
    echo "usage: $0 <base-rev> <workload> [seed] [pairs] [seconds]" >&2
    exit 2
fi
base_rev=$1
workload=$2
seed=${3:-24301}
pairs=${4:-10}
seconds=${5:-60}

repo=$(git rev-parse --show-toplevel)
out=${PERF_PAIRS_DIR:-$repo/.bench_build/perf_pairs}
mkdir -p "$out"
out=$(cd "$out" && pwd)
base_src=$out/base-src

rm -rf "$base_src"
mkdir -p "$base_src"
git -C "$repo" archive "$base_rev" | tar -x -C "$base_src"
echo "building perfbench at $base_rev and at the working tree" >&2
CARGO_TARGET_DIR=$out/base-target cargo build --release --offline --quiet \
    --manifest-path "$base_src/perfbench/Cargo.toml"
CARGO_TARGET_DIR=$out/change-target cargo build --release --offline --quiet \
    --manifest-path "$repo/perfbench/Cargo.toml"

runs=$out/runs.jsonl
: >"$runs"

# run <side> <pair> <source dir> <binary>
run() {
    local line
    echo "pair $2: $1" >&2
    line=$(cd "$3" && "$4" --workload "$workload" --seed "$seed" --seconds "$seconds" \
        --trace 0 2>>"$out/stderr.log" | tail -n 1) || true
    if ! python3 -c '
import json, sys
r = json.loads(sys.argv[1])
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' "$line" 2>/dev/null; then
        echo "$1 run of pair $2 is not correct: $line" >&2
        exit 1
    fi
    printf '{"side": "%s", "pair": %d, "result": %s}\n' "$1" "$2" "$line" >>"$runs"
}

for ((pair = 1; pair <= pairs; pair++)); do
    if ((pair % 2)); then
        run base "$pair" "$base_src" "$out/base-target/release/perfbench"
        run change "$pair" "$repo" "$out/change-target/release/perfbench"
    else
        run change "$pair" "$repo" "$out/change-target/release/perfbench"
        run base "$pair" "$base_src" "$out/base-target/release/perfbench"
    fi
done

if ! git -C "$repo" diff --quiet "$base_rev" -- perfbench BENCHMARK.json; then
    echo "perf gate: perfbench/ or BENCHMARK.json differ between $base_rev and the" \
        "working tree, so the comparison does not apply; every $workload run was" \
        "correct, no verdict"
    exit 0
fi

python3 - "$repo/BENCHMARK.json" "$runs" "$base_rev" "$workload" "$seed" <<'EOF'
import json
import sys

bench, runs, base_rev, workload, seed = sys.argv[1:]
metrics = json.load(open(bench))["end_to_end"]
values = {}
for line in open(runs):
    run = json.loads(line)
    values.setdefault(run["pair"], {})[run["side"]] = run["result"]["metrics"]


def quartiles(xs):
    xs = sorted(xs)

    def at(p):
        k = (len(xs) - 1) * p
        lo = int(k)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)

    return at(0.25), at(0.5), at(0.75)


print(f"{workload} at seed {seed}: {base_rev} (base) vs working tree (change), "
      f"{len(values)} pairs")
regressions = []
for metric in metrics:
    name, higher = metric["name"], metric["better"] == "higher"
    pairs = sorted(values.items())
    base = [p["base"][name]["value"] for _, p in pairs]
    change = [p["change"][name]["value"] for _, p in pairs]
    print(f"\n{name} ({metric['unit']}, {metric['better']} is better)")
    for (pair, _), b, c in zip(pairs, base, change):
        print(f"  pair {pair:2}: base {b:.6g}  change {c:.6g}  x{c / b:.3f}")
    bq, cq = quartiles(base), quartiles(change)
    for side, (q1, med, q3) in (("base", bq), ("change", cq)):
        print(f"  {side:6} median {med:.6g} [{q1:.6g}, {q3:.6g}]")
    wins = sum(c > b if higher else c < b for b, c in zip(base, change))
    gain = (cq[1] - bq[1]) if higher else (bq[1] - cq[1])
    iqr = bq[2] - bq[0]
    verdict = "exceeds" if gain > iqr else "does not exceed"
    print(f"  change won {wins} of {len(base)}; median gain {gain:.6g} {verdict} "
          f"the base IQR {iqr:.6g}")
    losses = sum(c < b if higher else c > b for b, c in zip(base, change))
    worse = -gain / bq[1]
    if worse > metric["bound"] and losses > len(base) / 2:
        regressions.append(
            f"perf gate: {workload} {name} regressed: change median {cq[1]:.6g} is "
            f"{worse:.1%} worse than base median {bq[1]:.6g} (bound {metric['bound']:.0%}), "
            f"and the change lost {losses} of {len(base)} pairs")

for line in regressions:
    print(line)
sys.exit(1 if regressions else 0)
EOF
