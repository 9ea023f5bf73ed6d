#!/usr/bin/env bash
# Alternating pairs of the frozen benchmark (BENCHMARK.json): a parent
# revision against the working tree, on one workload.
#
#   scripts/bench_pairs.sh REV WORKLOAD PAIRS [SECONDS]
#
# Copies `git archive REV` and the working tree (tracked and untracked,
# ignored files left out) into a work directory outside the checkout,
# builds the benchmark in each into its own target directory, then runs
# PAIRS pairs of `benchmark/run.sh --workload WORKLOAD --seconds SECONDS
# --trace 0` (SECONDS defaults to BENCHMARK.json's `run_seconds`); odd
# pairs run the parent first, even pairs the change. It reads only what
# run.sh promises — its last line is one JSON object
# `{"correct", "attempted", "failed", "metrics"}` — and prints, for every
# end-to-end metric BENCHMARK.json lists, both sides' medians, the
# parent's interquartile range, how many pairs the change won (ties count
# for neither), and each side's `failed` total.
#
# The work directory is $BENCH_PAIRS_DIR if set, else a fresh one under
# ${TMPDIR:-/tmp}; each run's JSON line is kept there as
# {parent,change}-N.json. Nothing inside the checkout is written.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
    echo "usage: $0 REV WORKLOAD PAIRS [SECONDS]" >&2
    exit 2
fi
rev=$1 workload=$2 pairs=$3
repo=$(git -C "$(dirname "$0")/.." rev-parse --show-toplevel)
seconds=${4:-$(jq -r .run_seconds "$repo/BENCHMARK.json")}
work=${BENCH_PAIRS_DIR:-$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")}
mkdir -p "$work"
echo "# $workload: $pairs pairs of ${seconds} s, $rev vs the working tree, in $work"

# Two source trees, each built into its own target directory. Files are
# extracted with fresh mtimes (`tar -m`): `git archive` stamps them with
# the commit's time, older than a reused target directory's artifacts,
# and cargo would then run a binary built from another revision.
rm -rf "$work/parent" "$work/change"
mkdir -p "$work/parent" "$work/change"
git -C "$repo" archive "$rev" | tar -x -m -C "$work/parent"
git -C "$repo" ls-files -z --cached --others --exclude-standard |
    (cd "$repo" && tar --null --ignore-failed-read -T - -cf -) | tar -x -m -C "$work/change"
for side in parent change; do
    CARGO_TARGET_DIR="$work/target-$side" cargo build --release --offline -q \
        --manifest-path "$work/$side/benchmark/Cargo.toml"
done

# One run of one side: its JSON line into $work/SIDE-N.json.
run() {
    local side=$1 n=$2
    (cd "$work/$side" && CARGO_TARGET_DIR="$work/target-$side" bash benchmark/run.sh \
        --workload "$workload" --seconds "$seconds" --trace 0) |
        tail -n 1 >"$work/$side-$n.json"
    echo "pair $n $side: $(jq -c '{failed, pass_ms_p50: .metrics.pass_ms_p50.value}' "$work/$side-$n.json")"
}
for n in $(seq 1 "$pairs"); do
    if [ $((n % 2)) -eq 1 ]; then
        run parent "$n"; run change "$n"
    else
        run change "$n"; run parent "$n"
    fi
done

python3 - "$work" "$pairs" "$repo/BENCHMARK.json" <<'EOF'
import json, statistics, sys

work, pairs, spec = sys.argv[1], int(sys.argv[2]), json.load(open(sys.argv[3]))
runs = {side: [json.load(open(f"{work}/{side}-{n}.json")) for n in range(1, pairs + 1)]
        for side in ("parent", "change")}

def quartiles(xs):
    return statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3

def value(run, name):
    v = run["metrics"][name]
    return v["value"] if isinstance(v, dict) else v

print("| metric | parent p50 | change p50 | Δ | parent IQR | change wins |")
print("|---|---:|---:|---:|---:|---:|")
for metric in spec["end_to_end"]:
    name, lower = metric["name"], metric["better"] == "lower"
    p = [value(r, name) for r in runs["parent"]]
    c = [value(r, name) for r in runs["change"]]
    q1, p50, q3 = quartiles(p)
    c50 = statistics.median(c)
    wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
    delta = (c50 - p50) / p50 * 100 if p50 else 0.0
    print(f"| {name} | {p50:.4g} | {c50:.4g} | {delta:+.1f} % | {q3 - q1:.3g} | {wins}/{pairs} |")
for side in ("parent", "change"):
    failed = sum(r["failed"] for r in runs[side])
    attempted = sum(r["attempted"] for r in runs[side])
    print(f"{side}: failed {failed} of {attempted} attempted")
EOF
