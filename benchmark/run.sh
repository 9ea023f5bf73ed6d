#!/usr/bin/env bash
# Build and run the benchmark BENCHMARK.json declares.
#
#   benchmark/run.sh [--workload NAME|all] [--seed N] [--seconds S]
#                    [--trace [0|1]] [--smoke] [--selfcheck] [--out PATH]
#
# Builds `mpq-benchmark` with the default release profile (no profile
# overrides: the same codegen as the tier-1 build), then hands every
# argument to it. Runs from the root of the checkout; writes only
# there (CARGO_TARGET_DIR, or benchmark/target, and benchmark/out).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# Quiet on success; on failure the whole cargo log goes to stderr.
if ! log=$(cargo build --release --offline --manifest-path benchmark/Cargo.toml 2>&1); then
    printf '%s\n' "$log" >&2
    exit 1
fi

# /proc/self/stat counts CPU time in clock ticks.
export MPQ_CLK_TCK="$(getconf CLK_TCK)"
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/mpq-benchmark" "$@"
