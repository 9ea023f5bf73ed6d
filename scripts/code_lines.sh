#!/usr/bin/env bash
# Code lines, by the recipe every simplicity PR quotes: per Rust file,
# the lines before its first `#[cfg(test)]`, minus blank lines and
# lines holding only a `//` comment (doc comments included). Prints a
# Markdown table — one row per crate's `src` tree (the root `src`
# counted as its own row), then the total — or, with `--files DIR`,
# one row per file under DIR.
#
# Usage: scripts/code_lines.sh [--files DIR]
set -euo pipefail
cd "$(dirname "$0")/.."

# Code lines of the files named on stdin, one "count path" line each.
count() {
    while read -r f; do
        awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
             !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n++ }
             END { print n + 0, FILENAME }' "$f"
    done
}

if [ "${1:-}" = "--files" ]; then
    dir=${2:?usage: $0 --files DIR}
    echo "| file | code lines |"
    echo "|---|---:|"
    find "$dir" -name '*.rs' | sort | count |
        awk '{ printf "| `%s` | %d |\n", $2, $1; t += $1 } END { printf "| **total** | **%d** |\n", t }'
    exit 0
fi

echo "| tree | code lines |"
echo "|---|---:|"
total=0
for dir in crates/*/src src; do
    n=$(find "$dir" -name '*.rs' | count | awk '{ t += $1 } END { print t + 0 }')
    echo "| \`$dir\` | $n |"
    total=$((total + n))
done
echo "| **total** | **$total** |"
