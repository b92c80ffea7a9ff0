#!/bin/sh
# Prints the non-test lines of Rust per crate and in total. A file counts
# up to its first `#[cfg(test)]` line (all of it when there is none); the
# files are every `.rs` under `crates/*/src` and `src/`, which leaves out
# the API shims (`crates/shims/*/src`). Informational: it gates nothing.
#
# Usage: ci/loc.sh   (from any directory)
set -eu
cd "$(dirname "$0")/.."

# Non-test lines of every `.rs` file under directory $1.
count() {
    find "$1" -name '*.rs' -exec awk '
        FNR == 1 { done = 0 }
        /^#\[cfg\(test\)\]/ { done = 1 }
        !done { n++ }
        END { print n + 0 }
    ' {} +
}

total=0
for dir in crates/*/src src; do
    lines=$(count "$dir")
    total=$((total + lines))
    printf '%7d  %s\n' "$lines" "$dir"
done
printf '%7d  total\n' "$total"
