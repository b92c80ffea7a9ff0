#!/bin/sh
# Prints the non-test lines of Rust per crate and in total. A file counts
# up to its first `#[cfg(test)]` line (all of it when there is none); the
# files are every `.rs` under `crates/*/src` and `src/`, which leaves out
# the API shims (`crates/shims/*/src`). Informational: it gates nothing.
#
# Usage: ci/loc.sh [BASE]   (from any directory)
#
# With BASE (any commit git can name), each line gives the count at BASE,
# now (the working tree) and the difference. BASE is read through
# `git archive` into a temporary directory; nothing is checked out.
set -eu
cd "$(dirname "$0")/.."

# Non-test lines of every `.rs` file under directory $1 (0 when absent).
count() {
    [ -d "$1" ] || { echo 0; return; }
    find "$1" -name '*.rs' -exec awk '
        FNR == 1 { done = 0 }
        /^#\[cfg\(test\)\]/ { done = 1 }
        !done { n++ }
        END { print n + 0 }
    ' {} +
}

# One line: label $1, count now $2 and, with a BASE, its count there $3.
row() {
    if [ -n "$base" ]; then
        printf '%7d %7d %+7d  %s\n' "$3" "$2" $(($2 - $3)) "$1"
    else
        printf '%7d  %s\n' "$2" "$1"
    fi
}

base=
if [ $# -gt 0 ]; then
    git rev-parse --verify --quiet "$1^{commit}" >/dev/null ||
        { echo "ci/loc.sh: $1 names no commit" >&2; exit 1; }
    base=$(mktemp -d)
    trap 'rm -rf "$base"' EXIT
    # Through a file, so that a failing `git archive` stops the script.
    git archive -o "$base/base.tar" "$1" -- crates src
    tar -x -f "$base/base.tar" -C "$base"
    printf '%7s %7s %7s\n' base now diff
fi

# Every crate that exists now or at BASE.
dirs=$({ ls -d crates/*/src src; [ -z "$base" ] ||
    (cd "$base" && ls -d crates/*/src src 2>/dev/null); } | LC_ALL=C sort -u)
total=0
total_base=0
for dir in $dirs; do
    lines=$(count "$dir")
    then_lines=$([ -z "$base" ] && echo 0 || count "$base/$dir")
    total=$((total + lines))
    total_base=$((total_base + then_lines))
    row "$dir" "$lines" "$then_lines"
done
row total "$total" "$total_base"
