#!/bin/sh
# Lines of tracked Rust, the number ROADMAP aim 2 tracks.
#
#   scripts/loc.sh [--parent <rev>]
#
# One row per crate under crates/, one for the root package's
# src/ tests/ examples/, one for benchmarks/, one for vendor/, and the
# total every PR quotes:
#
#   git ls-files '*.rs' | grep -E '^(crates|src|tests|examples|vendor)/' | xargs wc -l
#
# (benchmarks/ is its own workspace and is not part of that total).
# Counts the working tree's copy of every tracked file. With
# --parent <rev> a second column gives the same rows for a `git archive`
# of <rev>, exported under ${TMPDIR:-/tmp} and removed afterwards.
set -eu

parent=
if [ $# -eq 2 ] && [ "$1" = --parent ]; then
    parent=$2
elif [ $# -ne 0 ]; then
    echo "usage: $0 [--parent <rev>]" >&2
    exit 2
fi

root=$(git rev-parse --show-toplevel)

# "<row> <lines>" per row, for the .rs paths on stdin, read under <tree>.
tally() { # <tree>
    (cd "$1" && xargs wc -l) | awk '
        $2 == "total" { next }
        {
            split($2, part, "/")
            if (part[1] == "crates") row = "crates/" part[2]
            else if (part[1] ~ /^(src|tests|examples)$/) row = "src+tests+examples"
            else if (part[1] == "benchmarks" || part[1] == "vendor") row = part[1]
            else next
            lines[row] += $1
            if (row != "benchmarks") lines["total"] += $1
        }
        END { for (row in lines) print row, lines[row] }'
}

work=$(mktemp -d "${TMPDIR:-/tmp}/loc.XXXXXX")
trap 'rm -rf "$work"' EXIT
git -C "$root" ls-files '*.rs' | tally "$root" >"$work/tree.txt"
if [ -n "$parent" ]; then
    mkdir "$work/parent"
    git -C "$root" archive "$parent" | tar -x -C "$work/parent"
    (cd "$work/parent" && find . -name '*.rs' | sed 's|^\./||') | tally "$work/parent" >"$work/parent.txt"
else
    : >"$work/parent.txt"
fi

# Rows in a fixed order: crates by name, then the rest, the total last.
awk -v parent="$parent" '
    FNR == NR { tree[$1] = $2; rows[$1]; next }
    { old[$1] = $2; rows[$1] }
    END {
        n = 0
        for (row in rows) if (row ~ /^crates\//) name[n++] = row
        for (i = 0; i < n; i++) for (j = i + 1; j < n; j++) if (name[j] < name[i]) {
            t = name[i]; name[i] = name[j]; name[j] = t
        }
        name[n++] = "src+tests+examples"; name[n++] = "benchmarks"
        name[n++] = "vendor"; name[n++] = "total"
        printf "%-22s %8s", "lines of tracked Rust", "tree"
        if (parent != "") printf " %8s %7s", parent, "diff"
        printf "\n"
        for (i = 0; i < n; i++) {
            row = name[i]
            label = row == "total" ? "total (no benchmarks)" : row
            printf "%-22s %8d", label, tree[row]
            if (parent != "") printf " %8d %+7d", old[row], tree[row] - old[row]
            printf "\n"
        }
    }' "$work/tree.txt" "$work/parent.txt"
