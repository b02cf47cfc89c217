#!/bin/sh
# Lines of tracked Rust, the number ROADMAP aim 2 tracks.
#
#   scripts/loc.sh [--parent <rev>]
#   scripts/loc.sh --unused
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
#
# --unused lists, instead, every `pub` fn / struct / enum / trait /
# const / type / static / union declared under crates/ whose name no
# tracked .rs file under crates/, src/, tests/, examples/ or benchmarks/
# spells as a whole word, apart from the file declaring it and its
# crate's lib.rs (re-exports do not count as use). The test is lexical:
# a method whose name is common elsewhere (`new`, `len`) never shows.
# scripts/loc-unused.allow keeps the survivors, one
# `<path> <name> <reason>` line each; the scan prints every listed item
# the file does not name, every line of the file without a reason, and
# every line naming an item the scan no longer lists, and exits 1 if it
# printed anything.
set -eu

root=$(git rev-parse --show-toplevel)

unused() {
    work=$(mktemp -d "${TMPDIR:-/tmp}/loc.XXXXXX")
    trap 'rm -rf "$work"' EXIT
    cd "$root"
    git ls-files '*.rs' | grep -E '^(crates|src|tests|examples|benchmarks)/' >"$work/files"
    # "<path> <line> <kind> <name>" per declaration.
    decl='pub[[:space:]]+((const|async|unsafe)[[:space:]]+)*(fn|struct|enum|trait|type|static|const|union)[[:space:]]+(mut[[:space:]]+)?[A-Za-z_][A-Za-z0-9_]*'
    grep '^crates/' "$work/files" | xargs grep -nE "^[[:space:]]*$decl" |
        sed -E "s/^([^:]*):([0-9]+):[[:space:]]*pub[[:space:]]+((const|async|unsafe)[[:space:]]+)*(fn|struct|enum|trait|type|static|const|union)[[:space:]]+(mut[[:space:]]+)?([A-Za-z_][A-Za-z0-9_]*).*/\1 \2 \5 \7/" \
        >"$work/decls"
    # "<path> <word>" once per identifier a file spells.
    xargs grep -oHE '[A-Za-z_][A-Za-z0-9_]*' <"$work/files" | sort -u | tr ':' ' ' >"$work/words"
    awk '
        FILENAME == ARGV[1] { files[$2] = files[$2] " " $1; next }
        FILENAME == ARGV[2] {
            if ($0 ~ /^[[:space:]]*(#|$)/) next
            if (NF < 3) { print "scripts/loc-unused.allow:" FNR ": no reason: " $0; bad = 1 }
            allowed[$1 " " $2] = FNR
            next
        }
        {
            split($1, part, "/")
            lib = part[1] "/" part[2] "/src/lib.rs"
            n = split(files[$4], in_file, " ")
            for (i = 1; i <= n; i++) if (in_file[i] != $1 && in_file[i] != lib) next
            listed[$1 " " $4] = 1
            if (!(($1 " " $4) in allowed)) { print $1 ":" $2 " " $3 " " $4; bad = 1 }
        }
        END {
            for (item in allowed) if (!(item in listed)) {
                print "scripts/loc-unused.allow:" allowed[item] ": not listed by the scan: " item
                bad = 1
            }
            exit bad
        }' "$work/words" "$root/scripts/loc-unused.allow" "$work/decls"
}

parent=
if [ $# -eq 1 ] && [ "$1" = --unused ]; then
    unused
    exit
elif [ $# -eq 2 ] && [ "$1" = --parent ]; then
    parent=$2
elif [ $# -ne 0 ]; then
    echo "usage: $0 [--parent <rev> | --unused]" >&2
    exit 2
fi

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
