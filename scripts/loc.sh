#!/bin/sh
# Lines of tracked Rust, the number ROADMAP aim 2 tracks.
#
#   scripts/loc.sh [--parent <rev>]
#   scripts/loc.sh --unused
#   scripts/loc.sh --test-only
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
#
# --test-only lists every `pub` item declared in program code under
# crates/ that test code names but no program code names outside the
# item's own file and its crate's lib.rs: the items only tests keep
# alive, which --unused counts as used. Test code is every file under a
# tests/ directory, everything from a file's first top-level
# `#[cfg(test)]` on, and each item an indented `#[cfg(test)]` marks (to
# the close of the braces it opens); program code is the rest of
# crates/*/src, src/, examples/ and benchmarks/src. The same lexical
# test as --unused, vetted the same way against
# scripts/loc-test-only.allow; it exits 1 if it printed anything.
set -eu

root=$(git rev-parse --show-toplevel)

# Reads "<path> <line> <kind> <name>" per listed item on stdin and
# prints, against the allow file <allow>, every item it gives no
# reason for, every line of it without a reason and every line naming
# an item no longer listed; exits 1 if it printed anything.
vet() { # <allow>
    awk '
        FILENAME == ARGV[1] {
            if ($0 ~ /^[[:space:]]*(#|$)/) next
            if (NF < 3) { print ARGV[1] ":" FNR ": no reason: " $0; bad = 1 }
            allowed[$1 " " $2] = FNR
            next
        }
        {
            listed[$1 " " $4] = 1
            if (!(($1 " " $4) in allowed)) { print $1 ":" $2 " " $3 " " $4; bad = 1 }
        }
        END {
            for (item in allowed) if (!(item in listed)) {
                print ARGV[1] ":" allowed[item] ": not listed by the scan: " item
                bad = 1
            }
            exit bad
        }' "$1" -
}

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
        {
            split($1, part, "/")
            lib = part[1] "/" part[2] "/src/lib.rs"
            n = split(files[$4], in_file, " ")
            for (i = 1; i <= n; i++) if (in_file[i] != $1 && in_file[i] != lib) next
            print
        }' "$work/words" "$work/decls" | vet scripts/loc-unused.allow
}

test_only() {
    work=$(mktemp -d "${TMPDIR:-/tmp}/loc.XXXXXX")
    trap 'rm -rf "$work"' EXIT
    cd "$root"
    git ls-files '*.rs' | grep -E '^(crates|src|tests|examples|benchmarks)/' >"$work/files"
    # "w <path> <p|t> <word>" once per identifier a file's program (p)
    # or test (t) part spells, and "d <path> <line> <kind> <name>" per
    # declaration in a crate's program part.
    xargs awk '
        FNR == 1 {
            part = FILENAME ~ /(^|\/)tests\// ? "t" : "p"
            crate = FILENAME ~ /^crates\//
            item = 0
        }
        part == "p" && /^#\[cfg\(test\)\]/ { part = "t" }
        part == "p" && /^[[:space:]]+#\[cfg\(test\)\]/ { part = "t"; item = 1; depth = 0; opened = 0 }
        part == "p" && crate && match($0, /^[[:space:]]*pub[[:space:]]+((const|async|unsafe)[[:space:]]+)*(fn|struct|enum|trait|type|static|const|union)[[:space:]]+(mut[[:space:]]+)?[A-Za-z_][A-Za-z0-9_]*/) {
            n = split(substr($0, RSTART, RLENGTH), w, /[[:space:]]+/)
            print "d", FILENAME, FNR, w[n - 1] == "mut" ? w[n - 2] : w[n - 1], w[n]
        }
        {
            line = $0
            while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
                print "w", FILENAME, part, substr(line, RSTART, RLENGTH)
                line = substr(line, RSTART + RLENGTH)
            }
        }
        # An indented #[cfg(test)] marks one item: test code until the
        # braces it opens close again.
        item {
            line = $0
            opens = gsub(/\{/, "", line)
            depth += opens - gsub(/\}/, "", line)
            if (opens) opened = 1
            if (opened && depth <= 0) { part = "p"; item = 0 }
        }' <"$work/files" | sort -u >"$work/scan"
    awk '
        $1 == "w" && $3 == "t" { tested[$4] = 1 }
        $1 == "w" && $3 == "p" { prog[$4] = prog[$4] " " $2 }
        $1 == "d" { decls[++n] = $2 " " $3 " " $4 " " $5 }
        END {
            for (i = 1; i <= n; i++) {
                split(decls[i], d, " ")
                if (!(d[4] in tested)) continue
                split(d[1], part, "/")
                lib = part[1] "/" part[2] "/src/lib.rs"
                m = split(prog[d[4]], in_file, " ")
                named = 0
                for (j = 1; j <= m; j++) if (in_file[j] != d[1] && in_file[j] != lib) named = 1
                if (!named) print d[1], d[2], d[3], d[4]
            }
        }' "$work/scan" | sort -k1,1 -k2,2n | vet scripts/loc-test-only.allow
}

parent=
if [ $# -eq 1 ] && [ "$1" = --unused ]; then
    unused
    exit
elif [ $# -eq 1 ] && [ "$1" = --test-only ]; then
    test_only
    exit
elif [ $# -eq 2 ] && [ "$1" = --parent ]; then
    parent=$2
elif [ $# -ne 0 ]; then
    echo "usage: $0 [--parent <rev> | --unused | --test-only]" >&2
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
