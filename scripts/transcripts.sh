#!/bin/sh
# Transcript determinism of the claims program and every example.
#
#   scripts/transcripts.sh [--parent <rev>]
#
# Builds the workspace's binaries and examples once in release, runs
# `paper_claims` (crates/bench) and every example twice, straight from
# the target directory, and compares the two stdouts byte for byte: all
# of them are seeded, so a program that prints two different
# transcripts has picked up a source of nondeterminism (hash-map
# iteration order, wall-clock time, a thread race). `paper_claims`
# exits non-zero when a claim deviates without a recorded reason (or
# keeps a reason after it holds again), so that fails here too. One
# `same` / `DIFF` / `FAIL` line per program, with the program's
# wall-clock seconds in this tree's first run and, in parentheses, in
# the run it is compared with (informational: no time fails the step).
#
# With --parent <rev> it also exports <rev> (a `git archive`), builds it
# the same way and reports, per program, whether this tree's transcript
# equals the parent's, with the head of the diff where it does not —
# the "nothing observable moved" check of a behaviour-preserving change,
# and the list of transcripts a behaviour change moved. Both sides run
# on this host: the WAN latency models go through the platform libm, so
# a transcript blessed on another machine is not a fair oracle, and none
# is checked in. Each comparison ends in a count line.
#
# With --parent it also builds the benchmark package (`benchmarks/`, its
# own workspace) in both trees, runs `--all --quick` once in each, and
# reports per workload whether the lines that must not move for a
# behaviour-preserving change are equal: `rows_digest` and every metric
# line on the simulated clock (host-clock lines are left out: they are
# noise at this size). Report-only, like the transcript comparison.
#
# Exits non-zero on a DIFF or FAIL of the run-twice check: the parent
# comparisons only report. Everything it writes goes under a fresh
# directory in ${TMPDIR:-/tmp} (printed at the start, kept).
set -eu

parent=
if [ $# -eq 2 ] && [ "$1" = --parent ]; then
    parent=$2
elif [ $# -ne 0 ]; then
    echo "usage: $0 [--parent <rev>]" >&2
    exit 2
fi

root=$(git rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/transcripts.XXXXXX")
echo "work dir: $work"

build() { # <tree> <target dir>
    (cd "$1" && CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet --workspace --bins --examples)
}
# Runs every program of this tree from <target dir> into <out dir>,
# with its wall-clock milliseconds beside its transcript.
run_all() { # <target dir> <out dir>
    mkdir -p "$2"
    for p in $programs; do
        [ -x "$1/release/$p" ] || continue # not in that tree
        start=$(date +%s%N)
        (cd "$work" && "$1/release/$p" >"$2/$(basename "$p").txt") || echo "$p" >>"$2/failed"
        echo $((($(date +%s%N) - start) / 1000000)) >"$2/$(basename "$p").ms"
    done
}
# "<seconds> s" of one program in one run, or "-" if it did not run.
secs() { # <run dir> <name>
    if [ -e "$1/$2.ms" ]; then
        ms=$(cat "$1/$2.ms")
        printf '%d.%02d s' $((ms / 1000)) $((ms % 1000 / 10))
    else
        printf -- -
    fi
}

programs=$(cd "$root" && for f in crates/bench/src/bin/*.rs examples/*.rs; do
    case $f in
    examples/*) echo "examples/$(basename "$f" .rs)" ;;
    *) basename "$f" .rs ;;
    esac
done)

target=${CARGO_TARGET_DIR:-$root/target}
echo "building ..."
build "$root" "$target"
run_all "$target" "$work/run-1"
run_all "$target" "$work/run-2"
if [ -n "$parent" ]; then
    mkdir "$work/parent"
    git -C "$root" archive "$parent" | tar -x -C "$work/parent"
    echo "building parent ($parent) ..."
    build "$work/parent" "$work/target-parent"
    run_all "$work/target-parent" "$work/run-parent"
fi

# The benchmark package's `--all --quick` run of a tree into <out>; a
# non-zero exit leaves <out>.failed.
bench_all() { # <tree> <target dir> <out>
    (cd "$1" && CARGO_TARGET_DIR="$2" cargo run --release --offline --quiet \
        --manifest-path benchmarks/Cargo.toml -- --all --quick) >"$3" 2>/dev/null ||
        touch "$3.failed"
}
# The lines of <workload>'s blocks in <out> that must not move:
# rows_digest and every metric on the simulated clock.
sim_lines() { # <out> <workload>
    awk -v w="$2" '$1 == "workload" { on = ($2 == w) }
        on && ($1 == "rows_digest" || $NF == "sim")' "$1"
}
if [ -n "$parent" ]; then
    echo "running the benchmark package (--all --quick) in both trees ..."
    bench_all "$root" "${CARGO_TARGET_DIR:-$root/benchmarks/target}" "$work/bench-change.txt"
    bench_all "$work/parent" "$work/target-parent" "$work/bench-parent.txt"
fi

status=0
# One line per program against run-1, then a count line; a DIFF or
# FAIL sets the exit status when <strict> is 1.
compare() { # <label> <other run> <strict>
    echo
    echo "== $1 =="
    same=0 diffs=0 new=0 failed=0
    for p in $programs; do
        name=$(basename "$p")
        took="$(secs "$work/run-1" "$name") ($(secs "$2" "$name"))"
        if grep -qx "$p" "$work/run-1/failed" "$2/failed" 2>/dev/null; then
            echo "FAIL  $p (non-zero exit)  $took"
            failed=$((failed + 1))
        elif [ ! -e "$2/$name.txt" ]; then
            echo "new   $p  $took"
            new=$((new + 1))
        elif cmp -s "$work/run-1/$name.txt" "$2/$name.txt"; then
            echo "same  $p  $took"
            same=$((same + 1))
        else
            echo "DIFF  $p  $took"
            diff "$2/$name.txt" "$work/run-1/$name.txt" | head -n 8 | sed 's/^/      /'
            diffs=$((diffs + 1))
        fi
    done
    echo "$same same, $diffs differ, $new new, $failed failed"
    if [ "$3" = 1 ] && [ $((diffs + failed)) -gt 0 ]; then
        status=1
    fi
}
compare "run twice" "$work/run-2" 1
if [ -n "$parent" ]; then
    compare "against $parent (< parent, > this tree)" "$work/run-parent" 0

    echo
    echo "== benchmark --all --quick: rows_digest and sim metrics against $parent (< parent, > this tree) =="
    same=0 diffs=0 failed=0
    workloads=$(sed -n 's/.*{"name": "\([a-z_]*\)", "why".*/\1/p' "$root/BENCHMARK.json")
    for w in $workloads; do
        if [ -e "$work/bench-change.txt.failed" ] || [ -e "$work/bench-parent.txt.failed" ]; then
            echo "FAIL  $w (a benchmark run exited non-zero)"
            failed=$((failed + 1))
            continue
        fi
        sim_lines "$work/bench-parent.txt" "$w" >"$work/sim-parent-$w.txt"
        sim_lines "$work/bench-change.txt" "$w" >"$work/sim-change-$w.txt"
        lines=$(wc -l <"$work/sim-change-$w.txt")
        if [ "$lines" -gt 0 ] && cmp -s "$work/sim-parent-$w.txt" "$work/sim-change-$w.txt"; then
            echo "same  $w ($lines lines)"
            same=$((same + 1))
        else
            echo "DIFF  $w"
            diff "$work/sim-parent-$w.txt" "$work/sim-change-$w.txt" | head -n 8 | sed 's/^/      /'
            diffs=$((diffs + 1))
        fi
    done
    echo "$same same, $diffs differ, $failed failed"
fi
exit $status
