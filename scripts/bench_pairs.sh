#!/bin/sh
# Paired parent/change runs of one BENCHMARK.json workload, or of all.
#
#   scripts/bench_pairs.sh <parent-rev> <workload>|all [pairs=10]
#
# Builds the benchmark package of <parent-rev> (a `git archive` export)
# and of the working tree once each, then runs the BENCHMARK.json
# command `pairs` times per side, alternating which side goes first,
# with a fresh --seed per pair (2007, 2008, ...). Prints, per host and
# per simulated metric, every run with the change/parent ratio, each
# side's median and quartiles and how many pairs the change wins in the
# metric's `better` direction; then every pair whose rows_digest, failed
# count or recall differs between the sides. A simulated metric repeats
# exactly for a given seed, so a pair in which it differs is a change in
# what the program does, never noise. With `all`, does so for every
# workload BENCHMARK.json lists, one table after the other.
#
# Everything it writes goes under a fresh directory in ${TMPDIR:-/tmp}
# (printed at the start, kept for inspection).
set -eu

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: $0 <parent-rev> <workload>|all [pairs=10]" >&2
    exit 2
fi
rev=$1
workload=$2
pairs=${3:-10}

root=$(git rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")
echo "work dir: $work"
mkdir "$work/parent"
git -C "$root" archive "$rev" | tar -x -C "$work/parent"

# The command and run length of BENCHMARK.json.
bench() { # <side> <tree> <args...>
    side=$1
    tree=$2
    shift 2
    (cd "$tree" && CARGO_TARGET_DIR="$work/target-$side" \
        cargo run --release --offline --quiet --manifest-path benchmarks/Cargo.toml -- "$@")
}
echo "building parent ($rev) and change ..."
bench parent "$work/parent" --manifest >/dev/null
bench change "$root" --manifest >/dev/null

if [ "$workload" = all ]; then
    workloads=$(sed -n 's/.*{"name": "\([a-z_]*\)", "why".*/\1/p' "$root/BENCHMARK.json")
else
    workloads=$workload
fi

run() { # <side> <tree> <pair>, of $workload into $runs
    bench "$1" "$2" --workload "$workload" --seed $((2007 + $3)) --seconds 15 --trace 0 \
        >"$runs/$1-$3.txt" 2>/dev/null || echo "  $1 pair $3: benchmark exited non-zero" >&2
}
measure() { # <workload>
    workload=$1
    runs=$work/runs-$workload
    mkdir "$runs"
    echo
    echo "== $workload =="
    i=0
    while [ "$i" -lt "$pairs" ]; do
        if [ $((i % 2)) -eq 0 ]; then
            run parent "$work/parent" "$i"
            run change "$root" "$i"
        else
            run change "$root" "$i"
            run parent "$work/parent" "$i"
        fi
        echo "pair $i (seed $((2007 + i))) done"
        i=$((i + 1))
    done

    # One line per run: side pair metric value.
    for f in "$runs"/*.txt; do
        name=$(basename "$f" .txt)
        awk -v side="${name%-*}" -v pair="${name##*-}" '
            $1 ~ /^(setup_s|ops_per_s|peak_rss_mb|sim_latency_p50_ms|sim_latency_p99_ms|sim_messages_per_op|recall|rows_digest)$/ {
                print side, pair, $1, $2
            }
            /^\{"attempted"/ { match($0, /"failed": [0-9]+/); print side, pair, "failed", substr($0, RSTART + 10, RLENGTH - 10) }
        ' "$f"
    done >"$runs/values.txt"

    awk -v pairs="$pairs" '
        function quantile(n, q,    pos, lo, frac) {
            pos = (n - 1) * q + 1; lo = int(pos); frac = pos - lo
            return lo >= n ? sorted[n] : sorted[lo] + frac * (sorted[lo + 1] - sorted[lo])
        }
        function summary(side, metric,    n, p, i, j, t) {
            n = 0
            for (p = 0; p < pairs; p++) if ((side, p, metric) in v) sorted[++n] = v[side, p, metric] + 0
            for (i = 2; i <= n; i++) for (j = i; j > 1 && sorted[j - 1] > sorted[j]; j--) {
                t = sorted[j]; sorted[j] = sorted[j - 1]; sorted[j - 1] = t
            }
            if (n == 0) return "no runs"
            return sprintf("median %.6g  quartiles %.6g .. %.6g  (n=%d)", quantile(n, 0.5), quantile(n, 0.25), quantile(n, 0.75), n)
        }
        { v[$1, $2, $3] = $4 }
        END {
            nmetrics = split("ops_per_s setup_s peak_rss_mb sim_messages_per_op sim_latency_p50_ms sim_latency_p99_ms", metrics, " ")
            higher["ops_per_s"] = 1
            for (h = 1; h <= nmetrics; h++) {
                m = metrics[h]
                printf "\n%s, every run (pair: parent change change/parent):\n", m
                wins = 0; losses = 0
                for (p = 0; p < pairs; p++) {
                    a = v["parent", p, m]; b = v["change", p, m]
                    printf "  %d: %s %s %s\n", p, a, b, (a + 0 != 0 && b != "") ? sprintf("%.4f", b / a) : "-"
                    if (a == "" || b == "") continue
                    better = (m in higher) ? (b + 0 > a + 0) : (b + 0 < a + 0)
                    worse = (m in higher) ? (b + 0 < a + 0) : (b + 0 > a + 0)
                    wins += better; losses += worse
                }
                printf "  parent  %s\n  change  %s\n", summary("parent", m), summary("change", m)
                printf "  change better in %d of %d pairs, worse in %d\n", wins, pairs, losses
            }
            nexact = split("rows_digest failed recall", exact, " ")
            printf "\nmust be equal per pair (rows_digest, failed, recall; the open_loop digest\n"
            printf "hashes its latency report, so it moves whenever a simulated latency does):\n"
            diffs = 0
            for (p = 0; p < pairs; p++) for (e = 1; e <= nexact; e++) {
                m = exact[e]
                if (v["parent", p, m] != v["change", p, m]) {
                    printf "  pair %d %s: parent %s, change %s\n", p, m, v["parent", p, m], v["change", p, m]
                    diffs++
                }
            }
            if (diffs == 0) print "  all equal"
        }
    ' "$runs/values.txt"
}
for w in $workloads; do
    measure "$w"
done
