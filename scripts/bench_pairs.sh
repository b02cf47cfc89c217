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
# direction BENCHMARK.json calls `better`, and ends the metric's block
# with a one-word verdict:
#
#   gain        the change wins at least 9 in 10 of the pairs run and
#               the medians differ by more than the distance between
#               the parent's quartiles;
#   regression  the change's median is worse than the parent's by more
#               than the metric's `bound` in BENCHMARK.json;
#   unresolved  neither, and the parent's quartiles lie further apart
#               (relative to its median) than the bound, so these runs
#               could not have shown a regression of that size — unless
#               every run of the change beats every run of the parent;
#   no change   otherwise.
#
# Then every pair whose rows_digest, failed count or recall differs
# between the sides. A simulated metric repeats exactly for a given
# seed, so a pair in which it differs is a change in what the program
# does, never noise. Last, one `--trace 1` pass per side at seed 2007:
# every per-layer metric on the simulated clock that differs between
# the sides, and how many are equal — the "should not move" list of a
# behaviour-preserving change — then every per-layer metric on the host
# clock, parent and change side by side with their ratio. The host rows
# are informational: one traced run per side cannot tell a change from
# the host's noise. With `all`, does so for every workload
# BENCHMARK.json lists, one table after the other.
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

# metric, better, bound — one line per end-to-end metric.
sed -n 's/.*{"name": "\([a-z0-9_]*\)", "unit": "[^"]*", "better": "\([a-z]*\)", "bound": \([0-9.]*\)}.*/\1 \2 \3/p' \
    "$root/BENCHMARK.json" >"$work/spec.txt"

if [ "$workload" = all ]; then
    workloads=$(sed -n 's/.*{"name": "\([a-z_]*\)", "why".*/\1/p' "$root/BENCHMARK.json")
else
    workloads=$workload
fi

run() { # <side> <tree> <pair>, of $workload into $runs
    bench "$1" "$2" --workload "$workload" --seed $((2007 + $3)) --seconds 15 --trace 0 \
        >"$runs/$1-$3.txt" 2>/dev/null || echo "  $1 pair $3: benchmark exited non-zero" >&2
}
traced() { # <side> <tree>: the per-layer metrics of one traced pass, by clock
    bench "$1" "$2" --workload "$workload" --seed 2007 --seconds 15 --trace 1 2>/dev/null |
        awk '$4 == "sim" || $4 == "host" { print $1, $2, $4 }' >"$runs/traced-$1.txt"
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
    for f in "$runs"/parent-*.txt "$runs"/change-*.txt; do
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
        function has(side, p, metric) { return ((side, p, metric) in v) && v[side, p, metric] != "" }
        # sorted[1..n]: the runs of one side, rising. Returns n.
        function load(side, metric,    n, p, i, j, t) {
            n = 0
            for (p = 0; p < pairs; p++) if (has(side, p, metric)) sorted[++n] = v[side, p, metric] + 0
            for (i = 2; i <= n; i++) for (j = i; j > 1 && sorted[j - 1] > sorted[j]; j--) {
                t = sorted[j]; sorted[j] = sorted[j - 1]; sorted[j - 1] = t
            }
            return n
        }
        function summary(side, metric,    n) {
            n = load(side, metric)
            if (n == 0) return "no runs"
            return sprintf("median %.6g  quartiles %.6g .. %.6g  (n=%d)", quantile(n, 0.5), quantile(n, 0.25), quantile(n, 0.75), n)
        }
        # The word the block of a metric ends with (see the head of the
        # script); `both` pairs have a run on either side.
        function verdict(m, wins, both,    n, p, q, pm, cm, iqr, beats) {
            if (both == 0) return "no runs"
            n = load("change", m); cm = quantile(n, 0.5)
            n = load("parent", m); pm = quantile(n, 0.5)
            iqr = quantile(n, 0.75) - quantile(n, 0.25)
            if (wins * 10 >= both * 9 && (cm > pm ? cm - pm : pm - cm) > iqr) return "gain"
            if ((m in higher) ? cm < pm * (1 - bound[m]) : cm > pm * (1 + bound[m])) return "regression"
            beats = 1
            for (p = 0; p < pairs; p++) for (q = 0; q < pairs; q++) if (has("parent", p, m) && has("change", q, m)) {
                a = v["parent", p, m] + 0; b = v["change", q, m] + 0
                if ((m in higher) ? b <= a : b >= a) beats = 0
            }
            if (pm != 0 && iqr / pm > bound[m] && !beats) return "unresolved"
            return "no change"
        }
        FILENAME == spec { if ($2 == "higher") higher[$1] = 1; bound[$1] = $3; next }
        { v[$1, $2, $3] = $4 }
        END {
            nmetrics = split("ops_per_s setup_s peak_rss_mb sim_messages_per_op sim_latency_p50_ms sim_latency_p99_ms", metrics, " ")
            for (h = 1; h <= nmetrics; h++) {
                m = metrics[h]
                printf "\n%s, every run (pair: parent change change/parent):\n", m
                wins = 0; losses = 0; both = 0
                for (p = 0; p < pairs; p++) {
                    a = has("parent", p, m) ? v["parent", p, m] : ""
                    b = has("change", p, m) ? v["change", p, m] : ""
                    printf "  %d: %s %s %s\n", p, a, b, (a + 0 != 0 && b != "") ? sprintf("%.4f", b / a) : "-"
                    if (a == "" || b == "") continue
                    both++
                    better = (m in higher) ? (b + 0 > a + 0) : (b + 0 < a + 0)
                    worse = (m in higher) ? (b + 0 < a + 0) : (b + 0 > a + 0)
                    wins += better; losses += worse
                }
                printf "  parent  %s\n  change  %s\n", summary("parent", m), summary("change", m)
                printf "  change better in %d of %d pairs, worse in %d\n", wins, pairs, losses
                printf "  verdict (%s is better, bound %s): %s\n", (m in higher) ? "higher" : "lower", bound[m], verdict(m, wins, both)
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
    ' spec="$work/spec.txt" "$work/spec.txt" "$runs/values.txt"

    traced parent "$work/parent"
    traced change "$root"
    echo
    echo "traced pass, seed 2007 — per-layer metrics on the simulated clock that differ"
    echo "(metric: parent change):"
    awk '
        $3 != "sim" { next }
        NR == FNR { parent[$1] = $2; next }
        !($1 in parent) { printf "  %s: - %s\n", $1, $2; differ++; next }
        { seen[$1] = 1 }
        parent[$1] != $2 { printf "  %s: %s %s\n", $1, parent[$1], $2; differ++; next }
        { equal++ }
        END {
            for (m in parent) if (!(m in seen)) { printf "  %s: %s -\n", m, parent[m]; differ++ }
            printf "  %d differ, %d equal\n", differ, equal
        }
    ' "$runs/traced-parent.txt" "$runs/traced-change.txt"
    echo
    echo "traced pass, seed 2007 — per-layer metrics on the host clock, informational:"
    echo "one run per side cannot resolve host noise (metric: parent change change/parent):"
    awk '
        $3 != "host" { next }
        NR == FNR { parent[$1] = $2; next }
        {
            a = ($1 in parent) ? parent[$1] : "-"
            printf "  %s: %s %s %s\n", $1, a, $2, (a != "-" && a + 0 != 0) ? sprintf("%.4f", $2 / a) : "-"
        }
    ' "$runs/traced-parent.txt" "$runs/traced-change.txt"
}
for w in $workloads; do
    measure "$w"
done
