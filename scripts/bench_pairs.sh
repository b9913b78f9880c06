#!/usr/bin/env bash
# Paired parent-vs-change runs of one benchmark workload.
#
#   scripts/bench_pairs.sh <workload> <pairs> <seed>
#
# The change side is the working tree. The parent side is the revision
# in $BASE (default HEAD^), exported with `git archive` into a scratch
# directory, so the checkout and its worktree list are never touched.
# Both sides run the BENCHMARK.json command, each built in a target
# directory of its own, for $SECONDS_PER_RUN seconds a run (default:
# BENCHMARK.json's run_seconds). The pairs alternate which side runs
# first.
#
# For every metric in BENCHMARK.json's `end_to_end` list, prints each
# side's median and quartiles, how many pairs the change won (by the
# metric's `better` direction), and `worse than bound` when the change's
# median is worse than the parent's by more than the metric's `bound`
# (a fraction of the parent's median). A metric a workload does not
# report reads n/a. Exits 1 if a run fails or reports "correct": false,
# or if a detection metric (tpr, fpr, ttm_p50_pkts, ttm_p99_pkts,
# mitigated_frac) differs between any two runs: those are pure
# functions of the seed.
#
# Environment: BASE (parent revision), SECONDS_PER_RUN, WORK_DIR (keep
# the builds and raw run lines there, and reuse them on the next call,
# instead of a temporary directory).
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD

[ $# -eq 3 ] || { echo "usage: $0 <workload> <pairs> <seed>" >&2; exit 2; }
workload=$1 pairs=$2 seed=$3
base=$(git rev-parse --verify "${BASE:-HEAD^}^{commit}")
seconds=${SECONDS_PER_RUN:-$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)}
# `cargo run ... --manifest-path perf/Cargo.toml --`, one word per element.
read -r -a cmd <<<"$(sed -n 's/.*"command": *\[\(.*\)\].*/\1/p' BENCHMARK.json | tr -d '",')"

if [ -n "${WORK_DIR:-}" ]; then
    work=$WORK_DIR
    mkdir -p "$work"
else
    work=$(mktemp -d)
    trap 'rm -rf "$work"' EXIT
fi
rm -rf "$work/parent" && mkdir -p "$work/parent"
git archive "$base" | tar -x -C "$work/parent"
: >"$work/runs.txt"

# One run of one side; appends "<side> <json line>" to runs.txt.
run() {
    local side=$1 dir=$root line
    [ "$side" = parent ] && dir=$work/parent
    line=$(cd "$dir" && CARGO_TARGET_DIR="$work/target-$side" "${cmd[@]}" \
        --seed "$seed" --workload "$workload" --seconds "$seconds" 2>"$work/$side.err" | tail -n 1)
    case $line in
        '{"correct": true'*) echo "$side $line" >>"$work/runs.txt" ;;
        *) echo "$side run failed:" >&2; tail -n 20 "$work/$side.err" >&2; exit 1 ;;
    esac
}

echo "# $workload, seed $seed, $pairs pairs of ${seconds}s: parent $(git rev-parse --short "$base") vs working tree"
for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then run parent; run change; else run change; run parent; fi
    echo "# pair $((i + 1))/$pairs done"
done

# The end-to-end metrics, one "name better bound" line each.
sed -n '/"end_to_end"/,/\]/s/.*"name": *"\([^"]*\)".*"better": *"\([^"]*\)".*"bound": *\([0-9.]*\).*/\1 \2 \3/p' \
    BENCHMARK.json >"$work/metrics.txt"
metrics=$(cut -d' ' -f1 "$work/metrics.txt")
detection="tpr fpr ttm_p50_pkts ttm_p99_pkts mitigated_frac"

# One row per run: side, then every metric in metrics.txt order ("n/a"
# where the run does not report it).
while read -r side line; do
    printf '%s' "$side"
    for m in $metrics; do
        v=$(sed -n "s/.*\"$m\": {\"value\": \([^,}]*\).*/\1/p" <<<"$line")
        printf ' %s' "${v:-n/a}"
    done
    printf '\n'
done <"$work/runs.txt" >"$work/table.txt"

# Pair k is the k-th parent run against the k-th change run. Per metric:
# median and quartiles of each side (linear interpolation between order
# statistics), the change's wins, and the bound check on the medians.
paste -d' ' <(awk '$1 == "parent"' "$work/table.txt") <(awk '$1 == "change"' "$work/table.txt") |
    awk -v n="$pairs" -v width="$(wc -l <"$work/metrics.txt")" '
    NR == FNR { name[FNR] = $1; better[FNR] = $2; bound[FNR] = $3; next }
    {
        for (k = 1; k <= width; k++) { p[k, FNR] = $(k + 1); c[k, FNR] = $(k + width + 2) }
    }
    function sorted(a, k, v,  i, j, t) {
        for (i = 1; i <= n; i++) v[i] = a[k, i]
        for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
        v[n + 1] = v[n]
    }
    function q(v, x,  h, l) { h = (n - 1) * x + 1; l = int(h); return v[l] + (h - l) * (v[l + 1] - v[l]) }
    END {
        printf "%-16s %-5s %-12s %-25s %-12s %-25s %s\n", "metric", "good", "parent", "parent IQR", "change", "change IQR", "wins"
        for (k = 1; k <= width; k++) {
            if (p[k, 1] == "n/a" || c[k, 1] == "n/a") { printf "%-16s n/a\n", name[k]; continue }
            sorted(p, k, pv); sorted(c, k, cv)
            pm = q(pv, 0.5); cm = q(cv, 0.5); wins = 0
            for (i = 1; i <= n; i++) wins += better[k] == "higher" ? c[k, i] > p[k, i] : c[k, i] < p[k, i]
            worse = better[k] == "higher" ? cm < pm * (1 - bound[k]) : cm > pm * (1 + bound[k])
            printf "%-16s %-5s %-12.6g %-25s %-12.6g %-25s %d/%d%s\n", name[k], better[k] == "higher" ? "up" : "down",
                pm, sprintf("%.6g..%.6g", q(pv, 0.25), q(pv, 0.75)), cm,
                sprintf("%.6g..%.6g", q(cv, 0.25), q(cv, 0.75)), wins, n,
                worse ? sprintf("  worse than bound (%g)", bound[k]) : ""
        }
    }' "$work/metrics.txt" -

# Columns of the detection metrics in table.txt (the side is column 1).
cols=$(for m in $detection; do
    awk -v m="$m" '$1 == m { print NR + 1 }' "$work/metrics.txt"
done | paste -sd, -)
distinct=$(cut -d' ' -f"$cols" "$work/table.txt" | sort -u | wc -l)
if [ "$distinct" -ne 1 ]; then
    echo "detection metrics differ between runs ($detection):" >&2
    cut -d' ' -f1,"$cols" "$work/table.txt" | sort | uniq -c >&2
    exit 1
fi
echo "detection metrics identical on every run: $(cut -d' ' -f"$cols" "$work/table.txt" | head -n 1)"
