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
# Prints each side's median and quartiles of pps and tick_p99_us, and
# how many pairs the change won on each. Exits 1 if a run fails or
# reports "correct": false, or if a detection metric (tpr, fpr,
# ttm_p50_pkts, ttm_p99_pkts, mitigated_frac) differs between any two
# runs: those are pure functions of the seed.
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

# Metric columns: side, then pps, tick_p99_us and the detection metrics.
metrics="pps tick_p99_us tpr fpr ttm_p50_pkts ttm_p99_pkts mitigated_frac"
while read -r side line; do
    printf '%s' "$side"
    for m in $metrics; do
        printf ' %s' "$(sed -n "s/.*\"$m\": {\"value\": \([^,}]*\).*/\1/p" <<<"$line")"
    done
    printf '\n'
done <"$work/runs.txt" >"$work/table.txt"

# Median and quartiles (linear interpolation between order statistics).
summary() {
    awk -v s="$1" -v c="$2" '$1 == s { print $c }' "$work/table.txt" | sort -g | awk '
        { v[NR] = $1 }
        function q(p,  h, l) { h = (NR - 1) * p + 1; l = int(h); return v[l] + (h - l) * (v[l + 1] - v[l]) }
        END { v[NR + 1] = v[NR]; printf "median %.6g  IQR %.6g..%.6g", q(0.5), q(0.25), q(0.75) }'
}
for col in 2:pps 3:tick_p99_us; do
    c=${col%%:*} name=${col#*:}
    for side in parent change; do
        echo "$name $side: $(summary "$side" "$c")"
    done
done

# Pair k is the k-th parent run against the k-th change run.
paste <(awk '$1 == "parent"' "$work/table.txt") <(awk '$1 == "change"' "$work/table.txt") | awk -v n="$pairs" '
    { pps += ($10 > $2); tick += ($11 < $3) }
    END { printf "change wins: pps %d/%d, tick_p99_us %d/%d\n", pps, n, tick, n }'

distinct=$(cut -d' ' -f4- "$work/table.txt" | sort -u | wc -l)
if [ "$distinct" -ne 1 ]; then
    echo "detection metrics differ between runs (tpr fpr ttm_p50 ttm_p99 mitigated_frac):" >&2
    cut -d' ' -f1,4- "$work/table.txt" | sort | uniq -c >&2
    exit 1
fi
echo "detection metrics identical on every run: $(cut -d' ' -f4- "$work/table.txt" | head -n 1)"
