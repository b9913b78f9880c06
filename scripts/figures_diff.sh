#!/usr/bin/env bash
# Parent-vs-change check that the paper artefacts and the examples print
# the same bytes.
#
#   scripts/figures_diff.sh [seed]
#
# The change side is the working tree. The parent side is the revision in
# $BASE (default HEAD^), exported with `git archive` into a scratch
# directory, so the checkout and its worktree list are never touched. Each
# side is built in a target directory of its own and runs `figures all
# --seed <seed>` (default 7, quick effort) and the four root examples.
#
# Prints one line per output, `same` or `DIFFERS`, with a unified diff of
# each differing output. Exits 1 if any stdout differs or a run fails.
#
# Environment: BASE (parent revision), WORK_DIR (keep the builds and the
# outputs there, and reuse them on the next call, instead of a temporary
# directory). The parent's outputs depend only on its revision and the
# seed, so with a kept WORK_DIR they are computed once per pair.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD

seed=${1:-7}
base=$(git rev-parse --verify "${BASE:-HEAD^}^{commit}")
examples="quickstart ddos_mitigation iot_botnet_hunt adversarial_robustness"

if [ -n "${WORK_DIR:-}" ]; then
    work=$WORK_DIR
    mkdir -p "$work"
else
    work=$(mktemp -d)
    trap 'rm -rf "$work"' EXIT
fi

# Builds one side and writes each output to $work/out-<side>/<name>.txt.
run_side() {
    local side=$1 dir=$2 out=$work/out-$1 target=$work/target-$1 ex
    rm -rf "$out" && mkdir -p "$out"
    echo "# building $side"
    (cd "$dir" && CARGO_TARGET_DIR=$target cargo build --release --offline --quiet \
        -p iguard-bench --bin figures &&
        CARGO_TARGET_DIR=$target cargo build --release --offline --quiet --examples)
    echo "# running $side: figures all --seed $seed"
    (cd "$dir" && "$target/release/figures" all --seed "$seed" >"$out/figures.txt")
    for ex in $examples; do
        echo "# running $side: example $ex"
        (cd "$dir" && "$target/release/examples/$ex" >"$out/$ex.txt")
    done
}

stamp="$base seed $seed"
if [ "$(cat "$work/out-parent/.stamp" 2>/dev/null)" != "$stamp" ]; then
    rm -rf "$work/parent" && mkdir -p "$work/parent"
    git archive "$base" | tar -x -C "$work/parent"
    run_side parent "$work/parent"
    echo "$stamp" >"$work/out-parent/.stamp"
else
    echo "# reusing parent outputs for $(git rev-parse --short "$base"), seed $seed"
fi
run_side change "$root"

status=0
for name in figures $examples; do
    a=$work/out-parent/$name.txt b=$work/out-change/$name.txt
    if cmp -s "$a" "$b"; then
        echo "same     $name ($(wc -l <"$b") lines)"
    else
        echo "DIFFERS  $name"
        diff -u "$a" "$b" || true
        status=1
    fi
done
exit $status
