#!/usr/bin/env bash
# Canonical pre-merge check: tier-1 gate + formatting, fully offline.
#
#   scripts/check.sh
#
# The workspace has no external dependencies, so every step runs with
# --offline against an empty registry cache.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== tier-1: cargo build --release --offline (warnings are errors) =="
RUSTFLAGS="-D warnings" cargo build --release --offline --workspace --all-targets

# The two workspace passes run every integration suite at both worker
# extremes, the fingerprint gates among them: chaos (fixed fault seeds
# 11 and 47), controller_idempotence, tcam_parity, soa_parity,
# scale_parity, ruleset_swap, overload and phase_parity.
echo "== tier-1: cargo test -q --offline (IGUARD_WORKERS=1) =="
IGUARD_WORKERS=1 cargo test -q --offline --workspace

echo "== cargo test -q --offline (IGUARD_WORKERS=8) =="
IGUARD_WORKERS=8 cargo test -q --offline --workspace

echo "== benchmark package unit tests (perf/, its own workspace) =="
# perf/ is not a member of the root workspace, so the two passes above
# never reach its tests: metric arithmetic, every workload end to end at
# 1/100 scale, and BENCHMARK.json listing exactly what the binary prints.
cargo test -q --offline --manifest-path perf/Cargo.toml

echo "== shard invariance suite (explicit, IGUARD_WORKERS unset) =="
# The only run at the host's available_parallelism, so the only one that
# sizes the sharded backend's worker crew through the environment.
cargo test -q --offline -p iguard-switch --test shard_invariance

echo "== bench reporter smoke run (shard + chaos + rule-index + sketch + swap + overload sweeps) =="
smoke_out="$(mktemp /tmp/bench_smoke.XXXXXX.json)"
smoke7_out="$(mktemp /tmp/bench_smoke_pr7.XXXXXX.json)"
smoke8_out="$(mktemp /tmp/bench_smoke_pr8.XXXXXX.json)"
smoke9_out="$(mktemp /tmp/bench_smoke_pr9.XXXXXX.json)"
smoke10_out="$(mktemp /tmp/bench_smoke_pr10.XXXXXX.json)"
trap 'rm -f "$smoke_out" "$smoke7_out" "$smoke8_out" "$smoke9_out" "$smoke10_out"' EXIT
# bench_report itself hard-fails on indexed-vs-linear verdict divergence,
# on a sub-2x index speedup at >=256 rules, on sketched/exact fingerprint
# divergence, on a budget overrun, on a per-batch steady-state
# allocation, and on any PR-9 overload gate (grid fingerprint
# divergence, missed degraded cycle, FP inflation, stale storm state,
# admission seam, golden matrix). IGUARD_PR7_FLOWS shrinks the 1M-flow
# streaming sweep for CI.
IGUARD_PR7_FLOWS=8000 cargo run -q --release --offline -p iguard-bench --bin bench_report -- \
    --smoke --out "$smoke_out" --out-pr7 "$smoke7_out" --out-pr8 "$smoke8_out" \
    --out-pr9 "$smoke9_out" --out-pr10 "$smoke10_out"
test -s "$smoke_out" || { echo "bench_report wrote an empty report"; exit 1; }
grep -q '"schema": "iguard-bench-pr6"' "$smoke_out" \
    || { echo "bench_report schema marker missing"; exit 1; }
grep -q '"shard_sweep"' "$smoke_out" \
    || { echo "bench_report shard_sweep section missing"; exit 1; }
grep -q '"deterministic_across_shards": true' "$smoke_out" \
    || { echo "bench_report determinism marker missing"; exit 1; }
grep -q '"chaos_sweep"' "$smoke_out" \
    || { echo "bench_report chaos_sweep section missing"; exit 1; }
grep -q '"deterministic_replay": true' "$smoke_out" \
    || { echo "bench_report chaos determinism marker missing"; exit 1; }
grep -q '"rule_index"' "$smoke_out" \
    || { echo "bench_report rule_index section missing"; exit 1; }
grep -q '"replay_parity"' "$smoke_out" \
    || { echo "bench_report replay_parity section missing"; exit 1; }
grep -q '"soa_replay"' "$smoke_out" \
    || { echo "bench_report soa_replay section missing"; exit 1; }
# The rule-index sweep, the replay-parity section, and the SoA replay
# gate must each carry the verdict-equality marker. bench_report itself
# hard-fails if the columnar replay is below 2x the scalar path.
[ "$(grep -c '"verdicts_identical": true' "$smoke_out")" -eq 3 ] \
    || { echo "bench_report verdict-parity markers missing"; exit 1; }
# The sketched runs share the process, so their counters must appear in
# the verified telemetry snapshot.
for marker in switch.sketch.promoted switch.sketch.absorbed switch.sketch.evicted; do
    grep -q "\"$marker\"" "$smoke_out" \
        || { echo "telemetry marker $marker missing"; exit 1; }
done
# The ruleset-swap sweep runs in the same process: the transactional
# lifecycle counters (entry writes, atomic swaps, idempotent replays,
# stale rejections) must all be on the board in the snapshot.
for marker in switch.ruleset.installed switch.ruleset.removed switch.ruleset.swaps \
              switch.ruleset.stale switch.ruleset.replayed \
              switch.controller.drift_trigger core.drift.fired; do
    grep -q "\"$marker\"" "$smoke_out" \
        || { echo "telemetry marker $marker missing"; exit 1; }
done
test -s "$smoke7_out" || { echo "bench_report wrote an empty PR7 report"; exit 1; }
grep -q '"schema": "iguard-bench-pr7"' "$smoke7_out" \
    || { echo "bench_report pr7 schema marker missing"; exit 1; }
grep -q '"exact_mode_parity": true' "$smoke7_out" \
    || { echo "bench_report sketched exact-parity marker missing"; exit 1; }
grep -q '"budgets_respected": true' "$smoke7_out" \
    || { echo "bench_report budget marker missing"; exit 1; }
grep -q '"steady_state_allocation_free": true' "$smoke7_out" \
    || { echo "bench_report allocation-probe marker missing"; exit 1; }
test -s "$smoke8_out" || { echo "bench_report wrote an empty PR8 report"; exit 1; }
grep -q '"schema": "iguard-bench-pr8"' "$smoke8_out" \
    || { echo "bench_report pr8 schema marker missing"; exit 1; }
grep -q '"fired_on_shift": true' "$smoke8_out" \
    || { echo "bench_report drift-trigger marker missing"; exit 1; }
grep -q '"perturbed_diff_below_full_reinstall": true' "$smoke8_out" \
    || { echo "bench_report diff-churn marker missing"; exit 1; }
grep -q '"misclassified_during_swap": 0' "$smoke8_out" \
    || { echo "bench_report hitless-swap marker missing"; exit 1; }
grep -q '"byte_identical": true' "$smoke8_out" \
    || { echo "bench_report swap-determinism marker missing"; exit 1; }
test -s "$smoke9_out" || { echo "bench_report wrote an empty PR9 report"; exit 1; }
grep -q '"schema": "iguard-bench-pr9"' "$smoke9_out" \
    || { echo "bench_report pr9 schema marker missing"; exit 1; }
# Every canon scenario's shard x worker grid must carry the
# byte-identical certificate, and the storm scenarios must have cycled
# degraded mode (entered, shed, exited, fully recovered).
[ "$(grep -c '"grid_byte_identical": true' "$smoke9_out")" -eq 4 ] \
    || { echo "bench_report overload grid-determinism markers missing"; exit 1; }
grep -q '"degraded_cycle_observed": true' "$smoke9_out" \
    || { echo "bench_report degraded-cycle marker missing"; exit 1; }
grep -q '"confusion_matches_fresh": true' "$smoke9_out" \
    || { echo "bench_report overload recovery marker missing"; exit 1; }
grep -q '"tightens_only_under_pressure": true' "$smoke9_out" \
    || { echo "bench_report admission-tightening marker missing"; exit 1; }
grep -q '"ttm_packets"' "$smoke9_out" \
    || { echo "bench_report time-to-mitigation CDF missing"; exit 1; }
# The overload sweep shares the process, so its pressure/shedding
# telemetry must be on the board in the verified snapshot.
for marker in switch.flow_table.pressure switch.overload.degraded_enter \
              switch.overload.degraded_exit switch.overload.shed_benign \
              switch.overload.admission_tightened; do
    grep -q "\"$marker\"" "$smoke_out" \
        || { echo "telemetry marker $marker missing"; exit 1; }
done
test -s "$smoke10_out" || { echo "bench_report wrote an empty PR10 report"; exit 1; }
grep -q '"schema": "iguard-bench-pr10"' "$smoke10_out" \
    || { echo "bench_report pr10 schema marker missing"; exit 1; }
# Every canon scenario must certify both the phases-disabled twin
# (bit-identical to single-shot) and the shard x worker grid.
[ "$(grep -c '"disabled_matches_single_shot": true' "$smoke10_out")" -eq 4 ] \
    || { echo "bench_report phase single-shot-equivalence markers missing"; exit 1; }
[ "$(grep -c '"grid_byte_identical": true' "$smoke10_out")" -eq 4 ] \
    || { echo "bench_report phase grid-determinism markers missing"; exit 1; }
grep -q '"ttm_packets_by_phase"' "$smoke10_out" \
    || { echo "bench_report per-phase detection-latency CDF missing"; exit 1; }
grep -q '"unchanged": true' "$smoke10_out" \
    || { echo "bench_report phase golden-matrix marker missing"; exit 1; }
# The phase sweep shares the process: boundary/convict/escalate
# telemetry and the training-side counters must be on the board.
for marker in switch.phase.boundary switch.phase.convicted switch.phase.escalated \
              core.phase.trained core.phase.warm_starts; do
    grep -q "\"$marker\"" "$smoke_out" \
        || { echo "telemetry marker $marker missing"; exit 1; }
done

echo "All checks passed."
