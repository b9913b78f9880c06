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

echo "== cargo doc --offline (rustdoc warnings are errors) =="
# Catches intra-doc links left dangling when an item is deleted or
# renamed. Private items are documented too, so links to them resolve and
# the private-link lint stays allowed.
RUSTDOCFLAGS="-D warnings -A rustdoc::private_intra_doc_links" \
    cargo doc --workspace --no-deps --document-private-items --offline

# The two workspace passes run every integration suite at both worker
# extremes, the fingerprint gates among them: chaos (fixed fault seeds
# 11 and 47), controller_idempotence, tcam_parity, soa_parity,
# scale_parity, ruleset_swap, overload, phase_parity, the trained-whitelist
# deployment_gates and the telemetry_snapshot registry check.
echo "== tier-1: cargo test -q --offline (IGUARD_WORKERS=1) =="
IGUARD_WORKERS=1 cargo test -q --offline --workspace

echo "== cargo test -q --offline (IGUARD_WORKERS=8) =="
IGUARD_WORKERS=8 cargo test -q --offline --workspace

# perf/ is its own workspace, so the two gates above never reach it, yet
# it compiles against the switch crate's public replay API.
echo "== cargo fmt --check (perf/) =="
cargo fmt --manifest-path perf/Cargo.toml -- --check

echo "== cargo build --release --offline (perf/, warnings are errors) =="
RUSTFLAGS="-D warnings" cargo build --release --offline --manifest-path perf/Cargo.toml

echo "== benchmark package unit tests (perf/, its own workspace) =="
# perf/ is not a member of the root workspace, so the two passes above
# never reach its tests: metric arithmetic, every workload end to end at
# 1/100 scale, and BENCHMARK.json listing exactly what the binary prints.
cargo test -q --offline --manifest-path perf/Cargo.toml

echo "== shard invariance suite (explicit, IGUARD_WORKERS unset) =="
# The only run at the host's available_parallelism, so the only one that
# sizes the sharded backend's worker crew through the environment.
cargo test -q --offline -p iguard-switch --test shard_invariance

echo "== release-only gates (speed ratios, allocation-free stream loop, swap allocations) =="
# Debug builds skip these three suites: a timing ratio and an allocation
# count only mean something optimised. Same RUSTFLAGS as the release
# build above, so its artifacts are reused.
RUSTFLAGS="-D warnings" cargo test -q --release --offline -p iguard-switch \
    --test speed_gates --test alloc_free_stream --test swap_alloc

echo "All checks passed."
