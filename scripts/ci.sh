#!/usr/bin/env bash
# Tier-1 CI gate. Everything here runs offline (no crates.io access).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (tier-1)"
cargo test -q

echo "==> runtime integration tests (release)"
cargo test --release -p ensemble-runtime --test loopback_stack
cargo test --release -p ensemble-runtime --test udp_smoke
cargo test --release -p ensemble-runtime --test obs_trace

echo "==> cluster: cross-node view-change convergence (release)"
cargo test --release -p ensemble-cluster --test convergence

echo "==> cluster: seeded partition chaos + fenced-member rejoin (release)"
# chaos_soak splits 4/2 on a fixed seed matrix and replays the whole
# execution against the virtual-synchrony checker; rejoin kills a
# member and absorbs its fresh incarnation through the merge path.
cargo test --release -p ensemble-cluster --test chaos_soak
cargo test --release -p ensemble-cluster --test rejoin
# Two stalled halves heal: the half holding the newer state is senior.
cargo test --release -p ensemble-cluster --test merge_seniority

echo "==> cluster: demo — 3 nodes rendezvous, 1 killed, survivors install the new view"
# cluster_demo exits nonzero if the successor view is not installed
# within ten heartbeat periods or any cast is lost/duplicated.
cargo run --release -p ensemble-cluster --example cluster_demo

echo "==> cluster: demo — scripted 4/2 split, minority stall, heal, view merge"
# --partition exits nonzero if the minority delivers primary-only
# traffic or any vsync invariant is violated across the episode.
cargo run --release -p ensemble-cluster --example cluster_demo -- --partition

echo "==> kv: chaos linearizability + TCP client plane (release)"
# chaos_load_stays_linearizable drives 100 simulated and 2 pipelining
# TCP clients through seeded split/stall/heal/merge rounds, replays
# every commit and response against the linearizability checker, and
# reads the request/commit/response series off a live replica;
# tcp_plane exercises pipelining, redirect-away-from-stalled, and
# per-request timeouts over real sockets.
cargo test --release -p ensemble-kv --test kv_chaos
cargo test --release -p ensemble-kv --test tcp_plane

echo "==> kv: crash recovery through the real replica path (release)"
# recovery kills a durable replica without a WAL flush, tears its disk,
# and checks both rejoin shapes: the quiet crash takes the
# state-transfer fast path (snapshot skipped), the torn crash recovers
# a strict prefix and catches up by snapshot. Its crash gate runs eight
# crash/restart cycles under load on fault-injecting disks and fails
# unless every restart recovered from the WAL, the injected faults
# fired (torn tails, absorbed storage errors), the recovery invariants
# held, a double recovery is byte-identical, and a live replica exposes
# the WAL series.
cargo test --release -p ensemble-kv --test recovery

echo "==> kv: demo — replicated KV through a partition round, linearizability replay"
# kv_demo exits nonzero if the majority cannot commit during the
# partition, a replica never resumes serving after the heal, or the
# checker finds a violation; --crash swaps the partition for a
# crash-stop + WAL recovery episode and also replays the recovery
# invariants.
cargo run --release -p ensemble-kv --example kv_demo
cargo run --release -p ensemble-kv --example kv_demo -- --tcp
cargo run --release -p ensemble-kv --example kv_demo -- --crash

echo "==> analyze: stack_lint over every registered stack (HS/CC/DF passes)"
# --all-registered exits 2 if any registry stack was skipped; a deny-level
# DF diagnostic (non-commuting defers, undeclared state, stale certificate)
# makes stack_lint itself exit 1.
cargo run --release -p ensemble-analyze --bin stack_lint -- --all-registered
cargo run --release -p ensemble-analyze --bin stack_lint -- \
  --json --all-registered --out LINT_stacks.json --df-out DF_defer.json
test -s LINT_stacks.json
test -s DF_defer.json
cargo run --release -p ensemble-bench --bin lint_check -- \
  LINT_stacks.json --df DF_defer.json

echo "==> analyze: seeded collision must be caught"
if cargo run --release -p ensemble-analyze --bin stack_lint -- --inject-collision --quiet; then
  echo "stack_lint failed to reject the seeded header collision" >&2
  exit 1
fi

echo "==> runtime: smoke run exposes the defer-batching series"
# udp_pingpong installs the bypass on a defer-licensed stack, so the
# exposition must carry the batching counters the certificate gate feeds.
PINGPONG_OUT=$(cargo run --release -p ensemble-runtime --example udp_pingpong -- --metrics)
for series in \
  'ensemble_defer_batched_total' \
  'ensemble_defer_flushes_total'; do
  grep -q "^$series" <<<"$PINGPONG_OUT" || {
    echo "missing series: $series" >&2
    exit 1
  }
done

echo "==> bench: table2a emits and validates BENCH_table2a.json"
TABLE2A_OUT=$(cargo run --release -p ensemble-bench --bin table2a)
test -s BENCH_table2a.json
cargo run --release -p ensemble-bench --bin obs_check -- BENCH_table2a.json

echo "==> bench: metrics exposition carries the required series"
for series in \
  'ensemble_model_cost_total{engine="IMP",counter="instructions"}' \
  'ensemble_model_cost_total{engine="FUNC",counter="data_refs"}' \
  'ensemble_model_cost_total{engine="HAND",counter="dispatches"}' \
  'ensemble_model_cost_total{engine="MACH",counter="branches"}'; do
  grep -qF "$series" <<<"$TABLE2A_OUT" || {
    echo "missing series: $series" >&2
    exit 1
  }
done

echo "==> perfbench: the benchmark builds and its unit tests pass (release)"
# perfbench is its own workspace, so the steps above never compile it:
# a renamed item it imports would otherwise fail only when the
# benchmark runs.
cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml
cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "CI OK"
