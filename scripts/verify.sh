#!/usr/bin/env bash
# Tier-1 verification: build, format, lint, test (unit + doc).
set -euo pipefail
cd "$(dirname "$0")/.."

# Runs one smoke quietly under a 600 s wall-clock bound; on failure names
# it (and its command and exit code) before the script exits non-zero, so
# a red verify says which of the smokes broke, and a hung one (a drain
# that never finishes) says it timed out instead of hanging verify.
smoke() {
  local name="$1" code=0
  shift
  timeout 600 "$@" > /dev/null || code=$?
  if [ "$code" -eq 124 ]; then
    echo "verify: TIMED OUT smoke '$name' after 600 s: $*" >&2
    exit "$code"
  fi
  if [ "$code" -ne 0 ]; then
    echo "verify: FAILED smoke '$name' (exit $code): $*" >&2
    exit "$code"
  fi
}

cargo build --release
cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
cargo test --workspace -q
cargo test --doc --workspace -q
# Rustdoc with warnings as errors: a doc link to a private item or a
# redundant link target fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q
# Paper smoke (~2 s): the full experiment sweep; exits non-zero unless every
# shape check against the paper's Table 3 passes.
smoke paper_checks cargo run --release -q -p hfast-bench --bin paper -- experiments
# Fault-replay smoke: exits non-zero unless HFAST beats the fat tree in
# goodput on every (app, failure-rate) cell.
smoke faults_replay cargo run --release -q -p hfast-bench --bin faults_replay
# Hotspot-analyzer smoke on one app: exits non-zero unless the traced
# replay's hottest HFAST transit link is circuit-switched.
smoke hotspots cargo run --release -q -p hfast-bench --bin hotspots -- GTC
# Trace capture + JSON validation (GTC, P=256): exits non-zero unless the
# exported document is valid trace-event JSON with one track per rank and
# per used link and zero orphan recv spans.
smoke trace_capture cargo run --release -q -p hfast-bench --bin trace_capture
# Event-loop determinism smoke: every scenario (static 20k-flow suite,
# all-to-all burst, faulted torus with retries, credit incast, credit +
# faults + mid-run repatch on HFAST) must produce byte-identical digests
# under HFAST_THREADS=1 and =8, bare and with EngineObs + a TraceRecorder
# attached, and the span stream and histograms the instrumented runs
# leave must match across thread counts too; on divergence it prints
# scenario, thread count, which stream (output / spans / histogram) and
# expected-vs-got, and exits non-zero.
smoke eventloop_smoke cargo run --release -q -p hfast-bench --bin eventloop_smoke
# Provisioner bake-off smoke: every strategy must produce a valid
# provisioning on every app cell, paper_linear digests must match the
# PR-6 goldens (the trait extraction is bit-identical), and credit-mode
# replays must deliver every flow (no deadlock under backpressure).
smoke provision_bakeoff cargo run --release -q -p hfast-bench --bin provision_bakeoff -- --check
# Congestion-lab smoke: adversarial scenarios x fabrics x strategies under
# credit flow control; exits non-zero unless HFAST's congestion-tree
# spread is strictly below the fat tree's on every scenario x strategy
# cell, the fat tree shows off-root victims on incast, and ideal mode is
# byte-identical to the plain loop.
smoke congestion_lab cargo run --release -q -p hfast-bench --bin congestion_lab -- --check
# Serving smoke: ephemeral-port daemon exercised across every endpoint
# (health, provision, cost, tdc, simulate with and without faults, the
# panic-isolation probe, stats) and drained; exits non-zero on any
# mismatch, unexercised cache, or a hung drain.
smoke serve_self_test cargo run --release -q -p hfast-serve -- --self-test
# Fleet smoke (~5 s wall): two journaled shard processes behind the
# consistent-hash router; exits non-zero unless the fleet answers the
# single node's bytes, a rolling restart of shard 0 under a 4 s soak is
# invisible to clients (zero mismatched, zero refused, no lost loader
# connection), and every journaled job submitted before the restart
# fetches its baseline bytes after it.
smoke fleet_smoke cargo run --release -q -p hfast-serve --bin hfast-fleet -- --smoke
# Trace-plane smoke: capture a live 2-shard fleet with per-process span
# sinks, stitch client + router + shards into one Perfetto document, and
# exit non-zero unless every traced request forms exactly one connected
# causal tree (one root, zero orphans).
smoke fleet_trace cargo run --release -q -p hfast-serve --bin hfast-fleet -- --capture \
  "${TMPDIR:-/tmp}/hfast-verify-trace"
# Soak smoke (~25 s wall): the fleet smoke's drill with a 20 s soak —
# sustained mixed-verb load while the monitor polls the rolling `metrics`
# windows and shard 0 is rolling-restarted halfway; exits non-zero on any
# SLO violation — byte divergence, refused responses, a lost loader
# connection, a breached p99 ceiling, or a durable job lost across the
# restart.
smoke fleet_soak cargo run --release -q -p hfast-serve --bin hfast-fleet -- --soak --secs 20
# Benchmark-package smoke: `benchmark/` is a standalone package (own
# lockfile, invisible to the workspace build above), so a change to the
# "API surface the benchmark calls" (benchmark/README.md) would otherwise
# first fail in the pipeline. Build it offline in the profile the pipeline
# runs, then run its own tests.
smoke benchmark_build cargo build --release --offline -q --manifest-path benchmark/Cargo.toml
smoke benchmark_test cargo test --release --offline -q --manifest-path benchmark/Cargo.toml
echo "verify: OK"
