#!/usr/bin/env bash
# Tier-1 verification: build, format, lint, test (unit + doc).
set -euo pipefail
cd "$(dirname "$0")/.."

# Runs one smoke quietly under a 600 s wall-clock bound; on failure names
# it (and its command and exit code) before the script exits non-zero, so
# a red verify says which of the smokes broke, and a hung one says it
# timed out instead of hanging verify.
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
# Paper smoke (~5 s): the full experiment sweep; exits non-zero unless every
# row of the claims ledger (hfast_bench::CLAIMS) holds.
smoke paper_checks cargo run --release -q -p hfast-bench --bin paper -- experiments
# The daemon's end-to-end checks are tier-1 tests, run above:
# hfast-serve's tests/telemetry.rs spawns the binary (every
# verb, the hostile frames, each named when it fails, and the drain), and
# tests/properties.rs drives in-process daemons (cache, panic isolation,
# malformed frames, shedding, drain).
# Benchmark-package smoke: `benchmark/` is a standalone package (own
# lockfile, invisible to the workspace build above), so a change to the
# "API surface the benchmark calls" (benchmark/README.md) would otherwise
# first fail in the pipeline. Build it offline in the profile the pipeline
# runs, then run its own tests.
smoke benchmark_build cargo build --release --offline -q --manifest-path benchmark/Cargo.toml
smoke benchmark_test cargo test --release --offline -q --manifest-path benchmark/Cargo.toml
echo "verify: OK"
