#!/usr/bin/env bash
# Full local CI: build, tests, lints, formatting — all against the
# committed Cargo.lock so results are reproducible offline.
#
# Optional stages:
#   --soak      run the deepum-chaos crash-recovery soak (fixed seed
#               grid, wall-clock budgeted) plus the governed
#               oversubscription sweep, the multi-tenant scheduler
#               sweep, the inference-serving sweep, the device-wear
#               sweep (two retirement rates), and the
#               serial-vs-parallel determinism sweep. Off by default:
#               tier-1 stays fast.
#   --bench     run the full deepum_suite grid (serial + parallel with
#               byte-identity asserted, gated against
#               ci/bench-baseline.json for per-cell hash drift and
#               >25% wall-clock regressions) emitting BENCH_suite.json
#               and re-rendering the paper tables and pinned shape
#               checks into EXPERIMENTS.md, which must come out
#               byte-identical to the committed file; then deepum_mtbench emitting BENCH_multitenant.json
#               (simulated-kernels/sec and wall-clock, solo vs 2/4/8
#               tenants) plus BENCH_serving.json (requests/sec and
#               simulated-kernels/sec at 1/2/4 endpoints) in the
#               repository root.
#   --coverage  run cargo llvm-cov over the workspace and compare line
#               coverage against ci/coverage-baseline.txt (recording the
#               baseline on the first run). Skipped with a notice when
#               cargo-llvm-cov is not installed.
set -euo pipefail
cd "$(dirname "$0")"

SOAK=0
BENCH=0
COVERAGE=0
for arg in "$@"; do
  case "$arg" in
    --soak) SOAK=1 ;;
    --bench) BENCH=1 ;;
    --coverage) COVERAGE=1 ;;
    *) echo "unknown option: $arg (known: --soak, --bench, --coverage)" >&2; exit 2 ;;
  esac
done

echo "== build (release) =="
cargo build --release --locked

echo "== tests =="
cargo test -q --locked --workspace

echo "== deepum-tidy =="
# The baseline grandfathers pre-existing hot-path-alloc counts; new
# violations AND stale (already-fixed) entries both fail the run.
cargo run -q --locked -p deepum-analysis -- --check --baseline ci/tidy-baseline.json .

echo "== clippy =="
cargo clippy --locked --workspace --all-targets -- -D warnings

echo "== rustfmt =="
cargo fmt --check

if [ "$SOAK" -eq 1 ]; then
  echo "== chaos soak =="
  cargo run -q --locked --release -p deepum-bench --bin deepum_chaos -- \
    --seeds 16 --budget-secs 300 --iters 2
  echo "== oversubscription soak =="
  for ratio in 150 250 400; do
    cargo run -q --locked --release -p deepum-bench --bin deepum_chaos -- \
      --oversub "$ratio" --seeds 8 --budget-secs 120 --iters 2
  done
  echo "== multi-tenant soak =="
  for tenants in 2 4 8; do
    cargo run -q --locked --release -p deepum-bench --bin deepum_chaos -- \
      --tenants "$tenants" --seeds 8 --budget-secs 120 --iters 2
  done
  echo "== serving soak =="
  for rps in 2 6; do
    cargo run -q --locked --release -p deepum-bench --bin deepum_chaos -- \
      --serve "$rps" --seeds 8 --budget-secs 120
  done
  echo "== device-wear soak =="
  for ppm in 500 50000; do
    cargo run -q --locked --release -p deepum-bench --bin deepum_chaos -- \
      --wear "$ppm" --seeds 8 --budget-secs 120 --iters 2
  done
  echo "== parallel determinism soak =="
  cargo run -q --locked --release -p deepum-bench --bin deepum_chaos -- \
    --parallel --seeds 16 --budget-secs 120 --iters 2
fi

if [ "$BENCH" -eq 1 ]; then
  echo "== suite bench =="
  cargo run -q --locked --release -p deepum-bench --bin deepum_suite -- \
    --baseline ci/bench-baseline.json --out BENCH_suite.json
  echo "== paper tables unchanged =="
  git diff --exit-code -- EXPERIMENTS.md
  echo "== multi-tenant bench =="
  cargo run -q --locked --release -p deepum-bench --bin deepum_mtbench
  echo "== inference-serving bench =="
  cargo run -q --locked --release -p deepum-bench --bin deepum_mtbench -- --serve
fi

if [ "$COVERAGE" -eq 1 ]; then
  echo "== coverage =="
  if cargo llvm-cov --version >/dev/null 2>&1; then
    BASELINE_FILE=ci/coverage-baseline.txt
    # Line coverage percentage, truncated to an integer so the gate is
    # robust against sub-percent jitter.
    PCT=$(cargo llvm-cov --locked --workspace --summary-only 2>/dev/null \
      | awk '/^TOTAL/ { gsub(/%/, "", $10); printf "%d", $10 }')
    if [ -z "$PCT" ]; then
      echo "coverage: could not parse llvm-cov summary output" >&2
      exit 1
    fi
    if [ -f "$BASELINE_FILE" ]; then
      BASE=$(cat "$BASELINE_FILE")
      echo "coverage: ${PCT}% lines (baseline ${BASE}%)"
      if [ "$PCT" -lt "$BASE" ]; then
        echo "coverage regressed below the recorded baseline; raise tests or re-bless $BASELINE_FILE" >&2
        exit 1
      fi
    else
      mkdir -p "$(dirname "$BASELINE_FILE")"
      echo "$PCT" > "$BASELINE_FILE"
      echo "coverage: ${PCT}% lines (baseline recorded in $BASELINE_FILE)"
    fi
  else
    echo "coverage: cargo-llvm-cov is not installed; skipping (install with 'cargo install cargo-llvm-cov')"
  fi
fi

echo "CI OK"
