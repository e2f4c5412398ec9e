#!/usr/bin/env bash
# Repo verification: tier-1 (warnings-as-errors build + full test suite)
# plus the parallel evaluator's determinism gate — the quick speedup grid
# is run twice and the two RESULT_HASH lines must agree (and each run
# already fails internally if any grid cell diverges).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: build (RUSTFLAGS=-D warnings) =="
RUSTFLAGS="-D warnings" cargo build --release

echo "== tier-1: tests =="
cargo test -q

echo "== parallel determinism gate: quick grid, twice =="
out1=$(cargo run -q --release -p cqa-bench --bin parallel_speedup -- --quick --out /tmp/verify_parallel_1.json)
echo "$out1"
out2=$(cargo run -q --release -p cqa-bench --bin parallel_speedup -- --quick --out /tmp/verify_parallel_2.json)

hash1=$(echo "$out1" | grep '^RESULT_HASH')
hash2=$(echo "$out2" | grep '^RESULT_HASH')
if [ "$hash1" != "$hash2" ]; then
    echo "NONDETERMINISM across runs: '$hash1' vs '$hash2'" >&2
    exit 1
fi
echo "determinism gate passed: $hash1 (stable across runs and grid cells)"

echo "== fault-matrix gate: injected storage faults stay typed =="
cargo run -q --release -p cqa-bench --bin fault_matrix | tail -2

echo "== observability gates: overhead <= 3%, golden metrics snapshot =="
# --gate makes obs_bench exit non-zero if the full telemetry-enabled
# median (metrics + event log + live sampler) exceeds the disabled
# median by more than 3% on the bench join.
cargo run -q --release -p cqa-bench --bin obs_bench -- --quick --gate --out /tmp/verify_obs.json
# The seeded golden workload must reproduce the committed counter
# snapshot exactly (counts only — no timings — so this is bit-stable).
cargo run -q --release -p cqa-bench --bin obs_bench -- --golden > /tmp/verify_obs_golden.txt
if ! diff -u tests/golden/metrics_seeded.txt /tmp/verify_obs_golden.txt; then
    echo "golden metrics snapshot diverged (see diff above)" >&2
    exit 1
fi
echo "golden metrics snapshot matches"

echo "== telemetry export gate: canonical Prometheus exposition =="
# The same seeded workload rendered through the canonical exporter
# (timing series skipped) must match byte-for-byte — this is the text a
# scraper sees on GET /metrics, minus the wall-clock-dependent series.
cargo run -q --release -p cqa-bench --bin obs_bench -- --golden-prom > /tmp/verify_obs_prom.txt
if ! diff -u tests/golden/prometheus_seeded.txt /tmp/verify_obs_prom.txt; then
    echo "golden Prometheus exposition diverged (see diff above)" >&2
    exit 1
fi
echo "golden Prometheus exposition matches"

echo "== flight-recorder smoke: governor abort + panic both dump =="
cargo run -q --release -p cqa-bench --bin obs_bench -- --flight-smoke 2>/dev/null | grep FLIGHT_SMOKE

echo "== property suites: closure, optimizer equivalence, governor, per-crate props =="
PROPTEST_CASES=64 cargo test -q --offline --workspace --features proptest

echo "== clippy (workspace, -D warnings) =="
cargo clippy -q --workspace -- -D warnings
echo "clippy clean"

echo "== verify OK =="
