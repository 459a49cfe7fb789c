#!/usr/bin/env bash
# Full verification gate: build, test, lint. Run from the repo root.
# Everything is offline (vendored deps) and deterministic.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
cargo build --release
cargo test -q --workspace
# The vendored stubs sit outside the workspace; the JSON one carries the
# snapshot codec's string fast paths.
cargo test -q -p serde_json
cargo clippy --workspace -- -D warnings

# Examples: each asserts its scenario (dual_ecu: the cross-ECU trigger
# latency over the CAN fabric) and exits non-zero on a regression.
for example in quickstart calibration_session dual_ecu trace_filtering \
               race_hunt performance_monitor; do
  cargo run --release -q --example "$example" >/dev/null
done

# Analysis pipeline smoke: real workloads through the PSI trace path,
# emitting timeline + coverage artifacts under target/analysis/.
cargo run --release -q -p mcds-bench --bin t8_profiling -- --smoke

# Fault-recovery smoke: XCP retry/SYNCH and trace resync under seeded
# link faults (short sweep, same assertions as the full run).
cargo run --release -q -p mcds-bench --bin t7_fault_recovery -- --smoke

# Replay smoke: snapshot determinism, bit-identical resume, checkpointed
# seek >=5x over re-execution, exact reverse_step.
cargo run --release -q -p mcds-bench --bin t9_replay -- --smoke

# Telemetry smoke: hot-path overhead bound, health report on a faulted
# session, exporter round-trip — then check the artifacts actually carry
# the core metric set in both formats.
cargo run --release -q -p mcds-bench --bin t10_telemetry -- --smoke
for metric in mcds_sim_cycles_total mcds_bus_busy_cycles_total \
              mcds_fifo_pushed_total mcds_trace_emitted_total \
              mcds_sink_used_bytes; do
  grep -q "$metric" target/analysis/t10_telemetry.prom \
    || { echo "missing $metric in t10_telemetry.prom"; exit 1; }
  grep -q "\"$metric\"" target/analysis/t10_telemetry.json \
    || { echo "missing $metric in t10_telemetry.json"; exit 1; }
done
# Streaming-pipeline smoke: the push-based observation path must beat the
# legacy allocate-and-collect path by >=2x cycles/s (asserted in-bench),
# with flat memory on the long streamed run.
cargo run --release -q -p mcds-bench --bin t11_streaming -- --smoke

# Campaign smoke: a seeded coverage-guided fault campaign (asserted
# in-bench: >=1 fault scenario recovers, the frontier grows and stays
# monotone, the planted race shrinks to an on-disk repro that replays
# bit-identically).
cargo run --release -q -p mcds-bench --bin t12_campaign -- --smoke
test -s target/analysis/t12_repro_race.json \
  || { echo "missing t12_repro_race.json"; exit 1; }

# Farm smoke: the multi-session debug service (asserted in-bench: every
# churned session revives bit-identical over the TCP wire path; untraced
# sessions run batched, farm_cycles_batched_total > 0; the 1->4-worker
# >=2x scaling assert arms when the host has >=4 CPUs). The
# farm_* metric namespace and the fleet health table must land in the
# artifacts.
cargo run --release -q -p mcds-bench --bin t13_farm -- --smoke
for metric in farm_sessions_created_total farm_sessions_evicted_total \
              farm_sessions_revived_total farm_cycles_total \
              farm_cycles_batched_total \
              farm_requests_total farm_request_latency_ns \
              farm_connections_open; do
  grep -q "$metric" target/analysis/t13_farm_telemetry.prom \
    || { echo "missing $metric in t13_farm_telemetry.prom"; exit 1; }
done
grep -q "mcds-top fleet" target/analysis/t13_fleet_health.txt \
  || { echo "missing fleet table in t13_fleet_health.txt"; exit 1; }

# Vehicle-network smoke: the N-ECU CAN fabric (asserted in-bench: 2/4/8-ECU
# vehicles land on identical state hashes across repeated runs; the
# fleet-wide XCP page swap commits; the gateway route carries frames). The
# vnet_* metric namespace and the Vnet span subsystem must land in the
# Prometheus artifact.
cargo run --release -q -p mcds-bench --bin t14_vnet -- --smoke
for metric in vnet_ecus vnet_frames_total vnet_bus_utilization \
              vnet_arbitration_contended_total vnet_gateway_forwarded_total \
              vnet_cal_swaps_total; do
  grep -q "$metric" target/analysis/t14_vnet_telemetry.prom \
    || { echo "missing $metric in t14_vnet_telemetry.prom"; exit 1; }
done
grep -q 'subsystem="vnet"' target/analysis/t14_vnet_telemetry.prom \
  || { echo "missing vnet span subsystem in t14_vnet_telemetry.prom"; exit 1; }

# Observability smoke: the cross-layer causal-tracing spine (asserted
# in-bench: journal on/off runs land on identical state hashes within the
# <10% overhead budget; one request's correlation id spans >=3 layers; the
# planted campaign failure carries a flight-recorder dump). The obs_*
# metric namespace, the unified Perfetto timeline and the journal dump
# must land in the artifacts.
cargo run --release -q -p mcds-bench --bin t15_obs -- --smoke
for metric in obs_journal_records_total obs_correlations_total \
              obs_journal_capacity; do
  grep -q "$metric" target/analysis/t15_obs_telemetry.prom \
    || { echo "missing $metric in t15_obs_telemetry.prom"; exit 1; }
done
test -s target/analysis/t15_timeline.json \
  || { echo "missing t15_timeline.json"; exit 1; }
test -s target/analysis/t15_journal.json \
  || { echo "missing t15_journal.json"; exit 1; }
grep -q '"corr"' target/analysis/t15_journal.json \
  || { echo "missing correlation ids in t15_journal.json"; exit 1; }

# Execution-kernel smoke: the discrete-event kernel and batched
# basic-block execution (asserted in-bench: block-batched >=5x per-cycle
# on straight-line code and >=10x on a quiescent timer-wait workload,
# state hashes AND decoded traces bit-identical to per-cycle stepping).
# The t16_* metric set must land in the Prometheus artifact.
cargo run --release -q -p mcds-bench --bin t16_kernel -- --smoke
for metric in t16_block_cycles_total t16_skipped_cycles_total \
              t16_line_speedup t16_quiet_speedup t16_decode_hit_rate \
              t16_two_core_speedup t16_traced_speedup; do
  grep -q "$metric" target/analysis/t16_kernel_telemetry.prom \
    || { echo "missing $metric in t16_kernel_telemetry.prom"; exit 1; }
done

for t in t7 t8 t9 t11 t12 t13_farm t14_vnet t15_obs t16_kernel; do
  test -s "target/analysis/${t}_telemetry.json" \
    || { echo "missing ${t}_telemetry.json"; exit 1; }
done

# Consumer benchmark: `benchmark/` is a cargo workspace of its own, so the
# workspace build above never compiles it. Build it against the current
# crates and run one short workload (its correctness gate exits non-zero).
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test --release -q --offline --manifest-path benchmark/Cargo.toml
cargo run --release -q --offline --manifest-path benchmark/Cargo.toml -- \
  --workload farm-debug --seed 1 --seconds 1 --trace 0 >/dev/null
# Eviction gate: every churned session's revived hash must equal its
# evicted hash and the in-process reference.
cargo run --release -q --offline --manifest-path benchmark/Cargo.toml -- \
  --workload farm-churn --seed 1 --seconds 2 --trace 0 >/dev/null
# Cross-layer hash gate: the traced run walks one workload through
# Soc -> Device -> Session -> Scheduler -> TCP and exits non-zero unless
# every layer ends on the same state hash.
cargo run --release -q --offline --manifest-path benchmark/Cargo.toml -- \
  --workload farm-run --seed 1 --seconds 2 --trace 1 >/dev/null
