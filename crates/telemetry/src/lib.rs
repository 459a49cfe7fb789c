#![warn(missing_docs)]

//! # mcds-telemetry — workspace self-observability
//!
//! The emulator stack observes the paper's SoC; this crate observes the
//! emulator stack itself. It provides:
//!
//! * a metrics [`Registry`] of monotonic [`Counter`]s, [`Gauge`]s and
//!   fixed-bucket [`Histogram`]s — registration takes a lock once, but
//!   every *sample* is a handful of atomic operations with no allocation,
//!   so hot paths (the per-cycle device step, per-transaction link
//!   accounting) can stay instrumented permanently;
//! * cycle-stamped subsystem spans ([`Telemetry::span`]: bus
//!   arbitration, FIFO drain, trace encode/decode, XCP transactions,
//!   snapshot/restore, …) aggregated into three labelled registry
//!   counters per [`Subsystem`] — span count, simulated cycles and host
//!   wall-clock nanoseconds;
//! * two exporters over one [`TelemetrySnapshot`]: Prometheus text
//!   exposition ([`to_prometheus`]) and a JSON document
//!   ([`to_json`]) written next to the bench `--out-dir` artifacts.
//!
//! ## The determinism boundary
//!
//! Telemetry is strictly *outside* the deterministic device model: it is
//! never serialized into `DeviceState`/`SocSnapshot`, never hashed, and
//! never recorded in the replay input log. Wall-clock readings
//! (`Instant`-based span durations, throughput gauges) live only here.
//! Attaching or detaching telemetry must therefore never change a single
//! simulated cycle — the suite's determinism test replays a recorded run
//! with telemetry on and off and asserts bit-identical state hashes.

use std::sync::{Arc, OnceLock};

mod export;
mod metrics;
mod spans;
mod throughput;

pub use export::{to_json, to_prometheus, validate_prometheus};
pub use metrics::{
    Counter, Gauge, Histogram, MetricSnapshot, MetricValue, Registry, TelemetrySnapshot,
};
pub use spans::Subsystem;
pub use throughput::ThroughputMeter;

/// The shared telemetry bundle: one metrics registry that also carries
/// the span aggregates.
///
/// Cheap to clone (an `Arc` internally); every subsystem that wants to
/// publish holds a clone and samples through it. A detached subsystem
/// simply holds no handle — sampling is skipped entirely, so disabled
/// telemetry costs one branch.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    inner: Arc<TelemetryInner>,
}

#[derive(Debug, Default)]
struct TelemetryInner {
    registry: Registry,
    /// Per-subsystem span counters (count, sim cycles, wall ns), indexed
    /// by `Subsystem as usize` and registered on the subsystem's first
    /// span, so a subsystem that never records one exports nothing.
    spans: [OnceLock<[Counter; 3]>; Subsystem::ALL.len()],
}

impl Telemetry {
    /// Creates an empty telemetry bundle.
    pub fn new() -> Telemetry {
        Telemetry::default()
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// Records one completed span of `subsystem` work covering simulated
    /// cycles `start_cycle..end_cycle` (saturating) and `wall_ns` host
    /// nanoseconds. The first span of a subsystem registers its three
    /// `telemetry_span*{subsystem}` counters; every later one is three
    /// relaxed atomic adds and takes no lock.
    pub fn span(&self, subsystem: Subsystem, start_cycle: u64, end_cycle: u64, wall_ns: u64) {
        let [count, cycles, wall] = self.inner.spans[subsystem as usize].get_or_init(|| {
            let label = [("subsystem", subsystem.name())];
            let reg = &self.inner.registry;
            [
                ("telemetry_spans_total", "spans recorded per subsystem"),
                (
                    "telemetry_span_sim_cycles_total",
                    "simulated cycles covered by spans",
                ),
                (
                    "telemetry_span_wall_ns_total",
                    "host wall nanoseconds spent in spans",
                ),
            ]
            .map(|(name, help)| reg.counter_with(name, help, &label))
        });
        count.inc();
        cycles.add(end_cycle.saturating_sub(start_cycle));
        wall.add(wall_ns);
    }

    /// Captures a point-in-time snapshot of every metric, span
    /// aggregates included (the input to both exporters).
    pub fn snapshot(&self) -> TelemetrySnapshot {
        self.inner.registry.snapshot()
    }

    /// Renders the current state in Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        to_prometheus(&self.snapshot())
    }

    /// Renders the current state as a JSON document.
    pub fn to_json(&self) -> String {
        to_json(&self.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_roundtrips_through_both_exporters() {
        let tel = Telemetry::new();
        tel.registry().counter("demo_events_total", "events").add(3);
        tel.registry().gauge("demo_fill", "fill level").set(0.5);
        tel.span(Subsystem::TraceEncode, 10, 20, 1_000);
        let snap = tel.snapshot();
        let json = to_json(&snap);
        let back: TelemetrySnapshot = serde_json::from_str(&json).expect("JSON export parses");
        assert_eq!(back.metrics.len(), snap.metrics.len());
        let prom = to_prometheus(&snap);
        let samples = validate_prometheus(&prom).expect("prometheus export parses");
        assert!(samples >= 2);
        assert!(prom.contains("demo_events_total 3"));
    }

    #[test]
    fn clones_share_state() {
        let tel = Telemetry::new();
        let other = tel.clone();
        other.registry().counter("shared_total", "shared").inc();
        let snap = tel.snapshot();
        assert_eq!(
            snap.metrics[0].value,
            MetricValue::Counter(1),
            "clone writes are visible through the original"
        );
    }
}
