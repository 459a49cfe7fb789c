//! The span label vocabulary.
//!
//! A span records one unit of work — a bus arbitration round, a FIFO
//! drain, one trace encode batch, an XCP transaction, a snapshot capture
//! — as `(subsystem, start_cycle, end_cycle, wall_ns)` through
//! [`crate::Telemetry::span`]. Spans are aggregated into three labelled
//! registry counters per [`Subsystem`] (count, simulated cycles, host
//! wall nanoseconds); no per-event record is kept.

/// The instrumented subsystems.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Subsystem {
    /// Bus arbitration of a debug-initiated access.
    BusArbitration,
    /// Draining trace FIFOs through the message sorter.
    FifoDrain,
    /// Encoding and storing trace messages into the sink.
    TraceEncode,
    /// Host-side decode of fetched trace bytes.
    TraceDecode,
    /// One XCP command/response transaction, including retries.
    XcpTransaction,
    /// Capturing a device snapshot.
    Snapshot,
    /// Restoring a device snapshot.
    Restore,
    /// One debug-link operation (JTAG/USB/CAN transaction).
    DebugLink,
    /// One fault-campaign scenario execution (record + replay + triage).
    Campaign,
    /// One debug-farm scheduling quantum (multi-session service work).
    Farm,
    /// One virtual-vehicle fabric step burst (CAN arbitration, gateway
    /// forwarding, fleet calibration work).
    Vnet,
}

impl Subsystem {
    /// Every subsystem, in a stable order.
    pub const ALL: [Subsystem; 11] = [
        Subsystem::BusArbitration,
        Subsystem::FifoDrain,
        Subsystem::TraceEncode,
        Subsystem::TraceDecode,
        Subsystem::XcpTransaction,
        Subsystem::Snapshot,
        Subsystem::Restore,
        Subsystem::DebugLink,
        Subsystem::Campaign,
        Subsystem::Farm,
        Subsystem::Vnet,
    ];

    /// Stable snake_case name used as the exported label value.
    pub fn name(self) -> &'static str {
        match self {
            Subsystem::BusArbitration => "bus_arbitration",
            Subsystem::FifoDrain => "fifo_drain",
            Subsystem::TraceEncode => "trace_encode",
            Subsystem::TraceDecode => "trace_decode",
            Subsystem::XcpTransaction => "xcp_transaction",
            Subsystem::Snapshot => "snapshot",
            Subsystem::Restore => "restore",
            Subsystem::DebugLink => "debug_link",
            Subsystem::Campaign => "campaign",
            Subsystem::Farm => "farm",
            Subsystem::Vnet => "vnet",
        }
    }
}

impl std::fmt::Display for Subsystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    /// The value of `name{subsystem=sub}`, if that series was exported.
    fn span_counter(tel: &Telemetry, name: &str, sub: Subsystem) -> Option<u64> {
        tel.snapshot().counter(name, &[("subsystem", sub.name())])
    }

    #[test]
    fn aggregates_per_subsystem() {
        let tel = Telemetry::new();
        tel.span(Subsystem::TraceEncode, 0, 10, 100);
        tel.span(Subsystem::TraceEncode, 10, 30, 200);
        tel.span(Subsystem::XcpTransaction, 5, 6, 50);
        let enc = Subsystem::TraceEncode;
        assert_eq!(span_counter(&tel, "telemetry_spans_total", enc), Some(2));
        assert_eq!(
            span_counter(&tel, "telemetry_span_sim_cycles_total", enc),
            Some(30)
        );
        assert_eq!(
            span_counter(&tel, "telemetry_span_wall_ns_total", enc),
            Some(300)
        );
        let xcp = Subsystem::XcpTransaction;
        assert_eq!(span_counter(&tel, "telemetry_spans_total", xcp), Some(1));
        // Two subsystems recorded spans: three series each, nothing else.
        assert_eq!(tel.snapshot().metrics.len(), 6);
        for name in [
            "telemetry_spans_total",
            "telemetry_span_sim_cycles_total",
            "telemetry_span_wall_ns_total",
        ] {
            assert_eq!(
                span_counter(&tel, name, Subsystem::Snapshot),
                None,
                "an unrecorded subsystem exports no {name} series"
            );
        }
    }

    #[test]
    fn backwards_cycles_saturate() {
        let tel = Telemetry::new();
        tel.span(Subsystem::Restore, 50, 10, 0);
        assert_eq!(
            span_counter(&tel, "telemetry_span_sim_cycles_total", Subsystem::Restore),
            Some(0)
        );
        assert_eq!(
            span_counter(&tel, "telemetry_spans_total", Subsystem::Restore),
            Some(1)
        );
    }
}
