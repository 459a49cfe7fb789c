//! The streaming observation pipeline: push-based per-cycle event sinks.
//!
//! The MCDS hardware consumes the SoC's observable events *as they occur*
//! — qualification, compression and storage all happen on a flowing
//! stream, never on a buffered whole-run recording. [`CycleSink`] is the
//! software analogue: [`crate::soc::Soc::step_into`] pushes each cycle's
//! events into a sink from one reused scratch buffer, so steady-state
//! stepping performs no heap allocation per cycle and long runs need no
//! memory proportional to their length.
//!
//! The contract:
//!
//! * [`CycleSink::observe`] is called exactly once per stepped cycle, with
//!   strictly increasing `cycle` values and the cycle's events in
//!   within-cycle priority order (bus before trigger edges before retires,
//!   in core order — the same order [`CycleRecord::events`] uses).
//! * The event slice is only valid for the duration of the call: it is a
//!   view into the stepper's scratch buffer, which is reused on the next
//!   cycle. Sinks that need history copy what they keep ([`Collect`] is
//!   the canonical such adapter).
//! * Sinks must not assume every cycle has events; empty slices are
//!   delivered too (they carry the cycle number, which pacing-sensitive
//!   observers like throughput meters and checkpoint rings rely on).
//! * A sink that does not [want every cycle](CycleSink::wants_cycles)
//!   sees the stepped cycles as above, and of the cycles the execution
//!   kernel batches only those with core events: each such cycle once, in
//!   order, with its retires and halts in core order and without the bus
//!   tap's [`SocEvent::Bus`] records. Skipped and event-free batched
//!   cycles are not delivered.
//!
//! Combinators: [`NullSink`] discards (the fast-forward path), [`Collect`]
//! materialises `Vec<CycleRecord>` for the legacy batch API, and
//! [`FanOut`] duplicates the stream to two sinks in a guaranteed order
//! (first, then second; nest for wider fan-out).

use crate::event::{CycleRecord, SocEvent};

/// A push-based consumer of the per-cycle observable event stream.
///
/// Implementors receive every stepped cycle exactly once, in order. See
/// the [module docs](self) for the full contract (slice lifetime, event
/// ordering, empty cycles).
pub trait CycleSink {
    /// Observes one cycle's events. `events` is borrowed from the
    /// stepper's scratch buffer and must be copied if kept.
    fn observe(&mut self, cycle: u64, events: &[SocEvent]);

    /// Observes an already-materialised [`CycleRecord`] (batch-replay
    /// convenience; delegates to [`CycleSink::observe`]).
    fn observe_record(&mut self, record: &CycleRecord) {
        self.observe(record.cycle, &record.events);
    }

    /// Whether this sink needs to observe every simulated cycle.
    ///
    /// Returning `false` licenses the execution kernel to advance time in
    /// batches (event skips, basic blocks) without calling
    /// [`CycleSink::observe`] for the elided cycles: the sink forfeits the
    /// once-per-cycle guarantee in exchange for speed. Stepped cycles are
    /// still delivered whole, and batched cycles with core events are
    /// delivered with those events (see the [module docs](self)), so a
    /// non-observing sink sees a *subset* of cycles, never a wrong one.
    /// Anything that needs bus events or per-cycle pacing must keep the
    /// default `true`.
    fn wants_cycles(&self) -> bool {
        true
    }

    /// Whether [`CycleSink::observe`] ignores everything it is handed
    /// ([`NullSink`]). The kernel then keeps no events of the cycles it
    /// batches for this sink. A sink that does not discard observes the
    /// batched run, so the kernel also leaves every data access into the
    /// emulation-RAM or overlay-control window to the exact step: the
    /// observer may write emulation RAM only after the batched stretch
    /// (the device's trace store does), and no bus master may read memory
    /// that per-cycle execution would already have written.
    fn discards(&self) -> bool {
        false
    }
}

/// Forwarding impl so `&mut S` can be passed where a sink is consumed by
/// value (e.g. building a [`FanOut`] of borrowed sinks).
impl<S: CycleSink + ?Sized> CycleSink for &mut S {
    fn observe(&mut self, cycle: u64, events: &[SocEvent]) {
        (**self).observe(cycle, events);
    }

    fn wants_cycles(&self) -> bool {
        (**self).wants_cycles()
    }

    fn discards(&self) -> bool {
        (**self).discards()
    }
}

/// Discards the stream: the zero-cost sink for fast-forwarding without
/// observation (`run_cycles` routes through this).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl CycleSink for NullSink {
    #[inline]
    fn observe(&mut self, _cycle: u64, _events: &[SocEvent]) {}

    /// Discarding sink: the kernel may elide cycles entirely.
    fn wants_cycles(&self) -> bool {
        false
    }

    fn discards(&self) -> bool {
        true
    }
}

/// Back-compat adapter: collects the stream into `Vec<CycleRecord>`,
/// reproducing exactly what the legacy allocate-and-collect API returned.
///
/// Memory grows with run length — use it only when the whole recording is
/// genuinely needed (equivalence tests, ground-truth comparisons, short
/// windows).
#[derive(Debug, Default, Clone)]
pub struct Collect {
    /// The materialised per-cycle records, in step order.
    pub records: Vec<CycleRecord>,
}

impl Collect {
    /// An empty collector.
    pub fn new() -> Collect {
        Collect::default()
    }

    /// Consumes the collector, returning the records.
    pub fn into_records(self) -> Vec<CycleRecord> {
        self.records
    }
}

impl CycleSink for Collect {
    fn observe(&mut self, cycle: u64, events: &[SocEvent]) {
        self.records.push(CycleRecord {
            cycle,
            events: events.to_vec(),
        });
    }
}

/// Duplicates the stream to two sinks with a guaranteed delivery order:
/// `first` observes the cycle before `second`. Nest `FanOut`s for wider
/// fan-out; ordering stays depth-first left-to-right, so observers with
/// cross-dependencies (e.g. a profiler feeding a report that a telemetry
/// publisher samples) can rely on it.
#[derive(Debug, Default, Clone, Copy)]
pub struct FanOut<A, B> {
    /// The sink that observes each cycle first.
    pub first: A,
    /// The sink that observes each cycle second.
    pub second: B,
}

impl<A: CycleSink, B: CycleSink> FanOut<A, B> {
    /// Fans the stream out to `first`, then `second`.
    pub fn new(first: A, second: B) -> FanOut<A, B> {
        FanOut { first, second }
    }
}

impl<A: CycleSink, B: CycleSink> CycleSink for FanOut<A, B> {
    fn observe(&mut self, cycle: u64, events: &[SocEvent]) {
        self.first.observe(cycle, events);
        self.second.observe(cycle, events);
    }

    /// A fan-out needs per-cycle delivery if either branch does.
    fn wants_cycles(&self) -> bool {
        self.first.wants_cycles() || self.second.wants_cycles()
    }

    fn discards(&self) -> bool {
        self.first.discards() && self.second.discards()
    }
}

/// A counting sink: cycles seen and events seen, nothing stored. Handy as
/// a cheap progress probe on an otherwise-discarded stream.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountSink {
    /// Cycles observed.
    pub cycles: u64,
    /// Total events observed.
    pub events: u64,
}

impl CycleSink for CountSink {
    #[inline]
    fn observe(&mut self, _cycle: u64, events: &[SocEvent]) {
        self.cycles += 1;
        self.events += events.len() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CoreId;

    fn ev(line: u8) -> SocEvent {
        SocEvent::TriggerIn { line, level: true }
    }

    #[test]
    fn collect_materialises_records() {
        let mut c = Collect::new();
        c.observe(7, &[ev(0), ev(1)]);
        c.observe(8, &[]);
        let records = c.into_records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].cycle, 7);
        assert_eq!(records[0].events.len(), 2);
        assert!(records[1].is_empty());
    }

    #[test]
    fn fan_out_delivers_in_order() {
        use std::cell::RefCell;
        struct Tagger<'a>(u8, &'a RefCell<Vec<(u8, u64)>>);
        impl CycleSink for Tagger<'_> {
            fn observe(&mut self, cycle: u64, _events: &[SocEvent]) {
                self.1.borrow_mut().push((self.0, cycle));
            }
        }
        let log = RefCell::new(Vec::new());
        let mut fan = FanOut::new(
            Tagger(1, &log),
            FanOut::new(Tagger(2, &log), Tagger(3, &log)),
        );
        fan.observe(5, &[ev(0)]);
        fan.observe(6, &[]);
        assert_eq!(
            log.into_inner(),
            vec![(1, 5), (2, 5), (3, 5), (1, 6), (2, 6), (3, 6)]
        );
    }

    #[test]
    fn count_sink_counts() {
        let mut c = CountSink::default();
        c.observe(0, &[ev(0), ev(1), ev(2)]);
        c.observe(1, &[]);
        assert_eq!(c.cycles, 2);
        assert_eq!(c.events, 3);
    }

    #[test]
    fn observe_record_delegates() {
        let mut c = CountSink::default();
        let record = CycleRecord {
            cycle: 3,
            events: vec![SocEvent::CoreStopped {
                core: CoreId(0),
                cause: crate::event::StopCause::HaltInstr,
                pc: 0,
            }],
        };
        c.observe_record(&record);
        assert_eq!((c.cycles, c.events), (1, 1));
    }
}
