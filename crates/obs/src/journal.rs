//! The bounded structured event journal and request correlation ids.
//!
//! The journal is a fixed-capacity overwrite-oldest ring shared by every
//! layer of the stack via cheap `Clone` handles (an `Arc`, like
//! [`mcds_telemetry::Telemetry`]). The hot path is lock-free where it
//! counts: claiming a slot is one `fetch_add` on the head sequence, and
//! the only lock taken is the claimed slot's own `Mutex` — never a
//! journal-wide lock — so concurrent recorders (farm worker threads,
//! the accept loop) never serialize against each other except on the
//! rare wrap-around collision.
//!
//! Like telemetry, the journal lives strictly **outside** snapshotted
//! state: it is never hashed, never serialized into a
//! `SocSnapshot`/`SessionSnapshot`, and never replayed, so enabling it
//! cannot perturb record/replay bit-identity (`tests/obs.rs` proves it).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mcds_telemetry::Telemetry;

/// One journal entry: a typed event plus its dual timestamps.
///
/// `wall_ns` is always present (nanoseconds since the journal's epoch);
/// `cycle` is present only for events that happen at a definite point in
/// simulated time. `corr` links the entry to the farm request that caused
/// it, across every layer the request touched.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, PartialEq)]
pub struct JournalRecord {
    /// Global emission sequence number (dense, starts at 0).
    pub seq: u64,
    /// Request-scoped correlation id, if the event is attributable to a
    /// farm request.
    pub corr: Option<u64>,
    /// Simulated-cycle timestamp, for events anchored in device time.
    pub cycle: Option<u64>,
    /// Wall-clock nanoseconds since the journal was created.
    pub wall_ns: u64,
    /// The typed event.
    pub event: ObsEvent,
}

/// The typed cross-layer event vocabulary.
///
/// Each variant belongs to one layer (see [`ObsEvent::layer`]); a single
/// farm request leaves a correlated trail through at least the `farm`,
/// `scheduler` and `device`/`vnet` layers.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, PartialEq)]
pub enum ObsEvent {
    /// A farm JSON-RPC request entered dispatch.
    RpcDispatch {
        /// Method name (e.g. `session.run`).
        method: String,
    },
    /// A farm JSON-RPC request finished (response rendered).
    RpcComplete {
        /// Method name.
        method: String,
        /// Whether the response was a result (vs a typed error).
        ok: bool,
        /// End-to-end dispatch latency in nanoseconds.
        latency_ns: u64,
    },
    /// A scheduler worker ran one quantum of a session. The record is
    /// written when the quantum ends, so it also anchors the session's
    /// `end_cycle` at the record's `wall_ns`: the timeline uses these
    /// anchors to place sim-cycle tracks on the wall clock.
    SchedulerQuantum {
        /// Session id.
        session: u64,
        /// Device cycle count when the quantum started.
        start_cycle: u64,
        /// Device cycle count when the quantum ended.
        end_cycle: u64,
        /// Wall time the quantum took, in nanoseconds.
        wall_ns: u64,
    },
    /// A `host::Session` executed a run slice on the device.
    DeviceRun {
        /// Device cycle count before the slice.
        start_cycle: u64,
        /// Device cycle count after the slice.
        end_cycle: u64,
        /// Whether the slice ended on a core stop.
        stopped: bool,
    },
    /// The registry suspended a session to disk under memory pressure.
    SessionEvicted {
        /// Session id.
        session: u64,
        /// Bytes of the snapshot file written to disk.
        bytes: u64,
    },
    /// The registry transparently revived an evicted session.
    SessionRevived {
        /// Session id.
        session: u64,
    },
    /// A vehicle network advanced: frames moved on the fabric.
    VnetStep {
        /// Vehicle cycle at the start of the step.
        start_cycle: u64,
        /// Vehicle cycle at the end of the step.
        end_cycle: u64,
        /// Frames delivered during the step.
        frames: u64,
        /// Frames the gateway forwarded during the step.
        gateway_forwarded: u64,
    },
    /// A fleet-wide XCP calibration page swap concluded.
    VnetCalSwap {
        /// The page the fleet was switched to (or headed for).
        page: u64,
        /// Whether the two-phase swap committed (vs rolled back).
        committed: bool,
    },
    /// A campaign pipeline phase (catch, shrink, triage, snapshot).
    CampaignPhase {
        /// Phase name.
        phase: String,
        /// Human-readable detail (verdict, stats).
        detail: String,
    },
}

impl ObsEvent {
    /// The runtime layer this event belongs to.
    pub fn layer(&self) -> &'static str {
        match self {
            ObsEvent::RpcDispatch { .. } | ObsEvent::RpcComplete { .. } => "farm",
            ObsEvent::SchedulerQuantum { .. }
            | ObsEvent::SessionEvicted { .. }
            | ObsEvent::SessionRevived { .. } => "scheduler",
            ObsEvent::DeviceRun { .. } => "device",
            ObsEvent::VnetStep { .. } | ObsEvent::VnetCalSwap { .. } => "vnet",
            ObsEvent::CampaignPhase { .. } => "campaign",
        }
    }

    /// A short kind tag (the variant name, stable for grepping).
    pub fn kind(&self) -> &'static str {
        match self {
            ObsEvent::RpcDispatch { .. } => "RpcDispatch",
            ObsEvent::RpcComplete { .. } => "RpcComplete",
            ObsEvent::SchedulerQuantum { .. } => "SchedulerQuantum",
            ObsEvent::DeviceRun { .. } => "DeviceRun",
            ObsEvent::SessionEvicted { .. } => "SessionEvicted",
            ObsEvent::SessionRevived { .. } => "SessionRevived",
            ObsEvent::VnetStep { .. } => "VnetStep",
            ObsEvent::VnetCalSwap { .. } => "VnetCalSwap",
            ObsEvent::CampaignPhase { .. } => "CampaignPhase",
        }
    }
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    capacity: u64,
    /// Next sequence number to claim; also the total-ever-recorded count.
    head: AtomicU64,
    /// Next correlation id to mint (ids start at 1; 0 is never issued).
    next_corr: AtomicU64,
    slots: Vec<Mutex<Option<JournalRecord>>>,
}

/// A cheap-to-clone handle on the shared bounded event journal.
#[derive(Debug, Clone)]
pub struct Journal(Arc<Inner>);

impl Journal {
    /// Creates a journal holding the last `capacity` records (min 1).
    pub fn new(capacity: usize) -> Journal {
        let capacity = capacity.max(1);
        Journal(Arc::new(Inner {
            epoch: Instant::now(),
            capacity: capacity as u64,
            head: AtomicU64::new(0),
            next_corr: AtomicU64::new(1),
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
        }))
    }

    /// Mints a fresh request-scoped correlation id (never 0).
    pub fn next_corr(&self) -> u64 {
        self.0.next_corr.fetch_add(1, Ordering::Relaxed)
    }

    /// Records one event, stamping it with the current wall clock.
    ///
    /// `corr` attributes the event to a farm request; `cycle` anchors it
    /// in simulated time. The oldest record is overwritten once the ring
    /// is full.
    pub fn record(&self, corr: Option<u64>, cycle: Option<u64>, event: ObsEvent) {
        let wall_ns = self.0.epoch.elapsed().as_nanos() as u64;
        self.record_at(corr, cycle, wall_ns, event);
    }

    /// [`Journal::record`] with an explicit wall timestamp, for recorders
    /// whose output must be deterministic across runs (e.g. the campaign
    /// flight recorder, whose dump is serialized into repro artifacts that
    /// same-seed campaigns must reproduce byte-identically).
    pub fn record_at(&self, corr: Option<u64>, cycle: Option<u64>, wall_ns: u64, event: ObsEvent) {
        let seq = self.0.head.fetch_add(1, Ordering::Relaxed);
        let slot = (seq % self.0.capacity) as usize;
        let mut guard = self.0.slots[slot].lock().expect("journal slot poisoned");
        // On wrap-around two threads can claim sequences that map to the
        // same slot; the newer sequence wins so the ring stays "last N".
        if guard.as_ref().is_some_and(|r| r.seq > seq) {
            return;
        }
        *guard = Some(JournalRecord {
            seq,
            corr,
            cycle,
            wall_ns,
            event,
        });
    }

    /// Ring capacity.
    pub fn capacity(&self) -> u64 {
        self.0.capacity
    }

    /// Total records ever emitted (including overwritten ones).
    pub fn total(&self) -> u64 {
        self.0.head.load(Ordering::Relaxed)
    }

    /// Records lost to ring overwrite.
    pub fn overwritten(&self) -> u64 {
        self.total().saturating_sub(self.0.capacity)
    }

    /// Correlation ids minted so far.
    pub fn correlations(&self) -> u64 {
        self.0.next_corr.load(Ordering::Relaxed) - 1
    }

    /// All currently retained records, oldest first.
    pub fn snapshot(&self) -> Vec<JournalRecord> {
        let mut out: Vec<JournalRecord> = self
            .0
            .slots
            .iter()
            .filter_map(|s| s.lock().expect("journal slot poisoned").clone())
            .collect();
        out.sort_by_key(|r| r.seq);
        out
    }

    /// The last `n` retained records, oldest first.
    pub fn tail(&self, n: usize) -> Vec<JournalRecord> {
        let mut all = self.snapshot();
        if all.len() > n {
            all.drain(..all.len() - n);
        }
        all
    }

    /// The last `n` records as a JSON array — the flight-recorder dump
    /// attached to repro artifacts and typed farm error payloads.
    ///
    /// # Panics
    ///
    /// Never panics: journal records serialize infallibly.
    pub fn tail_json(&self, n: usize) -> String {
        serde_json::to_string(&self.tail(n)).expect("journal records serialize")
    }

    /// Mirrors journal totals into the `obs_*` telemetry namespace.
    pub fn publish_telemetry(&self, tel: &Telemetry) {
        let reg = tel.registry();
        reg.counter(
            "obs_journal_records_total",
            "events ever recorded in the obs journal",
        )
        .store(self.total());
        reg.counter(
            "obs_journal_overwritten_total",
            "obs journal events lost to ring overwrite",
        )
        .store(self.overwritten());
        reg.counter("obs_correlations_total", "request correlation ids minted")
            .store(self.correlations());
        reg.gauge("obs_journal_capacity", "obs journal ring capacity")
            .set(self.capacity() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_last_n_in_order() {
        let j = Journal::new(4);
        for i in 0..10u64 {
            j.record(
                Some(i),
                Some(i * 100),
                ObsEvent::CampaignPhase {
                    phase: format!("p{i}"),
                    detail: String::new(),
                },
            );
        }
        assert_eq!(j.total(), 10);
        assert_eq!(j.overwritten(), 6);
        let snap = j.snapshot();
        assert_eq!(snap.len(), 4);
        let seqs: Vec<u64> = snap.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        let tail = j.tail(2);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].seq, 8);
        assert_eq!(tail[1].seq, 9);
    }

    #[test]
    fn corr_ids_start_at_one_and_are_unique() {
        let j = Journal::new(8);
        assert_eq!(j.correlations(), 0);
        let a = j.next_corr();
        let b = j.next_corr();
        assert_eq!(a, 1);
        assert_eq!(b, 2);
        assert_eq!(j.correlations(), 2);
    }

    #[test]
    fn records_round_trip_through_json() {
        let j = Journal::new(8);
        j.record(
            Some(7),
            None,
            ObsEvent::RpcDispatch {
                method: "session.run".into(),
            },
        );
        j.record(
            Some(7),
            Some(50_000),
            ObsEvent::SchedulerQuantum {
                session: 1,
                start_cycle: 0,
                end_cycle: 50_000,
                wall_ns: 12_345,
            },
        );
        let json = j.tail_json(16);
        let back: Vec<JournalRecord> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, j.tail(16));
        assert_eq!(back[0].event.layer(), "farm");
        assert_eq!(back[1].event.layer(), "scheduler");
        assert_eq!(back[1].event.kind(), "SchedulerQuantum");
    }

    #[test]
    fn concurrent_recording_drops_nothing_before_wrap() {
        let j = Journal::new(1024);
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let j = j.clone();
                std::thread::spawn(move || {
                    for i in 0..64u64 {
                        j.record(
                            Some(t),
                            None,
                            ObsEvent::DeviceRun {
                                start_cycle: i,
                                end_cycle: i + 1,
                                stopped: false,
                            },
                        );
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(j.total(), 256);
        assert_eq!(j.snapshot().len(), 256);
    }

    #[test]
    fn telemetry_mirror_exports_obs_namespace() {
        let j = Journal::new(4);
        j.next_corr();
        j.record(None, None, ObsEvent::SessionRevived { session: 3 });
        let tel = Telemetry::new();
        j.publish_telemetry(&tel);
        let prom = tel.to_prometheus();
        assert!(prom.contains("obs_journal_records_total 1"));
        assert!(prom.contains("obs_correlations_total 1"));
        assert!(prom.contains("obs_journal_capacity 4"));
    }
}
