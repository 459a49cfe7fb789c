//! The message sorter: temporal merge of all per-source FIFOs.
//!
//! Figure 1's "Message sorter". Each trace source feeds its own FIFO; the
//! sorter drains them into a single stream ordered by (quantized) timestamp,
//! tie-broken by source index so the order is deterministic. The sink
//! bandwidth — messages per cycle the trace memory can absorb — is the
//! resource trace qualification protects: burst rates above it back up the
//! FIFOs and eventually overflow them (measured in experiment T4).
//!
//! The drain is temporally safe because all producers run cycle-synchronous:
//! when the sorter pops at cycle *T*, every message with a timestamp ≤ *T*
//! is already enqueued, so the global minimum is the true next message.

use crate::fifo::{FifoState, MessageFifo};
use mcds_trace::{TimedMessage, TraceSource};

/// How the sorter picks the next message when several FIFOs hold one.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MergePolicy {
    /// Merge by timestamp (ties by source index) — the paper's design:
    /// temporal order is guaranteed.
    #[default]
    Timestamp,
    /// Drain the lowest-index non-empty FIFO first — the naive multiplexer
    /// a design without on-chip time stamping would use (ablation 1 of
    /// DESIGN.md). Cross-source order is whatever the mux happens to see.
    SourcePriority,
}

/// Point-in-time metrics for one per-source FIFO, the unit telemetry
/// publishes per trace source. Purely observational — reading these never
/// changes FIFO state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FifoMetrics {
    /// The trace source this FIFO serves.
    pub source: TraceSource,
    /// Configured capacity in entries.
    pub depth: usize,
    /// Current occupancy.
    pub len: usize,
    /// Maximum occupancy observed.
    pub high_water: usize,
    /// Messages accepted since creation.
    pub total_pushed: u64,
    /// Messages dropped to overflow since creation.
    pub total_lost: u64,
    /// Overflow markers inserted into the stream since creation.
    pub markers_inserted: u64,
    /// Drops not yet announced by a marker.
    pub pending_lost: u32,
}

/// Serializable runtime state of a [`MessageSorter`]: every per-source FIFO
/// (in registration order) plus the emitted counter. Sources, depth,
/// bandwidth and merge policy are configuration and are *not* included.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, PartialEq, Eq)]
pub struct SorterState {
    fifos: Vec<FifoState>,
    emitted: u64,
}

/// The message sorter and its per-source FIFOs.
#[derive(Debug)]
pub struct MessageSorter {
    fifos: Vec<MessageFifo>,
    bandwidth: usize,
    emitted: u64,
    policy: MergePolicy,
}

impl MessageSorter {
    /// Creates a sorter over the given sources, each with a FIFO of
    /// `depth`, draining up to `bandwidth` messages per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth` is zero or `sources` is empty.
    pub fn new(sources: &[TraceSource], depth: usize, bandwidth: usize) -> MessageSorter {
        MessageSorter::with_policy(sources, depth, bandwidth, MergePolicy::Timestamp)
    }

    /// Creates a sorter with an explicit [`MergePolicy`].
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth` is zero or `sources` is empty.
    pub fn with_policy(
        sources: &[TraceSource],
        depth: usize,
        bandwidth: usize,
        policy: MergePolicy,
    ) -> MessageSorter {
        assert!(bandwidth > 0, "sink bandwidth must be non-zero");
        assert!(!sources.is_empty(), "sorter needs at least one source");
        MessageSorter {
            fifos: sources
                .iter()
                .map(|&s| MessageFifo::new(s, depth))
                .collect(),
            bandwidth,
            emitted: 0,
            policy,
        }
    }

    /// The active merge policy.
    pub fn policy(&self) -> MergePolicy {
        self.policy
    }

    /// Number of sources.
    pub fn source_count(&self) -> usize {
        self.fifos.len()
    }

    /// Total messages emitted in sorted order.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Total messages lost to FIFO overflow, across sources.
    pub fn total_lost(&self) -> u64 {
        self.fifos.iter().map(|f| f.total_lost()).sum()
    }

    /// Per-source FIFO statistics as `(source, pushed, lost, high_water)`.
    pub fn fifo_stats(&self) -> Vec<(TraceSource, u64, u64, usize)> {
        self.fifos
            .iter()
            .map(|f| (f.source(), f.total_pushed(), f.total_lost(), f.high_water()))
            .collect()
    }

    /// Per-source FIFO metrics, one [`FifoMetrics`] per registered source —
    /// the richer form telemetry publishes (includes marker and fill data
    /// that the tuple-based [`MessageSorter::fifo_stats`] predates).
    pub fn fifo_metrics(&self) -> Vec<FifoMetrics> {
        self.fifos
            .iter()
            .map(|f| FifoMetrics {
                source: f.source(),
                depth: f.depth(),
                len: f.len(),
                high_water: f.high_water(),
                total_pushed: f.total_pushed(),
                total_lost: f.total_lost(),
                markers_inserted: f.markers_inserted(),
                pending_lost: f.pending_lost(),
            })
            .collect()
    }

    fn fifo_index(&self, source: TraceSource) -> Option<usize> {
        self.fifos.iter().position(|f| f.source() == source)
    }

    /// Offers a message to its source FIFO. Returns `false` if it was
    /// dropped (overflow).
    ///
    /// # Panics
    ///
    /// Panics if the message's source was not registered.
    pub fn push(&mut self, message: TimedMessage) -> bool {
        let idx = self
            .fifo_index(message.source)
            .expect("message source registered with sorter");
        self.fifos[idx].push(message)
    }

    fn pop_min(&mut self) -> Option<TimedMessage> {
        let idx = match self.policy {
            MergePolicy::Timestamp => {
                let mut best: Option<(usize, u64)> = None;
                for (i, f) in self.fifos.iter().enumerate() {
                    if let Some(front) = f.front() {
                        match best {
                            None => best = Some((i, front.timestamp)),
                            Some((_, ts)) if front.timestamp < ts => {
                                best = Some((i, front.timestamp))
                            }
                            _ => {}
                        }
                    }
                }
                best?.0
            }
            MergePolicy::SourcePriority => self.fifos.iter().position(|f| !f.is_empty())?,
        };
        self.emitted += 1;
        self.fifos[idx].pop()
    }

    /// Drains up to the configured bandwidth into `out` in timestamp order.
    /// Returns the number of messages emitted.
    pub fn drain_cycle(&mut self, out: &mut Vec<TimedMessage>) -> usize {
        self.drain_up_to(self.bandwidth, out)
    }

    /// Drains the next `n` messages (or all, if fewer wait) in timestamp
    /// order, ignoring the per-cycle bandwidth: what consecutive drain
    /// cycles with no pushes in between emit. Returns the number emitted.
    pub fn drain_up_to(&mut self, n: usize, out: &mut Vec<TimedMessage>) -> usize {
        let mut emitted = 0;
        while emitted < n {
            match self.pop_min() {
                Some(m) => {
                    out.push(m);
                    emitted += 1;
                }
                None => break,
            }
        }
        emitted
    }

    /// Drains everything (end of session / explicit flush), ignoring the
    /// per-cycle bandwidth.
    pub fn drain_all(&mut self, out: &mut Vec<TimedMessage>) -> usize {
        self.drain_up_to(usize::MAX, out)
    }

    /// Messages currently waiting across all FIFOs.
    #[inline]
    pub fn backlog(&self) -> usize {
        self.fifos.iter().map(|f| f.len()).sum()
    }

    /// Captures the sorter's runtime state (see [`SorterState`]).
    pub fn save_state(&self) -> SorterState {
        SorterState {
            fifos: self.fifos.iter().map(MessageFifo::save_state).collect(),
            emitted: self.emitted,
        }
    }

    /// Restores state captured by [`MessageSorter::save_state`] onto a
    /// sorter with the same source set.
    ///
    /// # Panics
    ///
    /// Panics if the FIFO count differs.
    pub fn restore_state(&mut self, state: &SorterState) {
        assert_eq!(
            self.fifos.len(),
            state.fifos.len(),
            "sorter source count mismatch on restore"
        );
        for (fifo, s) in self.fifos.iter_mut().zip(&state.fifos) {
            fifo.restore_state(s);
        }
        self.emitted = state.emitted;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcds_soc::event::CoreId;
    use mcds_trace::TraceMessage;

    fn sources() -> Vec<TraceSource> {
        vec![
            TraceSource::Core(CoreId(0)),
            TraceSource::Core(CoreId(1)),
            TraceSource::Bus,
        ]
    }

    fn m(src: TraceSource, ts: u64) -> TimedMessage {
        TimedMessage {
            timestamp: ts,
            source: src,
            message: TraceMessage::Watchpoint { id: 0 },
        }
    }

    #[test]
    fn drains_in_timestamp_order_across_sources() {
        let mut s = MessageSorter::new(&sources(), 16, 100);
        s.push(m(TraceSource::Core(CoreId(0)), 5));
        s.push(m(TraceSource::Core(CoreId(0)), 9));
        s.push(m(TraceSource::Core(CoreId(1)), 3));
        s.push(m(TraceSource::Bus, 7));
        let mut out = Vec::new();
        s.drain_all(&mut out);
        let ts: Vec<u64> = out.iter().map(|x| x.timestamp).collect();
        assert_eq!(ts, vec![3, 5, 7, 9]);
    }

    #[test]
    fn ties_break_by_source_index_deterministically() {
        let mut s = MessageSorter::new(&sources(), 16, 100);
        s.push(m(TraceSource::Bus, 5));
        s.push(m(TraceSource::Core(CoreId(1)), 5));
        s.push(m(TraceSource::Core(CoreId(0)), 5));
        let mut out = Vec::new();
        s.drain_all(&mut out);
        assert_eq!(out[0].source, TraceSource::Core(CoreId(0)));
        assert_eq!(out[1].source, TraceSource::Core(CoreId(1)));
        assert_eq!(out[2].source, TraceSource::Bus);
    }

    #[test]
    fn bandwidth_limits_per_cycle_drain() {
        let mut s = MessageSorter::new(&sources(), 16, 2);
        for ts in 0..6 {
            s.push(m(TraceSource::Core(CoreId(0)), ts));
        }
        let mut out = Vec::new();
        assert_eq!(s.drain_cycle(&mut out), 2);
        assert_eq!(s.backlog(), 4);
        assert_eq!(s.drain_cycle(&mut out), 2);
        assert_eq!(s.drain_cycle(&mut out), 2);
        assert_eq!(s.drain_cycle(&mut out), 0);
        assert_eq!(s.emitted(), 6);
    }

    #[test]
    fn overflow_statistics_surface() {
        let mut s = MessageSorter::new(&sources(), 2, 1);
        for ts in 0..5 {
            s.push(m(TraceSource::Core(CoreId(0)), ts));
        }
        assert_eq!(s.total_lost(), 3);
        let stats = s.fifo_stats();
        assert_eq!(stats[0].2, 3, "core0 lost 3");
        assert_eq!(stats[1].2, 0);
    }

    #[test]
    fn source_priority_policy_ignores_timestamps() {
        let mut s = MessageSorter::with_policy(&sources(), 16, 100, MergePolicy::SourcePriority);
        s.push(m(TraceSource::Core(CoreId(1)), 1)); // earlier, higher index
        s.push(m(TraceSource::Core(CoreId(0)), 9)); // later, lower index
        let mut out = Vec::new();
        s.drain_all(&mut out);
        // The naive mux emits core0 first despite its later timestamp.
        assert_eq!(out[0].source, TraceSource::Core(CoreId(0)));
        assert_eq!(out[0].timestamp, 9);
        assert_eq!(out[1].timestamp, 1);
    }

    #[test]
    fn same_source_order_is_preserved() {
        let mut s = MessageSorter::new(&sources(), 16, 100);
        // Same timestamp from the same source: FIFO order must hold.
        for id in 0..5u8 {
            s.push(TimedMessage {
                timestamp: 10,
                source: TraceSource::Core(CoreId(0)),
                message: TraceMessage::Watchpoint { id },
            });
        }
        let mut out = Vec::new();
        s.drain_all(&mut out);
        let ids: Vec<u8> = out
            .iter()
            .map(|x| match x.message {
                TraceMessage::Watchpoint { id } => id,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }
}
