//! The trace sink: routing sorted MCDS messages into emulation-RAM trace
//! segments.
//!
//! Section 7: *"The emulation RAM is segmented into 64 kByte blocks for use
//! as either overlay or trace memory. … The trace features used for system
//! debug of mission critical real-time systems require just a fraction of
//! that"* — the T4 experiment measures exactly how much. The sink encodes
//! the sorted message stream ([`mcds_trace::wire`]) and writes it into the
//! segments assigned the [`SegmentRole::Trace`] role, either stopping when
//! full (post-trigger capture) or wrapping (flight-recorder mode).
//!
//! [`SegmentRole::Trace`]: mcds_soc::mem::SegmentRole::Trace

use mcds_soc::mem::{EmulationRam, SegmentRole, EMEM_SEGMENT_SIZE};
use mcds_trace::{EncoderState, StreamEncoder, TimedMessage};

/// What happens when the trace region fills.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FullPolicy {
    /// Stop recording (keep the oldest data).
    #[default]
    Stop,
    /// Wrap around (keep the newest data, flight-recorder style).
    Wrap,
}

/// Serializable runtime state of a [`TraceSink`]: encoder context, write
/// cursor and fill-status flags. The segment assignment, full policy and
/// capacity are configuration and are *not* included (the stored bytes
/// themselves live in the emulation RAM, snapshotted separately).
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, PartialEq, Eq)]
pub struct SinkState {
    encoder: EncoderState,
    write_offset: u64,
    stopped: bool,
    bytes_written: u64,
    wrapped: bool,
}

/// Encodes trace messages into the emulation RAM's trace segments.
#[derive(Debug)]
pub struct TraceSink {
    segments: Vec<usize>,
    policy: FullPolicy,
    encoder: StreamEncoder,
    write_offset: usize,
    capacity: usize,
    stopped: bool,
    bytes_written: u64,
    wrapped: bool,
}

impl TraceSink {
    /// Creates a sink over the emulation-RAM segments listed in `segments`
    /// (which must carry [`SegmentRole::Trace`] in `emem`).
    ///
    /// # Panics
    ///
    /// Panics if a listed segment is out of range or not a trace segment.
    ///
    /// [`SegmentRole::Trace`]: mcds_soc::mem::SegmentRole::Trace
    pub fn new(emem: &EmulationRam, segments: Vec<usize>, policy: FullPolicy) -> TraceSink {
        for &s in &segments {
            assert!(
                emem.segment_role(s) == SegmentRole::Trace,
                "segment {s} is not a trace segment"
            );
        }
        let capacity = segments.len() * EMEM_SEGMENT_SIZE as usize;
        TraceSink {
            segments,
            policy,
            encoder: StreamEncoder::new(),
            write_offset: 0,
            capacity,
            stopped: false,
            bytes_written: 0,
            wrapped: false,
        }
    }

    /// A sink with no backing segments: every message is counted but
    /// dropped (production devices without emulation RAM).
    pub fn discarding() -> TraceSink {
        TraceSink {
            segments: Vec::new(),
            policy: FullPolicy::Stop,
            encoder: StreamEncoder::new(),
            write_offset: 0,
            capacity: 0,
            stopped: true,
            bytes_written: 0,
            wrapped: false,
        }
    }

    /// Configures stream-level sync records every `interval` messages
    /// (see [`mcds_trace::StreamEncoder::with_sync_interval`]): the stored
    /// stream then carries periodic absolute-timestamp resynchronization
    /// points, so a decoder can skip a corrupt region and continue exactly.
    ///
    /// # Panics
    ///
    /// Panics if messages have already been stored.
    ///
    /// [`mcds_trace::StreamEncoder::with_sync_interval`]: StreamEncoder::with_sync_interval
    pub fn with_sync_interval(mut self, interval: u64) -> TraceSink {
        assert!(
            self.encoder.byte_len() == 0,
            "sync interval must be configured before the first store"
        );
        self.encoder = StreamEncoder::with_sync_interval(interval);
        self
    }

    /// The configured sync-record interval, if any.
    pub fn sync_interval(&self) -> Option<u64> {
        self.encoder.sync_interval()
    }

    /// The emulation-RAM segments the sink writes (empty when discarding).
    pub fn segments(&self) -> &[usize] {
        &self.segments
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes of encoded trace stored so far (≤ capacity).
    pub fn used(&self) -> usize {
        (self.bytes_written as usize).min(self.capacity)
    }

    /// Total encoded bytes produced (may exceed capacity when wrapping or
    /// stopped).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// True once a [`FullPolicy::Stop`] sink has filled.
    pub fn is_stopped(&self) -> bool {
        self.stopped
    }

    /// True if a wrapping sink has overwritten old data.
    pub fn has_wrapped(&self) -> bool {
        self.wrapped
    }

    /// Messages encoded so far.
    pub fn message_count(&self) -> u64 {
        self.encoder.message_count()
    }

    fn emem_offset(&self, linear: usize) -> usize {
        let seg = self.segments[linear / EMEM_SEGMENT_SIZE as usize];
        seg * EMEM_SEGMENT_SIZE as usize + linear % EMEM_SEGMENT_SIZE as usize
    }

    /// Encodes `messages` and stores the bytes into `emem`'s trace
    /// segments. Returns the number of messages actually stored.
    pub fn store(&mut self, messages: &[TimedMessage], emem: &mut EmulationRam) -> usize {
        let mut stored = 0;
        for m in messages {
            if self.stopped {
                break;
            }
            let before = self.encoder.byte_len();
            self.encoder.push(m);
            let bytes = &self.encoder.as_bytes()[before..];
            if self.policy == FullPolicy::Stop && self.write_offset + bytes.len() > self.capacity {
                self.stopped = true;
                break;
            }
            // Store in runs that stay inside one segment and stop at the
            // wrap point.
            let mut rest = bytes;
            while !rest.is_empty() {
                if self.write_offset == self.capacity {
                    self.write_offset = 0;
                    self.wrapped = true;
                }
                let seg_left =
                    EMEM_SEGMENT_SIZE as usize - self.write_offset % EMEM_SEGMENT_SIZE as usize;
                let n = rest
                    .len()
                    .min(seg_left)
                    .min(self.capacity - self.write_offset);
                emem.write_bytes(self.emem_offset(self.write_offset), &rest[..n]);
                self.write_offset += n;
                rest = &rest[n..];
            }
            self.bytes_written += bytes.len() as u64;
            stored += 1;
        }
        stored
    }

    /// Reads back the stored byte stream in write order (unwrapping if
    /// necessary). For wrapped sinks this returns only the most recent
    /// window, which generally starts mid-message — callers locate the
    /// first decodable sync; for stop-policy sinks it is the full stream.
    pub fn read_back(&self, emem: &EmulationRam) -> Vec<u8> {
        let used = self.used();
        let mut out = Vec::with_capacity(used);
        let start = if self.wrapped { self.write_offset } else { 0 };
        for i in 0..used {
            let linear = (start + i) % self.capacity.max(1);
            out.push(emem.bytes()[self.emem_offset(linear)]);
        }
        out
    }

    /// Captures the sink's runtime state (see [`SinkState`]).
    pub fn save_state(&self) -> SinkState {
        SinkState {
            encoder: self.encoder.save_state(),
            write_offset: self.write_offset as u64,
            stopped: self.stopped,
            bytes_written: self.bytes_written,
            wrapped: self.wrapped,
        }
    }

    /// Restores state captured by [`TraceSink::save_state`] onto a sink
    /// with the same segment assignment and policy.
    ///
    /// # Panics
    ///
    /// Panics if the saved write cursor does not fit this sink's capacity.
    pub fn restore_state(&mut self, state: &SinkState) {
        assert!(
            state.write_offset as usize <= self.capacity,
            "saved sink write offset exceeds capacity"
        );
        self.encoder.restore_state(&state.encoder);
        self.write_offset = state.write_offset as usize;
        self.stopped = state.stopped;
        self.bytes_written = state.bytes_written;
        self.wrapped = state.wrapped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcds_soc::event::CoreId;
    use mcds_trace::{StreamDecoder, TraceMessage, TraceSource};

    fn trace_emem(segments: usize) -> EmulationRam {
        let mut e = EmulationRam::new(8);
        for s in 0..segments {
            e.set_segment_role(s, SegmentRole::Trace);
        }
        e
    }

    fn m(ts: u64, id: u8) -> TimedMessage {
        TimedMessage {
            timestamp: ts,
            source: TraceSource::Core(CoreId(0)),
            message: TraceMessage::Watchpoint { id },
        }
    }

    #[test]
    fn store_and_read_back_roundtrips() {
        let mut emem = trace_emem(1);
        let mut sink = TraceSink::new(&emem, vec![0], FullPolicy::Stop);
        let msgs: Vec<TimedMessage> = (0..100).map(|i| m(i as u64 * 3, i as u8)).collect();
        assert_eq!(sink.store(&msgs, &mut emem), 100);
        let bytes = sink.read_back(&emem);
        let decoded = StreamDecoder::new(bytes).collect_all().unwrap();
        assert_eq!(decoded, msgs);
    }

    #[test]
    fn stop_policy_halts_at_capacity() {
        let mut emem = trace_emem(1);
        let mut sink = TraceSink::new(&emem, vec![0], FullPolicy::Stop);
        // Each watchpoint message is 3–4 bytes; 64 KB holds ~20k of them.
        let msgs: Vec<TimedMessage> = (0..30_000).map(|i| m(i as u64, 0)).collect();
        let stored = sink.store(&msgs, &mut emem);
        assert!(stored < 30_000);
        assert!(sink.is_stopped());
        assert!(sink.used() <= sink.capacity());
        // Already-stored prefix still decodes.
        let decoded = StreamDecoder::new(sink.read_back(&emem))
            .collect_all()
            .unwrap();
        assert_eq!(decoded.len(), stored);
    }

    #[test]
    fn wrap_policy_keeps_newest() {
        let mut emem = trace_emem(1);
        let mut sink = TraceSink::new(&emem, vec![0], FullPolicy::Wrap);
        let msgs: Vec<TimedMessage> = (0..30_000).map(|i| m(i as u64, 0)).collect();
        let stored = sink.store(&msgs, &mut emem);
        assert_eq!(stored, 30_000, "wrap never refuses");
        assert!(sink.has_wrapped());
        assert!(sink.bytes_written() as usize > sink.capacity());
    }

    #[test]
    fn multiple_segments_extend_capacity() {
        let emem = trace_emem(3);
        let sink = TraceSink::new(&emem, vec![0, 1, 2], FullPolicy::Stop);
        assert_eq!(sink.capacity(), 3 * 64 * 1024);
    }

    #[test]
    fn non_contiguous_segments_work() {
        let mut e = EmulationRam::new(8);
        e.set_segment_role(1, SegmentRole::Trace);
        e.set_segment_role(5, SegmentRole::Trace);
        let mut sink = TraceSink::new(&e, vec![1, 5], FullPolicy::Stop);
        let msgs: Vec<TimedMessage> = (0..25_000).map(|i| m(i as u64, 7)).collect();
        let stored = sink.store(&msgs, &mut e);
        assert!(
            stored > 16_000,
            "spilled into the second segment ({stored})"
        );
        let decoded = StreamDecoder::new(sink.read_back(&e))
            .collect_all()
            .unwrap();
        assert_eq!(decoded.len(), stored);
    }

    #[test]
    #[should_panic(expected = "not a trace segment")]
    fn wrong_role_segment_rejected() {
        let emem = trace_emem(1);
        let _ = TraceSink::new(&emem, vec![3], FullPolicy::Stop);
    }

    #[test]
    fn sync_interval_survives_store_and_decode() {
        let mut emem = trace_emem(1);
        let mut sink = TraceSink::new(&emem, vec![0], FullPolicy::Stop).with_sync_interval(16);
        assert_eq!(sink.sync_interval(), Some(16));
        let msgs: Vec<TimedMessage> = (0..100).map(|i| m(i as u64 * 3, i as u8)).collect();
        assert_eq!(sink.store(&msgs, &mut emem), 100);
        let decoded = StreamDecoder::new(sink.read_back(&emem))
            .collect_all()
            .unwrap();
        assert_eq!(decoded, msgs, "sync records are transparent to decode");
    }

    #[test]
    fn discarding_sink_counts_nothing() {
        let mut emem = trace_emem(0);
        let mut sink = TraceSink::discarding();
        assert_eq!(sink.store(&[m(0, 0)], &mut emem), 0);
        assert_eq!(sink.capacity(), 0);
    }
}
