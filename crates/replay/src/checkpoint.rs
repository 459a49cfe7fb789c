//! Periodic checkpoints for time-travel: a bounded ring of full snapshots
//! plus per-core retired-instruction counts, so `seek` and `reverse_step`
//! can restore the nearest checkpoint and re-execute forward instead of
//! replaying from reset.

use crate::snapshot::SocSnapshot;
use mcds_psi::Device;
use std::collections::VecDeque;

/// One checkpoint: a raw snapshot plus the per-core retired-instruction
/// counts at capture time (used by `reverse_step` to pick the checkpoint
/// that precedes a target instruction).
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone)]
pub struct Checkpoint {
    cycle: u64,
    retired: Vec<u64>,
    snapshot: SocSnapshot,
}

impl Checkpoint {
    /// Captures a checkpoint of the device right now.
    pub fn capture(dev: &Device) -> Checkpoint {
        let retired = (0..dev.soc().core_count())
            .map(|i| dev.soc().core(mcds_soc::event::CoreId(i as u8)).retired())
            .collect();
        Checkpoint {
            cycle: dev.soc().cycle(),
            retired,
            snapshot: SocSnapshot::capture(dev),
        }
    }

    /// The cycle at which the checkpoint was captured.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Retired-instruction count per core at capture time.
    pub fn retired(&self) -> &[u64] {
        &self.retired
    }

    /// The underlying snapshot.
    pub fn snapshot(&self) -> &SocSnapshot {
        &self.snapshot
    }

    /// Restores the checkpoint onto a structurally identical device.
    pub fn restore_into(&self, dev: &mut Device) {
        self.snapshot.restore_into(dev);
    }
}

/// A bounded ring of periodic checkpoints. When full, the oldest entry is
/// evicted — time-travel range is bounded by `every * capacity` cycles
/// behind the live device, plus whatever base snapshot the caller keeps.
#[derive(Debug, Clone)]
pub struct CheckpointRing {
    every: u64,
    capacity: usize,
    entries: VecDeque<Checkpoint>,
}

impl CheckpointRing {
    /// A ring capturing roughly every `every` cycles, keeping at most
    /// `capacity` checkpoints.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero or `capacity` is zero.
    pub fn new(every: u64, capacity: usize) -> CheckpointRing {
        assert!(every > 0, "checkpoint interval must be positive");
        assert!(capacity > 0, "checkpoint ring needs capacity");
        CheckpointRing {
            every,
            capacity,
            entries: VecDeque::with_capacity(capacity),
        }
    }

    /// The configured checkpoint interval in cycles.
    pub fn every(&self) -> u64 {
        self.every
    }

    /// True when a checkpoint is due at `cycle` (at least `every` cycles
    /// since the newest entry, or the ring is empty).
    pub fn due(&self, cycle: u64) -> bool {
        match self.entries.back() {
            Some(cp) => cycle >= cp.cycle() + self.every,
            None => true,
        }
    }

    /// The earliest cycle at or after `now` at which a checkpoint will be
    /// due — the batching boundary for drivers that fast-forward between
    /// checkpoints instead of polling [`CheckpointRing::due`] per cycle.
    pub fn next_due_at(&self, now: u64) -> u64 {
        match self.entries.back() {
            Some(cp) => (cp.cycle() + self.every).max(now),
            None => now,
        }
    }

    /// Captures a checkpoint if one is due at the device's current cycle;
    /// returns whether one was taken. Call at the top of the driver loop,
    /// before applying that cycle's input events.
    pub fn observe(&mut self, dev: &Device) -> bool {
        if !self.due(dev.soc().cycle()) {
            return false;
        }
        let cp = Checkpoint::capture(dev);
        if let Some(tel) = dev.telemetry() {
            let bytes = cp.snapshot().stored_bytes() as u64;
            let reg = tel.registry();
            reg.counter(
                "replay_checkpoints_total",
                "time-travel checkpoints captured",
            )
            .inc();
            reg.counter(
                "replay_checkpoint_bytes_total",
                "cumulative stored bytes across captured checkpoints",
            )
            .add(bytes);
            reg.gauge(
                "replay_checkpoint_bytes",
                "stored size of the most recent checkpoint",
            )
            .set(bytes as f64);
        }
        self.push(cp);
        true
    }

    /// Inserts a checkpoint, evicting the oldest when full.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint is older than the newest entry.
    pub fn push(&mut self, cp: Checkpoint) {
        if let Some(last) = self.entries.back() {
            assert!(
                cp.cycle() >= last.cycle(),
                "checkpoints must be pushed in cycle order"
            );
        }
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back(cp);
    }

    /// Number of checkpoints currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no checkpoint has been captured yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates the checkpoints oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &Checkpoint> {
        self.entries.iter()
    }

    /// The newest checkpoint captured at or before `cycle`.
    pub fn nearest_at_or_before(&self, cycle: u64) -> Option<&Checkpoint> {
        self.entries.iter().rev().find(|cp| cp.cycle() <= cycle)
    }

    /// The newest checkpoint where core `core`'s retired count is at most
    /// `target` — the restore point for stepping back to just before
    /// instruction `target + 1`.
    pub fn nearest_with_retired_at_most(&self, core: usize, target: u64) -> Option<&Checkpoint> {
        self.entries
            .iter()
            .rev()
            .find(|cp| cp.retired().get(core).is_some_and(|&r| r <= target))
    }

    /// Drops every checkpoint newer than `cycle` (after a backward seek,
    /// stale future checkpoints must not satisfy later lookups).
    pub fn truncate_after(&mut self, cycle: u64) {
        while self.entries.back().is_some_and(|cp| cp.cycle() > cycle) {
            self.entries.pop_back();
        }
    }
}

#[cfg(test)]
mod telemetry_tests {
    use super::*;
    use mcds_psi::device::{DeviceBuilder, DeviceVariant};
    use mcds_telemetry::{MetricValue, Subsystem, Telemetry};

    #[test]
    fn observe_publishes_checkpoint_metrics_and_spans() {
        let mut dev = DeviceBuilder::new(DeviceVariant::EdSideBooster)
            .cores(1)
            .build();
        dev.attach_telemetry(Telemetry::new());
        let mut ring = CheckpointRing::new(100, 4);
        assert!(ring.observe(&dev));
        dev.run_cycles(150);
        assert!(ring.observe(&dev));
        let cp_bytes = ring.iter().last().unwrap().snapshot().stored_bytes() as u64;

        let snap = dev.telemetry().unwrap().snapshot();
        let metric = |name: &str| {
            snap.metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("metric {name} published"))
                .value
                .clone()
        };
        assert_eq!(metric("replay_checkpoints_total"), MetricValue::Counter(2));
        let MetricValue::Counter(total) = metric("replay_checkpoint_bytes_total") else {
            panic!("counter expected");
        };
        assert!(total >= cp_bytes);
        assert_eq!(
            metric("replay_checkpoint_bytes"),
            MetricValue::Gauge(cp_bytes as f64)
        );
        // Each capture recorded a Snapshot span.
        let snapshot_label = [("subsystem", Subsystem::Snapshot.name())];
        assert_eq!(
            snap.counter("telemetry_spans_total", &snapshot_label),
            Some(2),
            "snapshot span counter present"
        );
    }

    #[test]
    fn restore_records_a_restore_span() {
        let mut dev = DeviceBuilder::new(DeviceVariant::EdSideBooster)
            .cores(1)
            .build();
        dev.run_cycles(50);
        let cp = Checkpoint::capture(&dev);
        dev.run_cycles(50);
        dev.attach_telemetry(Telemetry::new());
        cp.restore_into(&mut dev);
        // The attachment survived the restore and saw the span.
        let snap = dev
            .telemetry()
            .expect("telemetry survives restore")
            .snapshot();
        let restore_label = [("subsystem", Subsystem::Restore.name())];
        assert_eq!(
            snap.counter("telemetry_spans_total", &restore_label),
            Some(1),
            "restore span counter present"
        );
    }
}
