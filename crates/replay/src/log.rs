//! The record-replay input log: every nondeterministic input a device run
//! consumes, stamped with the cycle at which it was applied.
//!
//! The device model itself is fully deterministic — the only sources of
//! divergence between two runs are the inputs fed in from outside the
//! package: sensor stimulus on the peripheral ports, the external
//! trigger-in pins, fault plans installed on the debug links, and debug
//! commands issued by the host. Recording those four in an [`InputLog`]
//! and re-applying them with the same convention makes
//! `replay(snapshot, log)` bit-identical to the original run.
//!
//! The apply convention is fixed: at the top of each driver iteration,
//! every event with `cycle <= now` is applied (in log order) *before* the
//! device advances. Checkpoints are captured before that cycle's events
//! are applied, so resuming from a checkpoint at cycle `C` replays events
//! with `cycle >= C` and skips the rest. [`run_with_events_into`] is the
//! one driver that follows it: between events (and checkpoints) the run
//! is pure device execution and goes through [`Device::run_into`], so an
//! idle replayed device batches and skips through the execution kernel.

use crate::checkpoint::CheckpointRing;
use mcds_psi::{DebugOp, Device, FaultPlan, InterfaceKind};
use mcds_soc::sink::{CycleSink, NullSink};
use mcds_workloads::stimulus::Profile;

/// One recorded nondeterministic input.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone)]
pub enum InputEvent {
    /// A sensor-port stimulus write (`Soc::periph_mut().set_input`).
    Stimulus {
        /// Cycle at which the value was applied.
        cycle: u64,
        /// Peripheral input port index.
        port: usize,
        /// The raw sensor value.
        value: u32,
    },
    /// An external trigger-in pin level change.
    TriggerIn {
        /// Cycle at which the level was driven.
        cycle: u64,
        /// New trigger-in level bitmask.
        level: u32,
    },
    /// A fault plan installed on a debug link.
    Fault {
        /// Cycle at which the plan was installed.
        cycle: u64,
        /// The link.
        iface: InterfaceKind,
        /// The (deterministic, seeded) plan.
        plan: FaultPlan,
    },
    /// A fault plan removed from a debug link.
    ClearFault {
        /// Cycle at which the plan was cleared.
        cycle: u64,
        /// The link.
        iface: InterfaceKind,
    },
    /// A host debug command issued over a link. Replaying it advances
    /// simulated time exactly as the original did (link latency, transfer,
    /// driver overhead), so subsequent event timestamps still line up.
    Debug {
        /// Cycle at which the host issued the command.
        cycle: u64,
        /// The link it was issued over.
        iface: InterfaceKind,
        /// The command.
        op: DebugOp,
    },
}

impl InputEvent {
    /// The cycle at which this input was applied in the original run.
    pub fn cycle(&self) -> u64 {
        match self {
            InputEvent::Stimulus { cycle, .. }
            | InputEvent::TriggerIn { cycle, .. }
            | InputEvent::Fault { cycle, .. }
            | InputEvent::ClearFault { cycle, .. }
            | InputEvent::Debug { cycle, .. } => *cycle,
        }
    }

    /// Applies this input to the device. Debug commands advance simulated
    /// time; their result is discarded (any error they produced originally
    /// — e.g. a fault-injected link timeout — reproduces identically).
    pub fn apply(&self, dev: &mut Device) {
        match self {
            InputEvent::Stimulus { port, value, .. } => {
                dev.soc_mut().periph_mut().set_input(*port, *value);
            }
            InputEvent::TriggerIn { level, .. } => {
                dev.soc_mut().periph_mut().set_trigger_in(*level);
            }
            InputEvent::Fault { iface, plan, .. } => {
                dev.set_fault_plan(*iface, plan.clone());
            }
            InputEvent::ClearFault { iface, .. } => {
                dev.clear_fault_plan(*iface);
            }
            InputEvent::Debug { iface, op, .. } => {
                let _ = dev.execute(*iface, op.clone());
            }
        }
    }
}

/// A cycle-ordered log of every nondeterministic input to a run.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, Default)]
pub struct InputLog {
    events: Vec<InputEvent>,
}

impl InputLog {
    /// An empty log.
    pub fn new() -> InputLog {
        InputLog::default()
    }

    /// Builds a log from a stimulus profile: one [`InputEvent::Stimulus`]
    /// per sample, in sample order.
    pub fn from_profile(profile: &Profile) -> InputLog {
        let mut log = InputLog::new();
        for s in profile.samples() {
            log.record(InputEvent::Stimulus {
                cycle: s.cycle,
                port: s.port,
                value: s.value,
            });
        }
        log
    }

    /// Appends an event.
    ///
    /// # Panics
    ///
    /// Panics if the event's cycle precedes the last recorded one — the
    /// log must stay sorted for the replay cursor to be correct.
    pub fn record(&mut self, event: InputEvent) {
        if let Some(last) = self.events.last() {
            assert!(
                event.cycle() >= last.cycle(),
                "input log must be recorded in cycle order ({} after {})",
                event.cycle(),
                last.cycle()
            );
        }
        self.events.push(event);
    }

    /// The recorded events, in cycle order.
    pub fn events(&self) -> &[InputEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// A replay cursor over an [`InputLog`].
pub struct Replayer<'a> {
    events: &'a [InputEvent],
    next: usize,
}

impl<'a> Replayer<'a> {
    /// A cursor positioned at the start of the log (replay from reset).
    pub fn new(log: &'a InputLog) -> Replayer<'a> {
        Replayer::at(log, 0)
    }

    /// A cursor positioned at event index `position` — the value an
    /// earlier cursor's [`Replayer::position`] reported.
    pub fn at(log: &'a InputLog, position: usize) -> Replayer<'a> {
        Replayer {
            events: log.events(),
            next: position,
        }
    }

    /// A cursor for resuming from a snapshot captured at `cycle`: events
    /// before the snapshot are already reflected in the restored state and
    /// are skipped; events at or after it are still pending (checkpoints
    /// are captured before their own cycle's events are applied).
    pub fn resume_at(log: &'a InputLog, cycle: u64) -> Replayer<'a> {
        Replayer::at(log, log.events().partition_point(|e| e.cycle() < cycle))
    }

    /// Applies every pending event whose cycle is at or before the
    /// device's current cycle; returns how many were applied. Debug-command
    /// events may advance the device, which can make further events due —
    /// those are applied too, exactly as a live host driver would.
    pub fn apply_due(&mut self, dev: &mut Device) -> usize {
        let mut applied = 0;
        while self.next < self.events.len() && self.events[self.next].cycle() <= dev.soc().cycle() {
            let ev = &self.events[self.next];
            self.next += 1;
            ev.apply(dev);
            applied += 1;
        }
        applied
    }

    /// True when every event has been applied.
    pub fn is_finished(&self) -> bool {
        self.next >= self.events.len()
    }

    /// Index of the next pending event.
    pub fn position(&self) -> usize {
        self.next
    }
}

/// Runs `dev` forward to `until` cycles under the log (the canonical
/// record/replay driver), streaming nothing — a replayed run is fully
/// determined by the log, so observation is optional; use
/// [`run_with_events_into`] to watch it live or capture checkpoints.
pub fn run_with_events(dev: &mut Device, replayer: &mut Replayer<'_>, until: u64) {
    run_with_events_into(dev, replayer, until, None, &mut NullSink);
}

/// The one driver loop over an [`InputLog`]. Each iteration observes
/// `ring` (if any) at the loop top, applies the due events, then runs the
/// device through [`Device::run_into`] to the next boundary: `until`, the
/// next pending event, or the next checkpoint falling due — whichever is
/// first. The boundary is computed *after* the events are applied, so a
/// replayed debug command whose link latency carries the device past a
/// checkpoint boundary still gets that checkpoint on the very next cycle,
/// exactly as a per-cycle driver would. Stops early if a replayed debug
/// command overshoots `until`.
///
/// Observed cycles stream into `sink`; cycles advanced inside replayed
/// debug commands are internal to the device and are not streamed.
pub fn run_with_events_into<S: CycleSink + ?Sized>(
    dev: &mut Device,
    replayer: &mut Replayer<'_>,
    until: u64,
    mut ring: Option<&mut CheckpointRing>,
    sink: &mut S,
) {
    while dev.soc().cycle() < until {
        if let Some(ring) = ring.as_deref_mut() {
            ring.observe(dev);
        }
        replayer.apply_due(dev);
        let now = dev.soc().cycle();
        if now >= until {
            break;
        }
        let mut boundary = until;
        if let Some(ev) = replayer.events.get(replayer.next) {
            boundary = boundary.min(ev.cycle().max(now + 1));
        }
        if let Some(ring) = ring.as_deref() {
            boundary = boundary.min(ring.next_due_at(now + 1));
        }
        dev.run_cycles_into(boundary - now, sink);
    }
}
