//! Time-travel debugging: run a device forward with periodic checkpoints,
//! then seek to any cycle or step a core *backwards* — the reverse
//! direction is synthesized by restoring the nearest checkpoint and
//! deterministically re-executing forward.
//!
//! This is the payoff of the record-replay layer in `mcds-replay`: because
//! every nondeterministic input is in the [`InputLog`], re-execution from a
//! checkpoint is bit-identical to the original run, so "stepping back one
//! instruction" lands on *exactly* the machine state that preceded it —
//! registers, memories, trace units and all.
//!
//! Every forward run — live, or re-execution after a restore — is one call
//! into [`run_with_events_into`], the replay layer's single driver: the
//! ring is observed at the loop top and the device runs through the
//! execution kernel between events and checkpoints. Only
//! [`TimeTravel::reverse_step`] steps cycle by cycle, because it must land
//! on an instruction boundary; it applies events through the same
//! [`Replayer`].

use crate::debugger::HostError;
use mcds_psi::Device;
use mcds_replay::{run_with_events_into, Checkpoint, CheckpointRing, InputLog, Replayer};
use mcds_soc::event::CoreId;
use mcds_soc::sink::{CycleSink, NullSink};
use std::fmt;

/// An error from a time-travel operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeTravelError {
    /// The requested cycle precedes the base checkpoint — no history
    /// exists that far back.
    BeforeBase {
        /// The requested cycle.
        target: u64,
        /// The earliest reachable cycle.
        base: u64,
    },
    /// The core has not retired any instruction after the base checkpoint,
    /// so there is nothing to step back over.
    AtStart(CoreId),
    /// The core failed to reach a halt boundary during re-execution (a
    /// determinism violation — should never happen).
    CoreUnresponsive(CoreId),
}

impl fmt::Display for TimeTravelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimeTravelError::BeforeBase { target, base } => {
                write!(f, "cycle {target} precedes recorded history (base {base})")
            }
            TimeTravelError::AtStart(c) => {
                write!(f, "{c} has no retired instruction to step back over")
            }
            TimeTravelError::CoreUnresponsive(c) => {
                write!(f, "{c} did not reach a halt boundary during re-execution")
            }
        }
    }
}

impl std::error::Error for TimeTravelError {}

impl From<TimeTravelError> for HostError {
    fn from(_: TimeTravelError) -> HostError {
        HostError::NoStop
    }
}

/// Supervision budget for the post-re-execution halt: the break request
/// latches at the core's next `FetchIssue` phase, which is never more than
/// one full bus transaction away.
const HALT_BUDGET_CYCLES: u64 = 10_000;

/// A time-travel session: a device, the input log that makes its execution
/// reproducible, a base checkpoint marking the start of recorded history,
/// and a bounded ring of periodic checkpoints.
pub struct TimeTravel {
    dev: Device,
    log: InputLog,
    base: Checkpoint,
    ring: CheckpointRing,
    next_event: usize,
}

impl fmt::Debug for TimeTravel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TimeTravel")
            .field("cycle", &self.dev.soc().cycle())
            .field("base", &self.base.cycle())
            .field("checkpoints", &self.ring.len())
            .finish()
    }
}

impl TimeTravel {
    /// Starts a session at the device's current state, which becomes the
    /// base checkpoint (the earliest point reachable backwards). `log`
    /// holds every nondeterministic input of the run from here on; a
    /// checkpoint is captured roughly every `every` cycles, keeping the
    /// newest `capacity`.
    pub fn new(dev: Device, log: InputLog, every: u64, capacity: usize) -> TimeTravel {
        let base = Checkpoint::capture(&dev);
        let next_event = Replayer::resume_at(&log, base.cycle()).position();
        TimeTravel {
            dev,
            log,
            base,
            ring: CheckpointRing::new(every, capacity),
            next_event,
        }
    }

    /// The device under time travel.
    pub fn device(&self) -> &Device {
        &self.dev
    }

    /// Mutable access to the device. Mutations made here are *not* in the
    /// input log, so they will not be reproduced by later backward seeks —
    /// use this for inspection-style operations (halting, stepping a
    /// halted core, reading memory), not for new stimulus.
    pub fn device_mut(&mut self) -> &mut Device {
        &mut self.dev
    }

    /// The device's current cycle.
    pub fn cycle(&self) -> u64 {
        self.dev.soc().cycle()
    }

    /// The earliest cycle reachable by [`TimeTravel::seek`].
    pub fn base_cycle(&self) -> u64 {
        self.base.cycle()
    }

    /// Number of ring checkpoints currently held (excluding the base).
    pub fn checkpoint_count(&self) -> usize {
        self.ring.len()
    }

    /// Runs the device forward to `target` cycles, applying due input
    /// events and capturing periodic checkpoints. Does nothing if `target`
    /// is in the past (use [`TimeTravel::seek`]).
    pub fn run_to_cycle(&mut self, target: u64) {
        self.run_to_cycle_into(target, &mut NullSink);
    }

    /// Like [`TimeTravel::run_to_cycle`], but streams each run cycle's
    /// events into `sink` — live observation of a checkpointed run without
    /// materialising records.
    pub fn run_to_cycle_into<S: CycleSink + ?Sized>(&mut self, target: u64, sink: &mut S) {
        self.replay_to(target, true, sink);
    }

    /// Moves the device to `target` cycles, in either direction. Backward
    /// seeks restore the newest checkpoint at or before `target` (falling
    /// back to the base) and re-execute forward — deterministically, so
    /// the arrived-at state is bit-identical to the original pass through
    /// that cycle. The forward re-execution does not capture new
    /// checkpoints (the existing ones remain valid history).
    ///
    /// # Errors
    ///
    /// [`TimeTravelError::BeforeBase`] if `target` precedes the base
    /// checkpoint.
    pub fn seek(&mut self, target: u64) -> Result<(), TimeTravelError> {
        if target >= self.dev.soc().cycle() {
            self.run_to_cycle(target);
            return Ok(());
        }
        if target < self.base.cycle() {
            return Err(TimeTravelError::BeforeBase {
                target,
                base: self.base.cycle(),
            });
        }
        let cp = self.ring.nearest_at_or_before(target).unwrap_or(&self.base);
        self.next_event = restore(&mut self.dev, &self.log, cp);
        self.replay_to(target, false, &mut NullSink);
        Ok(())
    }

    /// Steps `core` backwards by one instruction: afterwards the core is
    /// halted with its retired-instruction count one lower than before and
    /// the program counter at the instruction that had just executed —
    /// every register, memory and trace structure matching the original
    /// pass. Returns the program counter. Other cores land wherever they
    /// were at that boundary, exactly as in the original run.
    ///
    /// # Errors
    ///
    /// [`TimeTravelError::AtStart`] if the core has not retired anything
    /// since the base checkpoint.
    pub fn reverse_step(&mut self, core: CoreId) -> Result<u32, TimeTravelError> {
        let retired = self.dev.soc().core(core).retired();
        let idx = core.0 as usize;
        if retired == 0 || retired <= self.base.retired().get(idx).copied().unwrap_or(0) {
            return Err(TimeTravelError::AtStart(core));
        }
        let target = retired - 1;
        let cp = self
            .ring
            .nearest_with_retired_at_most(idx, target)
            .unwrap_or(&self.base);
        self.next_event = restore(&mut self.dev, &self.log, cp);
        // Re-execute until the core has retired exactly `target`
        // instructions, then halt it at that boundary: `break_pending` is
        // consumed at the next FetchIssue phase, before any further
        // instruction can retire, so there is no overshoot.
        let mut rep = Replayer::at(&self.log, self.next_event);
        let dev = &mut self.dev;
        while dev.soc().core(core).retired() < target {
            rep.apply_due(dev);
            dev.step_into(&mut NullSink);
        }
        dev.soc_mut().core_mut(core).request_break();
        let mut budget = HALT_BUDGET_CYCLES;
        while !dev.soc().core(core).is_halted() && budget > 0 {
            budget -= 1;
            rep.apply_due(dev);
            dev.step_into(&mut NullSink);
            dev.soc_mut().core_mut(core).request_break();
        }
        self.next_event = rep.position();
        let dev = &self.dev;
        if !dev.soc().core(core).is_halted() {
            return Err(TimeTravelError::CoreUnresponsive(core));
        }
        assert_eq!(
            dev.soc().core(core).retired(),
            target,
            "reverse_step overshot the target instruction boundary"
        );
        Ok(dev.soc().core(core).pc())
    }

    /// Replays the log forward to `target` cycles from the cursor, through
    /// the replay layer's one driver; `checkpoint` feeds the ring (a
    /// re-execution after a restore does not — the existing checkpoints
    /// remain valid history).
    fn replay_to<S: CycleSink + ?Sized>(&mut self, target: u64, checkpoint: bool, sink: &mut S) {
        let mut rep = Replayer::at(&self.log, self.next_event);
        let ring = checkpoint.then_some(&mut self.ring);
        run_with_events_into(&mut self.dev, &mut rep, target, ring, sink);
        self.next_event = rep.position();
    }
}

/// Restores `cp` onto `dev` in place (the checkpoint is not copied) and
/// returns the position in `log` of the first input event at or after the
/// checkpoint's cycle.
fn restore(dev: &mut Device, log: &InputLog, cp: &Checkpoint) -> usize {
    cp.restore_into(dev);
    Replayer::resume_at(log, cp.cycle()).position()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcds_psi::device::{DebugOp, Device, DeviceBuilder, DeviceVariant};
    use mcds_psi::InterfaceKind;
    use mcds_replay::{device_state_hash, run_with_events, InputEvent, Replayer};
    use mcds_soc::asm::assemble;
    use mcds_soc::soc::memmap;

    fn counting_device() -> Device {
        let mut dev = DeviceBuilder::new(DeviceVariant::EdSideBooster)
            .cores(1)
            .build();
        dev.soc_mut().load_program(
            &assemble(
                "
                .org 0x80000000
                start:
                    li r1, 0
                loop:
                    addi r1, r1, 1
                    j loop
                ",
            )
            .unwrap(),
        );
        dev
    }

    fn stimulus_log() -> InputLog {
        let mut log = InputLog::new();
        for k in 0..6u64 {
            log.record(InputEvent::Stimulus {
                cycle: 400 * k + 37,
                port: 0,
                value: 100 + k as u32,
            });
        }
        log
    }

    /// Cycle at which the straddling debug read is issued: its link
    /// latency carries the device past the cycle-1000 checkpoint boundary.
    const DEBUG_AT: u64 = 980;

    fn debug_read() -> InputEvent {
        InputEvent::Debug {
            cycle: DEBUG_AT,
            iface: InterfaceKind::Jtag,
            op: DebugOp::ReadWords {
                addr: memmap::SRAM_BASE,
                count: 1,
            },
        }
    }

    /// [`stimulus_log`] plus [`debug_read`] and a stimulus write due inside
    /// the read's overshoot.
    fn straddling_log() -> InputLog {
        let mut log = InputLog::new();
        for ev in stimulus_log().events() {
            if ev.cycle() > DEBUG_AT && log.events().last().is_some_and(|e| e.cycle() < DEBUG_AT) {
                log.record(debug_read());
                log.record(InputEvent::Stimulus {
                    cycle: DEBUG_AT + 10,
                    port: 0,
                    value: 7,
                });
            }
            log.record(ev.clone());
        }
        log
    }

    #[test]
    fn seek_is_bit_exact_in_both_directions() {
        let log = straddling_log();
        let mut probe = counting_device();
        probe.run_cycles(DEBUG_AT);
        debug_read().apply(&mut probe);
        let landed = probe.soc().cycle();
        assert!(
            landed > 1_000,
            "the debug read straddles a checkpoint boundary"
        );

        let mut tt = TimeTravel::new(counting_device(), log.clone(), 500, 16);
        let end = landed + 2_500;
        tt.run_to_cycle(end);
        let end_hash = device_state_hash(tt.device());
        assert!(tt.checkpoint_count() >= 5);

        // Backward (past, then into, the debug overshoot) and forward
        // again: every arrived-at state must match an uninterrupted
        // replay from reset to the same target.
        for target in [landed + 1_234, DEBUG_AT + 15, landed + 2_100, end] {
            tt.seek(target).unwrap();
            let mut fresh = counting_device();
            let mut rep = Replayer::new(&log);
            run_with_events(&mut fresh, &mut rep, target);
            assert_eq!(tt.cycle(), fresh.soc().cycle(), "seek to {target}");
            assert_eq!(device_state_hash(tt.device()), device_state_hash(&fresh));
        }
        assert_eq!(tt.cycle(), end);
        assert_eq!(device_state_hash(tt.device()), end_hash);
    }

    #[test]
    fn seek_before_base_is_rejected() {
        let mut warm = counting_device();
        warm.run_cycles(1_000);
        let mut tt = TimeTravel::new(warm, InputLog::new(), 500, 8);
        tt.run_to_cycle(2_000);
        assert_eq!(tt.base_cycle(), 1_000);
        assert_eq!(
            tt.seek(999),
            Err(TimeTravelError::BeforeBase {
                target: 999,
                base: 1_000
            })
        );
    }

    #[test]
    fn reverse_step_then_forward_step_round_trips() {
        let mut tt = TimeTravel::new(counting_device(), stimulus_log(), 500, 16);
        tt.run_to_cycle(3_000);
        let core = CoreId(0);
        let r0 = tt.device().soc().core(core).retired();
        assert!(r0 > 2);

        let pc1 = tt.reverse_step(core).unwrap();
        assert_eq!(tt.device().soc().core(core).retired(), r0 - 1);
        assert!(tt.device().soc().core(core).is_halted());
        let pc2 = tt.reverse_step(core).unwrap();
        assert_eq!(tt.device().soc().core(core).retired(), r0 - 2);
        assert_ne!(pc1, pc2, "loop body alternates addresses");

        // One forward instruction step undoes the reverse step exactly.
        tt.device_mut()
            .soc_mut()
            .core_mut(core)
            .step_instructions(1);
        while !tt.device().soc().core(core).is_halted() {
            tt.device_mut().step();
        }
        assert_eq!(tt.device().soc().core(core).retired(), r0 - 1);
        assert_eq!(tt.device().soc().core(core).pc(), pc1);
    }

    #[test]
    fn reverse_step_stops_at_base() {
        let mut warm = counting_device();
        warm.run_cycles(200);
        let base_retired = warm.soc().core(CoreId(0)).retired();
        let mut tt = TimeTravel::new(warm, InputLog::new(), 500, 8);
        tt.run_to_cycle(210);
        // Walk back to the base; one more reverse step must fail.
        while tt.device().soc().core(CoreId(0)).retired() > base_retired {
            tt.reverse_step(CoreId(0)).unwrap();
        }
        assert_eq!(
            tt.reverse_step(CoreId(0)),
            Err(TimeTravelError::AtStart(CoreId(0)))
        );
    }
}
