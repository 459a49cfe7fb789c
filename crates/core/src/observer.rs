//! Per-core adaptation logic: message generation and trace qualification.
//!
//! Figure 1's per-core column — "Program reconstruction / Message
//! generation / Trigger extraction" — watches the core's retirement stream
//! and turns it into compressed trace messages. Qualification ("complex
//! triggers qualify or 'filter' the trace down to only the required
//! messages", Section 3) is expressed as a [`TraceQualifier`] per trace
//! kind: always-on, off, or a window opened and closed by trigger signals.
//!
//! Only the adaptation logic differs between heterogeneous cores (Section
//! 4); in the model every core shares this observer parameterised by its
//! [`CoreTraceConfig`].

use crate::trigger::{DataComparator, ProgramComparator, SignalRef, SignalSet};
use mcds_soc::event::{CoreId, RetireEvent};
use mcds_soc::isa::Instr;
use mcds_trace::{BranchBits, TimedMessage, TraceMessage, TraceSource};

/// When a trace kind is active.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, PartialEq, Eq, Default)]
pub enum TraceQualifier {
    /// Never trace.
    #[default]
    Off,
    /// Trace continuously.
    Always,
    /// Trace inside a window: opened when `start` asserts, closed when
    /// `stop` asserts.
    Window {
        /// Window-opening signal.
        start: SignalRef,
        /// Window-closing signal.
        stop: SignalRef,
    },
}

/// Data-trace configuration: a qualifier plus an optional address/value
/// filter so only the interesting accesses cost bandwidth.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, PartialEq, Eq, Default)]
pub struct DataTraceConfig {
    /// When data trace is active.
    pub qualifier: TraceQualifier,
    /// Optional filter; only matching accesses are traced.
    pub filter: Option<DataComparator>,
}

/// Trace/trigger configuration of one core.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, PartialEq, Eq, Default)]
pub struct CoreTraceConfig {
    /// Program comparators (trigger extraction), up to
    /// [`crate::trigger::PROG_COMPARATORS_PER_CORE`].
    pub program_comparators: Vec<ProgramComparator>,
    /// Data comparators (watchpoint extraction), up to
    /// [`crate::trigger::DATA_COMPARATORS_PER_CORE`].
    pub data_comparators: Vec<DataComparator>,
    /// Program-flow trace qualifier.
    pub program_trace: TraceQualifier,
    /// Data trace configuration.
    pub data_trace: DataTraceConfig,
}

/// Longest instruction run in one program message before a forced flush.
const MAX_I_CNT: u32 = 4096;

/// Serializable runtime state of a [`CoreObserver`]: qualification windows,
/// sync tracking and the pending instruction run. Configuration (core id,
/// comparators, history mode, sync period) is *not* included, and the
/// per-cycle output buffer is always drained at cycle boundaries so it is
/// restored empty.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, PartialEq, Eq)]
pub struct ObserverState {
    prog_window: bool,
    data_window: bool,
    synced: bool,
    i_cnt: u32,
    history: BranchBits,
    msgs_since_sync: u32,
    generated: u64,
}

/// The per-core adaptation logic.
#[derive(Debug)]
pub struct CoreObserver {
    core: CoreId,
    config: CoreTraceConfig,
    history_mode: bool,
    sync_period: u32,
    prog_window: bool,
    data_window: bool,
    synced: bool,
    i_cnt: u32,
    history: BranchBits,
    msgs_since_sync: u32,
    out: Vec<TimedMessage>,
    generated: u64,
}

impl CoreObserver {
    /// Creates the observer for `core`.
    ///
    /// `history_mode` selects branch-history compression (vs per-branch
    /// messages); `sync_period` is the number of program messages between
    /// periodic re-syncs.
    pub fn new(
        core: CoreId,
        config: CoreTraceConfig,
        history_mode: bool,
        sync_period: u32,
    ) -> CoreObserver {
        CoreObserver {
            core,
            config,
            history_mode,
            sync_period: sync_period.max(1),
            prog_window: false,
            data_window: false,
            synced: false,
            i_cnt: 0,
            history: BranchBits::new(),
            msgs_since_sync: 0,
            out: Vec::new(),
            generated: 0,
        }
    }

    /// The observed core.
    pub fn core(&self) -> CoreId {
        self.core
    }

    /// The configuration.
    pub fn config(&self) -> &CoreTraceConfig {
        &self.config
    }

    /// Total messages generated since creation.
    pub fn generated(&self) -> u64 {
        self.generated
    }

    /// Evaluates this core's comparators on a retire event, asserting the
    /// matching signals.
    pub fn extract_triggers(&self, retire: &RetireEvent, signals: &mut SignalSet) {
        for (idx, c) in self.config.program_comparators.iter().enumerate() {
            if c.matches(retire) {
                signals.assert_signal(SignalRef::ProgComp {
                    core: self.core,
                    idx,
                });
            }
        }
        if let Some(mem) = &retire.mem {
            for (idx, c) in self.config.data_comparators.iter().enumerate() {
                if c.matches(mem) {
                    signals.assert_signal(SignalRef::DataComp {
                        core: self.core,
                        idx,
                    });
                }
            }
        }
    }

    fn qualifier_active(q: &TraceQualifier, window: bool) -> bool {
        match q {
            TraceQualifier::Off => false,
            TraceQualifier::Always => true,
            TraceQualifier::Window { .. } => window,
        }
    }

    /// Updates qualification windows from this cycle's signals. Must run
    /// before the cycle's retire events are observed. `ts` stamps any flush
    /// emitted by a closing window.
    pub fn begin_cycle(&mut self, signals: &SignalSet, ts: u64) {
        if let TraceQualifier::Window { start, stop } = self.config.program_trace {
            // Start wins over stop in the same cycle, so a window can be
            // re-armed by the event that also closes it (e.g. "trace one
            // loop pass in every N": stop on the loop head, start on a
            // counter that fires on the same head every N-th pass).
            if signals.is_asserted(stop) {
                if self.prog_window {
                    self.flush(ts);
                    self.synced = false;
                }
                self.prog_window = false;
            }
            if signals.is_asserted(start) {
                self.prog_window = true;
            }
        }
        if let TraceQualifier::Window { start, stop } = self.config.data_trace.qualifier {
            if signals.is_asserted(stop) {
                self.data_window = false;
            }
            if signals.is_asserted(start) {
                self.data_window = true;
            }
        }
    }

    fn emit(&mut self, ts: u64, message: TraceMessage) {
        self.generated += 1;
        self.out.push(TimedMessage {
            timestamp: ts,
            source: TraceSource::Core(self.core),
            message,
        });
    }

    fn emit_program(&mut self, ts: u64, message: TraceMessage, resync_pc: u32) {
        self.emit(ts, message);
        self.i_cnt = 0;
        self.history = BranchBits::new();
        self.msgs_since_sync += 1;
        if self.msgs_since_sync >= self.sync_period {
            self.emit(ts, TraceMessage::ProgSync { pc: resync_pc });
            self.msgs_since_sync = 0;
        }
    }

    /// Observes one retired instruction.
    pub fn observe_retire(&mut self, retire: &RetireEvent, ts: u64) {
        debug_assert_eq!(retire.core, self.core);
        if Self::qualifier_active(&self.config.program_trace, self.prog_window) {
            if !self.synced {
                self.emit(ts, TraceMessage::ProgSync { pc: retire.pc });
                self.synced = true;
                self.msgs_since_sync = 0;
            }
            self.i_cnt += 1;
            match retire.instr {
                Instr::Branch { .. } => {
                    let taken = retire.taken.unwrap_or(false);
                    if self.history_mode {
                        self.history.push(taken);
                        if self.history.is_full() {
                            let (i_cnt, history) = (self.i_cnt, self.history);
                            self.emit_program(
                                ts,
                                TraceMessage::BranchHistory { i_cnt, history },
                                retire.next_pc,
                            );
                        }
                    } else if taken {
                        let i_cnt = self.i_cnt;
                        self.emit_program(ts, TraceMessage::DirectBranch { i_cnt }, retire.next_pc);
                    }
                }
                Instr::Jalr { .. } | Instr::Eret => {
                    let (i_cnt, history) = (self.i_cnt, self.history);
                    self.emit_program(
                        ts,
                        TraceMessage::IndirectBranch {
                            i_cnt,
                            history,
                            target: retire.next_pc,
                        },
                        retire.next_pc,
                    );
                }
                _ => {
                    if self.i_cnt >= MAX_I_CNT {
                        let (i_cnt, history) = (self.i_cnt, self.history);
                        self.emit_program(
                            ts,
                            TraceMessage::FlowFlush { i_cnt, history },
                            retire.next_pc,
                        );
                    }
                }
            }
        }
        if Self::qualifier_active(&self.config.data_trace.qualifier, self.data_window) {
            if let Some(mem) = &retire.mem {
                let pass = self
                    .config
                    .data_trace
                    .filter
                    .map(|f| f.matches(mem))
                    .unwrap_or(true);
                if pass {
                    let message = if mem.is_write {
                        TraceMessage::DataWrite {
                            addr: mem.addr,
                            value: mem.value,
                            width: mem.width,
                        }
                    } else {
                        TraceMessage::DataRead {
                            addr: mem.addr,
                            value: mem.value,
                            width: mem.width,
                        }
                    };
                    self.emit(ts, message);
                }
            }
        }
    }

    /// Flushes the pending instruction run (window close, core stop, trace
    /// stop).
    pub fn flush(&mut self, ts: u64) {
        if self.i_cnt > 0 || !self.history.is_empty() {
            let (i_cnt, history) = (self.i_cnt, self.history);
            self.emit(ts, TraceMessage::FlowFlush { i_cnt, history });
            self.i_cnt = 0;
            self.history = BranchBits::new();
            self.msgs_since_sync += 1;
        }
    }

    /// Marks the flow broken (a program message was dropped on FIFO
    /// overflow); the next qualified retire re-syncs.
    pub fn desync(&mut self) {
        self.synced = false;
        self.i_cnt = 0;
        self.history = BranchBits::new();
    }

    /// Called when the observed core takes an interrupt: the pending run
    /// ends at the interrupted boundary and the next retire (the first ISR
    /// instruction) re-syncs at the vector.
    pub fn observe_irq(&mut self, ts: u64) {
        if Self::qualifier_active(&self.config.program_trace, self.prog_window) {
            self.flush(ts);
            self.synced = false;
        }
    }

    /// Called when the observed core stops: flushes pending state.
    pub fn observe_stop(&mut self, ts: u64) {
        if Self::qualifier_active(&self.config.program_trace, self.prog_window) {
            self.flush(ts);
        }
        self.synced = false;
    }

    /// True if messages were generated this cycle.
    pub fn has_output(&self) -> bool {
        !self.out.is_empty()
    }

    /// Drains the messages generated this cycle.
    pub fn take_output(&mut self) -> Vec<TimedMessage> {
        std::mem::take(&mut self.out)
    }

    /// True if program trace is currently active.
    pub fn program_trace_active(&self) -> bool {
        Self::qualifier_active(&self.config.program_trace, self.prog_window)
    }

    /// True if data trace is currently active.
    pub fn data_trace_active(&self) -> bool {
        Self::qualifier_active(&self.config.data_trace.qualifier, self.data_window)
    }

    /// Captures the observer's runtime state (see [`ObserverState`]).
    ///
    /// # Panics
    ///
    /// Panics if called mid-cycle with undrained output; snapshots are taken
    /// at cycle boundaries where [`CoreObserver::take_output`] has run.
    pub fn save_state(&self) -> ObserverState {
        assert!(
            self.out.is_empty(),
            "observer output not drained at snapshot point"
        );
        ObserverState {
            prog_window: self.prog_window,
            data_window: self.data_window,
            synced: self.synced,
            i_cnt: self.i_cnt,
            history: self.history,
            msgs_since_sync: self.msgs_since_sync,
            generated: self.generated,
        }
    }

    /// Restores state captured by [`CoreObserver::save_state`].
    pub fn restore_state(&mut self, state: &ObserverState) {
        self.prog_window = state.prog_window;
        self.data_window = state.data_window;
        self.synced = state.synced;
        self.i_cnt = state.i_cnt;
        self.history = state.history;
        self.msgs_since_sync = state.msgs_since_sync;
        self.generated = state.generated;
        self.out.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcds_soc::bus::AddrRange;
    use mcds_soc::event::MemAccessInfo;
    use mcds_soc::isa::{AluOp, BranchCond, MemWidth, Reg};
    use mcds_soc::Instr;

    fn retire_at(pc: u32, instr: Instr, taken: Option<bool>, next_pc: u32) -> RetireEvent {
        RetireEvent {
            core: CoreId(0),
            pc,
            instr,
            next_pc,
            taken,
            mem: None,
        }
    }

    fn nop_retire(pc: u32) -> RetireEvent {
        retire_at(pc, Instr::Nop, None, pc + 4)
    }

    fn store_retire(pc: u32, addr: u32, value: u32) -> RetireEvent {
        RetireEvent {
            core: CoreId(0),
            pc,
            instr: Instr::Store {
                width: MemWidth::Word,
                rs2: Reg::new(1),
                rs1: Reg::new(2),
                imm: 0,
            },
            next_pc: pc + 4,
            taken: None,
            mem: Some(MemAccessInfo {
                addr,
                width: MemWidth::Word,
                is_write: true,
                value,
            }),
        }
    }

    fn branch_retire(pc: u32, taken: bool, target: u32) -> RetireEvent {
        retire_at(
            pc,
            Instr::Branch {
                cond: BranchCond::Ne,
                rs1: Reg::new(1),
                rs2: Reg::ZERO,
                imm: -2,
            },
            Some(taken),
            if taken { target } else { pc + 4 },
        )
    }

    fn prog_always() -> CoreTraceConfig {
        CoreTraceConfig {
            program_trace: TraceQualifier::Always,
            ..Default::default()
        }
    }

    #[test]
    fn first_retire_emits_sync() {
        let mut o = CoreObserver::new(CoreId(0), prog_always(), false, 1000);
        o.observe_retire(&nop_retire(0x100), 5);
        let msgs = o.take_output();
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].message, TraceMessage::ProgSync { pc: 0x100 });
        assert_eq!(msgs[0].timestamp, 5);
    }

    #[test]
    fn direct_branch_message_mode() {
        let mut o = CoreObserver::new(CoreId(0), prog_always(), false, 1000);
        o.observe_retire(&nop_retire(0x100), 1);
        o.observe_retire(&nop_retire(0x104), 2);
        o.observe_retire(&branch_retire(0x108, true, 0x100), 3);
        let msgs = o.take_output();
        // sync + direct branch
        assert_eq!(msgs.len(), 2);
        assert_eq!(msgs[1].message, TraceMessage::DirectBranch { i_cnt: 3 });
        // Not-taken branches emit nothing.
        o.observe_retire(&branch_retire(0x100, false, 0), 4);
        assert!(o.take_output().is_empty());
        o.flush(5);
        let msgs = o.take_output();
        assert_eq!(
            msgs[0].message,
            TraceMessage::FlowFlush {
                i_cnt: 1,
                history: BranchBits::new()
            }
        );
    }

    #[test]
    fn branch_history_mode_accumulates_32_outcomes() {
        let mut o = CoreObserver::new(CoreId(0), prog_always(), true, 1000);
        o.observe_retire(&nop_retire(0x100), 0);
        for k in 0..32 {
            o.observe_retire(&branch_retire(0x104, k % 2 == 0, 0x104), k as u64);
        }
        let msgs = o.take_output();
        assert_eq!(msgs.len(), 2, "sync + one history message for 32 branches");
        match msgs[1].message {
            TraceMessage::BranchHistory { i_cnt, history } => {
                assert_eq!(i_cnt, 33);
                assert_eq!(history.count, 32);
                assert!(history.get(0));
                assert!(!history.get(1));
            }
            other => panic!("expected history message, got {other:?}"),
        }
    }

    #[test]
    fn indirect_branch_carries_target_and_history() {
        let mut o = CoreObserver::new(CoreId(0), prog_always(), true, 1000);
        o.observe_retire(&nop_retire(0x100), 0);
        o.observe_retire(&branch_retire(0x104, true, 0x108), 1);
        let jalr = retire_at(
            0x108,
            Instr::Jalr {
                rd: Reg::ZERO,
                rs1: Reg::LR,
                imm: 0,
            },
            Some(true),
            0x2000,
        );
        o.observe_retire(&jalr, 2);
        let msgs = o.take_output();
        assert_eq!(msgs.len(), 2);
        match msgs[1].message {
            TraceMessage::IndirectBranch {
                i_cnt,
                history,
                target,
            } => {
                assert_eq!(i_cnt, 3);
                assert_eq!(history.count, 1);
                assert!(history.get(0));
                assert_eq!(target, 0x2000);
            }
            other => panic!("expected indirect branch, got {other:?}"),
        }
    }

    #[test]
    fn window_qualifier_opens_and_closes() {
        let start = SignalRef::ProgComp {
            core: CoreId(0),
            idx: 0,
        };
        let stop = SignalRef::ProgComp {
            core: CoreId(0),
            idx: 1,
        };
        let cfg = CoreTraceConfig {
            program_trace: TraceQualifier::Window { start, stop },
            ..Default::default()
        };
        let mut o = CoreObserver::new(CoreId(0), cfg, false, 1000);
        // Before the window: nothing.
        o.begin_cycle(&SignalSet::new(), 0);
        o.observe_retire(&nop_retire(0x100), 0);
        assert!(o.take_output().is_empty());
        // Open.
        let mut s = SignalSet::new();
        s.assert_signal(start);
        o.begin_cycle(&s, 1);
        o.observe_retire(&nop_retire(0x104), 1);
        let msgs = o.take_output();
        assert_eq!(msgs[0].message, TraceMessage::ProgSync { pc: 0x104 });
        assert!(o.program_trace_active());
        // Close: pending run flushes.
        let mut s = SignalSet::new();
        s.assert_signal(stop);
        o.begin_cycle(&s, 2);
        let msgs = o.take_output();
        assert_eq!(
            msgs[0].message,
            TraceMessage::FlowFlush {
                i_cnt: 1,
                history: BranchBits::new()
            }
        );
        assert!(!o.program_trace_active());
        // After close: silent again.
        o.observe_retire(&nop_retire(0x108), 3);
        assert!(o.take_output().is_empty());
    }

    #[test]
    fn data_trace_filter_reduces_messages() {
        let cfg = CoreTraceConfig {
            data_trace: DataTraceConfig {
                qualifier: TraceQualifier::Always,
                filter: Some(DataComparator::on(
                    AddrRange::new(0xD000_0000, 0x100),
                    crate::trigger::AccessKind::Write,
                )),
            },
            ..Default::default()
        };
        let mut o = CoreObserver::new(CoreId(0), cfg, false, 1000);
        o.observe_retire(&store_retire(0x100, 0xD000_0010, 7), 0);
        o.observe_retire(&store_retire(0x104, 0xAAAA_0000, 8), 1); // filtered out
        let msgs = o.take_output();
        assert_eq!(msgs.len(), 1);
        assert_eq!(
            msgs[0].message,
            TraceMessage::DataWrite {
                addr: 0xD000_0010,
                value: 7,
                width: MemWidth::Word
            }
        );
    }

    #[test]
    fn periodic_resync_inserts_sync_messages() {
        let mut o = CoreObserver::new(CoreId(0), prog_always(), false, 2);
        o.observe_retire(&nop_retire(0x100), 0);
        for k in 0..6u32 {
            o.observe_retire(
                &branch_retire(0x104 + k * 8, true, 0x104 + k * 8 + 8),
                k as u64,
            );
        }
        let msgs = o.take_output();
        let syncs = msgs
            .iter()
            .filter(|m| matches!(m.message, TraceMessage::ProgSync { .. }))
            .count();
        assert_eq!(syncs, 1 + 3, "initial sync + every 2 program messages");
    }

    #[test]
    fn desync_resyncs_on_next_retire() {
        let mut o = CoreObserver::new(CoreId(0), prog_always(), false, 1000);
        o.observe_retire(&nop_retire(0x100), 0);
        o.take_output();
        o.desync();
        o.observe_retire(&nop_retire(0x104), 1);
        let msgs = o.take_output();
        assert_eq!(msgs[0].message, TraceMessage::ProgSync { pc: 0x104 });
    }

    #[test]
    fn extract_triggers_asserts_comparator_signals() {
        let cfg = CoreTraceConfig {
            program_comparators: vec![ProgramComparator::at(0x100)],
            data_comparators: vec![DataComparator::on(
                AddrRange::new(0xD000_0000, 0x100),
                crate::trigger::AccessKind::Any,
            )],
            ..Default::default()
        };
        let o = CoreObserver::new(CoreId(0), cfg, false, 1000);
        let mut s = SignalSet::new();
        o.extract_triggers(&nop_retire(0x100), &mut s);
        assert!(s.is_asserted(SignalRef::ProgComp {
            core: CoreId(0),
            idx: 0
        }));
        let mut s = SignalSet::new();
        o.extract_triggers(&store_retire(0x200, 0xD000_0004, 1), &mut s);
        assert!(s.is_asserted(SignalRef::DataComp {
            core: CoreId(0),
            idx: 0
        }));
        assert!(!s.is_asserted(SignalRef::ProgComp {
            core: CoreId(0),
            idx: 0
        }));
    }

    #[test]
    fn long_runs_force_flow_flush() {
        let mut o = CoreObserver::new(CoreId(0), prog_always(), false, 100_000);
        for k in 0..(MAX_I_CNT + 10) {
            o.observe_retire(&nop_retire(0x100 + k * 4), k as u64);
        }
        let msgs = o.take_output();
        assert!(msgs.iter().any(
            |m| matches!(m.message, TraceMessage::FlowFlush { i_cnt, .. } if i_cnt == MAX_I_CNT)
        ));
    }

    // The AluOp import is exercised indirectly; keep the compiler honest.
    #[allow(dead_code)]
    fn _unused(op: AluOp) -> AluOp {
        op
    }
}
