#![warn(missing_docs)]

//! # mcds — the Multi-Core Debug Solution
//!
//! A behavioural model of the MCDS trigger-and-trace block of Mayer,
//! Siebert and McDonald-Maier, *"Debug Support, Calibration and Emulation
//! for Multiple Processor and Powertrain Control SoCs"* (DATE 2005):
//!
//! * **Trigger extraction** ([`trigger`]) — program/data comparators per
//!   core, plus counters and state machines ([`statemachine`]) for complex
//!   conditions;
//! * **Cross-trigger unit and break & suspend switch** ([`xtrigger`]) —
//!   Figure 2's OR/AND/counter matrix routing triggers from any core (or an
//!   external pin) to break/suspend actions on any set of cores, with
//!   minimal slippage;
//! * **Message generation and qualification** ([`observer`]) — Figure 1's
//!   per-core adaptation logic producing compressed Nexus-class messages,
//!   gated by always/window qualifiers and data filters;
//! * **Time stamping and temporal ordering** ([`sorter`], [`fifo`]) —
//!   per-source FIFOs merged by cycle-level timestamps so "all messages are
//!   stored in correct temporal order".
//!
//! The block consumes the SoC's per-cycle observation stream
//! ([`mcds_soc::CycleRecord`]) and produces trigger outputs for the device
//! to apply plus a sorted trace-message stream for the PSI trace memory:
//!
//! ```
//! use mcds::{Mcds, McdsConfig};
//! use mcds::observer::{CoreTraceConfig, TraceQualifier};
//! use mcds_soc::soc::SocBuilder;
//! use mcds_soc::asm::assemble;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut soc = SocBuilder::new().cores(1).build();
//! soc.load_program(&assemble(".org 0x80000000\nli r1, 1\nhalt")?);
//! let mut mcds = Mcds::new(McdsConfig {
//!     cores: vec![CoreTraceConfig {
//!         program_trace: TraceQualifier::Always,
//!         ..Default::default()
//!     }],
//!     ..Default::default()
//! });
//! for _ in 0..100 {
//!     let (cycle, events) = soc.step_events();
//!     let outputs = mcds.on_cycle(cycle, events);
//!     assert!(outputs.break_cores.is_empty());
//! }
//! mcds.flush(soc.cycle());
//! assert!(!mcds.take_messages().is_empty());
//! # Ok(())
//! # }
//! ```

pub mod fifo;
pub mod observer;
pub mod sorter;
pub mod statemachine;
pub mod trigger;
pub mod xtrigger;

pub use observer::{CoreObserver, CoreTraceConfig, DataTraceConfig, ObserverState, TraceQualifier};
pub use sorter::{FifoMetrics, MergePolicy};
pub use statemachine::{
    CounterConfig, CounterMode, StateMachineConfig, Transition, TriggerCounter, TriggerStateMachine,
};
pub use trigger::{
    AccessKind, DataComparator, ProgramComparator, SignalRef, SignalSet, DATA_COMPARATORS_PER_CORE,
    PROG_COMPARATORS_PER_CORE,
};
pub use xtrigger::{CrossTrigger, CrossTriggerUnit, TriggerAction, TriggerOutputs};

use mcds_soc::bus::{AddrRange, MasterId, XferKind};
use mcds_soc::event::{CoreId, SocEvent};
use mcds_trace::{TimedMessage, TraceMessage, TraceSource};
use sorter::MessageSorter;

/// Configuration of the bus (system-centric) trace tap.
///
/// Section 4: "The system centric approach supports tracing of on-chip
/// multi-master buses and general system states, independently from the
/// processor cores."
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, PartialEq, Eq)]
pub struct BusTraceConfig {
    /// Only transactions inside this range are traced (`None` = all).
    pub range: Option<AddrRange>,
    /// Only transactions from these masters are traced (`None` = all).
    pub masters: Option<Vec<MasterId>>,
    /// Trace reads (and fetches).
    pub reads: bool,
    /// Trace writes (and atomics).
    pub writes: bool,
}

impl Default for BusTraceConfig {
    fn default() -> BusTraceConfig {
        BusTraceConfig {
            range: None,
            masters: None,
            reads: false,
            writes: true,
        }
    }
}

impl BusTraceConfig {
    fn matches(&self, x: &mcds_soc::bus::BusXact) -> bool {
        if let Some(r) = self.range {
            if !r.contains(x.addr) {
                return false;
            }
        }
        if let Some(masters) = &self.masters {
            if !masters.contains(&x.master) {
                return false;
            }
        }
        if x.kind.is_write() {
            self.writes
        } else {
            self.reads
        }
    }
}

/// Full MCDS configuration.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone)]
pub struct McdsConfig {
    /// Per-core trace/trigger configuration (index = core id). Length
    /// defines how many cores the block observes.
    pub cores: Vec<CoreTraceConfig>,
    /// Trigger counters.
    pub counters: Vec<CounterConfig>,
    /// Trigger state machines.
    pub state_machines: Vec<StateMachineConfig>,
    /// Cross-trigger matrix lines.
    pub cross_triggers: Vec<CrossTrigger>,
    /// Timestamp granularity in cycles (1 = cycle level, the paper's
    /// guarantee; larger values are the T5 ablation).
    pub timestamp_resolution: u64,
    /// Per-source FIFO depth in messages.
    pub fifo_depth: usize,
    /// Sink bandwidth: messages per drain the trace memory absorbs.
    pub sink_bandwidth: usize,
    /// Drain period in cycles: the sink accepts `sink_bandwidth` messages
    /// every `sink_drain_period` cycles. Values > 1 model the "growing
    /// mismatch between circuit frequency and device pin frequency"
    /// (Section 3) for externally-drained trace.
    pub sink_drain_period: u64,
    /// Program messages between periodic re-syncs.
    pub sync_period: u32,
    /// Branch-history compression (vs per-branch messages).
    pub history_mode: bool,
    /// How the sorter merges the per-source FIFOs (ablation knob; the
    /// paper's design is timestamp merge).
    pub merge_policy: sorter::MergePolicy,
    /// Optional multi-master bus trace tap.
    pub bus_trace: Option<BusTraceConfig>,
}

impl Default for McdsConfig {
    fn default() -> McdsConfig {
        McdsConfig {
            cores: Vec::new(),
            counters: Vec::new(),
            state_machines: Vec::new(),
            cross_triggers: Vec::new(),
            timestamp_resolution: 1,
            fifo_depth: 32,
            sink_bandwidth: 1,
            sync_period: 256,
            sink_drain_period: 1,
            history_mode: true,
            merge_policy: sorter::MergePolicy::default(),
            bus_trace: None,
        }
    }
}

impl McdsConfig {
    /// The standard tracing setup: always-on program trace on each of
    /// `cores` cores, 4096-message FIFOs and a sink absorbing 8 messages
    /// per drain — generous enough that program trace never overflows.
    pub fn program_trace(cores: usize) -> McdsConfig {
        McdsConfig {
            cores: vec![
                CoreTraceConfig {
                    program_trace: TraceQualifier::Always,
                    ..Default::default()
                };
                cores
            ],
            fifo_depth: 4096,
            sink_bandwidth: 8,
            ..Default::default()
        }
    }
}

/// Aggregate statistics of an MCDS session.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct McdsStats {
    /// Messages generated by all observers (before FIFOs).
    pub generated: u64,
    /// Messages emitted by the sorter in temporal order.
    pub emitted: u64,
    /// Messages dropped on FIFO overflow.
    pub lost: u64,
    /// Messages still queued in FIFOs.
    pub backlog: usize,
}

/// Serializable runtime state of an [`Mcds`] block: observer windows and
/// pending runs, counter/state-machine positions, cross-trigger enables and
/// occurrence counts, FIFO contents and the drained-but-untaken sink. The
/// configuration is *not* included — [`Mcds::restore_state`] requires an
/// identically configured block. The per-cycle scratch buffer is always
/// empty at cycle boundaries and is restored empty.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, PartialEq)]
pub struct McdsState {
    observers: Vec<ObserverState>,
    counters: Vec<statemachine::CounterState>,
    machines: Vec<u8>,
    xunit: xtrigger::XtriggerState,
    sorter: sorter::SorterState,
    sink: Vec<TimedMessage>,
    generated: u64,
}

/// The MCDS block.
///
/// Drive it with one cycle's events per SoC cycle ([`Mcds::on_cycle`],
/// fed straight from `Soc::step_events`); apply the returned
/// [`TriggerOutputs`] to the cores (the PSI device model does this); read
/// the sorted message stream with [`Mcds::take_messages`].
#[derive(Debug)]
pub struct Mcds {
    config: McdsConfig,
    observers: Vec<CoreObserver>,
    counters: Vec<TriggerCounter>,
    machines: Vec<TriggerStateMachine>,
    xunit: CrossTriggerUnit,
    sorter: MessageSorter,
    sink: Vec<TimedMessage>,
    scratch: Vec<TimedMessage>,
    generated: u64,
    /// True when the configuration makes every cycle a provable no-op:
    /// no comparators, qualifiers, counters, state machines, cross-trigger
    /// lines or bus trace. Fixed until [`Mcds::reconfigure`] (runtime
    /// mutation only toggles enables on already-configured lines, which
    /// an empty matrix does not have); the sorter backlog is still checked
    /// dynamically before the fast path is taken.
    idle_config: bool,
    /// True when no counter, state machine, cross-trigger line or bus
    /// trace is configured (see [`Mcds::is_observe_only`]). Fixed until
    /// [`Mcds::reconfigure`], like `idle_config`.
    observe_only: bool,
}

impl Mcds {
    /// Creates the block from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if a core config exceeds the comparator limits, or FIFO
    /// depth / bandwidth / resolution is zero.
    pub fn new(config: McdsConfig) -> Mcds {
        assert!(
            config.timestamp_resolution > 0,
            "resolution must be non-zero"
        );
        assert!(
            config.sink_drain_period > 0,
            "drain period must be non-zero"
        );
        for (i, c) in config.cores.iter().enumerate() {
            assert!(
                c.program_comparators.len() <= PROG_COMPARATORS_PER_CORE,
                "core {i}: too many program comparators"
            );
            assert!(
                c.data_comparators.len() <= DATA_COMPARATORS_PER_CORE,
                "core {i}: too many data comparators"
            );
        }
        let observers: Vec<CoreObserver> = config
            .cores
            .iter()
            .enumerate()
            .map(|(i, c)| {
                CoreObserver::new(
                    CoreId(i as u8),
                    c.clone(),
                    config.history_mode,
                    config.sync_period,
                )
            })
            .collect();
        let mut sources: Vec<TraceSource> = observers
            .iter()
            .map(|o| TraceSource::Core(o.core()))
            .collect();
        sources.push(TraceSource::Bus);
        let counters = config
            .counters
            .iter()
            .cloned()
            .map(TriggerCounter::new)
            .collect();
        let machines = config
            .state_machines
            .iter()
            .cloned()
            .map(TriggerStateMachine::new)
            .collect();
        let xunit = CrossTriggerUnit::new(config.cross_triggers.clone());
        let sorter = MessageSorter::with_policy(
            &sources,
            config.fifo_depth,
            config.sink_bandwidth,
            config.merge_policy,
        );
        let observe_only = config.bus_trace.is_none()
            && config.counters.is_empty()
            && config.state_machines.is_empty()
            && config.cross_triggers.is_empty();
        let idle_config = observe_only
            && config.cores.iter().all(|c| {
                c.program_trace == TraceQualifier::Off
                    && c.data_trace.qualifier == TraceQualifier::Off
                    && c.program_comparators.is_empty()
                    && c.data_comparators.is_empty()
            });
        Mcds {
            config,
            observers,
            counters,
            machines,
            xunit,
            sorter,
            sink: Vec::new(),
            scratch: Vec::new(),
            generated: 0,
            idle_config,
            observe_only,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &McdsConfig {
        &self.config
    }

    /// Replaces the configuration, resetting all trigger and trace state
    /// (what a host-side reconfiguration does).
    pub fn reconfigure(&mut self, config: McdsConfig) {
        *self = Mcds::new(config);
    }

    /// The cross-trigger unit (e.g. to enable/disable lines at runtime).
    pub fn cross_trigger_unit_mut(&mut self) -> &mut CrossTriggerUnit {
        &mut self.xunit
    }

    /// Session statistics.
    pub fn stats(&self) -> McdsStats {
        McdsStats {
            generated: self.generated,
            emitted: self.sorter.emitted(),
            lost: self.sorter.total_lost(),
            backlog: self.sorter.backlog(),
        }
    }

    /// Per-source FIFO statistics as `(source, pushed, lost, high_water)`.
    pub fn fifo_stats(&self) -> Vec<(TraceSource, u64, u64, usize)> {
        self.sorter.fifo_stats()
    }

    /// Per-source FIFO metrics (occupancy, high-water, overflow-marker
    /// accounting) — the richer form telemetry publishes.
    pub fn fifo_metrics(&self) -> Vec<sorter::FifoMetrics> {
        self.sorter.fifo_metrics()
    }

    fn quantize(&self, cycle: u64) -> u64 {
        // Resolution 1 (cycle level, the default) short-circuits the u64
        // division out of the per-event path.
        match self.config.timestamp_resolution {
            1 => cycle,
            r => cycle / r * r,
        }
    }

    /// True when every cycle is provably a no-op for this block: nothing
    /// is configured to trigger or trace (no comparators, qualifiers,
    /// counters, state machines, cross-trigger lines or bus trace) and no
    /// messages are queued or awaiting collection. While this holds,
    /// [`Mcds::on_cycle`] returns empty outputs without touching any
    /// state — callers fast-forwarding a device may skip the call
    /// entirely. The flag can only change via [`Mcds::reconfigure`] or
    /// [`Mcds::restore_state`], never inside a stepping loop.
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.idle_config && self.sink.is_empty() && self.sorter.backlog() == 0
    }

    /// True when the block only observes: no counters, state machines,
    /// cross-trigger lines or bus trace. Comparators, window qualifiers and
    /// program/data trace act only on cycles with core events (retires,
    /// halts, interrupt entries, trigger-in edges), so such a block never
    /// produces trigger outputs and a cycle without those events only
    /// drains the sorter: [`Mcds::advance_quiet`] does such cycles in
    /// closed form. Fixed until [`Mcds::reconfigure`].
    #[inline]
    pub fn is_observe_only(&self) -> bool {
        self.observe_only
    }

    /// Advances an observe-only block over the cycles `from..to`, none of
    /// which carries a core event: the sink drains those cycles would do
    /// (up to `sink_bandwidth` messages on each cycle that is a multiple
    /// of `sink_drain_period`), bit-identical to calling
    /// [`Mcds::on_cycle`] on each of them with their bus events.
    pub fn advance_quiet(&mut self, from: u64, to: u64) {
        debug_assert!(
            self.observe_only,
            "quiet cycles are only closed-form when observe-only"
        );
        let backlog = self.sorter.backlog();
        if backlog == 0 || to <= from {
            return;
        }
        // Drain cycles in `0..n`: the multiples of the period below `n`.
        let period = self.config.sink_drain_period;
        let drains_below = |n: u64| n.div_ceil(period);
        let drains = drains_below(to) - drains_below(from);
        let pops = drains.saturating_mul(self.config.sink_bandwidth as u64);
        self.sorter
            .drain_up_to(pops.min(backlog as u64) as usize, &mut self.sink);
    }

    /// Processes one SoC cycle: trigger extraction, complex triggers, the
    /// cross-trigger matrix, message generation, FIFO/sorter movement.
    /// Returns the trigger outputs for the device to apply.
    ///
    /// `events` is borrowed (typically from the SoC stepper's scratch
    /// buffer); nothing is retained past the call, so the streaming hot
    /// path feeds this with zero per-cycle allocation.
    #[inline]
    pub fn on_cycle(&mut self, cycle: u64, events: &[SocEvent]) -> TriggerOutputs {
        // Fast path: an idle MCDS (nothing configured to trigger or trace)
        // observes the stream for free — the common case when a device is
        // fast-forwarded without tracing. A restored sorter backlog still
        // takes the full path so it keeps draining. Kept small and
        // `#[inline]` so callers in other crates pay only the check.
        if self.is_idle() {
            return TriggerOutputs::default();
        }
        self.on_cycle_full(cycle, events)
    }

    fn on_cycle_full(&mut self, cycle: u64, events: &[SocEvent]) -> TriggerOutputs {
        let ts = self.quantize(cycle);

        // 1. Trigger extraction into the cycle's signal set.
        let mut signals = SignalSet::new();
        for event in events {
            match event {
                SocEvent::Retire(r) => {
                    if let Some(o) = self.observers.get(r.core.0 as usize) {
                        o.extract_triggers(r, &mut signals);
                    }
                }
                SocEvent::TriggerIn { line, level: true } => {
                    signals.assert_signal(SignalRef::ExternalPin(*line));
                }
                SocEvent::CoreStopped { core, .. } => {
                    signals.assert_signal(SignalRef::CoreStopped(*core));
                }
                SocEvent::IrqEntry { core, .. } => {
                    signals.assert_signal(SignalRef::IrqEntry(*core));
                }
                _ => {}
            }
        }

        // 2. Counters and state machines extend the signal set.
        let mut derived = Vec::new();
        for (i, c) in self.counters.iter_mut().enumerate() {
            if c.step(&signals) {
                derived.push(SignalRef::Counter(i));
            }
        }
        for (i, m) in self.machines.iter_mut().enumerate() {
            if m.step(&signals) {
                derived.push(SignalRef::StateMachine(i));
            }
        }
        for s in derived {
            signals.assert_signal(s);
        }

        // 3. Cross-trigger matrix. (No line fires, and no window
        // qualifier moves, on a cycle without signals.)
        let outputs = if signals.is_empty() {
            TriggerOutputs::default()
        } else {
            self.xunit.evaluate(&signals)
        };

        // 4. Message generation.
        if !signals.is_empty() {
            for o in &mut self.observers {
                o.begin_cycle(&signals, ts);
            }
        }
        for event in events {
            match event {
                SocEvent::Retire(r) => {
                    if let Some(o) = self.observers.get_mut(r.core.0 as usize) {
                        o.observe_retire(r, ts);
                    }
                }
                SocEvent::CoreStopped { core, .. } => {
                    if let Some(o) = self.observers.get_mut(core.0 as usize) {
                        o.observe_stop(ts);
                    }
                }
                SocEvent::IrqEntry { core, .. } => {
                    if let Some(o) = self.observers.get_mut(core.0 as usize) {
                        o.observe_irq(ts);
                    }
                }
                SocEvent::Bus(x) => {
                    if let Some(cfg) = &self.config.bus_trace {
                        if cfg.matches(x) {
                            let message = if x.kind.is_write() && x.kind != XferKind::Atomic {
                                TraceMessage::DataWrite {
                                    addr: x.addr,
                                    value: x.data,
                                    width: x.width,
                                }
                            } else {
                                TraceMessage::DataRead {
                                    addr: x.addr,
                                    value: x.data,
                                    width: x.width,
                                }
                            };
                            self.scratch.push(TimedMessage {
                                timestamp: ts,
                                source: TraceSource::Bus,
                                message,
                            });
                        }
                    }
                }
                _ => {}
            }
        }
        for id in &outputs.watchpoints {
            self.scratch.push(TimedMessage {
                timestamp: ts,
                source: TraceSource::Bus,
                message: TraceMessage::Watchpoint { id: *id },
            });
        }

        // 5. Move observer output through the FIFOs.
        for i in 0..self.observers.len() {
            if !self.observers[i].has_output() {
                continue;
            }
            let msgs = self.observers[i].take_output();
            self.generated += msgs.len() as u64;
            for m in msgs {
                let accepted = self.sorter.push(m);
                if !accepted && m.message.is_program() {
                    self.observers[i].desync();
                }
            }
        }
        self.generated += self.scratch.len() as u64;
        for m in self.scratch.drain(..) {
            self.sorter.push(m);
        }

        // 6. Drain the sink at its bandwidth. (Period 1 — every cycle —
        // short-circuits the u64 division out of the hot path.)
        if self.sorter.backlog() > 0
            && (self.config.sink_drain_period == 1
                || cycle.is_multiple_of(self.config.sink_drain_period))
        {
            self.sorter.drain_cycle(&mut self.sink);
        }
        outputs
    }

    /// Flushes pending observer runs and drains all FIFOs (end of session).
    /// `now` stamps the flush messages.
    pub fn flush(&mut self, now: u64) {
        let ts = self.quantize(now);
        for i in 0..self.observers.len() {
            self.observers[i].flush(ts);
            let msgs = self.observers[i].take_output();
            self.generated += msgs.len() as u64;
            for m in msgs {
                self.sorter.push(m);
            }
        }
        self.sorter.drain_all(&mut self.sink);
    }

    /// Takes the sorted messages drained so far.
    #[inline]
    pub fn take_messages(&mut self) -> Vec<TimedMessage> {
        std::mem::take(&mut self.sink)
    }

    /// Captures the block's complete runtime state (see [`McdsState`]).
    /// Must be called at a cycle boundary (outside [`Mcds::on_cycle`]).
    pub fn save_state(&self) -> McdsState {
        debug_assert!(self.scratch.is_empty(), "scratch drained every cycle");
        McdsState {
            observers: self
                .observers
                .iter()
                .map(CoreObserver::save_state)
                .collect(),
            counters: self
                .counters
                .iter()
                .map(TriggerCounter::save_state)
                .collect(),
            machines: self
                .machines
                .iter()
                .map(TriggerStateMachine::save_state)
                .collect(),
            xunit: self.xunit.save_state(),
            sorter: self.sorter.save_state(),
            sink: self.sink.clone(),
            generated: self.generated,
        }
    }

    /// Restores state captured by [`Mcds::save_state`] onto an identically
    /// configured block.
    ///
    /// # Panics
    ///
    /// Panics if the observer/counter/state-machine counts differ.
    pub fn restore_state(&mut self, state: &McdsState) {
        assert_eq!(
            self.observers.len(),
            state.observers.len(),
            "observer count mismatch on restore"
        );
        assert_eq!(
            self.counters.len(),
            state.counters.len(),
            "counter count mismatch on restore"
        );
        assert_eq!(
            self.machines.len(),
            state.machines.len(),
            "state-machine count mismatch on restore"
        );
        for (o, s) in self.observers.iter_mut().zip(&state.observers) {
            o.restore_state(s);
        }
        for (c, s) in self.counters.iter_mut().zip(&state.counters) {
            c.restore_state(s);
        }
        for (m, &s) in self.machines.iter_mut().zip(&state.machines) {
            m.restore_state(s);
        }
        self.xunit.restore_state(&state.xunit);
        self.sorter.restore_state(&state.sorter);
        self.sink = state.sink.clone();
        self.scratch.clear();
        self.generated = state.generated;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcds_soc::asm::assemble;
    use mcds_soc::soc::{memmap, SocBuilder};
    use mcds_soc::Soc;

    fn run_with_mcds(soc: &mut Soc, mcds: &mut Mcds, max_cycles: u64) {
        for _ in 0..max_cycles {
            let (cycle, events) = soc.step_events();
            let out = mcds.on_cycle(cycle, events);
            for c in out.break_cores {
                soc.core_mut(c).request_break();
            }
            for c in out.suspend_cores {
                soc.core_mut(c).set_suspended(true);
            }
            for c in out.resume_cores {
                soc.core_mut(c).set_suspended(false);
            }
            if soc.cores().all(|c| c.is_halted()) {
                break;
            }
        }
    }

    fn counting_program() -> mcds_soc::asm::Program {
        assemble(
            "
            .org 0x80000000
            start:
                li r1, 20
            loop:
                addi r2, r2, 1
                addi r1, r1, -1
                bne r1, r0, loop
                halt
            ",
        )
        .unwrap()
    }

    fn always_cfg(cores: usize) -> McdsConfig {
        McdsConfig {
            cores: (0..cores)
                .map(|_| CoreTraceConfig {
                    program_trace: TraceQualifier::Always,
                    ..Default::default()
                })
                .collect(),
            fifo_depth: 1024,
            sink_bandwidth: 4,
            ..Default::default()
        }
    }

    #[test]
    fn end_to_end_trace_reconstructs_program_flow() {
        let program = counting_program();
        let mut soc = SocBuilder::new().cores(1).build();
        soc.load_program(&program);
        let mut mcds = Mcds::new(always_cfg(1));
        run_with_mcds(&mut soc, &mut mcds, 10_000);
        mcds.flush(soc.cycle());
        let msgs = mcds.take_messages();
        assert!(mcds.stats().lost == 0, "no overflow expected");

        let image = mcds_trace::ProgramImage::from(&program);
        let flow = mcds_trace::reconstruct_flow(&image, &msgs).expect("flow reconstructs");
        // li + 20 iterations of 3 instructions (the halt does not retire).
        assert_eq!(flow.len(), 1 + 20 * 3);
        assert_eq!(flow[0].pc, 0x8000_0000);
        assert_eq!(flow.last().unwrap().pc, 0x8000_000C);
    }

    #[test]
    fn advance_quiet_drains_like_empty_cycles() {
        // A traced burst leaves a backlog; the quiet cycles after it drain
        // `sink_bandwidth` messages on every `sink_drain_period`-th cycle.
        let mut soc = SocBuilder::new().cores(1).build();
        soc.load_program(&counting_program());
        let mut records = Vec::new();
        for _ in 0..120 {
            let (cycle, events) = soc.step_events();
            records.push((cycle, events.to_vec()));
        }
        let config = McdsConfig {
            sink_bandwidth: 1,
            sink_drain_period: 40,
            history_mode: false,
            ..always_cfg(1)
        };
        let (mut stepped, mut quiet) = (Mcds::new(config.clone()), Mcds::new(config));
        for (cycle, events) in &records {
            stepped.on_cycle(*cycle, events);
            quiet.on_cycle(*cycle, events);
        }
        assert!(quiet.stats().backlog > 2, "a backlog to drain");
        for (from, to) in [(120, 121), (121, 165), (165, 165), (165, 400)] {
            for cycle in from..to {
                stepped.on_cycle(cycle, &[]);
            }
            quiet.advance_quiet(from, to);
            assert_eq!(quiet.take_messages(), stepped.take_messages());
            assert_eq!(quiet.save_state(), stepped.save_state());
        }
    }

    #[test]
    fn cross_trigger_breaks_both_cores() {
        let program = counting_program();
        let mut soc = SocBuilder::new().cores(2).build();
        soc.load_program(&program);
        let mut config = always_cfg(2);
        // Break both cores on the 5th time core 1 passes the loop head.
        config.cores[1].program_comparators = vec![ProgramComparator::at(0x8000_0008)];
        config.cross_triggers = vec![CrossTrigger::on_any(
            vec![SignalRef::ProgComp {
                core: CoreId(1),
                idx: 0,
            }],
            TriggerAction::BreakCores(vec![CoreId(0), CoreId(1)]),
        )
        .with_count(5)];
        let mut mcds = Mcds::new(config);
        run_with_mcds(&mut soc, &mut mcds, 2_000);
        assert!(
            soc.core(CoreId(0)).is_halted(),
            "core 0 broken by cross trigger"
        );
        assert!(soc.core(CoreId(1)).is_halted());
        // Broke well before natural completion (20 iterations).
        assert!(soc.core(CoreId(1)).retired() < 1 + 20 * 3);
    }

    #[test]
    fn timestamps_are_monotonic_and_cycle_accurate() {
        let program = counting_program();
        let mut soc = SocBuilder::new().cores(2).build();
        soc.load_program(&program);
        let mut mcds = Mcds::new(always_cfg(2));
        run_with_mcds(&mut soc, &mut mcds, 10_000);
        mcds.flush(soc.cycle());
        let msgs = mcds.take_messages();
        assert!(!msgs.is_empty());
        for pair in msgs.windows(2) {
            assert!(pair[0].timestamp <= pair[1].timestamp, "sorted output");
        }
    }

    #[test]
    fn quantized_timestamps_coarsen() {
        let program = counting_program();
        let run = |resolution: u64| {
            let mut soc = SocBuilder::new().cores(1).build();
            soc.load_program(&program);
            let mut cfg = always_cfg(1);
            cfg.timestamp_resolution = resolution;
            cfg.history_mode = false; // one message per taken branch
            let mut mcds = Mcds::new(cfg);
            run_with_mcds(&mut soc, &mut mcds, 10_000);
            mcds.flush(soc.cycle());
            mcds.take_messages()
        };
        let fine = run(1);
        let coarse = run(64);
        let distinct = |msgs: &[TimedMessage]| {
            let mut t: Vec<u64> = msgs.iter().map(|m| m.timestamp).collect();
            t.dedup();
            t.len()
        };
        assert!(distinct(&fine) > distinct(&coarse));
        for m in &coarse {
            assert_eq!(m.timestamp % 64, 0);
        }
    }

    #[test]
    fn fifo_overflow_reported_and_flow_resyncs() {
        let long_program = assemble(
            "
            .org 0x80000000
            start:
                li r1, 200
                li r3, 0xD0000000
            loop:
                sw r1, 0(r3)
                addi r1, r1, -1
                bne r1, r0, loop
                halt
            ",
        )
        .unwrap();
        let mut soc = SocBuilder::new().cores(1).build();
        soc.load_program(&long_program);
        let mut cfg = always_cfg(1);
        cfg.cores[0].data_trace = DataTraceConfig {
            qualifier: TraceQualifier::Always,
            filter: None,
        };
        cfg.fifo_depth = 2;
        cfg.sink_bandwidth = 1;
        // Pin-limited sink: one message every 64 cycles cannot keep up with
        // one data message per ~15-cycle loop iteration.
        cfg.sink_drain_period = 64;
        let mut mcds = Mcds::new(cfg);
        run_with_mcds(&mut soc, &mut mcds, 50_000);
        mcds.flush(soc.cycle());
        let stats = mcds.stats();
        let msgs = mcds.take_messages();
        assert!(
            stats.lost > 0,
            "expected FIFO overflow with depth 2, bandwidth 1"
        );
        assert!(
            msgs.iter()
                .any(|m| matches!(m.message, TraceMessage::Overflow { .. })),
            "overflow marker present"
        );
        // Reconstruction still succeeds by skipping to the next sync.
        let image = mcds_trace::ProgramImage::from(&long_program);
        let flow = mcds_trace::reconstruct_flow(&image, &msgs);
        assert!(flow.is_ok(), "{flow:?}");
    }

    #[test]
    fn qualification_window_cuts_trace_volume() {
        let program = assemble(
            "
            .org 0x80000000
            start:
                li r1, 50
            warmup:
                addi r1, r1, -1
                bne r1, r0, warmup
            hot:                       ; window opens here
                li r2, 10
            hotloop:
                addi r2, r2, -1
                bne r2, r0, hotloop
            cold:                      ; window closes here
                li r3, 50
            cooldown:
                addi r3, r3, -1
                bne r3, r0, cooldown
                halt
            ",
        )
        .unwrap();
        let hot = program.symbol("hot").unwrap();
        let cold = program.symbol("cold").unwrap();

        let run = |qualifier: TraceQualifier, comparators: Vec<ProgramComparator>| {
            let mut soc = SocBuilder::new().cores(1).build();
            soc.load_program(&program);
            let mut cfg = always_cfg(1);
            cfg.cores[0].program_trace = qualifier;
            cfg.cores[0].program_comparators = comparators;
            let mut mcds = Mcds::new(cfg);
            run_with_mcds(&mut soc, &mut mcds, 50_000);
            mcds.flush(soc.cycle());
            mcds.take_messages().len()
        };

        let full = run(TraceQualifier::Always, vec![]);
        let windowed = run(
            TraceQualifier::Window {
                start: SignalRef::ProgComp {
                    core: CoreId(0),
                    idx: 0,
                },
                stop: SignalRef::ProgComp {
                    core: CoreId(0),
                    idx: 1,
                },
            },
            vec![ProgramComparator::at(hot), ProgramComparator::at(cold)],
        );
        assert!(
            windowed * 2 < full,
            "windowed trace ({windowed}) much smaller than full trace ({full})"
        );
        assert!(windowed > 0);
    }

    #[test]
    fn bus_trace_captures_all_masters() {
        let program = assemble(
            "
            .org 0x80000000
            start:
                li r3, 0xD0000000
                mfsr r1, coreid
                slli r2, r1, 2
                add r3, r3, r2
                li r4, 0x77
                sw r4, 0(r3)
                halt
            ",
        )
        .unwrap();
        let mut soc = SocBuilder::new().cores(2).build();
        soc.load_program(&program);
        let cfg = McdsConfig {
            cores: vec![CoreTraceConfig::default(), CoreTraceConfig::default()],
            bus_trace: Some(BusTraceConfig {
                range: Some(AddrRange::new(memmap::SRAM_BASE, 0x1000)),
                masters: None,
                reads: false,
                writes: true,
            }),
            ..Default::default()
        };
        let mut mcds = Mcds::new(cfg);
        run_with_mcds(&mut soc, &mut mcds, 5_000);
        mcds.flush(soc.cycle());
        let msgs = mcds.take_messages();
        let writes: Vec<_> = msgs
            .iter()
            .filter(|m| matches!(m.message, TraceMessage::DataWrite { .. }))
            .collect();
        assert_eq!(writes.len(), 2, "one store per core seen at the bus");
        assert!(writes.iter().all(|m| m.source == TraceSource::Bus));
    }

    #[test]
    fn watchpoint_action_emits_message() {
        let program = counting_program();
        let mut soc = SocBuilder::new().cores(1).build();
        soc.load_program(&program);
        let mut cfg = always_cfg(1);
        cfg.cores[0].program_comparators = vec![ProgramComparator::at(0x8000_0004)];
        cfg.cross_triggers = vec![CrossTrigger::on_any(
            vec![SignalRef::ProgComp {
                core: CoreId(0),
                idx: 0,
            }],
            TriggerAction::Watchpoint { id: 9 },
        )];
        let mut mcds = Mcds::new(cfg);
        run_with_mcds(&mut soc, &mut mcds, 10_000);
        mcds.flush(soc.cycle());
        let msgs = mcds.take_messages();
        let wp = msgs
            .iter()
            .filter(|m| matches!(m.message, TraceMessage::Watchpoint { id: 9 }))
            .count();
        assert_eq!(wp, 20, "one watchpoint per loop iteration");
    }

    #[test]
    fn reconfigure_resets_state() {
        let mut mcds = Mcds::new(always_cfg(1));
        mcds.on_cycle(0, &[]);
        mcds.reconfigure(always_cfg(2));
        assert_eq!(mcds.stats(), McdsStats::default());
        assert_eq!(mcds.config().cores.len(), 2);
    }
}

#[cfg(test)]
mod irq_trace_tests {
    use super::*;
    use mcds_soc::asm::assemble;
    use mcds_soc::cpu::DEFAULT_IRQ_VECTOR;
    use mcds_soc::soc::SocBuilder;
    use mcds_soc::{CoreId, SocEvent};

    /// Windowed program trace with interrupts landing inside and outside
    /// the window: every traced instruction must be real (a subset of the
    /// ground truth) and the window must survive ISR round trips.
    #[test]
    fn windowed_trace_survives_interrupts() {
        let program = assemble(&format!(
            "
            .equ PERIOD_REG, 0xF0000008
            .equ ACK_REG,    0xF000000C
            .org 0x80000000
            start:
                li r1, 700
                li r2, PERIOD_REG
                sw r1, 0(r2)
                li r1, 1
                mtsr irqen, r1
            outer:
                addi r9, r9, 1
            window_open:
                addi r3, r3, 1
                addi r3, r3, 1
            window_close:
                addi r9, r9, 1
                j outer
            .org {vector:#x}
            isr:
                addi r8, r8, 1
                li r1, ACK_REG
                sw r0, 0(r1)
                eret
            ",
            vector = DEFAULT_IRQ_VECTOR,
        ))
        .unwrap();
        let open_pc = program.symbol("window_open").unwrap();
        let close_pc = program.symbol("window_close").unwrap();
        let mut soc = SocBuilder::new().cores(1).build();
        soc.load_program(&program);
        let mut config = McdsConfig {
            cores: vec![CoreTraceConfig {
                program_comparators: vec![
                    ProgramComparator::at(open_pc),
                    ProgramComparator::at(close_pc),
                ],
                program_trace: TraceQualifier::Window {
                    start: SignalRef::ProgComp {
                        core: CoreId(0),
                        idx: 0,
                    },
                    stop: SignalRef::ProgComp {
                        core: CoreId(0),
                        idx: 1,
                    },
                },
                ..Default::default()
            }],
            fifo_depth: 1 << 14,
            sink_bandwidth: 16,
            ..Default::default()
        };
        config.sync_period = 8;
        let mut mcds = Mcds::new(config);
        let mut truth = Vec::new();
        let mut irqs = 0;
        for _ in 0..60_000u64 {
            let (cycle, events) = soc.step_events();
            for e in events {
                match e {
                    SocEvent::Retire(r) => truth.push(r.pc),
                    SocEvent::IrqEntry { .. } => irqs += 1,
                    _ => {}
                }
            }
            mcds.on_cycle(cycle, events);
        }
        assert!(irqs > 20, "{irqs} interrupts");
        mcds.flush(soc.cycle());
        let messages = mcds.take_messages();
        assert_eq!(mcds.stats().lost, 0);
        let image = mcds_trace::ProgramImage::from(&program);
        let flow = mcds_trace::reconstruct_flow(&image, &messages).expect("reconstructs");
        assert!(!flow.is_empty());
        // Every traced pc is one the core really executed, in order:
        // the windowed flow is a subsequence of the truth.
        let mut t = truth.iter();
        for e in &flow {
            assert!(
                t.any(|&pc| pc == e.pc),
                "traced pc {:#x} out of order vs ground truth",
                e.pc
            );
        }
        // The window body is in the trace…
        assert!(flow.iter().any(|e| e.pc == open_pc));
        // …and some ISR instructions appear whenever an interrupt landed
        // inside an open window.
        let isr_traced = flow.iter().filter(|e| e.pc >= DEFAULT_IRQ_VECTOR).count();
        assert!(isr_traced > 0, "ISR visible inside windows");
    }
}
