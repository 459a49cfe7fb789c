//! The debug-service processor (PCP2) model.
//!
//! Section 6: *"The USB 1.1 interface has significant software overhead,
//! but the system is unaffected as an extra PCP2 processor core is
//! integrated to run the supplied driver. The extra processor can also be
//! used for performance monitoring and consistency checking, and provides a
//! new programmable tool not found in previous ICEs."*
//!
//! The model charges per-command driver overhead in simulated cycles
//! (absorbed by the service core, never by the application cores) and
//! implements the two "programmable tool" monitor programs the paper names:
//! a performance monitor and a consistency checker.

use crate::interface::InterfaceKind;
use mcds_soc::bus::AddrRange;
use mcds_soc::event::SocEvent;
use mcds_soc::sink::CycleSink;

/// Driver overhead in service-processor cycles per command, by link.
pub fn command_overhead_cycles(kind: InterfaceKind) -> u64 {
    match kind {
        // USB driver: descriptor parsing, endpoint handling.
        InterfaceKind::Usb11 => 2_000,
        // JTAG is a hardware debug port; negligible software involvement.
        InterfaceKind::Jtag => 50,
        // CAN driver: frame reassembly on the service core.
        InterfaceKind::Can => 3_000,
    }
}

/// A performance-monitor snapshot.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, Default, PartialEq, Eq)]
pub struct PerfSnapshot {
    /// Cycles observed.
    pub cycles: u64,
    /// Instructions retired per core.
    pub retired: Vec<u64>,
    /// Completed bus transactions.
    pub bus_xacts: u64,
    /// Bus transactions per 1000 cycles (occupancy proxy).
    pub bus_per_kilocycle: u64,
}

/// The performance-monitor program running on the service core.
#[derive(Debug, Clone, Default)]
pub struct PerfMonitor {
    enabled: bool,
    cycles: u64,
    retired: Vec<u64>,
    bus_xacts: u64,
}

impl PerfMonitor {
    /// Creates a disabled monitor for `cores` cores.
    pub fn new(cores: usize) -> PerfMonitor {
        PerfMonitor {
            enabled: false,
            cycles: 0,
            retired: vec![0; cores],
            bus_xacts: 0,
        }
    }

    /// Starts/stops counting.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// True while counting.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Observes one cycle's events (borrowed; nothing retained).
    pub fn observe(&mut self, _cycle: u64, events: &[SocEvent]) {
        if !self.enabled {
            return;
        }
        self.cycles += 1;
        for e in events {
            match e {
                SocEvent::Retire(r) => {
                    if let Some(n) = self.retired.get_mut(r.core.0 as usize) {
                        *n += 1;
                    }
                }
                SocEvent::Bus(_) => self.bus_xacts += 1,
                _ => {}
            }
        }
    }

    /// Reads the counters.
    pub fn snapshot(&self) -> PerfSnapshot {
        PerfSnapshot {
            cycles: self.cycles,
            retired: self.retired.clone(),
            bus_xacts: self.bus_xacts,
            bus_per_kilocycle: (self.bus_xacts * 1000)
                .checked_div(self.cycles)
                .unwrap_or(0),
        }
    }

    /// Clears the counters.
    pub fn reset(&mut self) {
        let cores = self.retired.len();
        let enabled = self.enabled;
        *self = PerfMonitor::new(cores);
        self.enabled = enabled;
    }
}

impl CycleSink for PerfMonitor {
    fn observe(&mut self, cycle: u64, events: &[SocEvent]) {
        PerfMonitor::observe(self, cycle, events);
    }
}

/// A recorded consistency violation.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, Copy, PartialEq, Eq)]
pub struct Violation {
    /// Cycle of the offending write.
    pub cycle: u64,
    /// Written address.
    pub addr: u32,
    /// Written value.
    pub value: u32,
}

/// A consistency-checker rule: bus writes inside `range` must carry values
/// in `[min, max]`.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, PartialEq, Eq)]
pub struct ConsistencyRule {
    /// Watched address range.
    pub range: AddrRange,
    /// Minimum legal value.
    pub min: u32,
    /// Maximum legal value.
    pub max: u32,
}

/// The consistency-checker program running on the service core.
#[derive(Debug, Clone, Default)]
pub struct ConsistencyChecker {
    rules: Vec<ConsistencyRule>,
    violations: Vec<Violation>,
}

impl ConsistencyChecker {
    /// Creates a checker with no rules.
    pub fn new() -> ConsistencyChecker {
        ConsistencyChecker::default()
    }

    /// Adds a rule; returns its index.
    pub fn add_rule(&mut self, rule: ConsistencyRule) -> usize {
        self.rules.push(rule);
        self.rules.len() - 1
    }

    /// Observes one cycle's bus traffic.
    pub fn observe(&mut self, cycle: u64, events: &[SocEvent]) {
        if self.rules.is_empty() {
            return;
        }
        for e in events {
            if let SocEvent::Bus(x) = e {
                if !x.kind.is_write() {
                    continue;
                }
                for r in &self.rules {
                    if r.range.contains(x.addr) && !(r.min..=r.max).contains(&x.data) {
                        self.violations.push(Violation {
                            cycle,
                            addr: x.addr,
                            value: x.data,
                        });
                    }
                }
            }
        }
    }

    /// Recorded violations.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Clears recorded violations (rules kept).
    pub fn clear(&mut self) {
        self.violations.clear();
    }
}

impl CycleSink for ConsistencyChecker {
    fn observe(&mut self, cycle: u64, events: &[SocEvent]) {
        ConsistencyChecker::observe(self, cycle, events);
    }
}

/// Serializable runtime state of a [`ServiceProcessor`]: both monitor
/// programs (including checker rules, which are installed at runtime) and
/// the command-overhead accounting.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, PartialEq, Eq)]
pub struct ServiceState {
    perf_enabled: bool,
    perf_cycles: u64,
    perf_retired: Vec<u64>,
    perf_bus_xacts: u64,
    checker_rules: Vec<ConsistencyRule>,
    checker_violations: Vec<Violation>,
    commands_processed: u64,
    overhead_cycles: u64,
}

/// The PCP2 service processor: command overhead plus monitor programs.
#[derive(Debug)]
pub struct ServiceProcessor {
    perf: PerfMonitor,
    checker: ConsistencyChecker,
    commands_processed: u64,
    overhead_cycles: u64,
}

impl ServiceProcessor {
    /// Creates the service processor for a device with `cores` cores.
    pub fn new(cores: usize) -> ServiceProcessor {
        ServiceProcessor {
            perf: PerfMonitor::new(cores),
            checker: ConsistencyChecker::new(),
            commands_processed: 0,
            overhead_cycles: 0,
        }
    }

    /// The performance monitor.
    pub fn perf(&self) -> &PerfMonitor {
        &self.perf
    }

    /// Mutable access to the performance monitor.
    pub fn perf_mut(&mut self) -> &mut PerfMonitor {
        &mut self.perf
    }

    /// The consistency checker.
    pub fn checker(&self) -> &ConsistencyChecker {
        &self.checker
    }

    /// Mutable access to the consistency checker.
    pub fn checker_mut(&mut self) -> &mut ConsistencyChecker {
        &mut self.checker
    }

    /// True when [`ServiceProcessor::observe`] is a provable no-op: the
    /// performance monitor is off and the consistency checker has no
    /// rules. Both change only through host commands, never inside a run.
    pub fn is_idle(&self) -> bool {
        !self.perf.enabled && self.checker.rules.is_empty()
    }

    /// Observes one cycle (monitor programs).
    pub fn observe(&mut self, cycle: u64, events: &[SocEvent]) {
        self.perf.observe(cycle, events);
        self.checker.observe(cycle, events);
    }

    /// Accounts one processed command over `kind`; returns its overhead in
    /// cycles.
    pub fn process_command(&mut self, kind: InterfaceKind) -> u64 {
        let overhead = command_overhead_cycles(kind);
        self.commands_processed += 1;
        self.overhead_cycles += overhead;
        overhead
    }

    /// Commands processed so far.
    pub fn commands_processed(&self) -> u64 {
        self.commands_processed
    }

    /// Total driver overhead absorbed by the service core.
    pub fn overhead_cycles(&self) -> u64 {
        self.overhead_cycles
    }

    /// Captures the service processor's runtime state (see
    /// [`ServiceState`]).
    pub fn save_state(&self) -> ServiceState {
        ServiceState {
            perf_enabled: self.perf.enabled,
            perf_cycles: self.perf.cycles,
            perf_retired: self.perf.retired.clone(),
            perf_bus_xacts: self.perf.bus_xacts,
            checker_rules: self.checker.rules.clone(),
            checker_violations: self.checker.violations.clone(),
            commands_processed: self.commands_processed,
            overhead_cycles: self.overhead_cycles,
        }
    }

    /// Restores state captured by [`ServiceProcessor::save_state`] onto a
    /// service processor built for the same core count.
    ///
    /// # Panics
    ///
    /// Panics if the per-core retire-counter count differs.
    pub fn restore_state(&mut self, state: &ServiceState) {
        assert_eq!(
            self.perf.retired.len(),
            state.perf_retired.len(),
            "service-core count mismatch on restore"
        );
        self.perf.enabled = state.perf_enabled;
        self.perf.cycles = state.perf_cycles;
        self.perf.retired = state.perf_retired.clone();
        self.perf.bus_xacts = state.perf_bus_xacts;
        self.checker.rules = state.checker_rules.clone();
        self.checker.violations = state.checker_violations.clone();
        self.commands_processed = state.commands_processed;
        self.overhead_cycles = state.overhead_cycles;
    }
}

impl CycleSink for ServiceProcessor {
    fn observe(&mut self, cycle: u64, events: &[SocEvent]) {
        ServiceProcessor::observe(self, cycle, events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcds_soc::bus::{BusXact, MasterId, XferKind};
    use mcds_soc::event::{CoreId, RetireEvent};
    use mcds_soc::isa::{Instr, MemWidth};

    fn retire(core: u8) -> SocEvent {
        SocEvent::Retire(RetireEvent {
            core: CoreId(core),
            pc: 0,
            instr: Instr::Nop,
            next_pc: 4,
            taken: None,
            mem: None,
        })
    }

    fn write(addr: u32, data: u32) -> SocEvent {
        SocEvent::Bus(BusXact {
            master: MasterId(0),
            addr,
            width: MemWidth::Word,
            kind: XferKind::Write,
            data,
        })
    }

    #[test]
    fn perf_monitor_counts_when_enabled() {
        let mut p = PerfMonitor::new(2);
        p.observe(0, &[retire(0)]);
        assert_eq!(p.snapshot().retired, vec![0, 0], "disabled: ignores events");
        p.set_enabled(true);
        p.observe(1, &[retire(0), retire(1), write(0x10, 1)]);
        p.observe(2, &[retire(0)]);
        let s = p.snapshot();
        assert_eq!(s.cycles, 2);
        assert_eq!(s.retired, vec![2, 1]);
        assert_eq!(s.bus_xacts, 1);
        assert_eq!(s.bus_per_kilocycle, 500);
        p.reset();
        assert_eq!(p.snapshot().cycles, 0);
        assert!(p.is_enabled(), "reset keeps the enable");
    }

    #[test]
    fn consistency_checker_flags_out_of_range_writes() {
        let mut c = ConsistencyChecker::new();
        c.add_rule(ConsistencyRule {
            range: AddrRange::new(0x1000, 0x100),
            min: 10,
            max: 100,
        });
        c.observe(5, &[write(0x1004, 50)]);
        c.observe(6, &[write(0x1004, 101)]);
        c.observe(7, &[write(0x2000, 999)]); // outside range
        assert_eq!(
            c.violations(),
            &[Violation {
                cycle: 6,
                addr: 0x1004,
                value: 101
            }]
        );
        c.clear();
        assert!(c.violations().is_empty());
    }

    #[test]
    fn command_overhead_ordering() {
        // USB needs the driver; JTAG is nearly free; CAN is the heaviest.
        assert!(
            command_overhead_cycles(InterfaceKind::Jtag)
                < command_overhead_cycles(InterfaceKind::Usb11)
        );
        assert!(
            command_overhead_cycles(InterfaceKind::Usb11)
                < command_overhead_cycles(InterfaceKind::Can)
        );
    }

    #[test]
    fn idle_until_a_monitor_program_is_armed() {
        let mut s = ServiceProcessor::new(1);
        assert!(s.is_idle());
        s.perf_mut().set_enabled(true);
        assert!(!s.is_idle(), "counting perf monitor");
        s.perf_mut().set_enabled(false);
        s.checker_mut().add_rule(ConsistencyRule {
            range: AddrRange::new(0x1000, 0x100),
            min: 0,
            max: 1,
        });
        assert!(!s.is_idle(), "checker with a rule");
    }

    #[test]
    fn service_processor_accumulates_stats() {
        let mut s = ServiceProcessor::new(2);
        s.process_command(InterfaceKind::Usb11);
        s.process_command(InterfaceKind::Jtag);
        assert_eq!(s.commands_processed(), 2);
        assert_eq!(s.overhead_cycles(), 2_050);
    }
}
