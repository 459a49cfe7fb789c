//! The host-side debugger: run control, memory access and breakpoints over
//! a chosen debug link.
//!
//! Every operation goes through [`Device::execute`], so it pays the real
//! interface latency (JTAG for low-latency control actions, USB for bulk —
//! Section 6). Software breakpoints are `BRK` patches (the all-zero word);
//! they work anywhere the bus can write — SRAM, emulation RAM, and flash
//! regions *overlaid* by emulation RAM — which is exactly the paper's
//! "unlimited software breakpoints … as with development of desktop
//! applications" workflow for programs held in the 512 KB emulation RAM.
//! Plain flash refuses the patch (restoring a programmed word needs an
//! erase cycle), so flash debugging falls back to the four hardware
//! comparators per core.

use mcds::observer::CoreTraceConfig;
use mcds::{
    AccessKind, CrossTrigger, DataComparator, McdsConfig, ProgramComparator, SignalRef,
    TriggerAction,
};
use mcds_psi::device::{DebugOp, DebugResponse, Device, DeviceError};
use mcds_psi::interface::InterfaceKind;
use mcds_soc::bus::AddrRange;
use mcds_soc::event::{CoreId, StopCause};
use mcds_soc::isa::{Instr, Reg};
use mcds_soc::sink::NullSink;
use mcds_soc::{HaltStop, RunState};
use std::collections::HashMap;
use std::fmt;

/// An error from a host-side operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostError {
    /// The device refused the operation.
    Device(DeviceError),
    /// A software breakpoint cannot be patched into plain flash.
    FlashBreakpoint {
        /// The refused address.
        addr: u32,
    },
    /// No breakpoint is set at this address.
    NoBreakpoint {
        /// The address queried.
        addr: u32,
    },
    /// A breakpoint already exists at this address.
    DuplicateBreakpoint {
        /// The address.
        addr: u32,
    },
    /// All hardware comparators of the core are in use.
    HwBreakpointLimit {
        /// The core.
        core: CoreId,
    },
    /// All data comparators of the core are in use.
    WatchpointLimit {
        /// The core.
        core: CoreId,
    },
    /// The core did not stop within the supervision budget.
    NoStop,
    /// The device returned an unexpected response type.
    UnexpectedResponse,
}

impl fmt::Display for HostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HostError::Device(e) => write!(f, "device error: {e}"),
            HostError::FlashBreakpoint { addr } => write!(
                f,
                "cannot patch software breakpoint into flash at {addr:#010x} (use emulation RAM or a hardware breakpoint)"
            ),
            HostError::NoBreakpoint { addr } => write!(f, "no breakpoint at {addr:#010x}"),
            HostError::DuplicateBreakpoint { addr } => {
                write!(f, "breakpoint already set at {addr:#010x}")
            }
            HostError::HwBreakpointLimit { core } => {
                write!(f, "no free hardware comparator on {core}")
            }
            HostError::WatchpointLimit { core } => {
                write!(f, "no free data comparator on {core}")
            }
            HostError::NoStop => write!(f, "no core stopped within the budget"),
            HostError::UnexpectedResponse => write!(f, "unexpected response type"),
        }
    }
}

impl std::error::Error for HostError {}

impl From<DeviceError> for HostError {
    fn from(e: DeviceError) -> HostError {
        HostError::Device(e)
    }
}

/// A core-stop notification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StopEvent {
    /// The stopped core.
    pub core: CoreId,
    /// Why it stopped.
    pub cause: StopCause,
    /// Its program counter.
    pub pc: u32,
}

/// Serializable host-side debugger book-keeping: the breakpoint and
/// watchpoint tables plus the base MCDS configuration hardware triggers are
/// merged into.
///
/// This is what [`Debugger::detach_with_state`] carries across a
/// detach → snapshot → attach round-trip. Without it, a re-attached
/// debugger would have no record of which words are patched with `BRK` —
/// the breakpoints would still fire on the device, but the host could
/// neither resume past them (no original word to restore) nor remove them.
/// Tables are kept sorted so serialization is deterministic.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone)]
pub struct DebuggerState {
    sw_breakpoints: Vec<(u32, u32)>,
    hw_breakpoints: Vec<(CoreId, u32)>,
    watchpoints: Vec<(CoreId, AddrRange, AccessKind)>,
    base_mcds: McdsConfig,
}

impl DebuggerState {
    /// The MCDS configuration that was active on the device when this
    /// state was captured: the base configuration with the hardware
    /// breakpoint/watchpoint comparators and break lines merged in.
    ///
    /// A device being revived from a snapshot must be reconfigured with
    /// exactly this before the snapshot state is restored onto it —
    /// comparator and cross-trigger-line *structure* is configuration,
    /// not state, so a fresh device built from the original spec alone
    /// would be structurally narrower than the suspended one.
    pub fn active_mcds_config(&self, core_count: usize) -> McdsConfig {
        merged_mcds_config(
            &self.base_mcds,
            core_count,
            &self.hw_breakpoints,
            &self.watchpoints,
        )
    }
}

/// Merges hardware breakpoints and watchpoints into a base MCDS
/// configuration: one program/data comparator plus one break cross-trigger
/// line per entry, in table order (deterministic).
fn merged_mcds_config(
    base: &McdsConfig,
    core_count: usize,
    hw_breakpoints: &[(CoreId, u32)],
    watchpoints: &[(CoreId, AddrRange, AccessKind)],
) -> McdsConfig {
    let mut config = base.clone();
    if config.cores.len() < core_count {
        config.cores.resize(core_count, CoreTraceConfig::default());
    }
    for &(core, addr) in hw_breakpoints {
        let cc = &mut config.cores[core.0 as usize];
        let idx = cc.program_comparators.len();
        cc.program_comparators.push(ProgramComparator::at(addr));
        config.cross_triggers.push(CrossTrigger::on_any(
            vec![SignalRef::ProgComp { core, idx }],
            TriggerAction::BreakCores(vec![core]),
        ));
    }
    for &(core, range, access) in watchpoints {
        let cc = &mut config.cores[core.0 as usize];
        let idx = cc.data_comparators.len();
        cc.data_comparators.push(DataComparator::on(range, access));
        config.cross_triggers.push(CrossTrigger::on_any(
            vec![SignalRef::DataComp { core, idx }],
            TriggerAction::BreakCores(vec![core]),
        ));
    }
    config
}

/// The debugger session.
pub struct Debugger {
    dev: Device,
    iface: InterfaceKind,
    sw_breakpoints: HashMap<u32, u32>,
    hw_breakpoints: Vec<(CoreId, u32)>,
    watchpoints: Vec<(CoreId, AddrRange, AccessKind)>,
    base_mcds: McdsConfig,
}

impl fmt::Debug for Debugger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Debugger")
            .field("iface", &self.iface)
            .field("sw_breakpoints", &self.sw_breakpoints.len())
            .field("hw_breakpoints", &self.hw_breakpoints.len())
            .finish()
    }
}

impl Debugger {
    /// Attaches to `dev` over `iface`. The device's current MCDS
    /// configuration becomes the base that hardware breakpoints are merged
    /// into.
    pub fn attach(dev: Device, iface: InterfaceKind) -> Debugger {
        let base_mcds = dev.mcds().config().clone();
        Debugger {
            dev,
            iface,
            sw_breakpoints: HashMap::new(),
            hw_breakpoints: Vec::new(),
            watchpoints: Vec::new(),
            base_mcds,
        }
    }

    /// The attached device.
    pub fn device(&self) -> &Device {
        &self.dev
    }

    /// Mutable access to the attached device (stimulus, stepping).
    pub fn device_mut(&mut self) -> &mut Device {
        &mut self.dev
    }

    /// Detaches cleanly, returning the device: every software breakpoint
    /// is un-patched first (original words restored over the link, paying
    /// the usual transfer time), so no orphaned `BRK` sites are left
    /// behind. Use [`Debugger::detach_with_state`] to instead keep the
    /// patches in place and carry the book-keeping to a later re-attach.
    ///
    /// # Errors
    ///
    /// Device errors from the restore writes; the device is returned
    /// alongside (boxed — it is a large value) so the session is never
    /// lost.
    pub fn detach(mut self) -> Result<Device, Box<(Device, HostError)>> {
        let mut addrs: Vec<u32> = self.sw_breakpoints.keys().copied().collect();
        addrs.sort_unstable();
        for addr in &addrs {
            if let Err(e) = self.clear_sw_breakpoint(*addr) {
                return Err(Box::new((self.dev, e)));
            }
        }
        // A core sitting in a halt at one of the just-cleared sites hit our
        // breakpoint — possibly during the un-patch traffic itself. Leaving
        // it halted with no debugger attached would orphan it, so resume;
        // it re-executes the restored original instruction.
        for i in 0..self.dev.soc().core_count() {
            let core = CoreId(i as u8);
            let c = self.dev.soc().core(core);
            if c.is_halted() && addrs.binary_search(&c.pc()).is_ok() {
                if let Err(e) = self.resume(core) {
                    return Err(Box::new((self.dev, e)));
                }
            }
        }
        Ok(self.dev)
    }

    /// Detaches while keeping all breakpoints live on the device, returning
    /// the device together with the serializable book-keeping needed to
    /// re-attach later (or on a snapshot-restored copy of the device) with
    /// [`Debugger::attach_with_state`].
    pub fn detach_with_state(self) -> (Device, DebuggerState) {
        let state = self.save_state();
        (self.dev, state)
    }

    /// The debugger's current book-keeping in serializable form (see
    /// [`DebuggerState`]).
    pub fn save_state(&self) -> DebuggerState {
        let mut sw: Vec<(u32, u32)> = self.sw_breakpoints.iter().map(|(&a, &w)| (a, w)).collect();
        sw.sort_unstable_by_key(|&(a, _)| a);
        let mut hw = self.hw_breakpoints.clone();
        hw.sort_unstable_by_key(|&(c, a)| (c.0, a));
        let mut wp = self.watchpoints.clone();
        wp.sort_unstable_by_key(|&(c, r, _)| (c.0, r.start));
        DebuggerState {
            sw_breakpoints: sw,
            hw_breakpoints: hw,
            watchpoints: wp,
            base_mcds: self.base_mcds.clone(),
        }
    }

    /// Re-attaches to `dev` over `iface` with book-keeping captured by
    /// [`Debugger::detach_with_state`] (typically after the device was
    /// snapshotted and restored). The software-breakpoint table, hardware
    /// trigger lists and base MCDS configuration all survive, so patched
    /// `BRK` sites can be resumed past and cleared exactly as before the
    /// detach.
    pub fn attach_with_state(dev: Device, iface: InterfaceKind, state: &DebuggerState) -> Debugger {
        Debugger {
            dev,
            iface,
            sw_breakpoints: state.sw_breakpoints.iter().copied().collect(),
            hw_breakpoints: state.hw_breakpoints.clone(),
            watchpoints: state.watchpoints.clone(),
            base_mcds: state.base_mcds.clone(),
        }
    }

    /// The link in use.
    pub fn interface(&self) -> InterfaceKind {
        self.iface
    }

    fn exec(&mut self, op: DebugOp) -> Result<DebugResponse, HostError> {
        Ok(self.dev.execute(self.iface, op)?)
    }

    /// Halts a core.
    ///
    /// # Errors
    ///
    /// Device errors (unknown core, unresponsive core).
    pub fn halt(&mut self, core: CoreId) -> Result<(), HostError> {
        self.exec(DebugOp::HaltCore(core))?;
        Ok(())
    }

    /// Halts every core, one command per core (the host-mediated path the
    /// break & suspend switch beats — measured in experiment F2).
    ///
    /// # Errors
    ///
    /// Device errors.
    pub fn halt_all(&mut self) -> Result<(), HostError> {
        for i in 0..self.dev.soc().core_count() {
            self.halt(CoreId(i as u8))?;
        }
        Ok(())
    }

    /// Resumes a core.
    ///
    /// # Errors
    ///
    /// Device errors.
    pub fn resume(&mut self, core: CoreId) -> Result<(), HostError> {
        self.exec(DebugOp::ResumeCore(core))?;
        Ok(())
    }

    /// Single-steps a halted core by `n` instructions.
    ///
    /// # Errors
    ///
    /// Device errors (core not halted).
    pub fn step(&mut self, core: CoreId, n: u64) -> Result<(), HostError> {
        self.exec(DebugOp::StepCore(core, n))?;
        Ok(())
    }

    /// Reads a register of a halted core.
    ///
    /// # Errors
    ///
    /// Device errors.
    pub fn read_reg(&mut self, core: CoreId, r: Reg) -> Result<u32, HostError> {
        match self.exec(DebugOp::ReadReg(core, r))? {
            DebugResponse::Value(v) => Ok(v),
            _ => Err(HostError::UnexpectedResponse),
        }
    }

    /// Writes a register of a halted core.
    ///
    /// # Errors
    ///
    /// Device errors.
    pub fn write_reg(&mut self, core: CoreId, r: Reg, v: u32) -> Result<(), HostError> {
        self.exec(DebugOp::WriteReg(core, r, v))?;
        Ok(())
    }

    /// Reads the PC of a halted core.
    ///
    /// # Errors
    ///
    /// Device errors.
    pub fn pc(&mut self, core: CoreId) -> Result<u32, HostError> {
        match self.exec(DebugOp::ReadPc(core))? {
            DebugResponse::Value(v) => Ok(v),
            _ => Err(HostError::UnexpectedResponse),
        }
    }

    /// Sets the PC of a halted core.
    ///
    /// # Errors
    ///
    /// Device errors.
    pub fn set_pc(&mut self, core: CoreId, pc: u32) -> Result<(), HostError> {
        self.exec(DebugOp::SetPc(core, pc))?;
        Ok(())
    }

    /// Reads `count` words at `addr`.
    ///
    /// # Errors
    ///
    /// Device/bus errors.
    pub fn read_words(&mut self, addr: u32, count: usize) -> Result<Vec<u32>, HostError> {
        match self.exec(DebugOp::ReadWords { addr, count })? {
            DebugResponse::Words(w) => Ok(w),
            _ => Err(HostError::UnexpectedResponse),
        }
    }

    /// Writes words at `addr`.
    ///
    /// # Errors
    ///
    /// Device/bus errors.
    pub fn write_words(&mut self, addr: u32, data: Vec<u32>) -> Result<(), HostError> {
        self.exec(DebugOp::WriteWords { addr, data })?;
        Ok(())
    }

    /// Sets a software breakpoint (BRK patch) at `addr`.
    ///
    /// # Errors
    ///
    /// [`HostError::FlashBreakpoint`] if the word is in plain (un-overlaid)
    /// flash; [`HostError::DuplicateBreakpoint`] if already set.
    pub fn set_sw_breakpoint(&mut self, addr: u32) -> Result<(), HostError> {
        if self.sw_breakpoints.contains_key(&addr) {
            return Err(HostError::DuplicateBreakpoint { addr });
        }
        let original = self.read_words(addr, 1)?[0];
        match self.exec(DebugOp::WriteWords {
            addr,
            data: vec![Instr::Brk.encode()],
        }) {
            Ok(_) => {
                self.sw_breakpoints.insert(addr, original);
                Ok(())
            }
            Err(HostError::Device(DeviceError::Bus(_))) => Err(HostError::FlashBreakpoint { addr }),
            Err(e) => Err(e),
        }
    }

    /// Removes a software breakpoint, restoring the original word.
    ///
    /// # Errors
    ///
    /// [`HostError::NoBreakpoint`] if none is set at `addr`.
    pub fn clear_sw_breakpoint(&mut self, addr: u32) -> Result<(), HostError> {
        let original = self
            .sw_breakpoints
            .remove(&addr)
            .ok_or(HostError::NoBreakpoint { addr })?;
        self.write_words(addr, vec![original])?;
        Ok(())
    }

    /// Number of active software breakpoints (unlimited by hardware).
    pub fn sw_breakpoint_count(&self) -> usize {
        self.sw_breakpoints.len()
    }

    fn apply_hw_triggers(&mut self) -> Result<(), HostError> {
        let config = merged_mcds_config(
            &self.base_mcds,
            self.dev.soc().core_count(),
            &self.hw_breakpoints,
            &self.watchpoints,
        );
        self.exec(DebugOp::Reconfigure(Box::new(config)))?;
        Ok(())
    }

    /// Sets a hardware breakpoint (program comparator + break line) on
    /// `core` at `addr`.
    ///
    /// # Errors
    ///
    /// [`HostError::HwBreakpointLimit`] when the core's comparators are
    /// exhausted (4 per core — the scarcity software breakpoints in
    /// emulation RAM escape).
    pub fn set_hw_breakpoint(&mut self, core: CoreId, addr: u32) -> Result<(), HostError> {
        let base_used = self
            .base_mcds
            .cores
            .get(core.0 as usize)
            .map(|c| c.program_comparators.len())
            .unwrap_or(0);
        let used = base_used
            + self
                .hw_breakpoints
                .iter()
                .filter(|(c, _)| *c == core)
                .count();
        if used >= mcds::PROG_COMPARATORS_PER_CORE {
            return Err(HostError::HwBreakpointLimit { core });
        }
        self.hw_breakpoints.push((core, addr));
        self.apply_hw_triggers()
    }

    /// Clears a hardware breakpoint.
    ///
    /// # Errors
    ///
    /// [`HostError::NoBreakpoint`] if none matches.
    pub fn clear_hw_breakpoint(&mut self, core: CoreId, addr: u32) -> Result<(), HostError> {
        let before = self.hw_breakpoints.len();
        self.hw_breakpoints
            .retain(|&(c, a)| !(c == core && a == addr));
        if self.hw_breakpoints.len() == before {
            return Err(HostError::NoBreakpoint { addr });
        }
        self.apply_hw_triggers()
    }

    /// Sets a hardware watchpoint: the core breaks when it performs an
    /// access of `access` kind inside `range` (one of the four data
    /// comparators).
    ///
    /// # Errors
    ///
    /// [`HostError::WatchpointLimit`] when the core's data comparators are
    /// exhausted.
    pub fn set_watchpoint(
        &mut self,
        core: CoreId,
        range: AddrRange,
        access: AccessKind,
    ) -> Result<(), HostError> {
        let base_used = self
            .base_mcds
            .cores
            .get(core.0 as usize)
            .map(|c| c.data_comparators.len())
            .unwrap_or(0);
        let used = base_used
            + self
                .watchpoints
                .iter()
                .filter(|(c, _, _)| *c == core)
                .count();
        if used >= mcds::DATA_COMPARATORS_PER_CORE {
            return Err(HostError::WatchpointLimit { core });
        }
        self.watchpoints.push((core, range, access));
        self.apply_hw_triggers()
    }

    /// Clears a hardware watchpoint.
    ///
    /// # Errors
    ///
    /// [`HostError::NoBreakpoint`] if none matches the range start.
    pub fn clear_watchpoint(&mut self, core: CoreId, range: AddrRange) -> Result<(), HostError> {
        let before = self.watchpoints.len();
        self.watchpoints
            .retain(|&(c, r, _)| !(c == core && r == range));
        if self.watchpoints.len() == before {
            return Err(HostError::NoBreakpoint { addr: range.start });
        }
        self.apply_hw_triggers()
    }

    /// Holds every core in debug halt before it executes its first
    /// instruction. Only meaningful on a device that has not been stepped
    /// yet — it models attaching the probe with the reset line held, the
    /// normal way a session starts so the MCDS can be configured before any
    /// code runs.
    pub fn hold_all_at_reset(&mut self) {
        for i in 0..self.dev.soc().core_count() {
            self.dev.soc_mut().core_mut(CoreId(i as u8)).request_break();
        }
        // Let the break requests latch at the cores' first boundary.
        self.dev.run_cycles(2);
    }

    /// Resumes every halted core (one command per core).
    ///
    /// # Errors
    ///
    /// Device errors.
    pub fn resume_all(&mut self) -> Result<(), HostError> {
        for i in 0..self.dev.soc().core_count() {
            let core = CoreId(i as u8);
            if self.dev.soc().core(core).is_halted() {
                self.resume(core)?;
            }
        }
        Ok(())
    }

    fn find_stopped(&self) -> Option<StopEvent> {
        for cpu in self.dev.soc().cores() {
            if let RunState::Halted(cause) = cpu.state() {
                return Some(StopEvent {
                    core: cpu.id(),
                    cause,
                    pc: cpu.pc(),
                });
            }
        }
        None
    }

    /// Runs the device until some core is stopped, or `max_cycles` pass:
    /// one [`Device::run_into`] with [`HaltStop::Any`], so the run goes
    /// through the execution kernel and still lands on the exact cycle a
    /// core halts. Returns the cycles run and the stop. A core already
    /// stopped on entry (a breakpoint can fire during the very link latency
    /// of arming it) is reported with zero cycles run.
    pub fn run_to_stop(&mut self, max_cycles: u64) -> (u64, Option<StopEvent>) {
        if let Some(e) = self.find_stopped() {
            return (0, Some(e));
        }
        let ran = self
            .dev
            .run_into(max_cycles, Some(HaltStop::Any), &mut NullSink);
        (ran, self.find_stopped())
    }

    /// Runs the device until some core is stopped (returning immediately if
    /// one already is), or `max_cycles` pass — [`Debugger::run_to_stop`]
    /// without the cycle count.
    ///
    /// # Errors
    ///
    /// [`HostError::NoStop`] on budget exhaustion.
    pub fn wait_for_stop(&mut self, max_cycles: u64) -> Result<StopEvent, HostError> {
        self.run_to_stop(max_cycles).1.ok_or(HostError::NoStop)
    }

    /// A full stop context for a halted core: registers, special registers
    /// and a disassembly window around the pc — what a debugger front-end
    /// shows on every stop.
    ///
    /// # Errors
    ///
    /// Device errors (core not halted, bus faults reading code memory).
    pub fn context(&mut self, core: CoreId) -> Result<String, HostError> {
        use std::fmt::Write as _;
        let pc = self.pc(core)?;
        let mut out = String::new();
        let _ = writeln!(out, "{core} halted at {pc:#010x}");
        for row in 0..4 {
            let mut line = String::new();
            for col in 0..4 {
                let r = Reg::new(row * 4 + col);
                let v = self.read_reg(core, r)?;
                let _ = write!(line, "r{:<2}={v:#010x}  ", r.index());
            }
            let _ = writeln!(out, "  {}", line.trim_end());
        }
        {
            let cpu = self.dev.soc().core(core);
            let _ = writeln!(
                out,
                "  epc={:#010x}  irq={}",
                cpu.epc(),
                if cpu.irq_enabled() { "on" } else { "off" }
            );
        }
        let window_start = pc.saturating_sub(8);
        match self.disassemble_at(window_start, 5) {
            Ok(listing) => {
                for line in listing.lines() {
                    let marker = if line.starts_with(&format!("{pc:#010x}")) {
                        ">"
                    } else {
                        " "
                    };
                    let _ = writeln!(out, " {marker} {line}");
                }
            }
            Err(_) => {
                let _ = writeln!(out, "  <code memory unreadable>");
            }
        }
        Ok(out)
    }

    /// Reads and disassembles `count` instructions starting at `addr` — the
    /// debugger's memory/disassembly view.
    ///
    /// # Errors
    ///
    /// Device/bus errors from the memory read.
    pub fn disassemble_at(&mut self, addr: u32, count: usize) -> Result<String, HostError> {
        let words = self.read_words(addr, count)?;
        Ok(mcds_soc::disasm::listing(addr, &words))
    }

    /// Resumes a core stopped at a software breakpoint: restores the
    /// original word, single-steps over it, re-patches, and resumes.
    ///
    /// # Errors
    ///
    /// [`HostError::NoBreakpoint`] if the core is not at a known
    /// breakpoint; device errors.
    pub fn resume_from_breakpoint(&mut self, core: CoreId) -> Result<(), HostError> {
        let pc = self.pc(core)?;
        let original = *self
            .sw_breakpoints
            .get(&pc)
            .ok_or(HostError::NoBreakpoint { addr: pc })?;
        self.write_words(pc, vec![original])?;
        self.step(core, 1)?;
        self.write_words(pc, vec![Instr::Brk.encode()])?;
        self.resume(core)?;
        Ok(())
    }
}
