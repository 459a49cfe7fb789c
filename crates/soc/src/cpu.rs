//! The TC-RISC core model.
//!
//! A single-issue, in-order core stepped one SoC cycle at a time. Every
//! instruction passes through fetch (a bus transaction, so flash wait states
//! are felt), execute (1 cycle + ALU extras) and, for loads/stores/atomics,
//! a data bus transaction. Each completed instruction produces a
//! [`RetireEvent`] — the observation stream the MCDS adaptation logic taps.
//!
//! Debug semantics follow the paper's break/suspend split:
//!
//! * **Break** ([`Cpu::request_break`]) halts the core at the next
//!   instruction boundary; the core enters a debug-halted state with
//!   registers and PC inspectable.
//! * **Suspend** ([`Cpu::set_suspended`]) gates the core's clock
//!   immediately; an in-flight bus transaction still completes (the bus is
//!   shared) and its response is buffered until the core is released.

use crate::bus::{Bus, BusCompletion, BusRequest, BusTarget, MasterId, XferKind};
use crate::event::{CoreId, MemAccessInfo, RetireEvent, SocEvent, StopCause};
use crate::isa::{Instr, MemWidth, Reg, SpecialReg};

/// Run state of a core.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunState {
    /// Executing instructions (unless suspended).
    Running,
    /// Stopped; see the cause.
    Halted(StopCause),
}

/// Pipeline phase of a core between two of its clock ticks.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// The next tick issues the fetch at `pc`.
    FetchIssue,
    /// The fetch is queued or in flight on the bus.
    FetchWait,
    /// Executing `instr`; the tick that sees `cycles_left == 1` issues its
    /// data access or retires it.
    Exec { instr: Instr, cycles_left: u32 },
    /// The data access of `instr` is queued or in flight on the bus.
    MemWait { instr: Instr },
}

/// Execute cycles `instr` spends beyond the first (multi-cycle ALU ops).
pub(crate) fn extra_cycles(instr: Instr) -> u32 {
    match instr {
        Instr::Alu { op, .. } | Instr::AluImm { op, .. } => op.extra_cycles(),
        _ => 0,
    }
}

/// Default interrupt vector (an otherwise unremarkable flash address).
pub const DEFAULT_IRQ_VECTOR: u32 = 0x8000_0400;

/// Static configuration of one core.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, Copy)]
pub struct CoreConfig {
    /// Reset program counter.
    pub reset_pc: u32,
    /// Clock divider relative to the SoC clock (1 = full speed). The core
    /// only advances on cycles where `cycle % clock_div == 0`, which is how
    /// heterogeneous core speeds (TriCore vs PCP) are modelled.
    pub clock_div: u32,
    /// Interrupt vector: the pc taken on interrupt entry.
    pub irq_vector: u32,
}

impl Default for CoreConfig {
    fn default() -> CoreConfig {
        CoreConfig {
            reset_pc: 0x8000_0000,
            clock_div: 1,
            irq_vector: DEFAULT_IRQ_VECTOR,
        }
    }
}

/// Serializable runtime state of a [`Cpu`]: registers, pc, pipeline phase
/// and debug/interrupt latches. Identity and configuration (`id`, `master`,
/// [`CoreConfig`]) are *not* included — [`Cpu::restore_state`] requires an
/// identically configured core.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, PartialEq, Eq)]
pub struct CpuState {
    regs: [u32; 16],
    pc: u32,
    state: RunState,
    phase: Phase,
    break_pending: bool,
    suspended: bool,
    step_budget: Option<u64>,
    completion: Option<BusCompletion>,
    retired: u64,
    epc: u32,
    irq_enable: bool,
    irq_line: bool,
}

/// A TC-RISC processor core.
#[derive(Debug)]
pub struct Cpu {
    id: CoreId,
    master: MasterId,
    config: CoreConfig,
    regs: [u32; 16],
    pc: u32,
    state: RunState,
    phase: Phase,
    break_pending: bool,
    suspended: bool,
    step_budget: Option<u64>,
    completion: Option<BusCompletion>,
    retired: u64,
    epc: u32,
    irq_enable: bool,
    irq_line: bool,
}

impl Cpu {
    /// Creates a core with the given identity, bus master slot and config.
    pub fn new(id: CoreId, master: MasterId, config: CoreConfig) -> Cpu {
        Cpu {
            id,
            master,
            config,
            regs: [0; 16],
            pc: config.reset_pc,
            state: RunState::Running,
            phase: Phase::FetchIssue,
            break_pending: false,
            suspended: false,
            step_budget: None,
            completion: None,
            retired: 0,
            epc: 0,
            irq_enable: false,
            irq_line: false,
        }
    }

    /// The core's id.
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// The core's bus master slot.
    pub fn master(&self) -> MasterId {
        self.master
    }

    /// The core's clock divider.
    pub fn clock_div(&self) -> u32 {
        self.config.clock_div
    }

    /// Current run state.
    pub fn state(&self) -> RunState {
        self.state
    }

    /// True if the core is halted (for any cause).
    pub fn is_halted(&self) -> bool {
        matches!(self.state, RunState::Halted(_))
    }

    /// True if the core's clock is gated by the suspend line.
    pub fn is_suspended(&self) -> bool {
        self.suspended
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Sets the program counter (debugger use; core should be halted).
    pub fn set_pc(&mut self, pc: u32) {
        self.pc = pc;
        self.phase = Phase::FetchIssue;
        self.completion = None;
    }

    /// Reads a general register.
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }

    /// Writes a general register (writes to `r0` are discarded).
    pub fn set_reg(&mut self, r: Reg, value: u32) {
        if r != Reg::ZERO {
            self.regs[r.index()] = value;
        }
    }

    /// Number of instructions retired since reset.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Drives the core's interrupt request line (level-sensitive; taken at
    /// the next instruction boundary while interrupts are enabled).
    pub fn set_irq_line(&mut self, level: bool) {
        self.irq_line = level;
    }

    /// True while the core's software has interrupts enabled.
    pub fn irq_enabled(&self) -> bool {
        self.irq_enable
    }

    /// The exception program counter (the `ERET` return target).
    pub fn epc(&self) -> u32 {
        self.epc
    }

    /// Requests a debug break: the core halts at the next instruction
    /// boundary (this is what the break & suspend switch drives).
    pub fn request_break(&mut self) {
        if !self.is_halted() {
            self.break_pending = true;
        }
    }

    /// Drives the suspend clock-gate line.
    pub fn set_suspended(&mut self, suspended: bool) {
        self.suspended = suspended;
    }

    /// Resumes a halted core.
    pub fn resume(&mut self) {
        self.state = RunState::Running;
        self.break_pending = false;
        self.step_budget = None;
        self.phase = Phase::FetchIssue;
        self.completion = None;
    }

    /// Resumes for exactly `n` instructions, then halts with
    /// [`StopCause::Step`].
    pub fn step_instructions(&mut self, n: u64) {
        self.resume();
        self.step_budget = Some(n);
    }

    /// Resets the core to its reset PC with cleared registers.
    pub fn reset(&mut self) {
        let (id, master, config) = (self.id, self.master, self.config);
        *self = Cpu::new(id, master, config);
    }

    /// Captures the core's complete runtime state (see [`CpuState`]).
    pub fn save_state(&self) -> CpuState {
        CpuState {
            regs: self.regs,
            pc: self.pc,
            state: self.state,
            phase: self.phase,
            break_pending: self.break_pending,
            suspended: self.suspended,
            step_budget: self.step_budget,
            completion: self.completion,
            retired: self.retired,
            epc: self.epc,
            irq_enable: self.irq_enable,
            irq_line: self.irq_line,
        }
    }

    /// Restores state captured by [`Cpu::save_state`]. The core's identity
    /// and configuration are untouched.
    pub fn restore_state(&mut self, state: &CpuState) {
        self.regs = state.regs;
        self.pc = state.pc;
        self.state = state.state;
        self.phase = state.phase;
        self.break_pending = state.break_pending;
        self.suspended = state.suspended;
        self.step_budget = state.step_budget;
        self.completion = state.completion;
        self.retired = state.retired;
        self.epc = state.epc;
        self.irq_enable = state.irq_enable;
        self.irq_line = state.irq_line;
    }

    /// Delivers a bus completion addressed to this core's master slot.
    /// Buffered until the core consumes it on its own clock.
    pub fn deliver(&mut self, completion: BusCompletion) {
        self.completion = Some(completion);
    }

    /// True if the core should be ticked on SoC cycle `cycle` (clock divider
    /// gating only — run state and suspend are checked inside `tick`).
    pub fn clock_enabled(&self, cycle: u64) -> bool {
        // Divider 1 (the overwhelmingly common case) short-circuits the
        // u64 division out of the per-cycle hot path.
        self.config.clock_div <= 1 || cycle.is_multiple_of(self.config.clock_div as u64)
    }

    /// True if the core runs on the undivided SoC clock with no
    /// debug/step side-entry pending and no buffered completion — the
    /// per-core precondition of the batched block executor, which runs
    /// whole instructions at one core tick per SoC cycle. The core may be
    /// in any phase.
    pub(crate) fn lane_ready(&self) -> bool {
        matches!(self.state, RunState::Running)
            && !self.suspended
            && self.completion.is_none()
            && !self.break_pending
            && self.step_budget.is_none()
            && self.config.clock_div <= 1
    }

    /// The current pipeline phase.
    pub(crate) fn phase(&self) -> Phase {
        self.phase
    }

    /// Sets the pipeline phase (the merged executor's write-back at a
    /// block end).
    pub(crate) fn set_phase(&mut self, phase: Phase) {
        self.phase = phase;
    }

    /// The data access `instr` issues from the current registers, if it
    /// has one.
    pub(crate) fn data_request(&self, instr: Instr) -> Option<BusRequest> {
        match instr {
            Instr::Load {
                width, rs1, imm, ..
            } => Some(BusRequest {
                addr: self.reg(rs1).wrapping_add(imm as i32 as u32),
                width,
                kind: XferKind::Read,
                wdata: 0,
            }),
            Instr::Store {
                width,
                rs2,
                rs1,
                imm,
            } => Some(BusRequest {
                addr: self.reg(rs1).wrapping_add(imm as i32 as u32),
                width,
                kind: XferKind::Write,
                wdata: self.reg(rs2),
            }),
            Instr::Swap { rs1, rs2, .. } => Some(BusRequest {
                addr: self.reg(rs1),
                width: MemWidth::Word,
                kind: XferKind::Atomic,
                wdata: self.reg(rs2),
            }),
            _ => None,
        }
    }

    /// True if the core would vector into its IRQ handler at the next
    /// instruction boundary.
    pub(crate) fn irq_taken_next(&self) -> bool {
        self.irq_enable && self.irq_line
    }

    /// Current level of the interrupt request line (hashed state: the
    /// kernel must keep it in sync with the interrupt controller even
    /// across skipped stretches).
    pub(crate) fn irq_line(&self) -> bool {
        self.irq_line
    }

    /// The earliest SoC cycle at or after `now` at which ticking this core
    /// could change state: `now` for a running undivided core, the next
    /// divider multiple for a divided one, `None` (never) while halted or
    /// suspended.
    pub(crate) fn next_wake(&self, now: u64) -> Option<u64> {
        if self.is_halted() || self.suspended {
            return None;
        }
        let div = u64::from(self.config.clock_div);
        if div <= 1 {
            Some(now)
        } else {
            Some(now.next_multiple_of(div))
        }
    }

    /// Advances the core by one of its clock cycles, pushing any observable
    /// events into `events`. `bus` receives fetch/data requests; `now` is
    /// the SoC cycle used for timestamping.
    pub fn tick<T: BusTarget>(&mut self, bus: &mut Bus<T>, now: u64, events: &mut Vec<SocEvent>) {
        if self.is_halted() || self.suspended {
            return;
        }
        match self.phase {
            Phase::FetchIssue => {
                if self.break_pending {
                    self.halt(StopCause::DebugRequest, events);
                    return;
                }
                if self.irq_enable && self.irq_line {
                    // Interrupt entry: an asynchronous control transfer at
                    // an instruction boundary.
                    self.epc = self.pc;
                    self.irq_enable = false;
                    let from = self.pc;
                    self.pc = self.config.irq_vector;
                    events.push(SocEvent::IrqEntry {
                        core: self.id,
                        from,
                        vector: self.pc,
                    });
                }
                bus.request(
                    self.master,
                    BusRequest {
                        addr: self.pc,
                        width: MemWidth::Word,
                        kind: XferKind::Fetch,
                        wdata: 0,
                    },
                );
                self.phase = Phase::FetchWait;
            }
            Phase::FetchWait => {
                let Some(c) = self.completion.take() else {
                    return;
                };
                if let Some(fault) = c.fault {
                    self.halt(StopCause::BusFault(fault), events);
                    return;
                }
                match Instr::decode(c.rdata) {
                    Err(e) => {
                        self.halt(StopCause::InvalidInstr { word: e.word }, events);
                    }
                    Ok(Instr::Brk) => {
                        self.halt(StopCause::Breakpoint, events);
                    }
                    Ok(Instr::Halt) => {
                        self.halt(StopCause::HaltInstr, events);
                    }
                    Ok(instr) => {
                        self.phase = Phase::Exec {
                            instr,
                            cycles_left: 1 + extra_cycles(instr),
                        };
                        // Consume the execute cycle immediately so a plain
                        // ALU op costs exactly one cycle after its fetch
                        // completes.
                        self.tick_exec(bus, now, events);
                    }
                }
            }
            Phase::Exec { .. } => self.tick_exec(bus, now, events),
            Phase::MemWait { instr } => {
                let Some(c) = self.completion.take() else {
                    return;
                };
                if let Some(fault) = c.fault {
                    self.halt(StopCause::BusFault(fault), events);
                    return;
                }
                let access = MemAccessInfo {
                    addr: c.request.addr,
                    width: c.request.width,
                    is_write: c.request.kind.is_write(),
                    value: match c.request.kind {
                        XferKind::Write => c.request.wdata,
                        _ => c.rdata,
                    },
                };
                self.retire(instr, Some(access), events);
            }
        }
    }

    fn tick_exec<T: BusTarget>(&mut self, bus: &mut Bus<T>, _now: u64, events: &mut Vec<SocEvent>) {
        let Phase::Exec { instr, cycles_left } = self.phase else {
            unreachable!("tick_exec outside Exec phase");
        };
        if cycles_left > 1 {
            self.phase = Phase::Exec {
                instr,
                cycles_left: cycles_left - 1,
            };
            return;
        }
        match self.data_request(instr) {
            Some(request) => {
                bus.request(self.master, request);
                self.phase = Phase::MemWait { instr };
            }
            None => self.retire(instr, None, events),
        }
    }

    pub(crate) fn retire(
        &mut self,
        instr: Instr,
        mem: Option<MemAccessInfo>,
        events: &mut Vec<SocEvent>,
    ) {
        let pc = self.pc;
        let mut next_pc = pc.wrapping_add(4);
        let mut taken = None;
        match instr {
            Instr::Alu { op, rd, rs1, rs2 } => {
                let v = op.apply(self.reg(rs1), self.reg(rs2));
                self.set_reg(rd, v);
            }
            Instr::AluImm { op, rd, rs1, imm } => {
                // Logical immediates zero-extend (so `lui`+`ori` composes a
                // full 32-bit constant); arithmetic immediates sign-extend.
                let ext = match op {
                    crate::isa::AluOp::And | crate::isa::AluOp::Or | crate::isa::AluOp::Xor => {
                        imm as u16 as u32
                    }
                    _ => imm as i32 as u32,
                };
                let v = op.apply(self.reg(rs1), ext);
                self.set_reg(rd, v);
            }
            Instr::Lui { rd, imm } => self.set_reg(rd, (imm as u32) << 16),
            Instr::Mfsr { rd, sr } => {
                let v = match sr {
                    SpecialReg::CoreId => self.id.0 as u32,
                    SpecialReg::CycleLo => self.retired as u32,
                    SpecialReg::CycleHi => (self.retired >> 32) as u32,
                    SpecialReg::Epc => self.epc,
                    SpecialReg::IrqEnable => self.irq_enable as u32,
                };
                self.set_reg(rd, v);
            }
            Instr::Mtsr { sr, rs1 } => {
                let v = self.reg(rs1);
                match sr {
                    SpecialReg::Epc => self.epc = v,
                    SpecialReg::IrqEnable => self.irq_enable = v & 1 != 0,
                    // The read-only registers ignore writes.
                    _ => {}
                }
            }
            Instr::Eret => {
                next_pc = self.epc;
                self.irq_enable = true;
                taken = Some(true);
            }
            Instr::Branch {
                cond,
                rs1,
                rs2,
                imm,
            } => {
                let t = cond.eval(self.reg(rs1), self.reg(rs2));
                taken = Some(t);
                if t {
                    next_pc = pc.wrapping_add((imm as i32 as u32).wrapping_mul(4));
                }
            }
            Instr::Jal { rd, imm } => {
                self.set_reg(rd, pc.wrapping_add(4));
                next_pc = pc.wrapping_add((imm as u32).wrapping_mul(4));
                taken = Some(true);
            }
            Instr::Jalr { rd, rs1, imm } => {
                let target = self.reg(rs1).wrapping_add(imm as i32 as u32) & !3;
                self.set_reg(rd, pc.wrapping_add(4));
                next_pc = target;
                taken = Some(true);
            }
            Instr::Load {
                width, signed, rd, ..
            } => {
                let raw = mem.expect("load has access info").value;
                let v = match (width, signed) {
                    (MemWidth::Byte, true) => raw as u8 as i8 as i32 as u32,
                    (MemWidth::Byte, false) => raw & 0xFF,
                    (MemWidth::Half, true) => raw as u16 as i16 as i32 as u32,
                    (MemWidth::Half, false) => raw & 0xFFFF,
                    (MemWidth::Word, _) => raw,
                };
                self.set_reg(rd, v);
            }
            Instr::Swap { rd, .. } => {
                self.set_reg(rd, mem.expect("swap has access info").value);
            }
            Instr::Store { .. } | Instr::Nop | Instr::Sync => {}
            Instr::Brk | Instr::Halt => unreachable!("handled at decode"),
        }
        self.retired += 1;
        events.push(SocEvent::Retire(RetireEvent {
            core: self.id,
            pc,
            instr,
            next_pc,
            taken,
            mem,
        }));
        self.pc = next_pc;
        self.phase = Phase::FetchIssue;
        if let Some(budget) = self.step_budget.as_mut() {
            *budget -= 1;
            if *budget == 0 {
                self.step_budget = None;
                self.halt(StopCause::Step, events);
            }
        }
    }

    pub(crate) fn halt(&mut self, cause: StopCause, events: &mut Vec<SocEvent>) {
        self.state = RunState::Halted(cause);
        self.break_pending = false;
        self.phase = Phase::FetchIssue;
        self.completion = None;
        events.push(SocEvent::CoreStopped {
            core: self.id,
            cause,
            pc: self.pc,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::AddrRange;
    use crate::mem::Sram;

    const RAM_BASE: u32 = 0x1000_0000;

    /// Runs `program` on a single core with zero-wait RAM; returns the core
    /// and collected events after `cycles` cycles.
    fn run(program: &[Instr], cycles: u64) -> (Cpu, Vec<SocEvent>) {
        let mut bus: Bus<Sram> = Bus::new(1);
        let mut ram = Sram::new(0x10000, 0).with_base(RAM_BASE);
        for (i, instr) in program.iter().enumerate() {
            let word = instr.encode();
            ram.write_bytes(i * 4, &word.to_le_bytes());
        }
        let t = bus.add_target(ram);
        bus.map_range(AddrRange::new(RAM_BASE, 0x10000), t);
        let mut cpu = Cpu::new(
            CoreId(0),
            MasterId(0),
            CoreConfig {
                reset_pc: RAM_BASE,
                clock_div: 1,
                ..Default::default()
            },
        );
        let mut events = Vec::new();
        for now in 0..cycles {
            if let Some(c) = bus.step(now) {
                cpu.deliver(c);
            }
            if cpu.clock_enabled(now) {
                cpu.tick(&mut bus, now, &mut events);
            }
        }
        (cpu, events)
    }

    fn retires(events: &[SocEvent]) -> Vec<RetireEvent> {
        events
            .iter()
            .filter_map(|e| match e {
                SocEvent::Retire(r) => Some(*r),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn basic_alu_program_runs() {
        let p = [
            Instr::AluImm {
                op: crate::isa::AluOp::Add,
                rd: Reg::new(1),
                rs1: Reg::ZERO,
                imm: 5,
            },
            Instr::AluImm {
                op: crate::isa::AluOp::Add,
                rd: Reg::new(2),
                rs1: Reg::ZERO,
                imm: 7,
            },
            Instr::Alu {
                op: crate::isa::AluOp::Add,
                rd: Reg::new(3),
                rs1: Reg::new(1),
                rs2: Reg::new(2),
            },
            Instr::Halt,
        ];
        let (cpu, events) = run(&p, 50);
        assert_eq!(cpu.reg(Reg::new(3)), 12);
        assert!(matches!(
            cpu.state(),
            RunState::Halted(StopCause::HaltInstr)
        ));
        assert_eq!(retires(&events).len(), 3, "HALT does not retire");
    }

    #[test]
    fn r0_stays_zero() {
        let p = [
            Instr::AluImm {
                op: crate::isa::AluOp::Add,
                rd: Reg::ZERO,
                rs1: Reg::ZERO,
                imm: 99,
            },
            Instr::Halt,
        ];
        let (cpu, _) = run(&p, 30);
        assert_eq!(cpu.reg(Reg::ZERO), 0);
    }

    #[test]
    fn load_store_roundtrip_with_sign_extension() {
        let base = Reg::new(1);
        let p = [
            Instr::Lui {
                rd: base,
                imm: 0x1000,
            }, // 0x1000_0000
            Instr::AluImm {
                op: crate::isa::AluOp::Add,
                rd: Reg::new(2),
                rs1: Reg::ZERO,
                imm: -2,
            },
            Instr::Store {
                width: MemWidth::Half,
                rs2: Reg::new(2),
                rs1: base,
                imm: 0x100,
            },
            Instr::Load {
                width: MemWidth::Half,
                signed: true,
                rd: Reg::new(3),
                rs1: base,
                imm: 0x100,
            },
            Instr::Load {
                width: MemWidth::Half,
                signed: false,
                rd: Reg::new(4),
                rs1: base,
                imm: 0x100,
            },
            Instr::Halt,
        ];
        let (cpu, events) = run(&p, 100);
        assert_eq!(cpu.reg(Reg::new(3)), (-2i32) as u32, "sign extended");
        assert_eq!(cpu.reg(Reg::new(4)), 0xFFFE, "zero extended");
        let rs = retires(&events);
        let store = rs
            .iter()
            .find(|r| matches!(r.instr, Instr::Store { .. }))
            .unwrap();
        assert_eq!(store.mem.unwrap().addr, RAM_BASE + 0x100);
        assert!(store.mem.unwrap().is_write);
    }

    #[test]
    fn branch_loop_counts() {
        // r1 = 3; loop: r2 += 1; r1 -= 1; bne r1, r0, loop; halt
        let p = [
            Instr::AluImm {
                op: crate::isa::AluOp::Add,
                rd: Reg::new(1),
                rs1: Reg::ZERO,
                imm: 3,
            },
            Instr::AluImm {
                op: crate::isa::AluOp::Add,
                rd: Reg::new(2),
                rs1: Reg::new(2),
                imm: 1,
            },
            Instr::AluImm {
                op: crate::isa::AluOp::Add,
                rd: Reg::new(1),
                rs1: Reg::new(1),
                imm: -1,
            },
            Instr::Branch {
                cond: crate::isa::BranchCond::Ne,
                rs1: Reg::new(1),
                rs2: Reg::ZERO,
                imm: -2,
            },
            Instr::Halt,
        ];
        let (cpu, events) = run(&p, 200);
        assert_eq!(cpu.reg(Reg::new(2)), 3);
        let rs = retires(&events);
        let branches: Vec<_> = rs.iter().filter(|r| r.instr.is_branch()).collect();
        assert_eq!(branches.len(), 3);
        assert_eq!(branches.iter().filter(|b| b.taken == Some(true)).count(), 2);
        assert_eq!(
            branches.iter().filter(|b| b.taken == Some(false)).count(),
            1
        );
    }

    #[test]
    fn jal_and_jalr_link() {
        let p = [
            Instr::Jal {
                rd: Reg::LR,
                imm: 2,
            }, // to index 2
            Instr::Halt, // return target
            Instr::Jalr {
                rd: Reg::ZERO,
                rs1: Reg::LR,
                imm: 0,
            },
        ];
        let (cpu, events) = run(&p, 60);
        assert!(matches!(
            cpu.state(),
            RunState::Halted(StopCause::HaltInstr)
        ));
        let rs = retires(&events);
        assert_eq!(rs[0].next_pc, RAM_BASE + 8);
        assert_eq!(rs[1].next_pc, RAM_BASE + 4, "jalr returns via r15");
        assert_eq!(cpu.reg(Reg::LR), RAM_BASE + 4);
    }

    #[test]
    fn brk_halts_with_breakpoint_cause_without_retiring() {
        let p = [Instr::Nop, Instr::Brk, Instr::Nop];
        let (cpu, events) = run(&p, 40);
        assert!(matches!(
            cpu.state(),
            RunState::Halted(StopCause::Breakpoint)
        ));
        assert_eq!(cpu.pc(), RAM_BASE + 4, "pc points at the BRK");
        assert_eq!(retires(&events).len(), 1);
    }

    #[test]
    fn break_request_halts_at_instruction_boundary() {
        let p = [
            Instr::AluImm {
                op: crate::isa::AluOp::Add,
                rd: Reg::new(1),
                rs1: Reg::new(1),
                imm: 1,
            },
            Instr::Branch {
                cond: crate::isa::BranchCond::Eq,
                rs1: Reg::ZERO,
                rs2: Reg::ZERO,
                imm: -1,
            },
        ];
        let mut bus: Bus<Sram> = Bus::new(1);
        let mut ram = Sram::new(0x1000, 0).with_base(RAM_BASE);
        for (i, instr) in p.iter().enumerate() {
            ram.write_bytes(i * 4, &instr.encode().to_le_bytes());
        }
        let t = bus.add_target(ram);
        bus.map_range(AddrRange::new(RAM_BASE, 0x1000), t);
        let mut cpu = Cpu::new(
            CoreId(0),
            MasterId(0),
            CoreConfig {
                reset_pc: RAM_BASE,
                clock_div: 1,
                ..Default::default()
            },
        );
        let mut events = Vec::new();
        for now in 0..20 {
            if let Some(c) = bus.step(now) {
                cpu.deliver(c);
            }
            cpu.tick(&mut bus, now, &mut events);
        }
        let before = retires(&events).len();
        assert!(before > 0);
        cpu.request_break();
        for now in 20..60 {
            if let Some(c) = bus.step(now) {
                cpu.deliver(c);
            }
            cpu.tick(&mut bus, now, &mut events);
        }
        assert!(matches!(
            cpu.state(),
            RunState::Halted(StopCause::DebugRequest)
        ));
        // At most the in-flight instruction retired after the request.
        assert!(retires(&events).len() <= before + 1);
        // Resume continues execution.
        cpu.resume();
        let n = retires(&events).len();
        for now in 60..100 {
            if let Some(c) = bus.step(now) {
                cpu.deliver(c);
            }
            cpu.tick(&mut bus, now, &mut events);
        }
        assert!(retires(&events).len() > n);
    }

    #[test]
    fn single_step_retires_exactly_one() {
        let p = [Instr::Nop, Instr::Nop, Instr::Nop, Instr::Halt];
        let mut bus: Bus<Sram> = Bus::new(1);
        let mut ram = Sram::new(0x1000, 0).with_base(RAM_BASE);
        for (i, instr) in p.iter().enumerate() {
            ram.write_bytes(i * 4, &instr.encode().to_le_bytes());
        }
        let t = bus.add_target(ram);
        bus.map_range(AddrRange::new(RAM_BASE, 0x1000), t);
        let mut cpu = Cpu::new(
            CoreId(0),
            MasterId(0),
            CoreConfig {
                reset_pc: RAM_BASE,
                clock_div: 1,
                ..Default::default()
            },
        );
        cpu.request_break();
        let mut events = Vec::new();
        for now in 0..10 {
            if let Some(c) = bus.step(now) {
                cpu.deliver(c);
            }
            cpu.tick(&mut bus, now, &mut events);
        }
        assert!(cpu.is_halted());
        events.clear();
        cpu.step_instructions(1);
        for now in 10..30 {
            if let Some(c) = bus.step(now) {
                cpu.deliver(c);
            }
            cpu.tick(&mut bus, now, &mut events);
        }
        assert_eq!(retires(&events).len(), 1);
        assert!(matches!(cpu.state(), RunState::Halted(StopCause::Step)));
        assert_eq!(cpu.pc(), RAM_BASE + 4);
    }

    #[test]
    fn suspend_gates_clock_and_preserves_state() {
        let p = [
            Instr::AluImm {
                op: crate::isa::AluOp::Add,
                rd: Reg::new(1),
                rs1: Reg::new(1),
                imm: 1,
            },
            Instr::Branch {
                cond: crate::isa::BranchCond::Eq,
                rs1: Reg::ZERO,
                rs2: Reg::ZERO,
                imm: -1,
            },
        ];
        let mut bus: Bus<Sram> = Bus::new(1);
        let mut ram = Sram::new(0x1000, 0).with_base(RAM_BASE);
        for (i, instr) in p.iter().enumerate() {
            ram.write_bytes(i * 4, &instr.encode().to_le_bytes());
        }
        let t = bus.add_target(ram);
        bus.map_range(AddrRange::new(RAM_BASE, 0x1000), t);
        let mut cpu = Cpu::new(
            CoreId(0),
            MasterId(0),
            CoreConfig {
                reset_pc: RAM_BASE,
                clock_div: 1,
                ..Default::default()
            },
        );
        let mut events = Vec::new();
        for now in 0..20 {
            if let Some(c) = bus.step(now) {
                cpu.deliver(c);
            }
            cpu.tick(&mut bus, now, &mut events);
        }
        let r1_before = cpu.reg(Reg::new(1));
        cpu.set_suspended(true);
        for now in 20..60 {
            if let Some(c) = bus.step(now) {
                cpu.deliver(c);
            }
            cpu.tick(&mut bus, now, &mut events);
        }
        // Allow at most the already-granted bus response to be absorbed: no
        // new retires while suspended beyond the in-flight one.
        cpu.set_suspended(false);
        for now in 60..100 {
            if let Some(c) = bus.step(now) {
                cpu.deliver(c);
            }
            cpu.tick(&mut bus, now, &mut events);
        }
        assert!(cpu.reg(Reg::new(1)) > r1_before, "resumed after suspend");
        assert!(!cpu.is_halted(), "suspend is not a halt");
    }

    #[test]
    fn unmapped_fetch_faults_core() {
        let mut bus: Bus<Sram> = Bus::new(1);
        let mut cpu = Cpu::new(
            CoreId(0),
            MasterId(0),
            CoreConfig {
                reset_pc: 0x5555_0000,
                clock_div: 1,
                ..Default::default()
            },
        );
        let mut events = Vec::new();
        for now in 0..10 {
            if let Some(c) = bus.step(now) {
                cpu.deliver(c);
            }
            cpu.tick(&mut bus, now, &mut events);
        }
        assert!(matches!(
            cpu.state(),
            RunState::Halted(StopCause::BusFault(_))
        ));
    }

    #[test]
    fn clock_divider_slows_retirement() {
        let p = [
            Instr::AluImm {
                op: crate::isa::AluOp::Add,
                rd: Reg::new(1),
                rs1: Reg::new(1),
                imm: 1,
            },
            Instr::Branch {
                cond: crate::isa::BranchCond::Eq,
                rs1: Reg::ZERO,
                rs2: Reg::ZERO,
                imm: -1,
            },
        ];
        let mk = |div: u32| {
            let mut bus: Bus<Sram> = Bus::new(1);
            let mut ram = Sram::new(0x1000, 0).with_base(RAM_BASE);
            for (i, instr) in p.iter().enumerate() {
                ram.write_bytes(i * 4, &instr.encode().to_le_bytes());
            }
            let t = bus.add_target(ram);
            bus.map_range(AddrRange::new(RAM_BASE, 0x1000), t);
            let mut cpu = Cpu::new(
                CoreId(0),
                MasterId(0),
                CoreConfig {
                    reset_pc: RAM_BASE,
                    clock_div: div,
                    ..Default::default()
                },
            );
            let mut events = Vec::new();
            for now in 0..400 {
                if let Some(c) = bus.step(now) {
                    cpu.deliver(c);
                }
                if cpu.clock_enabled(now) {
                    cpu.tick(&mut bus, now, &mut events);
                }
            }
            cpu.retired()
        };
        let fast = mk(1);
        let slow = mk(2);
        assert!(
            slow < fast,
            "divided clock retires fewer instructions ({slow} !< {fast})"
        );
        assert!(slow * 3 > fast, "but not pathologically fewer");
    }
}

#[cfg(test)]
mod irq_tests {
    use super::*;
    use crate::asm::assemble;
    use crate::soc::{memmap, SocBuilder};

    /// Timer-driven blink: main loop counts in r9; the ISR increments an
    /// SRAM counter, acks, and returns.
    fn irq_program(period: u32) -> crate::asm::Program {
        assemble(&format!(
            "
            .equ PERIOD_REG, 0xF0000008
            .equ ACK_REG,    0xF000000C
            .equ ISR_COUNT,  0xD0000000
            .org 0x80000000
            start:
                li r1, {period}
                li r2, PERIOD_REG
                sw r1, 0(r2)
                li r1, 1
                mtsr irqen, r1
            idle:
                addi r9, r9, 1
                j idle

            .org {vector:#x}
            isr:
                li r1, ISR_COUNT
                lw r2, 0(r1)
                addi r2, r2, 1
                sw r2, 0(r1)
                li r1, ACK_REG
                sw r0, 0(r1)
                eret
            ",
            vector = DEFAULT_IRQ_VECTOR,
        ))
        .unwrap()
    }

    #[test]
    fn timer_interrupt_runs_isr_periodically() {
        let mut soc = SocBuilder::new().cores(1).build();
        soc.load_program(&irq_program(2_000));
        soc.run_cycles(41_000);
        let isr_count = soc.backdoor_read_word(memmap::SRAM_BASE);
        assert!(
            (15..=21).contains(&isr_count),
            "≈20 ISR invocations over 40k cycles at a 2k period, got {isr_count}"
        );
        // The background loop kept running between interrupts.
        let bg = soc.core(CoreId(0)).reg(Reg::new(9));
        assert!(bg > 1_000, "background made progress ({bg})");
        assert!(!soc.core(CoreId(0)).is_halted());
    }

    #[test]
    fn interrupts_ignored_until_enabled() {
        // Same program but never sets IrqEnable: the ISR never runs.
        let program = assemble(
            "
            .equ PERIOD_REG, 0xF0000008
            .org 0x80000000
            start:
                li r1, 500
                li r2, PERIOD_REG
                sw r1, 0(r2)
            idle:
                addi r9, r9, 1
                j idle
            ",
        )
        .unwrap();
        let mut soc = SocBuilder::new().cores(1).build();
        soc.load_program(&program);
        soc.run_cycles(20_000);
        assert_eq!(soc.backdoor_read_word(memmap::SRAM_BASE), 0);
        assert!(!soc.core(CoreId(0)).is_halted());
    }

    #[test]
    fn epc_points_at_interrupted_instruction() {
        let mut soc = SocBuilder::new().cores(1).build();
        soc.load_program(&irq_program(1_000));
        // Run until inside the first ISR (interrupts disabled there).
        for _ in 0..200_000u64 {
            soc.step();
            let c = soc.core(CoreId(0));
            if !c.irq_enabled() && c.pc() >= DEFAULT_IRQ_VECTOR {
                break;
            }
        }
        let c = soc.core(CoreId(0));
        assert!(!c.irq_enabled(), "interrupts masked inside the ISR");
        // EPC is inside the idle loop (the two-instruction region).
        let epc = c.epc();
        assert!(
            (0x8000_0000..0x8000_0400).contains(&epc),
            "epc {epc:#x} inside main code"
        );
    }

    #[test]
    fn irq_entry_event_is_observable() {
        let mut soc = SocBuilder::new().cores(1).build();
        soc.load_program(&irq_program(1_500));
        let mut entries = Vec::new();
        for _ in 0..20_000u64 {
            let rec = soc.step();
            for e in &rec.events {
                if let SocEvent::IrqEntry { core, from, vector } = e {
                    entries.push((*core, *from, *vector));
                }
            }
        }
        assert!(entries.len() >= 5, "{} entries", entries.len());
        for (core, from, vector) in &entries {
            assert_eq!(*core, CoreId(0));
            assert_eq!(*vector, DEFAULT_IRQ_VECTOR);
            assert!(*from < DEFAULT_IRQ_VECTOR, "interrupted in main code");
        }
    }

    #[test]
    fn level_interrupt_refires_without_ack() {
        // An ISR that never acks: after ERET the still-pending level
        // retriggers immediately; the background loop starves.
        let program = assemble(&format!(
            "
            .equ PERIOD_REG, 0xF0000008
            .equ ISR_COUNT,  0xD0000000
            .org 0x80000000
            start:
                li r1, 3000
                li r2, PERIOD_REG
                sw r1, 0(r2)
                li r1, 1
                mtsr irqen, r1
            idle:
                addi r9, r9, 1
                j idle
            .org {vector:#x}
            isr:
                li r1, ISR_COUNT
                lw r2, 0(r1)
                addi r2, r2, 1
                sw r2, 0(r1)
                eret                  ; no ack!
            ",
            vector = DEFAULT_IRQ_VECTOR,
        ))
        .unwrap();
        let mut soc = SocBuilder::new().cores(1).build();
        soc.load_program(&program);
        soc.run_cycles(30_000);
        let isr_count = soc.backdoor_read_word(memmap::SRAM_BASE);
        // Far more invocations than the ~10 the period would give.
        assert!(isr_count > 100, "unacked level IRQ re-fires ({isr_count})");
    }
}

#[cfg(test)]
mod mtsr_tests {
    use super::*;
    use crate::asm::assemble;
    use crate::soc::{memmap, SocBuilder};

    #[test]
    fn mtsr_writes_epc_and_ignores_read_only_regs() {
        let program = assemble(
            "
            .org 0x80000000
            start:
                li r1, 0x1234
                mtsr epc, r1        ; writable
                mfsr r2, epc
                li r3, 99
                mtsr coreid, r3     ; read-only: ignored
                mfsr r4, coreid
                mfsr r5, irqen      ; starts disabled
                halt
            ",
        )
        .unwrap();
        let mut soc = SocBuilder::new().cores(1).build();
        soc.load_program(&program);
        soc.run_until_halt(10_000);
        let c = soc.core(CoreId(0));
        assert_eq!(c.reg(Reg::new(2)), 0x1234, "EPC written and read back");
        assert_eq!(c.reg(Reg::new(4)), 0, "core id unchanged by MTSR");
        assert_eq!(c.reg(Reg::new(5)), 0, "interrupts disabled at reset");
        assert_eq!(soc.backdoor_read_word(memmap::SRAM_BASE), 0);
    }
}
