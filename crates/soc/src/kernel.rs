//! The discrete-event execution kernel with batched basic-block execution.
//!
//! Uniform per-cycle stepping pays the full simulation cost for every
//! cycle, including the overwhelmingly common ones in which nothing can
//! happen: all cores halted waiting on a debugger, a timer armed far in
//! the future, a divided core between its clock edges. This module
//! replaces [`crate::soc::Soc::run_cycles`]'s per-cycle loop with a
//! two-tier kernel. One private probe picks the tier for each cycle — skip
//! to cycle N, run core i as a batched block, or step — from one walk over
//! the cores and one read of each shared precondition:
//!
//! 1. **Event skip.** Every component exposes a `next_tick`-style wakeup
//!    — cores on clock dividers ([`crate::cpu::Cpu`]), the bus arbiter,
//!    the DMA engine, the timer/trigger/IRQ fabric of the peripheral
//!    block. A min-fold over the wakeups finds the earliest one and the
//!    kernel jumps sim time straight there: a quiescent stretch costs one
//!    probe instead of O(cycles). A skipped cycle is *provably* a no-op
//!    modulo two monotonic counters (the SoC cycle and the bus cycle
//!    counter), which the skip advances exactly as the stepped cycles
//!    would have.
//! 2. **Batched basic blocks.** When exactly one undivided core is
//!    running and everything else is quiet, straight-line TC-RISC code
//!    executes whole instructions at a time: decode is cached (keyed by
//!    pc + a code-generation counter), the per-phase cycle accounting is
//!    fused into one closed form, and bus/periph accesses are performed
//!    for real at the exact cycle the per-cycle machine would have
//!    performed them.
//!
//! Both tiers are exact: the architectural state ([`crate::soc::SocState`]
//! — registers, pipeline phase, bus arbiter including `last_xact` and the
//! round-robin pointer, counters, peripheral state) after a kernel run is
//! bit-identical to the same run stepped per-cycle. Anything the closed
//! forms cannot reproduce — observation sinks that want every cycle,
//! multiple active cores (bus contention), pending interrupts, debug
//! requests, DMA activity, peripheral-register data accesses, timer
//! boundaries — falls back to the per-cycle reference step, which remains
//! the single source of truth.
//!
//! The decode cache is **derived state**: it is never serialized, never
//! hashed, and rebuilt on demand, so snapshots and record/replay
//! round-trips are unaffected by it. The cache is
//! invalidated by a code-generation bump on every path that can change
//! what a fetch returns: backdoor writes and flash programming
//! ([`crate::soc::Soc::mapper_mut`] is conservatively invalidating),
//! overlay reconfiguration and calibration-page swaps (both backdoor and
//! in-band via the overlay control window), and completed bus writes into
//! any mapper-owned window (self-modifying code, DMA into emulation RAM,
//! debug-master patches).

use crate::bus::{Addr, AddrRange, BusRequest, MasterId, XferKind};
use crate::event::{CoreId, MemAccessInfo, StopCause};
use crate::isa::{Instr, MemWidth};
use crate::sink::CycleSink;
use crate::soc::{Soc, SocTarget};

/// How [`crate::soc::Soc::run_cycles`] (and everything routed through it)
/// advances simulated time.
///
/// The mode is a runtime tuning knob, not architectural state: it is not
/// serialized, not hashed, and switching it mid-run never changes the
/// simulation result — only how fast it is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// The exact per-cycle reference loop, one `step` per cycle.
    PerCycle,
    /// Quiescent-stretch skipping plus batched basic-block execution of
    /// straight-line code when the single-active-core preconditions hold
    /// (the default).
    #[default]
    BlockBatched,
}

/// What ends a run early (see [`crate::soc::Soc::run_kernel`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaltStop {
    /// Stop once every core is halted.
    All,
    /// Stop on the cycle any core halts.
    Any,
    /// Stop on the cycle this core halts.
    Core(CoreId),
    /// Stop on the cycle the debug master's bus access completes.
    DebugDone,
}

impl HaltStop {
    /// True if `soc` satisfies this stop condition.
    pub fn reached(self, soc: &Soc) -> bool {
        match self {
            HaltStop::All => soc.cores.iter().all(|c| c.is_halted()),
            HaltStop::Any => soc.cores.iter().any(|c| c.is_halted()),
            HaltStop::Core(c) => soc.core(c).is_halted(),
            HaltStop::DebugDone => soc.debug_completion.is_some(),
        }
    }
}

/// How the kernel advances from the current cycle (see `Soc::probe`).
enum Advance {
    /// Nothing can change before this (future) cycle: jump there.
    Skip(u64),
    /// Run this core's straight-line code as a batched block.
    Block(usize),
    /// Take the exact per-cycle reference step.
    Step,
}

/// Cycle-accounting counters for the execution kernel (derived state —
/// never serialized or hashed; see [`crate::soc::Soc::exec_stats`]).
///
/// Invariant: `stepped_cycles + skipped_cycles + block_cycles` equals the
/// total cycles the SoC advanced, whoever advanced them (kernel runs,
/// device-layer per-cycle loops, debug-master accesses).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Cycles advanced by the exact per-cycle step ([`ExecMode::PerCycle`],
    /// observed runs, and fallbacks inside the batched mode).
    pub stepped_cycles: u64,
    /// Cycles elided by the event skip (quiescent: provably no-op).
    pub skipped_cycles: u64,
    /// Cycles consumed by batched basic-block instructions.
    pub block_cycles: u64,
    /// Instructions executed by the block layer.
    pub block_instrs: u64,
    /// Batched blocks entered (each executed at least one instruction).
    pub blocks: u64,
    /// Block-layer decode-cache hits.
    pub decode_hits: u64,
    /// Block-layer decode-cache misses (fresh decode + cache fill).
    pub decode_misses: u64,
}

impl ExecStats {
    /// Total cycles advanced.
    pub fn total_cycles(&self) -> u64 {
        self.stepped_cycles + self.skipped_cycles + self.block_cycles
    }
}

/// One direct-mapped decode-cache slot: a pre-decoded flash word plus its
/// fetch timing, valid while `gen` matches the SoC's code generation.
#[derive(Debug, Clone, Copy)]
struct DecodeSlot {
    pc: u32,
    /// Code generation this entry was filled under; 0 is never current.
    gen: u64,
    word: u32,
    fetch_cycles: u32,
    /// `None` for words that do not decode (execute as `InvalidInstr`).
    instr: Option<Instr>,
}

impl DecodeSlot {
    const EMPTY: DecodeSlot = DecodeSlot {
        pc: 0,
        gen: 0,
        word: 0,
        fetch_cycles: 0,
        instr: None,
    };
}

/// Direct-mapped decode-cache size in slots (word-indexed by pc).
const DECODE_SLOTS: usize = 4096;

/// The kernel's derived runtime state, owned by [`crate::soc::Soc`]:
/// execution mode, statistics, the decode cache and its generation
/// counter. None of it is architectural — it is never part of
/// [`crate::soc::SocState`] or any snapshot/hash.
pub(crate) struct ExecState {
    mode: ExecMode,
    pub(crate) stats: ExecStats,
    /// Bumped whenever fetched code may have changed; cache entries from
    /// older generations are dead. Starts at 1 so `gen == 0` slots are
    /// never current.
    code_gen: u64,
    /// The flash execute window: the only region the block layer decodes
    /// from (SRAM-resident code always steps per-cycle).
    flash_window: AddrRange,
    /// Mapper-owned windows (flash, emulation RAM, overlay control): a
    /// completed bus write into any of them invalidates cached decode.
    code_windows: Vec<AddrRange>,
    /// Lazily allocated direct-mapped decode cache.
    cache: Option<Box<[DecodeSlot]>>,
}

impl ExecState {
    pub(crate) fn new(flash_window: AddrRange, code_windows: Vec<AddrRange>) -> ExecState {
        ExecState {
            mode: ExecMode::default(),
            stats: ExecStats::default(),
            code_gen: 1,
            flash_window,
            code_windows,
            cache: None,
        }
    }

    /// Invalidates all cached decode by bumping the code generation.
    pub(crate) fn invalidate_decode(&mut self) {
        self.code_gen += 1;
    }

    /// True if a completed bus write to `addr` can change fetched code
    /// (it lands in a mapper-owned window).
    pub(crate) fn watches_writes_to(&self, addr: Addr) -> bool {
        self.code_windows.iter().any(|w| w.contains(addr))
    }
}

impl Soc {
    /// The configured execution mode (see [`ExecMode`]).
    pub fn exec_mode(&self) -> ExecMode {
        self.exec.mode
    }

    /// Sets the execution mode. Purely a speed knob: every mode produces
    /// bit-identical architectural state, and the mode itself is not part
    /// of snapshots, so it may be switched at any cycle boundary.
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.exec.mode = mode;
    }

    /// Kernel cycle-accounting counters since construction (or the last
    /// [`Soc::reset_exec_stats`]).
    pub fn exec_stats(&self) -> &ExecStats {
        &self.exec.stats
    }

    /// Resets the kernel counters to zero.
    pub fn reset_exec_stats(&mut self) {
        self.exec.stats = ExecStats::default();
    }

    /// The single run-loop entry point: advances up to `max_cycles` or,
    /// with a `stop`, until the halted cores satisfy it — on the exact
    /// cycle the per-cycle machine would stop. Returns the cycles
    /// consumed. [`Soc::run_cycles_into`] and [`Soc::run_until_halt_into`]
    /// wrap it.
    pub fn run_kernel<S: CycleSink + ?Sized>(
        &mut self,
        max_cycles: u64,
        stop: Option<HaltStop>,
        sink: &mut S,
    ) -> u64 {
        let start = self.cycle;
        let target = start.saturating_add(max_cycles);
        let stopped = |soc: &Soc| stop.is_some_and(|s| s.reached(soc));
        // Observed runs and `PerCycle` take the exact reference step every
        // cycle. So does a run entered already stopped: the reference
        // loop checks the stop after stepping, so it still steps once.
        let exact = sink.wants_cycles() || self.exec.mode == ExecMode::PerCycle || stopped(self);
        while self.cycle < target {
            let advance = if exact { Advance::Step } else { self.probe() };
            match advance {
                Advance::Skip(wake) => {
                    // Nothing can change before `wake` (no core can halt
                    // either): jump straight there.
                    let skip = wake.min(target) - self.cycle;
                    self.bus.skip_quiet_cycles(skip);
                    self.cycle += skip;
                    self.exec.stats.skipped_cycles += skip;
                    continue;
                }
                Advance::Block(core) if self.run_block(core, target) => {}
                // Something is live this cycle (or the block layer could
                // not make progress): step it exactly.
                _ => self.step_into(sink),
            }
            if stopped(self) {
                break;
            }
        }
        self.cycle - start
    }

    /// The kernel's one decision point. Step while anything is live: a
    /// queued or active bus request, DMA active or latched, an unsurfaced
    /// trigger-in edge, a core IRQ line out of sync with the interrupt
    /// controller (the per-cycle machine re-drives it), or the timer due.
    /// Otherwise skip to the earliest runnable-core clock edge or timer
    /// fire if it is in the future and no hashed `last_xact` probe awaits
    /// clearing; failing that, batch the one runnable (not halted, not
    /// suspended, any divider) core if it is [`crate::cpu::Cpu::block_ready`].
    fn probe(&self) -> Advance {
        let now = self.cycle;
        let periph = self.periph();
        let irq = periph.irq_pending();
        let timer = periph.timer_wake().unwrap_or(u64::MAX);
        let mut wake = timer;
        let mut runnable = None;
        for (i, core) in self.cores.iter().enumerate() {
            if core.irq_line() != irq {
                return Advance::Step;
            }
            // `next_wake` is `None` exactly for halted or suspended cores.
            if let Some(w) = core.next_wake(now) {
                wake = wake.min(w);
                // Two live masters, one of them due now, can contend on
                // the bus: exact arbitration requires per-cycle stepping.
                // (With all of them divided and between edges, none is
                // block-ready: that needs an undivided core.)
                if runnable.replace(i).is_some() && wake <= now {
                    return Advance::Step;
                }
            }
        }
        if !self.bus.is_quiet()
            || self
                .dma
                .as_ref()
                .is_some_and(|d| !d.is_idle() || periph.dma_start_latched())
            || periph.trigger_in() != self.prev_trig_in
            || timer <= now
        {
            return Advance::Step;
        }
        if wake > now && !self.bus.has_last_xact() {
            return Advance::Skip(wake);
        }
        match runnable {
            Some(i) if self.cores[i].block_ready() => Advance::Block(i),
            _ => Advance::Step,
        }
    }

    /// Executes a batched basic block on `cores[core_idx]`, consuming
    /// whole instructions until one does not fit before `target` (or the
    /// timer horizon), changes control state (halt, interrupt enable with
    /// a pending line), leaves the flash window, or touches the
    /// peripheral block. Returns `true` if at least one instruction was
    /// executed (i.e. time advanced).
    ///
    /// Timing closed form per instruction, derived from the phase
    /// machine: the fetch issues at `t0`, is granted at `t0 + 1` and
    /// occupies `w_f` bus cycles, completing (and decoding, and spending
    /// the first execute cycle) at `t0 + w_f`; `extra` more execute
    /// cycles follow for multi-cycle ALU ops; a data access issues at
    /// `t0 + w_f + extra`, is granted next cycle and completes at
    /// `t0 + w_f + extra + w_d`, which is also the retire cycle. The next
    /// fetch issues one cycle later, so one instruction spans
    /// `w_f + 1 + extra + w_d` cycles. Undecodable/`BRK`/`HALT` words and
    /// faulting fetches halt at the completion cycle, spanning
    /// `w_f + 1` cycles. All bus accesses are performed for real at their
    /// exact completion cycles, so peripheral timestamps and counter
    /// state match per-cycle execution bit-for-bit.
    fn run_block(&mut self, core_idx: usize, target: u64) -> bool {
        let master = MasterId(core_idx as u8);
        // No instruction may span the timer's next fire: per-cycle
        // execution would mutate timer/IRQ state mid-instruction.
        let mut horizon = target;
        if let Some(fire) = self.periph().timer_wake() {
            horizon = horizon.min(fire);
        }
        let mut events = std::mem::take(&mut self.scratch);
        let mut executed = 0u64;
        loop {
            let now = self.cycle;
            let core = &self.cores[core_idx];
            if core.is_halted() || core.irq_taken_next() {
                break;
            }
            let pc = core.pc();
            if !self.exec.flash_window.contains(pc) {
                break;
            }
            let gen = self.exec.code_gen;
            let slot_idx = ((pc >> 2) as usize) & (DECODE_SLOTS - 1);
            let fetch_req = BusRequest {
                addr: pc,
                width: MemWidth::Word,
                kind: XferKind::Fetch,
                wdata: 0,
            };
            let cached = self.exec.cache.as_ref().and_then(|cache| {
                let slot = &cache[slot_idx];
                (slot.gen == gen && slot.pc == pc).then_some(*slot)
            });
            let slot = match cached {
                Some(slot) => {
                    self.exec.stats.decode_hits += 1;
                    slot
                }
                None => {
                    self.exec.stats.decode_misses += 1;
                    let fetch_cycles = self.bus.xfer_cycles(&fetch_req);
                    // Side-effect-free peek at the fetched word (memory
                    // reads are pure); a misaligned pc or read fault
                    // falls through to the real (uncached) access below.
                    let word = if pc.is_multiple_of(4) {
                        match self.bus.target_mut(self.mapper_id) {
                            SocTarget::Mapper(m) => {
                                crate::bus::BusTarget::read(m, pc, MemWidth::Word, now).ok()
                            }
                            _ => unreachable!("mapper id points at mapper"),
                        }
                    } else {
                        None
                    };
                    let Some(word) = word else {
                        // Faulting fetch: perform it exactly, halting the
                        // core at the completion cycle.
                        let period = u64::from(fetch_cycles) + 1;
                        if now + period > horizon {
                            break;
                        }
                        self.bus.begin_fast_xfer(master, fetch_cycles);
                        let completion = self.bus.finish_fast_xfer(
                            master,
                            fetch_req,
                            now + u64::from(fetch_cycles),
                        );
                        let fault = completion.fault.expect("peek faulted, so must the fetch");
                        self.bus.skip_quiet_cycles(period);
                        self.cores[core_idx].halt(StopCause::BusFault(fault), &mut events);
                        self.cycle = now + period;
                        executed += 1;
                        self.exec.stats.block_instrs += 1;
                        self.exec.stats.block_cycles += period;
                        events.clear();
                        break;
                    };
                    let slot = DecodeSlot {
                        pc,
                        gen,
                        word,
                        fetch_cycles,
                        instr: Instr::decode(word).ok(),
                    };
                    self.exec.cache.get_or_insert_with(|| {
                        vec![DecodeSlot::EMPTY; DECODE_SLOTS].into_boxed_slice()
                    })[slot_idx] = slot;
                    slot
                }
            };
            let w_f = u64::from(slot.fetch_cycles);
            // Words that stop at decode (undecodable, BRK, HALT) halt at
            // the fetch-completion cycle.
            let halt_cause = match slot.instr {
                None => Some(StopCause::InvalidInstr { word: slot.word }),
                Some(Instr::Brk) => Some(StopCause::Breakpoint),
                Some(Instr::Halt) => Some(StopCause::HaltInstr),
                Some(_) => None,
            };
            if let Some(cause) = halt_cause {
                let period = w_f + 1;
                if now + period > horizon {
                    break;
                }
                self.bus.begin_fast_xfer(master, slot.fetch_cycles);
                self.bus.finish_cached_fetch(master, pc, slot.word);
                self.bus.skip_quiet_cycles(period);
                self.cores[core_idx].halt(cause, &mut events);
                self.cycle = now + period;
                executed += 1;
                self.exec.stats.block_instrs += 1;
                self.exec.stats.block_cycles += period;
                events.clear();
                break;
            }
            let instr = slot.instr.expect("halt words handled above");
            let extra = match instr {
                Instr::Alu { op, .. } | Instr::AluImm { op, .. } => u64::from(op.extra_cycles()),
                _ => 0,
            };
            let mem_req = match instr {
                Instr::Load {
                    width, rs1, imm, ..
                } => Some(BusRequest {
                    addr: core.reg(rs1).wrapping_add(imm as i32 as u32),
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
                    addr: core.reg(rs1).wrapping_add(imm as i32 as u32),
                    width,
                    kind: XferKind::Write,
                    wdata: core.reg(rs2),
                }),
                Instr::Swap { rs1, rs2, .. } => Some(BusRequest {
                    addr: core.reg(rs1),
                    width: MemWidth::Word,
                    kind: XferKind::Atomic,
                    wdata: core.reg(rs2),
                }),
                _ => None,
            };
            if let Some(req) = &mem_req {
                // Peripheral-register accesses interact with the same
                // cycle's timer/DMA/trigger/IRQ sampling: leave the whole
                // instruction to exact per-cycle stepping.
                if self.bus.target_at(req.addr) == Some(self.periph_id) {
                    break;
                }
            }
            let (w_d32, w_d) = match &mem_req {
                Some(req) => {
                    let w = self.bus.xfer_cycles(req);
                    (w, u64::from(w))
                }
                None => (0, 0),
            };
            let period = w_f + 1 + extra + w_d;
            if now + period > horizon {
                break;
            }
            // Commit point: book the fetch, then the data access at its
            // exact completion cycle, then retire.
            self.bus.begin_fast_xfer(master, slot.fetch_cycles);
            self.bus.finish_cached_fetch(master, pc, slot.word);
            let mut halted = false;
            match mem_req {
                Some(req) => {
                    self.bus.begin_fast_xfer(master, w_d32);
                    let completion = self.bus.finish_fast_xfer(master, req, now + period - 1);
                    if completion.fault.is_none()
                        && req.kind.is_write()
                        && self.exec.watches_writes_to(req.addr)
                    {
                        // Self-modifying code (stores through an overlay
                        // window, overlay-control pokes): kill cached
                        // decode before the next lookup.
                        self.exec.invalidate_decode();
                    }
                    match completion.fault {
                        Some(fault) => {
                            self.cores[core_idx].halt(StopCause::BusFault(fault), &mut events);
                            halted = true;
                        }
                        None => {
                            let access = MemAccessInfo {
                                addr: completion.request.addr,
                                width: completion.request.width,
                                is_write: completion.request.kind.is_write(),
                                value: match completion.request.kind {
                                    XferKind::Write => completion.request.wdata,
                                    _ => completion.rdata,
                                },
                            };
                            self.cores[core_idx].retire(instr, Some(access), &mut events);
                        }
                    }
                }
                None => {
                    if extra > 0 {
                        // Per-cycle, the bus idles between the fetch
                        // completion and the retire cycle, clearing the
                        // one-cycle last-transaction probe.
                        self.bus.clear_last_xact();
                    }
                    self.cores[core_idx].retire(instr, None, &mut events);
                }
            }
            self.bus.skip_quiet_cycles(period);
            self.cycle = now + period;
            executed += 1;
            self.exec.stats.block_instrs += 1;
            self.exec.stats.block_cycles += period;
            // Retire/halt events are discarded: the block layer only runs
            // under a non-observing sink, exactly where the per-cycle
            // loop would discard them too.
            events.clear();
            if halted {
                break;
            }
        }
        events.clear();
        self.scratch = events;
        if executed > 0 {
            self.exec.stats.blocks += 1;
        }
        executed > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::cpu::{CoreConfig, DEFAULT_IRQ_VECTOR};
    use crate::event::CoreId;
    use crate::isa::Reg;
    use crate::soc::{memmap, Soc, SocBuilder, SocState};

    const MODES: [ExecMode; 2] = [ExecMode::PerCycle, ExecMode::BlockBatched];

    /// Runs `soc` for `total` cycles in uneven quanta (so blocks are cut
    /// at awkward boundaries) and returns the final architectural state.
    fn run_sliced(soc: &mut Soc, mode: ExecMode, total: u64) -> SocState {
        soc.set_exec_mode(mode);
        let mut left = total;
        let mut quantum = 1u64;
        while left > 0 {
            let n = quantum.min(left);
            soc.run_cycles(n);
            left -= n;
            quantum = (quantum * 3 + 1) % 97 + 1;
        }
        assert_eq!(soc.exec_stats().total_cycles(), total);
        soc.save_state()
    }

    /// Asserts that both execution modes land on bit-identical
    /// architectural state after `total` cycles of `build()`'s SoC.
    fn assert_mode_identical(build: impl Fn() -> Soc, total: u64) -> SocState {
        let mut reference = build();
        let per_cycle = run_sliced(&mut reference, ExecMode::PerCycle, total);
        let mut soc = build();
        let batched = run_sliced(&mut soc, ExecMode::BlockBatched, total);
        assert_eq!(batched, per_cycle, "BlockBatched diverged from PerCycle");
        per_cycle
    }

    fn single_core_soc(src: &str) -> Soc {
        let mut soc = SocBuilder::new().cores(1).build();
        soc.load_program(&assemble(src).expect("assembles"));
        soc
    }

    #[test]
    fn straight_line_loop_is_mode_identical() {
        let src = "
            .org 0x80000000
            start:
                li r1, 500
            loop:
                addi r3, r3, 7
                andi r4, r3, 12
                xor r5, r5, r4
                addi r1, r1, -1
                bne r1, r0, loop
                halt
        ";
        assert_mode_identical(|| single_core_soc(src), 30_000);
    }

    #[test]
    fn memory_and_muldiv_loop_is_mode_identical() {
        let src = "
            .org 0x80000000
            start:
                li r1, 120
                li r2, 0xD0000000
            loop:
                mul r3, r1, r1
                sw  r3, 0(r2)
                lw  r4, 0(r2)
                div r5, r4, r1
                swap r6, r2, r5
                addi r2, r2, 4
                addi r1, r1, -1
                bne r1, r0, loop
                halt
        ";
        assert_mode_identical(|| single_core_soc(src), 30_000);
    }

    #[test]
    fn timer_interrupt_run_is_mode_identical() {
        let src = format!(
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
            idle:
                addi r9, r9, 1
                j idle

            .org {vector:#x}
            isr:
                li r1, 0xD0000000
                lw r2, 0(r1)
                addi r2, r2, 1
                sw r2, 0(r1)
                li r1, ACK_REG
                sw r0, 0(r1)
                eret
            ",
            vector = DEFAULT_IRQ_VECTOR,
        );
        let state = assert_mode_identical(|| single_core_soc(&src), 25_000);
        drop(state);
        // The run actually took interrupts.
        let mut soc = single_core_soc(&src);
        soc.run_cycles(25_000);
        assert!(soc.backdoor_read_word(memmap::SRAM_BASE) > 10);
    }

    #[test]
    fn dma_run_is_mode_identical() {
        let src = "
            .equ DMA_SRC,  0xF0000400
            .org 0x80000000
            start:
                li r10, DMA_SRC
                li r1, 0x80001000
                sw r1, 0(r10)
                li r1, 0xD0000200
                sw r1, 4(r10)
                li r1, 64
                sw r1, 8(r10)
                li r1, 1
                sw r1, 12(r10)
            poll:
                lw r2, 12(r10)
                andi r2, r2, 1
                bne r2, r0, poll
                halt
        ";
        let build = || {
            let mut soc = SocBuilder::new().cores(1).with_dma().build();
            let pattern: Vec<u8> = (0..64u8).collect();
            soc.backdoor_write(memmap::FLASH_BASE + 0x1000, &pattern);
            soc.load_program(&assemble(src).expect("assembles"));
            soc
        };
        assert_mode_identical(build, 20_000);
    }

    #[test]
    fn two_cores_and_clock_divider_are_mode_identical() {
        let src = "
            .org 0x80000000
            start:
                mfsr r1, coreid
                slli r1, r1, 4
                li   r2, 0xD0000000
                add  r2, r2, r1
                li   r3, 300
            loop:
                sw r3, 0(r2)
                lw r4, 0(r2)
                addi r3, r3, -1
                bne r3, r0, loop
                halt
        ";
        let build = || {
            let mut soc = SocBuilder::new()
                .core(CoreConfig::default())
                .core(CoreConfig {
                    clock_div: 3,
                    ..Default::default()
                })
                .build();
            soc.load_program(&assemble(src).expect("assembles"));
            soc
        };
        assert_mode_identical(build, 30_000);
    }

    #[test]
    fn quiescent_stretch_is_skipped_in_constant_events() {
        let mut soc = single_core_soc(".org 0x80000000\nhalt");
        soc.run_until_halt(100);
        let before = soc.exec_stats().skipped_cycles;
        soc.run_cycles(1_000_000);
        let stats = soc.exec_stats();
        assert!(
            stats.skipped_cycles - before >= 1_000_000 - 1,
            "halted SoC skips its cycles wholesale: {stats:?}"
        );

        // And the skipped run is state-identical to stepping it.
        let mut slow = single_core_soc(".org 0x80000000\nhalt");
        slow.set_exec_mode(ExecMode::PerCycle);
        slow.run_until_halt(100);
        slow.run_cycles(1_000_000);
        assert_eq!(soc.save_state(), slow.save_state());
    }

    #[test]
    fn block_layer_actually_batches_and_hits_the_decode_cache() {
        let mut soc = single_core_soc(
            "
            .org 0x80000000
            start:
                li r1, 2000
            loop:
                addi r2, r2, 3
                addi r1, r1, -1
                bne r1, r0, loop
                halt
            ",
        );
        soc.run_until_halt_into(200_000, &mut crate::sink::NullSink);
        let stats = soc.exec_stats();
        assert!(stats.blocks > 0, "blocks entered: {stats:?}");
        assert!(
            stats.block_cycles > stats.stepped_cycles,
            "hot loop mostly batched: {stats:?}"
        );
        assert!(
            stats.decode_hits > stats.decode_misses * 10,
            "loop body re-decodes come from cache: {stats:?}"
        );
        assert_eq!(soc.core(CoreId(0)).reg(Reg::new(2)), 6000);
    }

    #[test]
    fn run_until_halt_matches_across_modes_including_halted_entry() {
        let src = "
            .org 0x80000000
            start:
                li r1, 50
            loop:
                addi r1, r1, -1
                bne r1, r0, loop
                halt
        ";
        let mut results = Vec::new();
        for mode in MODES {
            let mut soc = single_core_soc(src);
            soc.set_exec_mode(mode);
            soc.run_until_halt(100_000);
            let cycle_at_halt = soc.cycle();
            // Re-entering with every core halted still advances exactly
            // one cycle (legacy parity).
            soc.run_until_halt(100_000);
            assert_eq!(soc.cycle(), cycle_at_halt + 1, "{mode:?}");
            results.push((cycle_at_halt, soc.save_state()));
        }
        assert_eq!(results[0], results[1]);
    }

    #[test]
    fn any_halt_stop_lands_on_the_exact_cycle() {
        // Core 1 counts down and halts while core 0 spins on; a lone
        // core halts out of a batched block.
        let two_core = "
            .org 0x80000000
            start:
                mfsr r1, coreid
                bne r1, r0, short
            spin:
                addi r2, r2, 1
                j spin
            short:
                li r3, 40
            count:
                addi r3, r3, -1
                bne r3, r0, count
                halt
        ";
        let one_core = "
            .org 0x80000000
            start:
                li r3, 300
            count:
                addi r3, r3, -1
                bne r3, r0, count
                halt
        ";
        for (src, cores) in [(two_core, 2), (one_core, 1)] {
            let build = || {
                let mut soc = SocBuilder::new().cores(cores).build();
                soc.load_program(&assemble(src).expect("assembles"));
                soc
            };
            let mut reference = build();
            let mut stepped = 0;
            while !reference.cores().any(|c| c.is_halted()) {
                reference.step();
                stepped += 1;
            }
            for mode in MODES {
                let mut soc = build();
                soc.set_exec_mode(mode);
                let ran = soc.run_kernel(100_000, Some(HaltStop::Any), &mut crate::sink::NullSink);
                assert_eq!(ran, stepped, "{cores} core(s), {mode:?}");
                assert_eq!(soc.save_state(), reference.save_state(), "{mode:?}");
            }
        }
    }

    #[test]
    fn survivor_of_an_early_halt_runs_as_blocks() {
        // Core 0 halts at once; core 1 counts down in straight-line code.
        let src = "
            .org 0x80000000
            start:
                mfsr r1, coreid
                beq r1, r0, done
                li r3, 2000
            count:
                addi r3, r3, -1
                bne r3, r0, count
            done:
                halt
        ";
        let build = || {
            let mut soc = SocBuilder::new().cores(2).build();
            soc.load_program(&assemble(src).expect("assembles"));
            soc
        };
        assert_mode_identical(build, 30_000);

        let mut reference = build();
        reference.set_exec_mode(ExecMode::PerCycle);
        let mut soc = build();
        for s in [&mut reference, &mut soc] {
            s.run_kernel(
                1_000,
                Some(HaltStop::Core(CoreId(0))),
                &mut crate::sink::NullSink,
            );
        }
        assert!(!soc.core(CoreId(1)).is_halted());
        assert_eq!(soc.exec_stats().block_cycles, 0, "two runnable cores step");
        let before = *soc.exec_stats();
        for s in [&mut reference, &mut soc] {
            s.run_kernel(
                100_000,
                Some(HaltStop::Core(CoreId(1))),
                &mut crate::sink::NullSink,
            );
        }
        let stats = soc.exec_stats();
        assert!(
            stats.block_cycles > 10 * (stats.stepped_cycles - before.stepped_cycles),
            "the lone survivor batches: {stats:?}"
        );
        assert!(soc.core(CoreId(1)).is_halted());
        assert_eq!(soc.cycle(), reference.cycle(), "stops on the exact cycle");
        assert_eq!(soc.save_state(), reference.save_state());
    }

    /// Satellite regression: a debug-master write into the emulation-RAM
    /// window that backs an active overlay range must invalidate cached
    /// decode — the patched instruction takes effect at the next fetch.
    #[test]
    fn debug_write_over_code_invalidates_decode_cache() {
        use crate::mem::SegmentRole;
        use crate::overlay::OverlayRange;
        let src = "
            .org 0x80001000
            loop:
                addi r2, r2, 1
                j loop
        ";
        let run = |mode: ExecMode| {
            let mut soc = SocBuilder::new()
                .core(CoreConfig {
                    reset_pc: memmap::FLASH_BASE + 0x1000,
                    ..Default::default()
                })
                .with_emulation_ram()
                .build();
            soc.load_program(&assemble(src).expect("assembles"));
            soc.set_exec_mode(mode);
            soc.mapper_mut()
                .emem_mut()
                .unwrap()
                .set_segment_role(0, SegmentRole::Overlay);
            let code = soc.backdoor_read(memmap::FLASH_BASE + 0x1000, 0x400);
            soc.backdoor_write(memmap::EMEM_BASE, &code);
            soc.mapper_mut()
                .configure_range(
                    0,
                    OverlayRange {
                        flash_addr: memmap::FLASH_BASE + 0x1000,
                        size: 0x400,
                        offset_page0: 0,
                        offset_page1: 0x400,
                    },
                )
                .unwrap();
            soc.mapper_mut().set_range_enabled(0, true);
            soc.run_cycles(5_000);
            assert!(!soc.core(CoreId(0)).is_halted(), "spinning via overlay");
            // Patch the increment to +5 through the *direct* emulation-RAM
            // window: an in-band bus write that changes fetched code.
            let patched = crate::asm::assemble(".org 0x80000000\naddi r2, r2, 5")
                .unwrap()
                .chunks[0]
                .1
                .clone();
            let word = u32::from_le_bytes(patched[..4].try_into().unwrap());
            soc.debug_write(memmap::EMEM_BASE, MemWidth::Word, word)
                .unwrap();
            let before = soc.core(CoreId(0)).reg(Reg::new(2));
            soc.run_cycles(5_000);
            let after = soc.core(CoreId(0)).reg(Reg::new(2));
            assert!(
                after > before + 1_000,
                "patched +5 increment took effect ({before} -> {after})"
            );
            soc.save_state()
        };
        let per_cycle = run(ExecMode::PerCycle);
        assert_eq!(run(ExecMode::BlockBatched), per_cycle);
    }

    /// Satellite regression: a backdoor (tooling) write over code
    /// invalidates cached decode even with no bus transaction at all.
    #[test]
    fn backdoor_write_over_code_invalidates_decode_cache() {
        let src = "
            .org 0x80000000
            loop:
                addi r2, r2, 1
                j loop
        ";
        let mut soc = single_core_soc(src);
        soc.set_exec_mode(ExecMode::BlockBatched);
        soc.run_cycles(5_000);
        assert!(!soc.core(CoreId(0)).is_halted());
        // Overwrite the loop body with HALT behind the bus's back.
        let halt_word = crate::asm::assemble(".org 0x80000000\nhalt")
            .unwrap()
            .chunks[0]
            .1
            .clone();
        soc.backdoor_write(memmap::FLASH_BASE, &halt_word);
        soc.backdoor_write(memmap::FLASH_BASE + 4, &halt_word);
        soc.run_cycles(5_000);
        assert!(
            soc.core(CoreId(0)).is_halted(),
            "stale cached decode survived a backdoor code patch"
        );
    }

    /// Satellite regression: an in-band store through an enabled overlay
    /// range lands in emulation RAM *and changes what fetch returns* —
    /// self-modifying code through the calibration window.
    #[test]
    fn store_through_overlay_window_invalidates_decode_cache() {
        use crate::overlay::OverlayRange;
        let src = "
            .org 0x80000000
            start:
                li r1, 400
            loop:
                addi r2, r2, 1
                addi r1, r1, -1
                bne r1, r0, loop
                halt

            .org 0x80001000
            patch_target:
                addi r2, r2, 1
                j patch_target
        ";
        let build = || {
            let mut soc = SocBuilder::new().cores(1).with_emulation_ram().build();
            soc.load_program(&assemble(src).expect("assembles"));
            soc
        };
        let run = |mode: ExecMode| {
            let mut soc = build();
            soc.set_exec_mode(mode);
            // Map 0x80001000..+1K onto emulation RAM offset 0 and copy
            // the original code there.
            soc.mapper_mut()
                .emem_mut()
                .unwrap()
                .set_segment_role(0, crate::mem::SegmentRole::Overlay);
            let code = soc.backdoor_read(memmap::FLASH_BASE + 0x1000, 0x400);
            soc.backdoor_write(memmap::EMEM_BASE, &code);
            soc.mapper_mut()
                .configure_range(
                    0,
                    OverlayRange {
                        flash_addr: memmap::FLASH_BASE + 0x1000,
                        size: 0x400,
                        offset_page0: 0,
                        offset_page1: 0x400,
                    },
                )
                .unwrap();
            soc.mapper_mut().set_range_enabled(0, true);
            // Warm the cache on the first loop, then jump the core to the
            // overlaid region.
            soc.run_cycles(3_000);
            soc.run_until_halt(100_000);
            assert!(soc.core(CoreId(0)).is_halted());
            let core = soc.core_mut(CoreId(0));
            core.set_pc(memmap::FLASH_BASE + 0x1000);
            core.resume();
            soc.run_cycles(2_000);
            assert!(!soc.core(CoreId(0)).is_halted(), "spinning in overlay");
            // Now have the *debug master* store HALT through the overlay
            // window (in-band bus write → redirected to emem).
            let halt_word = crate::asm::assemble(".org 0x80000000\nhalt")
                .unwrap()
                .chunks[0]
                .1
                .clone();
            let word = u32::from_le_bytes(halt_word[..4].try_into().unwrap());
            soc.debug_write(memmap::FLASH_BASE + 0x1000, MemWidth::Word, word)
                .unwrap();
            soc.debug_write(memmap::FLASH_BASE + 0x1004, MemWidth::Word, word)
                .unwrap();
            soc.run_cycles(2_000);
            assert!(
                soc.core(CoreId(0)).is_halted(),
                "store through the overlay window patched running code"
            );
            soc.save_state()
        };
        let per_cycle = run(ExecMode::PerCycle);
        assert_eq!(run(ExecMode::BlockBatched), per_cycle);
    }

    /// Satellite regression: a mid-run calibration page swap switches the
    /// fetched code for an overlaid region — cached decode from the old
    /// page must not survive.
    #[test]
    fn cal_page_swap_invalidates_decode_cache() {
        use crate::overlay::{CalPage, OverlayRange};
        let src = "
            .org 0x80001000
            loop:
                addi r2, r2, 1
                j loop
        ";
        let run = |mode: ExecMode| {
            let mut soc = SocBuilder::new()
                .core(CoreConfig {
                    reset_pc: memmap::FLASH_BASE + 0x1000,
                    ..Default::default()
                })
                .with_emulation_ram()
                .build();
            soc.load_program(&assemble(src).expect("assembles"));
            soc.set_exec_mode(mode);
            soc.mapper_mut()
                .emem_mut()
                .unwrap()
                .set_segment_role(0, crate::mem::SegmentRole::Overlay);
            let code = soc.backdoor_read(memmap::FLASH_BASE + 0x1000, 0x400);
            // Page 0: the spin loop. Page 1: HALT.
            soc.backdoor_write(memmap::EMEM_BASE, &code);
            let halt_word = crate::asm::assemble(".org 0x80000000\nhalt")
                .unwrap()
                .chunks[0]
                .1
                .clone();
            let mut page1 = code;
            page1[..4].copy_from_slice(&halt_word[..4]);
            page1[4..8].copy_from_slice(&halt_word[..4]);
            soc.backdoor_write(memmap::EMEM_BASE + 0x400, &page1);
            soc.mapper_mut()
                .configure_range(
                    0,
                    OverlayRange {
                        flash_addr: memmap::FLASH_BASE + 0x1000,
                        size: 0x400,
                        offset_page0: 0,
                        offset_page1: 0x400,
                    },
                )
                .unwrap();
            soc.mapper_mut().set_range_enabled(0, true);
            soc.run_cycles(5_000);
            assert!(!soc.core(CoreId(0)).is_halted(), "page 0 spins");
            soc.mapper_mut().set_active_page(CalPage::Page1);
            soc.run_cycles(5_000);
            assert!(
                soc.core(CoreId(0)).is_halted(),
                "page swap switched the fetched code"
            );
            soc.save_state()
        };
        let per_cycle = run(ExecMode::PerCycle);
        assert_eq!(run(ExecMode::BlockBatched), per_cycle);
    }

    /// The decode cache is derived state: a snapshot
    /// captured mid-run with a warm cache restores onto a fresh SoC and
    /// continues identically in any mode.
    #[test]
    fn snapshot_round_trip_is_mode_independent() {
        let src = "
            .org 0x80000000
            start:
                li r1, 1000
            loop:
                mul r3, r1, r1
                addi r1, r1, -1
                bne r1, r0, loop
                halt
        ";
        let mut warm = single_core_soc(src);
        warm.set_exec_mode(ExecMode::BlockBatched);
        warm.run_cycles(7_777);
        let snap = warm.save_state();

        let mut finish_warm = warm;
        finish_warm.run_until_halt(200_000);
        let end_state = finish_warm.save_state();

        for mode in MODES {
            let mut cold = single_core_soc(src);
            cold.restore_state(&snap);
            cold.set_exec_mode(mode);
            cold.run_until_halt(200_000);
            assert_eq!(cold.save_state(), end_state, "{mode:?}");
        }
    }

    #[test]
    fn stats_invariant_holds() {
        let mut soc = single_core_soc(
            "
            .equ PERIOD_REG, 0xF0000008
            .org 0x80000000
            start:
                li r1, 300
                li r2, PERIOD_REG
                sw r1, 0(r2)
                li r1, 100
            loop:
                addi r1, r1, -1
                bne r1, r0, loop
                halt
            ",
        );
        let total = 12_345u64;
        soc.run_cycles(total);
        let stats = soc.exec_stats();
        assert_eq!(
            stats.stepped_cycles + stats.skipped_cycles + stats.block_cycles,
            total,
            "{stats:?}"
        );
        // Cycles stepped outside the kernel count too.
        soc.step();
        soc.debug_read(memmap::SRAM_BASE, MemWidth::Word).unwrap();
        assert_eq!(soc.exec_stats().total_cycles(), soc.cycle());
    }
}
