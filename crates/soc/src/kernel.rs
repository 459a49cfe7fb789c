//! The discrete-event execution kernel with batched basic-block execution.
//!
//! Uniform per-cycle stepping pays the full simulation cost for every
//! cycle, including the overwhelmingly common ones in which nothing can
//! happen: all cores halted waiting on a debugger, a timer armed far in
//! the future, a divided core between its clock edges. This module
//! replaces [`crate::soc::Soc::run_cycles`]'s per-cycle loop with a
//! two-tier kernel. One private probe picks the tier for each cycle — skip
//! to cycle N, run every runnable core as one batched block, or step —
//! from one walk over the cores and one read of each shared precondition:
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
//! 2. **Batched blocks.** When every runnable core is undivided and
//!    everything else is quiet, one block advances the cores by bus
//!    grants, each core a lane (a lone core is a one-lane block): each
//!    core's next bus request is granted exactly as the arbiter would,
//!    decode is cached (keyed by pc + a code-generation counter), and
//!    bus/periph accesses are performed for real at the exact cycle the
//!    per-cycle machine would have performed them. While no other lane has
//!    an event before a lane's next instruction retires — always, for a
//!    lone core — that whole instruction runs in one fused closed form.
//!
//! Blocks deliver events, not cycles: each instruction's retire and halt
//! events go to the run's sink at their exact cycle — one
//! [`CycleSink::observe`] per cycle that has any, same-cycle lanes in core
//! order, right after the block — so an observer that only needs those
//! events (the PSI device's observe-only MCDS) rides the batched tier
//! too. Bus-tap records and event-free cycles are not delivered. For a
//! [`CycleSink::discards`] sink ([`crate::sink::NullSink`]) the blocks
//! keep no events at all; for any other, a data access into emulation RAM
//! or the overlay-control window ends the block, since that sink may write
//! trace memory only after the run. [`crate::soc::Soc::run_batched`] runs
//! the two tiers alone and hands every exact step back to its caller,
//! which is how a traced device keeps its own full per-cycle step.
//!
//! Both tiers are exact: the architectural state ([`crate::soc::SocState`]
//! — registers, pipeline phase, bus arbiter including `last_xact`, the
//! round-robin pointer and the wait/contention counters, peripheral
//! state) after a kernel run is bit-identical to the same run stepped
//! per-cycle. Anything the closed forms cannot reproduce — observation
//! sinks that want every cycle, clock-divided cores, interrupt entry,
//! debug requests, DMA activity, non-passive peripheral-register accesses
//! (anything but word reads and `OUT[i]` writes), timer boundaries —
//! falls back to the per-cycle reference step, which remains the single
//! source of truth.
//!
//! The decode cache is **derived state**: it is never serialized, never
//! hashed, and rebuilt on demand, so snapshots and record/replay
//! round-trips are unaffected by it. The cache is
//! invalidated by a code-generation bump on every path that can change
//! what a fetch returns: backdoor writes and flash programming
//! ([`crate::soc::Soc::mapper_mut`] is conservatively invalidating; trace
//! stores through [`crate::soc::Soc::emem_segments_mut`] invalidate only
//! when an overlay maps the flash window onto the written segments),
//! overlay reconfiguration and calibration-page swaps (both backdoor and
//! in-band via the overlay control window), and completed bus writes into
//! any mapper-owned window (self-modifying code, DMA into emulation RAM,
//! debug-master patches).

use crate::bus::{Addr, AddrRange, Bus, BusCompletion, BusRequest, MasterId, XferKind};
use crate::cpu::{extra_cycles, Cpu, Phase};
use crate::event::{CoreId, MemAccessInfo, SocEvent, StopCause};
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
    /// Quiescent-stretch skipping plus batched execution of straight-line
    /// code, the running cores advanced together by bus grants (the
    /// default).
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
    /// Run every runnable core as one batched block, advancing by bus
    /// grants.
    Merge,
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
    /// Cycles advanced by batched blocks.
    pub block_cycles: u64,
    /// Instructions executed (retired, or stopped at) by the block layer.
    pub block_instrs: u64,
    /// Batched blocks entered (each advanced time).
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

    /// Why the core stops at this word's decode (undecodable, `BRK`,
    /// `HALT`), if it does.
    fn stop_cause(&self) -> Option<StopCause> {
        match self.instr {
            None => Some(StopCause::InvalidInstr { word: self.word }),
            Some(Instr::Brk) => Some(StopCause::Breakpoint),
            Some(Instr::Halt) => Some(StopCause::HaltInstr),
            Some(_) => None,
        }
    }
}

/// The word fetch at `pc`.
fn fetch_request(pc: u32) -> BusRequest {
    BusRequest {
        addr: pc,
        width: MemWidth::Word,
        kind: XferKind::Fetch,
        wdata: 0,
    }
}

/// What a merged lane's bus access is for.
#[derive(Debug, Clone, Copy)]
enum Access {
    /// The fetch at the core's pc, with its decode slot once looked up.
    Fetch(Option<DecodeSlot>),
    /// The data access of this instruction.
    Data(Instr),
}

/// One core of a batched block (see `Soc::run_merged`).
#[derive(Debug, Clone, Copy)]
enum Lane {
    /// `req` is queued for a grant from cycle `since` on. A fetch with
    /// `since` one past the block end is not issued yet at the end.
    Queued {
        since: u64,
        req: BusRequest,
        access: Access,
    },
    /// `req` was granted and completes at cycle `done`.
    Granted {
        done: u64,
        req: BusRequest,
        access: Access,
    },
    /// Executing `instr` (no data access); it retires at cycle `until`.
    Exec { until: u64, instr: Instr },
    /// Halted or suspended: not advanced.
    Off,
}

/// The block executor's state over one block.
struct Merge {
    /// One lane per core, indexed like the cores (and their master slots).
    lanes: Vec<Lane>,
    /// The block end: no event at or after this cycle is taken.
    end: u64,
    /// Grant cycle of the latest transfer (or the block start). Fused
    /// transfers, which no lane waits on, leave it and `bus_free` as
    /// they were: every later `since` lies past them.
    busy_from: u64,
    /// First cycle the bus is free after the latest transfer.
    bus_free: u64,
    /// Cycle of the latest completion.
    last_done: Option<u64>,
    /// Instructions retired or stopped at.
    instrs: u64,
    /// The current cycle's retire/halt events.
    events: Vec<SocEvent>,
    /// The run's sink observes the block (see [`Soc::run_batched`]).
    observed: bool,
}

impl Merge {
    /// Books the contended cycles of the latest transfer before `until`:
    /// those at or after the earliest `since` of a lane still queued
    /// (every queued lane waited from its `since` to its grant).
    fn book_contention(&self, bus: &mut Bus<SocTarget>, until: u64) {
        let first_wait = self
            .lanes
            .iter()
            .filter_map(|lane| match lane {
                Lane::Queued { since, .. } => Some(*since),
                _ => None,
            })
            .min()
            .unwrap_or(u64::MAX);
        bus.add_contended(
            until
                .min(self.bus_free)
                .saturating_sub(first_wait.max(self.busy_from)),
        );
    }

    /// Lane `i` stopped at cycle `t`: the block ends after that cycle.
    fn stop(&mut self, i: usize, t: u64) {
        self.lanes[i] = Lane::Off;
        self.end = self.end.min(t + 1);
        self.instrs += 1;
    }
}

/// The core events of the latest batched block, by cycle. The executor
/// is not generic over the sink (so generic, it would be compiled in the
/// caller's crate and lose the inlining of its helpers), so it logs the
/// events and [`crate::soc::Soc::run_batched`] hands them to the sink.
#[derive(Debug, Default)]
struct EventLog {
    /// Every logged event, in order.
    events: Vec<SocEvent>,
    /// Each logged cycle with the end of its events in `events`.
    cycles: Vec<(u64, usize)>,
}

impl EventLog {
    /// Moves `events`, the core events of `cycle`, into the log. Kept out
    /// of line so the executor's untraced hot loops stay as small (and as
    /// inlined) as without a log.
    #[inline(never)]
    fn record(&mut self, cycle: u64, events: &mut Vec<SocEvent>) {
        if !events.is_empty() {
            self.events.append(events);
            self.cycles.push((cycle, self.events.len()));
        }
    }

    /// Delivers the logged cycles to `sink`, one `observe` each, and
    /// empties the log.
    fn deliver<S: CycleSink + ?Sized>(&mut self, sink: &mut S) {
        let mut start = 0;
        for &(cycle, end) in &self.cycles {
            sink.observe(cycle, &self.events[start..end]);
            start = end;
        }
        self.events.clear();
        self.cycles.clear();
    }
}

/// Direct-mapped decode-cache size in slots, as a power of two.
const DECODE_BITS: u32 = 12;
const DECODE_SLOTS: usize = 1 << DECODE_BITS;

/// The decode-cache slot of `pc`: a Fibonacci hash of the word address.
/// Consecutive words still land in distinct slots, but code images 64 KiB
/// apart (one per core in the two-core catalog workloads) no longer map
/// onto the same slots, as they did under the word address's low bits.
fn decode_index(pc: u32) -> usize {
    ((pc >> 2).wrapping_mul(0x9E37_79B9) >> (32 - DECODE_BITS)) as usize
}

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
    /// Reused lane buffer of the block executor (empty between blocks).
    lanes: Vec<Lane>,
    /// The latest block's core events, until delivered (empty between
    /// blocks).
    log: EventLog,
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
            lanes: Vec::new(),
            log: EventLog::default(),
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

    /// True if `addr` lies in a mapper-owned window other than flash: the
    /// emulation RAM (trace memory is read there) or the overlay control
    /// registers (which can map the flash window onto trace memory). Out
    /// of line, like [`EventLog::record`]: only observed runs call it.
    #[inline(never)]
    fn fenced(&self, addr: Addr) -> bool {
        !self.flash_window.contains(addr) && self.watches_writes_to(addr)
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
        // Sinks that want every cycle and `PerCycle` take the exact
        // reference step every cycle. So does a run entered already
        // stopped: the reference loop checks the stop after stepping, so
        // it still steps once.
        let exact = sink.wants_cycles() || self.exec.mode == ExecMode::PerCycle || stopped(self);
        while self.cycle < target {
            if !exact {
                self.run_batched(target, stop, sink);
                if self.cycle >= target || stopped(self) {
                    break;
                }
            }
            // Something is live this cycle (or the block layer could not
            // make progress): step it exactly.
            self.step_into(sink);
            if stopped(self) {
                break;
            }
        }
        self.cycle - start
    }

    /// Advances towards cycle `target` by event skips and batched blocks
    /// only, and returns as soon as the probe picks an exact step (or a
    /// block cannot make progress), `target` is reached, or `stop` holds.
    /// The caller takes the step: [`Soc::run_kernel`] with
    /// [`Soc::step_into`], a traced device with its full per-cycle step.
    ///
    /// A sink that does not [discard](CycleSink::discards) its events
    /// observes the run: batched cycles with core events are delivered to
    /// it after each block, as the [`CycleSink`] contract for
    /// non-observing sinks describes, and every data access into the
    /// emulation-RAM or overlay-control window is left to the caller's
    /// exact step, so no bus master reads memory the observer writes only
    /// at the end of the stretch (the device's trace store). For a
    /// discarding sink the blocks keep no events and fence nothing.
    /// Under [`ExecMode::PerCycle`] this returns at once.
    pub fn run_batched<S: CycleSink + ?Sized>(
        &mut self,
        target: u64,
        stop: Option<HaltStop>,
        sink: &mut S,
    ) {
        if self.exec.mode == ExecMode::PerCycle {
            return;
        }
        let observed = !sink.discards();
        while self.cycle < target {
            match self.probe() {
                Advance::Skip(wake) => {
                    // Nothing can change before `wake` (no core can halt
                    // either): jump straight there.
                    let skip = wake.min(target) - self.cycle;
                    self.bus.skip_quiet_cycles(skip);
                    self.cycle += skip;
                    self.exec.stats.skipped_cycles += skip;
                    continue;
                }
                Advance::Merge if self.run_merged(target, observed) => {}
                _ => return,
            }
            self.exec.log.deliver(sink);
            if stop.is_some_and(|s| s.reached(self)) {
                return;
            }
        }
    }

    /// The kernel's one decision point. Step while anything outside the
    /// cores is live: DMA active or latched, an unsurfaced trigger-in edge,
    /// a core IRQ line out of sync with the interrupt controller (the
    /// per-cycle machine re-drives it), or the timer due. Otherwise skip to
    /// the earliest runnable-core clock edge or timer fire if the bus is
    /// quiet, the wake is in the future and no hashed `last_xact` probe
    /// awaits clearing. Failing that, batch the runnable (not halted, not
    /// suspended) cores as one block if there is at least one, every one
    /// of them is [`crate::cpu::Cpu::lane_ready`], and they own every
    /// queued or in-flight bus request (debug master and DMA idle).
    fn probe(&self) -> Advance {
        let now = self.cycle;
        let periph = self.periph();
        let irq = periph.irq_pending();
        let timer = periph.timer_wake().unwrap_or(u64::MAX);
        let mut wake = timer;
        let mut runnable = false;
        let mut lanes_ready = true;
        for core in &self.cores {
            if core.irq_line() != irq {
                return Advance::Step;
            }
            // `next_wake` is `None` exactly for halted or suspended cores.
            if let Some(w) = core.next_wake(now) {
                wake = wake.min(w);
                runnable = true;
                lanes_ready &= core.lane_ready();
            }
        }
        if self
            .dma
            .as_ref()
            .is_some_and(|d| !d.is_idle() || periph.dma_start_latched())
            || periph.trigger_in() != self.prev_trig_in
            || timer <= now
        {
            return Advance::Step;
        }
        let quiet = self.bus.is_quiet();
        if quiet && wake > now && !self.bus.has_last_xact() {
            return Advance::Skip(wake);
        }
        if runnable
            && lanes_ready
            && self.bus.requesters().all(|m| {
                self.cores
                    .get(m)
                    .is_some_and(|c| c.next_wake(now).is_some())
            })
        {
            Advance::Merge
        } else {
            Advance::Step
        }
    }

    /// True if `core`'s next fetch can run inside a batched block: it
    /// reads the flash window and no interrupt is taken before it.
    fn fetchable(&self, core: &Cpu) -> bool {
        self.exec.flash_window.contains(core.pc()) && !core.irq_taken_next()
    }

    /// True if `req` may be performed inside a batched block: anything but
    /// a non-passive peripheral access (see
    /// [`crate::periph::PeriphBlock::is_passive`]) and, in an `observed`
    /// run, an access into the emulation-RAM or overlay-control window.
    // Inlined into every executor instantiation, like `merge_grant`.
    #[inline(always)]
    fn batchable(&self, req: &BusRequest, observed: bool) -> bool {
        (self.bus.target_at(req.addr) != Some(self.periph_id) || self.periph().is_passive(req))
            && !(observed && self.exec.fenced(req.addr))
    }

    /// The decode-cache slot for the fetch at `pc` (in the flash window),
    /// filled from a side-effect-free peek on a miss. `Err` carries the
    /// fetch's bus cycles when the peek faults (a misaligned pc or a read
    /// fault): the caller performs that fetch for real.
    #[inline]
    fn decode_slot(&mut self, pc: u32, now: u64) -> Result<DecodeSlot, u32> {
        let slot_idx = decode_index(pc);
        if let Some(slot) = self.exec.cache.as_ref().and_then(|cache| {
            let slot = &cache[slot_idx];
            (slot.gen == self.exec.code_gen && slot.pc == pc).then_some(*slot)
        }) {
            self.exec.stats.decode_hits += 1;
            return Ok(slot);
        }
        self.decode_fill(pc, slot_idx, now)
    }

    /// [`Soc::decode_slot`]'s miss path: peek, decode and fill.
    #[cold]
    fn decode_fill(&mut self, pc: u32, slot_idx: usize, now: u64) -> Result<DecodeSlot, u32> {
        let gen = self.exec.code_gen;
        self.exec.stats.decode_misses += 1;
        let fetch_cycles = self.bus.xfer_cycles(&fetch_request(pc));
        // Memory reads are pure, so peeking now sees what the fetch reads.
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
        let word = word.ok_or(fetch_cycles)?;
        let slot = DecodeSlot {
            pc,
            gen,
            word,
            fetch_cycles,
            instr: Instr::decode(word).ok(),
        };
        self.exec
            .cache
            .get_or_insert_with(|| vec![DecodeSlot::EMPTY; DECODE_SLOTS].into_boxed_slice())
            [slot_idx] = slot;
        Ok(slot)
    }

    /// Delivers the completed data access `c` of `instr` to
    /// `cores[core]`: kills cached decode after a write into a code window
    /// (self-modifying code, overlay-control pokes), then retires the
    /// instruction or halts the core on a fault. Returns `true` on a halt.
    #[inline]
    fn finish_data(
        &mut self,
        core: usize,
        instr: Instr,
        c: &BusCompletion,
        events: &mut Vec<SocEvent>,
    ) -> bool {
        if c.fault.is_none()
            && c.request.kind.is_write()
            && self.exec.watches_writes_to(c.request.addr)
        {
            self.exec.invalidate_decode();
        }
        match c.fault {
            Some(fault) => {
                self.cores[core].halt(StopCause::BusFault(fault), events);
                true
            }
            None => {
                let access = MemAccessInfo {
                    addr: c.request.addr,
                    width: c.request.width,
                    is_write: c.request.kind.is_write(),
                    value: match c.request.kind {
                        XferKind::Write => c.request.wdata,
                        _ => c.rdata,
                    },
                };
                self.cores[core].retire(instr, Some(access), events);
                false
            }
        }
    }

    /// Executes every runnable core as one batched block that advances by
    /// bus grants instead of cycles: each core is a [`Lane`], and the loop
    /// always takes the earliest event — a grant, a completion, or a
    /// core's last execute cycle — in `step_events`' same-cycle order (the
    /// bus before the cores). A grant happens at the first cycle the bus
    /// is free and a lane is queued, to the lane `grant_next` would pick,
    /// and every access is performed at its exact completion cycle.
    ///
    /// Each instruction follows the phase machine's timing, stretched by
    /// whatever its fetch and data access waited for the bus: the fetch is
    /// granted at `g` and occupies `w_f` bus cycles, completing (and
    /// decoding, and spending the first execute cycle) at `g + w_f - 1`;
    /// `extra` more execute cycles follow for multi-cycle ALU ops; a data
    /// access is queued the cycle after and, on a free bus, granted then
    /// and completed `w_d` cycles later, which is the retire cycle. The
    /// next fetch issues the cycle after the retire and queues the cycle
    /// after that. So an instruction whose fetch is granted at `g` on a
    /// free bus retires at `g + w_f - 1 + extra + w_d`, and when no other
    /// lane has an event up to that cycle (always, for a lone lane) the
    /// grant runs it whole in that closed form ([`Soc::merge_fused`]).
    ///
    /// Lanes load from any pipeline phase and write back at the block end
    /// `E` as the per-cycle machine would hold them there: phases, queued
    /// and in-flight requests, per-master waits, contention, and
    /// `last_xact` (set only if a transfer completed at `E - 1`). The
    /// block ends at `target`, at the timer's next fire, the cycle after
    /// any halt, the cycle a core would fetch outside the flash window or
    /// take an interrupt, or the cycle after a non-passive peripheral
    /// request is queued — the per-cycle step takes it from there. When
    /// `observed`, each cycle's retire and halt events go to the event
    /// log, lanes in core order, and an access into the emulation-RAM or
    /// overlay-control window ends the block once queued. Returns `true`
    /// if time advanced.
    fn run_merged(&mut self, target: u64, observed: bool) -> bool {
        // Two instantiations: the unobserved one's hot loops carry no
        // logging or fencing code at all.
        if observed {
            self.merge::<true>(target)
        } else {
            self.merge::<false>(target)
        }
    }

    /// [`Soc::run_merged`]'s executor, one per value of `observed`.
    fn merge<const OBSERVED: bool>(&mut self, target: u64) -> bool {
        let start = self.cycle;
        let mut lanes = std::mem::take(&mut self.exec.lanes);
        for i in 0..self.cores.len() {
            match self.load_lane(i, start, OBSERVED) {
                Some(lane) => lanes.push(lane),
                None => {
                    lanes.clear();
                    self.exec.lanes = lanes;
                    return false;
                }
            }
        }
        let mut m = Merge {
            lanes,
            end: target.min(self.periph().timer_wake().unwrap_or(u64::MAX)),
            busy_from: start,
            bus_free: start,
            last_done: None,
            instrs: 0,
            events: std::mem::take(&mut self.scratch),
            observed: OBSERVED,
        };
        // The scratch buffer still holds the last stepped cycle's events.
        m.events.clear();
        // The lanes own the bus from here to the write-back. (A fetch
        // loaded from `FetchIssue` queues at `start + 1`: not on the bus.)
        for (i, lane) in m.lanes.iter().enumerate() {
            match *lane {
                Lane::Queued { since, .. } if since == start => {
                    self.bus.cancel_request(MasterId(i as u8));
                }
                Lane::Granted { done, .. } => {
                    self.bus.take_in_flight();
                    m.bus_free = done + 1;
                }
                _ => {}
            }
        }
        loop {
            let mut next = u64::MAX;
            let mut queued = u64::MAX;
            let mut queued_lanes = 0;
            for lane in &m.lanes {
                match *lane {
                    Lane::Queued { since, .. } => {
                        queued = queued.min(since);
                        queued_lanes += 1;
                    }
                    Lane::Granted { done, .. } => next = next.min(done),
                    Lane::Exec { until, .. } => next = next.min(until),
                    Lane::Off => {}
                }
            }
            let grant_at = queued.max(m.bus_free);
            let t = next.min(grant_at);
            if t >= m.end {
                break;
            }
            if grant_at == t {
                // The lone queued lane fuses while its instructions retire
                // before `next`, every other lane's next event. Beside
                // another queued lane (queued from `t + 2` at the latest)
                // at most a one- or two-cycle instruction could: the event
                // loop takes it.
                let fuse_until = if queued_lanes == 1 {
                    m.end.min(next)
                } else {
                    t
                };
                self.merge_grant::<OBSERVED>(&mut m, t, fuse_until);
            }
            for i in 0..m.lanes.len() {
                match m.lanes[i] {
                    Lane::Granted { done, req, access } if done == t => {
                        self.merge_complete(&mut m, i, t, req, access);
                    }
                    Lane::Exec { until, instr } if until == t => {
                        self.merge_exec_last(&mut m, i, instr, t);
                    }
                    _ => {}
                }
            }
            if OBSERVED {
                self.exec.log.record(t, &mut m.events);
            }
            m.events.clear();
        }
        self.scratch = std::mem::take(&mut m.events);

        // Write back the machine as it stands at the block end.
        let end = m.end;
        m.book_contention(&mut self.bus, end);
        self.bus.skip_quiet_cycles(end - start);
        for (i, lane) in m.lanes.drain(..).enumerate() {
            let master = MasterId(i as u8);
            let waiting = |access| match access {
                Access::Fetch(_) => Phase::FetchWait,
                Access::Data(instr) => Phase::MemWait { instr },
            };
            match lane {
                Lane::Queued { since, req, access } if since <= end => {
                    self.bus.request(master, req);
                    self.bus.add_wait(master, end - since);
                    self.cores[i].set_phase(waiting(access));
                }
                Lane::Granted { done, req, access } => {
                    self.bus.put_in_flight(master, req, (done + 1 - end) as u32);
                    self.cores[i].set_phase(waiting(access));
                }
                Lane::Exec { until, instr } => self.cores[i].set_phase(Phase::Exec {
                    instr,
                    cycles_left: (until + 1 - end) as u32,
                }),
                // Halted, or fetching at `end` itself: `FetchIssue` as the
                // retire left it.
                _ => {}
            }
        }
        if m.last_done != Some(end - 1) {
            self.bus.clear_last_xact();
        }
        self.exec.lanes = m.lanes;
        self.cycle = end;
        self.exec.stats.block_cycles += end - start;
        self.exec.stats.block_instrs += m.instrs;
        self.exec.stats.blocks += 1;
        true
    }

    /// Core `i` as a merged lane at cycle `now`, or `None` if it cannot be
    /// merged here: a fetch outside the flash window or into an interrupt,
    /// or a data request queued or in flight that is not
    /// [`Soc::batchable`] in an `observed` run.
    fn load_lane(&self, i: usize, now: u64, observed: bool) -> Option<Lane> {
        let core = &self.cores[i];
        if core.next_wake(now).is_none() {
            return Some(Lane::Off);
        }
        debug_assert!(core.lane_ready(), "the probe merges ready lanes only");
        let access = match core.phase() {
            Phase::FetchIssue => {
                return self.fetchable(core).then(|| Lane::Queued {
                    since: now + 1,
                    req: fetch_request(core.pc()),
                    access: Access::Fetch(None),
                });
            }
            Phase::Exec { instr, cycles_left } => {
                return Some(Lane::Exec {
                    until: now + u64::from(cycles_left) - 1,
                    instr,
                });
            }
            Phase::FetchWait => Access::Fetch(None),
            Phase::MemWait { instr } => Access::Data(instr),
        };
        let master = MasterId(i as u8);
        let (req, lane) = match (self.bus.queued(master), self.bus.in_flight()) {
            (Some(req), _) => (
                req,
                Lane::Queued {
                    since: now,
                    req,
                    access,
                },
            ),
            (None, Some((owner, req, left))) if owner == master => (
                req,
                Lane::Granted {
                    done: now + u64::from(left) - 1,
                    req,
                    access,
                },
            ),
            _ => return None,
        };
        let mergeable = match access {
            Access::Fetch(_) => self.exec.flash_window.contains(req.addr),
            Access::Data(_) => self.batchable(&req, observed),
        };
        mergeable.then_some(lane)
    }

    /// Grants the bus at cycle `t` to the queued lane arbitration picks,
    /// and runs a granted fetch's instructions fused while they retire
    /// before `fuse_until`.
    // Inlined into both `merge` instantiations: as calls (which is what
    // the inliner made of them) the merged loop ran ~10 % slower.
    #[inline(always)]
    fn merge_grant<const OBSERVED: bool>(&mut self, m: &mut Merge, t: u64, fuse_until: u64) {
        let i = self
            .bus
            .arbitrate(
                |i| matches!(m.lanes.get(i), Some(Lane::Queued { since, .. }) if *since <= t),
            )
            .expect("a lane is queued by the grant cycle");
        let Lane::Queued { since, req, access } = m.lanes[i] else {
            unreachable!("arbitrated a queued lane")
        };
        // The previous transfer is over: book its contention while every
        // lane that waited on it is still queued.
        m.book_contention(&mut self.bus, t);
        let master = MasterId(i as u8);
        self.bus.add_wait(master, t - since);
        let (cycles, access) = match access {
            Access::Fetch(_) => match self.decode_slot(req.addr, t) {
                Ok(slot) => {
                    if t + u64::from(slot.fetch_cycles) <= fuse_until
                        && self.merge_fused::<OBSERVED>(m, i, t, slot, fuse_until)
                    {
                        return;
                    }
                    (slot.fetch_cycles, Access::Fetch(Some(slot)))
                }
                Err(cycles) => (cycles, Access::Fetch(None)),
            },
            Access::Data(_) => (self.bus.xfer_cycles(&req), access),
        };
        self.bus.begin_fast_xfer(master, cycles);
        m.busy_from = t;
        m.bus_free = t + u64::from(cycles);
        m.lanes[i] = Lane::Granted {
            done: m.bus_free - 1,
            req,
            access,
        };
    }

    /// Runs lane `i`'s instructions whole in the closed form of
    /// [`Soc::run_merged`], from the fetch of `slot` granted at cycle `g`
    /// on a free bus: book the fetch, then perform the data access at its
    /// exact completion cycle, then retire, logging each instruction's
    /// events at its retire cycle. Each instruction must retire before
    /// `limit` (the block end, or an earlier event of another lane), so no
    /// other lane reaches the bus or logs an event meanwhile. Stops before
    /// an instruction that does not fit, stops at decode or makes a data
    /// access that is not [`Soc::batchable`], and after a halt or a retire
    /// whose next fetch ends the block; the lane is left queued for its
    /// next fetch, or off. Returns `false`, having done nothing, if the
    /// first instruction does not run: the event loop takes its grant.
    // Out of line: inlined into the event loop, the fused loop measured a
    // few percent slower on one core.
    #[inline(never)]
    fn merge_fused<const OBSERVED: bool>(
        &mut self,
        m: &mut Merge,
        i: usize,
        g: u64,
        slot: DecodeSlot,
        limit: u64,
    ) -> bool {
        let master = MasterId(i as u8);
        let mut events = std::mem::take(&mut m.events);
        // The cycle the next instruction's fetch issues, one before its
        // grant.
        let mut issue = g - 1;
        let mut first = Some(slot);
        let mut executed = 0u64;
        // The latest completion (see `Merge::busy_from` for why the grant
        // side needs no update).
        let mut last_done = 0;
        let mut halted = false;
        loop {
            let pc = self.cores[i].pc();
            let slot = match first.take() {
                Some(slot) => slot,
                None => match self.decode_slot(pc, issue + 1) {
                    Ok(slot) => slot,
                    Err(_) => break,
                },
            };
            if slot.stop_cause().is_some() {
                break;
            }
            let w_f = u64::from(slot.fetch_cycles);
            let instr = slot.instr.expect("stopping words handled above");
            let extra = u64::from(extra_cycles(instr));
            let mem_req = self.cores[i].data_request(instr);
            if mem_req.is_some_and(|req| !self.batchable(&req, OBSERVED)) {
                break;
            }
            let (w_d32, w_d) = match &mem_req {
                Some(req) => {
                    let w = self.bus.xfer_cycles(req);
                    (w, u64::from(w))
                }
                None => (0, 0),
            };
            // The instruction retires at `issue + period - 1`.
            let period = w_f + 1 + extra + w_d;
            if issue + period > limit {
                break;
            }
            // Commit point: book the fetch, then the data access at its
            // exact completion cycle, then retire.
            self.bus.begin_fast_xfer(master, slot.fetch_cycles);
            self.bus.finish_cached_fetch(master, pc, slot.word);
            last_done = issue + w_f;
            match mem_req {
                Some(req) => {
                    self.bus.begin_fast_xfer(master, w_d32);
                    let completion = self.bus.finish_fast_xfer(master, req, issue + period - 1);
                    last_done = issue + period - 1;
                    halted = self.finish_data(i, instr, &completion, &mut events);
                }
                None => self.cores[i].retire(instr, None, &mut events),
            }
            issue += period;
            executed += 1;
            if OBSERVED {
                self.exec.log.record(issue - 1, &mut events);
            }
            events.clear();
            if halted || !self.fetchable(&self.cores[i]) {
                break;
            }
        }
        m.events = events;
        if executed == 0 {
            return false;
        }
        // The last instruction's retire (or halt) leaves the lane as the
        // event loop would.
        m.instrs += executed - 1;
        m.last_done = Some(last_done);
        if halted {
            m.stop(i, issue - 1);
        } else {
            self.merge_retired(m, i, issue - 1);
        }
        true
    }

    /// Completes lane `i`'s transfer at cycle `t` and runs its core's tick
    /// on the completion: decode, or retire the data access.
    // Inlined into both `merge` instantiations, like `merge_grant`.
    #[inline(always)]
    fn merge_complete(&mut self, m: &mut Merge, i: usize, t: u64, req: BusRequest, access: Access) {
        let master = MasterId(i as u8);
        // `last_xact` is clear: the transfer's grant cleared it, and
        // nothing else completed since.
        m.last_done = Some(t);
        match access {
            Access::Fetch(slot) => {
                // Nothing else completes while the fetch holds the bus, so
                // a slot looked up at the grant still holds the word.
                let slot = match slot {
                    Some(slot) => Ok(slot),
                    None => self.decode_slot(req.addr, t),
                };
                let slot = match slot {
                    Ok(slot) => slot,
                    Err(_) => {
                        let completion = self.bus.finish_fast_xfer(master, req, t);
                        let fault = completion.fault.expect("peek faulted, so must the fetch");
                        return self.merge_halt(m, i, StopCause::BusFault(fault), t);
                    }
                };
                self.bus.finish_cached_fetch(master, req.addr, slot.word);
                if let Some(cause) = slot.stop_cause() {
                    return self.merge_halt(m, i, cause, t);
                }
                let instr = slot.instr.expect("halt words handled above");
                match extra_cycles(instr) {
                    0 => self.merge_exec_last(m, i, instr, t),
                    extra => {
                        m.lanes[i] = Lane::Exec {
                            until: t + u64::from(extra),
                            instr,
                        }
                    }
                }
            }
            Access::Data(instr) => {
                let completion = self.bus.finish_fast_xfer(master, req, t);
                if self.finish_data(i, instr, &completion, &mut m.events) {
                    m.stop(i, t);
                } else {
                    self.merge_retired(m, i, t);
                }
            }
        }
    }

    /// Lane `i`'s last execute cycle `t`: issue the data access (one that
    /// is not [`Soc::batchable`] ends the block once queued) or retire.
    fn merge_exec_last(&mut self, m: &mut Merge, i: usize, instr: Instr, t: u64) {
        match self.cores[i].data_request(instr) {
            Some(req) => {
                if !self.batchable(&req, m.observed) {
                    m.end = m.end.min(t + 1);
                }
                m.lanes[i] = Lane::Queued {
                    since: t + 1,
                    req,
                    access: Access::Data(instr),
                };
            }
            None => {
                self.cores[i].retire(instr, None, &mut m.events);
                self.merge_retired(m, i, t);
            }
        }
    }

    /// Lane `i` retired at cycle `t`: its next fetch issues at `t + 1`
    /// (the block ends there if that fetch cannot be batched).
    fn merge_retired(&mut self, m: &mut Merge, i: usize, t: u64) {
        m.instrs += 1;
        let core = &self.cores[i];
        if !self.fetchable(core) {
            m.end = m.end.min(t + 1);
        }
        m.lanes[i] = Lane::Queued {
            since: t + 2,
            req: fetch_request(core.pc()),
            access: Access::Fetch(None),
        };
    }

    /// Halts lane `i`'s core at cycle `t`; the block ends after the cycle.
    fn merge_halt(&mut self, m: &mut Merge, i: usize, cause: StopCause, t: u64) {
        self.cores[i].halt(cause, &mut m.events);
        m.stop(i, t);
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

    /// Runs `build()`'s SoC for `total` cycles in both execution modes,
    /// side by side in the same uneven quanta (so blocks are cut at
    /// awkward boundaries), and asserts bit-identical architectural state
    /// at every quantum boundary. Returns the final state.
    fn assert_mode_identical(build: impl Fn() -> Soc, total: u64) -> SocState {
        let mut reference = build();
        reference.set_exec_mode(ExecMode::PerCycle);
        let mut soc = build();
        soc.set_exec_mode(ExecMode::BlockBatched);
        let mut left = total;
        let mut quantum = 1u64;
        while left > 0 {
            let n = quantum.min(left);
            reference.run_cycles(n);
            soc.run_cycles(n);
            left -= n;
            quantum = (quantum * 3 + 1) % 97 + 1;
            assert_eq!(
                soc.save_state(),
                reference.save_state(),
                "BlockBatched diverged from PerCycle by cycle {}",
                soc.cycle()
            );
        }
        for s in [&reference, &soc] {
            assert_eq!(s.exec_stats().total_cycles(), total);
        }
        soc.save_state()
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
    fn lone_core_resumes_mid_instruction_in_a_block() {
        let src = "
            .org 0x80000000
            start:
                li r1, 400
                li r2, 7
            loop:
                div r3, r1, r2
                addi r1, r1, -1
                bne r1, r0, loop
                halt
        ";
        // Stepped cycle by cycle into the first `div`'s multi-cycle execute.
        let build = || {
            let mut soc = single_core_soc(src);
            while !matches!(
                soc.core(CoreId(0)).phase(),
                Phase::Exec { cycles_left, .. } if cycles_left > 1
            ) {
                soc.step();
            }
            soc.reset_exec_stats();
            soc
        };
        let mut soc = build();
        soc.run_cycles(1_000);
        let stats = soc.exec_stats();
        assert!(
            stats.blocks > 0 && stats.stepped_cycles == 0,
            "the next run advances by a block, not by steps: {stats:?}"
        );
        assert_mode_identical(build, 20_000);
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
        assert!(
            soc.exec_stats().block_cycles > 0,
            "the two-core phase batches: {:?}",
            soc.exec_stats()
        );
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

    /// Two or more undivided cores contending for the bus: same-cycle
    /// reset fetches, `swap` on one shared SRAM word, `mul`/`div` extra cycles,
    /// `OUT` stores and `IN` loads, and a timer IRQ on core 0 whose ACK
    /// write ends the merged block. Core 1 (and 2) halt long before core 0.
    fn contending_soc(cores: usize, round_robin: bool, sram_wait_states: u32) -> Soc {
        let src = format!(
            "
            .equ LOCK,   0xD0000100
            .equ OUT0,   0xF0000100
            .equ IN0,    0xF0000200
            .equ PERIOD, 0xF0000008
            .equ ACK,    0xF000000C
            .org 0x80000000
            start:
                mfsr r1, coreid
                li   r2, LOCK
                slli r11, r1, 2
                li   r10, OUT0
                add  r10, r10, r11
                li   r12, IN0
                add  r12, r12, r11
                li   r3, 120
                bne  r1, r0, loop
                li   r3, 900
                li   r4, PERIOD
                li   r5, 997
                sw   r5, 0(r4)
                li   r5, 1
                mtsr irqen, r5
            loop:
                li   r6, 1
                swap r6, r2, r6
                mul  r7, r3, r3
                div  r15, r7, r3
                sw   r7, 0(r10)
                lw   r8, 0(r12)
                add  r9, r9, r8
                add  r9, r9, r6
                sw   r0, 0(r2)
                addi r3, r3, -1
                bne  r3, r0, loop
                halt

            .org {vector:#x}
            isr:
                li   r13, ACK
                sw   r0, 0(r13)
                addi r14, r14, 1
                eret
            ",
            vector = DEFAULT_IRQ_VECTOR,
        );
        let mut builder = SocBuilder::new()
            .cores(cores)
            .sram_wait_states(sram_wait_states);
        if round_robin {
            builder = builder.round_robin_bus();
        }
        let mut soc = builder.build();
        soc.load_program(&assemble(&src).expect("assembles"));
        for port in 0..cores {
            soc.periph_mut().set_input(port, 7 + port as u32);
        }
        soc
    }

    #[test]
    fn contending_cores_merge_mode_identically() {
        for round_robin in [false, true] {
            for ws in [0, 2] {
                let arm = format!("round_robin {round_robin}, sram wait states {ws}");
                let build = || contending_soc(2, round_robin, ws);
                let state = assert_mode_identical(build, 60_000);
                drop(state);

                // Up to the first halt (core 1's), under `HaltStop::Any`:
                // the same cycle and state as stepping, mostly merged.
                let mut reference = build();
                let mut stepped = 0;
                while !reference.cores().any(|c| c.is_halted()) {
                    reference.step();
                    stepped += 1;
                }
                let mut soc = build();
                let ran =
                    soc.run_kernel(1_000_000, Some(HaltStop::Any), &mut crate::sink::NullSink);
                assert_eq!(ran, stepped, "{arm}");
                assert_eq!(soc.save_state(), reference.save_state(), "{arm}");
                assert!(soc.core(CoreId(1)).is_halted(), "{arm}");
                let stats = soc.exec_stats();
                assert!(
                    stats.block_cycles > ran / 2,
                    "{arm}: two contending cores batch: {stats:?}"
                );
                // The run exercised what it claims to: interrupts taken and
                // acknowledged, ports written, the lock word contended.
                soc.run_cycles(40_000);
                assert!(soc.core(CoreId(0)).reg(Reg::new(14)) > 5, "{arm}");
                assert!(soc.periph().output_history(1).len() >= 100, "{arm}");
                let counters = soc.bus_counters();
                assert!(counters.contended_cycles > 0, "{arm}");
                assert!(counters.per_master[1].wait_cycles > 0, "{arm}");
            }
            // Three lanes: two can wait at once, so contended cycles are
            // the union of the waits, not their sum.
            assert_mode_identical(|| contending_soc(3, round_robin, 2), 60_000);
        }
    }

    /// A non-observing sink that keeps each delivered cycle's core events
    /// (everything but the bus tap's records).
    #[derive(Default)]
    struct CoreEvents(Vec<(u64, Vec<SocEvent>)>);

    impl CycleSink for CoreEvents {
        fn observe(&mut self, cycle: u64, events: &[SocEvent]) {
            let core: Vec<SocEvent> = events
                .iter()
                .filter(|e| !matches!(e, SocEvent::Bus(_)))
                .copied()
                .collect();
            if !core.is_empty() {
                self.0.push((cycle, core));
            }
        }

        fn wants_cycles(&self) -> bool {
            false
        }
    }

    #[test]
    fn batched_runs_deliver_every_core_event_at_its_cycle() {
        let straight = || {
            single_core_soc(
                "
                .org 0x80000000
                start:
                    li r1, 300
                    li r2, 0xD0000000
                loop:
                    mul r3, r1, r1
                    sw  r3, 0(r2)
                    lw  r4, 0(r2)
                    bne r1, r0, skip
                    brk
                skip:
                    addi r1, r1, -1
                    bne r1, r0, loop
                    halt
                ",
            )
        };
        let builds: [(&str, &dyn Fn() -> Soc); 3] = [
            ("one core", &straight),
            ("two cores", &|| contending_soc(2, false, 0)),
            ("three cores", &|| contending_soc(3, true, 2)),
        ];
        for (name, build) in builds {
            let mut reference = build();
            reference.set_exec_mode(ExecMode::PerCycle);
            let mut want = CoreEvents::default();
            reference.run_cycles_into(40_000, &mut want);
            let mut soc = build();
            let mut got = CoreEvents::default();
            soc.run_cycles_into(40_000, &mut got);
            assert!(soc.exec_stats().block_cycles > 0, "{name}: batches");
            assert_eq!(got.0, want.0, "{name}: core events");
            assert_eq!(soc.save_state(), reference.save_state(), "{name}");
        }
    }

    #[test]
    fn merged_fault_halts_are_mode_identical() {
        // Core 1 faults on a store into flash, then core 0 on a load from
        // an unmapped address; the other core keeps running meanwhile.
        let src = "
            .org 0x80000000
            start:
                mfsr r1, coreid
                li   r2, 0xD0000000
                li   r3, 60
                bne  r1, r0, loop
                li   r3, 200
            loop:
                lw   r4, 0(r2)
                addi r4, r4, 1
                sw   r4, 0(r2)
                addi r3, r3, -1
                bne  r3, r0, loop
                bne  r1, r0, bad_store
                li   r5, 0x10000000
                lw   r6, 0(r5)
                halt
            bad_store:
                li   r5, 0x80000000
                sw   r4, 0(r5)
                halt
        ";
        for round_robin in [false, true] {
            let build = || {
                let mut builder = SocBuilder::new().cores(2);
                if round_robin {
                    builder = builder.round_robin_bus();
                }
                let mut soc = builder.build();
                soc.load_program(&assemble(src).expect("assembles"));
                soc
            };
            assert_mode_identical(build, 20_000);
            let mut soc = build();
            soc.run_cycles(20_000);
            for core in soc.cores() {
                assert!(
                    matches!(
                        core.state(),
                        crate::cpu::RunState::Halted(StopCause::BusFault(_))
                    ),
                    "{:?}",
                    core.state()
                );
            }
            assert!(soc.exec_stats().block_cycles > 1_000);
        }
    }

    /// True while `soc` sits mid-transaction: a core inside a multi-cycle
    /// execute while a bus request is queued or in flight (a lone core,
    /// which no other core's request can accompany, inside the execute
    /// alone).
    fn mid_transaction(soc: &Soc) -> bool {
        soc.cores
            .iter()
            .any(|c| matches!(c.phase(), Phase::Exec { cycles_left, .. } if cycles_left > 1))
            && (soc.cores.len() == 1 || soc.bus.requesters().next().is_some())
    }

    /// Architectural state plus the SRAM image, which the contending
    /// program writes (the lock word).
    fn state_and_sram(soc: &Soc) -> (SocState, Vec<u8>) {
        let sram = soc.sram().bytes().to_vec();
        (soc.save_state(), sram)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(12))]

        /// Randomized contention under either arbiter: one to three
        /// undivided cores at 0–2 SRAM wait states, run side by side in
        /// both modes in random uneven quanta, then saved and restored
        /// across modes at cycle `split` and at the first mid-transaction
        /// cycle from `split` on.
        #[test]
        fn random_contention_is_mode_identical(
            cores in 1usize..=3,
            round_robin in proptest::arbitrary::any::<bool>(),
            ws in 0u32..3,
            quanta in proptest::collection::vec(1u64..900, 1..12),
            split in 1u64..3000,
            tail in 1u64..4000,
        ) {
            let build = || contending_soc(cores, round_robin, ws);
            let mut reference = build();
            reference.set_exec_mode(ExecMode::PerCycle);
            let mut soc = build();
            soc.set_exec_mode(ExecMode::BlockBatched);
            for &q in &quanta {
                reference.run_cycles(q);
                soc.run_cycles(q);
                proptest::prop_assert_eq!(state_and_sram(&soc), state_and_sram(&reference));
            }

            let mut reference = build();
            reference.set_exec_mode(ExecMode::PerCycle);
            reference.run_cycles(split);
            let mut mid_at = split;
            while !mid_transaction(&reference) && mid_at < split + 400 {
                reference.run_cycles(1);
                mid_at += 1;
            }
            proptest::prop_assert!(mid_transaction(&reference), "no capture from {}", split);
            let end = mid_at + tail;
            reference.run_cycles(tail);
            let want = state_and_sram(&reference);
            for at in [split, mid_at] {
                for (first, second) in [MODES, [MODES[1], MODES[0]]].map(|m| (m[0], m[1])) {
                    let mut warm = build();
                    warm.set_exec_mode(first);
                    warm.run_cycles(at);
                    if at == mid_at {
                        proptest::prop_assert!(mid_transaction(&warm));
                    }
                    let (state, sram) = state_and_sram(&warm);
                    let mut cold = build();
                    cold.restore_state(&state);
                    cold.sram_mut().write_bytes(0, &sram);
                    cold.set_exec_mode(second);
                    cold.run_cycles(end - at);
                    proptest::prop_assert_eq!(&state_and_sram(&cold), &want);
                }
            }
        }
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
