//! The SoC model: cores, bus, memories and peripherals, stepped per cycle.
//!
//! [`Soc::step`] advances everything by one system clock cycle and returns
//! the [`CycleRecord`] of observable events — the stream the MCDS block
//! consumes. The debug master (the PSI service processor or host probe)
//! shares the bus with the cores through [`Soc::debug_request`], so debug
//! traffic competes for bandwidth exactly as on silicon.

use crate::asm::Program;
use crate::bus::{
    Addr, AddrRange, Bus, BusCompletion, BusFault, BusRequest, BusState, BusTarget, MasterId,
    TargetId, XferKind,
};
use crate::cpu::{CoreConfig, Cpu, CpuState};
use crate::event::{CoreId, CycleRecord, SocEvent};
use crate::isa::MemWidth;
use crate::kernel::HaltStop;
use crate::mem::{EmulationRam, Flash, PagedBytes, SegmentRole, Sram, FLASH_ERASED};
use crate::overlay::{OverlayMapper, OverlayState};
use crate::periph::{PeriphBlock, PeriphState};
use crate::sink::{Collect, CycleSink, NullSink};

/// Memory-map constants of the modelled TC1796-class device.
pub mod memmap {
    /// Program flash base (2 MB on the TC1796).
    pub const FLASH_BASE: u32 = 0x8000_0000;
    /// Program flash size.
    pub const FLASH_SIZE: u32 = 2 * 1024 * 1024;
    /// Default flash read wait states at full clock.
    pub const FLASH_WAIT_STATES: u32 = 3;
    /// On-chip SRAM base.
    pub const SRAM_BASE: u32 = 0xD000_0000;
    /// On-chip SRAM size.
    pub const SRAM_SIZE: u32 = 256 * 1024;
    /// Emulation RAM base (PSI development devices only).
    pub const EMEM_BASE: u32 = 0xE000_0000;
    /// Emulation RAM size (512 KB, Section 6).
    pub const EMEM_SIZE: u32 = 512 * 1024;
    /// Number of 64 KB emulation-RAM segments.
    pub const EMEM_SEGMENTS: usize = 8;
    /// Peripheral block base.
    pub const PERIPH_BASE: u32 = 0xF000_0000;
    /// Peripheral block size.
    pub const PERIPH_SIZE: u32 = 0x1000;
    /// Overlay (address-mapping block) control register base.
    pub const OVERLAY_CTRL_BASE: u32 = 0xF001_0000;
    /// System clock of the modelled device (150 MHz).
    pub const CLOCK_HZ: u64 = 150_000_000;

    /// Converts SoC cycles to nanoseconds at [`CLOCK_HZ`].
    pub fn cycles_to_ns(cycles: u64) -> u64 {
        cycles * 1_000_000_000 / CLOCK_HZ
    }

    /// Converts nanoseconds to SoC cycles at [`CLOCK_HZ`] (rounding up).
    pub fn ns_to_cycles(ns: u64) -> u64 {
        ns.saturating_mul(CLOCK_HZ).div_ceil(1_000_000_000)
    }
}

/// Error raised by the fallible backdoor-access methods
/// ([`Soc::try_backdoor_read`], [`Soc::try_backdoor_write`],
/// [`Soc::try_load_program`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackdoorError {
    /// The range is not fully backed by flash, SRAM or emulation RAM
    /// (it starts outside every region, or runs past a region's end).
    #[allow(missing_docs)]
    OutsideMemory { addr: Addr, len: usize },
    /// The range targets emulation RAM on a device variant without one.
    #[allow(missing_docs)]
    NoEmulationRam { addr: Addr },
}

impl std::fmt::Display for BackdoorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            BackdoorError::OutsideMemory { addr, len } => {
                write!(f, "backdoor access outside memory at {addr:#010x}+{len:#x}")
            }
            BackdoorError::NoEmulationRam { addr } => write!(
                f,
                "backdoor access to emulation RAM at {addr:#010x} on a device without one"
            ),
        }
    }
}

impl std::error::Error for BackdoorError {}

/// Which backdoor-reachable memory a range falls into.
#[derive(Clone, Copy)]
enum BackdoorRegion {
    Flash,
    Sram,
    Emem,
}

impl BackdoorRegion {
    fn base(self) -> Addr {
        match self {
            BackdoorRegion::Flash => memmap::FLASH_BASE,
            BackdoorRegion::Sram => memmap::SRAM_BASE,
            BackdoorRegion::Emem => memmap::EMEM_BASE,
        }
    }
}

/// Classifies `addr..addr+len`, requiring it to sit entirely inside one
/// backdoor-reachable region.
fn backdoor_region(addr: Addr, len: usize) -> Result<BackdoorRegion, BackdoorError> {
    const REGIONS: [(BackdoorRegion, Addr, u32); 3] = [
        (
            BackdoorRegion::Flash,
            memmap::FLASH_BASE,
            memmap::FLASH_SIZE,
        ),
        (BackdoorRegion::Sram, memmap::SRAM_BASE, memmap::SRAM_SIZE),
        (BackdoorRegion::Emem, memmap::EMEM_BASE, memmap::EMEM_SIZE),
    ];
    for (region, base, size) in REGIONS {
        if (base..base + size).contains(&addr) {
            let within = (addr - base) as u64 + len as u64 <= size as u64;
            return if within {
                Ok(region)
            } else {
                Err(BackdoorError::OutsideMemory { addr, len })
            };
        }
    }
    Err(BackdoorError::OutsideMemory { addr, len })
}

/// The concrete bus-target set of the SoC (typed, so backdoor access needs
/// no downcasting).
#[allow(clippy::large_enum_variant)] // the mapper variant carries the 16-range table
pub enum SocTarget {
    /// The address-mapping block fronting flash, emulation RAM and its
    /// control registers.
    Mapper(OverlayMapper),
    /// On-chip SRAM.
    Sram(Sram),
    /// The peripheral block.
    Periph(PeriphBlock),
    /// An extension target added by the integrator.
    Ext(Box<dyn BusTarget + Send>),
}

impl std::fmt::Debug for SocTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SocTarget::Mapper(m) => m.fmt(f),
            SocTarget::Sram(s) => s.fmt(f),
            SocTarget::Periph(p) => p.fmt(f),
            SocTarget::Ext(_) => f.write_str("Ext(..)"),
        }
    }
}

impl BusTarget for SocTarget {
    fn access_cycles(&self, addr: Addr, kind: XferKind) -> u32 {
        match self {
            SocTarget::Mapper(t) => t.access_cycles(addr, kind),
            SocTarget::Sram(t) => t.access_cycles(addr, kind),
            SocTarget::Periph(t) => t.access_cycles(addr, kind),
            SocTarget::Ext(t) => t.access_cycles(addr, kind),
        }
    }

    fn read(&mut self, addr: Addr, width: MemWidth, now: u64) -> Result<u32, BusFault> {
        match self {
            SocTarget::Mapper(t) => t.read(addr, width, now),
            SocTarget::Sram(t) => t.read(addr, width, now),
            SocTarget::Periph(t) => t.read(addr, width, now),
            SocTarget::Ext(t) => t.read(addr, width, now),
        }
    }

    fn write(&mut self, addr: Addr, width: MemWidth, value: u32, now: u64) -> Result<(), BusFault> {
        match self {
            SocTarget::Mapper(t) => t.write(addr, width, value, now),
            SocTarget::Sram(t) => t.write(addr, width, value, now),
            SocTarget::Periph(t) => t.write(addr, width, value, now),
            SocTarget::Ext(t) => t.write(addr, width, value, now),
        }
    }
}

#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, Copy, PartialEq, Eq)]
enum DmaState {
    Idle,
    IssueRead,
    AwaitRead,
    AwaitWrite { data: u32 },
}

/// Serializable runtime state of the DMA engine (see [`SocState`]).
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaEngineState {
    state: DmaState,
    src: u32,
    dst: u32,
    remaining: u32,
    completion: Option<BusCompletion>,
}

/// The DMA engine: a word-at-a-time memcpy bus master, commanded through
/// the peripheral block's `DMA_*` registers. Its transactions appear on the
/// multi-master bus exactly like a core's — and therefore in the MCDS
/// system-centric bus trace.
#[derive(Debug)]
pub(crate) struct DmaEngine {
    master: MasterId,
    state: DmaState,
    src: u32,
    dst: u32,
    remaining: u32,
    completion: Option<BusCompletion>,
}

impl DmaEngine {
    fn new(master: MasterId) -> DmaEngine {
        DmaEngine {
            master,
            state: DmaState::Idle,
            src: 0,
            dst: 0,
            remaining: 0,
            completion: None,
        }
    }

    fn start(&mut self, src: u32, dst: u32, len: u32) {
        self.src = src;
        self.dst = dst;
        // Word-granular: round up to whole words.
        self.remaining = len.div_ceil(4) * 4;
        self.state = DmaState::IssueRead;
    }

    fn deliver(&mut self, c: BusCompletion) {
        self.completion = Some(c);
    }

    /// True while the engine would do nothing when ticked (no transfer in
    /// any phase). A stale undelivered completion with an `Idle` state is
    /// also inert: `tick` never consumes it from `Idle`.
    pub(crate) fn is_idle(&self) -> bool {
        matches!(self.state, DmaState::Idle)
    }

    /// Advances the engine one cycle; returns `Some(error)` when the
    /// transfer completes.
    fn tick(&mut self, bus: &mut Bus<SocTarget>) -> Option<bool> {
        match self.state {
            DmaState::Idle => None,
            DmaState::IssueRead => {
                if self.remaining == 0 {
                    self.state = DmaState::Idle;
                    return Some(false);
                }
                bus.request(
                    self.master,
                    BusRequest {
                        addr: self.src,
                        width: MemWidth::Word,
                        kind: XferKind::Read,
                        wdata: 0,
                    },
                );
                self.state = DmaState::AwaitRead;
                None
            }
            DmaState::AwaitRead => {
                let c = self.completion.take()?;
                if c.fault.is_some() {
                    self.state = DmaState::Idle;
                    return Some(true);
                }
                bus.request(
                    self.master,
                    BusRequest {
                        addr: self.dst,
                        width: MemWidth::Word,
                        kind: XferKind::Write,
                        wdata: c.rdata,
                    },
                );
                self.state = DmaState::AwaitWrite { data: c.rdata };
                None
            }
            DmaState::AwaitWrite { .. } => {
                let c = self.completion.take()?;
                if c.fault.is_some() {
                    self.state = DmaState::Idle;
                    return Some(true);
                }
                self.src += 4;
                self.dst += 4;
                self.remaining -= 4;
                self.state = DmaState::IssueRead;
                None
            }
        }
    }
}

/// Builder for a [`Soc`].
///
/// ```
/// use mcds_soc::soc::SocBuilder;
///
/// let soc = SocBuilder::new()
///     .cores(2)
///     .with_emulation_ram()
///     .build();
/// assert_eq!(soc.core_count(), 2);
/// ```
#[derive(Default)]
pub struct SocBuilder {
    cores: Vec<CoreConfig>,
    flash_wait_states: Option<u32>,
    sram_wait_states: u32,
    emem_segments: usize,
    dma: bool,
    out_history_cap: Option<usize>,
    round_robin: bool,
    extra: Vec<(AddrRange, Box<dyn BusTarget + Send>)>,
}

impl SocBuilder {
    /// Starts a builder with no cores and production-device memories.
    pub fn new() -> SocBuilder {
        SocBuilder::default()
    }

    /// Adds `n` full-speed cores with the default reset PC (flash base).
    pub fn cores(mut self, n: usize) -> SocBuilder {
        for _ in 0..n {
            self.cores.push(CoreConfig::default());
        }
        self
    }

    /// Adds one core with an explicit configuration.
    pub fn core(mut self, config: CoreConfig) -> SocBuilder {
        self.cores.push(config);
        self
    }

    /// Overrides the flash read wait states (default
    /// [`memmap::FLASH_WAIT_STATES`]).
    pub fn flash_wait_states(mut self, ws: u32) -> SocBuilder {
        self.flash_wait_states = Some(ws);
        self
    }

    /// Adds SRAM wait states (default 0).
    pub fn sram_wait_states(mut self, ws: u32) -> SocBuilder {
        self.sram_wait_states = ws;
        self
    }

    /// Fits the 512 KB PSI emulation RAM (development devices).
    pub fn with_emulation_ram(mut self) -> SocBuilder {
        self.emem_segments = memmap::EMEM_SEGMENTS;
        self
    }

    /// Fits a smaller emulation RAM of `segments` × 64 KB (the selective
    /// single-mask integration of Section 8 carries only a small region).
    ///
    /// # Panics
    ///
    /// Panics at build time if `segments` exceeds
    /// [`memmap::EMEM_SEGMENTS`].
    pub fn with_emulation_ram_segments(mut self, segments: usize) -> SocBuilder {
        self.emem_segments = segments;
        self
    }

    /// Fits the DMA controller (an extra bus master commanded via the
    /// peripheral `DMA_*` registers).
    pub fn with_dma(mut self) -> SocBuilder {
        self.dma = true;
        self
    }

    /// Caps the output-port history length (default 65536).
    pub fn output_history_cap(mut self, cap: usize) -> SocBuilder {
        self.out_history_cap = Some(cap);
        self
    }

    /// Uses round-robin bus arbitration instead of fixed priority.
    pub fn round_robin_bus(mut self) -> SocBuilder {
        self.round_robin = true;
        self
    }

    /// Maps an extension bus target.
    pub fn extension(mut self, range: AddrRange, target: Box<dyn BusTarget + Send>) -> SocBuilder {
        self.extra.push((range, target));
        self
    }

    /// Builds the SoC.
    ///
    /// # Panics
    ///
    /// Panics if no cores were configured or extension ranges overlap the
    /// standard memory map.
    pub fn build(self) -> Soc {
        assert!(!self.cores.is_empty(), "SoC needs at least one core");
        let masters = self.cores.len() + 1 + usize::from(self.dma);
        let mut bus: Bus<SocTarget> = Bus::new(masters);
        bus.set_round_robin(self.round_robin);

        let flash = Flash::new(
            memmap::FLASH_SIZE,
            self.flash_wait_states.unwrap_or(memmap::FLASH_WAIT_STATES),
        );
        assert!(
            self.emem_segments <= memmap::EMEM_SEGMENTS,
            "at most {} emulation-RAM segments",
            memmap::EMEM_SEGMENTS
        );
        let emem = (self.emem_segments > 0).then(|| EmulationRam::new(self.emem_segments));
        let emem_size = emem.as_ref().map(|e| e.size());
        let mapper = OverlayMapper::new(
            flash,
            memmap::FLASH_BASE,
            emem,
            memmap::EMEM_BASE,
            memmap::OVERLAY_CTRL_BASE,
        );
        let ctrl_window = mapper.ctrl_window();
        let mapper_id = bus.add_target(SocTarget::Mapper(mapper));
        bus.map_range(
            AddrRange::new(memmap::FLASH_BASE, memmap::FLASH_SIZE),
            mapper_id,
        );
        if let Some(size) = emem_size {
            bus.map_range(AddrRange::new(memmap::EMEM_BASE, size), mapper_id);
        }
        bus.map_range(ctrl_window, mapper_id);

        let sram = Sram::new(memmap::SRAM_SIZE, self.sram_wait_states).with_base(memmap::SRAM_BASE);
        let sram_id = bus.add_target(SocTarget::Sram(sram));
        bus.map_range(
            AddrRange::new(memmap::SRAM_BASE, memmap::SRAM_SIZE),
            sram_id,
        );

        let periph = PeriphBlock::new(memmap::PERIPH_BASE, self.out_history_cap.unwrap_or(65536));
        let periph_id = bus.add_target(SocTarget::Periph(periph));
        bus.map_range(
            AddrRange::new(memmap::PERIPH_BASE, memmap::PERIPH_SIZE),
            periph_id,
        );

        for (range, t) in self.extra {
            let id = bus.add_target(SocTarget::Ext(t));
            bus.map_range(range, id);
        }

        let cores: Vec<Cpu> = self
            .cores
            .into_iter()
            .enumerate()
            .map(|(i, c)| Cpu::new(CoreId(i as u8), MasterId(i as u8), c))
            .collect();
        let debug_master = MasterId(cores.len() as u8);
        let dma = self
            .dma
            .then(|| DmaEngine::new(MasterId(cores.len() as u8 + 1)));

        // The address windows the overlay mapper serves: a completed bus
        // write into any of them (code patch, cal-page data, overlay
        // control) can change what a fetch returns, so the kernel's decode
        // cache watches them for invalidation.
        let flash_window = AddrRange::new(memmap::FLASH_BASE, memmap::FLASH_SIZE);
        let mut code_windows = vec![flash_window, ctrl_window];
        if let Some(size) = emem_size {
            code_windows.push(AddrRange::new(memmap::EMEM_BASE, size));
        }

        Soc {
            cycle: 0,
            bus,
            cores,
            mapper_id,
            sram_id,
            periph_id,
            debug_master,
            debug_completion: None,
            prev_trig_in: 0,
            dma,
            scratch: Vec::with_capacity(16),
            exec: crate::kernel::ExecState::new(flash_window, code_windows),
        }
    }
}

/// Serializable runtime state of a [`Soc`], *excluding* memory contents.
///
/// Covers the cycle counter, every core's register/pipeline state, the bus
/// arbiter (including in-flight transactions), the peripheral block, the
/// overlay mapper's mapping state, the DMA engine and the debug-master
/// completion latch. Memory images (flash, SRAM, emulation RAM) are large
/// and are captured separately via [`Soc::memory`] /
/// [`Soc::restore_memory_pages`], so snapshot layers can hash and store
/// them page by page without serializing them.
///
/// Build-time configuration (core count/configs, memory sizes, bus map,
/// extension targets) is *not* included: [`Soc::restore_state`] requires an
/// identically built SoC. Extension targets ([`SocTarget::Ext`]) carry
/// opaque state and are not snapshotted.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, PartialEq)]
pub struct SocState {
    cycle: u64,
    bus: BusState,
    cores: Vec<CpuState>,
    periph: PeriphState,
    overlay: OverlayState,
    emem_roles: Vec<SegmentRole>,
    emem_powered: bool,
    dma: Option<DmaEngineState>,
    debug_completion: Option<BusCompletion>,
    prev_trig_in: u32,
}

/// Which memory a raw byte image belongs to (see [`Soc::memory`]).
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryId {
    /// Program flash.
    Flash,
    /// On-chip SRAM.
    Sram,
    /// Emulation RAM (development devices only).
    Emem,
}

impl MemoryId {
    /// The value every byte of the memory holds after reset: erased
    /// flash reads [`FLASH_ERASED`], the RAMs zero.
    pub fn reset_value(self) -> u8 {
        match self {
            MemoryId::Flash => FLASH_ERASED,
            MemoryId::Sram | MemoryId::Emem => 0,
        }
    }
}

/// The simulated SoC.
///
/// Fields are `pub(crate)` so the execution kernel (`crate::kernel`) can
/// split-borrow them; everything outside the crate goes through accessors.
pub struct Soc {
    pub(crate) cycle: u64,
    pub(crate) bus: Bus<SocTarget>,
    pub(crate) cores: Vec<Cpu>,
    pub(crate) mapper_id: TargetId,
    pub(crate) sram_id: TargetId,
    pub(crate) periph_id: TargetId,
    pub(crate) debug_master: MasterId,
    pub(crate) debug_completion: Option<BusCompletion>,
    pub(crate) prev_trig_in: u32,
    pub(crate) dma: Option<DmaEngine>,
    /// Reused per-cycle event buffer for the streaming hot path. Always
    /// empty between steps; never serialized (it is pure scratch).
    pub(crate) scratch: Vec<SocEvent>,
    /// Execution-kernel state: mode, stats, decode cache and
    /// its generation counter. Derived state — never serialized, never
    /// hashed; [`SocState`] round-trips are bit-identical regardless of it.
    pub(crate) exec: crate::kernel::ExecState,
}

impl std::fmt::Debug for Soc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Soc")
            .field("cycle", &self.cycle)
            .field("cores", &self.cores.len())
            .finish()
    }
}

impl Soc {
    /// The current SoC cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Number of cores.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// Shared access to a core.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn core(&self, id: CoreId) -> &Cpu {
        &self.cores[id.0 as usize]
    }

    /// Mutable access to a core (debug run control).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn core_mut(&mut self, id: CoreId) -> &mut Cpu {
        &mut self.cores[id.0 as usize]
    }

    /// Iterates over all cores.
    pub fn cores(&self) -> impl Iterator<Item = &Cpu> {
        self.cores.iter()
    }

    /// The debug bus-master slot (service processor / host probe).
    pub fn debug_master(&self) -> MasterId {
        self.debug_master
    }

    /// Cycle-exact bus arbitration counters — ground truth for trace-derived
    /// utilization and contention analysis.
    pub fn bus_counters(&self) -> &crate::bus::BusCounters {
        self.bus.counters()
    }

    /// The DMA engine's bus-master slot, if a DMA controller is fitted.
    pub fn dma_master(&self) -> Option<MasterId> {
        self.dma.as_ref().map(|d| d.master)
    }

    /// The address-mapping block (backdoor).
    pub fn mapper(&self) -> &OverlayMapper {
        match self.bus.target(self.mapper_id) {
            SocTarget::Mapper(m) => m,
            _ => unreachable!("mapper id points at mapper"),
        }
    }

    /// Mutable backdoor to the address-mapping block (overlay configuration,
    /// flash programming, emulation-RAM segment roles).
    ///
    /// Any caller may rewrite code or remap the fetch path through this
    /// handle (flash programming, overlay page swaps, segment roles), so it
    /// conservatively invalidates the execution kernel's decode cache.
    pub fn mapper_mut(&mut self) -> &mut OverlayMapper {
        self.exec.invalidate_decode();
        match self.bus.target_mut(self.mapper_id) {
            SocTarget::Mapper(m) => m,
            _ => unreachable!("mapper id points at mapper"),
        }
    }

    /// Mutable backdoor to the emulation RAM for writes confined to its
    /// `segments` (the MCDS trace sink's stores into its trace segments).
    /// Cached decode comes from the flash window, which reads emulation
    /// RAM only through an overlay redirect, so unlike
    /// [`Soc::mapper_mut`] this invalidates the decode cache only when an
    /// overlay range maps the flash window onto one of `segments`
    /// ([`OverlayMapper::maps_onto`]). `None` without emulation RAM.
    pub fn emem_segments_mut(&mut self, segments: &[usize]) -> Option<&mut EmulationRam> {
        if self.mapper().maps_onto(segments) {
            self.exec.invalidate_decode();
        }
        match self.bus.target_mut(self.mapper_id) {
            SocTarget::Mapper(m) => m.emem_mut(),
            _ => unreachable!("mapper id points at mapper"),
        }
    }

    /// The SRAM (backdoor).
    pub fn sram(&self) -> &Sram {
        match self.bus.target(self.sram_id) {
            SocTarget::Sram(s) => s,
            _ => unreachable!("sram id points at sram"),
        }
    }

    /// Mutable backdoor to the SRAM.
    pub fn sram_mut(&mut self) -> &mut Sram {
        match self.bus.target_mut(self.sram_id) {
            SocTarget::Sram(s) => s,
            _ => unreachable!("sram id points at sram"),
        }
    }

    /// The peripheral block (sensor inputs, actuator history, trigger pins).
    pub fn periph(&self) -> &PeriphBlock {
        match self.bus.target(self.periph_id) {
            SocTarget::Periph(p) => p,
            _ => unreachable!("periph id points at periph"),
        }
    }

    /// Mutable access to the peripheral block.
    pub fn periph_mut(&mut self) -> &mut PeriphBlock {
        match self.bus.target_mut(self.periph_id) {
            SocTarget::Periph(p) => p,
            _ => unreachable!("periph id points at periph"),
        }
    }

    /// Loads an assembled [`Program`] through the backdoor (no simulated
    /// time): flash chunks are programmed, SRAM and emulation-RAM chunks are
    /// copied.
    ///
    /// # Panics
    ///
    /// Panics if a chunk falls outside flash, SRAM or emulation RAM. Use
    /// [`Soc::try_load_program`] to get a typed error instead.
    pub fn load_program(&mut self, program: &Program) {
        self.try_load_program(program)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible form of [`Soc::load_program`]: returns a [`BackdoorError`]
    /// for the first chunk that falls outside flash, SRAM or emulation RAM.
    /// Chunks before the failing one stay written.
    pub fn try_load_program(&mut self, program: &Program) -> Result<(), BackdoorError> {
        for (base, bytes) in &program.chunks {
            self.try_backdoor_write(*base, bytes)?;
        }
        Ok(())
    }

    /// Backdoor write of raw bytes at an absolute address (no simulated
    /// time, no access-control checks).
    ///
    /// # Panics
    ///
    /// Panics if the range is not backed by flash, SRAM or emulation RAM.
    /// Use [`Soc::try_backdoor_write`] to get a typed error instead.
    pub fn backdoor_write(&mut self, addr: Addr, bytes: &[u8]) {
        self.try_backdoor_write(addr, bytes)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible form of [`Soc::backdoor_write`]: rejects ranges that are
    /// not fully backed by flash, SRAM or emulation RAM with a typed
    /// [`BackdoorError`] instead of panicking.
    pub fn try_backdoor_write(&mut self, addr: Addr, bytes: &[u8]) -> Result<(), BackdoorError> {
        let region = backdoor_region(addr, bytes.len())?;
        let off = (addr - region.base()) as usize;
        match region {
            BackdoorRegion::Flash => self
                .mapper_mut()
                .flash_mut()
                .program(addr - memmap::FLASH_BASE, bytes),
            BackdoorRegion::Sram => self.sram_mut().write_bytes(off, bytes),
            BackdoorRegion::Emem => self
                .mapper_mut()
                .emem_mut()
                .ok_or(BackdoorError::NoEmulationRam { addr })?
                .write_bytes(off, bytes),
        }
        Ok(())
    }

    /// Backdoor read of raw bytes at an absolute address.
    ///
    /// # Panics
    ///
    /// Panics if the range is not backed by flash, SRAM or emulation RAM.
    /// Use [`Soc::try_backdoor_read`] to get a typed error instead.
    pub fn backdoor_read(&self, addr: Addr, len: usize) -> Vec<u8> {
        self.try_backdoor_read(addr, len)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`Soc::backdoor_read`]: rejects ranges that are not
    /// fully backed by flash, SRAM or emulation RAM with a typed
    /// [`BackdoorError`] instead of panicking.
    pub fn try_backdoor_read(&self, addr: Addr, len: usize) -> Result<Vec<u8>, BackdoorError> {
        let region = backdoor_region(addr, len)?;
        let off = (addr - region.base()) as usize;
        Ok(match region {
            BackdoorRegion::Flash => self.mapper().flash().bytes()[off..off + len].to_vec(),
            BackdoorRegion::Sram => self.sram().bytes()[off..off + len].to_vec(),
            BackdoorRegion::Emem => {
                let emem = self
                    .mapper()
                    .emem()
                    .ok_or(BackdoorError::NoEmulationRam { addr })?;
                emem.bytes()[off..off + len].to_vec()
            }
        })
    }

    /// Backdoor read of one little-endian word.
    pub fn backdoor_read_word(&self, addr: Addr) -> u32 {
        let b = self.backdoor_read(addr, 4);
        u32::from_le_bytes([b[0], b[1], b[2], b[3]])
    }

    /// Queues a bus request on the debug master slot. The completion appears
    /// via [`Soc::take_debug_completion`] once the bus delivers it.
    pub fn debug_request(&mut self, request: BusRequest) {
        self.bus.request(self.debug_master, request);
    }

    /// Takes the pending debug-master completion, if one arrived.
    pub fn take_debug_completion(&mut self) -> Option<BusCompletion> {
        self.debug_completion.take()
    }

    /// Withdraws a queued debug-master request that was never granted.
    /// Returns `true` if a queued request was removed; an already-active
    /// transaction still completes (discard it with
    /// [`Soc::take_debug_completion`]).
    pub fn cancel_debug_request(&mut self) -> bool {
        self.bus.cancel_request(self.debug_master)
    }

    /// True if the debug master has a request queued or in flight.
    pub fn debug_busy(&self) -> bool {
        self.bus.master_busy(self.debug_master) || self.debug_completion.is_some()
    }

    /// Captures the SoC's complete runtime state except memory contents
    /// (see [`SocState`] for what is and is not covered).
    pub fn save_state(&self) -> SocState {
        let emem = self.mapper().emem();
        SocState {
            cycle: self.cycle,
            bus: self.bus.save_state(),
            cores: self.cores.iter().map(Cpu::save_state).collect(),
            periph: self.periph().save_state(),
            overlay: self.mapper().save_state(),
            emem_roles: emem
                .map(|e| (0..e.segment_count()).map(|s| e.segment_role(s)).collect())
                .unwrap_or_default(),
            emem_powered: emem.map(|e| e.is_powered()).unwrap_or(false),
            dma: self.dma.as_ref().map(|d| DmaEngineState {
                state: d.state,
                src: d.src,
                dst: d.dst,
                remaining: d.remaining,
                completion: d.completion,
            }),
            debug_completion: self.debug_completion,
            prev_trig_in: self.prev_trig_in,
        }
    }

    /// Restores state captured by [`Soc::save_state`] onto an identically
    /// built SoC. Memory contents are untouched; restore them separately
    /// with [`Soc::restore_memory_pages`].
    ///
    /// # Panics
    ///
    /// Panics if the core count, DMA fitment or emulation-RAM segment count
    /// differ from the SoC the state was saved from.
    pub fn restore_state(&mut self, state: &SocState) {
        assert_eq!(
            self.cores.len(),
            state.cores.len(),
            "core count mismatch on restore"
        );
        assert_eq!(
            self.dma.is_some(),
            state.dma.is_some(),
            "DMA fitment mismatch on restore"
        );
        self.cycle = state.cycle;
        self.bus.restore_state(&state.bus);
        for (core, s) in self.cores.iter_mut().zip(&state.cores) {
            core.restore_state(s);
        }
        self.periph_mut().restore_state(&state.periph);
        self.mapper_mut().restore_state(&state.overlay);
        let emem_roles = state.emem_roles.clone();
        let emem_powered = state.emem_powered;
        if let Some(emem) = self.mapper_mut().emem_mut() {
            assert_eq!(
                emem.segment_count(),
                emem_roles.len(),
                "emulation-RAM segment count mismatch on restore"
            );
            for (s, role) in emem_roles.iter().enumerate() {
                emem.set_segment_role(s, *role);
            }
            emem.set_powered(emem_powered);
        } else {
            assert!(
                emem_roles.is_empty(),
                "emulation-RAM fitment mismatch on restore"
            );
        }
        if let (Some(dma), Some(s)) = (self.dma.as_mut(), state.dma.as_ref()) {
            dma.state = s.state;
            dma.src = s.src;
            dma.dst = s.dst;
            dma.remaining = s.remaining;
            dma.completion = s.completion;
        }
        self.debug_completion = state.debug_completion;
        self.prev_trig_in = state.prev_trig_in;
    }

    /// Borrows one memory's contents with their page summary, or `None`
    /// when the device variant does not have it fitted (emulation RAM on
    /// production parts). Snapshot layers hash and capture memories
    /// through this.
    pub fn memory(&self, id: MemoryId) -> Option<&PagedBytes> {
        match id {
            MemoryId::Flash => Some(self.mapper().flash().paged()),
            MemoryId::Sram => Some(self.sram().paged()),
            MemoryId::Emem => self.mapper().emem().map(EmulationRam::paged),
        }
    }

    /// Restores a sparse image of one memory: the listed `(index, bytes)`
    /// pages (see [`PagedBytes::pages`]) by strictly ascending index, the
    /// reset value everywhere else. Costs O(pages + listed bytes).
    ///
    /// # Panics
    ///
    /// Panics if the memory is not fitted, or as
    /// [`PagedBytes::restore_pages`] does on a bad page list.
    pub fn restore_memory_pages<'a>(
        &mut self,
        id: MemoryId,
        pages: impl IntoIterator<Item = (usize, &'a [u8])>,
    ) {
        let memory = match id {
            MemoryId::Flash => self.mapper_mut().flash_mut().paged_mut(),
            MemoryId::Sram => self.sram_mut().paged_mut(),
            MemoryId::Emem => self
                .mapper_mut()
                .emem_mut()
                .expect("emulation RAM not fitted")
                .paged_mut(),
        };
        memory.restore_pages(pages);
    }

    /// Advances the SoC by one cycle, filling the internal scratch buffer
    /// with the cycle's observable events, and returns the stepped cycle
    /// number plus a view of those events.
    ///
    /// This is the allocation-free heart of the observation pipeline:
    /// the scratch buffer is cleared and refilled in place, so steady-state
    /// stepping performs no per-cycle heap allocation. The returned slice
    /// is invalidated by the next step — copy what must be kept.
    pub fn step_events(&mut self) -> (u64, &[SocEvent]) {
        let mut events = std::mem::take(&mut self.scratch);
        events.clear();
        let now = self.cycle;
        if let Some(c) = self.bus.step(now) {
            // In-band code writes (core stores through an overlay window,
            // DMA into emulation RAM, debug-master patches, overlay control
            // pokes) invalidate the kernel's decode cache.
            if c.fault.is_none()
                && c.request.kind.is_write()
                && self.exec.watches_writes_to(c.request.addr)
            {
                self.exec.invalidate_decode();
            }
            if c.master == self.debug_master {
                self.debug_completion = Some(c);
            } else if self.dma.as_ref().is_some_and(|d| d.master == c.master) {
                self.dma.as_mut().expect("checked").deliver(c);
            } else {
                self.cores[c.master.0 as usize].deliver(c);
            }
        }
        if let Some(x) = self.bus.last_xact() {
            events.push(SocEvent::Bus(x));
        }
        // One peripheral-block lookup per cycle: read the trigger pins,
        // advance the timer, sample the IRQ level and pick up any DMA
        // command together.
        let has_dma = self.dma.is_some();
        let (level, irq, dma_start) = {
            let periph = self.periph_mut();
            let level = periph.trigger_in();
            periph.timer_tick(now);
            let dma_start = if has_dma {
                periph.take_dma_start()
            } else {
                None
            };
            (level, periph.irq_pending(), dma_start)
        };
        // Surface external trigger-in edges: walk only the changed lines
        // (set bits of the XOR mask), lowest line first.
        if level != self.prev_trig_in {
            let mut changed = level ^ self.prev_trig_in;
            while changed != 0 {
                let line = changed.trailing_zeros();
                changed &= changed - 1;
                events.push(SocEvent::TriggerIn {
                    line: line as u8,
                    level: level & (1 << line) != 0,
                });
            }
            self.prev_trig_in = level;
        }
        // Drive the cores' IRQ lines.
        for core in self.cores.iter_mut() {
            core.set_irq_line(irq);
        }
        // Apply any DMA command and advance the engine.
        if has_dma {
            if let Some((src, dst, len)) = dma_start {
                self.dma.as_mut().expect("checked").start(src, dst, len);
            }
            let Soc { dma, bus, .. } = self;
            if let Some(done) = dma.as_mut().expect("checked").tick(bus) {
                self.periph_mut().finish_dma(done);
            }
        }
        let Soc { cores, bus, .. } = self;
        for core in cores.iter_mut() {
            if core.clock_enabled(now) {
                core.tick(bus, now, &mut events);
            }
        }
        self.cycle += 1;
        self.exec.stats.stepped_cycles += 1;
        self.scratch = events;
        (now, &self.scratch)
    }

    /// Advances the SoC by one cycle, pushing the cycle's observable
    /// events into `sink` (the streaming hot path — zero heap allocations
    /// per cycle at steady state).
    #[inline]
    pub fn step_into<S: CycleSink + ?Sized>(&mut self, sink: &mut S) {
        let (cycle, events) = self.step_events();
        sink.observe(cycle, events);
    }

    /// Advances the SoC by one cycle and returns its observable events as
    /// an owned [`CycleRecord`] (legacy batch API; allocates per cycle —
    /// prefer [`Soc::step_into`] on hot paths).
    pub fn step(&mut self) -> CycleRecord {
        let (cycle, events) = self.step_events();
        CycleRecord {
            cycle,
            events: events.to_vec(),
        }
    }

    /// Advances `n` cycles, discarding events (fast-forward for tests and
    /// benches that do not trace). Routed through the execution kernel
    /// with a [`NullSink`], so quiescent stretches are skipped and
    /// straight-line code runs as batched basic blocks (see
    /// [`crate::kernel`]); the architectural end state is bit-identical to
    /// `n` per-cycle steps.
    pub fn run_cycles(&mut self, n: u64) {
        self.run_cycles_into(n, &mut NullSink);
    }

    /// Advances `n` cycles, streaming observed cycles into `sink` — the
    /// single kernel entry point that `run_cycles` / `run_until_halt_into`
    /// wrap. A sink that wants every cycle
    /// ([`CycleSink::wants_cycles`]`()` true) forces exact per-cycle
    /// stepping; otherwise the configured [`crate::kernel::ExecMode`]
    /// decides how time advances.
    pub fn run_cycles_into<S: CycleSink + ?Sized>(&mut self, n: u64, sink: &mut S) {
        self.run_kernel(n, None, sink);
    }

    /// Advances until every core is halted or `max_cycles` elapse,
    /// streaming observed cycles into `sink`. Returns the number of cycles
    /// consumed. Memory use is the sink's choice — [`NullSink`] keeps a
    /// multi-billion-cycle run flat (and additionally licenses the kernel
    /// to batch).
    pub fn run_until_halt_into<S: CycleSink + ?Sized>(
        &mut self,
        max_cycles: u64,
        sink: &mut S,
    ) -> u64 {
        self.run_kernel(max_cycles, Some(HaltStop::All), sink)
    }

    /// Steps until every core is halted or `max_cycles` elapse; returns the
    /// collected records (legacy batch wrapper over
    /// [`Soc::run_until_halt_into`] + [`Collect`]; memory grows with run
    /// length).
    pub fn run_until_halt(&mut self, max_cycles: u64) -> Vec<CycleRecord> {
        let mut collect = Collect::new();
        self.run_until_halt_into(max_cycles, &mut collect);
        collect.into_records()
    }

    /// Performs a debug-master read, stepping the SoC until it completes.
    /// Returns the value and the records of the cycles consumed.
    ///
    /// # Errors
    ///
    /// Returns the bus fault if the access failed.
    pub fn debug_read(
        &mut self,
        addr: Addr,
        width: MemWidth,
    ) -> Result<(u32, Vec<CycleRecord>), BusFault> {
        self.debug_request(BusRequest {
            addr,
            width,
            kind: XferKind::Read,
            wdata: 0,
        });
        let mut records = Vec::new();
        loop {
            records.push(self.step());
            if let Some(c) = self.take_debug_completion() {
                return match c.fault {
                    Some(f) => Err(f),
                    None => Ok((c.rdata, records)),
                };
            }
        }
    }

    /// Performs a debug-master write, stepping the SoC until it completes.
    ///
    /// # Errors
    ///
    /// Returns the bus fault if the access failed.
    pub fn debug_write(
        &mut self,
        addr: Addr,
        width: MemWidth,
        value: u32,
    ) -> Result<Vec<CycleRecord>, BusFault> {
        self.debug_request(BusRequest {
            addr,
            width,
            kind: XferKind::Write,
            wdata: value,
        });
        let mut records = Vec::new();
        loop {
            records.push(self.step());
            if let Some(c) = self.take_debug_completion() {
                return match c.fault {
                    Some(f) => Err(f),
                    None => Ok(records),
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::event::StopCause;
    use crate::isa::Reg;

    fn engine_stub() -> Program {
        assemble(
            "
            .equ OUT0, 0xF0000100
            .equ IN0,  0xF0000200
            .org 0x80000000
            start:
                li  r1, IN0
                li  r2, OUT0
            loop:
                lw  r3, 0(r1)     ; read sensor
                slli r4, r3, 1    ; duration = 2 * rpm (toy law)
                sw  r4, 0(r2)     ; write actuator
                addi r5, r5, 1
                slti r6, r5, 10
                bne r6, r0, loop
                halt
            ",
        )
        .expect("assembles")
    }

    #[test]
    fn program_runs_from_flash_and_drives_ports() {
        let mut soc = SocBuilder::new().cores(1).build();
        soc.load_program(&engine_stub());
        soc.periph_mut().set_input(0, 3000);
        soc.run_until_halt(20_000);
        assert!(soc.core(CoreId(0)).is_halted());
        assert_eq!(soc.periph().output(0), 6000);
        assert_eq!(soc.periph().output_history(0).len(), 10);
    }

    #[test]
    fn two_cores_share_the_bus() {
        let prog = assemble(
            "
            .org 0x80000000
            start:
                mfsr r1, coreid
                slli r1, r1, 2          ; r1 = coreid * 4
                li   r2, 0xD0000000
                add  r2, r2, r1
                li   r3, 0xABC
                sw   r3, 0(r2)
                halt
            ",
        )
        .unwrap();
        let mut soc = SocBuilder::new().cores(2).build();
        soc.load_program(&prog);
        soc.run_until_halt(20_000);
        assert!(soc.cores().all(|c| c.is_halted()));
        assert_eq!(soc.backdoor_read_word(memmap::SRAM_BASE), 0xABC);
        assert_eq!(soc.backdoor_read_word(memmap::SRAM_BASE + 4), 0xABC);
    }

    #[test]
    fn debug_master_reads_memory_while_cores_run() {
        let prog = assemble(
            "
            .org 0x80000000
            loop:
                addi r1, r1, 1
                j loop
            ",
        )
        .unwrap();
        let mut soc = SocBuilder::new().cores(1).build();
        soc.load_program(&prog);
        soc.backdoor_write(memmap::SRAM_BASE + 0x40, &0xCAFE_F00Du32.to_le_bytes());
        soc.run_cycles(100);
        let (v, records) = soc
            .debug_read(memmap::SRAM_BASE + 0x40, MemWidth::Word)
            .unwrap();
        assert_eq!(v, 0xCAFE_F00D);
        assert!(!records.is_empty());
        assert!(!soc.core(CoreId(0)).is_halted(), "core kept running");
    }

    #[test]
    fn debug_master_has_lowest_priority() {
        // With a core hammering the bus, the debug read still completes but
        // takes longer than on an idle bus.
        let busy = assemble(
            "
            .org 0x80000000
            loop:
                lw r1, 0(r2)
                j loop
            ",
        )
        .unwrap();
        let mut soc = SocBuilder::new().cores(1).build();
        soc.load_program(&busy);
        soc.core_mut(CoreId(0))
            .set_reg(Reg::new(2), memmap::SRAM_BASE);
        soc.run_cycles(50);
        let (_, with_load) = soc.debug_read(memmap::SRAM_BASE, MemWidth::Word).unwrap();

        let mut idle = SocBuilder::new().cores(1).build();
        idle.load_program(&assemble(".org 0x80000000\nhalt").unwrap());
        idle.run_until_halt(100);
        let (_, no_load) = idle.debug_read(memmap::SRAM_BASE, MemWidth::Word).unwrap();
        assert!(
            with_load.len() >= no_load.len(),
            "contended read ({}) not faster than idle read ({})",
            with_load.len(),
            no_load.len()
        );
    }

    #[test]
    fn trigger_in_edges_become_events() {
        let mut soc = SocBuilder::new().cores(1).build();
        soc.load_program(&assemble(".org 0x80000000\nloop: j loop").unwrap());
        soc.periph_mut().set_trigger_in(0b1);
        let rec = soc.step();
        assert!(rec.events.iter().any(|e| matches!(
            e,
            SocEvent::TriggerIn {
                line: 0,
                level: true
            }
        )));
        soc.periph_mut().set_trigger_in(0b0);
        let rec = soc.step();
        assert!(rec.events.iter().any(|e| matches!(
            e,
            SocEvent::TriggerIn {
                line: 0,
                level: false
            }
        )));
    }

    #[test]
    fn production_device_has_no_emem() {
        let soc = SocBuilder::new().cores(1).build();
        assert!(soc.mapper().emem().is_none());
        let soc = SocBuilder::new().cores(1).with_emulation_ram().build();
        assert_eq!(soc.mapper().emem().unwrap().size(), memmap::EMEM_SIZE);
    }

    #[test]
    fn backdoor_access_outside_memory_is_a_typed_error() {
        let mut soc = SocBuilder::new().cores(1).build();
        assert_eq!(
            soc.try_backdoor_read(0x1234_0000, 4),
            Err(BackdoorError::OutsideMemory {
                addr: 0x1234_0000,
                len: 4
            })
        );
        assert_eq!(
            soc.try_backdoor_write(0x1234_0000, &[0; 4]),
            Err(BackdoorError::OutsideMemory {
                addr: 0x1234_0000,
                len: 4
            })
        );
        // A range that starts inside SRAM but runs past its end is rejected
        // up front (nothing is written).
        let end = memmap::SRAM_BASE + memmap::SRAM_SIZE - 2;
        assert_eq!(
            soc.try_backdoor_write(end, &[0xAA; 8]),
            Err(BackdoorError::OutsideMemory { addr: end, len: 8 })
        );
        assert_eq!(soc.try_backdoor_read(end, 2).unwrap(), vec![0, 0]);
    }

    #[test]
    fn backdoor_emem_without_emulation_ram_is_a_typed_error() {
        let mut soc = SocBuilder::new().cores(1).build();
        assert_eq!(
            soc.try_backdoor_read(memmap::EMEM_BASE, 4),
            Err(BackdoorError::NoEmulationRam {
                addr: memmap::EMEM_BASE
            })
        );
        assert_eq!(
            soc.try_backdoor_write(memmap::EMEM_BASE, &[1, 2, 3]),
            Err(BackdoorError::NoEmulationRam {
                addr: memmap::EMEM_BASE
            })
        );
        let mut dev = SocBuilder::new().cores(1).with_emulation_ram().build();
        dev.try_backdoor_write(memmap::EMEM_BASE, &[1, 2, 3])
            .unwrap();
        assert_eq!(
            dev.try_backdoor_read(memmap::EMEM_BASE, 3).unwrap(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn try_load_program_reports_bad_chunks() {
        let mut soc = SocBuilder::new().cores(1).build();
        let mut prog = assemble(".org 0x80000000\nhalt").unwrap();
        prog.chunks.push((0x4000_0000, vec![0xFF; 16]));
        assert_eq!(
            soc.try_load_program(&prog),
            Err(BackdoorError::OutsideMemory {
                addr: 0x4000_0000,
                len: 16
            })
        );
    }

    #[test]
    fn brk_in_program_stops_core_with_breakpoint() {
        let prog = assemble(".org 0x80000000\nnop\nbrk\nnop").unwrap();
        let mut soc = SocBuilder::new().cores(1).build();
        soc.load_program(&prog);
        let records = soc.run_until_halt(1000);
        let stopped = records
            .iter()
            .flat_map(|r| &r.events)
            .find_map(|e| match e {
                SocEvent::CoreStopped { cause, pc, .. } => Some((*cause, *pc)),
                _ => None,
            });
        assert_eq!(
            stopped,
            Some((StopCause::Breakpoint, memmap::FLASH_BASE + 4))
        );
    }
}

#[cfg(test)]
mod builder_tests {
    use super::*;
    use crate::asm::assemble;
    use crate::event::CoreId;

    #[test]
    fn sram_wait_states_slow_execution() {
        let prog = assemble(
            "
            .org 0xD0000000
            start:
                li r1, 100
            loop:
                addi r1, r1, -1
                bne r1, r0, loop
                halt
            ",
        )
        .unwrap();
        let run = |ws: u32| {
            let mut soc = SocBuilder::new()
                .core(CoreConfig {
                    reset_pc: memmap::SRAM_BASE,
                    clock_div: 1,
                    ..Default::default()
                })
                .sram_wait_states(ws)
                .build();
            soc.load_program(&prog);
            soc.run_until_halt(100_000);
            assert!(soc.core(CoreId(0)).is_halted());
            soc.cycle()
        };
        let fast = run(0);
        let slow = run(3);
        assert!(slow > fast, "wait states cost cycles ({slow} > {fast})");
    }

    #[test]
    fn round_robin_bus_shares_bandwidth_more_evenly() {
        // Two cores hammering the same SRAM: with fixed priority core 0
        // retires noticeably more; round-robin narrows the gap.
        let prog = assemble(
            "
            .org 0x80000000
            start:
                li r2, 0xD0000000
            loop:
                lw r1, 0(r2)
                j loop
            ",
        )
        .unwrap();
        let run = |rr: bool| {
            let mut b = SocBuilder::new().cores(2).flash_wait_states(0);
            if rr {
                b = b.round_robin_bus();
            }
            let mut soc = b.build();
            soc.load_program(&prog);
            soc.run_cycles(20_000);
            let a = soc.core(CoreId(0)).retired() as f64;
            let c = soc.core(CoreId(1)).retired() as f64;
            a / c
        };
        let priority_ratio = run(false);
        let rr_ratio = run(true);
        assert!(
            (rr_ratio - 1.0).abs() <= (priority_ratio - 1.0).abs() + 1e-9,
            "round robin is at least as fair: priority {priority_ratio:.3}, rr {rr_ratio:.3}"
        );
    }

    #[test]
    fn output_history_cap_applies() {
        let prog = assemble(
            "
            .equ OUT0, 0xF0000100
            .org 0x80000000
            start:
                li r2, OUT0
            loop:
                sw r1, 0(r2)
                addi r1, r1, 1
                j loop
            ",
        )
        .unwrap();
        let mut soc = SocBuilder::new().cores(1).output_history_cap(10).build();
        soc.load_program(&prog);
        soc.run_cycles(50_000);
        assert_eq!(soc.periph().output_history(0).len(), 10);
        // Newest writes are retained.
        let h = soc.periph().output_history(0);
        assert!(h[0].value < h[9].value);
    }

    #[test]
    fn extension_target_is_addressable() {
        use crate::mem::Sram;
        let mut soc = SocBuilder::new()
            .cores(1)
            .extension(
                AddrRange::new(0xA000_0000, 0x100),
                Box::new(Sram::new(0x100, 0).with_base(0xA000_0000)),
            )
            .build();
        soc.load_program(&assemble(".org 0x80000000\nhalt").unwrap());
        soc.run_until_halt(100);
        soc.debug_write(0xA000_0010, MemWidth::Word, 0xBEEF)
            .unwrap();
        let (v, _) = soc.debug_read(0xA000_0010, MemWidth::Word).unwrap();
        assert_eq!(v, 0xBEEF);
    }

    #[test]
    fn small_emulation_ram_maps_reduced_window() {
        let soc = SocBuilder::new()
            .cores(1)
            .with_emulation_ram_segments(1)
            .build();
        assert_eq!(soc.mapper().emem().unwrap().size(), 64 * 1024);
        // Backdoor access inside the window works…
        let mut soc = soc;
        soc.backdoor_write(memmap::EMEM_BASE + 100, &[7]);
        assert_eq!(soc.backdoor_read(memmap::EMEM_BASE + 100, 1), vec![7]);
    }

    #[test]
    #[should_panic(expected = "at most 8")]
    fn too_many_emem_segments_rejected() {
        let _ = SocBuilder::new()
            .cores(1)
            .with_emulation_ram_segments(9)
            .build();
    }
}

#[cfg(test)]
mod dma_tests {
    use super::*;
    use crate::asm::assemble;
    use crate::event::CoreId;

    /// A program that commands the DMA to copy 64 bytes from flash to SRAM
    /// and polls until done.
    fn dma_program(src: u32, dst: u32, len: u32) -> crate::asm::Program {
        assemble(&format!(
            "
            .equ DMA_SRC,  0xF0000400
            .equ DMA_DST,  0xF0000404
            .equ DMA_LEN,  0xF0000408
            .equ DMA_CTRL, 0xF000040C
            .org 0x80000000
            start:
                li r10, DMA_SRC
                li r1, {src:#x}
                sw r1, 0(r10)
                li r1, {dst:#x}
                sw r1, 4(r10)
                li r1, {len}
                sw r1, 8(r10)
                li r1, 1
                sw r1, 12(r10)
            poll:
                lw r2, 12(r10)
                andi r2, r2, 1
                bne r2, r0, poll
                halt
            "
        ))
        .unwrap()
    }

    #[test]
    fn dma_copies_flash_to_sram_while_core_polls() {
        let mut soc = SocBuilder::new().cores(1).with_dma().build();
        let pattern: Vec<u8> = (0..64u8).collect();
        soc.backdoor_write(memmap::FLASH_BASE + 0x1000, &pattern);
        soc.load_program(&dma_program(
            memmap::FLASH_BASE + 0x1000,
            memmap::SRAM_BASE + 0x200,
            64,
        ));
        soc.run_until_halt(50_000);
        assert!(soc.core(CoreId(0)).is_halted());
        assert_eq!(soc.backdoor_read(memmap::SRAM_BASE + 0x200, 64), pattern);
        assert!(!soc.periph().dma_busy());
        assert!(!soc.periph().dma_error());
    }

    #[test]
    fn dma_fault_sets_error_flag() {
        let mut soc = SocBuilder::new().cores(1).with_dma().build();
        // Destination in flash: the write is denied mid-transfer.
        soc.load_program(&dma_program(
            memmap::SRAM_BASE,
            memmap::FLASH_BASE + 0x10_0000,
            16,
        ));
        soc.run_until_halt(50_000);
        assert!(soc.core(CoreId(0)).is_halted());
        assert!(soc.periph().dma_error(), "fault reported in DMA_CTRL");
    }

    #[test]
    fn dma_transactions_carry_their_own_master_id() {
        let mut soc = SocBuilder::new().cores(1).with_dma().build();
        let dma_master = soc.dma_master().expect("dma fitted");
        soc.backdoor_write(memmap::FLASH_BASE + 0x2000, &[7u8; 32]);
        soc.load_program(&dma_program(
            memmap::FLASH_BASE + 0x2000,
            memmap::SRAM_BASE + 0x300,
            32,
        ));
        let mut dma_xacts = 0;
        for _ in 0..50_000u64 {
            let rec = soc.step();
            for e in &rec.events {
                if let SocEvent::Bus(x) = e {
                    if x.master == dma_master {
                        dma_xacts += 1;
                    }
                }
            }
            if soc.core(CoreId(0)).is_halted() {
                break;
            }
        }
        // 8 words: 8 reads + 8 writes on the bus, all attributable.
        assert_eq!(dma_xacts, 16, "system-centric trace sees the DMA master");
    }

    #[test]
    fn dma_contends_for_the_bus_with_cores() {
        // A memory-hammering core slows the DMA down (fixed priority:
        // cores beat the DMA).
        let run = |hammer: bool| {
            let mut soc = SocBuilder::new().cores(1).with_dma().build();
            soc.backdoor_write(memmap::FLASH_BASE + 0x3000, &[1u8; 512]);
            // Start the DMA from the debug master, with the core either
            // halted or hammering SRAM.
            let program = if hammer {
                assemble(".org 0x80000000\nli r2, 0xD0010000\nloop: lw r1, 0(r2)\nj loop").unwrap()
            } else {
                assemble(".org 0x80000000\nhalt").unwrap()
            };
            soc.load_program(&program);
            soc.run_cycles(100);
            for (off, v) in [
                (0x400u32, memmap::FLASH_BASE + 0x3000),
                (0x404, memmap::SRAM_BASE + 0x400),
                (0x408, 512),
                (0x40C, 1),
            ] {
                soc.debug_write(memmap::PERIPH_BASE + off, MemWidth::Word, v)
                    .unwrap();
            }
            let start = soc.cycle();
            for _ in 0..1_000_000u64 {
                soc.step();
                if !soc.periph().dma_busy() {
                    break;
                }
            }
            soc.cycle() - start
        };
        let idle = run(false);
        let contended = run(true);
        assert!(
            contended > idle + idle / 4,
            "bus contention slows DMA: idle {idle}, contended {contended}"
        );
    }
}
