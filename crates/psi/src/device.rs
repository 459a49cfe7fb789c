//! The PSI device model: an SoC, its MCDS block, emulation resources and
//! debug links assembled into one steppable device.
//!
//! Construction variants follow the paper:
//!
//! * [`DeviceVariant::Production`] — the TC1796 production part: MCDS
//!   triggers and the address-mapping block are present, but there is no
//!   emulation RAM, no USB peripheral and no service core; debugging runs
//!   over JTAG and trace has nowhere to be stored.
//! * [`DeviceVariant::EdSideBooster`] — the single-chip TC1796ED
//!   (Figure 3): the production layout as a hard macro plus an emulation
//!   side booster carrying 512 KB of emulation RAM, a USB 1.1 peripheral
//!   and the PCP2 debug-service core.
//! * [`DeviceVariant::EdCarrierChip`] / [`DeviceVariant::EdBoosterChip`] —
//!   the two-chip constructions (Figure 4): functionally identical to the
//!   side booster; the extension chip is reusable across a product range.
//!
//! All variants share the production footprint and, with debug resources
//! idle, identical behaviour — the transparency property experiments F3/F4
//! verify.

use crate::faults::{FaultInjector, FaultInjectorState, FaultPlan, FaultStats, FrameFate};
use crate::interface::{InterfaceKind, InterfaceModel, LinkStats};
use crate::service::{ServiceProcessor, ServiceState};
use crate::trace_sink::{FullPolicy, SinkState, TraceSink};
use mcds::{Mcds, McdsConfig, McdsState, McdsStats};
use mcds_soc::bus::{BusCounters, BusFault, BusRequest, XferKind};
use mcds_soc::cpu::CoreConfig;
use mcds_soc::event::{CoreId, CycleRecord, SocEvent};
use mcds_soc::isa::{MemWidth, Reg};
use mcds_soc::mem::SegmentRole;
use mcds_soc::sink::{Collect, CycleSink, FanOut, NullSink};
use mcds_soc::soc::{memmap, Soc, SocBuilder, SocState};
use mcds_soc::{ExecMode, HaltStop};
use mcds_telemetry::{Subsystem, Telemetry};
use std::collections::HashMap;
use std::fmt;
use std::time::Instant;

/// How the development device is constructed.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceVariant {
    /// The production SoC (no emulation resources).
    Production,
    /// Single-chip PSI: emulation side booster at the edge of the SoC macro
    /// (Figure 3).
    EdSideBooster,
    /// Two-chip PSI: carrier chip under the production SoC (Figure 4B).
    EdCarrierChip,
    /// Two-chip PSI: booster chip on top of the production SoC (Figure 4A).
    EdBoosterChip,
    /// Selective PSI integration on the production mask set (Section 8
    /// future work): a small emulation region (64 KB, trace-oriented) on
    /// one side of the SoC, no USB peripheral and no service core — "in
    /// particular for the case when no large calibration overlay memory is
    /// required".
    SelectiveBooster,
}

/// Static facts about a construction variant (the F4/F5 inventory table).
#[derive(serde::Serialize, Debug, Clone, PartialEq, Eq)]
pub struct VariantInfo {
    /// Human-readable name.
    pub name: &'static str,
    /// Dies in the package.
    pub chips: u8,
    /// Same footprint as the production part (always true — the point of
    /// PSI).
    pub footprint_compatible: bool,
    /// Emulation RAM bytes.
    pub emulation_ram_bytes: u32,
    /// USB 1.1 debug link fitted.
    pub has_usb: bool,
    /// PCP2 debug-service core fitted.
    pub has_service_core: bool,
    /// Extra mask sets needed beyond the production device.
    pub extra_mask_sets: u8,
    /// The development-specific silicon is reusable across a product range.
    pub reusable_across_products: bool,
}

impl DeviceVariant {
    /// True for development (ED) variants with emulation resources.
    pub fn has_emulation_resources(self) -> bool {
        self != DeviceVariant::Production
    }

    /// The variant's inventory facts.
    pub fn info(self) -> VariantInfo {
        match self {
            DeviceVariant::Production => VariantInfo {
                name: "TC1796 production",
                chips: 1,
                footprint_compatible: true,
                emulation_ram_bytes: 0,
                has_usb: false,
                has_service_core: false,
                extra_mask_sets: 0,
                reusable_across_products: false,
            },
            DeviceVariant::EdSideBooster => VariantInfo {
                name: "TC1796ED single-chip (emulation side booster)",
                chips: 1,
                footprint_compatible: true,
                emulation_ram_bytes: memmap::EMEM_SIZE,
                has_usb: true,
                has_service_core: true,
                extra_mask_sets: 1,
                reusable_across_products: false,
            },
            DeviceVariant::EdCarrierChip => VariantInfo {
                name: "TC1796ED two-chip (carrier chip)",
                chips: 2,
                footprint_compatible: true,
                emulation_ram_bytes: memmap::EMEM_SIZE,
                has_usb: true,
                has_service_core: true,
                extra_mask_sets: 1,
                reusable_across_products: true,
            },
            DeviceVariant::EdBoosterChip => VariantInfo {
                name: "TC1796ED two-chip (booster chip)",
                chips: 2,
                footprint_compatible: true,
                emulation_ram_bytes: memmap::EMEM_SIZE,
                has_usb: true,
                has_service_core: true,
                extra_mask_sets: 1,
                reusable_across_products: true,
            },
            DeviceVariant::SelectiveBooster => VariantInfo {
                name: "TC1796 selective PSI (single mask set)",
                chips: 1,
                footprint_compatible: true,
                emulation_ram_bytes: 64 * 1024,
                has_usb: false,
                has_service_core: false,
                extra_mask_sets: 0,
                reusable_across_products: false,
            },
        }
    }
}

impl fmt::Display for DeviceVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.info().name)
    }
}

/// A debug command executed over a device interface.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone)]
pub enum DebugOp {
    /// Read `count` words starting at `addr` over the debug bus master.
    ReadWords {
        /// Start address.
        addr: u32,
        /// Number of 32-bit words.
        count: usize,
    },
    /// Write words starting at `addr`.
    WriteWords {
        /// Start address.
        addr: u32,
        /// The words to write.
        data: Vec<u32>,
    },
    /// Halt a core (debug break).
    HaltCore(CoreId),
    /// Resume a halted core.
    ResumeCore(CoreId),
    /// Single-step a halted core by `n` instructions.
    StepCore(CoreId, u64),
    /// Read a general register of a halted core.
    ReadReg(CoreId, Reg),
    /// Write a general register of a halted core.
    WriteReg(CoreId, Reg, u32),
    /// Read the program counter of a halted core.
    ReadPc(CoreId),
    /// Set the program counter of a halted core.
    SetPc(CoreId, u32),
    /// Download the trace memory contents.
    ReadTrace,
    /// Replace the MCDS configuration.
    Reconfigure(Box<McdsConfig>),
    /// Erase and program flash (out-of-band, charged flash timing).
    ProgramFlash {
        /// Absolute flash address.
        addr: u32,
        /// Bytes to program.
        bytes: Vec<u8>,
    },
    /// Query MCDS/sink statistics.
    ReadStats,
}

impl DebugOp {
    /// Approximate request payload size on the wire.
    fn request_bytes(&self) -> usize {
        match self {
            DebugOp::ReadWords { .. }
            | DebugOp::HaltCore(_)
            | DebugOp::ResumeCore(_)
            | DebugOp::StepCore(..)
            | DebugOp::ReadReg(..)
            | DebugOp::ReadPc(_)
            | DebugOp::ReadTrace
            | DebugOp::ReadStats => 8,
            DebugOp::WriteReg(..) | DebugOp::SetPc(..) => 12,
            DebugOp::WriteWords { data, .. } => 8 + data.len() * 4,
            DebugOp::Reconfigure(_) => 256,
            DebugOp::ProgramFlash { bytes, .. } => 8 + bytes.len(),
        }
    }
}

/// A debug command's result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DebugResponse {
    /// Command acknowledged.
    Ack,
    /// Words read from memory.
    Words(Vec<u32>),
    /// A register or PC value.
    Value(u32),
    /// The downloaded trace byte stream.
    TraceBytes(Vec<u8>),
    /// MCDS and sink statistics.
    Stats {
        /// MCDS statistics.
        mcds: McdsStats,
        /// Encoded trace bytes stored.
        sink_used: usize,
        /// Trace memory capacity.
        sink_capacity: usize,
    },
}

impl DebugResponse {
    fn response_bytes(&self) -> usize {
        match self {
            DebugResponse::Ack => 4,
            DebugResponse::Words(w) => 4 + w.len() * 4,
            DebugResponse::Value(_) => 8,
            DebugResponse::TraceBytes(b) => 4 + b.len(),
            DebugResponse::Stats { .. } => 40,
        }
    }
}

/// An error from the device model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceError {
    /// The variant has no such interface (e.g. USB on a production part).
    InterfaceUnavailable(InterfaceKind),
    /// The operation needs emulation RAM this variant lacks.
    NoEmulationRam,
    /// A bus fault during a debug access.
    Bus(BusFault),
    /// The core did not halt within the supervision timeout.
    CoreUnresponsive(CoreId),
    /// The operation requires the core to be halted.
    CoreNotHalted(CoreId),
    /// No core with this id.
    NoSuchCore(CoreId),
    /// The flash range is invalid.
    BadFlashRange {
        /// Offending address.
        addr: u32,
    },
    /// A command or response frame was lost on the link (injected fault);
    /// the host observes this as a timeout. The operation may or may not
    /// have executed on the device — exactly the ambiguity real debug
    /// tools must resolve with retry and resynchronization.
    LinkTimeout(InterfaceKind),
    /// The debug bus master was never granted the bus. With fixed-priority
    /// arbitration the debug master ranks below every core, so cores that
    /// saturate the bus can starve it indefinitely; rather than livelock,
    /// the access gives up after a bounded number of cycles.
    BusStarved {
        /// Cycles the access waited before giving up.
        waited: u64,
    },
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::InterfaceUnavailable(k) => {
                write!(f, "interface {k} not fitted on this variant")
            }
            DeviceError::NoEmulationRam => write!(f, "no emulation RAM on this variant"),
            DeviceError::Bus(e) => write!(f, "debug bus access failed: {e}"),
            DeviceError::CoreUnresponsive(c) => write!(f, "{c} did not halt in time"),
            DeviceError::CoreNotHalted(c) => write!(f, "{c} must be halted"),
            DeviceError::NoSuchCore(c) => write!(f, "no such core {c}"),
            DeviceError::BadFlashRange { addr } => {
                write!(f, "address {addr:#010x} outside program flash")
            }
            DeviceError::LinkTimeout(k) => {
                write!(f, "{k} link timed out (frame lost or corrupted)")
            }
            DeviceError::BusStarved { waited } => {
                write!(
                    f,
                    "debug bus master starved: no grant within {waited} cycles"
                )
            }
        }
    }
}

impl std::error::Error for DeviceError {}

/// How many cycles a debug-master bus access waits for a grant before
/// failing with [`DeviceError::BusStarved`]. Uncontended grants take a few
/// cycles; even heavy multi-master contention resolves within tens. The
/// bound exists because fixed-priority arbitration can starve the debug
/// master forever while every core keeps the bus saturated.
pub const BUS_STARVATION_LIMIT: u64 = 2_000;

impl From<BusFault> for DeviceError {
    fn from(e: BusFault) -> DeviceError {
        DeviceError::Bus(e)
    }
}

/// Flash erase time per 64 KB sector (automotive NOR class).
const FLASH_ERASE_NS_PER_64K: u64 = 600_000_000;

/// Flash program time per byte.
const FLASH_PROGRAM_NS_PER_BYTE: u64 = 3_000;

/// Returns the simulated cycles to erase+program `len` bytes of flash.
pub fn flash_reprogram_cycles(len: usize) -> u64 {
    let sectors = (len as u64).div_ceil(64 * 1024);
    memmap::ns_to_cycles(sectors * FLASH_ERASE_NS_PER_64K + len as u64 * FLASH_PROGRAM_NS_PER_BYTE)
}

/// A serializable device recipe: everything needed to rebuild a device
/// with a structurally identical configuration — the precondition for
/// restoring a [`mcds_psi` snapshot](DeviceState) captured from the
/// original. Remote services (the debug farm) ship this over the wire and
/// persist it next to suspended sessions so revival can reconstruct the
/// exact same hardware.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone)]
pub struct DeviceSpec {
    /// The PSI construction variant.
    pub variant: DeviceVariant,
    /// Per-core reset configuration (at least one).
    pub cores: Vec<CoreConfig>,
    /// MCDS configuration; `None` leaves the block in its default
    /// (trace-idle) configuration.
    pub mcds: Option<McdsConfig>,
    /// Fits the DMA controller.
    pub with_dma: bool,
    /// Overrides flash wait states.
    pub flash_wait_states: Option<u32>,
}

impl DeviceSpec {
    /// A spec for `variant` with `n` default cores.
    pub fn with_cores(variant: DeviceVariant, n: usize) -> DeviceSpec {
        DeviceSpec {
            variant,
            cores: vec![CoreConfig::default(); n.max(1)],
            mcds: None,
            with_dma: false,
            flash_wait_states: None,
        }
    }

    /// Builds the device this spec describes. Two builds of the same spec
    /// are structurally identical, so a snapshot captured from one restores
    /// into the other.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is empty.
    pub fn build(&self) -> Device {
        let mut builder = DeviceBuilder::new(self.variant);
        for c in &self.cores {
            builder = builder.core(*c);
        }
        if let Some(mcds) = &self.mcds {
            builder = builder.mcds(mcds.clone());
        }
        if self.with_dma {
            builder = builder.with_dma();
        }
        if let Some(ws) = self.flash_wait_states {
            builder = builder.flash_wait_states(ws);
        }
        builder.build()
    }
}

/// Builder for a [`Device`].
pub struct DeviceBuilder {
    variant: DeviceVariant,
    cores: Vec<CoreConfig>,
    mcds: McdsConfig,
    trace_segments: Vec<usize>,
    trace_policy: FullPolicy,
    trace_sync_interval: Option<u64>,
    flash_wait_states: Option<u32>,
    dma: bool,
}

impl DeviceBuilder {
    /// Starts a builder for `variant`.
    pub fn new(variant: DeviceVariant) -> DeviceBuilder {
        DeviceBuilder {
            variant,
            cores: Vec::new(),
            mcds: McdsConfig::default(),
            trace_segments: vec![6, 7],
            trace_policy: FullPolicy::Stop,
            trace_sync_interval: None,
            flash_wait_states: None,
            dma: false,
        }
    }

    /// Fits the DMA controller (an extra bus master).
    pub fn with_dma(mut self) -> DeviceBuilder {
        self.dma = true;
        self
    }

    /// Adds `n` default-configured cores.
    pub fn cores(mut self, n: usize) -> DeviceBuilder {
        for _ in 0..n {
            self.cores.push(CoreConfig::default());
        }
        self
    }

    /// Adds one core with an explicit configuration.
    pub fn core(mut self, config: CoreConfig) -> DeviceBuilder {
        self.cores.push(config);
        self
    }

    /// Sets the MCDS configuration. If `mcds.cores` is empty it is expanded
    /// to default per-core configs at build time.
    pub fn mcds(mut self, config: McdsConfig) -> DeviceBuilder {
        self.mcds = config;
        self
    }

    /// Selects which emulation-RAM segments hold trace (the rest become
    /// calibration overlay). Default: segments 6 and 7 (128 KB — "the trace
    /// features … require just a fraction" of the 512 KB).
    pub fn trace_segments(mut self, segments: Vec<usize>) -> DeviceBuilder {
        self.trace_segments = segments;
        self
    }

    /// Sets the trace-full policy.
    pub fn trace_policy(mut self, policy: FullPolicy) -> DeviceBuilder {
        self.trace_policy = policy;
        self
    }

    /// Emits a stream-level sync record every `interval` trace messages
    /// (absolute timestamp + compression reset), letting host-side decoders
    /// resynchronize after a corrupt region of an uploaded trace. Off by
    /// default — a lossless link does not need the extra bytes.
    pub fn trace_sync_interval(mut self, interval: u64) -> DeviceBuilder {
        self.trace_sync_interval = Some(interval);
        self
    }

    /// Overrides flash wait states.
    pub fn flash_wait_states(mut self, ws: u32) -> DeviceBuilder {
        self.flash_wait_states = Some(ws);
        self
    }

    /// Builds the device.
    ///
    /// # Panics
    ///
    /// Panics if no cores were configured.
    pub fn build(mut self) -> Device {
        assert!(!self.cores.is_empty(), "device needs at least one core");
        let core_count = self.cores.len();
        let mut soc_builder = SocBuilder::new();
        if let Some(ws) = self.flash_wait_states {
            soc_builder = soc_builder.flash_wait_states(ws);
        }
        for c in &self.cores {
            soc_builder = soc_builder.core(*c);
        }
        let info = self.variant.info();
        let segments = (info.emulation_ram_bytes / (64 * 1024)) as usize;
        if segments > 0 {
            soc_builder = soc_builder.with_emulation_ram_segments(segments);
        }
        if self.dma {
            soc_builder = soc_builder.with_dma();
        }
        let mut soc = soc_builder.build();

        let sink = if segments > 0 {
            let emem = soc.mapper_mut().emem_mut().expect("device has emem");
            for s in 0..emem.segment_count() {
                emem.set_segment_role(s, SegmentRole::Overlay);
            }
            // Keep only the trace segments that exist on this variant; a
            // small selective-integration region defaults to its last (or
            // only) segment.
            let mut trace_segments: Vec<usize> = self
                .trace_segments
                .iter()
                .copied()
                .filter(|&s| s < segments)
                .collect();
            if trace_segments.is_empty() {
                trace_segments.push(segments - 1);
            }
            for &s in &trace_segments {
                emem.set_segment_role(s, SegmentRole::Trace);
            }
            TraceSink::new(emem, trace_segments, self.trace_policy)
        } else {
            TraceSink::discarding()
        };
        let sink = match self.trace_sync_interval {
            Some(n) => sink.with_sync_interval(n),
            None => sink,
        };

        if self.mcds.cores.is_empty() {
            self.mcds.cores = vec![Default::default(); core_count];
        }
        let mcds = Mcds::new(self.mcds);

        Device {
            variant: self.variant,
            soc,
            mcds,
            sink,
            jtag: InterfaceModel::jtag(),
            usb: info.has_usb.then(InterfaceModel::usb11),
            can: InterfaceModel::can(),
            service: info
                .has_service_core
                .then(|| ServiceProcessor::new(core_count)),
            trigger_out_log: Vec::new(),
            sink_dropped: 0,
            faults: HashMap::new(),
            telemetry: None,
        }
    }
}

/// The adapter sink of an observe-only device's batched stretch: it hands
/// the MCDS each delivered cycle's core events at their exact cycle, and
/// the sink drains of the event-free cycles in between in closed form
/// ([`Mcds::advance_quiet`]). Drained messages stay in the MCDS until the
/// stretch ends and the device stores them; the kernel keeps emulation-RAM
/// accesses out of the blocks of any sink that does not
/// [discard](CycleSink::discards), which this one does only while the
/// MCDS is idle (then the kernel runs its unobserved blocks).
struct McdsFeed<'a> {
    mcds: &'a mut Mcds,
    /// The first cycle the MCDS has not seen yet.
    next: u64,
}

impl CycleSink for McdsFeed<'_> {
    fn observe(&mut self, cycle: u64, events: &[SocEvent]) {
        self.mcds.advance_quiet(self.next, cycle);
        let outputs = self.mcds.on_cycle(cycle, events);
        debug_assert!(outputs.is_empty(), "an observe-only MCDS never triggers");
        self.next = cycle + 1;
    }

    fn wants_cycles(&self) -> bool {
        false
    }

    fn discards(&self) -> bool {
        self.mcds.is_idle()
    }
}

/// A stable per-link code used to key serialized fault-injector state
/// deterministically (`Jtag = 0`, `Usb11 = 1`, `Can = 2`).
fn kind_code(kind: InterfaceKind) -> u8 {
    match kind {
        InterfaceKind::Jtag => 0,
        InterfaceKind::Usb11 => 1,
        InterfaceKind::Can => 2,
    }
}

fn kind_from_code(code: u8) -> InterfaceKind {
    match code {
        0 => InterfaceKind::Jtag,
        1 => InterfaceKind::Usb11,
        2 => InterfaceKind::Can,
        _ => panic!("unknown interface code {code} in saved device state"),
    }
}

/// Serializable runtime state of a whole [`Device`] — everything except the
/// memory contents (flash, SRAM, emulation RAM), which are exposed with
/// their page summaries by [`mcds_soc::soc::Soc::memory`] and snapshotted
/// separately as page lists.
///
/// Restoring requires a device built with the identical configuration
/// (variant, cores, MCDS config, trace segments); the restore methods
/// assert structural compatibility.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone)]
pub struct DeviceState {
    soc: SocState,
    mcds: McdsState,
    sink: SinkState,
    jtag: LinkStats,
    usb: Option<LinkStats>,
    can: LinkStats,
    service: Option<ServiceState>,
    trigger_out_log: Vec<(u64, u8)>,
    sink_dropped: u64,
    faults: Vec<(u8, FaultInjectorState)>,
}

/// An attached telemetry handle plus the bus-counter baseline captured at
/// attach time (the reference point for the `mcds_bus_window_*` gauges).
///
/// Deliberately NOT part of [`DeviceState`]: telemetry lives outside the
/// determinism boundary — it is never serialized, hashed, or replayed.
pub(crate) struct DeviceTelemetry {
    pub(crate) handle: Telemetry,
    pub(crate) bus_baseline: BusCounters,
}

/// The assembled device.
pub struct Device {
    variant: DeviceVariant,
    soc: Soc,
    mcds: Mcds,
    sink: TraceSink,
    jtag: InterfaceModel,
    usb: Option<InterfaceModel>,
    can: InterfaceModel,
    service: Option<ServiceProcessor>,
    trigger_out_log: Vec<(u64, u8)>,
    sink_dropped: u64,
    faults: HashMap<InterfaceKind, FaultInjector>,
    pub(crate) telemetry: Option<DeviceTelemetry>,
}

impl fmt::Debug for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Device")
            .field("variant", &self.variant)
            .field("cycle", &self.soc.cycle())
            .finish()
    }
}

impl Device {
    /// The construction variant.
    pub fn variant(&self) -> DeviceVariant {
        self.variant
    }

    /// The underlying SoC (backdoor; no simulated time).
    pub fn soc(&self) -> &Soc {
        &self.soc
    }

    /// Mutable backdoor to the SoC (program loading, sensor stimulus).
    pub fn soc_mut(&mut self) -> &mut Soc {
        &mut self.soc
    }

    /// The MCDS block.
    pub fn mcds(&self) -> &Mcds {
        &self.mcds
    }

    /// Mutable backdoor to the MCDS block (zero-cost reconfiguration for
    /// experiments; hosts should use [`DebugOp::Reconfigure`]).
    pub fn mcds_mut(&mut self) -> &mut Mcds {
        &mut self.mcds
    }

    /// The trace sink.
    pub fn sink(&self) -> &TraceSink {
        &self.sink
    }

    /// Split mutable access to the SoC and the trace sink (so callers can
    /// store residual messages through the same path the hardware uses).
    pub fn soc_sink_mut(&mut self) -> (&mut Soc, &mut TraceSink) {
        (&mut self.soc, &mut self.sink)
    }

    /// The service processor, if fitted.
    pub fn service(&self) -> Option<&ServiceProcessor> {
        self.service.as_ref()
    }

    /// Mutable access to the service processor, if fitted.
    pub fn service_mut(&mut self) -> Option<&mut ServiceProcessor> {
        self.service.as_mut()
    }

    /// An interface's model (statistics, throughput numbers).
    pub fn interface(&self, kind: InterfaceKind) -> Option<&InterfaceModel> {
        match kind {
            InterfaceKind::Jtag => Some(&self.jtag),
            InterfaceKind::Usb11 => self.usb.as_ref(),
            InterfaceKind::Can => Some(&self.can),
        }
    }

    /// Mutable access to an interface's model. External fabrics (the
    /// virtual-vehicle CAN bus) use this to account the frames they carry
    /// on the device's own bus port, so per-device link statistics reflect
    /// vehicle traffic as well as debug traffic.
    ///
    /// The link statistics live inside [`DeviceState`], so fabric-side
    /// accounting participates in snapshot/replay like every other input.
    pub fn interface_mut(&mut self, kind: InterfaceKind) -> Option<&mut InterfaceModel> {
        match kind {
            InterfaceKind::Jtag => Some(&mut self.jtag),
            InterfaceKind::Usb11 => self.usb.as_mut(),
            InterfaceKind::Can => Some(&mut self.can),
        }
    }

    /// Installs a deterministic fault plan on one link, replacing any
    /// prior plan (and resetting its statistics). Until cleared, every
    /// command, response and trace upload crossing that link runs through
    /// the plan's frame-fate draws.
    pub fn set_fault_plan(&mut self, kind: InterfaceKind, plan: FaultPlan) {
        self.faults.insert(kind, FaultInjector::new(kind, plan));
    }

    /// Removes the fault plan from one link, restoring lossless delivery.
    pub fn clear_fault_plan(&mut self, kind: InterfaceKind) {
        self.faults.remove(&kind);
    }

    /// The fault plan active on a link, if any.
    pub fn fault_plan(&self, kind: InterfaceKind) -> Option<&FaultPlan> {
        self.faults.get(&kind).map(|i| i.plan())
    }

    /// Cumulative fault statistics for a link (None if no plan installed).
    pub fn fault_stats(&self, kind: InterfaceKind) -> Option<FaultStats> {
        self.faults.get(&kind).map(|i| i.stats())
    }

    /// Attaches a telemetry bundle. Sampling is strictly observational:
    /// an attached device simulates bit-identically to a detached one (the
    /// suite's determinism test proves it). The bus counters at attach
    /// time become the baseline for the `mcds_bus_window_*` gauges.
    pub fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = Some(DeviceTelemetry {
            handle: telemetry,
            bus_baseline: self.soc.bus_counters().clone(),
        });
    }

    /// Detaches telemetry; subsequent sampling is skipped entirely.
    pub fn detach_telemetry(&mut self) {
        self.telemetry = None;
    }

    /// The attached telemetry bundle, if any (layers above the device —
    /// the XCP master, host sessions, replay — publish through this).
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_ref().map(|t| &t.handle)
    }

    /// Messages the sink had to drop (production devices without trace
    /// memory).
    pub fn sink_dropped(&self) -> u64 {
        self.sink_dropped
    }

    /// MCDS trigger-out pin pulses as `(cycle, pin)`.
    pub fn trigger_out_log(&self) -> &[(u64, u8)] {
        &self.trigger_out_log
    }

    /// Captures the device's full runtime state except memory contents
    /// (see [`DeviceState`]).
    pub fn save_state(&self) -> DeviceState {
        let mut faults: Vec<(u8, FaultInjectorState)> = self
            .faults
            .iter()
            .map(|(&kind, inj)| (kind_code(kind), inj.save_state()))
            .collect();
        faults.sort_unstable_by_key(|&(code, _)| code);
        DeviceState {
            soc: self.soc.save_state(),
            mcds: self.mcds.save_state(),
            sink: self.sink.save_state(),
            jtag: self.jtag.save_state(),
            usb: self.usb.as_ref().map(InterfaceModel::save_state),
            can: self.can.save_state(),
            service: self.service.as_ref().map(ServiceProcessor::save_state),
            trigger_out_log: self.trigger_out_log.clone(),
            sink_dropped: self.sink_dropped,
            faults,
        }
    }

    /// Restores state captured by [`Device::save_state`] onto a device
    /// built with the identical configuration. Memory contents are restored
    /// separately via [`mcds_soc::soc::Soc::restore_memory_pages`].
    ///
    /// # Panics
    ///
    /// Panics on structural mismatch (core count, fitted USB/service core,
    /// sink capacity, MCDS shape).
    pub fn restore_state(&mut self, state: &DeviceState) {
        self.soc.restore_state(&state.soc);
        self.mcds.restore_state(&state.mcds);
        self.sink.restore_state(&state.sink);
        self.jtag.restore_state(&state.jtag);
        match (self.usb.as_mut(), state.usb.as_ref()) {
            (Some(model), Some(s)) => model.restore_state(s),
            (None, None) => {}
            _ => panic!("USB fitment mismatch on restore"),
        }
        self.can.restore_state(&state.can);
        match (self.service.as_mut(), state.service.as_ref()) {
            (Some(proc), Some(s)) => proc.restore_state(s),
            (None, None) => {}
            _ => panic!("service-core fitment mismatch on restore"),
        }
        self.trigger_out_log = state.trigger_out_log.clone();
        self.sink_dropped = state.sink_dropped;
        self.faults = state
            .faults
            .iter()
            .map(|(code, s)| {
                let kind = kind_from_code(*code);
                (kind, FaultInjector::from_state(kind, s))
            })
            .collect();
    }

    /// Advances the device one SoC cycle on the streaming hot path: steps
    /// the SoC, runs the MCDS and service-core monitors on the borrowed
    /// event slice, pushes the same slice into `sink`, applies
    /// break/suspend outputs and stores trace — all without materialising
    /// a [`CycleRecord`].
    ///
    /// Delivery order within the cycle: MCDS, then service-core monitors,
    /// then `sink` (so a sink observes a cycle only after the device's own
    /// observers have). On an untraced device (idle MCDS, idle or absent
    /// service core) all of that is a provable no-op, and the cycle is the
    /// bare [`Soc::step_into`].
    pub fn step_into<S: CycleSink + ?Sized>(&mut self, sink: &mut S) {
        // Split borrow: soc (scratch events), mcds and service are
        // disjoint fields, so the borrowed event slice can feed all
        // observers without a copy.
        let Device {
            soc, mcds, service, ..
        } = self;
        // An idle MCDS and service core do nothing on any cycle (neither
        // can become busy inside it): the cycle is the bare SoC step.
        if mcds.is_idle() && service.as_ref().is_none_or(ServiceProcessor::is_idle) {
            soc.step_into(sink);
            return;
        }
        let (cycle, events) = soc.step_events();
        let outputs = mcds.on_cycle(cycle, events);
        if let Some(s) = service.as_mut() {
            s.observe(cycle, events);
        }
        sink.observe(cycle, events);
        for c in outputs.break_cores {
            self.soc.core_mut(c).request_break();
        }
        for c in outputs.suspend_cores {
            self.soc.core_mut(c).set_suspended(true);
        }
        for c in outputs.resume_cores {
            self.soc.core_mut(c).set_suspended(false);
        }
        for pin in outputs.trigger_out_pins {
            self.trigger_out_log.push((cycle, pin));
        }
        self.store_trace(cycle, cycle);
    }

    /// Stores the messages the MCDS has drained into the trace segments
    /// (counting them dropped without emulation RAM) through
    /// [`Soc::emem_segments_mut`], which leaves the kernel's decode cache
    /// alone unless an overlay maps code onto trace memory. `first..=last`
    /// are the cycles the messages were drained on (the telemetry span).
    fn store_trace(&mut self, first: u64, last: u64) {
        let messages = self.mcds.take_messages();
        if messages.is_empty() {
            return;
        }
        let span_t0 = self.telemetry.as_ref().map(|_| Instant::now());
        // Split borrow: soc, sink and the drop count are disjoint fields.
        let Device {
            soc,
            sink,
            sink_dropped,
            ..
        } = self;
        let stored = match soc.emem_segments_mut(sink.segments()) {
            Some(emem) => sink.store(&messages, emem),
            None => 0,
        };
        *sink_dropped += (messages.len() - stored) as u64;
        if let (Some(t0), Some(tel)) = (span_t0, self.telemetry.as_ref()) {
            tel.handle.span(
                Subsystem::TraceEncode,
                first,
                last,
                t0.elapsed().as_nanos() as u64,
            );
        }
    }

    /// Advances the device one SoC cycle and returns the cycle's observable
    /// events as an owned record (legacy batch wrapper over
    /// [`Device::step_into`]; allocates per cycle).
    pub fn step(&mut self) -> CycleRecord {
        let mut collect = Collect::new();
        self.step_into(&mut collect);
        collect
            .records
            .pop()
            .expect("step_into observes exactly one cycle")
    }

    /// True when a run may feed the MCDS events instead of cycles: the
    /// MCDS is observe-only ([`mcds::Mcds::is_observe_only`]; an idle MCDS,
    /// [`mcds::Mcds::is_idle`], is too), the service core idle
    /// ([`ServiceProcessor::is_idle`]), the sink content with the core
    /// events of batched cycles and the kernel in
    /// [`ExecMode::BlockBatched`]. None of these can change inside a run.
    fn observes_events_only<S: CycleSink + ?Sized>(&self, sink: &S) -> bool {
        self.mcds.is_observe_only()
            && self.service.as_ref().is_none_or(ServiceProcessor::is_idle)
            && !sink.wants_cycles()
            && self.soc.exec_mode() == ExecMode::BlockBatched
    }

    /// The single device run loop: advances up to `max_cycles` or, with a
    /// `stop`, until the halted cores satisfy it (on the exact cycle, in
    /// every path), streaming observed cycles into `sink`. Returns the
    /// cycles consumed.
    ///
    /// A device whose MCDS only observes ([`mcds::Mcds::is_observe_only`],
    /// as an untraced device's idle MCDS does too; service core idle,
    /// sink content with events, kernel batching) alternates batched
    /// stretches with exact steps. Each stretch runs
    /// [`mcds_soc::soc::Soc::run_batched`] and hands the MCDS every cycle
    /// with core events at its exact cycle plus the closed-form drains of
    /// the cycles between ([`mcds::Mcds::advance_quiet`]), then stores the
    /// drained messages; every cycle the kernel would step is a full
    /// [`Device::step_into`]. Trace memory is bus-readable, so a stretch
    /// never lets a bus master read it before the store: data accesses
    /// into the emulation-RAM and overlay-control windows end the blocks,
    /// and no stretch runs while an overlay maps code onto the trace
    /// segments. An idle MCDS makes the stretch the plain kernel run: no
    /// events are kept, nothing is fenced, nothing drains and overlays do
    /// not matter. Otherwise every cycle is a [`Device::step_into`].
    pub fn run_into<S: CycleSink + ?Sized>(
        &mut self,
        max_cycles: u64,
        stop: Option<HaltStop>,
        sink: &mut S,
    ) -> u64 {
        let start = self.soc.cycle();
        let target = start.saturating_add(max_cycles);
        let stopped = |soc: &Soc| stop.is_some_and(|s| s.reached(soc));
        // Like the kernel, a run entered already stopped still steps once.
        let batch = self.observes_events_only(sink) && !stopped(&self.soc);
        while self.soc.cycle() < target {
            if batch {
                self.run_stretch(target, stop, sink);
                if self.soc.cycle() >= target || stopped(&self.soc) {
                    break;
                }
            }
            self.step_into(sink);
            if stopped(&self.soc) {
                break;
            }
        }
        self.soc.cycle() - start
    }

    /// One batched stretch of an observe-only device (see
    /// [`Device::run_into`]): runs the kernel until it needs an exact step,
    /// feeding the MCDS through [`McdsFeed`], then stores what drained.
    fn run_stretch<S: CycleSink + ?Sized>(
        &mut self,
        target: u64,
        stop: Option<HaltStop>,
        sink: &mut S,
    ) {
        // Code read from trace memory would fetch bytes the stretch stores
        // only at its end (an idle MCDS stores nothing).
        if !self.mcds.is_idle() && self.soc.mapper().maps_onto(self.sink.segments()) {
            return;
        }
        let Device { soc, mcds, .. } = self;
        let start = soc.cycle();
        let mut feed = McdsFeed { mcds, next: start };
        soc.run_batched(target, stop, &mut FanOut::new(&mut feed, &mut *sink));
        let end = soc.cycle();
        feed.mcds.advance_quiet(feed.next, end);
        if end > start {
            self.store_trace(start, end - 1);
        }
    }

    /// Steps `n` cycles, discarding events (streams into [`NullSink`]; no
    /// per-cycle records are allocated).
    pub fn run_cycles(&mut self, n: u64) {
        self.run_into(n, None, &mut NullSink);
    }

    /// Steps `n` cycles streaming events into `sink`.
    pub fn run_cycles_into<S: CycleSink + ?Sized>(&mut self, n: u64, sink: &mut S) {
        self.run_into(n, None, sink);
    }

    /// Steps until all cores halt or `max_cycles` pass, streaming each
    /// cycle's events into `sink`; returns the number of cycles stepped.
    /// Memory use is the sink's choice — long supervised runs should pass
    /// [`NullSink`] or a bounded observer rather than collecting.
    pub fn run_until_halt_into<S: CycleSink + ?Sized>(
        &mut self,
        max_cycles: u64,
        sink: &mut S,
    ) -> u64 {
        self.run_into(max_cycles, Some(HaltStop::All), sink)
    }

    /// The SoC execution kernel's mode (see [`mcds_soc::ExecMode`]): a
    /// speed knob for unobserved runs, bit-identical across settings.
    pub fn exec_mode(&self) -> mcds_soc::ExecMode {
        self.soc.exec_mode()
    }

    /// Sets the SoC execution kernel's mode.
    pub fn set_exec_mode(&mut self, mode: mcds_soc::ExecMode) {
        self.soc.set_exec_mode(mode);
    }

    /// Kernel cycle-accounting counters (stepped / skipped / batched).
    pub fn exec_stats(&self) -> &mcds_soc::ExecStats {
        self.soc.exec_stats()
    }

    /// Resets the kernel cycle-accounting counters.
    pub fn reset_exec_stats(&mut self) {
        self.soc.reset_exec_stats()
    }

    /// Steps until all cores halt or `max_cycles` pass; returns the records
    /// (legacy batch wrapper over [`Device::run_until_halt_into`] +
    /// [`Collect`]; memory grows with run length).
    pub fn run_until_halt(&mut self, max_cycles: u64) -> Vec<CycleRecord> {
        let mut collect = Collect::new();
        self.run_until_halt_into(max_cycles, &mut collect);
        collect.into_records()
    }

    /// Lets `cycles` of simulated time pass. With all cores halted and
    /// the debug bus idle (a link wait on a stopped target) only the SoC
    /// advances — through the execution kernel's exact skip, so timers
    /// and counters move as under stepping — and the MCDS and service
    /// core stay unclocked; otherwise the whole device runs.
    pub fn wait_cycles(&mut self, cycles: u64) {
        if self.soc.cores().all(|c| c.is_halted()) && !self.soc.debug_busy() {
            self.soc.run_cycles(cycles);
        } else {
            self.run_cycles(cycles);
        }
    }

    /// A debug-master bus access that advances the device until completion.
    ///
    /// # Errors
    ///
    /// Returns the bus fault if the access failed, or
    /// [`DeviceError::BusStarved`] if fixed-priority arbitration never
    /// granted the (lowest-priority) debug master within
    /// [`BUS_STARVATION_LIMIT`] cycles — e.g. while several cores saturate
    /// the bus.
    pub fn bus_access(&mut self, request: BusRequest) -> Result<u32, DeviceError> {
        let start_cycle = self.soc.cycle();
        let span_t0 = self.telemetry.as_ref().map(|_| Instant::now());
        // A previously starved access may leave a completion behind if its
        // transaction was already in flight when we gave up; it belongs to
        // that abandoned request, not this one.
        let _ = self.soc.take_debug_completion();
        self.soc.debug_request(request);
        let waited = self.run_into(
            BUS_STARVATION_LIMIT,
            Some(HaltStop::DebugDone),
            &mut NullSink,
        );
        let Some(c) = self.soc.take_debug_completion() else {
            self.soc.cancel_debug_request();
            return Err(DeviceError::BusStarved { waited });
        };
        if let (Some(t0), Some(tel)) = (span_t0, self.telemetry.as_ref()) {
            tel.handle.span(
                Subsystem::BusArbitration,
                start_cycle,
                self.soc.cycle(),
                t0.elapsed().as_nanos() as u64,
            );
        }
        match c.fault {
            Some(f) => Err(DeviceError::Bus(f)),
            None => Ok(c.rdata),
        }
    }

    /// Runs the device until `core` halts, for at most `max_cycles`.
    fn run_until_core_halts(
        &mut self,
        core: CoreId,
        max_cycles: u64,
    ) -> Result<DebugResponse, DeviceError> {
        if !self.soc.core(core).is_halted() {
            self.run_into(max_cycles, Some(HaltStop::Core(core)), &mut NullSink);
        }
        if self.soc.core(core).is_halted() {
            Ok(DebugResponse::Ack)
        } else {
            Err(DeviceError::CoreUnresponsive(core))
        }
    }

    /// Debug-master word read (steps the device).
    pub fn bus_read_word(&mut self, addr: u32) -> Result<u32, DeviceError> {
        self.bus_access(BusRequest {
            addr,
            width: MemWidth::Word,
            kind: XferKind::Read,
            wdata: 0,
        })
    }

    /// Debug-master word write (steps the device).
    pub fn bus_write_word(&mut self, addr: u32, value: u32) -> Result<(), DeviceError> {
        self.bus_access(BusRequest {
            addr,
            width: MemWidth::Word,
            kind: XferKind::Write,
            wdata: value,
        })
        .map(|_| ())
    }

    fn check_core(&self, core: CoreId) -> Result<(), DeviceError> {
        if (core.0 as usize) < self.soc.core_count() {
            Ok(())
        } else {
            Err(DeviceError::NoSuchCore(core))
        }
    }

    fn perform(&mut self, op: DebugOp) -> Result<DebugResponse, DeviceError> {
        match op {
            DebugOp::ReadWords { addr, count } => {
                let mut words = Vec::with_capacity(count);
                for i in 0..count {
                    words.push(self.bus_read_word(addr + 4 * i as u32)?);
                }
                Ok(DebugResponse::Words(words))
            }
            DebugOp::WriteWords { addr, data } => {
                for (i, w) in data.iter().enumerate() {
                    self.bus_write_word(addr + 4 * i as u32, *w)?;
                }
                Ok(DebugResponse::Ack)
            }
            DebugOp::HaltCore(core) => {
                self.check_core(core)?;
                self.soc.core_mut(core).request_break();
                // Supervise: a core stuck on a slow bus transaction still
                // reaches its instruction boundary quickly.
                self.run_until_core_halts(core, 10_000)
            }
            DebugOp::ResumeCore(core) => {
                self.check_core(core)?;
                self.soc.core_mut(core).resume();
                Ok(DebugResponse::Ack)
            }
            DebugOp::StepCore(core, n) => {
                self.check_core(core)?;
                if !self.soc.core(core).is_halted() {
                    return Err(DeviceError::CoreNotHalted(core));
                }
                self.soc.core_mut(core).step_instructions(n);
                self.run_until_core_halts(core, 10_000 * n.max(1))
            }
            DebugOp::ReadReg(core, r) => {
                self.check_core(core)?;
                if !self.soc.core(core).is_halted() {
                    return Err(DeviceError::CoreNotHalted(core));
                }
                Ok(DebugResponse::Value(self.soc.core(core).reg(r)))
            }
            DebugOp::WriteReg(core, r, v) => {
                self.check_core(core)?;
                if !self.soc.core(core).is_halted() {
                    return Err(DeviceError::CoreNotHalted(core));
                }
                self.soc.core_mut(core).set_reg(r, v);
                Ok(DebugResponse::Ack)
            }
            DebugOp::ReadPc(core) => {
                self.check_core(core)?;
                if !self.soc.core(core).is_halted() {
                    return Err(DeviceError::CoreNotHalted(core));
                }
                Ok(DebugResponse::Value(self.soc.core(core).pc()))
            }
            DebugOp::SetPc(core, pc) => {
                self.check_core(core)?;
                if !self.soc.core(core).is_halted() {
                    return Err(DeviceError::CoreNotHalted(core));
                }
                self.soc.core_mut(core).set_pc(pc);
                Ok(DebugResponse::Ack)
            }
            DebugOp::ReadTrace => {
                let emem = self
                    .soc
                    .mapper()
                    .emem()
                    .ok_or(DeviceError::NoEmulationRam)?;
                Ok(DebugResponse::TraceBytes(self.sink.read_back(emem)))
            }
            DebugOp::Reconfigure(config) => {
                self.mcds.reconfigure(*config);
                Ok(DebugResponse::Ack)
            }
            DebugOp::ProgramFlash { addr, bytes } => {
                let flash_end = memmap::FLASH_BASE + memmap::FLASH_SIZE;
                if addr < memmap::FLASH_BASE
                    || (addr as u64 + bytes.len() as u64) > flash_end as u64
                {
                    return Err(DeviceError::BadFlashRange { addr });
                }
                self.wait_cycles(flash_reprogram_cycles(bytes.len()));
                self.soc
                    .mapper_mut()
                    .flash_mut()
                    .program(addr - memmap::FLASH_BASE, &bytes);
                Ok(DebugResponse::Ack)
            }
            DebugOp::ReadStats => Ok(DebugResponse::Stats {
                mcds: self.mcds.stats(),
                sink_used: self.sink.used(),
                sink_capacity: self.sink.capacity(),
            }),
        }
    }

    /// Executes a debug command over the given link, paying its latency,
    /// transfer time and driver overhead in simulated time while the device
    /// keeps running.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InterfaceUnavailable`] if the variant lacks
    /// the link, [`DeviceError::LinkTimeout`] if an injected fault ate a
    /// command or response frame, or the underlying operation's error.
    pub fn execute(
        &mut self,
        kind: InterfaceKind,
        op: DebugOp,
    ) -> Result<DebugResponse, DeviceError> {
        if self.interface(kind).is_none() {
            return Err(DeviceError::InterfaceUnavailable(kind));
        }
        let span_t0 = self.telemetry.as_ref().map(|_| Instant::now());
        let start = self.soc.cycle();
        let request_bytes = op.request_bytes();
        let overhead = match self.service.as_mut() {
            Some(s) => s.process_command(kind),
            None => crate::service::command_overhead_cycles(InterfaceKind::Jtag),
        };
        let iface = self.interface(kind).expect("checked above");
        let inbound =
            iface.request_latency_cycles() + iface.transfer_cycles(request_bytes) + overhead;
        let frame_payload = iface.frame_payload();
        let request_frames = iface.frames_for(request_bytes.max(1));
        self.wait_cycles(inbound);
        // Command-direction faults: a lost or corrupted command frame means
        // the device never sees a coherent command — the host observes a
        // timeout and the operation does NOT execute.
        self.transmit_frames(kind, request_frames)?;
        let response = self.perform(op)?;
        let iface = self.interface(kind).expect("checked above");
        let response_bytes = response.response_bytes();
        let outbound = iface.transfer_cycles(response_bytes) + iface.response_latency_cycles();
        let response_frames = iface.frames_for(response_bytes.max(1));
        self.wait_cycles(outbound);
        let response = match response {
            // Bulk trace upload: faults perturb the payload itself — dropped
            // frames leave gaps, corrupted frames carry a flipped bit — and
            // the damaged stream is still delivered. Surviving that is the
            // trace decoder's job (sync markers + resync), not the link's.
            DebugResponse::TraceBytes(bytes) => {
                let now = self.soc.cycle();
                match self.faults.get_mut(&kind) {
                    Some(inj) => {
                        let (mangled, delay) = inj.mangle_payload(&bytes, frame_payload, now);
                        self.wait_cycles(delay);
                        DebugResponse::TraceBytes(mangled)
                    }
                    None => DebugResponse::TraceBytes(bytes),
                }
            }
            // Control responses: link CRCs discard damaged frames, so a lost
            // or corrupted response frame is a host-side timeout — but the
            // operation DID execute, so device state (e.g. an auto-increment
            // MTA) has already advanced. Retry layers must handle this.
            other => {
                self.transmit_frames(kind, response_frames)?;
                other
            }
        };
        let busy = self.soc.cycle() - start;
        let payload = request_bytes + response.response_bytes();
        match kind {
            InterfaceKind::Jtag => self.jtag.record_transaction(payload, busy),
            InterfaceKind::Usb11 => {
                if let Some(u) = self.usb.as_mut() {
                    u.record_transaction(payload, busy);
                }
            }
            InterfaceKind::Can => self.can.record_transaction(payload, busy),
        }
        if let (Some(t0), Some(tel)) = (span_t0, self.telemetry.as_ref()) {
            tel.handle.span(
                Subsystem::DebugLink,
                start,
                self.soc.cycle(),
                t0.elapsed().as_nanos() as u64,
            );
            crate::telemetry::debug_xact_histogram(&tel.handle, kind).observe(busy);
        }
        Ok(response)
    }

    /// Runs `frames` control frames through the link's fault injector (if
    /// one is installed), charging any jitter in simulated time. Corrupted
    /// control frames count as lost — the receiver's CRC discards them.
    ///
    /// Transports layered over the device (e.g. the XCP master) call this
    /// so their traffic faces the same hostile link as debug commands.
    ///
    /// # Errors
    ///
    /// [`DeviceError::LinkTimeout`] if any frame was lost.
    pub fn transmit_frames(&mut self, kind: InterfaceKind, frames: u64) -> Result<(), DeviceError> {
        let now = self.soc.cycle();
        let Some(inj) = self.faults.get_mut(&kind) else {
            return Ok(());
        };
        let mut lost = false;
        let mut delay = 0u64;
        for _ in 0..frames {
            match inj.next_frame(now) {
                FrameFate::Dropped => lost = true,
                FrameFate::Corrupted {
                    extra_delay_cycles, ..
                } => {
                    lost = true;
                    delay += extra_delay_cycles;
                }
                FrameFate::Delivered {
                    extra_delay_cycles, ..
                } => delay += extra_delay_cycles,
            }
        }
        self.wait_cycles(delay);
        if lost {
            return Err(DeviceError::LinkTimeout(kind));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcds::observer::{CoreTraceConfig, TraceQualifier};
    use mcds_soc::asm::assemble;
    use mcds_soc::event::SocEvent;

    fn blink_program() -> mcds_soc::asm::Program {
        assemble(
            "
            .equ OUT0, 0xF0000100
            .org 0x80000000
            start:
                li r1, 12
                li r2, OUT0
            loop:
                sw r1, 0(r2)
                addi r1, r1, -1
                bne r1, r0, loop
                halt
            ",
        )
        .unwrap()
    }

    fn tracing_mcds(cores: usize) -> McdsConfig {
        McdsConfig {
            cores: (0..cores)
                .map(|_| CoreTraceConfig {
                    program_trace: TraceQualifier::Always,
                    ..Default::default()
                })
                .collect(),
            fifo_depth: 256,
            sink_bandwidth: 4,
            ..Default::default()
        }
    }

    /// Runs the same program on two variants and compares the architectural
    /// event streams (retires and port writes).
    fn run_and_collect(variant: DeviceVariant) -> (Vec<(u64, u32)>, u64) {
        let mut dev = DeviceBuilder::new(variant).cores(1).build();
        dev.soc_mut().load_program(&blink_program());
        let records = dev.run_until_halt(20_000);
        let retires: Vec<(u64, u32)> = records
            .iter()
            .flat_map(|r| {
                r.events.iter().filter_map(move |e| match e {
                    SocEvent::Retire(x) => Some((r.cycle, x.pc)),
                    _ => None,
                })
            })
            .collect();
        (retires, dev.soc().cycle())
    }

    #[test]
    fn production_and_ed_devices_behave_identically() {
        // The PSI transparency claim: "Both versions of the SoC are
        // interchangeable with complete transparency to the application
        // system" (Section 6).
        let (prod, prod_cycles) = run_and_collect(DeviceVariant::Production);
        for variant in [
            DeviceVariant::EdSideBooster,
            DeviceVariant::EdCarrierChip,
            DeviceVariant::EdBoosterChip,
        ] {
            let (ed, ed_cycles) = run_and_collect(variant);
            assert_eq!(prod, ed, "{variant}: cycle-exact identical execution");
            assert_eq!(prod_cycles, ed_cycles);
        }
    }

    #[test]
    fn ed_device_captures_trace_production_does_not() {
        let run = |variant: DeviceVariant| {
            let mut dev = DeviceBuilder::new(variant)
                .cores(1)
                .mcds(tracing_mcds(1))
                .build();
            dev.soc_mut().load_program(&blink_program());
            dev.run_until_halt(20_000);
            let cycle = dev.soc().cycle();
            dev.mcds_mut().flush(cycle);
            let messages = dev.mcds_mut().take_messages();
            // Trace that arrived during the run:
            (
                dev.sink().message_count(),
                dev.sink_dropped(),
                messages.len(),
            )
        };
        let (ed_stored, ed_dropped, _) = run(DeviceVariant::EdSideBooster);
        assert!(ed_stored > 0, "ED device stores trace on package");
        assert_eq!(ed_dropped, 0);
        let (prod_stored, prod_dropped, _) = run(DeviceVariant::Production);
        assert_eq!(prod_stored, 0, "production device has no trace memory");
        assert!(prod_dropped > 0);
    }

    #[test]
    fn trace_roundtrip_through_trace_memory_and_usb() {
        let program = blink_program();
        let mut dev = DeviceBuilder::new(DeviceVariant::EdSideBooster)
            .cores(1)
            .mcds(tracing_mcds(1))
            .build();
        dev.soc_mut().load_program(&program);
        dev.run_until_halt(20_000);
        // Flush residual messages into the sink.
        let cycle = dev.soc().cycle();
        dev.mcds_mut().flush(cycle);
        let residual = dev.mcds_mut().take_messages();
        let Device { soc, sink, .. } = &mut dev;
        sink.store(&residual, soc.mapper_mut().emem_mut().unwrap());

        let resp = dev
            .execute(InterfaceKind::Usb11, DebugOp::ReadTrace)
            .expect("trace download over USB");
        let DebugResponse::TraceBytes(bytes) = resp else {
            panic!("expected trace bytes")
        };
        let msgs = mcds_trace::StreamDecoder::new(bytes).collect_all().unwrap();
        let image = mcds_trace::ProgramImage::from(&program);
        let flow = mcds_trace::reconstruct_flow(&image, &msgs).unwrap();
        assert_eq!(
            flow.len(),
            3 + 12 * 3,
            "li + 2-word li + 12 iterations of 3"
        );
    }

    #[test]
    fn usb_unavailable_on_production() {
        let mut dev = DeviceBuilder::new(DeviceVariant::Production)
            .cores(1)
            .build();
        let err = dev
            .execute(InterfaceKind::Usb11, DebugOp::ReadStats)
            .unwrap_err();
        assert_eq!(err, DeviceError::InterfaceUnavailable(InterfaceKind::Usb11));
        // JTAG works everywhere.
        assert!(dev.execute(InterfaceKind::Jtag, DebugOp::ReadStats).is_ok());
    }

    #[test]
    fn jtag_halt_is_orders_of_magnitude_faster_than_usb() {
        let mut dev = DeviceBuilder::new(DeviceVariant::EdSideBooster)
            .cores(2)
            .build();
        dev.soc_mut()
            .load_program(&assemble(".org 0x80000000\nloop: addi r1, r1, 1\nj loop").unwrap());
        dev.run_cycles(100);
        let t0 = dev.soc().cycle();
        dev.execute(InterfaceKind::Jtag, DebugOp::HaltCore(CoreId(0)))
            .unwrap();
        let jtag_cycles = dev.soc().cycle() - t0;
        let t1 = dev.soc().cycle();
        dev.execute(InterfaceKind::Usb11, DebugOp::HaltCore(CoreId(1)))
            .unwrap();
        let usb_cycles = dev.soc().cycle() - t1;
        assert!(
            jtag_cycles * 100 < usb_cycles,
            "JTAG halt ({jtag_cycles} cy) ≫ faster than USB halt ({usb_cycles} cy)"
        );
        assert!(dev.soc().core(CoreId(0)).is_halted());
        assert!(dev.soc().core(CoreId(1)).is_halted());
    }

    #[test]
    fn register_access_requires_halt() {
        let mut dev = DeviceBuilder::new(DeviceVariant::EdSideBooster)
            .cores(1)
            .build();
        dev.soc_mut()
            .load_program(&assemble(".org 0x80000000\nloop: addi r1, r1, 1\nj loop").unwrap());
        dev.run_cycles(50);
        let err = dev
            .execute(
                InterfaceKind::Jtag,
                DebugOp::ReadReg(CoreId(0), Reg::new(1)),
            )
            .unwrap_err();
        assert_eq!(err, DeviceError::CoreNotHalted(CoreId(0)));
        dev.execute(InterfaceKind::Jtag, DebugOp::HaltCore(CoreId(0)))
            .unwrap();
        let DebugResponse::Value(v) = dev
            .execute(
                InterfaceKind::Jtag,
                DebugOp::ReadReg(CoreId(0), Reg::new(1)),
            )
            .unwrap()
        else {
            panic!()
        };
        assert!(v > 0);
    }

    #[test]
    fn memory_ops_roundtrip_over_interface() {
        let mut dev = DeviceBuilder::new(DeviceVariant::EdSideBooster)
            .cores(1)
            .build();
        dev.soc_mut()
            .load_program(&assemble(".org 0x80000000\nhalt").unwrap());
        dev.run_until_halt(1_000);
        dev.execute(
            InterfaceKind::Usb11,
            DebugOp::WriteWords {
                addr: memmap::SRAM_BASE,
                data: vec![1, 2, 3],
            },
        )
        .unwrap();
        let DebugResponse::Words(w) = dev
            .execute(
                InterfaceKind::Usb11,
                DebugOp::ReadWords {
                    addr: memmap::SRAM_BASE,
                    count: 3,
                },
            )
            .unwrap()
        else {
            panic!()
        };
        assert_eq!(w, vec![1, 2, 3]);
    }

    #[test]
    fn flash_reprogramming_charges_time() {
        let mut dev = DeviceBuilder::new(DeviceVariant::EdSideBooster)
            .cores(1)
            .build();
        dev.soc_mut()
            .load_program(&assemble(".org 0x80000000\nhalt").unwrap());
        dev.run_until_halt(1_000);
        let t0 = dev.soc().cycle();
        dev.execute(
            InterfaceKind::Usb11,
            DebugOp::ProgramFlash {
                addr: memmap::FLASH_BASE + 0x10000,
                bytes: vec![0xAB; 1024],
            },
        )
        .unwrap();
        let elapsed = dev.soc().cycle() - t0;
        assert!(
            elapsed >= flash_reprogram_cycles(1024),
            "flash programming time charged ({elapsed})"
        );
        assert_eq!(
            dev.soc().backdoor_read(memmap::FLASH_BASE + 0x10000, 2),
            vec![0xAB, 0xAB]
        );
        // Out-of-range is rejected.
        let err = dev
            .execute(
                InterfaceKind::Usb11,
                DebugOp::ProgramFlash {
                    addr: memmap::FLASH_BASE + memmap::FLASH_SIZE - 4,
                    bytes: vec![0; 8],
                },
            )
            .unwrap_err();
        assert!(matches!(err, DeviceError::BadFlashRange { .. }));
    }

    #[test]
    fn variant_inventory_matches_paper() {
        let prod = DeviceVariant::Production.info();
        assert_eq!(prod.emulation_ram_bytes, 0);
        assert!(!prod.has_usb);
        let ed = DeviceVariant::EdSideBooster.info();
        assert_eq!(ed.emulation_ram_bytes, 512 * 1024, "512 KB, Section 6");
        assert!(ed.has_usb && ed.has_service_core);
        assert_eq!(ed.chips, 1);
        assert!(DeviceVariant::EdCarrierChip.info().reusable_across_products);
        assert!(DeviceVariant::EdBoosterChip.info().chips == 2);
        // Footprint compatibility is universal — the point of PSI.
        for v in [
            DeviceVariant::Production,
            DeviceVariant::EdSideBooster,
            DeviceVariant::EdCarrierChip,
            DeviceVariant::EdBoosterChip,
        ] {
            assert!(v.info().footprint_compatible);
        }
    }

    #[test]
    fn service_monitors_observe_the_run() {
        let mut dev = DeviceBuilder::new(DeviceVariant::EdSideBooster)
            .cores(1)
            .build();
        dev.soc_mut().load_program(&blink_program());
        dev.service_mut().unwrap().perf_mut().set_enabled(true);
        dev.service_mut()
            .unwrap()
            .checker_mut()
            .add_rule(crate::service::ConsistencyRule {
                range: mcds_soc::AddrRange::new(0xF000_0100, 4),
                min: 0,
                max: 5,
            });
        dev.run_until_halt(20_000);
        let snap = dev.service().unwrap().perf().snapshot();
        assert!(snap.retired[0] > 30);
        assert!(snap.bus_xacts > 30);
        // The blink program writes 12..1; values above 5 violate the rule.
        let v = dev.service().unwrap().checker().violations();
        assert_eq!(v.len(), 7, "writes of 12..=6 flagged");
    }

    /// Everything `device_state_hash` covers: the device state and every
    /// fitted memory image.
    fn full_state(dev: &Device) -> (String, Vec<Option<Vec<u8>>>) {
        use mcds_soc::soc::MemoryId;
        let memories = [MemoryId::Flash, MemoryId::Sram, MemoryId::Emem]
            .map(|id| dev.soc().memory(id).map(|m| m.bytes().to_vec()));
        (format!("{:?}", dev.save_state()), memories.to_vec())
    }

    /// The per-cycle reference for the ops `perform` advances time in:
    /// step the device until the core halts or the access completes.
    fn perform_stepped(dev: &mut Device, op: DebugOp) -> DebugResponse {
        let step_until_halted = |dev: &mut Device, core| {
            while !dev.soc().core(core).is_halted() {
                dev.step_into(&mut NullSink);
            }
            DebugResponse::Ack
        };
        match op {
            DebugOp::HaltCore(core) => {
                dev.soc_mut().core_mut(core).request_break();
                step_until_halted(dev, core)
            }
            DebugOp::StepCore(core, n) => {
                dev.soc_mut().core_mut(core).step_instructions(n);
                step_until_halted(dev, core)
            }
            DebugOp::ReadWords { addr, count } => DebugResponse::Words(
                (0..count as u32)
                    .map(|i| {
                        dev.soc_mut().debug_request(BusRequest {
                            addr: addr + 4 * i,
                            width: MemWidth::Word,
                            kind: XferKind::Read,
                            wdata: 0,
                        });
                        loop {
                            dev.step_into(&mut NullSink);
                            if let Some(c) = dev.soc_mut().take_debug_completion() {
                                break c.rdata;
                            }
                        }
                    })
                    .collect(),
            ),
            other => unreachable!("{other:?} does not advance time"),
        }
    }

    #[test]
    fn debug_ops_land_identically_in_both_exec_modes() {
        let program = assemble(
            "
            .org 0x80000000
            start:
                li r2, 0xD0000000
            loop:
                addi r1, r1, 1
                sw r1, 0(r2)
                j loop
            ",
        )
        .unwrap();
        let ops = || {
            [
                DebugOp::HaltCore(CoreId(0)),
                DebugOp::StepCore(CoreId(0), 3),
                DebugOp::ReadWords {
                    addr: memmap::SRAM_BASE,
                    count: 4,
                },
                DebugOp::HaltCore(CoreId(1)),
                DebugOp::StepCore(CoreId(1), 20),
                DebugOp::ReadWords {
                    addr: memmap::SRAM_BASE,
                    count: 2,
                },
            ]
        };
        for traced in [false, true] {
            let mut runs = Vec::new();
            // `None` runs the per-cycle reference loops.
            for mode in [
                None,
                Some(mcds_soc::ExecMode::PerCycle),
                Some(mcds_soc::ExecMode::BlockBatched),
            ] {
                // Core 1 on a divided clock: once core 0 is halted, the
                // kernel skips between its edges while stepping it.
                let mut builder = DeviceBuilder::new(DeviceVariant::EdSideBooster)
                    .cores(1)
                    .core(mcds_soc::cpu::CoreConfig {
                        clock_div: 4,
                        ..Default::default()
                    });
                if traced {
                    builder = builder.mcds(McdsConfig::program_trace(2));
                }
                let mut dev = builder.build();
                dev.soc_mut().load_program(&program);
                dev.set_exec_mode(mode.unwrap_or_default());
                dev.run_cycles(300);
                dev.reset_exec_stats();
                let mut trail = Vec::new();
                for op in ops() {
                    let response = match mode {
                        Some(_) => dev.perform(op).expect("op succeeds"),
                        None => perform_stepped(&mut dev, op),
                    };
                    trail.push((format!("{response:?}"), dev.soc().cycle(), full_state(&dev)));
                }
                if !traced && mode == Some(mcds_soc::ExecMode::BlockBatched) {
                    let stats = dev.exec_stats();
                    assert!(
                        stats.skipped_cycles + stats.block_cycles > 0,
                        "ops ran through the kernel: {stats:?}"
                    );
                }
                runs.push(trail);
            }
            assert!(
                runs[0] == runs[1],
                "traced {traced}: PerCycle left the reference"
            );
            assert!(
                runs[0] == runs[2],
                "traced {traced}: BlockBatched left the reference"
            );
        }
    }
}

#[cfg(test)]
mod selective_tests {
    use super::*;
    use mcds::observer::{CoreTraceConfig, TraceQualifier};
    use mcds_soc::asm::assemble;

    #[test]
    fn selective_booster_has_small_trace_region_and_no_usb() {
        let info = DeviceVariant::SelectiveBooster.info();
        assert_eq!(info.extra_mask_sets, 0, "single mask set is the point");
        assert_eq!(info.emulation_ram_bytes, 64 * 1024);
        assert!(!info.has_usb && !info.has_service_core);

        let config = McdsConfig {
            cores: vec![CoreTraceConfig {
                program_trace: TraceQualifier::Always,
                ..Default::default()
            }],
            fifo_depth: 1024,
            sink_bandwidth: 4,
            ..Default::default()
        };
        let mut dev = DeviceBuilder::new(DeviceVariant::SelectiveBooster)
            .cores(1)
            .mcds(config)
            .build();
        assert_eq!(
            dev.sink().capacity(),
            64 * 1024,
            "the whole region is trace"
        );
        dev.soc_mut().load_program(
            &assemble(".org 0x80000000\nli r1, 30\nloop: addi r1, r1, -1\nbne r1, r0, loop\nhalt")
                .unwrap(),
        );
        dev.run_until_halt(50_000);
        assert!(dev.sink().message_count() > 0, "trace captured on package");
        // JTAG works; USB does not exist.
        assert!(dev.execute(InterfaceKind::Jtag, DebugOp::ReadTrace).is_ok());
        assert_eq!(
            dev.execute(InterfaceKind::Usb11, DebugOp::ReadStats)
                .unwrap_err(),
            DeviceError::InterfaceUnavailable(InterfaceKind::Usb11)
        );
    }

    #[test]
    fn selective_booster_is_transparent_too() {
        let run = |variant: DeviceVariant| {
            let mut dev = DeviceBuilder::new(variant).cores(1).build();
            dev.soc_mut().load_program(
                &assemble(
                    ".org 0x80000000\nli r1, 50\nloop: addi r1, r1, -1\nbne r1, r0, loop\nhalt",
                )
                .unwrap(),
            );
            dev.run_until_halt(50_000);
            (dev.soc().cycle(), dev.soc().core(CoreId(0)).retired())
        };
        assert_eq!(
            run(DeviceVariant::Production),
            run(DeviceVariant::SelectiveBooster)
        );
    }
}

#[cfg(test)]
mod interface_stats_tests {
    use super::*;
    use mcds_soc::asm::assemble;

    #[test]
    fn interface_statistics_accumulate_per_link() {
        let mut dev = DeviceBuilder::new(DeviceVariant::EdSideBooster)
            .cores(1)
            .build();
        dev.soc_mut()
            .load_program(&assemble(".org 0x80000000\nhalt").unwrap());
        dev.run_until_halt(100);
        dev.execute(
            InterfaceKind::Jtag,
            DebugOp::ReadWords {
                addr: memmap::SRAM_BASE,
                count: 4,
            },
        )
        .unwrap();
        dev.execute(InterfaceKind::Usb11, DebugOp::ReadStats)
            .unwrap();
        dev.execute(InterfaceKind::Usb11, DebugOp::ReadStats)
            .unwrap();
        let jtag = dev.interface(InterfaceKind::Jtag).unwrap();
        assert_eq!(jtag.transactions(), 1);
        assert!(jtag.payload_bytes() >= 4 * 4);
        assert!(jtag.busy_cycles() > 0);
        let usb = dev.interface(InterfaceKind::Usb11).unwrap();
        assert_eq!(usb.transactions(), 2);
        // The PCP2 processed all three commands.
        assert_eq!(dev.service().unwrap().commands_processed(), 3);
    }
}

#[cfg(test)]
mod fault_injection_tests {
    use super::*;
    use crate::faults::FaultPlan;
    use mcds::observer::{CoreTraceConfig, TraceQualifier};
    use mcds_soc::asm::assemble;

    fn halted_ed_device() -> Device {
        let mut dev = DeviceBuilder::new(DeviceVariant::EdSideBooster)
            .cores(1)
            .build();
        dev.soc_mut()
            .load_program(&assemble(".org 0x80000000\nhalt").unwrap());
        dev.run_until_halt(100);
        dev
    }

    #[test]
    fn lossless_fault_plan_is_transparent() {
        let mut plain = halted_ed_device();
        let mut faulty = halted_ed_device();
        faulty.set_fault_plan(InterfaceKind::Usb11, FaultPlan::lossless(1));
        let a = plain
            .execute(InterfaceKind::Usb11, DebugOp::ReadStats)
            .unwrap();
        let b = faulty
            .execute(InterfaceKind::Usb11, DebugOp::ReadStats)
            .unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(plain.soc().cycle(), faulty.soc().cycle());
        let stats = faulty.fault_stats(InterfaceKind::Usb11).unwrap();
        assert!(stats.frames > 0);
        assert_eq!(stats.dropped, 0);
    }

    #[test]
    fn total_loss_plan_times_out_every_command() {
        let mut dev = halted_ed_device();
        dev.set_fault_plan(InterfaceKind::Usb11, FaultPlan::lossy(7, 1000));
        for _ in 0..5 {
            assert_eq!(
                dev.execute(InterfaceKind::Usb11, DebugOp::ReadStats)
                    .unwrap_err(),
                DeviceError::LinkTimeout(InterfaceKind::Usb11)
            );
        }
        assert!(dev.fault_stats(InterfaceKind::Usb11).unwrap().dropped >= 5);
        // Other links stay lossless.
        assert!(dev.execute(InterfaceKind::Jtag, DebugOp::ReadStats).is_ok());
    }

    #[test]
    fn timeouts_still_charge_simulated_time() {
        let mut dev = halted_ed_device();
        dev.set_fault_plan(InterfaceKind::Usb11, FaultPlan::lossy(7, 1000));
        let before = dev.soc().cycle();
        let _ = dev.execute(InterfaceKind::Usb11, DebugOp::ReadStats);
        assert!(
            dev.soc().cycle() > before,
            "a lost command still burns link latency"
        );
    }

    #[test]
    fn moderate_loss_lets_retries_through() {
        let mut dev = halted_ed_device();
        dev.set_fault_plan(InterfaceKind::Usb11, FaultPlan::lossy(21, 300));
        let mut ok = 0;
        let mut err = 0;
        for _ in 0..40 {
            match dev.execute(InterfaceKind::Usb11, DebugOp::ReadStats) {
                Ok(_) => ok += 1,
                Err(DeviceError::LinkTimeout(_)) => err += 1,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(ok > 0, "30% loss must let some commands through");
        assert!(err > 0, "30% loss must kill some commands");
    }

    #[test]
    fn trace_upload_is_mangled_not_timed_out() {
        let trace_dev = || {
            let mut dev = DeviceBuilder::new(DeviceVariant::EdSideBooster)
                .cores(1)
                .mcds(McdsConfig {
                    cores: vec![CoreTraceConfig {
                        program_trace: TraceQualifier::Always,
                        ..Default::default()
                    }],
                    fifo_depth: 256,
                    sink_bandwidth: 4,
                    ..Default::default()
                })
                .build();
            dev.soc_mut().load_program(
                &assemble(
                    ".org 0x80000000\nli r1, 40\nloop: addi r1, r1, -1\nbne r1, r0, loop\nhalt",
                )
                .unwrap(),
            );
            dev.run_until_halt(50_000);
            dev
        };
        let mut clean = trace_dev();
        let clean_bytes = match clean
            .execute(InterfaceKind::Usb11, DebugOp::ReadTrace)
            .unwrap()
        {
            DebugResponse::TraceBytes(b) => b,
            other => panic!("unexpected response {other:?}"),
        };
        assert!(!clean_bytes.is_empty());
        // A short upload is only a few frames; scan seeds until one both
        // gets the command through and perturbs the payload. Deterministic:
        // the same seed always shows the same behaviour.
        let mut perturbed = false;
        for seed in 0..64 {
            let mut faulty = trace_dev();
            faulty.set_fault_plan(InterfaceKind::Usb11, FaultPlan::lossy(seed, 300));
            match faulty.execute(InterfaceKind::Usb11, DebugOp::ReadTrace) {
                Ok(DebugResponse::TraceBytes(b)) => {
                    assert!(faulty.fault_stats(InterfaceKind::Usb11).unwrap().frames > 0);
                    if b != clean_bytes {
                        perturbed = true;
                        break;
                    }
                }
                Ok(other) => panic!("unexpected response {other:?}"),
                Err(DeviceError::LinkTimeout(_)) => {}
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(
            perturbed,
            "30% frame faults must perturb some bulk trace upload"
        );
    }

    #[test]
    fn saturated_dual_core_bus_starves_debug_access_with_typed_error() {
        // Two cores in tight load loops keep the fixed-priority bus granted
        // to cores forever; the debug master must fail bounded, not hang.
        let busy = assemble(
            "
            .org 0x80000000
            loop0:
                lw r1, 0(r2)
                j loop0
            .org 0x80010000
            loop1:
                lw r1, 0(r2)
                j loop1
            ",
        )
        .unwrap();
        let mut dev = DeviceBuilder::new(DeviceVariant::EdSideBooster)
            .cores(2)
            .build();
        dev.soc_mut().load_program(&busy);
        for c in 0..2 {
            dev.soc_mut()
                .core_mut(mcds_soc::CoreId(c))
                .set_reg(mcds_soc::isa::Reg::new(2), mcds_soc::memmap::SRAM_BASE);
        }
        dev.soc_mut()
            .core_mut(mcds_soc::CoreId(1))
            .set_pc(0x8001_0000);
        dev.run_cycles(100);
        let err = dev
            .bus_read_word(mcds_soc::memmap::SRAM_BASE)
            .expect_err("debug master must starve under dual-core saturation");
        match err {
            DeviceError::BusStarved { waited } => {
                assert!(waited >= BUS_STARVATION_LIMIT);
            }
            other => panic!("expected BusStarved, got {other}"),
        }
        // The device stays usable: halt a core, and the access completes.
        dev.execute(InterfaceKind::Jtag, DebugOp::HaltCore(CoreId(0)))
            .unwrap();
        dev.bus_read_word(mcds_soc::memmap::SRAM_BASE)
            .expect("access completes once a core yields the bus");
    }

    /// A link wait on a halted device advances the SoC exactly as
    /// stepping does: the armed timer keeps firing and the bus cycle
    /// counter keeps counting, rather than the cycle counter jumping
    /// alone.
    #[test]
    fn halted_wait_matches_stepping_with_an_armed_timer() {
        let timer_halted = || {
            let mut dev = DeviceBuilder::new(DeviceVariant::EdSideBooster)
                .cores(1)
                .build();
            let program = "
                .equ PERIOD_REG, 0xF0000008
                .org 0x80000000
                start:
                    li r1, 700
                    li r2, PERIOD_REG
                    sw r1, 0(r2)
                    halt
            ";
            dev.soc_mut().load_program(&assemble(program).unwrap());
            dev.run_until_halt(1_000);
            assert!(dev.soc().core(CoreId(0)).is_halted());
            dev
        };
        let mut waited = timer_halted();
        let mut stepped = timer_halted();
        waited.wait_cycles(10_000);
        stepped.run_cycles(10_000);
        assert_eq!(waited.soc().cycle(), stepped.soc().cycle());
        assert_eq!(waited.soc().save_state(), stepped.soc().save_state());
    }

    #[test]
    fn fault_plan_accessors_roundtrip() {
        let mut dev = halted_ed_device();
        assert!(dev.fault_plan(InterfaceKind::Can).is_none());
        let plan = FaultPlan::lossy(3, 50);
        dev.set_fault_plan(InterfaceKind::Can, plan.clone());
        assert_eq!(dev.fault_plan(InterfaceKind::Can), Some(&plan));
        dev.clear_fault_plan(InterfaceKind::Can);
        assert!(dev.fault_plan(InterfaceKind::Can).is_none());
        assert!(dev.fault_stats(InterfaceKind::Can).is_none());
    }
}
