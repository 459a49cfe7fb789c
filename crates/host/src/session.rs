//! Trace sessions and the emulation-RAM program workflow.
//!
//! [`TraceSession`] drives the full host loop: configure the MCDS, run the
//! target, download the trace memory over the debug link, decode the byte
//! stream and reconstruct program/data flow.
//!
//! [`load_program_to_emulation_ram`] implements the Section 7 workflow:
//! *"developers found using the 512kByte emulation RAM to hold the program
//! highly beneficial for initial development. Not only does this avoid
//! continuous reprogramming of the large 2 MByte program flash memory, but
//! unlimited software breakpoints are possible."* The program's flash
//! ranges are overlaid with emulation RAM (same offset on both calibration
//! pages, so page swaps don't touch code) and the image is written through
//! the debug link instead of being burned into flash.

use crate::debugger::{Debugger, HostError};
use crate::health::HealthReport;
use mcds::McdsConfig;
use mcds_analysis::{
    BusAnalyzer, BusContentionReport, ChromeTrace, CoverageBuilder, CoverageReport, ProfileReport,
    Profiler, TimelineBuilder,
};
use mcds_psi::device::{DebugOp, DebugResponse, Device, DeviceError};
use mcds_soc::asm::Program;
use mcds_soc::overlay::{OverlayRange, OVERLAY_MAX_BLOCK, OVERLAY_RANGE_COUNT};
use mcds_soc::sink::FanOut;
use mcds_soc::soc::memmap;
use mcds_telemetry::Subsystem;
use mcds_trace::{
    collect_data_log, decode_wrapped, reconstruct_flow, DataRecord, ExecutedInstr,
    FlowReconstructor, ProgramImage, ResyncReport, StreamDecoder, TimedMessage, TraceMessage,
    TraceSource,
};
use std::fmt;
use std::time::Instant;

/// An error from a trace session.
#[derive(Debug)]
pub enum SessionError {
    /// A host/device error.
    Host(HostError),
    /// The downloaded stream failed to decode.
    Decode(mcds_trace::DecodeStreamError),
    /// The decoded stream contradicts the program image.
    Reconstruct(mcds_trace::ReconstructError),
    /// The program does not fit the overlay resources.
    OverlayCapacity {
        /// Ranges needed.
        needed: usize,
    },
    /// An overlay range configuration was rejected (e.g. an unaligned
    /// emulation-RAM offset, or a program chunk outside flash).
    Overlay(mcds_soc::overlay::ConfigOverlayError),
    /// A session snapshot was written by an incompatible format version
    /// (see [`crate::debug_session::SESSION_SNAPSHOT_VERSION`]).
    SnapshotVersion {
        /// Version found in the snapshot.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// A calibration (XCP) operation failed.
    Calibration(mcds_xcp::XcpError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Host(e) => write!(f, "{e}"),
            SessionError::Decode(e) => write!(f, "trace decode failed: {e}"),
            SessionError::Reconstruct(e) => write!(f, "flow reconstruction failed: {e}"),
            SessionError::OverlayCapacity { needed } => write!(
                f,
                "program needs {needed} overlay ranges but only {OVERLAY_RANGE_COUNT} exist"
            ),
            SessionError::Overlay(e) => write!(f, "overlay configuration failed: {e}"),
            SessionError::SnapshotVersion { found, expected } => write!(
                f,
                "session snapshot version {found} incompatible with {expected}"
            ),
            SessionError::Calibration(e) => write!(f, "calibration failed: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<HostError> for SessionError {
    fn from(e: HostError) -> SessionError {
        SessionError::Host(e)
    }
}

impl From<DeviceError> for SessionError {
    fn from(e: DeviceError) -> SessionError {
        SessionError::Host(HostError::Device(e))
    }
}

/// The outcome of a completed trace session.
#[derive(Debug)]
pub struct TraceOutcome {
    /// The decoded, temporally ordered messages.
    pub messages: Vec<TimedMessage>,
    /// The reconstructed per-core instruction flow.
    pub flow: Vec<ExecutedInstr>,
    /// The reconstructed data log.
    pub data_log: Vec<DataRecord>,
    /// Encoded trace bytes downloaded.
    pub trace_bytes: usize,
}

/// The outcome of a non-intrusive profiling/coverage session
/// ([`TraceSession::capture_analysis`]).
#[derive(Debug)]
pub struct AnalysisOutcome {
    /// The decoded, temporally ordered messages.
    pub messages: Vec<TimedMessage>,
    /// Cycle-accurate flat profile.
    pub profile: ProfileReport,
    /// Instruction + branch-arc coverage.
    pub coverage: CoverageReport,
    /// Bus utilization/contention, cross-checkable against
    /// [`mcds_soc::bus::BusCounters`].
    pub bus: BusContentionReport,
    /// Chrome trace-event timeline of the run.
    pub timeline: ChromeTrace,
    /// Decoder-level resync accounting (all-zero for strict captures).
    pub resync: ResyncReport,
    /// Total accounting gaps (decoder skips + overflows + desyncs). When
    /// non-zero, coverage and profile are explicit lower bounds.
    pub gaps: u64,
    /// Encoded trace bytes downloaded.
    pub trace_bytes: usize,
}

/// A host-driven trace session.
#[derive(Debug)]
pub struct TraceSession {
    image: ProgramImage,
}

impl TraceSession {
    /// Creates a session reconstructing against `program`.
    pub fn new(program: &Program) -> TraceSession {
        TraceSession {
            image: ProgramImage::from(program),
        }
    }

    /// Creates a session from a pre-built image (e.g. read back from the
    /// target).
    pub fn with_image(image: ProgramImage) -> TraceSession {
        TraceSession { image }
    }

    /// The image used for reconstruction.
    pub fn image(&self) -> &ProgramImage {
        &self.image
    }

    /// Pushes an MCDS configuration to the target over the debug link.
    ///
    /// # Errors
    ///
    /// Host/device errors.
    pub fn configure(&self, dbg: &mut Debugger, config: McdsConfig) -> Result<(), SessionError> {
        let iface = dbg.interface();
        dbg.device_mut()
            .execute(iface, DebugOp::Reconfigure(Box::new(config)))?;
        Ok(())
    }

    /// Runs the target for up to `max_cycles` (stopping early if every core
    /// halts), then downloads and decodes the trace and reconstructs the
    /// flow.
    ///
    /// # Errors
    ///
    /// Host/device, decode, or reconstruction errors.
    pub fn capture(
        &self,
        dbg: &mut Debugger,
        max_cycles: u64,
    ) -> Result<TraceOutcome, SessionError> {
        dbg.device_mut().run_until_halt(max_cycles);
        // Flush residual observer state into the sink before download.
        drain_residual_trace(dbg.device_mut());
        self.download(dbg)
    }

    /// Downloads and decodes the current trace memory without running.
    ///
    /// # Errors
    ///
    /// Host/device, decode, or reconstruction errors.
    pub fn download(&self, dbg: &mut Debugger) -> Result<TraceOutcome, SessionError> {
        let bytes = self.fetch_bytes(dbg)?;
        let trace_bytes = bytes.len();
        let messages = StreamDecoder::new(bytes)
            .collect_all()
            .map_err(SessionError::Decode)?;
        self.finish(messages, trace_bytes)
    }

    /// Downloads a flight-recorder (wrap-mode) trace: the window usually
    /// starts mid-message, so the decoder scans to the first clean message
    /// boundary; program flow is exact from each core's first sync onwards
    /// (sync messages reset the wire compression state).
    ///
    /// # Errors
    ///
    /// Host/device, decode, or reconstruction errors.
    pub fn download_flight_recorder(
        &self,
        dbg: &mut Debugger,
    ) -> Result<TraceOutcome, SessionError> {
        let bytes = self.fetch_bytes(dbg)?;
        let trace_bytes = bytes.len();
        let (_skipped, messages) = decode_wrapped(&bytes, 512).map_err(SessionError::Decode)?;
        self.finish(messages, trace_bytes)
    }

    /// Runs a non-intrusive profiling/coverage session: runs the target for
    /// up to `max_cycles`, downloads the trace through the PSI sink path
    /// and derives profile, coverage, bus-contention and timeline reports.
    ///
    /// The strict variant: any decode or reconstruction problem is an
    /// error, and the resulting reports are cycle-exact
    /// ([`AnalysisOutcome::gaps`] is 0).
    ///
    /// # Errors
    ///
    /// Host/device, decode, or reconstruction errors.
    pub fn capture_analysis(
        &self,
        dbg: &mut Debugger,
        max_cycles: u64,
    ) -> Result<AnalysisOutcome, SessionError> {
        self.analyse(dbg, max_cycles, false)
    }

    /// Lossy/resilient variant of [`TraceSession::capture_analysis`]: the
    /// decoder skips corrupt regions (re-joining at stream sync records)
    /// and reconstruction treats contradictions as trace loss. Every skip,
    /// overflow and desync is counted in [`AnalysisOutcome::gaps`]; when
    /// that is non-zero the coverage and profile are explicit lower bounds.
    ///
    /// # Errors
    ///
    /// Host/device errors only — decode/reconstruct problems degrade into
    /// gap accounting instead of failing.
    pub fn capture_analysis_lossy(
        &self,
        dbg: &mut Debugger,
        max_cycles: u64,
    ) -> Result<AnalysisOutcome, SessionError> {
        self.analyse(dbg, max_cycles, true)
    }

    fn analyse(
        &self,
        dbg: &mut Debugger,
        max_cycles: u64,
        lossy: bool,
    ) -> Result<AnalysisOutcome, SessionError> {
        let counters_before = dbg.device().soc().bus_counters().clone();
        // The run streams straight into the bus and timeline analyzers —
        // no Vec<CycleRecord> of the whole run is ever materialised, so
        // memory stays flat however long the capture window is.
        let mut bus = BusAnalyzer::new();
        let mut timeline = TimelineBuilder::new(dbg.device().soc().dma_master());
        dbg.device_mut()
            .run_until_halt_into(max_cycles, &mut FanOut::new(&mut bus, &mut timeline));
        let now = dbg.device().soc().cycle();
        let drain_t0 = dbg.device().telemetry().map(|_| Instant::now());
        drain_residual_trace(dbg.device_mut());
        if let (Some(t0), Some(tel)) = (drain_t0, dbg.device().telemetry()) {
            tel.span(
                Subsystem::FifoDrain,
                now,
                now,
                t0.elapsed().as_nanos() as u64,
            );
        }
        // Snapshot ground truth before the download itself adds
        // debug-master bus traffic.
        let counters = dbg
            .device()
            .soc()
            .bus_counters()
            .delta_since(&counters_before);

        let bytes = self.fetch_bytes(dbg)?;
        let trace_bytes = bytes.len();
        // The decode is pure host work: the span pins the simulated
        // instant (download already complete) and measures wall time.
        let decode_cycle = dbg.device().soc().cycle();
        let decode_t0 = dbg.device().telemetry().map(|_| Instant::now());
        let (messages, resync) = if lossy {
            StreamDecoder::new(bytes).collect_resilient()
        } else {
            let messages = StreamDecoder::new(bytes)
                .collect_all()
                .map_err(SessionError::Decode)?;
            (messages, ResyncReport::default())
        };
        if let (Some(t0), Some(tel)) = (decode_t0, dbg.device().telemetry()) {
            tel.span(
                Subsystem::TraceDecode,
                decode_cycle,
                decode_cycle,
                t0.elapsed().as_nanos() as u64,
            );
        }

        let mut profiler = Profiler::new(&self.image);
        if lossy {
            profiler.feed_all_lossy(&messages);
        } else {
            profiler
                .feed_all(&messages)
                .map_err(SessionError::Reconstruct)?;
        }
        let profile = profiler.finish();

        let extra_gaps = resync.gaps + u64::from(resync.tail_lost);
        let coverage = if lossy {
            coverage_from_messages_lossy(&self.image, &messages, extra_gaps)
        } else {
            coverage_from_messages(&self.image, &messages).map_err(SessionError::Reconstruct)?
        };

        let bus = bus.finish_with_counters(&counters);

        timeline.add_messages(&messages);
        let timeline = timeline.finish();

        let gaps = coverage.gaps;
        // Refresh the attached registry (no-op when detached) so exporters
        // see the post-run counters without another publish call.
        dbg.device().publish_telemetry();
        Ok(AnalysisOutcome {
            messages,
            profile,
            coverage,
            bus,
            timeline,
            resync,
            gaps,
            trace_bytes,
        })
    }

    /// One-shot "mcds-top" health summary of the attached device —
    /// per-core progress, FIFO fill, bus utilization, sink fill and link
    /// health. Read-only; fold in an XCP master with
    /// [`HealthReport::with_xcp`].
    pub fn health_report(&self, dbg: &Debugger) -> HealthReport {
        HealthReport::gather(dbg.device())
    }

    fn fetch_bytes(&self, dbg: &mut Debugger) -> Result<Vec<u8>, SessionError> {
        let iface = dbg.interface();
        let resp = dbg.device_mut().execute(iface, DebugOp::ReadTrace)?;
        let DebugResponse::TraceBytes(bytes) = resp else {
            return Err(SessionError::Host(HostError::UnexpectedResponse));
        };
        Ok(bytes)
    }

    fn finish(
        &self,
        messages: Vec<TimedMessage>,
        trace_bytes: usize,
    ) -> Result<TraceOutcome, SessionError> {
        let flow = reconstruct_flow(&self.image, &messages).map_err(SessionError::Reconstruct)?;
        let data_log = collect_data_log(&messages);
        Ok(TraceOutcome {
            messages,
            flow,
            data_log,
            trace_bytes,
        })
    }
}

/// Flushes residual MCDS observer state into the trace sink through the
/// same path the hardware uses, so a subsequent trace download (or a
/// direct [`mcds_replay::trace_bytes`]-style read of emulation RAM) sees
/// the complete stream. Safe to call on a device without emulation RAM —
/// the residual messages are dropped, exactly as on real silicon without
/// a sink.
pub fn drain_residual_trace(dev: &mut Device) {
    let now = dev.soc().cycle();
    dev.mcds_mut().flush(now);
    let residual = dev.mcds_mut().take_messages();
    if !residual.is_empty() {
        let (soc, sink) = dev.soc_sink_mut();
        if let Some(emem) = soc.mapper_mut().emem_mut() {
            sink.store(&residual, emem);
        }
    }
}

/// Reconstructs instruction + branch-arc coverage from decoded trace
/// messages against `image`. The strict variant: any reconstruction
/// contradiction is an error; FIFO overflows still degrade into gap
/// accounting (they are a bandwidth property, not corruption).
///
/// # Errors
///
/// The first reconstruction error encountered.
pub fn coverage_from_messages(
    image: &ProgramImage,
    messages: &[TimedMessage],
) -> Result<CoverageReport, mcds_trace::ReconstructError> {
    let mut recon = FlowReconstructor::new(image);
    let mut coverage = CoverageBuilder::new(image);
    for m in messages {
        if matches!(m.message, TraceMessage::Overflow { .. }) {
            match m.source {
                TraceSource::Core(c) => coverage.note_gap(Some(c)),
                TraceSource::Bus => coverage.note_gap(None),
            }
        }
        let batch = recon.feed(m)?;
        coverage.extend(&batch);
    }
    Ok(coverage.finish())
}

/// Lossy variant of [`coverage_from_messages`]: reconstruction
/// contradictions desync the affected core and count as gaps instead of
/// failing, and `extra_gaps` (decoder resyncs, lost tail bytes) are folded
/// into the report. The result is an explicit lower bound whenever any
/// gap was recorded ([`CoverageReport::is_lower_bound`]).
pub fn coverage_from_messages_lossy(
    image: &ProgramImage,
    messages: &[TimedMessage],
    extra_gaps: u64,
) -> CoverageReport {
    let mut recon = FlowReconstructor::new(image);
    let mut coverage = CoverageBuilder::new(image);
    for m in messages {
        if matches!(m.message, TraceMessage::Overflow { .. }) {
            match m.source {
                TraceSource::Core(c) => coverage.note_gap(Some(c)),
                TraceSource::Bus => coverage.note_gap(None),
            }
        }
        match recon.feed(m) {
            Ok(batch) => coverage.extend(&batch),
            Err(_) => {
                if let TraceSource::Core(c) = m.source {
                    recon.desync(c);
                    coverage.note_gap(Some(c));
                }
            }
        }
    }
    coverage.add_gaps(extra_gaps);
    coverage.finish()
}

/// Loads `program` into emulation RAM via overlay ranges instead of
/// programming flash. Returns the number of overlay ranges used.
///
/// Ranges are allocated as 32 KB blocks starting at emulation-RAM offset
/// `emem_offset`; both calibration pages point at the same offsets so page
/// swaps never remap code.
///
/// # Errors
///
/// [`SessionError::OverlayCapacity`] if more than 16 ranges would be
/// needed; [`SessionError::Overlay`] if a range is rejected (e.g. an
/// unaligned `emem_offset`); host/device errors for the transfers.
pub fn load_program_to_emulation_ram(
    dbg: &mut Debugger,
    program: &Program,
    emem_offset: u32,
) -> Result<usize, SessionError> {
    struct Block {
        flash_addr: u32,
        emem_offset: u32,
    }
    let mut blocks: Vec<Block> = Vec::new();
    let mut next_offset = emem_offset;
    let block_of = |addr: u32| addr & !(OVERLAY_MAX_BLOCK - 1);

    // Pass 1: which 32 KB flash blocks does the program touch?
    for (base, bytes) in &program.chunks {
        let mut b = block_of(*base);
        let end = base + bytes.len() as u32;
        while b < end {
            if !blocks.iter().any(|x| x.flash_addr == b) {
                blocks.push(Block {
                    flash_addr: b,
                    emem_offset: next_offset,
                });
                next_offset += OVERLAY_MAX_BLOCK;
            }
            b += OVERLAY_MAX_BLOCK;
        }
    }
    if blocks.len() > OVERLAY_RANGE_COUNT {
        return Err(SessionError::OverlayCapacity {
            needed: blocks.len(),
        });
    }

    // Pass 2: configure ranges (backdoor — this is one-time tool setup) and
    // upload the image over the debug link.
    for (i, b) in blocks.iter().enumerate() {
        dbg.device_mut()
            .soc_mut()
            .mapper_mut()
            .configure_range(
                i,
                OverlayRange {
                    flash_addr: b.flash_addr,
                    size: OVERLAY_MAX_BLOCK,
                    offset_page0: b.emem_offset,
                    offset_page1: b.emem_offset,
                },
            )
            .map_err(SessionError::Overlay)?;
        dbg.device_mut()
            .soc_mut()
            .mapper_mut()
            .set_range_enabled(i, true);
    }
    for (base, bytes) in &program.chunks {
        // Find the emulation-RAM address for this chunk and write it.
        let mut addr = *base;
        let mut remaining: &[u8] = bytes;
        while !remaining.is_empty() {
            let block = blocks
                .iter()
                .find(|b| b.flash_addr == block_of(addr))
                .expect("block allocated in pass 1");
            let in_block = (addr - block.flash_addr) as usize;
            let n = remaining.len().min(OVERLAY_MAX_BLOCK as usize - in_block);
            let target = memmap::EMEM_BASE + block.emem_offset + in_block as u32;
            let mut words: Vec<u32> = Vec::with_capacity(n.div_ceil(4));
            for w in remaining[..n].chunks(4) {
                let mut buf = [0u8; 4];
                buf[..w.len()].copy_from_slice(w);
                words.push(u32::from_le_bytes(buf));
            }
            dbg.write_words(target, words)?;
            addr += n as u32;
            remaining = &remaining[n..];
        }
    }
    Ok(blocks.len())
}
