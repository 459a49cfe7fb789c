//! The XCP master: the host-side calibration tool.
//!
//! Wraps an [`XcpSlave`] with a transport binding: each command exchange
//! pays the chosen interface's latency and transfer time in simulated
//! cycles (USB ≈ 3 ms per command, CAN slower still — Section 6), with the
//! PCP2 driver overhead accounted on the service core. Block operations
//! (`read_block`/`write_block`) chunk by the negotiated `MAX_CTO`.
//!
//! ## Fault recovery
//!
//! When the device carries a fault plan (see `mcds_psi::faults`), command
//! and response frames can be lost, which the master observes as
//! [`XcpError::Timeout`]. The [`RetryPolicy`] governs recovery: bounded
//! retries with exponential backoff, preceded by the XCP `SYNCH` command
//! that re-synchronizes the slave's command processor. Commands whose
//! effect is *not* idempotent (`UPLOAD`/`DOWNLOAD` auto-increment the
//! slave's MTA, `WRITE_DAQ` advances the DAQ pointer) are never retried
//! blindly: the block helpers re-anchor with `SET_MTA`/`SET_DAQ_PTR` and
//! restart the whole chunk, so a response lost *after* the slave applied
//! the command cannot corrupt data silently.

use crate::packet::{Command, DtoPacket, ErrCode, Response};
use crate::slave::XcpSlave;
use mcds_psi::device::{Device, DeviceError};
use mcds_psi::interface::InterfaceKind;
use std::fmt;

/// An error from a master-side operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XcpError {
    /// The slave returned an error packet.
    Slave(ErrCode),
    /// The device lacks the chosen interface.
    NoTransport(InterfaceKind),
    /// The response type did not match the command (protocol violation).
    UnexpectedResponse,
    /// The session is not connected.
    NotConnected,
    /// No (coherent) response arrived within the command timeout — a
    /// command or response frame was lost on the link. Whether the slave
    /// executed the command is unknown to the master.
    Timeout(InterfaceKind),
}

impl fmt::Display for XcpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XcpError::Slave(e) => write!(f, "slave error: {e}"),
            XcpError::NoTransport(k) => write!(f, "no {k} transport on this device"),
            XcpError::UnexpectedResponse => write!(f, "response does not match command"),
            XcpError::NotConnected => write!(f, "session not connected"),
            XcpError::Timeout(k) => write!(f, "command timed out on {k}"),
        }
    }
}

impl std::error::Error for XcpError {}

impl From<ErrCode> for XcpError {
    fn from(e: ErrCode) -> XcpError {
        XcpError::Slave(e)
    }
}

/// Connection parameters negotiated at `CONNECT`.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnectInfo {
    /// Largest CTO frame.
    pub max_cto: u8,
    /// Largest DTO frame.
    pub max_dto: u16,
    /// Calibration paging supported (development devices only).
    pub cal_supported: bool,
    /// DAQ measurement supported.
    pub daq_supported: bool,
}

/// How the master recovers from lost command/response frames.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per command or block chunk (1 = no retry).
    pub max_attempts: u32,
    /// Simulated cycles the host waits before declaring a timeout.
    pub timeout_cycles: u64,
    /// Extra wait before the first retry; doubles on each further retry.
    pub backoff_cycles: u64,
    /// Send `SYNCH` before re-issuing a timed-out command, per the XCP
    /// resynchronization procedure.
    pub synch_on_retry: bool,
}

impl RetryPolicy {
    /// Backoff for a given retry round: doubles each round, capped at four
    /// timeouts so deep retry chains don't dilate simulated time absurdly.
    fn backoff_for(&self, round: u32) -> u64 {
        let cap = self.timeout_cycles.saturating_mul(4);
        self.backoff_cycles
            .saturating_mul(1u64 << round.min(16))
            .min(cap)
    }
}

impl RetryPolicy {
    /// No recovery: one attempt, fail on the first timeout. The ablation
    /// baseline for T7.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            timeout_cycles: 450_000, // 3 ms at 150 MHz
            backoff_cycles: 0,
            synch_on_retry: false,
        }
    }

    /// The default recovery: up to 16 attempts, 3 ms timeout, 1 ms initial
    /// backoff (doubling, capped at four timeouts), SYNCH before each
    /// retry. Sized so a 1000-command session at 10% frame loss has a
    /// negligible chance of an unrecovered failure.
    pub fn standard() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 16,
            timeout_cycles: 450_000,
            backoff_cycles: 150_000, // 1 ms at 150 MHz
            synch_on_retry: true,
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::standard()
    }
}

/// Cumulative recovery statistics.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Exchanges that timed out (command or response frame lost).
    pub timeouts: u64,
    /// Command re-issues after a timeout.
    pub retries: u64,
    /// `SYNCH` resynchronizations performed.
    pub synchs: u64,
    /// Block chunks restarted from `SET_MTA` / `SET_DAQ_PTR`.
    pub chunk_restarts: u64,
    /// Operations abandoned after exhausting every attempt.
    pub gave_up: u64,
    /// Peak attempts any single operation needed (1 = first try worked;
    /// 0 = no operation completed yet). Against
    /// [`RetryPolicy::max_attempts`] this is the retry-budget high-water.
    pub worst_attempts: u32,
}

/// A one-shot link-health summary derived from the master's own counters
/// — available to *any* session, not just benches keeping private tallies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkHealth {
    /// The transport this master speaks over.
    pub transport: InterfaceKind,
    /// Commands placed on the wire (including retries and `SYNCH`s).
    pub commands_sent: u64,
    /// The cumulative recovery counters.
    pub stats: RecoveryStats,
    /// Timed-out exchanges per command sent (0.0–1.0); the observed link
    /// error rate.
    pub error_rate: f64,
    /// Fraction of the per-operation retry budget the worst operation
    /// consumed (`worst_attempts / max_attempts`, 0.0–1.0).
    pub retry_budget_used: f64,
}

/// The host-side calibration/measurement master.
#[derive(Debug)]
pub struct XcpMaster {
    slave: XcpSlave,
    transport: InterfaceKind,
    info: Option<ConnectInfo>,
    commands_sent: u64,
    retry: RetryPolicy,
    recovery: RecoveryStats,
}

impl XcpMaster {
    /// Creates a master speaking over `transport`. The slave's CTO limit is
    /// derived from the transport (64 bytes on USB, 8 on CAN/JTAG).
    pub fn new(transport: InterfaceKind) -> XcpMaster {
        let max_cto = match transport {
            InterfaceKind::Usb11 => 64,
            InterfaceKind::Jtag | InterfaceKind::Can => 8,
        };
        XcpMaster {
            slave: XcpSlave::new(max_cto, 1024),
            transport,
            info: None,
            commands_sent: 0,
            retry: RetryPolicy::standard(),
            recovery: RecoveryStats::default(),
        }
    }

    /// Replaces the retry policy ([`RetryPolicy::standard`] by default).
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// The active retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Cumulative recovery statistics.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery
    }

    /// Summarizes link health from the master's own counters.
    pub fn link_health(&self) -> LinkHealth {
        let error_rate = if self.commands_sent == 0 {
            0.0
        } else {
            self.recovery.timeouts as f64 / self.commands_sent as f64
        };
        LinkHealth {
            transport: self.transport,
            commands_sent: self.commands_sent,
            stats: self.recovery,
            error_rate,
            retry_budget_used: f64::from(self.recovery.worst_attempts)
                / f64::from(self.retry.max_attempts.max(1)),
        }
    }

    /// Mirrors the master's command/recovery counters into a telemetry
    /// registry under `xcp_*` metric names, labelled by transport.
    pub fn publish_telemetry(&self, tel: &mcds_telemetry::Telemetry) {
        let reg = tel.registry();
        let link = mcds_psi::link_label(self.transport);
        let labels: [(&str, &str); 1] = [("link", link)];
        reg.counter_with(
            "xcp_commands_total",
            "XCP commands placed on the wire",
            &labels,
        )
        .store(self.commands_sent);
        reg.counter_with(
            "xcp_timeouts_total",
            "XCP exchanges that timed out",
            &labels,
        )
        .store(self.recovery.timeouts);
        reg.counter_with("xcp_retries_total", "XCP command re-issues", &labels)
            .store(self.recovery.retries);
        reg.counter_with("xcp_synchs_total", "XCP SYNCH resynchronizations", &labels)
            .store(self.recovery.synchs);
        reg.counter_with(
            "xcp_chunk_restarts_total",
            "XCP block chunks restarted",
            &labels,
        )
        .store(self.recovery.chunk_restarts);
        reg.counter_with("xcp_gave_up_total", "XCP operations abandoned", &labels)
            .store(self.recovery.gave_up);
        let health = self.link_health();
        reg.gauge_with(
            "xcp_worst_attempts",
            "peak attempts any single XCP operation needed",
            &labels,
        )
        .set(f64::from(self.recovery.worst_attempts));
        reg.gauge_with(
            "xcp_error_rate",
            "timed-out XCP exchanges per command (0-1)",
            &labels,
        )
        .set(health.error_rate);
        reg.gauge_with(
            "xcp_retry_budget_used",
            "fraction of the retry budget the worst operation used (0-1)",
            &labels,
        )
        .set(health.retry_budget_used);
    }

    /// The wrapped slave (event periods, DAQ statistics).
    pub fn slave(&self) -> &XcpSlave {
        &self.slave
    }

    /// Mutable access to the wrapped slave.
    pub fn slave_mut(&mut self) -> &mut XcpSlave {
        &mut self.slave
    }

    /// Commands exchanged so far.
    pub fn commands_sent(&self) -> u64 {
        self.commands_sent
    }

    /// Negotiated parameters, if connected.
    pub fn info(&self) -> Option<ConnectInfo> {
        self.info
    }

    /// One wire exchange: pays transport timing and runs command and
    /// response frames through the device's fault injector. No retry.
    fn transact_once(&mut self, dev: &mut Device, cmd: &Command) -> Result<Response, XcpError> {
        let Some(iface) = dev.interface(self.transport) else {
            return Err(XcpError::NoTransport(self.transport));
        };
        let inbound = iface.request_latency_cycles() + iface.transfer_cycles(cmd.wire_bytes());
        let request_frames = iface.frames_for(cmd.wire_bytes().max(1));
        let overhead = match dev.service_mut() {
            Some(s) => s.process_command(self.transport),
            None => 0,
        };
        dev.wait_cycles(inbound + overhead);
        self.commands_sent += 1;
        // A lost command frame: the slave never sees the command, the host
        // waits out its timeout.
        if self.link_lost(dev, request_frames) {
            return Err(XcpError::Timeout(self.transport));
        }
        let result = self.slave.handle(dev, cmd);
        let response = result.map_err(XcpError::Slave)?;
        let iface = dev.interface(self.transport).expect("checked above");
        let outbound =
            iface.transfer_cycles(response.wire_bytes()) + iface.response_latency_cycles();
        let response_frames = iface.frames_for(response.wire_bytes().max(1));
        dev.wait_cycles(outbound);
        // A lost response frame: the slave DID execute (its MTA may have
        // advanced), but the host still sees only a timeout.
        if self.link_lost(dev, response_frames) {
            return Err(XcpError::Timeout(self.transport));
        }
        Ok(response)
    }

    /// Consults the link's fault injector for `frames` frames. On loss,
    /// charges the host-side timeout wait and records it.
    fn link_lost(&mut self, dev: &mut Device, frames: u64) -> bool {
        match dev.transmit_frames(self.transport, frames) {
            Ok(()) => false,
            Err(DeviceError::LinkTimeout(_)) | Err(_) => {
                self.recovery.timeouts += 1;
                dev.wait_cycles(self.retry.timeout_cycles);
                true
            }
        }
    }

    /// Exchanges one command, paying transport timing in simulated cycles.
    ///
    /// On [`XcpError::Timeout`] the command is re-issued per the
    /// [`RetryPolicy`] (backoff, optional `SYNCH` first). Only idempotent
    /// commands should be routed here — the block helpers implement
    /// chunk-level recovery for the MTA-advancing `UPLOAD`/`DOWNLOAD` and
    /// the pointer-advancing `WRITE_DAQ`.
    ///
    /// # Errors
    ///
    /// Transport absence, slave protocol errors, or a timeout that
    /// survived every retry.
    pub fn transact(&mut self, dev: &mut Device, cmd: Command) -> Result<Response, XcpError> {
        let start_cycle = dev.soc().cycle();
        let span_t0 = dev.telemetry().map(|_| std::time::Instant::now());
        for attempt in 1u32.. {
            match self.transact_once(dev, &cmd) {
                Err(XcpError::Timeout(k)) => {
                    if attempt >= self.retry.max_attempts.max(1) {
                        self.recovery.gave_up += 1;
                        self.note_attempts(attempt);
                        self.record_span(dev, start_cycle, span_t0);
                        return Err(XcpError::Timeout(k));
                    }
                    self.recovery.retries += 1;
                    dev.wait_cycles(self.retry.backoff_for(attempt - 1));
                    if self.retry.synch_on_retry && !matches!(cmd, Command::Synch) {
                        self.resynchronize(dev)?;
                    }
                }
                other => {
                    self.note_attempts(attempt);
                    self.record_span(dev, start_cycle, span_t0);
                    return other;
                }
            }
        }
        unreachable!("bounded retry loop always returns")
    }

    /// Folds one operation's attempt count into the retry-budget
    /// high-water.
    fn note_attempts(&mut self, attempts: u32) {
        self.recovery.worst_attempts = self.recovery.worst_attempts.max(attempts);
    }

    /// Records an `XcpTransaction` span on the device's telemetry (if
    /// attached) covering a whole transact-with-retries episode.
    fn record_span(&self, dev: &Device, start_cycle: u64, t0: Option<std::time::Instant>) {
        if let (Some(t0), Some(tel)) = (t0, dev.telemetry()) {
            tel.span(
                mcds_telemetry::Subsystem::XcpTransaction,
                start_cycle,
                dev.soc().cycle(),
                t0.elapsed().as_nanos() as u64,
            );
        }
    }

    /// Sends `SYNCH` until one exchange completes (bounded by the policy's
    /// attempt budget), re-aligning the slave's command processor after a
    /// timeout — the XCP resynchronization procedure.
    ///
    /// # Errors
    ///
    /// Transport errors, or [`XcpError::Timeout`] if no `SYNCH` got
    /// through.
    pub fn resynchronize(&mut self, dev: &mut Device) -> Result<(), XcpError> {
        for round in 0..self.retry.max_attempts.max(1) {
            self.recovery.synchs += 1;
            match self.transact_once(dev, &Command::Synch) {
                Ok(_) => return Ok(()),
                Err(XcpError::Timeout(_)) => {
                    dev.wait_cycles(self.retry.backoff_for(round));
                }
                Err(e) => return Err(e),
            }
        }
        self.recovery.gave_up += 1;
        Err(XcpError::Timeout(self.transport))
    }

    /// Runs one non-idempotent chunk (anchoring command plus payload
    /// commands) with chunk-level recovery: on timeout the whole closure
    /// re-runs from its anchor, so a response lost *after* the slave
    /// applied a command can never silently skew a transfer.
    fn with_chunk_retry<T>(
        &mut self,
        dev: &mut Device,
        mut chunk: impl FnMut(&mut XcpMaster, &mut Device) -> Result<T, XcpError>,
    ) -> Result<T, XcpError> {
        for attempt in 1u32.. {
            match chunk(self, dev) {
                Err(XcpError::Timeout(k)) => {
                    if attempt >= self.retry.max_attempts.max(1) {
                        self.recovery.gave_up += 1;
                        self.note_attempts(attempt);
                        return Err(XcpError::Timeout(k));
                    }
                    self.recovery.chunk_restarts += 1;
                    dev.wait_cycles(self.retry.backoff_for(attempt - 1));
                    if self.retry.synch_on_retry {
                        self.resynchronize(dev)?;
                    }
                }
                other => {
                    self.note_attempts(attempt);
                    return other;
                }
            }
        }
        unreachable!("bounded retry loop always returns")
    }

    /// `CONNECT`.
    ///
    /// # Errors
    ///
    /// Transport or slave errors.
    pub fn connect(&mut self, dev: &mut Device) -> Result<ConnectInfo, XcpError> {
        match self.transact(dev, Command::Connect)? {
            Response::Connected {
                max_cto,
                max_dto,
                daq_supported,
                cal_supported,
            } => {
                let info = ConnectInfo {
                    max_cto,
                    max_dto,
                    cal_supported,
                    daq_supported,
                };
                self.info = Some(info);
                Ok(info)
            }
            _ => Err(XcpError::UnexpectedResponse),
        }
    }

    /// `DISCONNECT`.
    ///
    /// # Errors
    ///
    /// Transport or slave errors.
    pub fn disconnect(&mut self, dev: &mut Device) -> Result<(), XcpError> {
        self.transact(dev, Command::Disconnect)?;
        self.info = None;
        Ok(())
    }

    fn max_payload(&self) -> Result<usize, XcpError> {
        self.info
            .map(|i| i.max_cto as usize - 2)
            .ok_or(XcpError::NotConnected)
    }

    /// Reads `len` bytes at `addr`, chunked by the CTO limit.
    ///
    /// Every chunk is anchored by its own `SET_MTA`, so a timed-out
    /// `UPLOAD` (which auto-increments the slave's MTA whether or not the
    /// response survived) restarts from a known address instead of
    /// silently reading skewed data.
    ///
    /// # Errors
    ///
    /// Transport or slave errors; [`XcpError::NotConnected`] before
    /// `CONNECT`.
    pub fn read_block(
        &mut self,
        dev: &mut Device,
        addr: u32,
        len: usize,
    ) -> Result<Vec<u8>, XcpError> {
        let chunk = self.max_payload()?;
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            let n = chunk.min(len - out.len()) as u8;
            let chunk_addr = addr.wrapping_add(out.len() as u32);
            let bytes = self.with_chunk_retry(dev, |m, dev| {
                m.transact_once(dev, &Command::SetMta { addr: chunk_addr })?;
                match m.transact_once(dev, &Command::Upload { count: n })? {
                    Response::Bytes(b) => Ok(b),
                    _ => Err(XcpError::UnexpectedResponse),
                }
            })?;
            out.extend_from_slice(&bytes);
        }
        Ok(out)
    }

    /// Writes `data` at `addr`, chunked by the CTO limit.
    ///
    /// Like [`read_block`](XcpMaster::read_block), each chunk re-anchors
    /// with `SET_MTA` so retried `DOWNLOAD`s are idempotent.
    ///
    /// # Errors
    ///
    /// Transport or slave errors; [`XcpError::NotConnected`] before
    /// `CONNECT`.
    pub fn write_block(
        &mut self,
        dev: &mut Device,
        addr: u32,
        data: &[u8],
    ) -> Result<(), XcpError> {
        let chunk = self.max_payload()?;
        let mut offset = 0usize;
        for part in data.chunks(chunk) {
            let chunk_addr = addr.wrapping_add(offset as u32);
            self.with_chunk_retry(dev, |m, dev| {
                m.transact_once(dev, &Command::SetMta { addr: chunk_addr })?;
                m.transact_once(
                    dev,
                    &Command::Download {
                        data: part.to_vec(),
                    },
                )?;
                Ok(())
            })?;
            offset += part.len();
        }
        Ok(())
    }

    /// Reads up to `count` bytes at `addr` in one exchange (`SHORT_UPLOAD`
    /// — no MTA round trip, the low-latency poll a calibration tool uses
    /// for single scalars).
    ///
    /// # Errors
    ///
    /// Transport or slave errors (count must fit one CTO frame).
    pub fn short_read(
        &mut self,
        dev: &mut Device,
        addr: u32,
        count: u8,
    ) -> Result<Vec<u8>, XcpError> {
        match self.transact(dev, Command::ShortUpload { count, addr })? {
            Response::Bytes(b) => Ok(b),
            _ => Err(XcpError::UnexpectedResponse),
        }
    }

    /// Reads the slave's DAQ clock (its cycle counter).
    ///
    /// # Errors
    ///
    /// Transport or slave errors.
    pub fn daq_clock(&mut self, dev: &mut Device) -> Result<u32, XcpError> {
        match self.transact(dev, Command::GetDaqClock)? {
            Response::DaqClock(c) => Ok(c),
            _ => Err(XcpError::UnexpectedResponse),
        }
    }

    /// Verifies a block with `BUILD_CHECKSUM`.
    ///
    /// # Errors
    ///
    /// Transport or slave errors.
    pub fn checksum(&mut self, dev: &mut Device, addr: u32, len: u32) -> Result<u32, XcpError> {
        self.transact(dev, Command::SetMta { addr })?;
        match self.transact(dev, Command::BuildChecksum { len })? {
            Response::Checksum(c) => Ok(c),
            _ => Err(XcpError::UnexpectedResponse),
        }
    }

    /// Selects the active calibration page (the atomic swap).
    ///
    /// # Errors
    ///
    /// Transport or slave errors.
    pub fn set_cal_page(&mut self, dev: &mut Device, page: u8) -> Result<(), XcpError> {
        self.transact(dev, Command::SetCalPage { page })?;
        Ok(())
    }

    /// Queries the active calibration page.
    ///
    /// # Errors
    ///
    /// Transport or slave errors.
    pub fn cal_page(&mut self, dev: &mut Device) -> Result<u8, XcpError> {
        match self.transact(dev, Command::GetCalPage)? {
            Response::CalPage(p) => Ok(p),
            _ => Err(XcpError::UnexpectedResponse),
        }
    }

    /// Copies calibration page `from` onto `to`.
    ///
    /// # Errors
    ///
    /// Transport or slave errors.
    pub fn copy_cal_page(&mut self, dev: &mut Device, from: u8, to: u8) -> Result<(), XcpError> {
        self.transact(dev, Command::CopyCalPage { from, to })?;
        Ok(())
    }

    /// Configures a single-ODT DAQ list sampling the given `(addr, size)`
    /// elements on `event` every `prescaler` events, and starts it.
    ///
    /// # Errors
    ///
    /// Transport or slave errors (e.g. too many elements).
    pub fn start_measurement(
        &mut self,
        dev: &mut Device,
        elements: &[(u32, u8)],
        event: u8,
        prescaler: u8,
    ) -> Result<(), XcpError> {
        // The whole setup sequence is one recovery unit anchored by
        // FREE_DAQ: `WRITE_DAQ` advances the slave's DAQ pointer, so a
        // timeout mid-sequence restarts from a clean allocation instead of
        // leaving a half-written ODT.
        self.with_chunk_retry(dev, |m, dev| {
            m.transact_once(dev, &Command::FreeDaq)?;
            m.transact_once(dev, &Command::AllocDaq { count: 1 })?;
            m.transact_once(dev, &Command::AllocOdt { daq: 0, count: 1 })?;
            m.transact_once(
                dev,
                &Command::AllocOdtEntry {
                    daq: 0,
                    odt: 0,
                    count: elements.len() as u8,
                },
            )?;
            m.transact_once(
                dev,
                &Command::SetDaqPtr {
                    daq: 0,
                    odt: 0,
                    entry: 0,
                },
            )?;
            for &(addr, size) in elements {
                m.transact_once(dev, &Command::WriteDaq { size, addr })?;
            }
            m.transact_once(
                dev,
                &Command::SetDaqListMode {
                    daq: 0,
                    event,
                    prescaler,
                },
            )?;
            m.transact_once(
                dev,
                &Command::StartStopDaqList {
                    daq: 0,
                    start: true,
                },
            )?;
            Ok(())
        })
    }

    /// Stops DAQ list 0.
    ///
    /// # Errors
    ///
    /// Transport or slave errors.
    pub fn stop_measurement(&mut self, dev: &mut Device) -> Result<(), XcpError> {
        self.transact(
            dev,
            Command::StartStopDaqList {
                daq: 0,
                start: false,
            },
        )?;
        Ok(())
    }

    /// Lets the device run for `cycles` while the slave samples, then
    /// drains the collected DTO packets, paying their transfer time.
    pub fn measure(&mut self, dev: &mut Device, cycles: u64) -> Vec<DtoPacket> {
        self.slave.run(dev, cycles);
        let dtos = self.slave.drain_dtos(usize::MAX);
        if let Some(iface) = dev.interface(self.transport) {
            let bytes: usize = dtos.iter().map(|d| d.wire_bytes()).sum();
            let cost = iface.transfer_cycles(bytes) + iface.response_latency_cycles();
            dev.wait_cycles(cost);
        }
        dtos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcds_psi::device::{DeviceBuilder, DeviceVariant};
    use mcds_replay::device_state_hash;
    use mcds_soc::asm::assemble;
    use mcds_soc::soc::memmap;
    use mcds_soc::ExecMode;

    fn running_device() -> Device {
        let mut dev = DeviceBuilder::new(DeviceVariant::EdSideBooster)
            .cores(1)
            .build();
        dev.soc_mut().load_program(
            &assemble(
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
            .unwrap(),
        );
        dev
    }

    #[test]
    fn connect_negotiates_by_transport() {
        let mut dev = running_device();
        let mut usb = XcpMaster::new(InterfaceKind::Usb11);
        let info = usb.connect(&mut dev).unwrap();
        assert_eq!(info.max_cto, 64);
        assert!(info.cal_supported);
        let mut can = XcpMaster::new(InterfaceKind::Can);
        let info = can.connect(&mut dev).unwrap();
        assert_eq!(info.max_cto, 8, "CAN frames cap the CTO");
    }

    #[test]
    fn block_transfer_roundtrips_with_chunking() {
        let mut dev = running_device();
        let mut m = XcpMaster::new(InterfaceKind::Usb11);
        m.connect(&mut dev).unwrap();
        let data: Vec<u8> = (0..200u16).map(|x| x as u8).collect();
        m.write_block(&mut dev, memmap::SRAM_BASE + 0x400, &data)
            .unwrap();
        let back = m
            .read_block(&mut dev, memmap::SRAM_BASE + 0x400, 200)
            .unwrap();
        assert_eq!(back, data);
        // 200 bytes / 62-byte chunks = 4 download commands (+ MTA + ...).
        assert!(m.commands_sent() > 8);
    }

    #[test]
    fn usb_commands_cost_milliseconds_of_simulated_time() {
        let mut dev = running_device();
        let mut m = XcpMaster::new(InterfaceKind::Usb11);
        let t0 = dev.soc().cycle();
        m.connect(&mut dev).unwrap();
        let elapsed_ns = memmap::cycles_to_ns(dev.soc().cycle() - t0);
        assert!(
            elapsed_ns >= 3_000_000,
            "USB connect took {elapsed_ns} ns (≥ 3 ms)"
        );
    }

    #[test]
    fn requires_connect_for_blocks() {
        let mut dev = running_device();
        let mut m = XcpMaster::new(InterfaceKind::Usb11);
        assert_eq!(
            m.read_block(&mut dev, memmap::SRAM_BASE, 4),
            Err(XcpError::NotConnected)
        );
    }

    #[test]
    fn measurement_over_usb_samples_live_values() {
        let mut dev = running_device();
        let mut m = XcpMaster::new(InterfaceKind::Usb11);
        m.connect(&mut dev).unwrap();
        m.slave_mut().set_event_period(0, 5_000);
        m.start_measurement(&mut dev, &[(memmap::SRAM_BASE, 4)], 0, 1)
            .unwrap();
        let dtos = m.measure(&mut dev, 100_000);
        assert!(dtos.len() >= 10, "{} samples", dtos.len());
        m.stop_measurement(&mut dev).unwrap();
        let values: Vec<u32> = dtos
            .iter()
            .map(|d| u32::from_le_bytes(d.data.clone().try_into().unwrap()))
            .collect();
        assert!(values.windows(2).all(|w| w[0] <= w[1]));
        // Timestamps come from the slave's DAQ clock, strictly increasing.
        assert!(dtos.windows(2).all(|w| w[0].timestamp < w[1].timestamp));
    }

    #[test]
    fn measurement_is_exec_mode_identical_and_batches_between_samples() {
        let measuring = |mode| {
            let mut dev = running_device();
            dev.set_exec_mode(mode);
            let mut m = XcpMaster::new(InterfaceKind::Usb11);
            m.connect(&mut dev).unwrap();
            m.slave_mut().set_event_period(0, 5_000);
            m.start_measurement(&mut dev, &[(memmap::SRAM_BASE, 4)], 0, 1)
                .unwrap();
            dev.reset_exec_stats();
            (dev, m)
        };
        // Reference: step one cycle, then tick the rasters, every cycle.
        let (mut dev, mut m) = measuring(ExecMode::PerCycle);
        let end = dev.soc().cycle() + 100_000;
        while dev.soc().cycle() < end {
            dev.run_cycles(1);
            m.slave_mut().sample_tick(&mut dev);
        }
        let reference = m.slave_mut().drain_dtos(usize::MAX);
        assert!(reference.len() >= 10, "{} samples", reference.len());

        let mut runs = Vec::new();
        for mode in [ExecMode::PerCycle, ExecMode::BlockBatched] {
            let (mut dev, mut m) = measuring(mode);
            let dtos = m.measure(&mut dev, 100_000);
            assert_eq!(
                dtos, reference,
                "{mode:?}: samples land where stepping puts them"
            );
            let stats = *dev.exec_stats();
            if mode == ExecMode::BlockBatched {
                // Only the sample accesses step; the 100 000-cycle window
                // between them batches (the transfer wait after it always
                // did).
                assert!(
                    stats.block_cycles + stats.skipped_cycles > 0
                        && stats.stepped_cycles < 100_000 / 10,
                    "the stretches between samples batch: {stats:?}"
                );
            }
            runs.push((dev.soc().cycle(), device_state_hash(&dev)));
        }
        assert_eq!(runs[0], runs[1]);
    }

    #[test]
    fn checksum_verifies_downloads() {
        let mut dev = running_device();
        let mut m = XcpMaster::new(InterfaceKind::Usb11);
        m.connect(&mut dev).unwrap();
        m.write_block(&mut dev, memmap::SRAM_BASE + 0x800, &[7; 32])
            .unwrap();
        assert_eq!(
            m.checksum(&mut dev, memmap::SRAM_BASE + 0x800, 32).unwrap(),
            224
        );
    }
}

#[cfg(test)]
mod short_tests {
    use super::*;
    use mcds_psi::device::{DeviceBuilder, DeviceVariant};
    use mcds_soc::asm::assemble;
    use mcds_soc::soc::memmap;

    #[test]
    fn short_read_and_daq_clock() {
        let mut dev = DeviceBuilder::new(DeviceVariant::EdSideBooster)
            .cores(1)
            .build();
        dev.soc_mut()
            .load_program(&assemble(".org 0x80000000\nloop: j loop").unwrap());
        dev.soc_mut()
            .backdoor_write(memmap::SRAM_BASE + 0x20, &[9, 8, 7, 6]);
        let mut m = XcpMaster::new(InterfaceKind::Usb11);
        m.connect(&mut dev).unwrap();
        assert_eq!(
            m.short_read(&mut dev, memmap::SRAM_BASE + 0x20, 4).unwrap(),
            vec![9, 8, 7, 6]
        );
        let t0 = m.daq_clock(&mut dev).unwrap();
        let t1 = m.daq_clock(&mut dev).unwrap();
        assert!(t1 > t0, "the DAQ clock advances with simulated time");
    }
}

#[cfg(test)]
mod recovery_tests {
    use super::*;
    use mcds_psi::device::{DeviceBuilder, DeviceVariant};
    use mcds_psi::faults::FaultPlan;
    use mcds_soc::asm::assemble;
    use mcds_soc::soc::memmap;

    /// A halted device: `wait_cycles` advances it through the execution
    /// kernel's quiescent skip instead of stepping, so the
    /// multi-millisecond timeout/backoff waits cost next to nothing in host
    /// time. The XCP slave serves memory commands regardless of core state.
    fn quiescent_device() -> Device {
        let mut dev = DeviceBuilder::new(DeviceVariant::EdSideBooster)
            .cores(1)
            .build();
        dev.soc_mut()
            .load_program(&assemble(".org 0x80000000\nhalt").unwrap());
        dev.run_until_halt(100);
        dev
    }

    #[test]
    fn lossy_link_times_out_without_recovery() {
        let mut dev = quiescent_device();
        dev.set_fault_plan(InterfaceKind::Usb11, FaultPlan::lossy(13, 400));
        let mut m = XcpMaster::new(InterfaceKind::Usb11);
        m.set_retry_policy(RetryPolicy::none());
        // 40% loss per frame: some command in a long session dies.
        let mut failed = false;
        for _ in 0..30 {
            match m.transact(&mut dev, Command::GetStatus) {
                Ok(_) => {}
                Err(XcpError::Timeout(_)) => {
                    failed = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(
            failed,
            "recovery-off master must hit an unrecovered timeout"
        );
        assert!(m.recovery_stats().gave_up > 0);
    }

    #[test]
    fn retry_policy_rides_through_frame_loss() {
        let mut dev = quiescent_device();
        dev.set_fault_plan(InterfaceKind::Usb11, FaultPlan::lossy(13, 100));
        let mut m = XcpMaster::new(InterfaceKind::Usb11);
        m.connect(&mut dev).unwrap();
        for _ in 0..100 {
            m.transact(&mut dev, Command::GetStatus).unwrap();
        }
        let stats = m.recovery_stats();
        assert!(stats.timeouts > 0, "10% loss must cause timeouts");
        assert!(stats.retries > 0, "and retries must absorb them");
        assert_eq!(stats.gave_up, 0);
    }

    #[test]
    fn block_transfer_survives_frame_loss_intact() {
        let mut dev = quiescent_device();
        let mut m = XcpMaster::new(InterfaceKind::Usb11);
        m.connect(&mut dev).unwrap();
        let data: Vec<u8> = (0..600u16).map(|x| (x % 251) as u8).collect();
        // Hostile link only after connect, so the negotiation stays simple.
        dev.set_fault_plan(InterfaceKind::Usb11, FaultPlan::lossy(29, 100));
        m.write_block(&mut dev, memmap::SRAM_BASE + 0x400, &data)
            .unwrap();
        let back = m
            .read_block(&mut dev, memmap::SRAM_BASE + 0x400, data.len())
            .unwrap();
        assert_eq!(back, data, "MTA re-anchoring keeps retried blocks exact");
        let stats = m.recovery_stats();
        assert!(
            stats.chunk_restarts > 0,
            "10% loss over ~20 chunks must restart at least one (restarts={})",
            stats.chunk_restarts
        );
        assert_eq!(stats.gave_up, 0);
    }

    #[test]
    fn synch_is_sent_during_recovery() {
        let mut dev = quiescent_device();
        dev.set_fault_plan(InterfaceKind::Usb11, FaultPlan::lossy(13, 150));
        let mut m = XcpMaster::new(InterfaceKind::Usb11);
        m.connect(&mut dev).unwrap();
        for _ in 0..60 {
            m.transact(&mut dev, Command::GetStatus).unwrap();
        }
        let stats = m.recovery_stats();
        assert!(stats.synchs > 0, "SYNCH precedes re-issues");
    }

    #[test]
    fn recovery_is_deterministic() {
        let run = || {
            let mut dev = quiescent_device();
            dev.set_fault_plan(InterfaceKind::Usb11, FaultPlan::lossy(7, 100));
            let mut m = XcpMaster::new(InterfaceKind::Usb11);
            m.connect(&mut dev).unwrap();
            for _ in 0..50 {
                m.transact(&mut dev, Command::GetStatus).unwrap();
            }
            (m.recovery_stats(), dev.soc().cycle(), m.commands_sent())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn lossless_link_never_touches_recovery() {
        let mut dev = quiescent_device();
        let mut m = XcpMaster::new(InterfaceKind::Usb11);
        m.connect(&mut dev).unwrap();
        m.write_block(&mut dev, memmap::SRAM_BASE, &[1, 2, 3, 4])
            .unwrap();
        // Every error-path counter stays zero; worst_attempts records that
        // each operation completed on its first try.
        assert_eq!(
            m.recovery_stats(),
            RecoveryStats {
                worst_attempts: 1,
                ..RecoveryStats::default()
            }
        );
        let health = m.link_health();
        assert_eq!(health.error_rate, 0.0);
        assert!(health.retry_budget_used <= 1.0 / 16.0 + f64::EPSILON);
    }

    #[test]
    fn link_health_reports_lossy_link_error_rate() {
        let mut dev = quiescent_device();
        dev.set_fault_plan(InterfaceKind::Usb11, FaultPlan::lossy(13, 100));
        let mut m = XcpMaster::new(InterfaceKind::Usb11);
        m.connect(&mut dev).unwrap();
        for _ in 0..100 {
            m.transact(&mut dev, Command::GetStatus).unwrap();
        }
        let health = m.link_health();
        assert_eq!(health.transport, InterfaceKind::Usb11);
        assert!(health.error_rate > 0.0, "10% loss shows up as errors");
        assert!(health.error_rate < 0.5);
        assert!(
            health.stats.worst_attempts > 1,
            "some operation needed a retry"
        );
        assert!(health.retry_budget_used > 0.0 && health.retry_budget_used <= 1.0);
    }
}
