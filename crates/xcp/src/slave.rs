//! The XCP slave: the protocol engine running on the PSI device.
//!
//! On the TC1796ED the XCP driver runs on the PCP2 service core (Section
//! 6), accessing target memory through the debug bus master — so every
//! UPLOAD/DOWNLOAD and every DAQ sample is a real bus transaction that
//! competes with the application cores, and measurement is unobtrusive in
//! exactly the way the paper claims: no core is ever stopped.
//!
//! Calibration-page commands drive the address-mapping block's control
//! registers, so `SET_CAL_PAGE` is the paper's "swapped atomically by a
//! single control access".

use crate::daq::{DaqPointer, DaqPool, EVENT_CHANNELS};
use crate::packet::{Command, DtoPacket, ErrCode, Response, XcpResult};
use mcds_psi::device::{Device, DeviceError};
use mcds_soc::bus::BusFault;
use mcds_soc::isa::MemWidth;
use mcds_soc::overlay::{CalPage, OVERLAY_RANGE_COUNT};
use mcds_soc::soc::memmap;
use std::collections::VecDeque;

/// Default event-channel periods in cycles (channel 0 = 1 ms raster,
/// channel 1 = 100 µs, channels 2–3 = 10 ms).
pub const DEFAULT_EVENT_PERIODS: [u64; EVENT_CHANNELS] = [150_000, 15_000, 1_500_000, 1_500_000];

fn map_bus_fault(f: BusFault) -> ErrCode {
    match f {
        BusFault::Unmapped { .. } => ErrCode::OutOfRange,
        BusFault::Misaligned { .. } => ErrCode::OutOfRange,
        BusFault::Denied { .. } => ErrCode::AccessDenied,
    }
}

fn map_device_error(e: DeviceError) -> ErrCode {
    match e {
        DeviceError::Bus(f) => map_bus_fault(f),
        _ => ErrCode::CmdBusy,
    }
}

/// The XCP slave protocol engine.
#[derive(Debug)]
pub struct XcpSlave {
    connected: bool,
    mta: u32,
    daq: DaqPool,
    max_cto: u8,
    max_dto: u16,
    event_periods: [u64; EVENT_CHANNELS],
    next_event_at: [u64; EVENT_CHANNELS],
    event_counts: [u64; EVENT_CHANNELS],
    dto_buffer: VecDeque<DtoPacket>,
    dto_capacity: usize,
    dto_overflows: u64,
    samples_taken: u64,
}

impl XcpSlave {
    /// Creates a slave with the given CTO frame limit (8 for CAN, larger
    /// for USB) and a DTO buffer of `dto_capacity` packets.
    pub fn new(max_cto: u8, dto_capacity: usize) -> XcpSlave {
        XcpSlave {
            connected: false,
            mta: 0,
            daq: DaqPool::new(),
            max_cto: max_cto.max(8),
            max_dto: 8,
            event_periods: DEFAULT_EVENT_PERIODS,
            next_event_at: [0; EVENT_CHANNELS],
            event_counts: [0; EVENT_CHANNELS],
            dto_buffer: VecDeque::new(),
            dto_capacity: dto_capacity.max(1),
            dto_overflows: 0,
            samples_taken: 0,
        }
    }

    /// True after a successful `CONNECT`.
    pub fn is_connected(&self) -> bool {
        self.connected
    }

    /// Current memory transfer address.
    pub fn mta(&self) -> u32 {
        self.mta
    }

    /// DTO packets dropped because the buffer was full.
    pub fn dto_overflows(&self) -> u64 {
        self.dto_overflows
    }

    /// Total DAQ samples taken.
    pub fn samples_taken(&self) -> u64 {
        self.samples_taken
    }

    /// Queued DTO packets.
    pub fn dto_pending(&self) -> usize {
        self.dto_buffer.len()
    }

    /// Overrides an event channel's period in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range or `period` is zero.
    pub fn set_event_period(&mut self, channel: usize, period: u64) {
        assert!(period > 0, "event period must be non-zero");
        self.event_periods[channel] = period;
    }

    /// Drains up to `max` queued DTO packets.
    pub fn drain_dtos(&mut self, max: usize) -> Vec<DtoPacket> {
        let n = max.min(self.dto_buffer.len());
        self.dto_buffer.drain(..n).collect()
    }

    fn read_bytes(&self, dev: &mut Device, addr: u32, count: usize) -> Result<Vec<u8>, ErrCode> {
        let mut out = Vec::with_capacity(count);
        for i in 0..count {
            let v = dev
                .bus_access(mcds_soc::BusRequest {
                    addr: addr + i as u32,
                    width: MemWidth::Byte,
                    kind: mcds_soc::bus::XferKind::Read,
                    wdata: 0,
                })
                .map_err(map_device_error)?;
            out.push(v as u8);
        }
        Ok(out)
    }

    fn write_bytes(&self, dev: &mut Device, addr: u32, data: &[u8]) -> Result<(), ErrCode> {
        for (i, b) in data.iter().enumerate() {
            dev.bus_access(mcds_soc::BusRequest {
                addr: addr + i as u32,
                width: MemWidth::Byte,
                kind: mcds_soc::bus::XferKind::Write,
                wdata: *b as u32,
            })
            .map_err(map_device_error)?;
        }
        Ok(())
    }

    /// Executes one command against the device. Memory traffic advances
    /// simulated time (the device keeps running underneath).
    pub fn handle(&mut self, dev: &mut Device, cmd: &Command) -> XcpResult {
        if !self.connected && !matches!(cmd, Command::Connect | Command::Synch | Command::GetStatus)
        {
            return Err(ErrCode::Sequence);
        }
        match cmd {
            Command::Connect => {
                self.connected = true;
                Ok(Response::Connected {
                    max_cto: self.max_cto,
                    max_dto: self.max_dto,
                    daq_supported: true,
                    cal_supported: dev.variant().has_emulation_resources(),
                })
            }
            Command::Disconnect => {
                self.connected = false;
                for daq in 0..self.daq.lists().len() {
                    let _ = self.daq.start_stop(daq as u16, false);
                }
                Ok(Response::Ok)
            }
            Command::GetStatus => Ok(Response::Status {
                daq_running: self.daq.any_running(),
                connected: self.connected,
            }),
            Command::Synch => Ok(Response::Ok),
            Command::SetMta { addr } => {
                self.mta = *addr;
                Ok(Response::Ok)
            }
            Command::Upload { count } => {
                if *count as usize > self.max_cto as usize - 1 {
                    return Err(ErrCode::OutOfRange);
                }
                let bytes = self.read_bytes(dev, self.mta, *count as usize)?;
                self.mta += *count as u32;
                Ok(Response::Bytes(bytes))
            }
            Command::ShortUpload { count, addr } => {
                if *count as usize > self.max_cto as usize - 1 {
                    return Err(ErrCode::OutOfRange);
                }
                let bytes = self.read_bytes(dev, *addr, *count as usize)?;
                Ok(Response::Bytes(bytes))
            }
            Command::Download { data } => {
                if data.len() > self.max_cto as usize - 2 {
                    return Err(ErrCode::OutOfRange);
                }
                self.write_bytes(dev, self.mta, data)?;
                self.mta += data.len() as u32;
                Ok(Response::Ok)
            }
            Command::BuildChecksum { len } => {
                let bytes = self.read_bytes(dev, self.mta, *len as usize)?;
                let sum = bytes.iter().fold(0u32, |a, &b| a.wrapping_add(b as u32));
                Ok(Response::Checksum(sum))
            }
            Command::SetCalPage { page } => {
                if *page > 1 {
                    return Err(ErrCode::PageNotValid);
                }
                dev.bus_write_word(memmap::OVERLAY_CTRL_BASE, *page as u32)
                    .map_err(map_device_error)?;
                Ok(Response::Ok)
            }
            Command::GetCalPage => {
                let v = dev
                    .bus_read_word(memmap::OVERLAY_CTRL_BASE)
                    .map_err(map_device_error)?;
                Ok(Response::CalPage(v as u8))
            }
            Command::CopyCalPage { from, to } => {
                if *from > 1 || *to > 1 {
                    return Err(ErrCode::PageNotValid);
                }
                if from == to {
                    return Ok(Response::Ok);
                }
                let (src, dst) = (
                    CalPage::from_bit(*from as u32),
                    CalPage::from_bit(*to as u32),
                );
                // Copy every enabled range's backing block, word by word,
                // through the emulation-RAM window.
                for i in 0..OVERLAY_RANGE_COUNT {
                    let (enabled, range) = {
                        let m = dev.soc().mapper();
                        (m.range_enabled(i), m.range(i))
                    };
                    if !enabled {
                        continue;
                    }
                    let src_off = match src {
                        CalPage::Page0 => range.offset_page0,
                        CalPage::Page1 => range.offset_page1,
                    };
                    let dst_off = match dst {
                        CalPage::Page0 => range.offset_page0,
                        CalPage::Page1 => range.offset_page1,
                    };
                    for w in (0..range.size).step_by(4) {
                        let v = dev
                            .bus_read_word(memmap::EMEM_BASE + src_off + w)
                            .map_err(map_device_error)?;
                        dev.bus_write_word(memmap::EMEM_BASE + dst_off + w, v)
                            .map_err(map_device_error)?;
                    }
                }
                Ok(Response::Ok)
            }
            Command::FreeDaq => {
                self.daq.free();
                Ok(Response::Ok)
            }
            Command::AllocDaq { count } => self.daq.alloc_daq(*count).map(|_| Response::Ok),
            Command::AllocOdt { daq, count } => {
                self.daq.alloc_odt(*daq, *count).map(|_| Response::Ok)
            }
            Command::AllocOdtEntry { daq, odt, count } => self
                .daq
                .alloc_odt_entry(*daq, *odt, *count)
                .map(|_| Response::Ok),
            Command::SetDaqPtr { daq, odt, entry } => self
                .daq
                .set_pointer(DaqPointer {
                    daq: *daq,
                    odt: *odt,
                    entry: *entry,
                })
                .map(|_| Response::Ok),
            Command::WriteDaq { size, addr } => {
                self.daq.write_entry(*size, *addr).map(|_| Response::Ok)
            }
            Command::SetDaqListMode {
                daq,
                event,
                prescaler,
            } => self
                .daq
                .set_mode(*daq, *event, *prescaler)
                .map(|_| Response::Ok),
            Command::StartStopDaqList { daq, start } => {
                let result = self.daq.start_stop(*daq, *start).map(|_| Response::Ok);
                if *start && result.is_ok() {
                    // Arm the event timers from "now".
                    let now = dev.soc().cycle();
                    for ch in 0..EVENT_CHANNELS {
                        self.next_event_at[ch] = now + self.event_periods[ch];
                    }
                }
                result
            }
            Command::GetDaqClock => Ok(Response::DaqClock(dev.soc().cycle() as u32)),
        }
    }

    fn sample_due_lists(&mut self, dev: &mut Device, channel: usize) {
        self.event_counts[channel] += 1;
        let count = self.event_counts[channel];
        for daq in 0..self.daq.lists().len() {
            let (running, event, prescaler, odt_count) = {
                let l = &self.daq.lists()[daq];
                (
                    l.running,
                    l.event as usize,
                    l.prescaler as u64,
                    l.odts.len(),
                )
            };
            if !running || event != channel || !count.is_multiple_of(prescaler) {
                continue;
            }
            for odt in 0..odt_count {
                let entries = self.daq.lists()[daq].odts[odt].entries.clone();
                let timestamp = dev.soc().cycle() as u32;
                let mut data = Vec::new();
                let mut ok = true;
                for e in entries {
                    match self.read_bytes(dev, e.addr, e.size as usize) {
                        Ok(b) => data.extend_from_slice(&b),
                        Err(_) => {
                            ok = false;
                            break;
                        }
                    }
                }
                if !ok {
                    continue;
                }
                self.samples_taken += 1;
                if self.dto_buffer.len() >= self.dto_capacity {
                    self.dto_buffer.pop_front();
                    self.dto_overflows += 1;
                }
                self.dto_buffer.push_back(DtoPacket {
                    daq: daq as u16,
                    odt: odt as u8,
                    timestamp,
                    data,
                });
            }
        }
    }

    /// Samples every event channel whose raster is due at the device's
    /// current cycle, without advancing time. External schedulers that own
    /// the stepping loop (the virtual-vehicle lockstep scheduler) call
    /// this once per step; [`XcpSlave::run`] calls it after each run leg.
    pub fn sample_tick(&mut self, dev: &mut Device) {
        if !self.daq.any_running() {
            return;
        }
        let now = dev.soc().cycle();
        for ch in 0..EVENT_CHANNELS {
            if now >= self.next_event_at[ch] {
                self.next_event_at[ch] = now + self.event_periods[ch];
                self.sample_due_lists(dev, ch);
            }
        }
    }

    /// Runs the device for (at least) `cycles` cycles, sampling running DAQ
    /// lists at their event rasters. The application cores are never
    /// stopped; samples are taken through the debug bus master.
    /// Each [`Device::run_cycles`] leg ends on the earliest channel
    /// deadline (at least one cycle, never past the end) and is followed by
    /// [`XcpSlave::sample_tick`], so samples land where stepping would.
    pub fn run(&mut self, dev: &mut Device, cycles: u64) {
        let end = dev.soc().cycle() + cycles;
        while dev.soc().cycle() < end {
            let now = dev.soc().cycle();
            let due = if self.daq.any_running() {
                self.next_event_at.iter().copied().min().unwrap_or(end)
            } else {
                end
            };
            dev.run_cycles(due.clamp(now + 1, end) - now);
            self.sample_tick(dev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcds_psi::device::{DeviceBuilder, DeviceVariant};
    use mcds_soc::asm::assemble;

    fn ed_device() -> Device {
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
    fn connect_before_anything_else() {
        let mut dev = ed_device();
        let mut slave = XcpSlave::new(8, 64);
        assert_eq!(
            slave.handle(&mut dev, &Command::SetMta { addr: 0 }),
            Err(ErrCode::Sequence)
        );
        let r = slave.handle(&mut dev, &Command::Connect).unwrap();
        assert!(matches!(
            r,
            Response::Connected {
                cal_supported: true,
                ..
            }
        ));
        assert!(slave.is_connected());
    }

    #[test]
    fn upload_download_roundtrip_with_mta_increment() {
        let mut dev = ed_device();
        let mut slave = XcpSlave::new(8, 64);
        slave.handle(&mut dev, &Command::Connect).unwrap();
        slave
            .handle(
                &mut dev,
                &Command::SetMta {
                    addr: memmap::SRAM_BASE + 0x100,
                },
            )
            .unwrap();
        slave
            .handle(
                &mut dev,
                &Command::Download {
                    data: vec![1, 2, 3, 4],
                },
            )
            .unwrap();
        slave
            .handle(&mut dev, &Command::Download { data: vec![5, 6] })
            .unwrap();
        assert_eq!(slave.mta(), memmap::SRAM_BASE + 0x106);
        slave
            .handle(
                &mut dev,
                &Command::SetMta {
                    addr: memmap::SRAM_BASE + 0x100,
                },
            )
            .unwrap();
        let r = slave
            .handle(&mut dev, &Command::Upload { count: 6 })
            .unwrap();
        assert_eq!(r, Response::Bytes(vec![1, 2, 3, 4, 5, 6]));
    }

    #[test]
    fn download_to_flash_denied() {
        let mut dev = ed_device();
        let mut slave = XcpSlave::new(8, 64);
        slave.handle(&mut dev, &Command::Connect).unwrap();
        slave
            .handle(
                &mut dev,
                &Command::SetMta {
                    addr: memmap::FLASH_BASE + 0x100000,
                },
            )
            .unwrap();
        assert_eq!(
            slave.handle(&mut dev, &Command::Download { data: vec![1] }),
            Err(ErrCode::AccessDenied)
        );
    }

    #[test]
    fn checksum_over_block() {
        let mut dev = ed_device();
        let mut slave = XcpSlave::new(8, 64);
        slave.handle(&mut dev, &Command::Connect).unwrap();
        dev.soc_mut()
            .backdoor_write(memmap::SRAM_BASE + 0x200, &[10, 20, 30]);
        slave
            .handle(
                &mut dev,
                &Command::SetMta {
                    addr: memmap::SRAM_BASE + 0x200,
                },
            )
            .unwrap();
        let r = slave
            .handle(&mut dev, &Command::BuildChecksum { len: 3 })
            .unwrap();
        assert_eq!(r, Response::Checksum(60));
    }

    #[test]
    fn cal_page_commands_drive_the_mapper() {
        let mut dev = ed_device();
        let mut slave = XcpSlave::new(8, 64);
        slave.handle(&mut dev, &Command::Connect).unwrap();
        assert_eq!(
            slave.handle(&mut dev, &Command::GetCalPage).unwrap(),
            Response::CalPage(0)
        );
        slave
            .handle(&mut dev, &Command::SetCalPage { page: 1 })
            .unwrap();
        assert_eq!(dev.soc().mapper().active_page(), CalPage::Page1);
        assert_eq!(
            slave.handle(&mut dev, &Command::GetCalPage).unwrap(),
            Response::CalPage(1)
        );
        assert_eq!(
            slave.handle(&mut dev, &Command::SetCalPage { page: 2 }),
            Err(ErrCode::PageNotValid)
        );
    }

    #[test]
    fn copy_cal_page_copies_enabled_ranges() {
        let mut dev = ed_device();
        // Configure one overlay range: 1 KB at flash+0x4000, page0 at 0,
        // page1 at 0x400.
        dev.soc_mut()
            .mapper_mut()
            .configure_range(
                0,
                mcds_soc::overlay::OverlayRange {
                    flash_addr: memmap::FLASH_BASE + 0x4000,
                    size: 1024,
                    offset_page0: 0,
                    offset_page1: 0x400,
                },
            )
            .unwrap();
        dev.soc_mut().mapper_mut().set_range_enabled(0, true);
        dev.soc_mut().backdoor_write(memmap::EMEM_BASE, &[0xAA; 16]);
        let mut slave = XcpSlave::new(8, 64);
        slave.handle(&mut dev, &Command::Connect).unwrap();
        slave
            .handle(&mut dev, &Command::CopyCalPage { from: 0, to: 1 })
            .unwrap();
        assert_eq!(
            dev.soc().backdoor_read(memmap::EMEM_BASE + 0x400, 16),
            vec![0xAA; 16]
        );
    }

    #[test]
    fn daq_samples_without_stopping_cores() {
        let mut dev = ed_device();
        let mut slave = XcpSlave::new(8, 64);
        slave.handle(&mut dev, &Command::Connect).unwrap();
        slave.set_event_period(0, 2_000);
        for cmd in [
            Command::FreeDaq,
            Command::AllocDaq { count: 1 },
            Command::AllocOdt { daq: 0, count: 1 },
            Command::AllocOdtEntry {
                daq: 0,
                odt: 0,
                count: 1,
            },
            Command::SetDaqPtr {
                daq: 0,
                odt: 0,
                entry: 0,
            },
            Command::WriteDaq {
                size: 4,
                addr: memmap::SRAM_BASE,
            },
            Command::SetDaqListMode {
                daq: 0,
                event: 0,
                prescaler: 1,
            },
            Command::StartStopDaqList {
                daq: 0,
                start: true,
            },
        ] {
            slave
                .handle(&mut dev, &cmd)
                .unwrap_or_else(|e| panic!("{cmd:?}: {e}"));
        }
        slave.run(&mut dev, 20_000);
        assert!(
            slave.samples_taken() >= 8,
            "{} samples",
            slave.samples_taken()
        );
        let dtos = slave.drain_dtos(usize::MAX);
        assert!(!dtos.is_empty());
        // The counter the program increments is visible and increases
        // monotonically across samples.
        let values: Vec<u32> = dtos
            .iter()
            .map(|d| u32::from_le_bytes(d.data.clone().try_into().unwrap()))
            .collect();
        for pair in values.windows(2) {
            assert!(pair[0] <= pair[1], "monotone counter {values:?}");
        }
        assert!(values.last().unwrap() > &0);
        assert!(
            !dev.soc().core(mcds_soc::CoreId(0)).is_halted(),
            "never stopped"
        );
    }

    #[test]
    fn dto_buffer_overflow_drops_oldest() {
        let mut dev = ed_device();
        let mut slave = XcpSlave::new(8, 4);
        slave.handle(&mut dev, &Command::Connect).unwrap();
        slave.set_event_period(0, 500);
        for cmd in [
            Command::AllocDaq { count: 1 },
            Command::AllocOdt { daq: 0, count: 1 },
            Command::AllocOdtEntry {
                daq: 0,
                odt: 0,
                count: 1,
            },
            Command::SetDaqPtr {
                daq: 0,
                odt: 0,
                entry: 0,
            },
            Command::WriteDaq {
                size: 1,
                addr: memmap::SRAM_BASE,
            },
            Command::SetDaqListMode {
                daq: 0,
                event: 0,
                prescaler: 1,
            },
            Command::StartStopDaqList {
                daq: 0,
                start: true,
            },
        ] {
            slave.handle(&mut dev, &cmd).unwrap();
        }
        slave.run(&mut dev, 30_000);
        assert!(slave.dto_overflows() > 0);
        assert!(slave.dto_pending() <= 4);
    }
}
