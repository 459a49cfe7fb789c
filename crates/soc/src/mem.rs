//! Memory models: program flash, SRAM and the PSI emulation RAM.
//!
//! All three are byte arrays behind the [`BusTarget`] trait, differing in
//! wait states and write policy:
//!
//! * [`Flash`] — the 2 MB program flash. Slow (configurable read wait
//!   states), refuses bus writes; reprogramming happens out-of-band through
//!   [`Flash::program`] and is *charged time* by the host tooling (flash
//!   reprogramming cost is one half of the T3 experiment).
//! * [`Sram`] — on-chip RAM, usually zero wait states.
//! * [`EmulationRam`] — the 512 KB PSI emulation memory, segmented into
//!   64 KB blocks usable as calibration overlay or trace storage, with a
//!   separate power domain (Section 6: "a separate power connection for the
//!   emulation memory").

use crate::bus::{Addr, BusFault, BusTarget, XferKind};
use crate::isa::MemWidth;
use std::sync::atomic::{AtomicU64, Ordering};

fn read_bytes(data: &[u8], offset: usize, width: MemWidth) -> u32 {
    match width {
        MemWidth::Byte => data[offset] as u32,
        MemWidth::Half => u16::from_le_bytes([data[offset], data[offset + 1]]) as u32,
        MemWidth::Word => u32::from_le_bytes([
            data[offset],
            data[offset + 1],
            data[offset + 2],
            data[offset + 3],
        ]),
    }
}

fn write_bytes(data: &mut [u8], offset: usize, width: MemWidth, value: u32) {
    match width {
        MemWidth::Byte => data[offset] = value as u8,
        MemWidth::Half => data[offset..offset + 2].copy_from_slice(&(value as u16).to_le_bytes()),
        MemWidth::Word => data[offset..offset + 4].copy_from_slice(&value.to_le_bytes()),
    }
}

/// Zero-wait-state (or configurably slower) on-chip RAM.
#[derive(Debug, Clone)]
pub struct Sram {
    data: Vec<u8>,
    base_offset: Addr,
    wait_states: u32,
}

impl Sram {
    /// Creates a RAM of `size` bytes with the given wait states per access.
    pub fn new(size: u32, wait_states: u32) -> Sram {
        Sram {
            data: vec![0; size as usize],
            base_offset: 0,
            wait_states,
        }
    }

    /// Sets the bus base address so incoming absolute addresses can be
    /// translated to array offsets.
    pub fn with_base(mut self, base: Addr) -> Sram {
        self.base_offset = base;
        self
    }

    /// Size in bytes.
    pub fn size(&self) -> u32 {
        self.data.len() as u32
    }

    /// Backdoor view of the contents (no bus timing).
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Backdoor mutable view of the contents (no bus timing).
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    fn offset(&self, addr: Addr, width: MemWidth) -> Result<usize, BusFault> {
        let off = addr.wrapping_sub(self.base_offset) as usize;
        if off + width.bytes() as usize <= self.data.len() {
            Ok(off)
        } else {
            Err(BusFault::Denied { addr })
        }
    }
}

impl BusTarget for Sram {
    fn access_cycles(&self, _addr: Addr, _kind: XferKind) -> u32 {
        1 + self.wait_states
    }

    fn read(&mut self, addr: Addr, width: MemWidth, _now: u64) -> Result<u32, BusFault> {
        let off = self.offset(addr, width)?;
        Ok(read_bytes(&self.data, off, width))
    }

    fn write(
        &mut self,
        addr: Addr,
        width: MemWidth,
        value: u32,
        _now: u64,
    ) -> Result<(), BusFault> {
        let off = self.offset(addr, width)?;
        write_bytes(&mut self.data, off, width, value);
        Ok(())
    }
}

/// The program flash: slow reads, no bus writes.
///
/// Bus writes return [`BusFault::Denied`]; programming is only possible
/// through the backdoor [`Flash::program`], which the host tooling wraps
/// with erase/program timing (see `mcds-host`).
#[derive(Debug, Clone)]
pub struct Flash {
    data: Vec<u8>,
    base_offset: Addr,
    read_wait_states: u32,
    /// See [`Flash::generation`].
    generation: u64,
}

/// A generation no flash contents have had yet.
fn fresh_generation() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl Flash {
    /// Creates a flash of `size` bytes, erased to `0xFF`, with
    /// `read_wait_states` wait states per read.
    pub fn new(size: u32, read_wait_states: u32) -> Flash {
        Flash {
            data: vec![0xFF; size as usize],
            base_offset: 0,
            read_wait_states,
            generation: fresh_generation(),
        }
    }

    /// Identifies the contents: every erase or program draws a value no
    /// flash in the process has had, and a clone keeps it. So a flash whose
    /// generation equals one noted earlier (on it, or on the flash it was
    /// cloned from) still holds the contents it had then.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Sets the bus base address.
    pub fn with_base(mut self, base: Addr) -> Flash {
        self.base_offset = base;
        self
    }

    /// Size in bytes.
    pub fn size(&self) -> u32 {
        self.data.len() as u32
    }

    /// Read wait states per access.
    pub fn read_wait_states(&self) -> u32 {
        self.read_wait_states
    }

    /// Backdoor programming: writes `bytes` at flash-relative `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the write runs past the end of the array.
    pub fn program(&mut self, offset: u32, bytes: &[u8]) {
        let off = offset as usize;
        self.data[off..off + bytes.len()].copy_from_slice(bytes);
        self.generation = fresh_generation();
    }

    /// Backdoor erase: resets `len` bytes at `offset` to `0xFF`.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the end of the array.
    pub fn erase(&mut self, offset: u32, len: u32) {
        let off = offset as usize;
        self.data[off..off + len as usize].fill(0xFF);
        self.generation = fresh_generation();
    }

    /// Backdoor view of the contents.
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    fn offset(&self, addr: Addr, width: MemWidth) -> Result<usize, BusFault> {
        let off = addr.wrapping_sub(self.base_offset) as usize;
        if off + width.bytes() as usize <= self.data.len() {
            Ok(off)
        } else {
            Err(BusFault::Denied { addr })
        }
    }
}

impl BusTarget for Flash {
    fn access_cycles(&self, _addr: Addr, _kind: XferKind) -> u32 {
        1 + self.read_wait_states
    }

    fn read(&mut self, addr: Addr, width: MemWidth, _now: u64) -> Result<u32, BusFault> {
        let off = self.offset(addr, width)?;
        Ok(read_bytes(&self.data, off, width))
    }

    fn write(
        &mut self,
        addr: Addr,
        _width: MemWidth,
        _value: u32,
        _now: u64,
    ) -> Result<(), BusFault> {
        Err(BusFault::Denied { addr })
    }
}

/// Role of one 64 KB emulation-RAM segment (Section 7: "The emulation RAM is
/// segmented into 64 kByte blocks for use as either overlay or trace
/// memory").
#[derive(
    serde::Serialize, serde::Deserialize, Debug, Clone, Copy, PartialEq, Eq, Hash, Default,
)]
pub enum SegmentRole {
    /// Not assigned; bus accesses are denied.
    #[default]
    Off,
    /// Calibration / program overlay memory: normal RAM semantics.
    Overlay,
    /// Trace memory: written by the MCDS trace sink, read-only from the bus.
    Trace,
}

/// The PSI emulation RAM: 512 KB in eight 64 KB segments.
#[derive(Debug, Clone)]
pub struct EmulationRam {
    data: Vec<u8>,
    base_offset: Addr,
    roles: Vec<SegmentRole>,
    powered: bool,
    wait_states: u32,
}

/// Size of one emulation-RAM segment (64 KB).
pub const EMEM_SEGMENT_SIZE: u32 = 64 * 1024;

impl EmulationRam {
    /// Creates an emulation RAM of `segments` × 64 KB, powered on, with all
    /// segments off.
    pub fn new(segments: usize) -> EmulationRam {
        EmulationRam {
            data: vec![0; segments * EMEM_SEGMENT_SIZE as usize],
            base_offset: 0,
            roles: vec![SegmentRole::Off; segments],
            powered: true,
            wait_states: 0,
        }
    }

    /// Sets the bus base address.
    pub fn with_base(mut self, base: Addr) -> EmulationRam {
        self.base_offset = base;
        self
    }

    /// Sets the raw (non-overlay) access wait states.
    pub fn with_wait_states(mut self, wait_states: u32) -> EmulationRam {
        self.wait_states = wait_states;
        self
    }

    /// Total size in bytes.
    pub fn size(&self) -> u32 {
        self.data.len() as u32
    }

    /// Number of 64 KB segments.
    pub fn segment_count(&self) -> usize {
        self.roles.len()
    }

    /// Role of segment `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn segment_role(&self, idx: usize) -> SegmentRole {
        self.roles[idx]
    }

    /// Assigns a role to segment `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn set_segment_role(&mut self, idx: usize, role: SegmentRole) {
        self.roles[idx] = role;
    }

    /// Powers the RAM on or off. The separate power domain lets the debug
    /// processor cold-boot from emulation memory (Section 6).
    pub fn set_powered(&mut self, on: bool) {
        self.powered = on;
    }

    /// True if the RAM is powered.
    pub fn is_powered(&self) -> bool {
        self.powered
    }

    /// Backdoor read (used by the trace read-out path and tests).
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Backdoor write (used by the MCDS trace sink and host program load).
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    fn check(&self, addr: Addr, width: MemWidth, write: bool) -> Result<usize, BusFault> {
        if !self.powered {
            return Err(BusFault::Denied { addr });
        }
        let off = addr.wrapping_sub(self.base_offset) as usize;
        if off + width.bytes() as usize > self.data.len() {
            return Err(BusFault::Denied { addr });
        }
        let seg = off / EMEM_SEGMENT_SIZE as usize;
        match self.roles[seg] {
            SegmentRole::Off => Err(BusFault::Denied { addr }),
            SegmentRole::Overlay => Ok(off),
            SegmentRole::Trace => {
                if write {
                    Err(BusFault::Denied { addr })
                } else {
                    Ok(off)
                }
            }
        }
    }
}

impl BusTarget for EmulationRam {
    fn access_cycles(&self, _addr: Addr, _kind: XferKind) -> u32 {
        1 + self.wait_states
    }

    fn read(&mut self, addr: Addr, width: MemWidth, _now: u64) -> Result<u32, BusFault> {
        let off = self.check(addr, width, false)?;
        Ok(read_bytes(&self.data, off, width))
    }

    fn write(
        &mut self,
        addr: Addr,
        width: MemWidth,
        value: u32,
        _now: u64,
    ) -> Result<(), BusFault> {
        let off = self.check(addr, width, true)?;
        write_bytes(&mut self.data, off, width, value);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sram_widths_roundtrip() {
        let mut s = Sram::new(64, 0);
        s.write(8, MemWidth::Word, 0x1122_3344, 0).unwrap();
        assert_eq!(s.read(8, MemWidth::Word, 0).unwrap(), 0x1122_3344);
        assert_eq!(s.read(8, MemWidth::Byte, 0).unwrap(), 0x44, "little endian");
        assert_eq!(s.read(10, MemWidth::Half, 0).unwrap(), 0x1122);
        s.write(12, MemWidth::Byte, 0xAB, 0).unwrap();
        assert_eq!(s.read(12, MemWidth::Byte, 0).unwrap(), 0xAB);
    }

    #[test]
    fn sram_out_of_range_denied() {
        let mut s = Sram::new(64, 0).with_base(0x100);
        assert!(s.read(0x100 + 61, MemWidth::Word, 0).is_err());
        assert!(s.read(0x100, MemWidth::Word, 0).is_ok());
        assert!(
            s.read(0xFC, MemWidth::Word, 0).is_err(),
            "below base wraps to huge offset"
        );
    }

    #[test]
    fn flash_rejects_bus_writes_but_programs_backdoor() {
        let mut f = Flash::new(1024, 3);
        assert!(f.write(0, MemWidth::Word, 1, 0).is_err());
        f.program(4, &[0x78, 0x56, 0x34, 0x12]);
        assert_eq!(f.read(4, MemWidth::Word, 0).unwrap(), 0x1234_5678);
        assert_eq!(f.access_cycles(0, XferKind::Fetch), 4, "1 + 3 wait states");
        f.erase(4, 4);
        assert_eq!(f.read(4, MemWidth::Word, 0).unwrap(), 0xFFFF_FFFF);
    }

    #[test]
    fn emem_segment_roles_enforced() {
        let mut e = EmulationRam::new(8);
        assert_eq!(e.size(), 512 * 1024);
        // All segments off: denied.
        assert!(e.read(0, MemWidth::Word, 0).is_err());
        e.set_segment_role(0, SegmentRole::Overlay);
        e.write(16, MemWidth::Word, 7, 0).unwrap();
        assert_eq!(e.read(16, MemWidth::Word, 0).unwrap(), 7);
        // Trace segment: bus read-only.
        e.set_segment_role(1, SegmentRole::Trace);
        let trace_addr = EMEM_SEGMENT_SIZE;
        assert!(e.write(trace_addr, MemWidth::Word, 1, 0).is_err());
        assert!(e.read(trace_addr, MemWidth::Word, 0).is_ok());
    }

    #[test]
    fn emem_power_domain() {
        let mut e = EmulationRam::new(1);
        e.set_segment_role(0, SegmentRole::Overlay);
        e.write(0, MemWidth::Word, 42, 0).unwrap();
        e.set_powered(false);
        assert!(e.read(0, MemWidth::Word, 0).is_err());
        e.set_powered(true);
        assert_eq!(
            e.read(0, MemWidth::Word, 0).unwrap(),
            42,
            "contents retained"
        );
    }
}
