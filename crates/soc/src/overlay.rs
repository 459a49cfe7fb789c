//! The address-mapping (calibration overlay) block.
//!
//! Section 7 of the paper: *"An address-mapping block resides on the
//! production chip. It allows memory access redirection for up to 16 address
//! ranges, with individual block sizes from 1 kByte to 32 kBytes of the
//! overlay Emulation RAM. The access timing matches the flash memory being
//! overlaid, ensuring consistent behavior. The overlay memory is divided
//! into two pages that can be swapped atomically by a single control
//! access."*
//!
//! [`OverlayMapper`] models exactly that: it fronts the program flash, the
//! emulation RAM window and its own control-register window on the bus. A
//! flash access falling inside an enabled redirection range is served from
//! the emulation RAM at the active page's offset — with *flash* timing, so
//! the application cannot tell calibration RAM from flash. On a production
//! device (no emulation RAM fitted) the block is present but any enabled
//! redirection faults, which is how interchangeability is kept honest.

use crate::bus::{Addr, AddrRange, BusFault, BusTarget, XferKind};
use crate::isa::MemWidth;
use crate::mem::{EmulationRam, Flash, EMEM_SEGMENT_SIZE};

/// Number of independent redirection ranges (paper: "up to 16 address
/// ranges").
pub const OVERLAY_RANGE_COUNT: usize = 16;

/// Smallest redirection block (1 KB).
pub const OVERLAY_MIN_BLOCK: u32 = 1024;

/// Largest redirection block (32 KB).
pub const OVERLAY_MAX_BLOCK: u32 = 32 * 1024;

/// Identifier of one of the two calibration pages.
#[derive(
    serde::Serialize, serde::Deserialize, Debug, Clone, Copy, PartialEq, Eq, Hash, Default,
)]
pub enum CalPage {
    /// Page 0 (reset default).
    #[default]
    Page0,
    /// Page 1.
    Page1,
}

impl CalPage {
    /// The other page.
    pub fn other(self) -> CalPage {
        match self {
            CalPage::Page0 => CalPage::Page1,
            CalPage::Page1 => CalPage::Page0,
        }
    }

    /// Register encoding (0 or 1).
    pub fn bit(self) -> u32 {
        match self {
            CalPage::Page0 => 0,
            CalPage::Page1 => 1,
        }
    }

    /// Decodes from the low bit of a register value.
    pub fn from_bit(v: u32) -> CalPage {
        if v & 1 == 0 {
            CalPage::Page0
        } else {
            CalPage::Page1
        }
    }
}

/// One redirection range: a flash window and its per-page emulation-RAM
/// offsets.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OverlayRange {
    /// Absolute flash address of the window start.
    pub flash_addr: Addr,
    /// Window size in bytes (power of two, 1 KB – 32 KB).
    pub size: u32,
    /// Emulation-RAM byte offset backing page 0.
    pub offset_page0: u32,
    /// Emulation-RAM byte offset backing page 1.
    pub offset_page1: u32,
}

impl OverlayRange {
    fn offset_for(&self, page: CalPage) -> u32 {
        match page {
            CalPage::Page0 => self.offset_page0,
            CalPage::Page1 => self.offset_page1,
        }
    }
}

/// Error raised when configuring an invalid overlay range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigOverlayError {
    /// Range index ≥ [`OVERLAY_RANGE_COUNT`].
    #[allow(missing_docs)]
    BadIndex { index: usize },
    /// Size is not a power of two between 1 KB and 32 KB.
    #[allow(missing_docs)]
    BadSize { size: u32 },
    /// The flash window is not aligned to its size or lies outside flash.
    #[allow(missing_docs)]
    BadWindow { flash_addr: Addr, size: u32 },
    /// An emulation-RAM offset is unaligned or the backing block would run
    /// past the end of the emulation RAM.
    #[allow(missing_docs)]
    BadOffset { offset: u32 },
}

impl std::fmt::Display for ConfigOverlayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ConfigOverlayError::BadIndex { index } => {
                write!(f, "overlay range index {index} out of range")
            }
            ConfigOverlayError::BadSize { size } => {
                write!(
                    f,
                    "overlay block size {size} not a power of two in 1 KB..=32 KB"
                )
            }
            ConfigOverlayError::BadWindow { flash_addr, size } => {
                write!(
                    f,
                    "overlay window {flash_addr:#010x}+{size:#x} unaligned or outside flash"
                )
            }
            ConfigOverlayError::BadOffset { offset } => {
                write!(f, "overlay emulation-RAM offset {offset:#x} invalid")
            }
        }
    }
}

impl std::error::Error for ConfigOverlayError {}

/// Serializable runtime state of an [`OverlayMapper`]: range configuration,
/// enables, active calibration page and instrumentation counters. The bus
/// windows and the fronted memories (flash / emulation-RAM contents) are
/// *not* included — memories are snapshotted separately as raw byte images.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, PartialEq, Eq)]
pub struct OverlayState {
    ranges: Vec<OverlayRange>,
    valid: u16,
    enabled: u16,
    page: CalPage,
    timing_match: bool,
    swap_count: u64,
}

/// The address-mapping block plus the memories it fronts.
///
/// Bus-visible windows (all routed to this one target):
///
/// * the flash window (redirection applies here),
/// * the emulation-RAM window (direct access, e.g. trace read-out or
///   calibration writes to the inactive page),
/// * the control-register window (page select, enables, per-range setup).
///
/// # Control registers (word access, offsets from the control base)
///
/// | Offset | Register | Meaning |
/// |--------|----------|---------|
/// | `0x00` | `PAGE`   | bit 0: active calibration page; a single write swaps all ranges atomically |
/// | `0x04` | `ENABLE` | bits 15:0: per-range enable |
/// | `0x08` | `TIMING` | bit 0: 1 = redirected accesses use flash timing (reset default), 0 = raw emulation-RAM timing (ablation) |
/// | `0x10 + i*0x10` | `FADDR[i]`  | flash window start |
/// | `0x14 + i*0x10` | `SIZE[i]`   | window size in bytes |
/// | `0x18 + i*0x10` | `OFF0[i]`   | emulation-RAM offset, page 0 |
/// | `0x1C + i*0x10` | `OFF1[i]`   | emulation-RAM offset, page 1 |
#[derive(Debug)]
pub struct OverlayMapper {
    flash: Flash,
    emem: Option<EmulationRam>,
    flash_range: AddrRange,
    emem_range: AddrRange,
    ctrl_range: AddrRange,
    ranges: [OverlayRange; OVERLAY_RANGE_COUNT],
    valid: u16,
    enabled: u16,
    page: CalPage,
    timing_match: bool,
    /// Count of atomic page swaps performed (experiment instrumentation).
    swap_count: u64,
}

impl OverlayMapper {
    /// Creates the mapper fronting `flash` (mapped at `flash_base`) and an
    /// optional emulation RAM (mapped at `emem_base`), with control
    /// registers at `ctrl_base`.
    pub fn new(
        flash: Flash,
        flash_base: Addr,
        emem: Option<EmulationRam>,
        emem_base: Addr,
        ctrl_base: Addr,
    ) -> OverlayMapper {
        let flash_range = AddrRange::new(flash_base, flash.size());
        let emem = emem.map(|e| e.with_base(emem_base));
        let emem_size = emem.as_ref().map(|e| e.size()).unwrap_or(4);
        OverlayMapper {
            flash,
            emem,
            flash_range,
            emem_range: AddrRange::new(emem_base, emem_size),
            ctrl_range: AddrRange::new(ctrl_base, 0x10 + 0x10 * OVERLAY_RANGE_COUNT as u32),
            ranges: [OverlayRange::default(); OVERLAY_RANGE_COUNT],
            valid: 0,
            enabled: 0,
            page: CalPage::Page0,
            timing_match: true,
            swap_count: 0,
        }
    }

    /// The flash bus window.
    pub fn flash_window(&self) -> AddrRange {
        self.flash_range
    }

    /// The emulation-RAM bus window.
    pub fn emem_window(&self) -> AddrRange {
        self.emem_range
    }

    /// The control-register bus window.
    pub fn ctrl_window(&self) -> AddrRange {
        self.ctrl_range
    }

    /// The fronted flash (backdoor).
    pub fn flash(&self) -> &Flash {
        &self.flash
    }

    /// Mutable backdoor to the fronted flash (program loading, host
    /// reprogramming).
    pub fn flash_mut(&mut self) -> &mut Flash {
        &mut self.flash
    }

    /// The emulation RAM, if this device has one fitted.
    pub fn emem(&self) -> Option<&EmulationRam> {
        self.emem.as_ref()
    }

    /// Mutable backdoor to the emulation RAM (trace sink, segment roles).
    pub fn emem_mut(&mut self) -> Option<&mut EmulationRam> {
        self.emem.as_mut()
    }

    /// The active calibration page.
    pub fn active_page(&self) -> CalPage {
        self.page
    }

    /// Number of atomic page swaps performed so far.
    pub fn swap_count(&self) -> u64 {
        self.swap_count
    }

    /// True if redirected accesses use flash timing (the paper's behaviour).
    pub fn timing_match(&self) -> bool {
        self.timing_match
    }

    /// Enables or disables flash-timing matching for redirected accesses
    /// (the T1 ablation knob).
    pub fn set_timing_match(&mut self, on: bool) {
        self.timing_match = on;
    }

    /// Captures the mapper's runtime state (see [`OverlayState`]). Memory
    /// contents are captured separately via [`OverlayMapper::flash`] /
    /// [`OverlayMapper::emem`].
    pub fn save_state(&self) -> OverlayState {
        OverlayState {
            ranges: self.ranges.to_vec(),
            valid: self.valid,
            enabled: self.enabled,
            page: self.page,
            timing_match: self.timing_match,
            swap_count: self.swap_count,
        }
    }

    /// Restores state captured by [`OverlayMapper::save_state`]. Fields are
    /// assigned directly (no swap-count bump, no validation re-run).
    ///
    /// # Panics
    ///
    /// Panics if the saved range table length differs from
    /// [`OVERLAY_RANGE_COUNT`].
    pub fn restore_state(&mut self, state: &OverlayState) {
        assert_eq!(
            state.ranges.len(),
            OVERLAY_RANGE_COUNT,
            "overlay range table length mismatch on restore"
        );
        self.ranges.copy_from_slice(&state.ranges);
        self.valid = state.valid;
        self.enabled = state.enabled;
        self.page = state.page;
        self.timing_match = state.timing_match;
        self.swap_count = state.swap_count;
    }

    /// Selects the active calibration page for *all* ranges at once. This is
    /// the atomic swap: it takes effect between two bus transactions, never
    /// within one.
    pub fn set_active_page(&mut self, page: CalPage) {
        if page != self.page {
            self.swap_count += 1;
        }
        self.page = page;
    }

    /// Configures redirection range `index`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigOverlayError`] if the index, size, alignment or
    /// emulation-RAM offsets are invalid. Ranges may only be configured
    /// while disabled.
    pub fn configure_range(
        &mut self,
        index: usize,
        range: OverlayRange,
    ) -> Result<(), ConfigOverlayError> {
        if index >= OVERLAY_RANGE_COUNT {
            return Err(ConfigOverlayError::BadIndex { index });
        }
        self.valid &= !(1 << index);
        if !range.size.is_power_of_two()
            || !(OVERLAY_MIN_BLOCK..=OVERLAY_MAX_BLOCK).contains(&range.size)
        {
            return Err(ConfigOverlayError::BadSize { size: range.size });
        }
        if !range.flash_addr.is_multiple_of(range.size)
            || !self.flash_range.contains(range.flash_addr)
            || range
                .flash_addr
                .checked_add(range.size)
                .is_none_or(|end| end > self.flash_range.end)
        {
            return Err(ConfigOverlayError::BadWindow {
                flash_addr: range.flash_addr,
                size: range.size,
            });
        }
        let emem_size = self.emem.as_ref().map(|e| e.size()).unwrap_or(0);
        for off in [range.offset_page0, range.offset_page1] {
            if off % 4 != 0
                || off
                    .checked_add(range.size)
                    .is_none_or(|end| end > emem_size)
            {
                return Err(ConfigOverlayError::BadOffset { offset: off });
            }
        }
        self.ranges[index] = range;
        self.valid |= 1 << index;
        Ok(())
    }

    /// Returns the configuration of range `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= OVERLAY_RANGE_COUNT`.
    pub fn range(&self, index: usize) -> OverlayRange {
        self.ranges[index]
    }

    /// Enables or disables redirection range `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= OVERLAY_RANGE_COUNT`.
    pub fn set_range_enabled(&mut self, index: usize, on: bool) {
        assert!(index < OVERLAY_RANGE_COUNT);
        if on {
            self.enabled |= 1 << index;
        } else {
            self.enabled &= !(1 << index);
        }
    }

    /// True if range `index` is enabled.
    pub fn range_enabled(&self, index: usize) -> bool {
        self.enabled & (1 << index) != 0
    }

    /// Resolves a flash-window address to its redirect target, if any:
    /// returns the emulation-RAM byte offset serving the access on the
    /// *active* page.
    pub fn redirect_of(&self, addr: Addr) -> Option<u32> {
        self.redirect_on_page(addr, self.page)
    }

    /// Resolves a flash-window address to the emulation-RAM offset it would
    /// use on `page`.
    pub fn redirect_on_page(&self, addr: Addr, page: CalPage) -> Option<u32> {
        for i in 0..OVERLAY_RANGE_COUNT {
            if self.enabled & self.valid & (1 << i) == 0 {
                continue;
            }
            let r = &self.ranges[i];
            if addr >= r.flash_addr && addr - r.flash_addr < r.size {
                return Some(r.offset_for(page) + (addr - r.flash_addr));
            }
        }
        None
    }

    /// True if an enabled range maps part of the flash window, on the
    /// active page, onto one of the emulation-RAM `segments`: only then
    /// can a fetch or a flash-window access read what is stored there.
    pub fn maps_onto(&self, segments: &[usize]) -> bool {
        let live = self.enabled & self.valid;
        (0..OVERLAY_RANGE_COUNT)
            .filter(|i| live & (1 << i) != 0)
            .any(|i| {
                let r = &self.ranges[i];
                let first = r.offset_for(self.page) / EMEM_SEGMENT_SIZE;
                let last = (r.offset_for(self.page) + r.size - 1) / EMEM_SEGMENT_SIZE;
                segments
                    .iter()
                    .any(|&s| (first..=last).contains(&(s as u32)))
            })
    }

    fn ctrl_read(&self, off: u32) -> Result<u32, BusFault> {
        Ok(match off {
            0x00 => self.page.bit(),
            0x04 => self.enabled as u32,
            0x08 => self.timing_match as u32,
            o if o >= 0x10 => {
                let i = ((o - 0x10) / 0x10) as usize;
                if i >= OVERLAY_RANGE_COUNT {
                    return Err(BusFault::Denied {
                        addr: self.ctrl_range.start + off,
                    });
                }
                let r = &self.ranges[i];
                match (o - 0x10) % 0x10 {
                    0x0 => r.flash_addr,
                    0x4 => r.size,
                    0x8 => r.offset_page0,
                    _ => r.offset_page1,
                }
            }
            _ => {
                return Err(BusFault::Denied {
                    addr: self.ctrl_range.start + off,
                })
            }
        })
    }

    fn ctrl_write(&mut self, off: u32, value: u32) -> Result<(), BusFault> {
        let addr = self.ctrl_range.start + off;
        match off {
            0x00 => {
                self.set_active_page(CalPage::from_bit(value));
                Ok(())
            }
            0x04 => {
                self.enabled = value as u16;
                Ok(())
            }
            0x08 => {
                self.timing_match = value & 1 != 0;
                Ok(())
            }
            o if o >= 0x10 => {
                let i = ((o - 0x10) / 0x10) as usize;
                if i >= OVERLAY_RANGE_COUNT {
                    return Err(BusFault::Denied { addr });
                }
                let mut r = self.ranges[i];
                match (o - 0x10) % 0x10 {
                    0x0 => r.flash_addr = value,
                    0x4 => r.size = value,
                    0x8 => r.offset_page0 = value,
                    _ => r.offset_page1 = value,
                }
                // A partially-written range is stored as-is so multi-register
                // setup sequences work; redirect resolution ignores ranges
                // whose last write left them invalid.
                if self.configure_range(i, r).is_err() {
                    self.ranges[i] = r;
                }
                Ok(())
            }
            _ => Err(BusFault::Denied { addr }),
        }
    }
}

impl BusTarget for OverlayMapper {
    fn access_cycles(&self, addr: Addr, kind: XferKind) -> u32 {
        if self.flash_range.contains(addr) {
            if !self.timing_match {
                if let (Some(_), Some(e)) = (self.redirect_of(addr), self.emem.as_ref()) {
                    return e.access_cycles(addr, kind);
                }
            }
            // Flash timing, whether served by flash or (timing-matched)
            // overlay RAM: "the access timing matches the flash memory
            // being overlaid".
            self.flash.access_cycles(addr, kind)
        } else if self.emem_range.contains(addr) {
            self.emem
                .as_ref()
                .map(|e| e.access_cycles(addr, kind))
                .unwrap_or(1)
        } else {
            1
        }
    }

    fn read(&mut self, addr: Addr, width: MemWidth, now: u64) -> Result<u32, BusFault> {
        if self.flash_range.contains(addr) {
            if let Some(off) = self.redirect_of(addr) {
                let e = self.emem.as_mut().ok_or(BusFault::Denied { addr })?;
                let base = self.emem_range.start;
                return e.read(base + off, width, now);
            }
            self.flash.read(addr - self.flash_range.start, width, now)
        } else if self.emem_range.contains(addr) {
            let e = self.emem.as_mut().ok_or(BusFault::Denied { addr })?;
            e.read(addr, width, now)
        } else if self.ctrl_range.contains(addr) {
            if width != MemWidth::Word {
                return Err(BusFault::Denied { addr });
            }
            self.ctrl_read(addr - self.ctrl_range.start)
        } else {
            Err(BusFault::Unmapped { addr })
        }
    }

    fn write(&mut self, addr: Addr, width: MemWidth, value: u32, now: u64) -> Result<(), BusFault> {
        if self.flash_range.contains(addr) {
            // Writes through an overlaid window patch the calibration RAM;
            // writes to real flash are denied (flash programs out-of-band).
            if let Some(off) = self.redirect_of(addr) {
                let e = self.emem.as_mut().ok_or(BusFault::Denied { addr })?;
                let base = self.emem_range.start;
                return e.write(base + off, width, value, now);
            }
            Err(BusFault::Denied { addr })
        } else if self.emem_range.contains(addr) {
            let e = self.emem.as_mut().ok_or(BusFault::Denied { addr })?;
            e.write(addr, width, value, now)
        } else if self.ctrl_range.contains(addr) {
            if width != MemWidth::Word {
                return Err(BusFault::Denied { addr });
            }
            self.ctrl_write(addr - self.ctrl_range.start, value)
        } else {
            Err(BusFault::Unmapped { addr })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::SegmentRole;

    const FLASH_BASE: Addr = 0x8000_0000;
    const EMEM_BASE: Addr = 0xE000_0000;
    const CTRL_BASE: Addr = 0xF000_0400;

    fn mapper_with_emem() -> OverlayMapper {
        let flash = Flash::new(128 * 1024, 3);
        let mut emem = EmulationRam::new(2).with_base(EMEM_BASE);
        emem.set_segment_role(0, SegmentRole::Overlay);
        emem.set_segment_role(1, SegmentRole::Overlay);
        OverlayMapper::new(flash, FLASH_BASE, Some(emem), EMEM_BASE, CTRL_BASE)
    }

    fn cal_range() -> OverlayRange {
        OverlayRange {
            flash_addr: FLASH_BASE + 0x4000,
            size: 4096,
            offset_page0: 0,
            offset_page1: 0x1000,
        }
    }

    #[test]
    fn redirect_reads_hit_emem() {
        let mut m = mapper_with_emem();
        m.flash_mut().program(0x4000, &[0x11, 0x22, 0x33, 0x44]);
        m.configure_range(0, cal_range()).unwrap();
        // Disabled: flash value visible.
        assert_eq!(
            m.read(FLASH_BASE + 0x4000, MemWidth::Word, 0).unwrap(),
            0x4433_2211
        );
        // Seed page-0 RAM through the direct window and enable.
        m.write(EMEM_BASE, MemWidth::Word, 0xAABB_CCDD, 0).unwrap();
        m.set_range_enabled(0, true);
        assert_eq!(
            m.read(FLASH_BASE + 0x4000, MemWidth::Word, 0).unwrap(),
            0xAABB_CCDD
        );
    }

    #[test]
    fn page_swap_switches_backing_store() {
        let mut m = mapper_with_emem();
        m.configure_range(0, cal_range()).unwrap();
        m.set_range_enabled(0, true);
        m.write(EMEM_BASE, MemWidth::Word, 100, 0).unwrap(); // page 0 backing
        m.write(EMEM_BASE + 0x1000, MemWidth::Word, 200, 0).unwrap(); // page 1 backing
        assert_eq!(m.read(FLASH_BASE + 0x4000, MemWidth::Word, 0).unwrap(), 100);
        // Atomic swap via a single control write.
        m.write(CTRL_BASE, MemWidth::Word, 1, 0).unwrap();
        assert_eq!(m.read(FLASH_BASE + 0x4000, MemWidth::Word, 0).unwrap(), 200);
        assert_eq!(m.active_page(), CalPage::Page1);
        assert_eq!(m.swap_count(), 1);
    }

    #[test]
    fn overlay_timing_matches_flash() {
        let mut m = mapper_with_emem();
        m.configure_range(0, cal_range()).unwrap();
        m.set_range_enabled(0, true);
        let flash_cycles = m.access_cycles(FLASH_BASE + 0x100, XferKind::Read);
        let overlay_cycles = m.access_cycles(FLASH_BASE + 0x4000, XferKind::Read);
        assert_eq!(
            flash_cycles, overlay_cycles,
            "paper: timing matches the flash"
        );
        // Ablation: raw RAM timing is faster.
        m.set_timing_match(false);
        let raw = m.access_cycles(FLASH_BASE + 0x4000, XferKind::Read);
        assert!(raw < overlay_cycles);
    }

    #[test]
    fn writes_through_overlaid_window_patch_ram_not_flash() {
        let mut m = mapper_with_emem();
        m.configure_range(0, cal_range()).unwrap();
        m.set_range_enabled(0, true);
        m.write(FLASH_BASE + 0x4004, MemWidth::Word, 0x55, 0)
            .unwrap();
        assert_eq!(m.read(EMEM_BASE + 4, MemWidth::Word, 0).unwrap(), 0x55);
        // Flash itself untouched (still erased).
        assert_eq!(m.flash().bytes()[0x4004], 0xFF);
        // Outside any overlay, flash writes are denied.
        assert!(m.write(FLASH_BASE, MemWidth::Word, 1, 0).is_err());
    }

    #[test]
    fn production_device_denies_redirect() {
        let flash = Flash::new(128 * 1024, 3);
        let mut m = OverlayMapper::new(flash, FLASH_BASE, None, EMEM_BASE, CTRL_BASE);
        // Configuration is rejected because there is no emulation RAM to
        // back any offset.
        assert!(m.configure_range(0, cal_range()).is_err());
        // Direct emulation-RAM window also faults.
        assert!(m.read(EMEM_BASE, MemWidth::Word, 0).is_err());
    }

    #[test]
    fn range_validation() {
        let mut m = mapper_with_emem();
        let base = cal_range();
        assert!(m.configure_range(16, base).is_err(), "index");
        let mut r = base;
        r.size = 3000;
        assert!(matches!(
            m.configure_range(0, r),
            Err(ConfigOverlayError::BadSize { .. })
        ));
        r = base;
        r.size = 64 * 1024;
        assert!(matches!(
            m.configure_range(0, r),
            Err(ConfigOverlayError::BadSize { .. })
        ));
        r = base;
        r.flash_addr = FLASH_BASE + 0x4100; // unaligned to 4 KB
        assert!(matches!(
            m.configure_range(0, r),
            Err(ConfigOverlayError::BadWindow { .. })
        ));
        r = base;
        r.offset_page1 = 127 * 1024; // runs past 128 KB emem
        assert!(matches!(
            m.configure_range(0, r),
            Err(ConfigOverlayError::BadOffset { .. })
        ));
        assert!(m.configure_range(0, base).is_ok());
    }

    #[test]
    fn sixteen_ranges_resolve_independently() {
        let mut m = mapper_with_emem();
        for i in 0..OVERLAY_RANGE_COUNT {
            let r = OverlayRange {
                flash_addr: FLASH_BASE + (i as u32) * 0x1000,
                size: 1024,
                offset_page0: (i as u32) * 0x400,
                offset_page1: 0x10000 + (i as u32) * 0x400,
            };
            m.configure_range(i, r).unwrap();
            m.set_range_enabled(i, true);
        }
        for i in 0..OVERLAY_RANGE_COUNT {
            let addr = FLASH_BASE + (i as u32) * 0x1000 + 8;
            assert_eq!(m.redirect_of(addr), Some((i as u32) * 0x400 + 8));
            assert_eq!(
                m.redirect_on_page(addr, CalPage::Page1),
                Some(0x10000 + (i as u32) * 0x400 + 8)
            );
        }
        // An address between windows is not redirected.
        assert_eq!(m.redirect_of(FLASH_BASE + 0x0C00), None);
    }

    #[test]
    fn ctrl_register_roundtrip() {
        let mut m = mapper_with_emem();
        let r = cal_range();
        // Program range 0 registers via the bus interface.
        m.write(CTRL_BASE + 0x10, MemWidth::Word, r.flash_addr, 0)
            .unwrap();
        m.write(CTRL_BASE + 0x14, MemWidth::Word, r.size, 0)
            .unwrap();
        m.write(CTRL_BASE + 0x18, MemWidth::Word, r.offset_page0, 0)
            .unwrap();
        m.write(CTRL_BASE + 0x1C, MemWidth::Word, r.offset_page1, 0)
            .unwrap();
        m.write(CTRL_BASE + 0x04, MemWidth::Word, 1, 0).unwrap();
        assert_eq!(
            m.read(CTRL_BASE + 0x10, MemWidth::Word, 0).unwrap(),
            r.flash_addr
        );
        assert_eq!(m.read(CTRL_BASE + 0x04, MemWidth::Word, 0).unwrap(), 1);
        assert!(m.range_enabled(0));
        assert_eq!(m.range(0), r);
        // Non-word control access denied.
        assert!(m.read(CTRL_BASE, MemWidth::Byte, 0).is_err());
    }
}
