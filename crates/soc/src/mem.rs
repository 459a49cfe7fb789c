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
//!
//! Each keeps its contents in one [`PagedBytes`]: the contiguous byte
//! array the bus, fetches and the execution kernel read, plus a summary of
//! every 4 KiB page that says whether the page is stale, exactly the
//! memory's reset value, or of a cached FNV-1a hash. Every mutation path
//! (bus stores, flash program/erase, backdoor range writes, image
//! restores) goes through `PagedBytes` and marks the pages it touches
//! stale, so hashing a memory — and snapshotting the pages that differ
//! from reset — costs O(touched pages), not O(memory size). A session
//! touches a handful of the ~700 pages a development device carries.

use crate::bus::{Addr, BusFault, BusTarget, XferKind};
use crate::isa::MemWidth;
use std::sync::atomic::{AtomicU64, Ordering};

/// 64-bit FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Hashes a byte slice with 64-bit FNV-1a — the one content hash of the
/// memory page summaries and of every snapshot layer above them.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    extend_fnv1a64(FNV_OFFSET, bytes)
}

/// Folds more bytes into a running FNV-1a hash.
pub fn extend_fnv1a64(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// FNV-1a of `len` copies of `byte`, at compile time when asked.
const fn fnv1a64_repeat(byte: u8, len: usize) -> u64 {
    let mut hash = FNV_OFFSET;
    let mut i = 0;
    while i < len {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
        i += 1;
    }
    hash
}

/// Bytes per page of a memory's page summary (4 KiB).
pub const PAGE_SIZE: usize = 4096;

/// The value an erased flash byte reads.
pub const FLASH_ERASED: u8 = 0xFF;

/// FNV-1a of one full page of `0x00` and of [`FLASH_ERASED`].
const RESET_PAGE_HASHES: [u64; 2] = [
    fnv1a64_repeat(0x00, PAGE_SIZE),
    fnv1a64_repeat(FLASH_ERASED, PAGE_SIZE),
];

/// The FNV-1a hash of a page of `len` bytes all equal to `reset` — the
/// hash every reset-valued page has, a constant for full pages.
pub fn reset_page_hash(reset: u8, len: usize) -> u64 {
    match (reset, len) {
        (0x00, PAGE_SIZE) => RESET_PAGE_HASHES[0],
        (FLASH_ERASED, PAGE_SIZE) => RESET_PAGE_HASHES[1],
        _ => fnv1a64_repeat(reset, len),
    }
}

/// Folds a memory's page hashes, in page order, into the memory's hash:
/// its size, then each page's hash. [`PagedBytes::hash`] and the snapshot
/// layer (which has only the pages that differ from reset, and the reset
/// constant for the rest) fold with this one function.
pub fn fold_page_hashes(size: usize, page_hashes: impl IntoIterator<Item = u64>) -> u64 {
    page_hashes.into_iter().fold(
        extend_fnv1a64(FNV_OFFSET, &(size as u64).to_le_bytes()),
        |h, page| extend_fnv1a64(h, &page.to_le_bytes()),
    )
}

/// Number of pages covering `size` bytes (the last one may be short).
pub fn page_count(size: usize) -> usize {
    size.div_ceil(PAGE_SIZE)
}

/// Length of page `index` of a `size`-byte memory.
pub fn page_len(size: usize, index: usize) -> usize {
    PAGE_SIZE.min(size - index * PAGE_SIZE)
}

// The marks are atomics only so that `&self` can cache a page's hash.
// Bytes change only through `&mut self`, so every thread that can load a
// mark sees the bytes it summarizes; a cached hash publishes no other
// data, and `Relaxed` is enough.

/// Page mark: the page changed since it was last summarized.
const STALE: u64 = 0;
/// Page mark: the page holds exactly the memory's reset value. Set only on
/// construction, by a reset fill, or after a byte compare — never inferred
/// from a hash.
const RESET: u64 = 1;
// Any other mark is the page's cached FNV-1a hash. A page whose hash
// happens to be `STALE` or `RESET` stays uncached and is rehashed on
// every use.

/// A memory's contents: one contiguous byte array plus its page summary.
///
/// Reads borrow the array directly. Every mutator marks the pages it
/// touches stale, so [`PagedBytes::hash`] and [`PagedBytes::pages`]
/// rehash only those. The summary is refreshed through `&self` (the marks
/// are atomics), so a borrowed device can be hashed.
#[derive(Debug)]
pub struct PagedBytes {
    data: Vec<u8>,
    reset: u8,
    marks: Vec<AtomicU64>,
}

/// One page as [`PagedBytes::pages`] sees it.
#[derive(Debug, Clone, Copy)]
pub struct Page<'a> {
    /// Page index (byte offset / [`PAGE_SIZE`]).
    pub index: usize,
    /// FNV-1a hash of the page's bytes.
    pub hash: u64,
    /// The page's bytes, or `None` when it holds exactly the reset value.
    pub bytes: Option<&'a [u8]>,
}

impl Clone for PagedBytes {
    fn clone(&self) -> PagedBytes {
        PagedBytes {
            data: self.data.clone(),
            reset: self.reset,
            marks: self
                .marks
                .iter()
                .map(|m| AtomicU64::new(m.load(Ordering::Relaxed)))
                .collect(),
        }
    }
}

impl PagedBytes {
    /// `size` bytes of `reset`, every page marked reset-valued.
    pub fn new(size: usize, reset: u8) -> PagedBytes {
        PagedBytes {
            data: vec![reset; size],
            reset,
            marks: (0..page_count(size))
                .map(|_| AtomicU64::new(RESET))
                .collect(),
        }
    }

    /// The contents.
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Size in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True for a zero-sized memory.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Marks the pages covering `len` bytes at `off` stale.
    #[inline]
    fn touch(&mut self, off: usize, len: usize) {
        if len > 0 {
            for mark in &mut self.marks[off / PAGE_SIZE..=(off + len - 1) / PAGE_SIZE] {
                *mark.get_mut() = STALE;
            }
        }
    }

    /// Stores `value` at `off` with bus width `width`, little-endian, and
    /// marks the pages of its first and last byte stale: the same page for
    /// the bus's aligned accesses, two for an unaligned store straddling a
    /// page boundary.
    #[inline]
    fn store(&mut self, off: usize, width: MemWidth, value: u32) {
        write_bytes(&mut self.data, off, width, value);
        *self.marks[off / PAGE_SIZE].get_mut() = STALE;
        *self.marks[(off + width.bytes() as usize - 1) / PAGE_SIZE].get_mut() = STALE;
    }

    /// Copies `bytes` in at `off`.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the end.
    pub fn write(&mut self, off: usize, bytes: &[u8]) {
        self.data[off..off + bytes.len()].copy_from_slice(bytes);
        self.touch(off, bytes.len());
    }

    /// Resets `len` bytes at `off` to the reset value; pages the range
    /// covers whole are marked reset-valued.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the end.
    pub fn fill_reset(&mut self, off: usize, len: usize) {
        let end = off + len;
        self.data[off..end].fill(self.reset);
        self.touch(off, len);
        for index in off.div_ceil(PAGE_SIZE)..page_count(self.data.len()) {
            let page_end = index * PAGE_SIZE + page_len(self.data.len(), index);
            if page_end > end {
                break;
            }
            *self.marks[index].get_mut() = RESET;
        }
    }

    /// Rewrites the whole contents from a sparse image: the listed
    /// `(index, bytes)` pages, by strictly ascending index, and the reset
    /// value everywhere else. Unlisted pages already marked reset-valued
    /// are not touched, so the cost is O(pages + listed bytes).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range or not above the previous one,
    /// or a page's length is not [`page_len`] of its index.
    pub fn restore_pages<'a>(&mut self, pages: impl IntoIterator<Item = (usize, &'a [u8])>) {
        let size = self.data.len();
        let mut next = 0;
        for (index, bytes) in pages {
            assert!(
                index >= next && index < page_count(size),
                "page {index} out of order or out of range"
            );
            assert_eq!(bytes.len(), page_len(size, index), "page {index} length");
            for unlisted in next..index {
                self.reset_page(unlisted);
            }
            self.write(index * PAGE_SIZE, bytes);
            next = index + 1;
        }
        for unlisted in next..page_count(size) {
            self.reset_page(unlisted);
        }
    }

    /// Resets page `index` unless it is already marked reset-valued.
    fn reset_page(&mut self, index: usize) {
        if *self.marks[index].get_mut() != RESET {
            let len = page_len(self.data.len(), index);
            self.fill_reset(index * PAGE_SIZE, len);
        }
    }

    /// Page `index`'s hash, and whether it holds exactly the reset value,
    /// summarizing the page first if it is stale.
    fn summarize(&self, index: usize) -> (u64, bool) {
        let len = page_len(self.data.len(), index);
        match self.marks[index].load(Ordering::Relaxed) {
            RESET => (reset_page_hash(self.reset, len), true),
            STALE => {
                let bytes = &self.data[index * PAGE_SIZE..][..len];
                if bytes.iter().all(|&b| b == self.reset) {
                    self.marks[index].store(RESET, Ordering::Relaxed);
                    return (reset_page_hash(self.reset, len), true);
                }
                let hash = fnv1a64(bytes);
                if hash != STALE && hash != RESET {
                    self.marks[index].store(hash, Ordering::Relaxed);
                }
                (hash, false)
            }
            hash => (hash, false),
        }
    }

    /// Every page in index order, with its hash and, unless it holds
    /// exactly the reset value, its bytes. Stale pages are summarized on
    /// the way.
    pub fn pages(&self) -> impl Iterator<Item = Page<'_>> {
        (0..self.marks.len()).map(|index| {
            let (hash, reset) = self.summarize(index);
            Page {
                index,
                hash,
                bytes: (!reset)
                    .then(|| &self.data[index * PAGE_SIZE..][..page_len(self.data.len(), index)]),
            }
        })
    }

    /// The memory's hash: [`fold_page_hashes`] over [`PagedBytes::pages`].
    /// Costs O(stale pages × 4 KiB + pages).
    pub fn hash(&self) -> u64 {
        fold_page_hashes(self.data.len(), self.pages().map(|p| p.hash))
    }
}

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
    data: PagedBytes,
    base_offset: Addr,
    wait_states: u32,
}

impl Sram {
    /// Creates a RAM of `size` bytes with the given wait states per access.
    pub fn new(size: u32, wait_states: u32) -> Sram {
        Sram {
            data: PagedBytes::new(size as usize, 0),
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
        self.data.bytes()
    }

    /// Backdoor write of `bytes` at array offset `off` (no bus timing).
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the end of the array.
    pub fn write_bytes(&mut self, off: usize, bytes: &[u8]) {
        self.data.write(off, bytes);
    }

    /// The contents with their page summary.
    pub fn paged(&self) -> &PagedBytes {
        &self.data
    }

    pub(crate) fn paged_mut(&mut self) -> &mut PagedBytes {
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
        Ok(read_bytes(self.data.bytes(), off, width))
    }

    fn write(
        &mut self,
        addr: Addr,
        width: MemWidth,
        value: u32,
        _now: u64,
    ) -> Result<(), BusFault> {
        let off = self.offset(addr, width)?;
        self.data.store(off, width, value);
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
    data: PagedBytes,
    base_offset: Addr,
    read_wait_states: u32,
}

impl Flash {
    /// Creates a flash of `size` bytes, erased to [`FLASH_ERASED`], with
    /// `read_wait_states` wait states per read.
    pub fn new(size: u32, read_wait_states: u32) -> Flash {
        Flash {
            data: PagedBytes::new(size as usize, FLASH_ERASED),
            base_offset: 0,
            read_wait_states,
        }
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
        self.data.write(offset as usize, bytes);
    }

    /// Backdoor erase: resets `len` bytes at `offset` to [`FLASH_ERASED`].
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the end of the array.
    pub fn erase(&mut self, offset: u32, len: u32) {
        self.data.fill_reset(offset as usize, len as usize);
    }

    /// Backdoor view of the contents.
    pub fn bytes(&self) -> &[u8] {
        self.data.bytes()
    }

    /// The contents with their page summary.
    pub fn paged(&self) -> &PagedBytes {
        &self.data
    }

    pub(crate) fn paged_mut(&mut self) -> &mut PagedBytes {
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

impl BusTarget for Flash {
    fn access_cycles(&self, _addr: Addr, _kind: XferKind) -> u32 {
        1 + self.read_wait_states
    }

    fn read(&mut self, addr: Addr, width: MemWidth, _now: u64) -> Result<u32, BusFault> {
        let off = self.offset(addr, width)?;
        Ok(read_bytes(self.data.bytes(), off, width))
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
    data: PagedBytes,
    base_offset: Addr,
    roles: Vec<SegmentRole>,
    powered: bool,
}

/// Size of one emulation-RAM segment (64 KB).
pub const EMEM_SEGMENT_SIZE: u32 = 64 * 1024;

impl EmulationRam {
    /// Creates an emulation RAM of `segments` × 64 KB, powered on, with all
    /// segments off.
    pub fn new(segments: usize) -> EmulationRam {
        EmulationRam {
            data: PagedBytes::new(segments * EMEM_SEGMENT_SIZE as usize, 0),
            base_offset: 0,
            roles: vec![SegmentRole::Off; segments],
            powered: true,
        }
    }

    /// Sets the bus base address.
    pub fn with_base(mut self, base: Addr) -> EmulationRam {
        self.base_offset = base;
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
        self.data.bytes()
    }

    /// Backdoor write of `bytes` at array offset `off`, whatever the
    /// segment roles and power state (used by the MCDS trace sink and host
    /// program load).
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the end of the array.
    pub fn write_bytes(&mut self, off: usize, bytes: &[u8]) {
        self.data.write(off, bytes);
    }

    /// The contents with their page summary.
    pub fn paged(&self) -> &PagedBytes {
        &self.data
    }

    pub(crate) fn paged_mut(&mut self) -> &mut PagedBytes {
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
        1
    }

    fn read(&mut self, addr: Addr, width: MemWidth, _now: u64) -> Result<u32, BusFault> {
        let off = self.check(addr, width, false)?;
        Ok(read_bytes(self.data.bytes(), off, width))
    }

    fn write(
        &mut self,
        addr: Addr,
        width: MemWidth,
        value: u32,
        _now: u64,
    ) -> Result<(), BusFault> {
        let off = self.check(addr, width, true)?;
        self.data.store(off, width, value);
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

    /// The hash of a memory recomputed from its bytes, no summary used.
    fn uncached(memory: &PagedBytes) -> u64 {
        fold_page_hashes(memory.len(), memory.bytes().chunks(PAGE_SIZE).map(fnv1a64))
    }

    /// Pages listed as off reset.
    fn listed(memory: &PagedBytes) -> Vec<usize> {
        memory
            .pages()
            .filter(|p| p.bytes.is_some())
            .map(|p| p.index)
            .collect()
    }

    #[test]
    fn reset_page_hashes_are_the_hashes_of_reset_pages() {
        for reset in [0x00, FLASH_ERASED, 0x5A] {
            for len in [PAGE_SIZE, 100, 1] {
                assert_eq!(reset_page_hash(reset, len), fnv1a64(&vec![reset; len]));
            }
        }
    }

    #[test]
    fn page_summary_tracks_every_mutator() {
        let mut m = PagedBytes::new(3 * PAGE_SIZE + 10, 0);
        assert_eq!(m.hash(), uncached(&m));
        assert!(listed(&m).is_empty(), "a fresh memory is all reset");

        // A store straddling a page boundary marks both pages.
        m.store(PAGE_SIZE - 2, MemWidth::Word, 0xAABB_CCDD);
        assert_eq!(m.hash(), uncached(&m));
        assert_eq!(listed(&m), [0, 1]);

        // Writing the reset value back: the byte compare re-marks reset.
        m.write(PAGE_SIZE - 2, &[0; 4]);
        assert_eq!(m.hash(), uncached(&m));
        assert!(listed(&m).is_empty());

        // The short last page.
        m.write(3 * PAGE_SIZE + 9, &[1]);
        assert_eq!(m.hash(), uncached(&m));
        assert_eq!(listed(&m), [3]);

        // A reset fill covering page 1 whole and page 2 in part.
        m.write(PAGE_SIZE, &[7; 2 * PAGE_SIZE]);
        assert_eq!(m.hash(), uncached(&m));
        m.fill_reset(PAGE_SIZE, PAGE_SIZE + 5);
        assert_eq!(m.hash(), uncached(&m));
        assert_eq!(listed(&m), [2, 3]);
    }

    #[test]
    fn sparse_restore_rewrites_listed_pages_and_resets_the_rest() {
        let mut src = PagedBytes::new(4 * PAGE_SIZE, FLASH_ERASED);
        src.write(PAGE_SIZE + 7, &[1, 2, 3]);
        let pages: Vec<(usize, Vec<u8>)> = src
            .pages()
            .filter_map(|p| p.bytes.map(|b| (p.index, b.to_vec())))
            .collect();

        let mut dst = PagedBytes::new(4 * PAGE_SIZE, FLASH_ERASED);
        dst.write(0, &[9; 10]);
        dst.write(3 * PAGE_SIZE, &[9; 10]);
        let _ = dst.hash();
        dst.restore_pages(pages.iter().map(|(i, b)| (*i, b.as_slice())));
        assert_eq!(dst.bytes(), src.bytes());
        assert_eq!(dst.hash(), src.hash());
        assert_eq!(dst.hash(), uncached(&dst));
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn sparse_restore_rejects_a_repeated_page() {
        let mut m = PagedBytes::new(2 * PAGE_SIZE, 0);
        let page = [1; PAGE_SIZE];
        m.restore_pages([(1, &page[..]), (1, &page[..])]);
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
