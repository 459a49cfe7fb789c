//! The memory page summaries against an uncached reference.
//!
//! Every memory keeps a per-page summary (stale / reset-valued / cached
//! hash) that `device_state_hash`, snapshot capture and restore rely on.
//! A mutation path that forgets to mark its pages stale leaves a cached
//! page hash behind, and the device hash silently stops covering the
//! bytes it changed. These properties drive random sequences of every
//! mutation path — core stores into SRAM and an EMEM overlay segment,
//! trace stores, backdoor writes, flash program/erase, sparse page
//! restores, snapshot restores onto the same device and onto a fresh
//! one — and after each step check the cached hash against a fold
//! recomputed from the raw memory bytes, the captured snapshot's hash,
//! and the hash of a device revived from the snapshot's JSON.

use mcds::McdsConfig;
use mcds_psi::device::{Device, DeviceBuilder, DeviceVariant};
use mcds_replay::{device_state_hash, extend_fnv1a64, fnv1a64, SocSnapshot};
use mcds_soc::asm::assemble;
use mcds_soc::cpu::CoreConfig;
use mcds_soc::mem::{fold_page_hashes, PagedBytes, SegmentRole, PAGE_SIZE};
use mcds_soc::soc::{memmap, MemoryId};
use proptest::prelude::*;

/// Core 0 stores a counter across SRAM and EMEM segment 0 (an overlay
/// segment), `stride` bytes apart, forever.
fn store_loop(stride: u32) -> String {
    format!(
        "
        .org 0x80000000
        start:
            li r2, 0xD0000000
            li r6, 0xE0000000
            li r7, 0x3FFFC
            li r8, 0xFFFC
        loop:
            addi r1, r1, {stride}
            and r3, r1, r7
            add r4, r2, r3
            sw r1, 0(r4)
            and r5, r1, r8
            add r5, r5, r6
            sw r1, 0(r5)
            j loop
        "
    )
}

/// A development device tracing core 0 into its trace segments, running
/// [`store_loop`].
fn device(stride: u32) -> Device {
    let mut dev = DeviceBuilder::new(DeviceVariant::EdSideBooster)
        .core(CoreConfig {
            reset_pc: 0x8000_0000,
            clock_div: 1,
            ..Default::default()
        })
        .mcds(McdsConfig::program_trace(1))
        .build();
    dev.soc_mut()
        .mapper_mut()
        .emem_mut()
        .expect("development device has emulation RAM")
        .set_segment_role(0, SegmentRole::Overlay);
    dev.soc_mut()
        .load_program(&assemble(&store_loop(stride)).expect("assembles"));
    dev
}

/// The state hash recomputed from scratch: the snapshot fold over the
/// serialized device state and every fitted memory's raw bytes, page by
/// page, with no summary involved.
fn reference_hash(dev: &Device) -> u64 {
    let state = serde_json::to_string(&dev.save_state()).expect("state serializes");
    let mut parts = vec![("device/state", fnv1a64(state.as_bytes()))];
    for (name, id) in [
        ("soc/flash", MemoryId::Flash),
        ("soc/sram", MemoryId::Sram),
        ("soc/emem", MemoryId::Emem),
    ] {
        if let Some(image) = dev.soc().memory(id).map(PagedBytes::bytes) {
            let pages = image.chunks(PAGE_SIZE).map(fnv1a64);
            parts.push((name, fold_page_hashes(image.len(), pages)));
        }
    }
    parts.into_iter().fold(
        fnv1a64(&dev.soc().cycle().to_le_bytes()),
        |h, (name, hash)| extend_fnv1a64(extend_fnv1a64(h, name.as_bytes()), &hash.to_le_bytes()),
    )
}

#[derive(Debug, Clone)]
enum Op {
    /// Run the (traced) device: core stores and trace stores.
    Run(u64),
    /// Backdoor write into one memory at a byte offset.
    Backdoor(MemoryId, u32, Vec<u8>),
    /// `Flash::program` at a byte offset.
    Program(u32, Vec<u8>),
    /// `Flash::erase` of a range.
    Erase(u32, u32),
    /// `restore_memory_pages` of SRAM or EMEM with a few patterned pages.
    RestorePages(MemoryId, u8),
    /// Keep a snapshot for the restores below.
    Capture,
    /// Restore the kept snapshot onto the (since modified) device.
    RestoreSame,
    /// Replace the device by a fresh one restored from the kept snapshot.
    RestoreFresh,
}

fn memory() -> impl Strategy<Value = MemoryId> {
    prop_oneof![
        Just(MemoryId::Flash),
        Just(MemoryId::Sram),
        Just(MemoryId::Emem)
    ]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..20_000).prop_map(Op::Run),
        (
            memory(),
            0u32..0x4_0000,
            collection::vec(any::<u8>(), 1..9000)
        )
            .prop_map(|(id, off, bytes)| Op::Backdoor(id, off, bytes)),
        (0u32..0x2_0000, collection::vec(any::<u8>(), 1..64))
            .prop_map(|(off, bytes)| Op::Program(off, bytes)),
        (0u32..0x2_0000, 1u32..0x3000).prop_map(|(off, len)| Op::Erase(off, len)),
        (
            prop_oneof![Just(MemoryId::Sram), Just(MemoryId::Emem)],
            any::<u8>()
        )
            .prop_map(|(id, seed)| Op::RestorePages(id, seed)),
        Just(Op::Capture),
        Just(Op::RestoreSame),
        Just(Op::RestoreFresh),
    ]
}

/// The base address and size of a backdoor-writable memory.
fn region(id: MemoryId) -> (u32, usize) {
    match id {
        MemoryId::Flash => (memmap::FLASH_BASE, 2 * 1024 * 1024),
        MemoryId::Sram => (memmap::SRAM_BASE, memmap::SRAM_SIZE as usize),
        MemoryId::Emem => (
            memmap::EMEM_BASE,
            memmap::EMEM_SEGMENTS * mcds_soc::mem::EMEM_SEGMENT_SIZE as usize,
        ),
    }
}

fn apply(dev: &mut Device, op: &Op, kept: &mut Option<SocSnapshot>, stride: u32) {
    match op {
        Op::Run(cycles) => dev.run_cycles(*cycles),
        Op::Backdoor(id, off, bytes) => {
            let (base, size) = region(*id);
            let off = (*off as usize).min(size - bytes.len());
            dev.soc_mut().backdoor_write(base + off as u32, bytes);
        }
        Op::Program(off, bytes) => dev.soc_mut().mapper_mut().flash_mut().program(*off, bytes),
        Op::Erase(off, len) => dev.soc_mut().mapper_mut().flash_mut().erase(*off, *len),
        Op::RestorePages(id, seed) => {
            // A few patterned pages; every other page goes back to reset.
            let count = dev.soc().memory(*id).expect("fitted").len() / PAGE_SIZE;
            let pages: Vec<(usize, Vec<u8>)> = (0..count)
                .filter(|i| (*i as u8).wrapping_add(*seed) % 5 == 0)
                .map(|i| (i, vec![seed.wrapping_add(i as u8) | 1; PAGE_SIZE]))
                .collect();
            dev.soc_mut()
                .restore_memory_pages(*id, pages.iter().map(|(i, b)| (*i, b.as_slice())));
        }
        Op::Capture => *kept = Some(SocSnapshot::capture(dev)),
        Op::RestoreSame => {
            if let Some(snap) = kept {
                snap.restore_into(dev);
            }
        }
        Op::RestoreFresh => {
            if let Some(snap) = kept {
                let mut fresh = device(stride);
                snap.restore_into(&mut fresh);
                *dev = fresh;
            }
        }
    }
}

proptest! {
    // Each step hashes the whole 2.9 MB device twice from scratch.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn cached_page_hashes_match_an_uncached_fold(
        stride in prop_oneof![Just(4u32), Just(0x404), Just(0x1004)],
        ops in collection::vec(op(), 1..8),
    ) {
        let mut dev = device(stride);
        let mut kept = None;
        for (step, op) in ops.iter().enumerate() {
            apply(&mut dev, op, &mut kept, stride);
            let what: String = format!("step {step} {op:?}").chars().take(60).collect();
            let hash = device_state_hash(&dev);
            prop_assert!(hash == reference_hash(&dev), "{what}: cached vs uncached fold");
            let snap = SocSnapshot::capture(&dev);
            prop_assert!(snap.state_hash() == hash, "{what}: snapshot hash");
            let json = serde_json::to_string(&snap).expect("snapshot encodes");
            let parsed: SocSnapshot = serde_json::from_str(&json).expect("snapshot parses");
            parsed.verify_integrity().expect("a capture verifies");
            let mut revived = device(stride);
            parsed.restore_into(&mut revived);
            prop_assert!(device_state_hash(&revived) == hash, "{what}: revived hash");
            let emem = |d: &Device| d.soc().memory(MemoryId::Emem).map(|m| fnv1a64(m.bytes()));
            prop_assert!(emem(&revived) == emem(&dev), "{what}: revived EMEM bytes");
        }
    }
}
