//! Determinism and save/restore round-trip properties of the replay layer.
//!
//! The whole crate rests on one claim: the device model is a deterministic
//! function of (initial state, input log). These properties attack that
//! claim from randomized angles — randomized stimulus, trigger pins,
//! overlay configurations and trigger-unit programs — asserting *byte*
//! identity of serialized state, not just hash equality.

use mcds::{
    CoreTraceConfig, CounterConfig, CounterMode, CrossTrigger, McdsConfig, ProgramComparator,
    SignalRef, StateMachineConfig, TraceQualifier, Transition, TriggerAction,
};
use mcds_psi::device::{Device, DeviceBuilder, DeviceVariant};
use mcds_replay::{device_state_hash, InputEvent, InputLog, Replayer, SocSnapshot};
use mcds_soc::bus::AddrRange;
use mcds_soc::cpu::CoreConfig;
use mcds_soc::event::CoreId;
use mcds_soc::overlay::{CalPage, OverlayRange};
use mcds_workloads::gearbox;
use proptest::prelude::*;

/// An MCDS configuration that keeps every trigger resource busy: a program
/// comparator over the gearbox loop feeding a repeat counter, a state
/// machine walked by the counter and the external trigger pin, and a
/// cross-trigger line emitting watchpoint messages.
fn trigger_config() -> McdsConfig {
    McdsConfig {
        cores: vec![CoreTraceConfig {
            program_comparators: vec![ProgramComparator::in_range(AddrRange::new(
                0x8001_0000,
                0x100,
            ))],
            program_trace: TraceQualifier::Always,
            ..Default::default()
        }],
        counters: vec![CounterConfig {
            increment_on: SignalRef::ProgComp {
                core: CoreId(0),
                idx: 0,
            },
            threshold: 64,
            reset_on: None,
            mode: CounterMode::Repeat,
        }],
        state_machines: vec![StateMachineConfig {
            transitions: vec![
                Transition {
                    from: 0,
                    on: SignalRef::Counter(0),
                    to: 1,
                },
                Transition {
                    from: 1,
                    on: SignalRef::ExternalPin(0),
                    to: 2,
                },
                Transition {
                    from: 2,
                    on: SignalRef::Counter(0),
                    to: 0,
                },
            ],
            trigger_state: 2,
        }],
        cross_triggers: vec![CrossTrigger::on_any(
            vec![SignalRef::StateMachine(0)],
            TriggerAction::Watchpoint { id: 3 },
        )],
        fifo_depth: 4096,
        sink_bandwidth: 8,
        ..Default::default()
    }
}

fn gearbox_device() -> Device {
    let mut dev = DeviceBuilder::new(DeviceVariant::EdSideBooster)
        .core(CoreConfig {
            reset_pc: 0x8001_0000,
            clock_div: 1,
            ..Default::default()
        })
        .mcds(trigger_config())
        .build();
    dev.soc_mut().load_program(&gearbox::program(None));
    dev
}

/// Serialized device state — the byte-identity yardstick.
fn state_json(dev: &Device) -> String {
    serde_json::to_string(&dev.save_state()).expect("device state serializes")
}

/// Runs a fresh gearbox device under `log`, snapshotting every
/// `every` cycles up to `total`. Each snapshot is paired with the live
/// device's [`device_state_hash`] at the same point.
fn checkpointed_run(log: &InputLog, every: u64, total: u64) -> Vec<(SocSnapshot, u64)> {
    let mut dev = gearbox_device();
    let mut rep = Replayer::new(log);
    let mut snaps = Vec::new();
    while dev.soc().cycle() < total {
        if dev.soc().cycle().is_multiple_of(every) {
            snaps.push((SocSnapshot::capture(&dev), device_state_hash(&dev)));
        }
        rep.apply_due(&mut dev);
        if dev.soc().cycle() >= total {
            break;
        }
        dev.step();
    }
    snaps.push((SocSnapshot::capture(&dev), device_state_hash(&dev)));
    snaps
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Two runs from the same stimulus are byte-identical at every
    /// checkpoint — not merely hash-equal — and at every checkpoint the
    /// live device hash is the snapshot's own hash.
    #[test]
    fn runs_bit_identical_at_every_checkpoint(
        from in 0u32..40,
        to in 40u32..120,
        steps in 1u32..12,
        pin_period in 200u64..900,
    ) {
        const TOTAL: u64 = 3_000;
        let mut log = InputLog::new();
        // Interleave a speed ramp with external trigger-pin pulses so the
        // stimulus exercises ports *and* the trigger matrix.
        let mut cycle = 0;
        let mut level = 0u32;
        let mut value = from;
        let step = (to - from) / steps.max(1);
        while cycle < TOTAL {
            log.record(InputEvent::Stimulus {
                cycle,
                port: gearbox::SPEED_PORT,
                value,
            });
            value = (value + step).min(to);
            cycle += pin_period / 2;
            level ^= 1;
            log.record(InputEvent::TriggerIn { cycle, level });
            cycle += pin_period - pin_period / 2;
        }

        let a = checkpointed_run(&log, 500, TOTAL);
        let b = checkpointed_run(&log, 500, TOTAL);
        prop_assert_eq!(a.len(), b.len());
        for ((sa, ha), (sb, hb)) in a.iter().zip(&b) {
            prop_assert_eq!(sa.state_hash(), *ha);
            prop_assert_eq!(sb.state_hash(), *hb);
            prop_assert_eq!(sa.cycle(), sb.cycle());
            prop_assert_eq!(sa.state_hash(), sb.state_hash());
            let ja = serde_json::to_string(sa).expect("snapshot serializes");
            let jb = serde_json::to_string(sb).expect("snapshot serializes");
            prop_assert_eq!(ja, jb);
        }
    }

    /// Overlay-mapper state (ranges, enables, active page, swap counter and
    /// the emulation-RAM contents behind it) survives a snapshot round-trip
    /// exactly, and the restored device *behaves* identically afterwards.
    #[test]
    fn overlay_state_survives_roundtrip(
        size_log2 in 10u32..15,
        flash_block in 8u32..32,
        page1 in 0u8..2,
        enable in 0u8..2,
        run_cycles in 300u64..1_200,
    ) {
        let size = 1u32 << size_log2;
        let mut dev = gearbox_device();
        let range = OverlayRange {
            // Block well above the program, aligned to the window size.
            flash_addr: 0x8000_0000 + flash_block * 0x8000 / size * size,
            size,
            offset_page0: 0,
            offset_page1: size,
        };
        dev.soc_mut()
            .mapper_mut()
            .configure_range(0, range)
            .expect("valid overlay range");
        dev.soc_mut().mapper_mut().set_range_enabled(0, enable == 1);
        let page = if page1 == 1 { CalPage::Page1 } else { CalPage::Page0 };
        dev.soc_mut().mapper_mut().set_active_page(page);
        // Dirty the emulation RAM behind the window so the round-trip has
        // real calibration bytes to preserve.
        if let Some(emem) = dev.soc_mut().mapper_mut().emem_mut() {
            emem.write_bytes(0, &0xDEAD_BEEFu32.to_le_bytes());
        }
        let log = InputLog::new();
        let mut rep = Replayer::new(&log);
        mcds_replay::run_with_events(&mut dev, &mut rep, run_cycles);

        let snap = SocSnapshot::capture(&dev);
        let mut twin = gearbox_device();
        snap.restore_into(&mut twin);
        prop_assert_eq!(state_json(&dev), state_json(&twin));
        prop_assert_eq!(
            twin.soc().mapper().active_page(),
            dev.soc().mapper().active_page()
        );
        prop_assert_eq!(
            twin.soc().mapper().range_enabled(0),
            dev.soc().mapper().range_enabled(0)
        );

        // Same future: both devices keep agreeing after more execution.
        let mut ra = Replayer::resume_at(&log, run_cycles);
        let mut rb = Replayer::resume_at(&log, run_cycles);
        mcds_replay::run_with_events(&mut dev, &mut ra, run_cycles + 400);
        mcds_replay::run_with_events(&mut twin, &mut rb, run_cycles + 400);
        prop_assert_eq!(device_state_hash(&dev), device_state_hash(&twin));
        prop_assert_eq!(state_json(&dev), state_json(&twin));
    }

    /// Trigger-unit runtime state (counter counts, state-machine states,
    /// cross-trigger occurrence counters, FIFO contents) survives a
    /// snapshot round-trip mid-sequence: restoring at an arbitrary cycle
    /// and continuing produces the same machine as never having stopped.
    #[test]
    fn trigger_units_survive_roundtrip(split in 401u64..2_400) {
        const TOTAL: u64 = 2_800;
        let mut log = InputLog::new();
        for k in 0..10u64 {
            log.record(InputEvent::Stimulus {
                cycle: k * 250,
                port: gearbox::SPEED_PORT,
                value: (10 + 11 * k) as u32,
            });
            log.record(InputEvent::TriggerIn {
                cycle: k * 250 + 125,
                level: (k % 2) as u32,
            });
        }

        let mut dev = gearbox_device();
        let mut rep = Replayer::new(&log);
        mcds_replay::run_with_events(&mut dev, &mut rep, split);
        let snap = SocSnapshot::capture(&dev);

        let mut twin = gearbox_device();
        snap.restore_into(&mut twin);
        prop_assert_eq!(state_json(&dev), state_json(&twin));

        mcds_replay::run_with_events(&mut dev, &mut rep, TOTAL);
        let mut rt = Replayer::resume_at(&log, split);
        mcds_replay::run_with_events(&mut twin, &mut rt, TOTAL);
        prop_assert_eq!(device_state_hash(&dev), device_state_hash(&twin));
        prop_assert_eq!(state_json(&dev), state_json(&twin));
    }
}

/// An untraced replay (no MCDS: the device is idle between events) goes
/// through the execution kernel yet lands on the per-cycle reference state
/// at every cut point.
#[test]
fn untraced_replay_batches_and_matches_per_cycle() {
    let untraced = || {
        let mut dev = DeviceBuilder::new(DeviceVariant::EdSideBooster)
            .core(CoreConfig {
                reset_pc: 0x8001_0000,
                clock_div: 1,
                ..Default::default()
            })
            .build();
        dev.soc_mut().load_program(&gearbox::program(None));
        dev
    };
    let mut log = InputLog::new();
    for k in 0..8u64 {
        log.record(InputEvent::Stimulus {
            cycle: k * 400 + 17,
            port: gearbox::SPEED_PORT,
            value: (20 + 9 * k) as u32,
        });
    }

    let mut dev = untraced();
    let mut rep = Replayer::new(&log);
    let mut reference = untraced();
    let mut ref_rep = Replayer::new(&log);
    for cut in [250, 1_000, 1_817, 3_300] {
        mcds_replay::run_with_events(&mut dev, &mut rep, cut);
        while reference.soc().cycle() < cut {
            ref_rep.apply_due(&mut reference);
            reference.step();
        }
        assert_eq!(dev.soc().cycle(), cut);
        assert_eq!(
            device_state_hash(&dev),
            device_state_hash(&reference),
            "diverged at cycle {cut}"
        );
    }
    let stats = dev.exec_stats();
    assert!(
        stats.block_cycles + stats.skipped_cycles > 0,
        "untraced replay never reached the kernel: {stats:?}"
    );
}
