//! End-to-end tests for the `mcds-vnet` virtual vehicle network: the
//! 4-ECU fabric must replay bit-identically (state hash AND decoded
//! per-ECU trace, live vs from-scratch vs snapshot-resumed) under
//! arbitrary stimulus/bus-fault schedules, fleet calibration swaps must
//! be atomic under link faults, a trigger pulse on one ECU (MCDS
//! comparator, relayed through a third ECU, or software-written) must
//! halt, suspend or resume another across the bus within bounded frame
//! latency, and per-vehicle DAQ must merge into one time-aligned stream.

use mcds::observer::{CoreTraceConfig, TraceQualifier};
use mcds::{AccessKind, CrossTrigger, DataComparator, McdsConfig, SignalRef, TriggerAction};
use mcds_psi::device::{Device, DeviceBuilder, DeviceVariant};
use mcds_psi::faults::FaultPlan;
use mcds_psi::interface::InterfaceKind;
use mcds_replay::trace_bytes;
use mcds_soc::asm::assemble;
use mcds_soc::bus::AddrRange;
use mcds_soc::event::CoreId;
use mcds_trace::{StreamDecoder, TimedMessage};
use mcds_vnet::{
    demo, CanId, EcuSpec, NodeConfig, RouteRule, RxRule, SwapOutcome, TriggerRx, Vehicle,
    VehicleEvent, VehicleLog,
};
use mcds_workloads::{engine, gearbox};
use mcds_xcp::XcpMaster;
use proptest::prelude::*;

/// Program trace always-on, single core — so the replay tests can compare
/// decoded trace streams, not just state hashes.
fn tracing() -> McdsConfig {
    McdsConfig {
        cores: vec![CoreTraceConfig {
            program_trace: TraceQualifier::Always,
            ..Default::default()
        }],
        fifo_depth: 4096,
        sink_bandwidth: 8,
        ..Default::default()
    }
}

/// The canonical 4-ECU, 2-segment test vehicle: an engine+gearbox pair
/// per segment (distinct identifier ranges) and a gateway route carrying
/// segment 0's torque frames onto segment 1, where the second gearbox
/// observes them on a spare sensor port.
fn traced_fleet() -> Vehicle {
    let t0 = CanId::Standard(0x100);
    let r0 = CanId::Standard(0x101);
    let t1 = CanId::Standard(0x110);
    let r1 = CanId::Standard(0x111);
    Vehicle::builder()
        .segments(2)
        .ecu(EcuSpec {
            name: "engine-0".into(),
            segment: 0,
            device: demo::engine_device(Some(tracing())),
            node: demo::engine_node(t0, r0, demo::TX_PERIOD),
        })
        .ecu(EcuSpec {
            name: "gearbox-0".into(),
            segment: 0,
            device: demo::gearbox_device(Some(tracing())),
            node: demo::gearbox_node(t0),
        })
        .ecu(EcuSpec {
            name: "engine-1".into(),
            segment: 1,
            device: demo::engine_device(Some(tracing())),
            node: demo::engine_node(t1, r1, demo::TX_PERIOD),
        })
        .ecu(EcuSpec {
            name: "gearbox-1".into(),
            segment: 1,
            device: demo::gearbox_device(Some(tracing())),
            node: NodeConfig {
                rx: vec![
                    RxRule {
                        id: t1,
                        port: gearbox::TORQUE_RX_PORT,
                    },
                    // Cross-segment observation of the other pair's torque.
                    RxRule { id: t0, port: 4 },
                ],
                ..Default::default()
            },
        })
        .route(RouteRule {
            id: Some(t0),
            from: 0,
            to: 1,
        })
        .build()
}

/// Decodes every ECU's trace sink into message streams, index order.
fn decoded_traces(v: &Vehicle) -> Vec<Vec<TimedMessage>> {
    (0..v.len())
        .map(|i| {
            let bytes = trace_bytes(v.device(i)).unwrap_or_default();
            StreamDecoder::new(bytes).collect_resilient().0
        })
        .collect()
}

const CYCLES: u64 = 10_000;
const MID: u64 = 5_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// T11-style determinism, one level up: the same `VehicleLog` run on
    /// identically built vehicles — live, replayed from scratch, and
    /// resumed from a mid-run `FleetSnapshot` — must agree on the fabric
    /// state hash *and* every ECU's decoded trace, including under
    /// injected bus corruption (error frames + retransmissions). A live
    /// vehicle's hash is always its snapshot's hash.
    #[test]
    fn four_ecu_vehicle_replays_bit_identically(
        loads in proptest::collection::vec((0..CYCLES, 0u32..=255), 0..4),
        speeds in proptest::collection::vec((0..CYCLES, 0u32..=120), 0..4),
        fault in (any::<bool>(), 0..MID, 1u16..150, any::<u64>()),
    ) {
        let mut raw: Vec<(u64, VehicleEvent)> = Vec::new();
        for (c, value) in loads {
            raw.push((c, VehicleEvent::Stimulus { ecu: 0, port: engine::LOAD_PORT, value }));
        }
        for (c, value) in speeds {
            raw.push((c, VehicleEvent::Stimulus { ecu: 1, port: gearbox::SPEED_PORT, value }));
        }
        let (faulted, c, per_mille, seed) = fault;
        if faulted {
            let plan = FaultPlan { corrupt_per_mille: per_mille, ..FaultPlan::lossless(seed) };
            raw.push((c, VehicleEvent::BusFault { segment: 0, plan }));
            raw.push((c + 3_000, VehicleEvent::ClearBusFault { segment: 0 }));
        }
        raw.sort_by_key(|&(c, _)| c);
        let mut log = VehicleLog::new();
        for (c, e) in raw {
            log.push(c, e);
        }

        // Live run, snapshotting the whole fleet mid-flight.
        let mut live = traced_fleet();
        let mut cur = 0;
        live.run_with_events(&log, &mut cur, MID);
        let snap = live.snapshot();
        prop_assert_eq!(live.state_hash(), snap.state_hash());
        live.run_with_events(&log, &mut cur, CYCLES - MID);
        prop_assert_eq!(live.state_hash(), live.snapshot().state_hash());

        // Replay from scratch on a fresh, identically built vehicle.
        let mut replayed = traced_fleet();
        let mut rcur = 0;
        replayed.run_with_events(&log, &mut rcur, CYCLES);
        prop_assert_eq!(live.state_hash(), replayed.state_hash());
        prop_assert_eq!(decoded_traces(&live), decoded_traces(&replayed));

        // Resume from the snapshot on a third vehicle.
        let mut resumed = traced_fleet();
        resumed.restore(&snap);
        let mut scur = log.cursor_at(MID);
        resumed.run_with_events(&log, &mut scur, CYCLES - MID);
        prop_assert_eq!(live.state_hash(), resumed.state_hash());
        prop_assert_eq!(resumed.state_hash(), resumed.snapshot().state_hash());
        prop_assert_eq!(decoded_traces(&live), decoded_traces(&resumed));
    }
}

/// Reads an ECU's active calibration page over a fresh XCP session.
fn page_of(v: &mut Vehicle, i: usize) -> u8 {
    let mut m = XcpMaster::new(InterfaceKind::Can);
    m.connect(v.device_mut(i)).expect("connect");
    let page = m.cal_page(v.device_mut(i)).expect("cal_page");
    m.disconnect(v.device_mut(i)).expect("disconnect");
    page
}

#[test]
fn fleet_cal_swap_is_atomic_under_link_faults() {
    let mut v = demo::pair();
    v.run_cycles(2_000);

    // Healthy fleet: the swap commits and every ECU is on the new page.
    let outcome = v.fleet_cal_swap(1);
    assert_eq!(outcome, SwapOutcome::Committed { page: 1 });
    for i in 0..v.len() {
        assert_eq!(page_of(&mut v, i), 1, "ECU {i} on the new page");
    }

    // Halt the gearbox core so the doomed connect's timeout waits take the
    // fast clock-advance path instead of simulating tens of millions of
    // cycles, then cut its debug link entirely.
    v.device_mut(1)
        .soc_mut()
        .core_mut(CoreId(0))
        .request_break();
    v.device_mut(1).run_cycles(4);
    assert!(v.device(1).soc().core(CoreId(0)).is_halted());
    v.apply_event(&VehicleEvent::LinkFault {
        ecu: 1,
        plan: FaultPlan {
            drop_per_mille: 1000,
            ..FaultPlan::lossless(7)
        },
    });

    // The rollout reaches the engine first (index order), switches it,
    // then dies on the gearbox — and must roll the engine back: the fleet
    // never runs mixed calibrations.
    let outcome = v.fleet_cal_swap(0);
    assert_eq!(
        outcome,
        SwapOutcome::RolledBack {
            failed_ecu: "gearbox".into(),
            page: 0,
        }
    );
    assert_eq!(v.cal_swaps(), 2);
    assert!(!v.last_swap().expect("recorded").committed());
    assert_eq!(page_of(&mut v, 0), 1, "engine rolled back to the old page");

    // Heal the link: the unreachable gearbox never left the old page.
    v.apply_event(&VehicleEvent::LinkFault {
        ecu: 1,
        plan: FaultPlan::lossless(7),
    });
    assert_eq!(page_of(&mut v, 1), 1, "gearbox never switched");
}

/// A single-core ECU device running `program`, with `mcds` installed.
fn ecu_device(mcds: Option<McdsConfig>, program: &str) -> Device {
    let mut b = DeviceBuilder::new(DeviceVariant::EdSideBooster).cores(1);
    if let Some(cfg) = mcds {
        b = b.mcds(cfg);
    }
    let mut d = b.build();
    d.soc_mut().load_program(&assemble(program).unwrap());
    d
}

/// A free-running ECU whose MCDS maps external trigger-in lines to
/// actions, `(line, action)` each.
fn pin_driven_device(on_pins: Vec<(u8, TriggerAction)>) -> Device {
    let cfg = McdsConfig {
        cores: vec![CoreTraceConfig::default()],
        cross_triggers: on_pins
            .into_iter()
            .map(|(line, action)| CrossTrigger::on_any(vec![SignalRef::ExternalPin(line)], action))
            .collect(),
        ..Default::default()
    };
    ecu_device(Some(cfg), ".org 0x80000000\nloop: addi r1, r1, 1\nj loop")
}

/// A segment-0 ECU slot.
fn ecu_on_bus(name: &str, device: Device, node: NodeConfig) -> EcuSpec {
    EcuSpec {
        name: name.into(),
        segment: 0,
        device,
        node,
    }
}

/// Steps `v` until `done` holds, at most `limit` cycles; the vehicle
/// cycle it first held at.
fn step_until(v: &mut Vehicle, limit: u64, done: impl Fn(&Vehicle) -> bool) -> Option<u64> {
    for _ in 0..limit {
        v.step();
        if done(v) {
            return Some(v.cycle());
        }
    }
    None
}

/// The bus trigger fabric, fed by each pulse source: an MCDS comparator
/// (one hop, and relayed through a second ECU's MCDS), and software
/// writes to `TRIG_OUT`. Latencies are measured from the source pulse's
/// device-cycle stamp; every device ticks once per vehicle cycle from 0,
/// so stamps and vehicle cycles share a clock.
#[test]
fn bus_trigger_halts_the_remote_ecu_within_bounded_latency() {
    // One hop: a 1-byte standard frame is 47 + 8 = 55 bits at 4
    // cycles/bit, plus the pulse width and per-step scheduling slack.
    let hop = 55 * 4 + 60;
    // Source ECU: a data comparator on the 20th torque write pulses
    // trigger-out pin 0.
    let comparator_source = || {
        let cfg = McdsConfig {
            cores: vec![CoreTraceConfig {
                data_comparators: vec![DataComparator::on(
                    AddrRange::new(0xD000_0004, 4),
                    AccessKind::Write,
                )],
                ..Default::default()
            }],
            cross_triggers: vec![CrossTrigger::on_any(
                vec![SignalRef::DataComp {
                    core: CoreId(0),
                    idx: 0,
                }],
                TriggerAction::TriggerOutPin(0),
            )
            .with_count(20)],
            ..Default::default()
        };
        let program = "
            .org 0x80000000
            start:
                li r2, 0xD0000004
            loop:
                addi r1, r1, 1
                sw r1, 0(r2)
                j loop
            ";
        ecu_device(Some(cfg), program)
    };
    let send_pins = |pins| NodeConfig {
        trigger_tx_pins: pins,
        ..Default::default()
    };
    let rx = |src_ecu, src_pin, line| TriggerRx {
        src_ecu,
        src_pin,
        line,
    };
    let halted = |v: &Vehicle, i| v.device(i).soc().core(CoreId(0)).is_halted();
    let suspended = |v: &Vehicle, i| v.device(i).soc().core(CoreId(0)).is_suspended();

    // 1. Comparator → bus → the destination breaks on external pin 0.
    let mut v = Vehicle::builder()
        .segments(1)
        .ecu(ecu_on_bus("engine", comparator_source(), send_pins(1 << 0)))
        .ecu(ecu_on_bus(
            "gearbox",
            pin_driven_device(vec![(0, TriggerAction::BreakCores(vec![CoreId(0)]))]),
            NodeConfig {
                trigger_rx: vec![rx(0, 0, 0)],
                ..Default::default()
            },
        ))
        .build();
    let halted_at = step_until(&mut v, 5_000, |v| halted(v, 1))
        .expect("trigger frame must halt the remote ECU");
    let &(pulse_cycle, pin) = v
        .device(0)
        .trigger_out_log()
        .first()
        .expect("comparator fired");
    assert_eq!(pin, 0);
    let latency = halted_at - pulse_cycle;
    assert!(latency <= hop, "halt latency {latency} cycles");
    assert!(!halted(&v, 0), "the source ECU keeps running");

    // 2. Transitive relay A → B → C: B's external pin 0 re-fires its
    //    trigger-out pin 1, which only C listens to.
    let mut v = Vehicle::builder()
        .segments(1)
        .ecu(ecu_on_bus("a", comparator_source(), send_pins(1 << 0)))
        .ecu(ecu_on_bus(
            "b",
            pin_driven_device(vec![(0, TriggerAction::TriggerOutPin(1))]),
            NodeConfig {
                trigger_tx_pins: 1 << 1,
                trigger_rx: vec![rx(0, 0, 0)],
                ..Default::default()
            },
        ))
        .ecu(ecu_on_bus(
            "c",
            pin_driven_device(vec![(0, TriggerAction::BreakCores(vec![CoreId(0)]))]),
            NodeConfig {
                trigger_rx: vec![rx(1, 1, 0)],
                ..Default::default()
            },
        ))
        .build();
    let halted_at = step_until(&mut v, 5_000, |v| halted(v, 2))
        .expect("the relayed trigger must halt the last ECU");
    let &(pulse_cycle, _) = v.device(0).trigger_out_log().first().expect("A fired");
    assert_eq!(v.device(1).trigger_out_log().len(), 1, "B relayed once");
    let latency = halted_at - pulse_cycle;
    assert!(latency <= 2 * hop, "two-hop halt latency {latency} cycles");
    assert!(
        !halted(&v, 0) && !halted(&v, 1),
        "only the final hop breaks"
    );

    // 3. Software pulses: the source app writes TRIG_OUT pin 0 (suspend
    //    the destination), then pin 1 (resume it). Its pulse history is
    //    cleared between the two, and the later pulse must still cross.
    let app_source = ecu_device(
        None,
        "
        .equ TRIG_OUT, 0xF0000300
        .org 0x80000000
        start:
            li r2, TRIG_OUT
            li r3, 40
        wait1:
            addi r3, r3, -1
            bne r3, r0, wait1
            li r1, 0b01
            sw r1, 0(r2)        ; pulse pin 0 (suspend)
            li r3, 1000
        wait2:
            addi r3, r3, -1
            bne r3, r0, wait2
            li r1, 0b10
            sw r1, 0(r2)        ; pulse pin 1 (resume)
            halt
        ",
    );
    let mut v = Vehicle::builder()
        .segments(1)
        .ecu(ecu_on_bus("engine", app_source, send_pins(0b11)))
        .ecu(ecu_on_bus(
            "gearbox",
            pin_driven_device(vec![
                (0, TriggerAction::SuspendCores(vec![CoreId(0)])),
                (1, TriggerAction::ResumeCores(vec![CoreId(0)])),
            ]),
            NodeConfig {
                trigger_rx: vec![rx(0, 0, 0), rx(0, 1, 1)],
                ..Default::default()
            },
        ))
        .build();
    let app_pulse = |v: &Vehicle, mask| {
        let pulses = v.device(0).soc().periph().trigger_out_pulses();
        assert_eq!(pulses.len(), 1, "one app pulse logged: {pulses:?}");
        assert_eq!(pulses[0].1, mask);
        pulses[0].0
    };
    let suspended_at = step_until(&mut v, 5_000, |v| suspended(v, 1))
        .expect("the app pulse must suspend the remote ECU");
    let latency = suspended_at - app_pulse(&v, 0b01);
    assert!(latency <= hop, "suspend latency {latency} cycles");
    let mid = v.device(1).soc().core(CoreId(0)).retired();

    v.device_mut(0).soc_mut().periph_mut().clear_history();
    let resumed_at = step_until(&mut v, 20_000, |v| !suspended(v, 1))
        .expect("the app pulse after a history clear must resume the remote ECU");
    let latency = resumed_at - app_pulse(&v, 0b10);
    assert!(latency <= hop, "resume latency {latency} cycles");
    v.run_cycles(100);
    let end = v.device(1).soc().core(CoreId(0)).retired();
    assert!(end > mid, "resumed and retired more ({mid} → {end})");
}

#[test]
fn fleet_daq_merges_one_time_aligned_stream() {
    let mut v = demo::pair();
    v.run_cycles(5_000);
    // One measurement list per ECU: engine samples a DMEM word, gearbox
    // samples the gear variable, both on a 1 000-cycle event raster.
    v.start_daq(0, &[(0xD000_0000, 4)], 0, 1, 1_000)
        .expect("engine daq");
    v.start_daq(1, &[(gearbox::GEAR_ADDR, 4)], 0, 1, 1_000)
        .expect("gearbox daq");
    v.run_cycles(40_000);

    let merged = v.drain_fleet_daq();
    assert!(
        merged.len() >= 20,
        "rasters produced {} samples",
        merged.len()
    );
    assert!(merged.iter().any(|s| s.ecu == "engine"), "engine sampled");
    assert!(merged.iter().any(|s| s.ecu == "gearbox"), "gearbox sampled");
    for w in merged.windows(2) {
        assert!(
            w[0].timestamp <= w[1].timestamp,
            "merge is time-aligned: {} then {}",
            w[0].timestamp,
            w[1].timestamp
        );
    }
    for s in &merged {
        assert_eq!(s.data.len(), 4, "each sample carries its 4 bytes");
    }

    // Stopping returns whatever was still buffered and closes the session;
    // a second drain finds nothing.
    v.stop_daq(0).expect("stop engine daq");
    v.stop_daq(1).expect("stop gearbox daq");
    assert!(v.drain_fleet_daq().is_empty());
}

/// Execution-kernel lockstep: the fabric steps every ECU one cycle at a
/// time, so both kernel modes must hold the vehicle — fabric state
/// hash *and* every ECU's decoded trace — bit-identical under the same
/// stimulus, including a cross-segment gateway route and a mid-run
/// fleet-wide calibration page swap.
#[test]
fn exec_kernel_modes_keep_vehicle_lockstep_bit_identical() {
    let run = |mode: mcds_soc::ExecMode| {
        let mut v = traced_fleet();
        v.set_exec_mode(mode);
        v.run_cycles(2_000);
        v.apply_event(&VehicleEvent::Stimulus {
            ecu: 0,
            port: 0,
            value: 180,
        });
        v.run_cycles(2_000);
        v.apply_event(&VehicleEvent::CalSwap { page: 1 });
        v.run_cycles(2_000);
        (v.state_hash(), decoded_traces(&v))
    };
    let per_cycle = run(mcds_soc::ExecMode::PerCycle);
    let block = run(mcds_soc::ExecMode::BlockBatched);
    assert_eq!(per_cycle.0, block.0, "block batched fabric hash");
    assert_eq!(per_cycle.1, block.1, "block batched decoded traces");
}
