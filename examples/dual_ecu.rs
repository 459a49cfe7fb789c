//! Dual-ECU cross-triggering: the engine ECU and the gearbox ECU are two
//! separate PSI devices on one CAN bus. A complex trigger on the engine
//! ECU (a torque spike) freezes *both* controllers: the engine at once,
//! the gearbox one trigger-frame time after the bus is free (CAN never
//! preempts a frame on the wire). The pulse travels as a top-priority
//! trigger frame — the external-trigger capability the break & suspend
//! switch "manages" (Section 4), across package boundaries.
//!
//! ```sh
//! cargo run --example dual_ecu
//! ```

use mcds::observer::CoreTraceConfig;
use mcds::{AccessKind, CrossTrigger, DataComparator, McdsConfig, SignalRef, TriggerAction};
use mcds_soc::bus::AddrRange;
use mcds_soc::event::CoreId;
use mcds_vnet::{
    demo, trigger_frame_id, CanFrame, EcuSpec, SegmentConfig, TriggerRx, Vehicle, VehicleEvent,
    VehicleLog,
};
use mcds_workloads::{engine, gearbox, FuelMap};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Engine ECU: trigger when the torque request reaches 128. ---
    let torque_spike = DataComparator::on(
        AddrRange::new(engine::TORQUE_REQ_ADDR, 4),
        AccessKind::Write,
    )
    .with_value(0x80, 0x80); // any torque with bit 7 set (≥128)
    let spike = || {
        vec![SignalRef::DataComp {
            core: CoreId(0),
            idx: 0,
        }]
    };
    let cfg_engine = McdsConfig {
        cores: vec![CoreTraceConfig {
            data_comparators: vec![torque_spike],
            ..Default::default()
        }],
        cross_triggers: vec![
            // Stop our own core…
            CrossTrigger::on_any(spike(), TriggerAction::BreakCores(vec![CoreId(0)])),
            // …and tell the other ECU over trigger pin 0.
            CrossTrigger::on_any(spike(), TriggerAction::TriggerOutPin(0)),
        ],
        ..Default::default()
    };

    // --- Gearbox ECU: break on external trigger line 0. ---
    let cfg_gear = McdsConfig {
        cores: vec![CoreTraceConfig::default()],
        cross_triggers: vec![CrossTrigger::on_any(
            vec![SignalRef::ExternalPin(0)],
            TriggerAction::BreakCores(vec![CoreId(0)]),
        )],
        ..Default::default()
    };

    // --- One bus: torque frames engine → gearbox, and engine pin 0 as a
    //     trigger frame onto gearbox line 0. A 2 000-cycle raster: at the
    //     demo's 500 the two 4-byte frames (632 bus cycles) saturate the
    //     bus and the trigger frame would queue behind the backlog. ---
    let period = 4 * demo::TX_PERIOD;
    let mut engine_node = demo::engine_node(demo::TORQUE_ID, demo::RPM_ID, period);
    engine_node.trigger_tx_pins = 1 << 0;
    let mut gearbox_node = demo::gearbox_node(demo::TORQUE_ID);
    gearbox_node.trigger_rx = vec![TriggerRx {
        src_ecu: 0,
        src_pin: 0,
        line: 0,
    }];
    // The demo engine image carries no calibration: flash the factory
    // fuel map.
    let mut engine_ecu = demo::engine_device(Some(cfg_engine));
    engine_ecu
        .soc_mut()
        .backdoor_write(engine::MAP_FLASH_ADDR, &FuelMap::factory().to_bytes());
    let mut v = Vehicle::builder()
        .segments(1)
        .ecu(EcuSpec {
            name: "engine".into(),
            segment: 0,
            device: engine_ecu,
            node: engine_node,
        })
        .ecu(EcuSpec {
            name: "gearbox".into(),
            segment: 0,
            device: demo::gearbox_device(Some(cfg_gear)),
            node: gearbox_node,
        })
        .build();

    // Start gentle; at cycle 30 000 the driver floors it and the torque
    // request jumps past 128.
    let stimulus = |ecu, port, value| VehicleEvent::Stimulus { ecu, port, value };
    let mut log = VehicleLog::new();
    log.push(0, stimulus(0, engine::RPM_PORT, 1200));
    log.push(0, stimulus(0, engine::LOAD_PORT, 20));
    log.push(0, stimulus(1, gearbox::SPEED_PORT, 40));
    log.push(30_000, stimulus(0, engine::RPM_PORT, 6500));
    log.push(30_000, stimulus(0, engine::LOAD_PORT, 255));

    let mut cursor = 0;
    v.run_with_events(&log, &mut cursor, 30_000);
    let halted = |v: &Vehicle, i| v.device(i).soc().core(CoreId(0)).is_halted();
    assert!(!halted(&v, 0), "gentle running: no trigger yet");
    let gear_before = v.device(1).soc().backdoor_read_word(gearbox::GEAR_ADDR);
    println!("phase 1: both ECUs running; gearbox in gear {gear_before}");

    // Step until the gearbox stops, noting the vehicle cycle.
    let mut gear_halted_at = None;
    for _ in 0..5_000 {
        v.run_with_events(&log, &mut cursor, 1);
        if halted(&v, 1) {
            gear_halted_at = Some(v.cycle());
            break;
        }
    }
    let gear_halted_at = gear_halted_at.expect("gearbox ECU froze via the trigger frame");
    assert!(halted(&v, 0), "engine ECU froze at the spike");
    let torque = v
        .device(0)
        .soc()
        .backdoor_read_word(engine::TORQUE_REQ_ADDR);
    assert!(torque >= 128);

    // Both devices tick once per vehicle cycle from 0, so the engine's
    // pulse stamp and the gearbox's halt cycle share a clock.
    let &(pulse_cycle, _) = v.device(0).trigger_out_log().first().expect("pin 0 fired");
    // Bound: the rest of one in-flight data frame, then the trigger
    // frame, plus the pulse width and per-step scheduling slack.
    let cycles_per_bit = SegmentConfig::default().cycles_per_bit;
    let data_frame = CanFrame::word(demo::TORQUE_ID, 0, 0).bit_cost() * cycles_per_bit;
    let trigger_frame = CanFrame::new(trigger_frame_id(0), &[0], 0).bit_cost() * cycles_per_bit;
    let latency = gear_halted_at - pulse_cycle;
    assert!(
        latency <= data_frame + trigger_frame + 60,
        "trigger latency {latency} cycles"
    );
    println!(
        "phase 2: torque spike ({torque}) froze engine ECU @ {:#010x} and gearbox ECU @ {:#010x}",
        v.device(0).soc().core(CoreId(0)).pc(),
        v.device(1).soc().core(CoreId(0)).pc()
    );
    println!(
        "cross-ECU trigger latency: {latency} cycles (pulse @ {pulse_cycle}, gearbox halt @ \
         {gear_halted_at}; trigger frame {trigger_frame}, data frame {data_frame} cycles)"
    );
    println!("\ndual ECU cross-trigger OK — both controllers stopped, {latency} cycles apart");
    Ok(())
}
