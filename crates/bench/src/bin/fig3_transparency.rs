//! Experiment F3 — Figure 3: the single-chip emulation side booster.
//!
//! The PSI transparency claim (Section 6): *"Both versions of the SoC are
//! interchangeable with complete transparency to the application system,
//! while significantly boosting development support."*
//!
//! The engine controller runs a deterministic drive cycle on the
//! production TC1796 and the TC1796ED side booster; the actuator write
//! histories must be cycle-for-cycle identical. A third run on the ED part
//! with full MCDS tracing enabled must *still* be identical — tracing is
//! non-intrusive.

use mcds::McdsConfig;
use mcds_bench::{print_table, run_with_stimulus, tracing_config, with_data_trace};
use mcds_psi::device::{DeviceBuilder, DeviceVariant};
use mcds_soc::periph::PortWrite;
use mcds_workloads::stimulus::{Profile, StimulusPlayer};
use mcds_workloads::{engine, FuelMap};

const RUN_CYCLES: u64 = 400_000;

fn run(variant: DeviceVariant, mcds: McdsConfig) -> (Vec<PortWrite>, u64, u64) {
    let mut dev = DeviceBuilder::new(variant).cores(1).mcds(mcds).build();
    dev.soc_mut()
        .load_program(&engine::program_with_map(None, &FuelMap::factory()));
    let mut player = StimulusPlayer::new(Profile::drive_cycle(
        engine::RPM_PORT,
        engine::LOAD_PORT,
        RUN_CYCLES,
    ));
    run_with_stimulus(&mut dev, &mut player, RUN_CYCLES, false);
    let history = dev
        .soc()
        .periph()
        .output_history(engine::INJECTION_PORT)
        .iter()
        .copied()
        .collect();
    let retired = dev.soc().core(mcds_soc::CoreId(0)).retired();
    let stored = dev.sink().message_count();
    (history, retired, stored)
}

fn main() {
    let idle = McdsConfig::default();
    let (prod_hist, prod_retired, _) = run(DeviceVariant::Production, idle.clone());
    let (ed_hist, ed_retired, _) = run(DeviceVariant::EdSideBooster, idle);
    let (traced_hist, traced_retired, traced_msgs) = run(
        DeviceVariant::EdSideBooster,
        with_data_trace(tracing_config(1)),
    );

    let compare = |a: &[PortWrite], b: &[PortWrite]| -> (usize, u64, u32) {
        let len_diff = a.len().abs_diff(b.len());
        let mut max_cycle_delta = 0u64;
        let mut max_value_delta = 0u32;
        for (x, y) in a.iter().zip(b.iter()) {
            max_cycle_delta = max_cycle_delta.max(x.cycle.abs_diff(y.cycle));
            max_value_delta = max_value_delta.max(x.value.abs_diff(y.value));
        }
        (len_diff, max_cycle_delta, max_value_delta)
    };

    let (d_len, d_cyc, d_val) = compare(&prod_hist, &ed_hist);
    let (t_len, t_cyc, t_val) = compare(&prod_hist, &traced_hist);

    print_table(
        "F3: production ↔ ED side booster transparency (Figure 3)",
        &[
            "configuration",
            "actuator writes",
            "retired instrs",
            "Δwrites vs prod",
            "max Δcycle",
            "max Δvalue",
            "trace msgs stored",
        ],
        &[
            vec![
                "TC1796 production".into(),
                prod_hist.len().to_string(),
                prod_retired.to_string(),
                "-".into(),
                "-".into(),
                "-".into(),
                "0 (no trace RAM)".into(),
            ],
            vec![
                "TC1796ED, debug idle".into(),
                ed_hist.len().to_string(),
                ed_retired.to_string(),
                d_len.to_string(),
                d_cyc.to_string(),
                d_val.to_string(),
                "0".into(),
            ],
            vec![
                "TC1796ED, full prog+data trace".into(),
                traced_hist.len().to_string(),
                traced_retired.to_string(),
                t_len.to_string(),
                t_cyc.to_string(),
                t_val.to_string(),
                traced_msgs.to_string(),
            ],
        ],
    );

    assert_eq!((d_len, d_cyc, d_val), (0, 0, 0), "ED device is transparent");
    assert_eq!((t_len, t_cyc, t_val), (0, 0, 0), "tracing is non-intrusive");
    assert_eq!(prod_retired, traced_retired);
    assert!(traced_msgs > 1000, "the traced run actually captured trace");
    println!(
        "\nPaper claim: interchangeable with complete transparency. Reproduced:\n\
         identical actuator histories (writes, cycles, values) across the\n\
         production part, the idle ED part, and the ED part under full trace."
    );
}
