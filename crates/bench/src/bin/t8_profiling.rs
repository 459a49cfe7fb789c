//! Experiment T8 — trace-driven profiling, coverage and bus-contention
//! analysis, entirely from the non-intrusive MCDS trace path.
//!
//! *"All messages referring to the program execution are time stamped with
//! the value of a central clock counter"* — the paper's time stamps are
//! what turn a flow trace into a profiler: the cycle distance between two
//! consecutive program messages is the exact cost of the instructions the
//! second message proves. This experiment runs the gearbox controller and
//! the two-core race workload through the full PSI capture path and derives
//!
//! * a flat + per-symbol hot-spot profile,
//! * instruction and branch-arc coverage (merged across two runs that take
//!   different shift decisions),
//! * per-master bus utilization/contention cross-checked against the SoC's
//!   internal counters,
//! * a Chrome trace-event JSON timeline loadable in ui.perfetto.dev.
//!
//! Run with `--smoke` for a short CI-friendly pass (same pipeline, fewer
//! iterations).

use mcds_analysis::symbol_ranges;
use mcds_bench::{
    cycles_to_time, print_table, tracing_config, write_telemetry_artifacts, BenchArgs,
};
use mcds_host::{AnalysisOutcome, Debugger, TraceSession};
use mcds_psi::device::{Device, DeviceBuilder, DeviceVariant};
use mcds_psi::interface::InterfaceKind;
use mcds_soc::asm::Program;
use mcds_soc::cpu::CoreConfig;
use mcds_telemetry::{Subsystem, Telemetry};
use mcds_workloads::{gearbox, race};
use std::fs;

const MAX_CYCLES: u64 = 5_000_000;

fn gearbox_device(iterations: u32, speed: u32) -> (Device, Program) {
    let program = gearbox::program(Some(iterations));
    let mut dev = DeviceBuilder::new(DeviceVariant::EdSideBooster)
        .core(CoreConfig {
            reset_pc: 0x8001_0000,
            clock_div: 1,
            ..Default::default()
        })
        .mcds(tracing_config(1))
        .build();
    dev.soc_mut().load_program(&program);
    dev.soc_mut()
        .periph_mut()
        .set_input(gearbox::SPEED_PORT, speed);
    (dev, program)
}

fn capture(dev: Device, program: &Program) -> AnalysisOutcome {
    let mut dbg = Debugger::attach(dev, InterfaceKind::Jtag);
    let session = TraceSession::new(program);
    session
        .capture_analysis(&mut dbg, MAX_CYCLES)
        .expect("analysis capture")
}

fn main() {
    let args = BenchArgs::parse("target/analysis");
    let iterations: u32 = args.scale(2_000, 40);
    let out_dir = &args.out_dir;
    fs::create_dir_all(out_dir).expect("create output dir");

    // --- Gearbox: two runs on different shift paths. -------------------
    // Speed 70 walks the upshift ladder to gear 4; speed 15 never leaves
    // gear 1 and exercises the downshift-rejection path instead. Each run
    // covers branch arcs the other never takes.
    let (dev_hi, prog) = gearbox_device(iterations, 70);
    let hi = capture(dev_hi, &prog);
    let (dev_lo, _) = gearbox_device(iterations, 15);
    let lo = capture(dev_lo, &prog);

    println!("== T8: gearbox profile ({iterations} iterations, speed 70) ==\n");
    let ranges = symbol_ranges(&prog);
    let per_symbol = hi.profile.attribute(&ranges);
    let total = hi.profile.total_cycles();
    let rows: Vec<Vec<String>> = per_symbol
        .iter()
        .filter(|r| r.cycles > 0)
        .map(|r| {
            vec![
                r.name.clone(),
                r.cycles.to_string(),
                format!("{:.1}%", 100.0 * r.cycles as f64 / total.max(1) as f64),
                r.retires.to_string(),
            ]
        })
        .collect();
    print_table(
        "per-symbol profile (trace-derived)",
        &["symbol", "cycles", "share", "retired"],
        &rows,
    );

    let hot = hi.profile.hot_spots(5);
    let rows: Vec<Vec<String>> = hot
        .iter()
        .map(|p| {
            vec![
                format!("{:#010x}", p.pc),
                p.cycles.to_string(),
                p.retires.to_string(),
            ]
        })
        .collect();
    print_table("hot spots (top 5 pcs)", &["pc", "cycles", "retired"], &rows);

    println!(
        "traced {} instructions over {} ({} trace bytes, {} gaps)\n",
        hi.profile.total_instructions(),
        cycles_to_time(total),
        hi.trace_bytes,
        hi.gaps,
    );
    assert!(
        hi.profile.is_lossless(),
        "gearbox run must trace losslessly"
    );

    // --- Coverage merge across the two runs. ---------------------------
    let program_instrs = mcds_analysis::program_instruction_count(&prog);
    let merged = hi.coverage.merge(&lo.coverage);
    let row = |name: &str, c: &mcds_analysis::CoverageReport| {
        vec![
            name.to_string(),
            format!(
                "{}/{} ({:.1}%)",
                c.covered_instructions(),
                program_instrs,
                100.0 * c.fraction_of(program_instrs)
            ),
            c.covered_arcs().to_string(),
            c.gaps.to_string(),
        ]
    };
    print_table(
        "coverage (instruction + branch-arc)",
        &["run", "instructions", "arcs", "gaps"],
        &[
            row("speed 70", &hi.coverage),
            row("speed 15", &lo.coverage),
            row("merged", &merged),
        ],
    );
    assert!(merged.covered_instructions() >= hi.coverage.covered_instructions());
    assert!(merged.covered_arcs() > hi.coverage.covered_arcs());
    assert_eq!(merged.merge(&merged), merged, "merge must be idempotent");

    // --- Race workload: two masters contending on the shared bus. ------
    // This leg runs with telemetry attached: the session publishes the
    // registry, the health report renders it, and the snapshot lands next
    // to the other artifacts.
    let race_prog = race::program_locked();
    let mut dev = DeviceBuilder::new(DeviceVariant::EdSideBooster)
        .cores(2)
        .mcds(tracing_config(2))
        .build();
    dev.soc_mut().load_program(&race_prog);
    let tel = Telemetry::new();
    dev.attach_telemetry(tel.clone());
    let mut dbg = Debugger::attach(dev, InterfaceKind::Jtag);
    let session = TraceSession::new(&race_prog);
    let race_out = session
        .capture_analysis(&mut dbg, MAX_CYCLES)
        .expect("analysis capture");

    println!("== T8: two-core race workload, bus contention ==\n");
    print!("{}", session.health_report(&dbg));
    println!();
    let bus = &race_out.bus;
    let rows: Vec<Vec<String>> = bus
        .masters
        .iter()
        .map(|m| {
            vec![
                format!("master {}", m.master),
                m.xacts.to_string(),
                m.grants.to_string(),
                m.occupancy_cycles.to_string(),
                m.wait_cycles.to_string(),
                format!("{:.2}%", 100.0 * bus.master_utilization(m.master)),
            ]
        })
        .collect();
    print_table(
        "per-master bus activity (trace-side view)",
        &["master", "xacts", "grants", "occupancy", "waited", "util"],
        &rows,
    );
    println!(
        "bus utilization {:.2}%, contended cycles {} of {}",
        100.0 * bus.utilization(),
        bus.contended_cycles,
        bus.cycles,
    );

    // --- Timeline + report files. --------------------------------------
    let timeline_path = format!("{out_dir}/t8_race_timeline.json");
    fs::write(&timeline_path, race_out.timeline.to_json()).expect("write timeline");
    let coverage_path = format!("{out_dir}/t8_gearbox_coverage.json");
    fs::write(
        &coverage_path,
        serde_json::to_string(&merged).expect("serialize coverage"),
    )
    .expect("write coverage");
    let gearbox_timeline_path = format!("{out_dir}/t8_gearbox_timeline.json");
    fs::write(&gearbox_timeline_path, hi.timeline.to_json()).expect("write timeline");

    println!(
        "\nwrote {} ({} events), {} ({} events), {}",
        timeline_path,
        race_out.timeline.len(),
        gearbox_timeline_path,
        hi.timeline.len(),
        coverage_path,
    );
    // The session's analysis pass recorded cycle-stamped spans for the
    // FIFO drain and the stream decode; both must be in the snapshot.
    let snap = tel.snapshot();
    for sub in [Subsystem::FifoDrain, Subsystem::TraceDecode] {
        assert!(
            snap.counter("telemetry_spans_total", &[("subsystem", sub.name())])
                .is_some_and(|n| n > 0),
            "missing {sub} span in telemetry"
        );
    }
    write_telemetry_artifacts(&args, "t8", &tel);
    println!("open the timelines at https://ui.perfetto.dev (Open trace file).");
}
