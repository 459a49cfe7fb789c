//! Experiment T16 — the discrete-event execution kernel: batched
//! basic-block execution and quiescent-stretch skipping vs exact
//! per-cycle stepping.
//!
//! The kernel replaces the uniform per-cycle loop with a min-fold over
//! component wakeups (idle stretches are skipped in one jump) and a
//! decode-cached block layer for straight-line TC-RISC runs (one lane
//! per running core, advanced by bus grants). Both tiers promise
//! bit-identical architectural state; this experiment measures what that
//! buys and asserts the promise on every run:
//!
//! * **T16a** — straight-line speed: an idle-MCDS ALU/memory loop under
//!   `PerCycle` and `BlockBatched` (each repeat's ratio printed),
//!   identical state hashes asserted, block-batched >= 5x per-cycle;
//! * **T16b** — quiescent skip: a timer-wait workload (halted core, armed
//!   timer) where block-batched must be >= 10x per-cycle;
//! * **T16c** — traced sessions: the catalog workloads as traced
//!   farm-recipe sessions (always-on program trace) through `Session::run`
//!   at the farm quantum, plus one comparator-armed row (program and data
//!   trace in a comparator window), per mode. The MCDS only observes, so
//!   the batched runs hand it events instead of cycles; trace bytes,
//!   decoded messages and state hashes are asserted identical on every
//!   row, and batched traced runs must reach >= 3x per-cycle on one core
//!   and >= 2x on two;
//! * **T16d** — the consumer's view: the catalog workloads as untraced
//!   farm-recipe sessions through `Session::run` at the farm quantum, per
//!   mode, with ExecStats. State hashes are asserted identical on every
//!   row (the two swap-lock race workloads run until their first halt as
//!   hash-identity rows), and every batched row must step <= 1% of its
//!   cycles (a deterministic count). The four free-running rows must be
//!   no slower batched than per-cycle; the two-core ones, which the kernel
//!   merges by bus grants, must reach >= 1.5x per-cycle;
//! * the idle-skip / block-hit-rate table and the kernel counters
//!   published as `t16_kernel_telemetry.{json,prom}`.
//!
//! Every speed figure is the best-of-N wall time per mode, the two modes
//! interleaved within each repeat, so that the speed phases of a shared
//! host slow both modes of a ratio alike.
//!
//! Run with `--smoke` for a short CI-friendly pass.

use mcds::observer::{CoreTraceConfig, DataTraceConfig, TraceQualifier};
use mcds::{McdsConfig, ProgramComparator, SignalRef};
use mcds_bench::{interleaved, print_table, write_telemetry_artifacts, BenchArgs};
use mcds_farm::{device_spec, FarmConfig};
use mcds_host::Session;
use mcds_psi::device::DeviceSpec;
use mcds_psi::device::{Device, DeviceBuilder, DeviceVariant};
use mcds_replay::{device_state_hash, trace_bytes, SocSnapshot};
use mcds_soc::asm::assemble;
use mcds_soc::cpu::CoreConfig;
use mcds_soc::event::CoreId;
use mcds_soc::{ExecMode, ExecStats};
use mcds_telemetry::Telemetry;
use mcds_trace::StreamDecoder;
use mcds_workloads::Workload;
use std::time::Instant;

/// Straight-line workload: a hot ALU + SRAM loop that never halts — the
/// block layer's best case, and exactly the code shape a calibration
/// engineer's control loop has between events.
const STRAIGHT_LINE: &str = "
    .org 0x80000000
    start:
        li r6, 0xD0000000
    loop:
        addi r1, r1, 1
        mul  r3, r1, r1
        sw   r3, 0(r6)
        lw   r4, 0(r6)
        xor  r5, r5, r4
        andi r2, r1, 255
        bne  r2, r0, loop
        addi r7, r7, 1
        j loop
";

/// Timer-wait workload: the core arms the system timer and halts; the
/// only activity is the periodic fire re-arming itself. The kernel skips
/// the quiet stretches wholesale.
const TIMER_WAIT: &str = "
    .equ PERIOD_REG, 0xF0000008
    .org 0x80000000
    start:
        li r1, 10000
        li r2, PERIOD_REG
        sw r1, 0(r2)
        halt
";

fn device(src: &str) -> Device {
    let mut dev = DeviceBuilder::new(DeviceVariant::Production)
        .core(CoreConfig {
            reset_pc: 0x8000_0000,
            clock_div: 1,
            ..Default::default()
        })
        .build();
    dev.soc_mut()
        .load_program(&assemble(src).expect("assembles"));
    dev
}

/// The comparator-armed tracing setup of T16c's Engine row: program and
/// data trace inside a window a comparator on `cycle` (the loop head)
/// opens and one on `load_ok` (mid-loop) closes.
fn comparator_window(w: Workload) -> McdsConfig {
    let program = w.program();
    let at = |label: &str| ProgramComparator::at(program.symbol(label).expect("engine label"));
    let window = TraceQualifier::Window {
        start: SignalRef::ProgComp {
            core: CoreId(0),
            idx: 0,
        },
        stop: SignalRef::ProgComp {
            core: CoreId(0),
            idx: 1,
        },
    };
    McdsConfig {
        cores: vec![CoreTraceConfig {
            program_comparators: vec![at("cycle"), at("load_ok")],
            program_trace: window.clone(),
            data_trace: DataTraceConfig {
                qualifier: window,
                filter: None,
            },
            ..Default::default()
        }],
        ..McdsConfig::program_trace(1)
    }
}

/// One timed run: `cycles` through `run_cycles` under `mode`. Returns
/// wall seconds, the device state hash, the snapshot hash and the kernel
/// counters.
fn timed(src: &str, mode: ExecMode, cycles: u64) -> (f64, u64, u64, ExecStats) {
    let mut dev = device(src);
    dev.set_exec_mode(mode);
    let start = Instant::now();
    dev.run_cycles(cycles);
    let wall = start.elapsed().as_secs_f64();
    (
        wall,
        device_state_hash(&dev),
        SocSnapshot::capture(&dev).state_hash(),
        *dev.exec_stats(),
    )
}

const MODES: [ExecMode; 2] = [ExecMode::PerCycle, ExecMode::BlockBatched];

/// One farm-recipe session of `w` with MCDS configuration `mcds` (none:
/// untraced) run for `cycles` in farm quanta under `mode`, or until its
/// first halt if `halts`. Returns the cycles run, wall seconds, the final
/// state hash, the kernel counters accumulated by the runs and the stored
/// trace bytes.
fn session_run(
    w: Workload,
    mcds: Option<McdsConfig>,
    mode: ExecMode,
    cycles: u64,
    quantum: u64,
    halts: bool,
) -> (u64, f64, u64, ExecStats, Vec<u8>) {
    let mut dev = DeviceSpec {
        mcds,
        ..device_spec(w, false)
    }
    .build();
    dev.soc_mut().load_program(&w.program());
    let mut s = Session::attach(dev, FarmConfig::default().iface, &w.program(), None)
        .expect("session attaches");
    s.set_exec_mode(mode);
    let before = *s.exec_stats();
    let start = Instant::now();
    let mut left = cycles;
    while left > 0 {
        let report = s.run(left.min(quantum));
        left -= report.ran;
        if report.stop.is_some() {
            assert!(halts, "{} runs free", w.name());
            break;
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let after = *s.exec_stats();
    let stats = ExecStats {
        stepped_cycles: after.stepped_cycles - before.stepped_cycles,
        skipped_cycles: after.skipped_cycles - before.skipped_cycles,
        block_cycles: after.block_cycles - before.block_cycles,
        ..ExecStats::default()
    };
    let trace = trace_bytes(s.debugger().device()).unwrap_or_default();
    (cycles - left, wall, s.state_hash(), stats, trace)
}

fn mode_name(mode: ExecMode) -> &'static str {
    match mode {
        ExecMode::PerCycle => "per-cycle",
        ExecMode::BlockBatched => "block-batched",
    }
}

/// [`interleaved`] runs of `src` for `cycles` through [`timed`]; asserts
/// state and snapshot hashes are identical across every run. Returns
/// per-mode (mode, wall, stats) and each repeat's wall ratio.
fn compare(src: &str, cycles: u64, repeats: usize) -> (Vec<(ExecMode, f64, ExecStats)>, Vec<f64>) {
    let mut reference: Option<(u64, u64)> = None;
    let (best, ratios) = interleaved(repeats, MODES, |mode| {
        let (wall, state, snap, s) = timed(src, mode, cycles);
        assert_eq!(
            *reference.get_or_insert((state, snap)),
            (state, snap),
            "{} diverged from per-cycle (state/snapshot hash)",
            mode_name(mode)
        );
        (wall, s)
    });
    let rows = MODES
        .into_iter()
        .zip(best)
        .map(|(mode, (wall, s))| (mode, wall, s))
        .collect();
    (rows, ratios)
}

/// Each repeat's per-cycle / block-batched wall ratio, for the log.
fn pair_ratios(ratios: &[f64]) -> String {
    let each: Vec<String> = ratios.iter().map(|r| format!("{r:.2}x")).collect();
    format!("per-repeat pairs {}", each.join(" "))
}

fn stats_table(title: &str, cycles: u64, rows: &[(ExecMode, f64, ExecStats)]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|(mode, wall, s)| {
            let decodes = s.decode_hits + s.decode_misses;
            vec![
                mode_name(*mode).into(),
                format!("{:.2} ms", wall * 1e3),
                format!("{:.2}", cycles as f64 / wall / 1e6),
                format!("{}", s.stepped_cycles),
                format!("{}", s.skipped_cycles),
                format!("{}", s.block_cycles),
                format!("{}", s.block_instrs),
                if decodes == 0 {
                    "-".into()
                } else {
                    format!("{:.1}%", 100.0 * s.decode_hits as f64 / decodes as f64)
                },
            ]
        })
        .collect();
    print_table(
        title,
        &[
            "mode",
            "wall",
            "Mcycles/s",
            "stepped",
            "skipped",
            "block cyc",
            "block instr",
            "decode hit",
        ],
        &table,
    );
}

fn main() {
    let args = BenchArgs::parse("target/analysis");
    let cycles: u64 = args.scale(4_000_000, 400_000);
    let quiet_cycles: u64 = args.scale(20_000_000, 2_000_000);
    let repeats: usize = args.scale(5, 3);

    // --- T16a: straight-line block execution. ---------------------------
    let (line, line_ratios) = compare(STRAIGHT_LINE, cycles, repeats);
    stats_table(
        &format!("T16a: straight-line loop over {cycles} cycles (best of {repeats})"),
        cycles,
        &line,
    );
    let wall_per_cycle = line[0].1;
    let wall_block = line[1].1;
    let line_speedup = wall_per_cycle / wall_block;
    println!(
        "block-batched speedup {line_speedup:.2}x vs per-cycle (best of each mode; {}); hashes identical\n",
        pair_ratios(&line_ratios)
    );
    assert!(
        line_speedup >= 5.0,
        "block-batched must be >= 5x per-cycle on straight-line code (got {line_speedup:.2}x)"
    );
    let block_stats = line[1].2;
    assert!(
        block_stats.block_cycles > (cycles / 10) * 9,
        "the hot loop must run overwhelmingly in blocks: {block_stats:?}"
    );

    // --- T16b: quiescent timer-wait skip. -------------------------------
    let (quiet, quiet_ratios) = compare(TIMER_WAIT, quiet_cycles, repeats);
    stats_table(
        &format!("T16b: timer-wait quiescence over {quiet_cycles} cycles (best of {repeats})"),
        quiet_cycles,
        &quiet,
    );
    let wall_quiet_per_cycle = quiet[0].1;
    let wall_quiet_block = quiet[1].1;
    let quiet_speedup = wall_quiet_per_cycle / wall_quiet_block;
    println!(
        "block-batched skip speedup {quiet_speedup:.2}x vs per-cycle (best of each mode; {}); hashes identical\n",
        pair_ratios(&quiet_ratios)
    );
    assert!(
        quiet_speedup >= 10.0,
        "block-batched must be >= 10x per-cycle on a quiescent workload (got {quiet_speedup:.2}x)"
    );
    let skip_stats = quiet[1].2;
    assert!(
        skip_stats.skipped_cycles > (quiet_cycles / 10) * 9,
        "a timer-wait run must skip almost everything: {skip_stats:?}"
    );

    // --- T16c: traced catalog sessions at the farm quantum. -------------
    let session_cycles: u64 = args.scale(2_000_000, 400_000);
    let quantum = FarmConfig::default().quantum;
    let mut rows = Vec::new();
    let mut one_core_traced = f64::MAX;
    let mut two_core_traced = f64::MAX;
    for (w, label, mcds) in [
        (Workload::Engine, "", None),
        (Workload::Gearbox, "", None),
        (Workload::EngineGearbox, "", None),
        (Workload::EngineGearboxVehicle, "", None),
        (
            Workload::Engine,
            " (comparator window)",
            Some(comparator_window(Workload::Engine)),
        ),
    ] {
        let mcds = mcds.unwrap_or_else(|| McdsConfig::program_trace(w.cores()));
        let mut want = None;
        let (best, _) = interleaved(repeats, MODES, |mode| {
            let (cycles, wall, hash, s, trace) =
                session_run(w, Some(mcds.clone()), mode, session_cycles, quantum, false);
            let decoded = StreamDecoder::new(trace.clone())
                .collect_all()
                .expect("trace decodes");
            let msgs = decoded.len();
            assert_eq!(
                want.get_or_insert_with(|| (cycles, hash, trace.clone(), decoded.clone())),
                &(cycles, hash, trace, decoded),
                "{}{label}: traced {} session diverged from per-cycle \
                 (cycles, state hash, trace bytes or decoded messages)",
                w.name(),
                mode_name(mode)
            );
            (wall, (s, msgs))
        });
        let per_cycle_wall = best[0].0;
        for (mode, (best, (stats, msgs))) in MODES.into_iter().zip(best) {
            let speedup = per_cycle_wall / best;
            if mode == ExecMode::BlockBatched {
                assert!(
                    stats.block_cycles > stats.stepped_cycles,
                    "{}{label}: traced batched sessions run mostly in blocks: {stats:?}",
                    w.name()
                );
                let worst = if w.cores() == 2 {
                    &mut two_core_traced
                } else {
                    &mut one_core_traced
                };
                *worst = worst.min(speedup);
            }
            rows.push(vec![
                format!("{}{label}", w.name()),
                mode_name(mode).into(),
                format!("{session_cycles}"),
                format!("{:.2}", session_cycles as f64 / best / 1e6),
                format!("{speedup:.2}x"),
                format!("{}", stats.stepped_cycles),
                format!("{}", stats.skipped_cycles),
                format!("{}", stats.block_cycles),
                format!("{msgs}"),
            ]);
        }
    }
    print_table(
        &format!(
            "T16c: traced catalog sessions, {session_cycles} cycles through Session::run \
             at the {quantum}-cycle farm quantum (best of {repeats})"
        ),
        &[
            "workload",
            "mode",
            "cycles",
            "Mcycles/s",
            "vs per-cycle",
            "stepped",
            "skipped",
            "block cyc",
            "messages",
        ],
        &rows,
    );
    println!(
        "traced sessions feed the MCDS events, not cycles: {one_core_traced:.2}x per-cycle \
         at worst on one core, {two_core_traced:.2}x on two; trace bytes, decoded messages \
         and state hashes identical\n"
    );
    assert!(
        one_core_traced >= 3.0,
        "single-core traced sessions must reach >= 3x per-cycle (got {one_core_traced:.2}x)"
    );
    assert!(
        two_core_traced >= 2.0,
        "two-core traced sessions must reach >= 2x per-cycle (got {two_core_traced:.2}x)"
    );
    let traced_speedup = one_core_traced.min(two_core_traced);

    // --- T16d: catalog sessions at the farm quantum. --------------------
    let mut rows = Vec::new();
    let mut two_core_speedup = f64::MAX;
    for (w, halts) in [
        (Workload::Engine, false),
        (Workload::Gearbox, false),
        (Workload::EngineGearbox, false),
        (Workload::EngineGearboxVehicle, false),
        (Workload::RaceLocked, true),
        (Workload::RaceBuggy, true),
    ] {
        let mut want = None;
        let (best, _) = interleaved(repeats, MODES, |mode| {
            let (cycles, wall, hash, s, _) =
                session_run(w, None, mode, session_cycles, quantum, halts);
            assert_eq!(
                *want.get_or_insert((cycles, hash)),
                (cycles, hash),
                "{}: {} session diverged from per-cycle",
                w.name(),
                mode_name(mode)
            );
            (wall, (s, cycles))
        });
        let per_cycle_wall = best[0].0;
        for (mode, (best, (stats, ran))) in MODES.into_iter().zip(best) {
            let speedup = per_cycle_wall / best;
            if mode == ExecMode::BlockBatched {
                assert!(
                    stats.stepped_cycles * 100 <= ran,
                    "{}: batched sessions step <= 1% of their cycles: {stats:?}",
                    w.name()
                );
            }
            if mode == ExecMode::BlockBatched && !halts {
                assert!(
                    speedup >= 1.0,
                    "{}: block-batched slower than per-cycle ({speedup:.2}x)",
                    w.name()
                );
                if w.cores() == 2 {
                    two_core_speedup = two_core_speedup.min(speedup);
                }
            }
            rows.push(vec![
                w.name().into(),
                mode_name(mode).into(),
                format!("{ran}"),
                format!("{:.2}", ran as f64 / best / 1e6),
                format!("{speedup:.2}x"),
                format!("{}", stats.stepped_cycles),
                format!("{}", stats.skipped_cycles),
                format!("{}", stats.block_cycles),
            ]);
        }
    }
    print_table(
        &format!(
            "T16d: untraced catalog sessions, up to {session_cycles} cycles through \
             Session::run at the {quantum}-cycle farm quantum (best of {repeats})"
        ),
        &[
            "workload",
            "mode",
            "cycles",
            "Mcycles/s",
            "vs per-cycle",
            "stepped",
            "skipped",
            "block cyc",
        ],
        &rows,
    );
    println!(
        "two-core sessions merge by bus grants: {two_core_speedup:.2}x per-cycle at worst; \
         hashes identical\n"
    );
    assert!(
        two_core_speedup >= 1.5,
        "two-core sessions must reach >= 1.5x per-cycle (got {two_core_speedup:.2}x)"
    );

    // --- Telemetry artifacts. -------------------------------------------
    let tel = Telemetry::new();
    let r = tel.registry();
    r.counter(
        "t16_block_cycles_total",
        "cycles executed as batched basic blocks (straight-line run)",
    )
    .add(block_stats.block_cycles);
    r.counter(
        "t16_skipped_cycles_total",
        "cycles skipped as quiescent (timer-wait run)",
    )
    .add(skip_stats.skipped_cycles);
    r.gauge("t16_line_speedup", "block-batched speedup vs per-cycle")
        .set(line_speedup);
    r.gauge("t16_quiet_speedup", "quiescent-skip speedup vs per-cycle")
        .set(quiet_speedup);
    r.gauge(
        "t16_two_core_speedup",
        "merged two-core session speedup vs per-cycle (worst catalog row)",
    )
    .set(two_core_speedup);
    r.gauge(
        "t16_traced_speedup",
        "traced catalog session speedup vs per-cycle (worst row)",
    )
    .set(traced_speedup);
    let decodes = block_stats.decode_hits + block_stats.decode_misses;
    r.gauge(
        "t16_decode_hit_rate",
        "decode-cache hit rate (straight-line)",
    )
    .set(if decodes == 0 {
        0.0
    } else {
        block_stats.decode_hits as f64 / decodes as f64
    });
    let json_path = write_telemetry_artifacts(&args, "t16_kernel", &tel);
    println!(
        "T16: the execution kernel batches straight-line code {line_speedup:.2}x and skips \
         quiescence {quiet_speedup:.2}x, bit-identical throughout ({json_path})."
    );
}
