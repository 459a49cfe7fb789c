//! Experiment T9 — deterministic snapshot, record-replay and time travel.
//!
//! The emulator-class capability the paper's hardware cannot offer but a
//! cycle-accurate model gets for free: because every nondeterministic input
//! is recorded in an [`mcds_replay::InputLog`], a run can be snapshotted,
//! resumed, sought to an arbitrary cycle and stepped *backwards* — all
//! bit-identical to the original execution. Measured on the gearbox
//! controller with a speed ramp:
//!
//! * **T9a** — recording overhead: the same run with and without periodic
//!   checkpoints (wall-clock, checkpoints captured, per-checkpoint cost);
//! * **T9b** — snapshot size: raw components vs delta-compressed against
//!   the previous checkpoint;
//! * **T9c** — bit-identical resume: restore a mid-run snapshot on a fresh
//!   device, replay to the end, compare the final architectural state hash
//!   *and* the decoded trace message stream against the uninterrupted run;
//! * **T9d** — seek latency: `seek(cycle)` via the checkpoint ring vs
//!   re-executing from reset (the ≥5× claim);
//! * **T9e** — reverse step: landing on the exact prior instruction,
//!   verified against the recorded retirement stream.
//!
//! Run with `--smoke` for a short CI-friendly pass (same pipeline and
//! assertions, shorter run).

use mcds_bench::{print_table, tracing_config, write_telemetry_artifacts, BenchArgs};
use mcds_host::TimeTravel;
use mcds_psi::device::{Device, DeviceBuilder, DeviceVariant};
use mcds_replay::{device_state_hash, trace_bytes, InputLog, Payload, Replayer, SocSnapshot};
use mcds_soc::cpu::CoreConfig;
use mcds_soc::event::{CoreId, SocEvent};
use mcds_telemetry::{MetricValue, Subsystem, Telemetry, ThroughputMeter};
use mcds_trace::StreamDecoder;
use mcds_workloads::gearbox;
use mcds_workloads::stimulus::Profile;
use std::time::Instant;

fn gearbox_device() -> Device {
    let mut dev = DeviceBuilder::new(DeviceVariant::EdSideBooster)
        .core(CoreConfig {
            reset_pc: 0x8001_0000,
            clock_div: 1,
            ..Default::default()
        })
        .mcds(tracing_config(1))
        .build();
    dev.soc_mut().load_program(&gearbox::program(None));
    dev
}

/// A speed ramp through every up-shift threshold and back down again.
fn speed_profile(run_cycles: u64) -> Profile {
    let half = run_cycles / 2;
    Profile::ramp(gearbox::SPEED_PORT, 5, 110, 0, half, 40).merge(Profile::ramp(
        gearbox::SPEED_PORT,
        110,
        5,
        half,
        half,
        40,
    ))
}

struct BaselineRun {
    wall: f64,
    /// Retirement pcs of core 0, in order — ground truth for reverse_step.
    pcs: Vec<u32>,
    mid_snapshot: SocSnapshot,
    final_hash: u64,
    final_trace: Vec<u8>,
}

/// The plain recorded run: no checkpoints, collecting the retirement
/// stream, a mid-run snapshot, and the final state hash + trace stream.
fn baseline_run(log: &InputLog, run_cycles: u64) -> BaselineRun {
    let mut dev = gearbox_device();
    let mut rep = Replayer::new(log);
    let mid = run_cycles / 2;
    let mut pcs = Vec::new();
    let mut mid_snapshot = None;
    let start = Instant::now();
    while dev.soc().cycle() < run_cycles {
        if dev.soc().cycle() == mid && mid_snapshot.is_none() {
            mid_snapshot = Some(SocSnapshot::capture(&dev));
        }
        rep.apply_due(&mut dev);
        if dev.soc().cycle() >= run_cycles {
            break;
        }
        let record = dev.step();
        for e in &record.events {
            if let SocEvent::Retire(x) = e {
                if x.core == CoreId(0) {
                    pcs.push(x.pc);
                }
            }
        }
    }
    let wall = start.elapsed().as_secs_f64();
    BaselineRun {
        wall,
        pcs,
        mid_snapshot: mid_snapshot.expect("mid-run snapshot captured"),
        final_hash: device_state_hash(&dev),
        final_trace: trace_bytes(&dev).expect("ED device has trace memory"),
    }
}

fn main() {
    let args = BenchArgs::parse("target/analysis");
    let run_cycles: u64 = args.scale(400_000, 200_000);
    let every: u64 = args.scale(50_000, 25_000);
    let capacity = (run_cycles / every) as usize + 2;
    let log = InputLog::from_profile(&speed_profile(run_cycles));

    // --- T9a: recording overhead. --------------------------------------
    // The baseline runs without telemetry, the time-travel run with it
    // attached — the matching final state hash below doubles as the
    // attachment-changes-nothing determinism check.
    let base = baseline_run(&log, run_cycles);
    let tel = Telemetry::new();
    let mut tt_dev = gearbox_device();
    tt_dev.attach_telemetry(tel.clone());
    let mut tt = TimeTravel::new(tt_dev, log.clone(), every, capacity);
    let meter = ThroughputMeter::start(tel.registry(), 0, 0);
    let start = Instant::now();
    tt.run_to_cycle(run_cycles);
    let tt_wall = start.elapsed().as_secs_f64();
    let cycles_per_sec = meter.sample(tt.device().soc().cycle(), 0);
    let checkpoints = tt.checkpoint_count();
    assert!(checkpoints >= 2, "run long enough to checkpoint");
    assert_eq!(
        device_state_hash(tt.device()),
        base.final_hash,
        "checkpointing (and attached telemetry) must not perturb the run"
    );
    let overhead = (tt_wall - base.wall).max(0.0);
    print_table(
        &format!("T9a: recording overhead over {run_cycles} cycles"),
        &["run", "wall", "checkpoints", "per checkpoint"],
        &[
            vec![
                "plain replay".into(),
                format!("{:.1} ms", base.wall * 1e3),
                "0".into(),
                "-".into(),
            ],
            vec![
                format!("checkpoint every {every}"),
                format!("{:.1} ms", tt_wall * 1e3),
                checkpoints.to_string(),
                format!("{:.2} ms", overhead * 1e3 / checkpoints as f64),
            ],
        ],
    );
    println!(
        "emulator throughput: {:.1} Mcycles/s wall",
        cycles_per_sec / 1e6
    );

    // --- T9b: snapshot size, raw vs delta. ------------------------------
    let parent = &base.mid_snapshot;
    let mut child_dev = gearbox_device();
    parent.restore_into(&mut child_dev);
    let mut rep = Replayer::resume_at(&log, parent.cycle());
    mcds_replay::run_with_events(&mut child_dev, &mut rep, parent.cycle() + every);
    let child = SocSnapshot::capture(&child_dev);
    let delta = child.delta_from(parent);
    let rows: Vec<Vec<String>> = child
        .components()
        .iter()
        .zip(delta.components())
        .map(|(raw, d)| {
            vec![
                raw.name().to_string(),
                raw.payload().stored_bytes().to_string(),
                d.payload().stored_bytes().to_string(),
                match d.payload() {
                    Payload::Raw(_) => "raw",
                    Payload::Delta { .. } => "delta",
                    Payload::Same => "same",
                }
                .to_string(),
            ]
        })
        .collect();
    print_table(
        &format!("T9b: snapshot size, {every} cycles after the parent (bytes stored)"),
        &["component", "raw", "delta", "encoding"],
        &rows,
    );
    println!(
        "total: raw {} bytes, delta {} bytes ({:.1}% of raw)",
        child.stored_bytes(),
        delta.stored_bytes(),
        100.0 * delta.stored_bytes() as f64 / child.stored_bytes().max(1) as f64
    );
    assert!(
        delta.stored_bytes() < child.stored_bytes() / 2,
        "delta must compress (flash never changes mid-run)"
    );
    let rehydrated = delta.materialize(Some(parent));
    assert_eq!(rehydrated.state_hash(), child.state_hash());
    if !args.smoke {
        println!(
            "serialized JSON: raw {} bytes, delta {} bytes",
            child.serialized_size(),
            delta.serialized_size()
        );
    }

    // --- T9c: bit-identical resume from the mid-run snapshot. -----------
    let mut resumed = gearbox_device();
    base.mid_snapshot.restore_into(&mut resumed);
    let mut rep = Replayer::resume_at(&log, base.mid_snapshot.cycle());
    mcds_replay::run_with_events(&mut resumed, &mut rep, run_cycles);
    let resumed_hash = device_state_hash(&resumed);
    let resumed_trace = trace_bytes(&resumed).expect("trace memory");
    assert_eq!(
        resumed_hash, base.final_hash,
        "resumed run must converge on the original, bit for bit"
    );
    let truth = StreamDecoder::new(base.final_trace.clone())
        .collect_all()
        .expect("clean trace decodes");
    let replayed = StreamDecoder::new(resumed_trace)
        .collect_all()
        .expect("replayed trace decodes");
    assert_eq!(truth, replayed, "decoded trace message streams identical");
    println!(
        "\nT9c: resume from cycle {} reproduced the run exactly \
         (state hash {:#018x}, {} trace messages identical)",
        base.mid_snapshot.cycle(),
        resumed_hash,
        truth.len()
    );

    // --- T9d: seek via checkpoints vs re-execution from reset. ----------
    // Best-of-3 on both paths: single-sample wall times are noisy on
    // loaded CI hosts and this is a ratio of two of them.
    let target = run_cycles * 3 / 4 + 1017;
    let mut seek_wall = f64::MAX;
    let mut seek_hash = 0;
    for _ in 0..3 {
        // Reposition past the target so the backward seek always takes
        // the checkpoint-restore path (forward seeks run incrementally).
        tt.run_to_cycle(run_cycles);
        let start = Instant::now();
        tt.seek(target).expect("target within recorded history");
        seek_wall = seek_wall.min(start.elapsed().as_secs_f64());
        assert_eq!(tt.cycle(), target);
        seek_hash = device_state_hash(tt.device());
    }

    let mut reset_wall = f64::MAX;
    for _ in 0..3 {
        let mut from_reset = gearbox_device();
        let mut rep = Replayer::new(&log);
        let start = Instant::now();
        mcds_replay::run_with_events(&mut from_reset, &mut rep, target);
        reset_wall = reset_wall.min(start.elapsed().as_secs_f64());
        assert_eq!(
            device_state_hash(&from_reset),
            seek_hash,
            "seek and from-reset replay must agree"
        );
    }
    let speedup = reset_wall / seek_wall.max(1e-9);
    print_table(
        &format!("T9d: seek to cycle {target}"),
        &["path", "wall", "speedup"],
        &[
            vec![
                "from reset".into(),
                format!("{:.1} ms", reset_wall * 1e3),
                "1.0x".into(),
            ],
            vec![
                "checkpoint + replay".into(),
                format!("{:.2} ms", seek_wall * 1e3),
                format!("{speedup:.1}x"),
            ],
        ],
    );
    assert!(
        speedup >= 5.0,
        "checkpointed seek must beat from-reset re-execution by ≥5x (got {speedup:.1}x)"
    );

    // --- T9e: reverse step lands on the exact prior instruction. ---------
    let r0 = tt.device().soc().core(CoreId(0)).retired();
    assert!(r0 >= 2, "enough history to step back twice");
    let pc1 = tt.reverse_step(CoreId(0)).expect("reverse step");
    assert_eq!(tt.device().soc().core(CoreId(0)).retired(), r0 - 1);
    assert_eq!(
        pc1,
        base.pcs[(r0 - 1) as usize],
        "reverse_step must land on the instruction that had just executed"
    );
    let pc2 = tt.reverse_step(CoreId(0)).expect("second reverse step");
    assert_eq!(tt.device().soc().core(CoreId(0)).retired(), r0 - 2);
    assert_eq!(pc2, base.pcs[(r0 - 2) as usize]);
    // Stepping forward again reproduces the state reverse_step left behind.
    tt.device_mut()
        .soc_mut()
        .core_mut(CoreId(0))
        .step_instructions(1);
    while !tt.device().soc().core(CoreId(0)).is_halted() {
        tt.device_mut().step();
    }
    assert_eq!(tt.device().soc().core(CoreId(0)).retired(), r0 - 1);
    assert_eq!(tt.device().soc().core(CoreId(0)).pc(), pc1);
    println!(
        "\nT9e: reverse_step exact — instruction {} at {pc1:#010x}, then {} at {pc2:#010x};\n\
         forward single-step returned to {pc1:#010x}. Time travel is bit-exact.",
        r0,
        r0 - 1
    );

    // --- Telemetry artifacts. -------------------------------------------
    // The attached registry saw every checkpoint the ring captured, and
    // each capture/restore recorded a cycle-stamped span.
    tt.device().publish_telemetry();
    let snap = tel.snapshot();
    let cps = snap
        .metrics
        .iter()
        .find(|m| m.name == "replay_checkpoints_total")
        .expect("checkpoint counter published");
    let MetricValue::Counter(cp_count) = cps.value else {
        panic!("counter expected");
    };
    assert!(
        cp_count >= checkpoints as u64,
        "every ring checkpoint counted ({cp_count} < {checkpoints})"
    );
    assert!(snap
        .metrics
        .iter()
        .any(|m| m.name == "replay_checkpoint_bytes_total"));
    let spans =
        |sub: Subsystem| snap.counter("telemetry_spans_total", &[("subsystem", sub.name())]);
    let snapshots = spans(Subsystem::Snapshot).expect("snapshot spans recorded");
    assert!(snapshots >= cp_count);
    assert!(
        spans(Subsystem::Restore).is_some_and(|n| n > 0),
        "seek restored through a checkpoint"
    );
    write_telemetry_artifacts(&args, "t9", &tel);
}
