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
//! * **T9b** — snapshot size: bytes per component of the mid-run snapshot
//!   plus its JSON size, with a JSON round-trip hash check;
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

use mcds_bench::{interleaved, print_table, tracing_config, write_telemetry_artifacts, BenchArgs};
use mcds_host::TimeTravel;
use mcds_psi::device::{Device, DeviceBuilder, DeviceVariant};
use mcds_replay::{
    device_state_hash, run_with_events_into, trace_bytes, Checkpoint, InputLog, Replayer,
    SocSnapshot,
};
use mcds_soc::cpu::CoreConfig;
use mcds_soc::event::{CoreId, SocEvent};
use mcds_soc::CycleSink;
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

/// Core 0's retirement pcs, in order. It does not want every cycle, so
/// the replayed run batches like the checkpointed one: every retire still
/// reaches it at its cycle.
#[derive(Default)]
struct RetirePcs(Vec<u32>);

impl CycleSink for RetirePcs {
    fn observe(&mut self, _cycle: u64, events: &[SocEvent]) {
        for e in events {
            if let SocEvent::Retire(x) = e {
                if x.core == CoreId(0) {
                    self.0.push(x.pc);
                }
            }
        }
    }

    fn wants_cycles(&self) -> bool {
        false
    }
}

/// The plain recorded run: no checkpoints, collecting the retirement
/// stream, a mid-run snapshot, and the final state hash + trace stream.
fn baseline_run(log: &InputLog, run_cycles: u64) -> BaselineRun {
    let mut dev = gearbox_device();
    let mut rep = Replayer::new(log);
    let mid = run_cycles / 2;
    let mut pcs = RetirePcs::default();
    let start = Instant::now();
    run_with_events_into(&mut dev, &mut rep, mid, None, &mut pcs);
    assert_eq!(dev.soc().cycle(), mid, "mid-run snapshot on its cycle");
    let mid_snapshot = SocSnapshot::capture(&dev);
    run_with_events_into(&mut dev, &mut rep, run_cycles, None, &mut pcs);
    let wall = start.elapsed().as_secs_f64();
    BaselineRun {
        wall,
        pcs: pcs.0,
        mid_snapshot,
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
    // One checkpoint's own cost, best of 5 captures of the finished run
    // (the device state is saved once; the checkpoint keeps it both as
    // the snapshot's JSON component and parsed).
    let mut capture_wall = f64::MAX;
    let mut state_bytes = 0;
    for _ in 0..5 {
        let start = Instant::now();
        let cp = Checkpoint::capture(tt.device());
        capture_wall = capture_wall.min(start.elapsed().as_secs_f64());
        state_bytes = cp.snapshot().components()[0].stored_bytes();
    }
    println!(
        "checkpoint capture at cycle {}: {:.2} ms (best of 5), device-state JSON {} bytes",
        tt.device().soc().cycle(),
        capture_wall * 1e3,
        state_bytes
    );

    // --- T9b: snapshot size, per component and as JSON. -----------------
    let snap = &base.mid_snapshot;
    let rows: Vec<Vec<String>> = snap
        .components()
        .iter()
        .map(|c| {
            let (size, pages) = c
                .memory_pages()
                .map_or(("-".to_string(), "-".to_string()), |(size, pages)| {
                    (size.to_string(), pages.to_string())
                });
            vec![
                c.name().to_string(),
                size,
                pages,
                c.stored_bytes().to_string(),
                format!("{:#018x}", c.hash()),
            ]
        })
        .collect();
    print_table(
        &format!("T9b: snapshot size at cycle {}", snap.cycle()),
        &[
            "component",
            "image bytes",
            "pages listed",
            "stored bytes",
            "content hash",
        ],
        &rows,
    );
    let json = serde_json::to_string(snap).expect("snapshot serializes");
    println!(
        "total: {} bytes accounted (size_bytes), {} bytes as JSON",
        snap.size_bytes(),
        json.len()
    );
    assert!(
        json.len() <= 2 * snap.size_bytes() + 64 * 1024,
        "component bytes are hex, two characters per byte: the JSON must stay \
         within 2x the accounted size"
    );
    let parsed: SocSnapshot = serde_json::from_str(&json).expect("snapshot parses");
    assert_eq!(
        parsed.state_hash(),
        snap.state_hash(),
        "the JSON round trip must preserve the snapshot hash"
    );

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
    // Best-of-3 on both paths, alternating within each repeat: single
    // wall times are noisy on loaded CI hosts and this is a ratio of two.
    let target = run_cycles * 3 / 4 + 1017;
    let mut want = None;
    let (best, _) = interleaved(3, [false, true], |from_reset| {
        let (wall, hash) = if from_reset {
            let mut dev = gearbox_device();
            let mut rep = Replayer::new(&log);
            let start = Instant::now();
            mcds_replay::run_with_events(&mut dev, &mut rep, target);
            (start.elapsed().as_secs_f64(), device_state_hash(&dev))
        } else {
            // Reposition past the target so the backward seek always
            // takes the checkpoint-restore path (forward seeks run
            // incrementally).
            tt.run_to_cycle(run_cycles);
            let start = Instant::now();
            tt.seek(target).expect("target within recorded history");
            let wall = start.elapsed().as_secs_f64();
            assert_eq!(tt.cycle(), target);
            (wall, device_state_hash(tt.device()))
        };
        assert_eq!(
            *want.get_or_insert(hash),
            hash,
            "seek and from-reset replay must agree"
        );
        (wall, ())
    });
    let (seek_wall, reset_wall) = (best[0].0, best[1].0);
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
