//! Stream/batch equivalence properties for the push-based observation
//! pipeline: stepping a device through `step_into(Collect)` must be
//! bit-identical to the legacy `step()` loop — same event stream, same
//! encoded and decoded trace stream, same device state hash and same
//! snapshot hash — and the `run_cycles` fast-forward must land on exactly
//! the state the per-cycle path lands on.

use mcds::observer::{CoreTraceConfig, DataTraceConfig, TraceQualifier};
use mcds::{
    CounterConfig, CounterMode, CrossTrigger, McdsConfig, ProgramComparator, SignalRef,
    TriggerAction,
};
use mcds_farm::device_spec;
use mcds_psi::device::{Device, DeviceBuilder, DeviceVariant};
use mcds_replay::{device_state_hash, SocSnapshot};
use mcds_soc::asm::{assemble, Program};
use mcds_soc::cpu::CoreConfig;
use mcds_soc::event::{CoreId, CycleRecord};
use mcds_soc::sink::{Collect, NullSink};
use mcds_soc::soc::{memmap, SocBuilder};
use mcds_trace::StreamDecoder;
use mcds_workloads::Workload;
use proptest::prelude::*;

/// A loop with a data-dependent inner conditional — the branch pattern
/// varies with `iterations` and `stride`, exercising retires, taken and
/// not-taken branches, and bus traffic.
fn loop_source(iterations: u32, stride: u32) -> String {
    format!(
        "
        .org 0x80000000
        start:
            li r1, {iterations}
            li r3, 0
        loop:
            addi r3, r3, {stride}
            andi r4, r3, 4
            beq r4, r0, even
            addi r5, r5, 1
        even:
            addi r1, r1, -1
            bne r1, r0, loop
            halt
        "
    )
}

/// A tracing development device running the loop program.
fn traced_device(src: &str, history_mode: bool, sync_period: u32) -> Device {
    let mut dev = DeviceBuilder::new(DeviceVariant::EdSideBooster)
        .core(CoreConfig {
            reset_pc: 0x8000_0000,
            clock_div: 1,
            ..Default::default()
        })
        .mcds(McdsConfig {
            cores: vec![CoreTraceConfig {
                program_trace: TraceQualifier::Always,
                ..Default::default()
            }],
            history_mode,
            sync_period,
            fifo_depth: 1 << 12,
            sink_bandwidth: 16,
            ..Default::default()
        })
        .build();
    dev.soc_mut()
        .load_program(&assemble(src).expect("assembles"));
    dev
}

/// Encoded trace bytes currently stored in the device's trace memory.
fn sink_bytes(dev: &Device) -> Vec<u8> {
    let emem = dev
        .soc()
        .mapper()
        .emem()
        .expect("development device has emulation RAM");
    dev.sink().read_back(emem)
}

proptest! {
    // Each case runs two full device simulations.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole equivalence: a traced run stepped through
    /// `step_into(Collect)` produces a bit-identical event stream, the
    /// same encoded (and therefore decoded) trace stream, the same
    /// device state hash and the same snapshot hash as the legacy
    /// `step()` loop.
    #[test]
    fn streamed_device_run_is_bit_identical_to_batch(
        iterations in 1u32..120,
        stride in 1u32..5,
        history_mode in any::<bool>(),
        sync_period in 1u32..64,
    ) {
        let src = loop_source(iterations, stride);
        let mut batch = traced_device(&src, history_mode, sync_period);
        let mut streamed = traced_device(&src, history_mode, sync_period);

        // Legacy path: one owned record per cycle, until halt.
        let mut batch_records: Vec<CycleRecord> = Vec::new();
        for _ in 0..2_000_000u64 {
            batch_records.push(batch.step());
            if batch.soc().core(CoreId(0)).is_halted() {
                break;
            }
        }
        prop_assert!(batch.soc().core(CoreId(0)).is_halted());

        // Streamed path: the same number of cycles into a Collect sink.
        let mut collect = Collect::new();
        for _ in 0..batch_records.len() {
            streamed.step_into(&mut collect);
        }

        // Bit-identical event stream.
        prop_assert_eq!(&batch_records, &collect.records);
        // Identical encoded trace stream, and it decodes identically.
        let batch_bytes = sink_bytes(&batch);
        let streamed_bytes = sink_bytes(&streamed);
        prop_assert_eq!(&batch_bytes, &streamed_bytes);
        let batch_msgs = StreamDecoder::new(batch_bytes).collect_all().expect("decodes");
        let streamed_msgs = StreamDecoder::new(streamed_bytes).collect_all().expect("decodes");
        prop_assert_eq!(batch_msgs, streamed_msgs);
        // Identical device state and snapshot hashes.
        prop_assert_eq!(device_state_hash(&batch), device_state_hash(&streamed));
        prop_assert_eq!(
            SocSnapshot::capture(&batch).state_hash(),
            SocSnapshot::capture(&streamed).state_hash()
        );
    }

    /// The same equivalence at the bare-SoC layer, independent of any
    /// MCDS or device wrapping.
    #[test]
    fn streamed_soc_run_is_bit_identical_to_batch(
        iterations in 1u32..120,
        stride in 1u32..5,
    ) {
        let program = assemble(&loop_source(iterations, stride)).expect("assembles");
        let mut batch = SocBuilder::new().cores(1).build();
        let mut streamed = SocBuilder::new().cores(1).build();
        batch.load_program(&program);
        streamed.load_program(&program);

        let mut batch_records: Vec<CycleRecord> = Vec::new();
        for _ in 0..2_000_000u64 {
            batch_records.push(batch.step());
            if batch.core(CoreId(0)).is_halted() {
                break;
            }
        }
        prop_assert!(batch.core(CoreId(0)).is_halted());

        let mut collect = Collect::new();
        for _ in 0..batch_records.len() {
            streamed.step_into(&mut collect);
        }

        prop_assert_eq!(&batch_records, &collect.records);
        prop_assert_eq!(batch.cycle(), streamed.cycle());
        for r in 0..16 {
            prop_assert_eq!(
                batch.core(CoreId(0)).reg(mcds_soc::isa::Reg::new(r)),
                streamed.core(CoreId(0)).reg(mcds_soc::isa::Reg::new(r))
            );
        }
    }

    /// The `run_cycles` fast-forward (which may skip the per-cycle
    /// device-layer ceremony when the MCDS is provably idle) lands on
    /// exactly the state of the per-cycle streamed path.
    #[test]
    fn run_cycles_fast_path_matches_per_cycle_stepping(
        iterations in 1u32..120,
        stride in 1u32..5,
        cycles in 1u64..4000,
    ) {
        let src = loop_source(iterations, stride);
        let build = || {
            let mut dev = DeviceBuilder::new(DeviceVariant::Production)
                .core(CoreConfig {
                    reset_pc: 0x8000_0000,
                    clock_div: 1,
                    ..Default::default()
                })
                .build();
            dev.soc_mut()
                .load_program(&assemble(&src).expect("assembles"));
            dev
        };
        let mut fast = build();
        let mut slow = build();
        fast.run_cycles(cycles);
        for _ in 0..cycles {
            slow.step_into(&mut NullSink);
        }
        prop_assert_eq!(fast.soc().cycle(), slow.soc().cycle());
        prop_assert_eq!(device_state_hash(&fast), device_state_hash(&slow));
    }
}

/// A workload with phases the kernel treats differently: a straight-line
/// hot loop (block-batchable) with multi-cycle `mul`/`div`, timer IRQs
/// with an ISR whose ACK write ends a block, an `OUT` port write (passive:
/// batched), and a final halt (quiescent tail, skippable). On two cores
/// both run it, contending for the bus and the shared SRAM words.
fn kernel_source(iterations: u32, timer_period: u32) -> String {
    format!(
        "
        .equ PERIOD_REG, 0xF0000008
        .equ ACK_REG,    0xF000000C
        .equ OUT0,       0xF0000100
        .org 0x80000000
        start:
            li r1, {timer_period}
            li r2, PERIOD_REG
            sw r1, 0(r2)
            li r1, 1
            mtsr irqen, r1
            li r1, {iterations}
            li r6, 0xD0000000
        loop:
            mul r3, r1, r1
            div r9, r3, r1
            sw  r3, 0(r6)
            lw  r4, 0(r6)
            xor r5, r5, r4
            addi r1, r1, -1
            bne r1, r0, loop
            li r2, OUT0
            sw r5, 0(r2)
            halt

        .org 0x80000400
        isr:
            li r8, 0xD0000100
            lw r7, 0(r8)
            addi r7, r7, 1
            sw r7, 0(r8)
            li r8, ACK_REG
            sw r0, 0(r8)
            eret
        "
    )
}

/// An untraced production device running the kernel workload on `cores`
/// undivided cores.
fn kernel_device(src: &str, cores: usize) -> Device {
    let mut builder = DeviceBuilder::new(DeviceVariant::Production);
    for _ in 0..cores {
        builder = builder.core(CoreConfig {
            reset_pc: 0x8000_0000,
            clock_div: 1,
            ..Default::default()
        });
    }
    let mut dev = builder.build();
    dev.soc_mut()
        .load_program(&assemble(src).expect("assembles"));
    dev
}

/// True while `dev` sits mid-transaction: a bus request queued or in
/// flight and, with `cores > 1`, also a core inside a multi-cycle execute
/// (`Exec` with `cycles_left > 1`). Read from the state's `Debug` form,
/// which is the only view of the pipeline outside the SoC crate.
fn mid_transaction(dev: &Device, cores: usize) -> bool {
    let state = format!("{:?}", dev.soc().save_state());
    let on_bus = state.contains("Some(BusRequest") || state.contains("active: Some(");
    let long_exec = state.split("phase: Exec {").skip(1).any(|rest| {
        let left = rest.split("cycles_left: ").nth(1).unwrap_or("");
        let digits: String = left.chars().take_while(char::is_ascii_digit).collect();
        digits.parse::<u32>().is_ok_and(|n| n > 1)
    });
    on_bus && (cores == 1 || long_exec)
}

/// Drives `dev` through the shared schedule: uneven run quanta with
/// trigger-level pokes and debug-master reads interleaved at fixed slice
/// indices — every mode sees the identical stimulus at identical cycles.
fn drive_schedule(
    dev: &mut Device,
    quanta: &[u64],
    trig_pokes: &[(usize, u32)],
    debug_reads: &[usize],
) {
    for (i, &q) in quanta.iter().enumerate() {
        for &(slice, level) in trig_pokes {
            if slice == i {
                dev.soc_mut().periph_mut().set_trigger_in(level);
            }
        }
        if debug_reads.contains(&i) {
            let _ = dev
                .soc_mut()
                .debug_read(0xD000_0000, mcds_soc::isa::MemWidth::Word);
        }
        dev.run_cycles(q);
    }
}

/// The start of the trace memory of a development device built with the
/// default trace segments (6 and 7).
const TRACE_BASE: u32 = memmap::EMEM_BASE + 6 * 0x1_0000;

/// A loop with a data-dependent branch, like [`loop_source`], that also
/// loads a word each pass and stores the running XOR to a per-core SRAM
/// word. The load reads SRAM, or with `reads_trace` the device's own trace
/// memory, which the MCDS fills while the loop runs.
fn observed_source(iterations: u32, stride: u32, reads_trace: bool) -> String {
    let base = if reads_trace {
        TRACE_BASE
    } else {
        memmap::SRAM_BASE
    };
    format!(
        "
        .org 0x80000000
        start:
            li r1, {iterations}
            li r3, 0
            li r8, {base}
            mfsr r10, coreid
            slli r10, r10, 2
            li r11, 0xD0000100
            add r10, r10, r11
        loop:
            addi r3, r3, {stride}
            andi r4, r3, 4
            beq r4, r0, even
        odd:
            addi r5, r5, 1
        even:
            andi r9, r3, 60
            add r9, r9, r8
            lw r7, 0(r9)
            xor r5, r5, r7
            sw r5, 0(r10)
            addi r1, r1, -1
            bne r1, r0, loop
            halt
        "
    )
}

/// Program trace on every core, always on or (with `window`) in a window
/// a comparator on `odd` opens and one on `loop` closes, plus data trace
/// in the same qualifier when `data_trace`.
fn observed_config(program: &Program, cores: usize, window: bool, data_trace: bool) -> McdsConfig {
    let at = |label: &str| ProgramComparator::at(program.symbol(label).expect("label"));
    let core = |c: u8| {
        let qualifier = if window {
            TraceQualifier::Window {
                start: SignalRef::ProgComp {
                    core: CoreId(c),
                    idx: 0,
                },
                stop: SignalRef::ProgComp {
                    core: CoreId(c),
                    idx: 1,
                },
            }
        } else {
            TraceQualifier::Always
        };
        CoreTraceConfig {
            program_comparators: vec![at("odd"), at("loop")],
            program_trace: qualifier.clone(),
            data_trace: DataTraceConfig {
                qualifier: if data_trace {
                    qualifier
                } else {
                    TraceQualifier::Off
                },
                filter: None,
            },
            ..Default::default()
        }
    };
    McdsConfig {
        cores: (0..cores as u8).map(core).collect(),
        fifo_depth: 1 << 12,
        sink_bandwidth: 16,
        ..Default::default()
    }
}

/// A development device with `cores` undivided cores running `program`
/// under `config`.
fn observed_device(program: &Program, cores: usize, config: McdsConfig) -> Device {
    let mut builder = DeviceBuilder::new(DeviceVariant::EdSideBooster).mcds(config);
    for _ in 0..cores {
        builder = builder.core(CoreConfig {
            reset_pc: 0x8000_0000,
            clock_div: 1,
            ..Default::default()
        });
    }
    let mut dev = builder.build();
    dev.soc_mut().load_program(program);
    dev
}

/// An MCDS with a counter or a cross-trigger line is not observe-only: a
/// traced run of it steps every cycle in both modes, with the same trace
/// and state.
#[test]
fn counters_and_cross_triggers_keep_traced_runs_stepping() {
    let program = assemble(&observed_source(60, 3, false)).expect("assembles");
    let odd = SignalRef::ProgComp {
        core: CoreId(0),
        idx: 0,
    };
    let mut with_counter = observed_config(&program, 2, false, true);
    with_counter.counters.push(CounterConfig {
        increment_on: odd,
        threshold: 4,
        reset_on: None,
        mode: CounterMode::Repeat,
    });
    let mut with_line = observed_config(&program, 2, false, true);
    with_line.cross_triggers.push(CrossTrigger::on_any(
        vec![odd],
        TriggerAction::TriggerOutPin(0),
    ));
    for config in [with_counter, with_line] {
        let run = |mode: mcds_soc::ExecMode| {
            let mut dev = observed_device(&program, 2, config.clone());
            dev.set_exec_mode(mode);
            dev.run_cycles(3_000);
            let stats = *dev.exec_stats();
            assert_eq!(stats.stepped_cycles, dev.soc().cycle(), "{stats:?}");
            (
                sink_bytes(&dev),
                dev.trigger_out_log().to_vec(),
                device_state_hash(&dev),
            )
        };
        assert_eq!(
            run(mcds_soc::ExecMode::PerCycle),
            run(mcds_soc::ExecMode::BlockBatched)
        );
    }
}

/// Trace stores go to the trace segments through a narrow write path
/// that leaves the decode cache alone (no overlay maps code there), so a
/// traced batched catalog run decodes each instruction word about once:
/// its decode misses stay below the program's size in words, however many
/// stores the run makes. The run comes in short quanta, as debugger runs
/// do, and each quantum ends with a store.
#[test]
fn trace_stores_keep_the_decode_cache() {
    for w in [
        Workload::Engine,
        Workload::Gearbox,
        Workload::EngineGearbox,
        Workload::EngineGearboxVehicle,
    ] {
        let program = w.program();
        let mut dev = device_spec(w, true).build();
        dev.soc_mut().load_program(&program);
        for _ in 0..300 {
            dev.run_cycles(1_000);
        }
        let stats = *dev.exec_stats();
        assert!(
            stats.block_cycles > stats.stepped_cycles,
            "{}: {stats:?}",
            w.name()
        );
        assert!(
            dev.sink().message_count() > 100,
            "{}: trace stored",
            w.name()
        );
        let words = program.byte_len() as u64 / 4;
        assert!(
            stats.decode_misses <= words,
            "{}: {} decode misses for {words} program words: {stats:?}",
            w.name(),
            stats.decode_misses
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The execution-kernel equivalence: per-cycle and block-batched
    /// runs of the same workload under the same quantum slicing and
    /// stimulus schedule land on the same cycle with bit-identical device
    /// state and snapshot hashes — and in both, the kernel counters
    /// account every advanced cycle exactly once.
    #[test]
    fn execution_kernel_modes_are_bit_identical(
        iterations in 1u32..200,
        timer_sel in 0usize..4,
        quanta in proptest::collection::vec(1u64..800, 1..10),
        trig_pokes in proptest::collection::vec((0usize..10, 0u32..4), 0..4),
        debug_reads in proptest::collection::vec(0usize..10, 0..3),
        cores in 1usize..=2,
    ) {
        let timer_period = [0u32, 150, 700, 2500][timer_sel];
        let src = kernel_source(iterations, timer_period);
        let run = |mode: mcds_soc::ExecMode| {
            let mut dev = kernel_device(&src, cores);
            dev.set_exec_mode(mode);
            drive_schedule(&mut dev, &quanta, &trig_pokes, &debug_reads);
            (
                dev.soc().cycle(),
                dev.exec_stats().total_cycles(),
                device_state_hash(&dev),
                SocSnapshot::capture(&dev).state_hash(),
            )
        };
        let per_cycle = run(mcds_soc::ExecMode::PerCycle);
        let block = run(mcds_soc::ExecMode::BlockBatched);
        prop_assert_eq!(per_cycle.0, per_cycle.1);
        prop_assert_eq!(per_cycle, block);
    }

    /// The same equivalence for a *traced* device. Its MCDS only
    /// observes, so the batched run hands it events instead of cycles:
    /// program trace always on or in a comparator window, optional data
    /// trace, history or one-message-per-branch program trace with a short
    /// or the default sync period, sink bandwidths and drain periods that
    /// leave a backlog across quiet cycles, one or two cores, and a
    /// program that may load from its
    /// own trace memory (which must end the block, so the load sees the
    /// stored trace). Same sink bytes, same decoded trace and same hashes
    /// as per-cycle stepping, and the batched run really batches.
    #[test]
    fn execution_kernel_modes_preserve_traced_runs(
        iterations in 1u32..80,
        stride in 1u32..5,
        quanta in proptest::collection::vec(1u64..500, 1..8),
        cores in 1usize..=2,
        sink_bandwidth in 1usize..=8,
        sink_drain_period in 1u64..=6,
        history_mode in any::<bool>(),
        short_sync in any::<bool>(),
        window in any::<bool>(),
        data_trace in any::<bool>(),
        reads_trace in any::<bool>(),
    ) {
        let program = assemble(&observed_source(iterations, stride, reads_trace))
            .expect("assembles");
        let mut config = observed_config(&program, cores, window, data_trace);
        config.sink_bandwidth = sink_bandwidth;
        config.sink_drain_period = sink_drain_period;
        config.history_mode = history_mode;
        config.sync_period = if short_sync { 32 } else { 256 };
        let run = |mode: mcds_soc::ExecMode| {
            let mut dev = observed_device(&program, cores, config.clone());
            dev.set_exec_mode(mode);
            for &q in &quanta {
                dev.run_cycles(q);
            }
            let stats = *dev.exec_stats();
            assert_eq!(stats.total_cycles(), dev.soc().cycle(), "{stats:?}");
            if mode == mcds_soc::ExecMode::BlockBatched && dev.soc().cycle() >= 200 {
                assert!(stats.block_cycles > 0, "the traced run batches: {stats:?}");
            }
            let bytes = sink_bytes(&dev);
            let msgs = StreamDecoder::new(bytes.clone())
                .collect_all()
                .expect("decodes");
            (bytes, msgs, device_state_hash(&dev))
        };
        let per_cycle = run(mcds_soc::ExecMode::PerCycle);
        let block = run(mcds_soc::ExecMode::BlockBatched);
        prop_assert_eq!(&per_cycle, &block);
    }

    /// Snapshot round-trips cross execution modes: state captured from a
    /// batched run restores into a per-cycle continuation (and vice
    /// versa) with bit-identical results — the decode cache is derived
    /// state, invisible to `SocSnapshot`. Each run is captured twice: at
    /// the arbitrary cycle `split`, and at the first mid-transaction cycle
    /// from `split` on, so a batched run must leave queued/in-flight
    /// requests and execute phases exactly as stepping.
    #[test]
    fn snapshots_cross_execution_modes(
        iterations in 1u32..150,
        timer_sel in 0usize..3,
        split in 1u64..3000,
        tail in 1u64..3000,
        cores in 1usize..=2,
    ) {
        let timer_period = [0u32, 400, 1800][timer_sel];
        let src = kernel_source(iterations, timer_period);
        // Reference: one per-cycle run all the way through, noting the
        // mid-transaction capture cycle on the way.
        let mut reference = kernel_device(&src, cores);
        reference.set_exec_mode(mcds_soc::ExecMode::PerCycle);
        reference.run_cycles(split);
        let mut mid_at = split;
        while !mid_transaction(&reference, cores) && mid_at < split + 400 {
            reference.run_cycles(1);
            mid_at += 1;
        }
        let mid = mid_transaction(&reference, cores);
        prop_assert!(mid || reference.soc().cores().all(|c| c.is_halted()));
        let end = mid_at + tail;
        reference.run_cycles(tail);
        prop_assert_eq!(reference.exec_stats().total_cycles(), end);
        let want = device_state_hash(&reference);

        // Batched first half → snapshot → restore → per-cycle second
        // half, and the reverse, from either capture cycle.
        for at in [split, mid_at] {
            for (first, second) in [
                (mcds_soc::ExecMode::BlockBatched, mcds_soc::ExecMode::PerCycle),
                (mcds_soc::ExecMode::PerCycle, mcds_soc::ExecMode::BlockBatched),
            ] {
                let mut warm = kernel_device(&src, cores);
                warm.set_exec_mode(first);
                warm.run_cycles(at);
                if at == mid_at {
                    prop_assert_eq!(mid_transaction(&warm, cores), mid);
                }
                let snap = SocSnapshot::capture(&warm);
                let mut cold = kernel_device(&src, cores);
                snap.restore_into(&mut cold);
                cold.set_exec_mode(second);
                cold.run_cycles(end - at);
                prop_assert_eq!(cold.exec_stats().total_cycles(), end - at);
                prop_assert_eq!(device_state_hash(&cold), want);
            }
        }
    }
}
