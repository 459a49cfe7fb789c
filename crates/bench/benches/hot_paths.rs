//! Criterion micro-benchmarks for the hot paths of the MCDS/PSI
//! reproduction: trace encode/decode, the message sorter, the simulation
//! kernel with and without the MCDS attached, the assembler and host-side
//! flow reconstruction.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use mcds::observer::{CoreTraceConfig, DataTraceConfig, TraceQualifier};
use mcds::sorter::MessageSorter;
use mcds::{Mcds, McdsConfig};
use mcds_psi::device::{DeviceBuilder, DeviceVariant};
use mcds_soc::asm::assemble;
use mcds_soc::event::CoreId;
use mcds_soc::soc::SocBuilder;
use mcds_trace::{
    encode_all, reconstruct_flow, BranchBits, ProgramImage, StreamDecoder, TimedMessage,
    TraceMessage, TraceSource,
};
use mcds_workloads::{engine, race, FuelMap};

fn sample_messages(n: usize) -> Vec<TimedMessage> {
    let mut h = BranchBits::new();
    h.push(true);
    h.push(false);
    (0..n)
        .map(|i| {
            let source = TraceSource::Core(CoreId((i % 2) as u8));
            let message = match i % 4 {
                0 => TraceMessage::BranchHistory {
                    i_cnt: 40,
                    history: h,
                },
                1 => TraceMessage::DataWrite {
                    addr: 0xD000_0000 + (i as u32 % 64) * 4,
                    value: i as u32,
                    width: mcds_soc::MemWidth::Word,
                },
                2 => TraceMessage::DirectBranch { i_cnt: 7 },
                _ => TraceMessage::IndirectBranch {
                    i_cnt: 3,
                    history: BranchBits::new(),
                    target: 0x8000_0000 + (i as u32 % 128) * 4,
                },
            };
            TimedMessage {
                timestamp: i as u64 * 3,
                source,
                message,
            }
        })
        .collect()
}

fn bench_wire(c: &mut Criterion) {
    let msgs = sample_messages(10_000);
    let mut g = c.benchmark_group("wire");
    g.throughput(Throughput::Elements(msgs.len() as u64));
    g.bench_function("encode_10k", |b| b.iter(|| encode_all(&msgs)));
    let bytes = encode_all(&msgs);
    g.bench_function("decode_10k", |b| {
        b.iter(|| StreamDecoder::new(bytes.clone()).collect_all().unwrap())
    });
    g.finish();
}

fn bench_sorter(c: &mut Criterion) {
    let sources = vec![
        TraceSource::Core(CoreId(0)),
        TraceSource::Core(CoreId(1)),
        TraceSource::Bus,
    ];
    let msgs = sample_messages(4_096);
    let mut g = c.benchmark_group("sorter");
    g.throughput(Throughput::Elements(msgs.len() as u64));
    g.bench_function("push_drain_4k", |b| {
        b.iter_batched(
            || MessageSorter::new(&sources, 8_192, 16),
            |mut s| {
                for m in &msgs {
                    s.push(*m);
                }
                let mut out = Vec::with_capacity(msgs.len());
                s.drain_all(&mut out);
                out
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_sim_kernel(c: &mut Criterion) {
    let program = engine::program_with_map(None, &FuelMap::factory());
    let mut g = c.benchmark_group("sim_kernel");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("soc_step_10k_1core", |b| {
        b.iter_batched(
            || {
                let mut soc = SocBuilder::new().cores(1).build();
                soc.load_program(&program);
                soc.periph_mut().set_input(engine::RPM_PORT, 3000);
                soc
            },
            |mut soc| soc.run_cycles(10_000),
            BatchSize::SmallInput,
        )
    });
    // The execution kernel's two modes on the same engine workload: exact
    // per-cycle stepping, and quiescence skipping plus batched basic-block
    // execution. Both land on bit-identical state; these measure what the
    // kernel costs or buys.
    for (name, mode) in [
        ("soc_run_10k_per_cycle", mcds_soc::ExecMode::PerCycle),
        (
            "soc_run_10k_block_batched",
            mcds_soc::ExecMode::BlockBatched,
        ),
    ] {
        g.bench_function(name, |b| {
            b.iter_batched(
                || {
                    let mut soc = SocBuilder::new().cores(1).build();
                    soc.load_program(&program);
                    soc.periph_mut().set_input(engine::RPM_PORT, 3000);
                    soc.set_exec_mode(mode);
                    soc
                },
                |mut soc| soc.run_cycles(10_000),
                BatchSize::SmallInput,
            )
        });
    }
    let race_prog = race::program_buggy();
    g.bench_function("soc_step_10k_2core", |b| {
        b.iter_batched(
            || {
                let mut soc = SocBuilder::new().cores(2).build();
                soc.load_program(&race_prog);
                soc
            },
            |mut soc| soc.run_cycles(10_000),
            BatchSize::SmallInput,
        )
    });
    g.bench_function("device_step_10k_traced", |b| {
        b.iter_batched(
            || {
                let config = McdsConfig {
                    cores: vec![CoreTraceConfig {
                        program_trace: TraceQualifier::Always,
                        data_trace: DataTraceConfig {
                            qualifier: TraceQualifier::Always,
                            filter: None,
                        },
                        ..Default::default()
                    }],
                    fifo_depth: 4096,
                    sink_bandwidth: 8,
                    ..Default::default()
                };
                let mut dev = DeviceBuilder::new(DeviceVariant::EdSideBooster)
                    .cores(1)
                    .mcds(config)
                    .build();
                dev.soc_mut().load_program(&program);
                dev.soc_mut().periph_mut().set_input(engine::RPM_PORT, 3000);
                dev
            },
            |mut dev| dev.run_cycles(10_000),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_mcds_on_cycle(c: &mut Criterion) {
    // Feed the MCDS a pre-recorded busy cycle stream.
    let program = engine::program_with_map(None, &FuelMap::factory());
    let mut soc = SocBuilder::new().cores(1).build();
    soc.load_program(&program);
    soc.periph_mut().set_input(engine::RPM_PORT, 3000);
    let records: Vec<_> = (0..10_000).map(|_| soc.step()).collect();
    let config = McdsConfig {
        cores: vec![CoreTraceConfig {
            program_trace: TraceQualifier::Always,
            data_trace: DataTraceConfig {
                qualifier: TraceQualifier::Always,
                filter: None,
            },
            ..Default::default()
        }],
        fifo_depth: 1 << 20,
        sink_bandwidth: 16,
        ..Default::default()
    };
    let mut g = c.benchmark_group("mcds");
    g.throughput(Throughput::Elements(records.len() as u64));
    g.bench_function("on_cycle_10k", |b| {
        b.iter_batched(
            || Mcds::new(config.clone()),
            |mut m| {
                for r in &records {
                    m.on_cycle(r.cycle, &r.events);
                }
                m.take_messages()
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_assembler_and_reconstruct(c: &mut Criterion) {
    let source = "
        .org 0x80000000
        start:
            li r1, 100
        loop:
            addi r2, r2, 1
            addi r1, r1, -1
            bne r1, r0, loop
            halt
        ";
    c.bench_function("assemble_small_program", |b| {
        b.iter(|| assemble(source).unwrap())
    });

    // Full trace → flow reconstruction of a bounded engine run.
    let program = engine::program_with_map(Some(200), &FuelMap::factory());
    let config = McdsConfig {
        cores: vec![CoreTraceConfig {
            program_trace: TraceQualifier::Always,
            ..Default::default()
        }],
        fifo_depth: 1 << 20,
        sink_bandwidth: 16,
        ..Default::default()
    };
    let mut soc = SocBuilder::new().cores(1).build();
    soc.load_program(&program);
    soc.periph_mut().set_input(engine::RPM_PORT, 3000);
    let mut mcds = Mcds::new(config);
    for _ in 0..200_000 {
        let (cycle, events) = soc.step_events();
        mcds.on_cycle(cycle, events);
        if soc.core(CoreId(0)).is_halted() {
            break;
        }
    }
    mcds.flush(soc.cycle());
    let messages = mcds.take_messages();
    let image = ProgramImage::from(&program);
    c.bench_function("reconstruct_flow_engine_200_iters", |b| {
        b.iter(|| reconstruct_flow(&image, &messages).unwrap())
    });
}

fn bench_xcp_daq(c: &mut Criterion) {
    use mcds_psi::interface::InterfaceKind;
    use mcds_xcp::XcpMaster;

    // DAQ throughput: samples collected per simulated millisecond while
    // the engine runs (the unobtrusive-measurement hot path).
    c.bench_function("xcp_daq_1ms_raster_10ms_window", |b| {
        b.iter_batched(
            || {
                let mut dev = DeviceBuilder::new(DeviceVariant::EdSideBooster)
                    .cores(1)
                    .build();
                dev.soc_mut()
                    .load_program(&engine::program_with_map(None, &FuelMap::factory()));
                dev.soc_mut().periph_mut().set_input(engine::RPM_PORT, 3000);
                let mut master = XcpMaster::new(InterfaceKind::Usb11);
                master.connect(&mut dev).unwrap();
                master.slave_mut().set_event_period(0, 15_000); // 100 µs raster
                master
                    .start_measurement(
                        &mut dev,
                        &[(engine::ITER_COUNT_ADDR, 4), (engine::TORQUE_REQ_ADDR, 4)],
                        0,
                        1,
                    )
                    .unwrap();
                (dev, master)
            },
            |(mut dev, mut master)| {
                master.slave_mut().run(&mut dev, 150_000); // 1 ms of engine time
                master.slave_mut().drain_dtos(usize::MAX)
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    benches,
    bench_wire,
    bench_sorter,
    bench_sim_kernel,
    bench_mcds_on_cycle,
    bench_assembler_and_reconstruct,
    bench_xcp_daq
);
criterion_main!(benches);
