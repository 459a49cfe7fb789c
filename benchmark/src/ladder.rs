//! The traced per-layer ledger. The same seeded inputs go down the layer
//! ladder one layer at a time — bare `Soc` → PSI `Device` → host
//! `Session` → farm `Scheduler` → farm over TCP — with a span around
//! every call into a layer, followed by the fixed costs around execution
//! (debug reads, trace pulls, state hashing, snapshots, the registry's
//! create/evict/revive/destroy, the wire) and the vnet fabric. Every
//! layer of the execution ladder must end on the same state hash.

use crate::gen::{
    ladder_runs, DebugOp, DebugPlan, FleetPlan, CATALOG, DEBUG_RECYCLE_OPS, FLEET_ECUS,
};
use crate::rig::{
    attach_session, farm_config, is_bus_starved, ms_since, remove_evict_dir, send_op, spawn_server,
};
use crate::span::Tracer;
use crate::stats::median;
use mcds_farm::client::require_str;
use mcds_farm::{Farm, FarmClient, FarmConfig, Scheduler};
use mcds_host::SessionSnapshot;
use mcds_replay::{device_state_hash, SocSnapshot};
use mcds_soc::ExecStats;
use mcds_telemetry::Telemetry;
use mcds_workloads::Workload;
use std::sync::Arc;
use std::time::Instant;

/// Repetitions of each fixed-cost measurement (hash, snapshot, registry
/// op, wire op); medians are reported.
const REPS: usize = 3;

/// In-process debug ops per catalog kind in the host rung.
const DEBUG_OPS_PER_KIND: usize = 48;

/// Vehicle cycles the vnet rung runs, in lockstep and per ECU alone.
const VNET_CYCLES: u64 = 500_000;

/// Cycles a session runs before the fixed-cost rungs measure it.
const PRE_RUN: u64 = 100_000;

/// One per-layer metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Collects metrics in order.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Everything recorded.
    pub metrics: Vec<Metric>,
}

impl Ledger {
    /// Records one metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// The wall time and cycle count one execution layer accumulated.
#[derive(Debug, Default, Clone, Copy)]
struct Rung {
    ns: u64,
    cycles: u64,
    stats: ExecStats,
}

impl Rung {
    fn mcps(&self) -> f64 {
        self.cycles as f64 / (self.ns as f64 / 1e9) / 1e6
    }

    fn add(&mut self, t: Instant, cycles: u64, before: ExecStats, after: ExecStats) {
        self.ns += t.elapsed().as_nanos() as u64;
        self.cycles += cycles;
        self.stats.stepped_cycles += after.stepped_cycles - before.stepped_cycles;
        self.stats.skipped_cycles += after.skipped_cycles - before.skipped_cycles;
        self.stats.block_cycles += after.block_cycles - before.block_cycles;
    }

    /// `part` as a share of the cycles this layer ran.
    fn frac(&self, part: u64) -> f64 {
        part as f64 / self.cycles.max(1) as f64
    }
}

/// The farm's kernel accounting in [`ExecStats`] form.
fn farm_exec_stats(farm: &Farm) -> ExecStats {
    let s = farm.stats();
    ExecStats {
        skipped_cycles: s.cycles_skipped_total,
        block_cycles: s.cycles_batched_total,
        stepped_cycles: s.cycles_total - s.cycles_skipped_total - s.cycles_batched_total,
        ..Default::default()
    }
}

/// Walks the whole ladder under `seed`, spans to `tracer`.
///
/// # Errors
///
/// A state-hash disagreement between layers, or a failed reference op.
pub fn run(seed: u64, tracer: &Tracer) -> Result<Ledger, String> {
    let mut ledger = Ledger::default();
    execution(seed, tracer, &mut ledger)?;
    aged(tracer, &mut ledger);
    debug_costs(seed, tracer, &mut ledger);
    replay_costs(seed, tracer, &mut ledger)?;
    registry_costs(seed, tracer, &mut ledger)?;
    wire_costs(tracer, &mut ledger)?;
    vnet(seed, tracer, &mut ledger);
    Ok(ledger)
}

fn execution(seed: u64, tracer: &Tracer, ledger: &mut Ledger) -> Result<(), String> {
    let runs = ladder_runs(seed);
    let quantum = FarmConfig::default().quantum;
    let mut rungs = [Rung::default(); 5];

    let farm = Arc::new(Farm::new(farm_config("ladder-sched"), Telemetry::new()));
    let sched = Scheduler::spawn(Arc::clone(&farm));
    let server = spawn_server("ladder-server");
    let mut client = FarmClient::connect(server.local_addr()).map_err(|e| e.to_string())?;

    for &(kind, budget) in &runs {
        let op = tracer.new_op();
        let mut h = [0u64; 5];

        let mut s = attach_session(kind, false);
        let dev = s.debugger_mut().device_mut();
        let before = *dev.soc().exec_stats();
        let t = Instant::now();
        tracer.leaf(op, None, "soc", "Soc::run_cycles", 0, || {
            dev.soc_mut().run_cycles(budget)
        });
        rungs[0].add(t, budget, before, *dev.soc().exec_stats());
        h[0] = s.state_hash();

        let mut s = attach_session(kind, false);
        let dev = s.debugger_mut().device_mut();
        let before = *dev.exec_stats();
        let t = Instant::now();
        tracer.leaf(op, None, "psi", "Device::run_cycles", 0, || {
            dev.run_cycles(budget)
        });
        rungs[1].add(t, budget, before, *dev.exec_stats());
        h[1] = s.state_hash();

        let mut s = attach_session(kind, false);
        let before = *s.exec_stats();
        let t = Instant::now();
        let mut left = budget;
        while left > 0 {
            let slice = left.min(quantum);
            tracer.leaf(op, None, "host", "Session::run", 0, || s.run(slice));
            left -= slice;
        }
        rungs[2].add(t, budget, before, *s.exec_stats());
        h[2] = s.state_hash();

        let id = farm.create(kind, false).map_err(|e| e.to_string())?;
        let before = farm_exec_stats(&farm);
        let t = Instant::now();
        let outcome = tracer.leaf(op, None, "farm.sched", "Scheduler::run_blocking", 0, || {
            sched.run_blocking(id, budget)
        });
        rungs[3].add(t, outcome.ran, before, farm_exec_stats(&farm));
        let s = farm.checkout(id).map_err(|e| e.to_string())?;
        h[3] = s.state_hash();
        farm.checkin(id, s, 0);
        farm.destroy(id).map_err(|e| e.to_string())?;

        let id = client
            .create(kind.name(), false)
            .map_err(|e| e.to_string())?;
        let t = Instant::now();
        let (ran, _) = tracer
            .leaf(op, None, "farm.server", "session.run", 0, || {
                client.run(id, budget)
            })
            .map_err(|e| e.to_string())?;
        rungs[4].add(t, ran, ExecStats::default(), ExecStats::default());
        h[4] = client.state_hash(id).map_err(|e| e.to_string())?;
        client.destroy(id).map_err(|e| e.to_string())?;

        if h.iter().any(|&x| x != h[0]) {
            return Err(format!(
                "{} x {budget} cycles: layer hashes differ (soc, psi, host, sched, server) = {h:x?}",
                kind.name()
            ));
        }
    }
    drop(client);
    drop(server);
    drop(sched);
    remove_evict_dir("ladder-sched");
    remove_evict_dir("ladder-server");

    let [soc, psi, host, sched_rung, server_rung] = rungs;
    ledger.put("soc.mcps", soc.mcps(), "Mcyc/s");
    ledger.put("soc.batched_frac", soc.frac(soc.stats.block_cycles), "frac");
    ledger.put(
        "soc.skipped_frac",
        soc.frac(soc.stats.skipped_cycles),
        "frac",
    );
    ledger.put("psi.mcps", psi.mcps(), "Mcyc/s");
    ledger.put("psi.batched_frac", psi.frac(psi.stats.block_cycles), "frac");
    ledger.put("psi.overhead_x", soc.mcps() / psi.mcps(), "x");
    ledger.put("host.mcps", host.mcps(), "Mcyc/s");
    ledger.put("host.overhead_x", psi.mcps() / host.mcps(), "x");
    ledger.put("farm.sched.mcps", sched_rung.mcps(), "Mcyc/s");
    ledger.put(
        "farm.sched.overhead_x",
        host.mcps() / sched_rung.mcps(),
        "x",
    );
    ledger.put(
        "farm.sched.batched_frac",
        sched_rung.frac(sched_rung.stats.block_cycles),
        "frac",
    );
    ledger.put(
        "farm.sched.skipped_frac",
        sched_rung.frac(sched_rung.stats.skipped_cycles),
        "frac",
    );
    ledger.put("farm.server.mcps", server_rung.mcps(), "Mcyc/s");
    Ok(())
}

/// Cycle age past which a session is measured as "aged": beyond the
/// point (~8.5M cycles for `engine`) where its output-port history fills.
const AGED_CYCLES: u64 = 9_000_000;

/// Cycles each side of the aged comparison is timed over.
const AGED_WINDOW: u64 = 1_000_000;

/// `Device::run_cycles` on an aged `engine` session against a fresh one:
/// the slowdown every long-lived session meets (the stationary workloads
/// recycle their sessions before it).
fn aged(tracer: &Tracer, ledger: &mut Ledger) {
    let mcps = |age: u64, name: &str| {
        let mut s = attach_session(Workload::Engine, false);
        let dev = s.debugger_mut().device_mut();
        dev.run_cycles(age);
        let t = Instant::now();
        tracer.leaf(tracer.new_op(), None, "psi", name, 0, || {
            dev.run_cycles(AGED_WINDOW)
        });
        AGED_WINDOW as f64 / t.elapsed().as_secs_f64() / 1e6
    };
    let fresh = mcps(0, "Device::run_cycles (fresh)");
    let aged = mcps(AGED_CYCLES, "Device::run_cycles (aged)");
    ledger.put("psi.aged_mcps", aged, "Mcyc/s");
    ledger.put("psi.aged_slowdown_x", fresh / aged, "x");
}

/// Host-side debug costs on in-process traced sessions: the `farm-debug`
/// mix without the wire.
fn debug_costs(seed: u64, tracer: &Tracer, ledger: &mut Ledger) {
    let (mut reads, mut pulls, mut health, mut msgs) = (vec![], vec![], vec![], vec![]);
    let (mut read_ops, mut starved) = (0u64, 0u64);
    for (i, &kind) in CATALOG.iter().enumerate() {
        let mut plan = DebugPlan::new(seed, 0x10 + i as u64);
        let mut s = attach_session(kind, true);
        for n in 0..DEBUG_OPS_PER_KIND {
            if n > 0 && n % DEBUG_RECYCLE_OPS == 0 {
                s = attach_session(kind, true);
            }
            let op = tracer.new_op();
            let next = plan.next_op();
            let t = Instant::now();
            match next {
                DebugOp::MemRead { addr, count } => {
                    let r = tracer.leaf(op, None, "host", "Session::read_words", 0, || {
                        s.read_words(addr, count as usize)
                    });
                    reads.push(ms_since(t));
                    read_ops += 1;
                    if r.as_ref().is_err_and(is_bus_starved) {
                        starved += 1;
                    }
                }
                DebugOp::TracePull => {
                    let r = tracer.leaf(op, None, "host", "Session::pull_trace", 0, || {
                        s.pull_trace()
                    });
                    pulls.push(ms_since(t));
                    if let Ok(outcome) = r {
                        msgs.push(outcome.messages.len() as f64);
                    }
                }
                DebugOp::Health => {
                    tracer.leaf(op, None, "host", "Session::health", 0, || s.health());
                    health.push(ms_since(t));
                }
                DebugOp::Run { cycles } => {
                    tracer.leaf(op, None, "host", "Session::run", 0, || s.run(cycles));
                }
                DebugOp::StateHash => {
                    tracer.leaf(op, None, "replay", "device_state_hash", 0, || {
                        s.state_hash()
                    });
                }
            }
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    ledger.put("host.read_words_ms", median(&reads).unwrap_or(0.0), "ms");
    ledger.put("host.pull_trace_ms", median(&pulls).unwrap_or(0.0), "ms");
    ledger.put("host.pull_trace_msgs", mean(&msgs), "count");
    ledger.put("host.health_ms", median(&health).unwrap_or(0.0), "ms");
    ledger.put(
        "psi.debug_starved_frac",
        starved as f64 / read_ops.max(1) as f64,
        "frac",
    );
}

/// State hashing, snapshot capture and the snapshot's JSON round trip —
/// the work behind `session.state_hash` and eviction.
fn replay_costs(seed: u64, tracer: &Tracer, ledger: &mut Ledger) -> Result<(), String> {
    let kind = ladder_runs(seed)[0].0;
    let mut s = attach_session(kind, false);
    s.run(PRE_RUN);
    let timed = |name: &str, f: &mut dyn FnMut()| {
        let mut ms = Vec::new();
        for _ in 0..REPS {
            let t = Instant::now();
            tracer.leaf(tracer.new_op(), None, "replay", name, 0, &mut *f);
            ms.push(ms_since(t));
        }
        median(&ms).unwrap_or(0.0)
    };
    let dev = s.debugger().device();
    ledger.put(
        "replay.hash_ms",
        timed("device_state_hash", &mut || {
            std::hint::black_box(device_state_hash(dev));
        }),
        "ms",
    );
    ledger.put(
        "replay.capture_ms",
        timed("SocSnapshot::capture", &mut || {
            std::hint::black_box(SocSnapshot::capture(dev));
        }),
        "ms",
    );
    let snap = s.suspend();
    let mut json = String::new();
    ledger.put(
        "replay.encode_ms",
        timed("SessionSnapshot encode", &mut || {
            json = serde_json::to_string(&snap).expect("snapshot encodes");
        }),
        "ms",
    );
    let mut parsed = None;
    ledger.put(
        "replay.parse_ms",
        timed("SessionSnapshot parse", &mut || {
            parsed = Some(serde_json::from_str::<SessionSnapshot>(&json));
        }),
        "ms",
    );
    let parsed = parsed
        .expect("parsed at least once")
        .map_err(|e| format!("snapshot parse: {e}"))?;
    if parsed.state_hash() != snap.state_hash() {
        return Err("snapshot JSON round trip changed the state hash".to_string());
    }
    ledger.put("replay.snapshot_bytes", json.len() as f64, "B");
    ledger.put("replay.size_bytes_reported", snap.size_bytes() as f64, "B");
    Ok(())
}

/// The registry's own lifecycle costs, in-process.
fn registry_costs(seed: u64, tracer: &Tracer, ledger: &mut Ledger) -> Result<(), String> {
    let kind = ladder_runs(seed)[0].0;
    let farm = Farm::new(farm_config("ladder-registry"), Telemetry::new());
    let (mut create, mut evict, mut revive, mut destroy) = (vec![], vec![], vec![], vec![]);
    for _ in 0..REPS {
        let op = tracer.new_op();
        let layer = "farm.registry";
        let t = Instant::now();
        let id = tracer
            .leaf(op, None, layer, "Farm::create", 0, || {
                farm.create(kind, false)
            })
            .map_err(|e| e.to_string())?;
        create.push(ms_since(t));
        let mut s = farm.checkout(id).map_err(|e| e.to_string())?;
        s.run(PRE_RUN);
        farm.checkin(id, s, PRE_RUN);
        let t = Instant::now();
        let (_, hash) = tracer
            .leaf(op, None, layer, "Farm::evict", 0, || farm.evict(id))
            .map_err(|e| e.to_string())?;
        evict.push(ms_since(t));
        let t = Instant::now();
        let s = tracer
            .leaf(op, None, layer, "Farm::checkout (revive)", 0, || {
                farm.checkout(id)
            })
            .map_err(|e| e.to_string())?;
        revive.push(ms_since(t));
        let revived = s.state_hash();
        farm.checkin(id, s, 0);
        if revived != hash {
            return Err(format!(
                "registry revive: {revived:#x} != evicted {hash:#x}"
            ));
        }
        let t = Instant::now();
        tracer
            .leaf(op, None, layer, "Farm::destroy", 0, || farm.destroy(id))
            .map_err(|e| e.to_string())?;
        destroy.push(ms_since(t));
    }
    remove_evict_dir("ladder-registry");
    for (name, v) in [
        ("create", &create),
        ("evict", &evict),
        ("revive", &revive),
        ("destroy", &destroy),
    ] {
        ledger.put(
            format!("farm.registry.{name}_ms"),
            median(v).unwrap_or(0.0),
            "ms",
        );
    }
    Ok(())
}

/// The methods whose wire cost the ledger reports.
const WIRE_METHODS: [&str; 8] = [
    "session.create",
    "session.run",
    "mem.read",
    "health.pull",
    "trace.pull",
    "session.state_hash",
    "session.evict",
    "session.destroy",
];

/// Wire cost per method: the client's latency minus the in-process
/// latency of the same op, plus the server's own handling time from
/// `obs.latency`. Sessions are traced single-core `engine`, so every op
/// succeeds.
fn wire_costs(tracer: &Tracer, ledger: &mut Ledger) -> Result<(), String> {
    const KIND: Workload = Workload::Engine;
    const RUN: DebugOp = DebugOp::Run { cycles: 10_000 };
    let ops = [
        RUN,
        DebugOp::MemRead {
            addr: mcds_soc::memmap::SRAM_BASE,
            count: 8,
        },
        DebugOp::Health,
        DebugOp::TracePull,
        DebugOp::StateHash,
    ];
    let mut wire: Vec<Vec<f64>> = vec![Vec::new(); WIRE_METHODS.len()];
    let mut local: Vec<Vec<f64>> = vec![Vec::new(); WIRE_METHODS.len()];
    let err = |e: &dyn std::fmt::Display| e.to_string();

    let server = spawn_server("ladder-wire");
    let mut client = FarmClient::connect(server.local_addr()).map_err(|e| err(&e))?;
    let farm = Arc::new(Farm::new(
        farm_config("ladder-wire-local"),
        Telemetry::new(),
    ));
    let sched = Scheduler::spawn(Arc::clone(&farm));
    for _ in 0..REPS {
        let op = tracer.new_op();
        let t = Instant::now();
        let id = tracer
            .leaf(op, None, "farm.server", "session.create", 0, || {
                client.create(KIND.name(), true)
            })
            .map_err(|e| err(&e))?;
        wire[0].push(ms_since(t));
        for (i, &o) in ops.iter().enumerate() {
            let t = Instant::now();
            tracer
                .leaf(op, None, "farm.server", o.method(), 0, || {
                    send_op(&mut client, id, o)
                })
                .map_err(|e| err(&e))?;
            wire[i + 1].push(ms_since(t));
        }
        let t = Instant::now();
        tracer
            .leaf(op, None, "farm.server", "session.evict", 0, || {
                client.evict(id)
            })
            .map_err(|e| err(&e))?;
        wire[6].push(ms_since(t));
        let t = Instant::now();
        tracer
            .leaf(op, None, "farm.server", "session.destroy", 0, || {
                client.destroy(id)
            })
            .map_err(|e| err(&e))?;
        wire[7].push(ms_since(t));

        // The same ops against an in-process farm.
        let t = Instant::now();
        let id = farm.create(KIND, true).map_err(|e| err(&e))?;
        local[0].push(ms_since(t));
        for (i, &o) in ops.iter().enumerate() {
            let t = Instant::now();
            if let DebugOp::Run { cycles } = o {
                let outcome = sched.run_blocking(id, cycles);
                if let Some(e) = outcome.error {
                    return Err(err(&e));
                }
            } else {
                let mut s = farm.checkout(id).map_err(|e| err(&e))?;
                let r = crate::rig::apply_op(&mut s, o);
                farm.checkin(id, s, 0);
                r.map_err(|e| err(&e))?;
            }
            local[i + 1].push(ms_since(t));
        }
        let t = Instant::now();
        farm.evict(id).map_err(|e| err(&e))?;
        local[6].push(ms_since(t));
        let t = Instant::now();
        farm.destroy(id).map_err(|e| err(&e))?;
        local[7].push(ms_since(t));
    }
    for (i, m) in WIRE_METHODS.iter().enumerate() {
        let (w, l) = (
            median(&wire[i]).unwrap_or(0.0),
            median(&local[i]).unwrap_or(0.0),
        );
        ledger.put(format!("farm.server.wire_ms.{m}"), w - l, "ms");
    }
    let latency = client.obs_latency().map_err(|e| err(&e))?;
    let rows = match latency {
        serde::Value::Map(entries) => entries
            .into_iter()
            .find(|(k, _)| k == "methods")
            .map(|(_, v)| v),
        _ => None,
    };
    let Some(serde::Value::Seq(rows)) = rows else {
        return Err("obs.latency lacks `methods`".to_string());
    };
    for m in WIRE_METHODS {
        let p50 = rows
            .iter()
            .find(|r| require_str(r, "method").is_ok_and(|name| name == m))
            .and_then(|r| mcds_farm::client::require_u64(r, "p50_ns").ok())
            .ok_or_else(|| format!("obs.latency has no row for {m}"))?;
        ledger.put(format!("farm.server.handle_ms.{m}"), p50 as f64 / 1e6, "ms");
    }
    drop(client);
    drop(server);
    drop(sched);
    remove_evict_dir("ladder-wire");
    remove_evict_dir("ladder-wire-local");
    Ok(())
}

/// The vnet fabric against the same ECU devices run alone.
fn vnet(seed: u64, tracer: &Tracer, ledger: &mut Ledger) {
    let inputs = FleetPlan::new(seed).next_inputs();
    let cycles = VNET_CYCLES;
    let mut v = mcds_vnet::demo::fleet(FLEET_ECUS);
    for i in &inputs {
        v.device_mut(i.ecu)
            .soc_mut()
            .periph_mut()
            .set_input(i.port, i.value);
    }
    let t = Instant::now();
    tracer.leaf(
        tracer.new_op(),
        None,
        "vnet",
        "Vehicle::run_cycles",
        0,
        || v.run_cycles(cycles),
    );
    let lockstep_ns = t.elapsed().as_nanos() as u64;
    let mut hash_ms = Vec::new();
    for _ in 0..REPS {
        let t = Instant::now();
        tracer.leaf(
            tracer.new_op(),
            None,
            "vnet",
            "Vehicle::state_hash",
            0,
            || std::hint::black_box(v.state_hash()),
        );
        hash_ms.push(ms_since(t));
    }
    let mut alone_ns = 0u64;
    for ecu in 0..FLEET_ECUS {
        let mut dev = if ecu % 2 == 0 {
            mcds_vnet::demo::engine_device(None)
        } else {
            mcds_vnet::demo::gearbox_device(None)
        };
        for i in inputs.iter().filter(|i| i.ecu == ecu) {
            dev.soc_mut().periph_mut().set_input(i.port, i.value);
        }
        let t = Instant::now();
        tracer.leaf(
            tracer.new_op(),
            None,
            "vnet",
            "Device::run_cycles (alone)",
            0,
            || dev.run_cycles(cycles),
        );
        alone_ns += t.elapsed().as_nanos() as u64;
    }
    let ecu_cycles = (cycles * FLEET_ECUS as u64) as f64;
    let ecu_mcps = ecu_cycles / (lockstep_ns as f64 / 1e3);
    let alone_mcps = ecu_cycles / (alone_ns as f64 / 1e3);
    ledger.put("vnet.ecu_mcps", ecu_mcps, "Mcyc/s");
    ledger.put("vnet.standalone_mcps", alone_mcps, "Mcyc/s");
    ledger.put("vnet.lockstep_overhead_x", alone_mcps / ecu_mcps, "x");
    ledger.put(
        "vnet.frames_per_mcycle",
        v.stats().frames as f64 / (cycles as f64 / 1e6),
        "1/Mcyc",
    );
    ledger.put("vnet.hash_ms", median(&hash_ms).unwrap_or(0.0), "ms");
}
