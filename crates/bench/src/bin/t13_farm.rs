//! Experiment T13 — the multi-session debug farm under load.
//!
//! The paper's device serves one ECU per debug wire; the farm serves a
//! rack's worth behind one TCP endpoint. T13 measures that service under
//! the two loads that matter:
//!
//! * **T13a (scaling)** — N concurrent sessions each running a fixed
//!   cycle budget through the run-quantum scheduler, repeated with 1, 2,
//!   4 (and, full mode, 8) worker threads. Aggregate simulated cycles
//!   per wall second must scale: **≥ 2x going 1 → 4 workers** with ≥ 8
//!   concurrent sessions. The assertion is enforced when the host
//!   exposes ≥ 4 CPUs (`std::thread::available_parallelism`); on a
//!   CPU-starved CI container the numbers are still measured and
//!   reported, but no wall-clock speedup is physically possible, so the
//!   bench notes that and skips only the ratio assert. Every session's
//!   final state hash is checked against a single-threaded control —
//!   parallelism must not leak into architectural state;
//! * **T13b (churn)** — create → run → evict → revive (hash-verified) →
//!   destroy, as fast as the service can turn sessions over, all through
//!   the TCP wire path; reports sessions/s and the full evict/revive
//!   byte volume, and asserts the untraced sessions ran through the
//!   execution kernel (`farm_cycles_batched_total > 0`).
//!
//! Artifacts: `t13_farm_telemetry.json` + `t13_farm.prom` (the `farm_*`
//! metric namespace) and `t13_fleet_health.txt` (the aggregate
//! [`mcds_host::FleetHealth`] table). Run with `--smoke` for a short
//! CI-friendly pass.

use mcds_bench::{print_table, write_telemetry_artifacts, BenchArgs};
use mcds_farm::{Farm, FarmClient, FarmConfig, FarmServer, Scheduler};
use mcds_telemetry::Telemetry;
use mcds_workloads::Workload;
use std::sync::Arc;
use std::time::Instant;

fn farm_config(workers: usize, tag: &str) -> FarmConfig {
    FarmConfig {
        workers,
        evict_dir: std::env::temp_dir().join(format!("mcds-t13-{tag}-{}", std::process::id())),
        ..Default::default()
    }
}

/// Runs `sessions` concurrent engine sessions for `cycles` each over
/// `workers` workers; returns (wall seconds, per-session state hashes).
fn scaling_round(workers: usize, sessions: usize, cycles: u64) -> (f64, Vec<u64>) {
    let farm = Arc::new(Farm::new(
        farm_config(workers, &format!("scale{workers}")),
        Telemetry::new(),
    ));
    let ids: Vec<u64> = (0..sessions)
        .map(|_| farm.create(Workload::Engine, false).expect("create"))
        .collect();
    let sched = Scheduler::spawn(Arc::clone(&farm));
    let start = Instant::now();
    let rxs: Vec<_> = ids.iter().map(|&id| sched.submit(id, cycles)).collect();
    for rx in rxs {
        let outcome = rx.recv().expect("scheduler alive");
        assert_eq!(outcome.ran, cycles, "{:?}", outcome.error);
    }
    let wall = start.elapsed().as_secs_f64();
    let hashes = ids
        .iter()
        .map(|&id| {
            let s = farm.checkout(id).expect("checkout");
            let h = s.state_hash();
            farm.checkin(id, s, 0);
            h
        })
        .collect();
    (wall, hashes)
}

fn main() {
    let args = BenchArgs::parse("target/analysis");
    let sessions = 8;
    let cycles: u64 = args.scale(3_000_000, 400_000);
    let worker_counts: &[usize] = if args.smoke {
        &[1, 2, 4]
    } else {
        &[1, 2, 4, 8]
    };

    // --- T13a: scaling. --------------------------------------------------
    let mut rows = Vec::new();
    let mut per_worker: Vec<(usize, f64)> = Vec::new();
    let mut control_hashes: Option<Vec<u64>> = None;
    for &workers in worker_counts {
        let (wall, hashes) = scaling_round(workers, sessions, cycles);
        let agg = (sessions as f64 * cycles as f64) / wall;
        match &control_hashes {
            None => control_hashes = Some(hashes),
            Some(control) => {
                assert_eq!(control, &hashes, "worker count changed architectural state")
            }
        }
        per_worker.push((workers, agg));
        rows.push(vec![
            workers.to_string(),
            sessions.to_string(),
            cycles.to_string(),
            format!("{wall:.2}"),
            format!("{:.1}", agg / 1e6),
            format!("{:.2}x", agg / per_worker[0].1),
        ]);
    }
    print_table(
        &format!("T13a: aggregate throughput, {sessions} sessions x {cycles} cycles"),
        &[
            "workers",
            "sessions",
            "cycles/session",
            "wall s",
            "Mcycles/s",
            "speedup",
        ],
        &rows,
    );
    let base = per_worker[0].1;
    let at4 = per_worker
        .iter()
        .find(|(w, _)| *w == 4)
        .expect("4-worker round ran")
        .1;
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cpus >= 4 {
        assert!(
            at4 >= 2.0 * base,
            "4-worker aggregate throughput must be >= 2x 1-worker (got {:.2}x)",
            at4 / base
        );
    } else {
        println!(
            "note: host exposes {cpus} CPU(s); {:.2}x measured, >=2x scaling assert \
             requires >=4 CPUs and was skipped",
            at4 / base
        );
    }

    // --- T13b: churn through the wire. -----------------------------------
    let tel = Telemetry::new();
    let server = FarmServer::spawn(farm_config(4, "churn"), tel.clone(), 0).expect("bind");
    let addr = server.local_addr();
    let churn_sessions = args.scale(24, 6);
    let churn_cycles: u64 = args.scale(100_000, 30_000);
    let mut client = FarmClient::connect(addr).expect("connect");
    let mut evicted_bytes = 0u64;
    let start = Instant::now();
    for _ in 0..churn_sessions {
        let id = client.create("engine", false).expect("create");
        let (ran, _) = client.run(id, churn_cycles).expect("run");
        assert_eq!(ran, churn_cycles);
        let before = client.state_hash(id).expect("hash");
        let (bytes, hash) = client.evict(id).expect("evict");
        assert_eq!(hash, before, "evict hash mismatch");
        evicted_bytes += bytes;
        let revived = client.state_hash(id).expect("revive+hash");
        assert_eq!(revived, before, "revival not bit-identical");
        client.destroy(id).expect("destroy");
    }
    let churn_wall = start.elapsed().as_secs_f64();

    // Populate the fleet-health artifact with a few live sessions.
    let fleet_ids: Vec<u64> = (0..4)
        .map(|_| {
            let id = client.create("engine", false).expect("create");
            client.run(id, 50_000).expect("run");
            id
        })
        .collect();
    let health = client
        .call("farm.health", mcds_farm::proto::obj(vec![]))
        .expect("farm.health");
    let report = mcds_farm::client::require_str(&health, "report").expect("health report string");
    for &id in &fleet_ids {
        client.destroy(id).expect("destroy");
    }

    print_table(
        "T13b: session churn over TCP (create-run-evict-revive-destroy)",
        &[
            "sessions",
            "cycles each",
            "wall s",
            "sessions/s",
            "evicted MB",
        ],
        &[vec![
            churn_sessions.to_string(),
            churn_cycles.to_string(),
            format!("{churn_wall:.2}"),
            format!("{:.1}", churn_sessions as f64 / churn_wall),
            format!("{:.1}", evicted_bytes as f64 / 1e6),
        ]],
    );

    let stats = server.farm().stats();
    assert_eq!(stats.evicted as usize, churn_sessions);
    assert_eq!(stats.revived as usize, churn_sessions);
    assert_eq!(stats.destroyed as usize, churn_sessions + fleet_ids.len());
    // Untraced sessions are idle devices: their quanta run through the
    // execution kernel, and the farm's counters must say so.
    assert!(
        stats.cycles_batched_total > 0,
        "untraced farm sessions must run batched: {stats:?}"
    );

    // --- Artifacts. -------------------------------------------------------
    let out = write_telemetry_artifacts(&args, "t13_farm", &tel);
    let health_path = format!("{}/t13_fleet_health.txt", args.out_dir);
    std::fs::write(&health_path, &report).expect("write fleet health");
    println!("\nartifacts: {out}, {health_path}");
    println!(
        "T13 PASS: {:.2}x speedup 1->4 workers ({cpus} CPUs), \
         {churn_sessions} churned sessions bit-identical",
        at4 / base
    );
}
