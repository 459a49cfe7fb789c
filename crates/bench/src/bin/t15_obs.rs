//! Experiment T15 — cross-layer causal tracing (`mcds-obs`), end to end.
//!
//! The paper's debug concentrator is only useful if watching the system
//! does not change it. T15 proves the observability spine holds that
//! line and actually spans the stack:
//!
//! * **T15a (overhead + identity)** — the same engine session run with
//!   the journal detached and attached, best-of-3 each with the two
//!   alternating within each repeat ([`mcds_bench::interleaved`]), sliced into
//!   scheduler-sized quanta. The journal-on run must land on the
//!   **identical device state hash** and keep **≥ 90 %** of the
//!   journal-off cycles/s (the <10 % overhead budget);
//! * **T15b (causal chain over the wire)** — a real `FarmServer` with a
//!   small quantum serves one `session.run`; the request's correlation
//!   id must appear in **≥ 3 layers** (farm dispatch, scheduler quanta,
//!   device slices) of the journal, `obs.latency` must know the method,
//!   and `obs.timeline` must render both the wall-clock and sim-cycle
//!   processes of the unified Perfetto timeline;
//! * **T15c (flight recorder)** — a campaign with a planted invariant
//!   breaker distills a [`mcds_replay::ReproArtifact`] whose
//!   `flight_recorder` field carries a non-empty journal dump.
//!
//! Artifacts: `t15_timeline.json` (the unified timeline, loadable in
//! Perfetto/`chrome://tracing`), `t15_journal.json` (the journal tail)
//! and `t15_obs_telemetry.json`/`.prom` (the `obs_*` + `farm_*` metric
//! namespaces). Run with `--smoke` for the short CI pass.

use mcds_analysis::chrome::ChromeTrace;
use mcds_bench::{interleaved, print_table, write_telemetry_artifacts, BenchArgs};
use mcds_campaign::{Campaign, CampaignConfig, Scenario, Workload as CampaignWorkload};
use mcds_farm::{device_spec, FarmClient, FarmConfig, FarmServer};
use mcds_host::Session;
use mcds_obs::{Journal, SIM_PID, WALL_PID};
use mcds_psi::interface::InterfaceKind;
use mcds_telemetry::Telemetry;
use mcds_workloads::Workload;
use std::time::Instant;

/// Runs a fresh engine session for `cycles` in `quantum`-sized slices,
/// optionally with an obs journal attached (one corr id for the whole
/// run, like one long farm request). Returns (wall s, state hash).
fn session_round(cycles: u64, quantum: u64, journal: Option<&Journal>) -> (f64, u64) {
    let workload = Workload::Engine;
    let spec = device_spec(workload, false);
    let mut dev = spec.build();
    dev.soc_mut().load_program(&workload.program());
    let mut session =
        Session::attach(dev, InterfaceKind::Jtag, &workload.program(), None).expect("attach");
    if let Some(j) = journal {
        session.set_obs(Some(j.clone()), Some(j.next_corr()));
    }
    let start = Instant::now();
    let mut ran = 0u64;
    while ran < cycles {
        let n = quantum.min(cycles - ran);
        let report = session.run(n);
        assert!(report.stop.is_none(), "engine workload must not halt");
        ran += report.ran;
    }
    (start.elapsed().as_secs_f64(), session.state_hash())
}

fn main() {
    let args = BenchArgs::parse("target/analysis");
    let cycles: u64 = args.scale(2_000_000, 300_000);
    let quantum: u64 = 10_000;

    // --- T15a: journal overhead and state-hash identity. ------------------
    let journal = Journal::new(4096);
    let mut hash_off = None;
    let (best, _) = interleaved(3, [None, Some(&journal)], |j| {
        let (wall, hash) = session_round(cycles, quantum, j);
        assert_eq!(
            *hash_off.get_or_insert(hash),
            hash,
            "the journal must not perturb architectural state"
        );
        (wall, ())
    });
    let hash_off = hash_off.expect("at least one run");
    let (best_off, best_on) = (best[0].0, best[1].0);
    let rate_off = cycles as f64 / best_off;
    let rate_on = cycles as f64 / best_on;
    print_table(
        &format!("T15a: journal overhead, {cycles} cycles in {quantum}-cycle slices (best of 3)"),
        &["journal", "wall s", "Mcycles/s", "state hash"],
        &[
            vec![
                "off".to_string(),
                format!("{best_off:.3}"),
                format!("{:.1}", rate_off / 1e6),
                format!("{hash_off:#018x}"),
            ],
            vec![
                "on".to_string(),
                format!("{best_on:.3}"),
                format!("{:.1}", rate_on / 1e6),
                format!("{hash_off:#018x}"),
            ],
        ],
    );
    assert!(
        rate_on >= 0.9 * rate_off,
        "journal overhead exceeds the 10% budget: {:.1}% slower",
        (1.0 - rate_on / rate_off) * 100.0
    );
    assert!(
        journal.total() >= 3,
        "each journal-on round must record slices"
    );

    // --- T15b: one request, three layers, one unified timeline. -----------
    let tel = Telemetry::new();
    let config = FarmConfig {
        quantum,
        evict_dir: std::env::temp_dir().join(format!("mcds-t15-{}", std::process::id())),
        ..FarmConfig::default()
    };
    let server = FarmServer::spawn(config, tel.clone(), 0).expect("bind");
    let mut client = FarmClient::connect(server.local_addr()).expect("connect");
    let id = client.create("engine", false).expect("create");
    let run_cycles: u64 = args.scale(100_000, 40_000);
    let (ran, _) = client.run(id, run_cycles).expect("run");
    assert_eq!(ran, run_cycles);
    // Exercise the registry lane too: evict, then revive via state_hash.
    let before = client.state_hash(id).expect("hash");
    client.evict(id).expect("evict");
    assert_eq!(client.state_hash(id).expect("revive"), before);

    // The causal chain: one correlation id visible in >= 3 layers.
    let records = server.farm().journal().snapshot();
    let mut best: (u64, Vec<&'static str>) = (0, Vec::new());
    for corr in 1..=server.farm().journal().correlations() {
        let mut layers: Vec<&'static str> = Vec::new();
        for r in records.iter().filter(|r| r.corr == Some(corr)) {
            let l = r.event.layer();
            if !layers.contains(&l) {
                layers.push(l);
            }
        }
        if layers.len() > best.1.len() {
            best = (corr, layers);
        }
    }
    print_table(
        "T15b: deepest correlated request",
        &["corr", "layers"],
        &[vec![best.0.to_string(), best.1.join(" → ")]],
    );
    assert!(
        best.1.len() >= 3,
        "one request must correlate through >= 3 layers, saw {:?}",
        best.1
    );

    // Wire-path views: journal tail, per-method latency, unified timeline.
    let tail = client.obs_journal(64).expect("obs.journal");
    assert!(mcds_farm::client::require_u64(&tail, "total").expect("total") > 0);
    let latency = client.obs_latency().expect("obs.latency");
    let latency_json = serde_json::to_string(&latency).expect("latency renders");
    assert!(
        latency_json.contains("session.run"),
        "obs.latency must cover session.run: {latency_json}"
    );
    let timeline = client.obs_timeline().expect("obs.timeline");
    let trace = ChromeTrace::from_json(&timeline).expect("timeline parses back");
    assert!(
        trace.events.iter().any(|e| e.pid == WALL_PID)
            && trace.events.iter().any(|e| e.pid == SIM_PID),
        "the timeline must carry both the wall-clock and sim-cycle processes"
    );

    std::fs::create_dir_all(&args.out_dir).expect("create output dir");
    let timeline_path = format!("{}/t15_timeline.json", args.out_dir);
    std::fs::write(&timeline_path, &timeline).expect("write timeline");
    let journal_path = format!("{}/t15_journal.json", args.out_dir);
    let journal_dump = server.farm().journal().tail_json(512);
    assert!(
        journal_dump.contains("corr"),
        "journal dump carries corr ids"
    );
    std::fs::write(&journal_path, &journal_dump).expect("write journal");

    // --- T15c: flight recorder on a distilled failure. ---------------------
    let mut campaign = Campaign::new(CampaignConfig {
        seed: 0x0B5_CAFE,
        rounds: 2,
        batch: args.scale(8, 4),
        ..CampaignConfig::default()
    });
    let mut planted = Scenario::generate(0x10AD);
    planted.workload = CampaignWorkload::RaceBuggy;
    planted.cycles = 60_000;
    campaign.plant(planted);
    let report = campaign.run();
    let failure = report
        .failures
        .iter()
        .find(|f| f.kind == "invariant")
        .expect("the planted race must be distilled");
    assert!(
        !failure.artifact.flight_recorder.is_empty(),
        "the repro artifact must carry a flight-recorder dump"
    );
    let dump: serde::Value =
        serde_json::from_str(&failure.artifact.flight_recorder).expect("dump is JSON");
    let serde::Value::Seq(events) = &dump else {
        panic!("flight recorder is not a JSON array");
    };
    assert!(!events.is_empty(), "flight-recorder dump must not be empty");
    println!(
        "T15c: distilled \"{}\" carries a {}-event flight recorder",
        failure.detail,
        events.len()
    );

    // --- Artifacts. -------------------------------------------------------
    server.farm().journal().publish_telemetry(&tel);
    let out = write_telemetry_artifacts(&args, "t15_obs", &tel);
    println!("\nartifacts: {out}, {timeline_path}, {journal_path}");
    println!(
        "T15 PASS: {:.1}% journal overhead, corr {} spans {} layers, \
         {}-event flight recorder",
        (1.0 - rate_on / rate_off) * 100.0,
        best.0,
        best.1.len(),
        events.len()
    );
}
