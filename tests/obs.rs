//! Workspace-level guarantees of the `mcds-obs` causal-tracing spine:
//! attaching the journal must never change what the device computes
//! (bit-identical state hash *and* decoded trace, journal on vs off —
//! the observability twin of `tests/telemetry.rs`), one farm request
//! must leave a correlated trail through at least three layers, the
//! unified timeline must carry both clock domains, farm-semantic errors
//! must ship a flight-recorder dump on the wire, and campaign-distilled
//! repro artifacts must carry one on disk.

use mcds_analysis::chrome::ChromeTrace;
use mcds_campaign::{Campaign, CampaignConfig, Scenario, Workload as CampaignWorkload};
use mcds_farm::{device_spec, FarmClient, FarmConfig, FarmServer};
use mcds_host::Session;
use mcds_obs::{Journal, SIM_PID, WALL_PID};
use mcds_psi::interface::InterfaceKind;
use mcds_replay::ReproArtifact;
use mcds_telemetry::Telemetry;
use mcds_workloads::Workload;
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// Runs a fresh engine session for `cycles` in `quantum`-sized slices,
/// optionally journaled, and returns (state hash, cycles run, decoded
/// flow, encoded trace byte count).
fn sliced_run(
    cycles: u64,
    quantum: u64,
    trace: bool,
    journal: Option<&Journal>,
) -> (u64, u64, Vec<mcds_trace::ExecutedInstr>, usize) {
    let workload = Workload::Engine;
    let spec = device_spec(workload, trace);
    let mut dev = spec.build();
    dev.soc_mut().load_program(&workload.program());
    // Like the farm registry: the MCDS configuration is baked into the
    // device spec, so attach does not push one again.
    let mut session =
        Session::attach(dev, InterfaceKind::Jtag, &workload.program(), None).expect("attach");
    if let Some(j) = journal {
        session.set_obs(Some(j.clone()), Some(j.next_corr()));
    }
    let mut ran = 0u64;
    while ran < cycles {
        let report = session.run(quantum.min(cycles - ran));
        assert!(report.stop.is_none(), "engine workload must not halt");
        ran += report.ran;
    }
    let outcome = session.pull_trace().expect("trace pulls");
    (
        session.state_hash(),
        session.cycles_run(),
        outcome.flow,
        outcome.trace_bytes,
    )
}

fn test_farm_config(tag: &str) -> FarmConfig {
    FarmConfig {
        quantum: 10_000,
        evict_dir: std::env::temp_dir().join(format!("mcds-obs-{tag}-{}", std::process::id())),
        ..FarmConfig::default()
    }
}

proptest! {
    // Few cases: each runs four full simulations.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The journal must be invisible to record/replay: however the run
    /// is sliced, state hash, run tally, decoded flow and encoded trace
    /// volume are bit-identical with the journal attached and detached.
    #[test]
    fn journal_on_and_off_runs_are_bit_identical(
        cycles in 10_000u64..40_000,
        quantum in 512u64..8_192,
        trace in any::<bool>(),
    ) {
        let journal = Journal::new(256);
        let plain = sliced_run(cycles, quantum, trace, None);
        let journaled = sliced_run(cycles, quantum, trace, Some(&journal));
        prop_assert_eq!(plain.0, journaled.0);
        prop_assert_eq!(plain.1, journaled.1);
        prop_assert_eq!(&plain.2, &journaled.2);
        prop_assert_eq!(plain.3, journaled.3);
        // And the journaled run actually journaled something.
        prop_assert!(journal.total() > 0);
    }
}

#[test]
fn one_farm_request_correlates_through_three_layers() {
    let server = FarmServer::spawn(test_farm_config("corr"), Telemetry::new(), 0).expect("bind");
    let mut client = FarmClient::connect(server.local_addr()).expect("connect");
    let id = client.create("engine", false).expect("create");
    let (ran, _) = client.run(id, 40_000).expect("run");
    assert_eq!(ran, 40_000);

    let journal = server.farm().journal();
    let records = journal.snapshot();
    let deepest = (1..=journal.correlations())
        .map(|corr| {
            let mut layers: Vec<&'static str> = Vec::new();
            for r in records.iter().filter(|r| r.corr == Some(corr)) {
                let l = r.event.layer();
                if !layers.contains(&l) {
                    layers.push(l);
                }
            }
            layers
        })
        .max_by_key(Vec::len)
        .expect("at least one correlation id was minted");
    assert!(
        deepest.len() >= 3,
        "a session.run request must span farm, scheduler and device layers, saw {deepest:?}"
    );
    for layer in ["farm", "scheduler", "device"] {
        assert!(deepest.contains(&layer), "missing {layer} in {deepest:?}");
    }
    // Each quantum leaves one scheduler record beside its one device slice.
    let in_layer = |layer| records.iter().filter(|r| r.event.layer() == layer).count();
    assert!(in_layer("device") > 0);
    assert_eq!(in_layer("scheduler"), in_layer("device"));
}

#[test]
fn unified_timeline_carries_both_clock_domains() {
    let server =
        FarmServer::spawn(test_farm_config("timeline"), Telemetry::new(), 0).expect("bind");
    let mut client = FarmClient::connect(server.local_addr()).expect("connect");
    let id = client.create("engine", false).expect("create");
    client.run(id, 30_000).expect("run");
    // Evict + revive so the registry lane shows up as well.
    let before = client.state_hash(id).expect("hash");
    client.evict(id).expect("evict");
    assert_eq!(client.state_hash(id).expect("revive"), before);

    let timeline = client.obs_timeline().expect("obs.timeline");
    let trace = ChromeTrace::from_json(&timeline).expect("timeline is valid trace JSON");
    assert!(trace
        .events
        .iter()
        .any(|e| e.pid == WALL_PID && e.ph == "X"));
    assert!(trace.events.iter().any(|e| e.pid == SIM_PID && e.ph == "X"));
    assert!(trace
        .events
        .iter()
        .any(|e| e.pid == WALL_PID && e.cat == "registry"));
    // The journal tail over the wire knows the ring totals.
    let tail = client.obs_journal(32).expect("obs.journal");
    assert!(mcds_farm::client::require_u64(&tail, "total").expect("total") > 0);
    // Latency quantiles exist for the methods this test called.
    let latency = serde_json::to_string(&client.obs_latency().expect("obs.latency"))
        .expect("latency renders");
    for method in ["session.create", "session.run", "obs.timeline"] {
        assert!(
            latency.contains(method),
            "obs.latency misses {method}: {latency}"
        );
    }
}

/// Farm-semantic errors (code >= 1000) must carry a `flight_recorder`
/// dump in the error payload. `FarmClient` strips unknown error fields,
/// so this test reads the raw response line off the socket.
#[test]
fn farm_semantic_errors_ship_a_flight_recorder() {
    let server = FarmServer::spawn(test_farm_config("flight"), Telemetry::new(), 0).expect("bind");
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;

    // An unknown session id is a farm-semantic error (ERR_NO_SESSION).
    writer
        .write_all(
            b"{\"id\":1,\"method\":\"session.run\",\"params\":{\"session\":999,\"cycles\":64}}\n",
        )
        .expect("write");
    let mut line = String::new();
    reader.read_line(&mut line).expect("response");
    assert!(
        line.contains("\"error\""),
        "expected an error response: {line}"
    );
    assert!(line.contains("1001"), "expected ERR_NO_SESSION: {line}");
    assert!(
        line.contains("\"flight_recorder\""),
        "farm-semantic error must carry a flight recorder: {line}"
    );
    assert!(
        line.contains("RpcDispatch"),
        "the dump must contain the journal's recent events: {line}"
    );

    // A protocol-level error (method not found, code -32601) must NOT —
    // nothing device-side happened, so there is nothing to dump.
    writer
        .write_all(b"{\"id\":2,\"method\":\"no.such\",\"params\":{}}\n")
        .expect("write");
    let mut line = String::new();
    reader.read_line(&mut line).expect("response");
    assert!(line.contains("-32601"), "expected method-not-found: {line}");
    assert!(
        !line.contains("flight_recorder"),
        "protocol errors must not dump: {line}"
    );
}

#[test]
fn campaign_repro_artifact_carries_a_flight_recorder() {
    let mut campaign = Campaign::new(CampaignConfig {
        seed: 0x0B5_F11E,
        rounds: 1,
        batch: 2,
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
        .expect("the planted race is distilled");

    let dump = &failure.artifact.flight_recorder;
    assert!(!dump.is_empty(), "flight recorder must be populated");
    let parsed: serde::Value = serde_json::from_str(dump).expect("dump is JSON");
    let serde::Value::Seq(events) = &parsed else {
        panic!("flight recorder is not a JSON array: {dump}");
    };
    assert!(!events.is_empty());
    assert!(
        dump.contains("CampaignPhase"),
        "dump must carry the campaign's phase trail: {dump}"
    );

    // The dump survives the on-disk round trip.
    let dir = std::env::temp_dir().join(format!("mcds-obs-repro-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("repro.json");
    failure.artifact.save(&path).expect("saves");
    let loaded = ReproArtifact::load(&path).expect("loads");
    assert_eq!(&loaded.flight_recorder, dump);
    std::fs::remove_dir_all(&dir).ok();
}
