//! End-to-end tests for the `mcds-farm` debug service over a real TCP
//! socket: the full session lifecycle (create → run → breakpoint hit →
//! evict → revive → run) must be bit-identical to a never-evicted
//! control session, malformed and out-of-protocol requests must map to
//! typed errors, and concurrent clients must not interfere.

use mcds_farm::proto::{self, obj, vint, vstr};
use mcds_farm::{client, ClientError, FarmClient, FarmConfig, FarmServer};
use mcds_telemetry::Telemetry;
use mcds_workloads::Workload;
use std::net::SocketAddr;

fn spawn_server(tag: &str) -> (FarmServer, SocketAddr) {
    let config = FarmConfig {
        workers: 2,
        evict_dir: std::env::temp_dir()
            .join(format!("mcds-farm-itest-{tag}-{}", std::process::id())),
        ..Default::default()
    };
    let server = FarmServer::spawn(config, Telemetry::new(), 0).expect("bind farm server");
    let addr = server.local_addr();
    (server, addr)
}

fn rpc_code(err: ClientError) -> i64 {
    match err {
        ClientError::Rpc(e) => e.code,
        other => panic!("expected an rpc error, got {other}"),
    }
}

/// Drives one session through the identical op sequence the bit-identity
/// test compares: run, arm a HW breakpoint on the engine main loop, run
/// to the stop, swap the calibration page, clear the breakpoint, resume,
/// run again. `evict_midway` suspends/revives between the two halves.
fn drive(c: &mut FarmClient, id: u64, evict_midway: bool) -> (u64, u64, u64) {
    let loop_addr = Workload::Engine.program().symbols["cycle"];
    let (ran1, _) = c.run(id, 100_000).expect("first run");
    c.set_hw_breakpoint(id, 0, loop_addr).expect("set hw bp");
    let (_, stop) = c.run(id, 100_000).expect("run to stop");
    assert!(stop.is_some(), "hw breakpoint must stop the core");

    if evict_midway {
        let before = c.state_hash(id).expect("hash before evict");
        let (bytes, hash) = c.evict(id).expect("evict");
        assert!(bytes > 0);
        assert_eq!(hash, before, "evict must report the suspended hash");
        // The next touch transparently revives from disk.
        let revived = c.state_hash(id).expect("hash after revive");
        assert_eq!(revived, before, "revival must be bit-identical");
    }

    c.call(
        "xcp.set_cal_page",
        obj(vec![("session", vint(id)), ("page", vint(1))]),
    )
    .expect("cal page swap");
    c.call(
        "breakpoint.clear",
        obj(vec![
            ("session", vint(id)),
            ("kind", vstr("hw")),
            ("core", vint(0)),
            ("addr", vint(loop_addr as u64)),
        ]),
    )
    .expect("clear hw bp");
    c.call(
        "session.resume_core",
        obj(vec![("session", vint(id)), ("core", vint(0))]),
    )
    .expect("resume");
    let (ran2, _) = c.run(id, 100_000).expect("second run");

    let (flow, trace_hash) = c.pull_trace(id).expect("trace pull");
    assert!(flow > 0, "traced session must reconstruct a flow");
    let state = c.state_hash(id).expect("final hash");
    (ran1 + ran2, state, trace_hash)
}

#[test]
fn evicted_session_is_bit_identical_to_control() {
    let (_server, addr) = spawn_server("identity");
    let mut c = FarmClient::connect(addr).expect("connect");

    // Control never leaves memory; subject is evicted and revived midway.
    // Both see the exact same request sequence (debug ops pay simulated
    // link latency, so the sequences must match for the states to).
    let control = c.create("engine", true).expect("create control");
    let subject = c.create("engine", true).expect("create subject");
    let (ran_c, state_c, trace_c) = drive(&mut c, control, false);
    let (ran_s, state_s, trace_s) = drive(&mut c, subject, true);

    assert_eq!(ran_c, ran_s, "both sessions must run the same cycles");
    assert_eq!(
        state_c, state_s,
        "evict/revive must not perturb architectural state"
    );
    assert_eq!(
        trace_c, trace_s,
        "evict/revive must not perturb the decoded trace"
    );
    c.destroy(control).expect("destroy");
    c.destroy(subject).expect("destroy");
}

#[test]
fn protocol_errors_are_typed() {
    let (_server, addr) = spawn_server("errors");
    let mut c = FarmClient::connect(addr).expect("connect");

    // Malformed JSON → parse error; the connection survives.
    let err = c.call_raw("{not json").expect_err("malformed must fail");
    assert_eq!(rpc_code(err), proto::ERR_PARSE);

    // Non-object and missing-method lines → invalid request.
    let err = c.call_raw("[1,2,3]").expect_err("array must fail");
    assert_eq!(rpc_code(err), proto::ERR_INVALID_REQUEST);

    // Unknown method.
    let err = c
        .call("farm.frobnicate", obj(vec![]))
        .expect_err("unknown method must fail");
    assert_eq!(rpc_code(err), proto::ERR_METHOD_NOT_FOUND);

    // Unknown workload and missing parameters.
    let err = c
        .call("session.create", obj(vec![("workload", vstr("toaster"))]))
        .expect_err("unknown workload must fail");
    assert_eq!(rpc_code(err), proto::ERR_INVALID_PARAMS);
    let err = c
        .call("session.run", obj(vec![("cycles", vint(1))]))
        .expect_err("missing session param must fail");
    assert_eq!(rpc_code(err), proto::ERR_INVALID_PARAMS);

    // Operations on a session that does not exist.
    let err = c.run(99, 1000).expect_err("unknown session must fail");
    assert_eq!(rpc_code(err), proto::ERR_NO_SESSION);
    let err = c.evict(99).expect_err("unknown session must fail");
    assert_eq!(rpc_code(err), proto::ERR_NO_SESSION);

    // Double attach / detach without attach.
    let id = c.create("engine", false).expect("create");
    c.attach(id).expect("first attach");
    let err = c.attach(id).expect_err("double attach must fail");
    assert_eq!(rpc_code(err), proto::ERR_ALREADY_ATTACHED);
    c.detach(id).expect("detach");
    let err = c.detach(id).expect_err("detach when detached must fail");
    assert_eq!(rpc_code(err), proto::ERR_NOT_ATTACHED);

    // The connection is still healthy after every error above.
    let pong = c.call("farm.ping", obj(vec![])).expect("ping");
    assert!(matches!(proto::p_bool_or(&pong, "pong", false), Ok(true)));
    c.destroy(id).expect("destroy");
}

#[test]
fn concurrent_clients_do_not_interfere() {
    let (server, addr) = spawn_server("concurrent");
    let handles: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = FarmClient::connect(addr).expect("connect");
                let id = c.create("engine", false).expect("create");
                let (ran, _) = c.run(id, 50_000 + i * 1000).expect("run");
                assert_eq!(ran, 50_000 + i * 1000);
                let before = c.state_hash(id).expect("hash");
                let (_, hash) = c.evict(id).expect("evict");
                assert_eq!(hash, before);
                let revived = c.state_hash(id).expect("revive");
                assert_eq!(revived, before);
                c.destroy(id).expect("destroy");
                ran
            })
        })
        .collect();
    let mut total = 0;
    for h in handles {
        total += h.join().expect("client thread");
    }
    assert_eq!(total, 4 * 50_000 + (1 + 2 + 3) * 1000);
    let stats = server.farm().stats();
    assert_eq!(stats.created, 4);
    assert_eq!(stats.destroyed, 4);
    assert_eq!(stats.revived, 4);
}

#[test]
fn farm_surfaces_metrics_and_fleet_health() {
    let (_server, addr) = spawn_server("metrics");
    let mut c = FarmClient::connect(addr).expect("connect");
    let a = c.create("engine", false).expect("create");
    let b = c.create("gearbox", false).expect("create");
    c.run(a, 60_000).expect("run");
    c.run(b, 60_000).expect("run");

    let health = c.call("farm.health", obj(vec![])).expect("farm.health");
    assert_eq!(client::require_u64(&health, "sessions").unwrap(), 2);
    let report = client::require_str(&health, "report").unwrap();
    assert!(report.contains("mcds-top fleet"), "{report}");
    assert!(report.contains("s1") && report.contains("s2"), "{report}");

    let metrics = c.call("farm.metrics", obj(vec![])).expect("farm.metrics");
    let prom = client::require_str(&metrics, "prometheus").unwrap();
    for needle in [
        "farm_sessions_created_total 2",
        "farm_cycles_total 120000",
        "farm_requests_total",
        "farm_request_latency_ns",
        "telemetry_span_wall_ns_total{subsystem=\"farm\"}",
    ] {
        assert!(
            prom.contains(needle),
            "prometheus export lacks `{needle}`:\n{prom}"
        );
    }
    c.destroy(a).expect("destroy");
    c.destroy(b).expect("destroy");
}

#[test]
fn vehicle_groups_render_in_fleet_health() {
    let (_server, addr) = spawn_server("vehicle");
    let mut c = FarmClient::connect(addr).expect("connect");
    // One grouped vehicle via the one-shot method, one loose session.
    let members = c
        .create_vehicle("car-a", &["engine", "gearbox"])
        .expect("vehicle.create");
    assert_eq!(members.len(), 2);
    let loose = c.create("engine", false).expect("create");
    for &id in &members {
        c.run(id, 40_000).expect("run");
    }

    // session.list reports the grouping.
    let listed = c.call("session.list", obj(vec![])).expect("session.list");
    let json = serde_json::to_string(&listed).unwrap();
    assert!(json.contains("\"vehicle\":\"car-a\""), "{json}");
    assert!(json.contains("\"vehicle\":null"), "{json}");

    // farm.health groups the members under the vehicle heading.
    let report = c.fleet_health().expect("farm.health");
    assert!(report.contains("mcds-top fleet — 3 session(s)"), "{report}");
    assert!(report.contains("vehicle car-a"), "{report}");
    assert!(report.contains("2 ecu(s)"), "{report}");

    // Unknown workload in the list rolls the whole vehicle back.
    let before = c.call("farm.stats", obj(vec![])).expect("stats");
    let live0 = client::require_u64(&before, "sessions_live").unwrap();
    let err = c
        .create_vehicle("car-b", &["engine", "no-such-workload"])
        .expect_err("unknown workload");
    assert_eq!(rpc_code(err), proto::ERR_INVALID_PARAMS);
    let after = c.call("farm.stats", obj(vec![])).expect("stats");
    assert_eq!(
        client::require_u64(&after, "sessions_live").unwrap(),
        live0,
        "partial vehicle must be rolled back"
    );

    for id in members {
        c.destroy(id).expect("destroy");
    }
    c.destroy(loose).expect("destroy");
}

/// Farm revival over the execution kernel: a session running batched
/// execution, evicted to disk and revived, must be bit-identical — state
/// hash and decoded trace — to a per-cycle control session that never
/// left memory. Proves the decode cache never leaks into the suspended
/// snapshot. The untraced pair is the one the kernel actually batches,
/// which the farm's kernel counters must show.
#[test]
fn revived_batched_session_matches_per_cycle_control() {
    let (server, addr) = spawn_server("kernel");
    let mut c = FarmClient::connect(addr).expect("connect");
    let control = c.create("engine", true).expect("control");
    let batched = c.create("engine", true).expect("batched");

    c.call(
        "session.set_exec_mode",
        obj(vec![
            ("session", vint(control)),
            ("mode", vstr("per_cycle")),
        ]),
    )
    .expect("control mode");
    c.call(
        "session.set_exec_mode",
        obj(vec![
            ("session", vint(batched)),
            ("mode", vstr("block_batched")),
        ]),
    )
    .expect("batched mode");

    let (ran_c, state_c, trace_c) = drive(&mut c, control, false);
    let (ran_b, state_b, trace_b) = drive(&mut c, batched, true);
    assert_eq!(ran_c, ran_b, "same cycles retired");
    assert_eq!(
        state_c, state_b,
        "batched + evict/revive must match the per-cycle control"
    );
    assert_eq!(trace_c, trace_b, "decoded traces must match");
    let traced_batched = server.farm().stats().cycles_batched_total;

    // Untraced: the idle device (MCDS and service core) enters the kernel.
    let plain_c = c.create("engine", false).expect("plain control");
    let plain_b = c.create("engine", false).expect("plain batched");
    for (id, mode) in [(plain_c, "per_cycle"), (plain_b, "block_batched")] {
        c.call(
            "session.set_exec_mode",
            obj(vec![("session", vint(id)), ("mode", vstr(mode))]),
        )
        .expect("plain mode");
        c.run(id, 200_000).expect("plain run");
    }
    assert_eq!(
        c.state_hash(plain_c).expect("hash"),
        c.state_hash(plain_b).expect("hash"),
        "untraced batched must match the per-cycle control"
    );
    let stats = server.farm().stats();
    assert!(
        stats.cycles_batched_total > traced_batched,
        "untraced sessions must run batched: {stats:?}"
    );

    // An unknown mode string is a typed params error — including the
    // retired event-kernel mode.
    for mode in ["warp", "event_kernel"] {
        let err = c
            .call(
                "session.set_exec_mode",
                obj(vec![("session", vint(control)), ("mode", vstr(mode))]),
            )
            .expect_err("bad mode");
        assert_eq!(rpc_code(err), proto::ERR_INVALID_PARAMS);
    }
}
