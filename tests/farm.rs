//! End-to-end tests for the `mcds-farm` debug service over a real TCP
//! socket: the full session lifecycle (create → run → breakpoint hit →
//! evict → revive → run) must be bit-identical to a never-evicted
//! control session, malformed and out-of-protocol requests must map to
//! typed errors, and concurrent clients must not interfere. The wire
//! itself must be fast (no Nagle stall) and bounded (line length,
//! connection count).

use mcds_farm::proto::{self, obj, vint, vstr};
use mcds_farm::{client, ClientError, FarmClient, FarmConfig, FarmServer};
use mcds_telemetry::Telemetry;
use mcds_workloads::Workload;
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

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
/// snapshot. The traced MCDS only observes, so the traced batched session
/// batches (the device feeds the MCDS events from the kernel's blocks);
/// the untraced pair batches as well, and the farm's kernel counters must
/// show both.
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
    // The traced MCDS only observes, so the batched session batches too.
    let traced_batched = server.farm().stats().cycles_batched_total;
    assert!(
        traced_batched > 0,
        "the traced batched session must run batched: {:?}",
        server.farm().stats()
    );

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

/// Looks `key` up in a JSON object.
fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// Sends raw bytes as one line on `stream` and returns the error code of
/// the response, or `None` for an `ok` response.
fn raw_round_trip(stream: &mut BufReader<TcpStream>, bytes: &[u8]) -> Option<i64> {
    let mut message = bytes.to_vec();
    message.push(b'\n');
    stream.get_mut().write_all(&message).expect("send raw line");
    let mut line = String::new();
    let n = stream.read_line(&mut line).expect("read response");
    assert!(n > 0, "server closed the connection instead of answering");
    let response: Value = serde_json::from_str(line.trim_end()).expect("response is JSON");
    let error = field(&response, "error")?;
    match field(error, "code") {
        Some(Value::Int(code)) => Some(*code as i64),
        _ => panic!("error lacks a code: {line}"),
    }
}

/// Round trips are not held back by Nagle's algorithm: each costs the
/// handler's time, not a delayed ACK (~85 ms each before both ends set
/// `TCP_NODELAY` and sent one write per message).
#[test]
fn sequential_round_trips_do_not_stall() {
    let (_server, addr) = spawn_server("latency");
    let mut c = FarmClient::connect(addr).expect("connect");
    let id = c.create("engine", false).expect("create");
    let health = obj(vec![("session", vint(id))]);
    let start = Instant::now();
    for _ in 0..50 {
        c.call("health.pull", health.clone()).expect("health.pull");
    }
    let wall = start.elapsed();
    assert!(
        wall < Duration::from_secs(1),
        "50 health.pull round trips took {wall:?}"
    );
    c.destroy(id).expect("destroy");
}

/// Bad lines get typed errors and touch nothing else: an oversize line
/// closes only its own connection, a non-UTF-8 or garbage line leaves its
/// connection open, and other sessions keep their state.
#[test]
fn bad_lines_are_typed_and_isolated() {
    let (_server, addr) = spawn_server("badlines");
    let mut owner = FarmClient::connect(addr).expect("connect");
    let a = owner.create("engine", false).expect("create");
    let b = owner.create("gearbox", false).expect("create");
    owner.run(a, 30_000).expect("run");
    owner.run(b, 30_000).expect("run");
    let hashes = (
        owner.state_hash(a).expect("hash"),
        owner.state_hash(b).expect("hash"),
    );

    // Oversize: a typed refusal, then the connection closes.
    let mut big = FarmClient::connect(addr).expect("connect");
    let err = big
        .call_raw(&"x".repeat(proto::MAX_LINE + 1))
        .expect_err("oversize line must fail");
    assert_eq!(rpc_code(err), proto::ERR_REQUEST_TOO_LARGE);
    assert!(
        big.call("farm.ping", obj(vec![])).is_err(),
        "the connection must close after an oversize line"
    );

    // A line of exactly the limit is read whole (and is merely not JSON).
    let mut at_limit = FarmClient::connect(addr).expect("connect");
    let err = at_limit
        .call_raw(&"x".repeat(proto::MAX_LINE))
        .expect_err("non-JSON line must fail");
    assert_eq!(rpc_code(err), proto::ERR_PARSE);

    // Non-UTF-8 and garbage JSON: parse errors on a connection that stays
    // open.
    let mut raw = BufReader::new(TcpStream::connect(addr).expect("connect"));
    assert_eq!(
        raw_round_trip(&mut raw, b"\xff\xfe{\"method\": \"farm.ping\"}"),
        Some(proto::ERR_PARSE)
    );
    assert_eq!(
        raw_round_trip(&mut raw, b"{\"method\": farm.ping}}"),
        Some(proto::ERR_PARSE)
    );
    assert_eq!(
        raw_round_trip(&mut raw, br#"{"id": 1, "method": "farm.ping"}"#),
        None
    );

    assert_eq!(
        (
            owner.state_hash(a).expect("hash"),
            owner.state_hash(b).expect("hash"),
        ),
        hashes,
        "bad lines on other connections must not touch these sessions"
    );
    let mut fresh = FarmClient::connect(addr).expect("connect");
    fresh.call("farm.ping", obj(vec![])).expect("fresh ping");
}

/// One connection past the cap gets the typed refusal; the connections
/// already open keep working.
#[test]
fn connections_over_the_cap_are_refused() {
    let (server, addr) = spawn_server("conncap");
    let mut open: Vec<FarmClient> = (0..proto::MAX_CONNECTIONS)
        .map(|_| FarmClient::connect(addr).expect("connect"))
        .collect();
    // A ping on each proves the server has accepted and counted it.
    for c in &mut open {
        c.call("farm.ping", obj(vec![]))
            .expect("ping under the cap");
    }
    let gauge = server
        .farm()
        .telemetry()
        .registry()
        .gauge("farm_connections_open", "Open wire connections");
    assert_eq!(gauge.get(), proto::MAX_CONNECTIONS as f64);

    let mut extra = FarmClient::connect(addr).expect("tcp connect");
    let err = extra
        .call("farm.ping", obj(vec![]))
        .expect_err("over the cap must be refused");
    assert_eq!(rpc_code(err), proto::ERR_TOO_MANY_CONNECTIONS);

    for c in [0, proto::MAX_CONNECTIONS - 1] {
        open[c]
            .call("farm.ping", obj(vec![]))
            .expect("open connection still served");
    }
}

#[test]
fn oversized_mem_read_is_refused() {
    let (_server, addr) = spawn_server("memread");
    let mut c = FarmClient::connect(addr).expect("connect");
    let id = c.create("engine", false).expect("create");
    let read = |count: u64| {
        obj(vec![
            ("session", vint(id)),
            ("addr", vint(0xD000_0000)),
            ("count", vint(count)),
        ])
    };
    let err = c
        .call("mem.read", read(proto::MAX_MEM_READ_WORDS + 1))
        .expect_err("count over the limit must fail");
    assert_eq!(rpc_code(err), proto::ERR_INVALID_PARAMS);
    let ok = c.call("mem.read", read(4)).expect("read under the limit");
    assert!(matches!(field(&ok, "words"), Some(Value::Seq(w)) if w.len() == 4));
    c.destroy(id).expect("destroy");
}
