//! The TCP front door: one listener, one thread per connection, requests
//! dispatched against the shared registry and scheduler.
//!
//! Every request is counted (`farm_requests_total{method=...}`) and timed
//! (`farm_request_latency_ns`), errors are counted separately
//! (`farm_request_errors_total`), and `farm_cycles_per_sec` tracks the
//! aggregate simulated throughput since the server started — all through
//! the same [`mcds_telemetry`] registry the rest of the workspace uses,
//! exported over the wire by `farm.metrics`. `farm_connections_open`
//! gauges the live connections, which [`proto::MAX_CONNECTIONS`] caps.

use crate::proto::{
    self, obj, parse_request, render_err, render_err_with_data, render_ok, vbool, vint, vstr,
    Request, RpcError, ERR_DEVICE, ERR_METHOD_NOT_FOUND, ERR_REQUEST_TOO_LARGE,
    ERR_TOO_MANY_CONNECTIONS, MAX_CONNECTIONS, MAX_LINE,
};
use crate::registry::{Farm, FarmConfig};
use crate::scheduler::Scheduler;
use mcds_host::Session;
use mcds_obs::ObsEvent;
use mcds_soc::event::CoreId;
use mcds_soc::isa::Reg;
use mcds_telemetry::{Counter, Gauge, Histogram, Telemetry};
use mcds_workloads::Workload;
use serde::{Serialize, Value};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Request-latency histogram bounds: 1 us to 10 s in decades (ns).
const LATENCY_BOUNDS_NS: &[u64] = &[
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
];

/// A running farm server. Dropping it stops the listener, the connection
/// handlers' sockets keep their own lifetime (they exit when clients
/// disconnect).
pub struct FarmServer {
    farm: Arc<Farm>,
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

/// Flight-recorder events attached to a farm-semantic error payload.
const ERROR_DUMP_EVENTS: usize = 16;

struct Shared {
    farm: Arc<Farm>,
    sched: Scheduler,
    latency: Histogram,
    started: Instant,
    /// The farm's `farm_cycles_total` counter, read (lock-free) for the
    /// `farm_cycles_per_sec` gauge.
    cycles: Counter,
}

/// One open connection, counted in `farm_connections_open` for as long as
/// it lives (including when its thread fails to spawn or panics).
struct OpenConnection(Gauge);

impl OpenConnection {
    fn new(open: &Gauge) -> OpenConnection {
        open.add(1.0);
        OpenConnection(open.clone())
    }
}

impl Drop for OpenConnection {
    fn drop(&mut self) {
        self.0.add(-1.0);
    }
}

impl FarmServer {
    /// Binds `127.0.0.1:port` (0 for ephemeral), spawns the scheduler
    /// worker pool and the accept loop, and returns.
    ///
    /// # Errors
    ///
    /// I/O errors from binding.
    pub fn spawn(config: FarmConfig, tel: Telemetry, port: u16) -> std::io::Result<FarmServer> {
        let farm = Arc::new(Farm::new(config, tel));
        FarmServer::spawn_on(farm, port)
    }

    /// Like [`FarmServer::spawn`] but over an existing registry.
    ///
    /// # Errors
    ///
    /// I/O errors from binding.
    pub fn spawn_on(farm: Arc<Farm>, port: u16) -> std::io::Result<FarmServer> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let latency = farm.telemetry().registry().histogram(
            "farm_request_latency_ns",
            "Wire-request handling latency",
            LATENCY_BOUNDS_NS,
        );
        let shared = Arc::new(Shared {
            sched: Scheduler::spawn(Arc::clone(&farm)),
            farm: Arc::clone(&farm),
            latency,
            started: Instant::now(),
            cycles: farm
                .telemetry()
                .registry()
                .counter("farm_cycles_total", "Cycles run across all sessions"),
        });
        let open = farm
            .telemetry()
            .registry()
            .gauge("farm_connections_open", "Open wire connections");
        let accept_stop = Arc::clone(&stop);
        let accept_thread = std::thread::Builder::new()
            .name("farm-accept".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if accept_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(mut stream) = conn else { continue };
                    // Only this thread opens connections, so the count
                    // cannot rise between the check and the increment.
                    if open.get() >= MAX_CONNECTIONS as f64 {
                        let refusal = RpcError::new(
                            ERR_TOO_MANY_CONNECTIONS,
                            format!("the farm already has {MAX_CONNECTIONS} connections open"),
                        );
                        let _ = stream
                            .write_all(format!("{}\n", render_err(None, &refusal)).as_bytes());
                        continue;
                    }
                    let counted = OpenConnection::new(&open);
                    let shared = Arc::clone(&shared);
                    let _ = std::thread::Builder::new()
                        .name("farm-conn".to_string())
                        .spawn(move || {
                            let _counted = counted;
                            serve_connection(stream, &shared);
                        });
                }
            })
            .expect("spawn accept thread");
        Ok(FarmServer {
            farm,
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address clients connect to.
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// The registry behind the server.
    pub fn farm(&self) -> &Arc<Farm> {
        &self.farm
    }

    /// Stops accepting connections and joins the accept thread.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for FarmServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Answers one connection's requests in order until the client closes
/// it, a read fails or times out ([`proto::IDLE_TIMEOUT`]), or a line
/// exceeds [`MAX_LINE`].
fn serve_connection(stream: TcpStream, shared: &Shared) {
    if stream.set_nodelay(true).is_err()
        || stream.set_read_timeout(Some(proto::IDLE_TIMEOUT)).is_err()
    {
        return;
    }
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        line.clear();
        match (&mut reader)
            .take(MAX_LINE as u64 + 1)
            .read_until(b'\n', &mut line)
        {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let too_large = line.len() > MAX_LINE && !line.ends_with(b"\n");
        if !too_large && line.trim_ascii().is_empty() {
            continue;
        }
        let request = if too_large {
            Err(RpcError::new(
                ERR_REQUEST_TOO_LARGE,
                format!("request line exceeds {MAX_LINE} bytes"),
            ))
        } else {
            parse_request(line.trim_ascii_end())
        };
        let mut response = handle_request(request, shared);
        response.push('\n');
        // After an oversize line the rest of it is still unread, so the
        // next line's start is unknown: answer, then close.
        if writer.write_all(response.as_bytes()).is_err() || too_large {
            break;
        }
    }
}

fn handle_request(request: Result<Request, RpcError>, shared: &Shared) -> String {
    let start = Instant::now();
    let journal = shared.farm.journal();
    // One request, one correlation id: every journal event this request
    // causes — dispatch, scheduler quanta, device runs — carries it.
    let corr = journal.next_corr();
    let (id, method, result) = match request {
        Ok(req) => {
            journal.record(
                Some(corr),
                None,
                ObsEvent::RpcDispatch {
                    method: req.method.clone(),
                },
            );
            let result = dispatch(&req.method, &req.params, corr, shared);
            (req.id, req.method, result)
        }
        Err(e) => (None, "invalid".to_string(), Err(e)),
    };
    let latency_ns = start.elapsed().as_nanos() as u64;
    let registry = shared.farm.telemetry().registry();
    registry
        .counter_with(
            "farm_requests_total",
            "Wire requests handled",
            &[("method", &method)],
        )
        .inc();
    shared.latency.observe(latency_ns);
    registry
        .histogram_with(
            "farm_method_latency_ns",
            "Per-method wire-request handling latency",
            &[("method", &method)],
            LATENCY_BOUNDS_NS,
        )
        .observe(latency_ns);
    journal.record(
        Some(corr),
        None,
        ObsEvent::RpcComplete {
            method: method.clone(),
            ok: result.is_ok(),
            latency_ns,
        },
    );
    // Aggregate simulated throughput since server start — telemetry only,
    // strictly outside the determinism boundary.
    let wall_s = shared.started.elapsed().as_secs_f64();
    if wall_s > 0.0 {
        registry
            .gauge(
                "farm_cycles_per_sec",
                "Aggregate simulated cycles per wall second",
            )
            .set(shared.cycles.get() as f64 / wall_s);
    }
    match result {
        Ok(value) => render_ok(id, value),
        Err(e) => {
            registry
                .counter(
                    "farm_request_errors_total",
                    "Wire requests answered with an error",
                )
                .inc();
            // Farm-semantic failures (code >= 1000: lost sessions, failed
            // revivals, device faults) ship the flight recorder in the
            // error payload; transport-level errors stay minimal.
            let dump = (e.code >= 1000).then(|| journal.tail(ERROR_DUMP_EVENTS).to_value());
            render_err_with_data(id, &e, dump)
        }
    }
}

/// Checks the session out, applies `f`, checks it back in (crediting zero
/// cycles — the scheduler owns cycle accounting).
fn with_session<T>(
    farm: &Farm,
    id: u64,
    f: impl FnOnce(&mut Session) -> Result<T, RpcError>,
) -> Result<T, RpcError> {
    let mut session = farm.checkout(id)?;
    let result = f(&mut session);
    farm.checkin(id, session, 0);
    result
}

fn device_err(e: impl std::fmt::Display) -> RpcError {
    RpcError::new(ERR_DEVICE, e.to_string())
}

/// The `trace_hash` of a `trace.pull` reply: FNV-1a over the `Debug`
/// form of the reconstructed flow followed by the data log, streamed
/// through [`mcds_replay::Fnv1aWriter`] instead of formatting a
/// multi-megabyte string first.
fn trace_digest(outcome: &mcds_host::TraceOutcome) -> u64 {
    use std::fmt::Write;
    let mut w = mcds_replay::Fnv1aWriter::new();
    write!(w, "{:?}{:?}", outcome.flow, outcome.data_log).expect("hashing cannot fail");
    w.finish()
}

fn stop_value(stop: Option<mcds_host::StopEvent>) -> Value {
    match stop {
        None => Value::Null,
        Some(s) => obj(vec![
            ("core", vint(s.core.0 as u64)),
            ("cause", vstr(format!("{:?}", s.cause))),
            ("pc", vint(s.pc as u64)),
        ]),
    }
}

fn dispatch(method: &str, params: &Value, corr: u64, shared: &Shared) -> Result<Value, RpcError> {
    let farm = shared.farm.as_ref();
    match method {
        "farm.ping" => Ok(obj(vec![("pong", vbool(true))])),
        "farm.stats" => {
            let s = farm.stats();
            Ok(obj(vec![
                ("sessions_live", vint(s.sessions_live as u64)),
                ("sessions_evicted", vint(s.sessions_evicted as u64)),
                ("evicted_bytes", vint(s.evicted_bytes as u64)),
                ("created", vint(s.created)),
                ("evicted", vint(s.evicted)),
                ("revived", vint(s.revived)),
                ("destroyed", vint(s.destroyed)),
                ("cycles_total", vint(s.cycles_total)),
                ("cycles_skipped_total", vint(s.cycles_skipped_total)),
                ("cycles_batched_total", vint(s.cycles_batched_total)),
            ]))
        }
        "farm.metrics" => {
            farm.journal().publish_telemetry(farm.telemetry());
            Ok(obj(vec![(
                "prometheus",
                vstr(farm.telemetry().to_prometheus()),
            )]))
        }
        "farm.health" => {
            let fleet = farm.fleet_health();
            Ok(obj(vec![
                ("sessions", vint(fleet.len() as u64)),
                ("report", vstr(fleet.to_string())),
            ]))
        }
        "session.create" => {
            let name = proto::p_str(params, "workload")?;
            let workload = Workload::from_name(name)
                .ok_or_else(|| RpcError::params(format!("unknown workload `{name}`")))?;
            let trace = proto::p_bool_or(params, "trace", false)?;
            let vehicle = proto::p_str_opt(params, "vehicle")?.map(str::to_string);
            let id = farm.create_in_vehicle(workload, trace, vehicle)?;
            Ok(obj(vec![("session", vint(id))]))
        }
        "vehicle.create" => {
            // One call, one vehicle: every listed workload becomes a
            // member session of the named group. Creation is atomic — an
            // unknown workload or failed attach destroys the members
            // already created.
            let vehicle = proto::p_str(params, "vehicle")?;
            let names = proto::p_strings(params, "workloads")?;
            if names.is_empty() {
                return Err(RpcError::params("`workloads` is empty"));
            }
            let trace = proto::p_bool_or(params, "trace", false)?;
            let mut ids = Vec::with_capacity(names.len());
            for name in &names {
                let created = Workload::from_name(name)
                    .ok_or_else(|| RpcError::params(format!("unknown workload `{name}`")))
                    .and_then(|w| farm.create_in_vehicle(w, trace, Some(vehicle.to_string())));
                match created {
                    Ok(id) => ids.push(id),
                    Err(e) => {
                        for id in ids {
                            let _ = farm.destroy(id);
                        }
                        return Err(e);
                    }
                }
            }
            Ok(obj(vec![
                ("vehicle", vstr(vehicle)),
                ("sessions", Value::Seq(ids.into_iter().map(vint).collect())),
            ]))
        }
        "session.list" => {
            let sessions = farm
                .list()
                .into_iter()
                .map(|s| {
                    obj(vec![
                        ("session", vint(s.id)),
                        ("workload", vstr(s.workload.name())),
                        ("trace", vbool(s.trace)),
                        ("state", vstr(s.state)),
                        ("attached", vbool(s.attached)),
                        ("cycles_total", vint(s.cycles_total)),
                        (
                            "vehicle",
                            match &s.vehicle {
                                Some(v) => vstr(v.clone()),
                                None => Value::Null,
                            },
                        ),
                    ])
                })
                .collect();
            Ok(obj(vec![("sessions", Value::Seq(sessions))]))
        }
        "session.attach" => {
            farm.attach(proto::p_u64(params, "session")?)?;
            Ok(obj(vec![("attached", vbool(true))]))
        }
        "session.detach" => {
            farm.detach(proto::p_u64(params, "session")?)?;
            Ok(obj(vec![("detached", vbool(true))]))
        }
        "session.evict" => {
            let (bytes, state_hash) = farm.evict(proto::p_u64(params, "session")?)?;
            Ok(obj(vec![
                ("bytes", vint(bytes as u64)),
                ("state_hash", vint(state_hash)),
            ]))
        }
        "session.destroy" => {
            farm.destroy(proto::p_u64(params, "session")?)?;
            Ok(obj(vec![("destroyed", vbool(true))]))
        }
        "session.run" => {
            let id = proto::p_u64(params, "session")?;
            let cycles = proto::p_u64(params, "cycles")?;
            let outcome = shared.sched.run_blocking_with_corr(id, cycles, Some(corr));
            if let Some(e) = outcome.error {
                return Err(e);
            }
            Ok(obj(vec![
                ("ran", vint(outcome.ran)),
                ("stop", stop_value(outcome.stop)),
            ]))
        }
        "session.state_hash" => {
            let id = proto::p_u64(params, "session")?;
            let hash = with_session(farm, id, |s| Ok(s.state_hash()))?;
            Ok(obj(vec![("state_hash", vint(hash))]))
        }
        "session.set_exec_mode" => {
            let id = proto::p_u64(params, "session")?;
            let mode = match proto::p_str(params, "mode")? {
                "per_cycle" => mcds_soc::ExecMode::PerCycle,
                "block_batched" => mcds_soc::ExecMode::BlockBatched,
                other => {
                    return Err(RpcError::new(
                        proto::ERR_INVALID_PARAMS,
                        format!("unknown exec mode `{other}`"),
                    ))
                }
            };
            with_session(farm, id, |s| {
                s.set_exec_mode(mode);
                Ok(())
            })?;
            Ok(obj(vec![("mode", vstr(format!("{mode:?}")))]))
        }
        "session.resume_core" => {
            let id = proto::p_u64(params, "session")?;
            let core = CoreId(proto::p_u64_or(params, "core", 0)? as u8);
            with_session(farm, id, |s| s.resume_core(core).map_err(device_err))?;
            Ok(obj(vec![("resumed", vbool(true))]))
        }
        "breakpoint.set" | "breakpoint.clear" => {
            let id = proto::p_u64(params, "session")?;
            let addr = proto::p_u32(params, "addr")?;
            let kind = proto::p_str(params, "kind").unwrap_or("sw");
            let core = CoreId(proto::p_u64_or(params, "core", 0)? as u8);
            let set = method == "breakpoint.set";
            with_session(farm, id, |s| {
                match (kind, set) {
                    ("sw", true) => s.set_sw_breakpoint(addr),
                    ("sw", false) => s.clear_sw_breakpoint(addr),
                    ("hw", true) => s.set_hw_breakpoint(core, addr),
                    ("hw", false) => s.clear_hw_breakpoint(core, addr),
                    _ => {
                        return Err(RpcError::params(format!(
                            "unknown breakpoint kind `{kind}`"
                        )))
                    }
                }
                .map_err(device_err)
            })?;
            Ok(obj(vec![(
                if set { "set" } else { "cleared" },
                vbool(true),
            )]))
        }
        "mem.read" => {
            let id = proto::p_u64(params, "session")?;
            let addr = proto::p_u32(params, "addr")?;
            let count = proto::p_u64_or(params, "count", 1)?;
            if count > proto::MAX_MEM_READ_WORDS {
                return Err(RpcError::params(format!(
                    "`count` {count} exceeds {}",
                    proto::MAX_MEM_READ_WORDS
                )));
            }
            let words = with_session(farm, id, |s| {
                s.read_words(addr, count as usize).map_err(device_err)
            })?;
            Ok(obj(vec![(
                "words",
                Value::Seq(words.into_iter().map(|w| vint(w as u64)).collect()),
            )]))
        }
        "mem.write" => {
            let id = proto::p_u64(params, "session")?;
            let addr = proto::p_u32(params, "addr")?;
            let words = proto::p_words(params, "words")?;
            let n = words.len();
            with_session(farm, id, |s| s.write_words(addr, words).map_err(device_err))?;
            Ok(obj(vec![("written", vint(n as u64))]))
        }
        "reg.read" => {
            let id = proto::p_u64(params, "session")?;
            let core = CoreId(proto::p_u64_or(params, "core", 0)? as u8);
            let r = Reg::new(proto::p_u64(params, "reg")? as u8);
            let v = with_session(farm, id, |s| s.read_reg(core, r).map_err(device_err))?;
            Ok(obj(vec![("value", vint(v as u64))]))
        }
        "reg.write" => {
            let id = proto::p_u64(params, "session")?;
            let core = CoreId(proto::p_u64_or(params, "core", 0)? as u8);
            let r = Reg::new(proto::p_u64(params, "reg")? as u8);
            let v = proto::p_u32(params, "value")?;
            with_session(farm, id, |s| s.write_reg(core, r, v).map_err(device_err))?;
            Ok(obj(vec![("written", vbool(true))]))
        }
        "xcp.set_cal_page" => {
            let id = proto::p_u64(params, "session")?;
            let page = proto::p_u64(params, "page")? as u8;
            with_session(farm, id, |s| s.set_cal_page(page).map_err(device_err))?;
            Ok(obj(vec![("page", vint(page as u64))]))
        }
        "xcp.cal_page" => {
            let id = proto::p_u64(params, "session")?;
            let page = with_session(farm, id, |s| s.cal_page().map_err(device_err))?;
            Ok(obj(vec![("page", vint(page as u64))]))
        }
        "trace.pull" => {
            let id = proto::p_u64(params, "session")?;
            let outcome = with_session(farm, id, |s| s.pull_trace().map_err(device_err))?;
            let digest = trace_digest(&outcome);
            Ok(obj(vec![
                ("messages", vint(outcome.messages.len() as u64)),
                ("flow", vint(outcome.flow.len() as u64)),
                ("data_log", vint(outcome.data_log.len() as u64)),
                ("trace_bytes", vint(outcome.trace_bytes as u64)),
                ("trace_hash", vint(digest)),
            ]))
        }
        "obs.journal" => {
            // The last-N journal records, newest last, plus ring totals.
            let n = proto::p_u64_or(params, "n", 64)? as usize;
            let journal = farm.journal();
            let events = journal.tail(n);
            Ok(obj(vec![
                ("total", vint(journal.total())),
                ("overwritten", vint(journal.overwritten())),
                ("correlations", vint(journal.correlations())),
                ("capacity", vint(journal.capacity())),
                ("events", events.to_value()),
            ]))
        }
        "obs.timeline" => {
            // The unified wall-clock/sim-cycle Perfetto timeline over the
            // whole retained journal, as Trace Event Format JSON.
            let journal = farm.journal();
            let records = journal.snapshot();
            Ok(obj(vec![
                ("events", vint(records.len() as u64)),
                ("timeline", vstr(mcds_obs::timeline_json(&records))),
            ]))
        }
        "obs.latency" => {
            // Per-method request-latency quantiles from the histograms
            // `handle_request` feeds; their `method` labels enumerate the
            // methods seen so far.
            let registry = farm.telemetry().registry();
            let mut methods: Vec<String> = registry
                .snapshot()
                .metrics
                .into_iter()
                .filter(|m| m.name == "farm_method_latency_ns")
                .filter_map(|m| m.labels.into_iter().find(|(k, _)| k == "method"))
                .map(|(_, v)| v)
                .collect();
            methods.sort();
            let rows = methods
                .iter()
                .map(|m| {
                    let h = registry.histogram_with(
                        "farm_method_latency_ns",
                        "Per-method wire-request handling latency",
                        &[("method", m)],
                        LATENCY_BOUNDS_NS,
                    );
                    obj(vec![
                        ("method", vstr(m.clone())),
                        ("count", vint(h.count())),
                        ("p50_ns", vint(h.approx_quantile(0.5))),
                        ("p90_ns", vint(h.approx_quantile(0.9))),
                        ("p99_ns", vint(h.approx_quantile(0.99))),
                    ])
                })
                .collect();
            Ok(obj(vec![("methods", Value::Seq(rows))]))
        }
        "health.pull" => {
            let id = proto::p_u64(params, "session")?;
            let report = with_session(farm, id, |s| Ok(s.health()))?;
            let retired: u64 = report.cores.iter().map(|c| c.retired).sum();
            Ok(obj(vec![
                ("cycle", vint(report.cycle)),
                ("retired", vint(retired)),
                ("bus_utilization", Value::Float(report.bus_utilization)),
                ("report", vstr(report.to_string())),
            ]))
        }
        _ => Err(RpcError::new(
            ERR_METHOD_NOT_FOUND,
            format!("unknown method `{method}`"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::device_spec;

    #[test]
    fn streamed_trace_digest_matches_the_formatted_one() {
        let w = Workload::Gearbox;
        let mut dev = device_spec(w, true).build();
        dev.soc_mut().load_program(&w.program());
        let mut s = Session::attach(dev, FarmConfig::default().iface, &w.program(), None)
            .expect("session attaches");
        s.run(200_000);
        let outcome = s.pull_trace().expect("trace pulls");
        assert!(!outcome.flow.is_empty(), "the pull reconstructs a flow");
        assert_eq!(
            trace_digest(&outcome),
            mcds_replay::fnv1a64(format!("{:?}{:?}", outcome.flow, outcome.data_log).as_bytes())
        );
    }
}
