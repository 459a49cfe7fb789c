//! The pieces every workload shares: host facts, the farm server a
//! consumer talks to, in-process sessions built exactly as the farm
//! builds them, and the typed RPCs of the interactive mix.

use crate::gen::DebugOp;
use mcds_farm::client::require_u64;
use mcds_farm::proto::{obj, p_words, vint};
use mcds_farm::{device_spec, ClientError, FarmClient, FarmConfig, FarmServer};
use mcds_host::{HostError, Session, SessionError};
use mcds_psi::device::DeviceError;
use mcds_replay::fnv1a64;
use mcds_telemetry::Telemetry;
use mcds_workloads::Workload;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Directory (inside the working directory) for everything a run writes:
/// evicted-session snapshots and the traced run's span export.
pub const OUT_DIR: &str = ".bench_out";

/// Client connections, worker threads and farm workers: the host's CPUs.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Host facts printed with every result, so numbers from different
/// machines are never compared.
pub fn host_facts() -> String {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "host: cpus={} profile={profile} os={} arch={}",
        nproc(),
        std::env::consts::OS,
        std::env::consts::ARCH
    )
}

/// Resident set of this process, MB (`VmRSS`).
pub fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A private eviction directory for one farm.
pub fn evict_dir(tag: &str) -> PathBuf {
    PathBuf::from(OUT_DIR).join(format!("evict-{}-{tag}", std::process::id()))
}

/// The farm configuration consumers get here: defaults, one worker per
/// CPU, snapshots under [`OUT_DIR`].
pub fn farm_config(tag: &str) -> FarmConfig {
    FarmConfig {
        workers: nproc(),
        evict_dir: evict_dir(tag),
        ..Default::default()
    }
}

/// An in-process farm server on an ephemeral localhost port.
pub fn spawn_server(tag: &str) -> FarmServer {
    FarmServer::spawn(farm_config(tag), Telemetry::new(), 0).expect("bind farm server")
}

/// Removes a farm's eviction directory.
pub fn remove_evict_dir(tag: &str) {
    let _ = std::fs::remove_dir_all(evict_dir(tag));
}

/// A session built exactly as `Farm::create` builds one: the farm's
/// device recipe, the program loaded, attached over the farm's link.
pub fn attach_session(kind: Workload, trace: bool) -> Session {
    let program = kind.program();
    let mut dev = device_spec(kind, trace).build();
    dev.soc_mut().load_program(&program);
    Session::attach(dev, FarmConfig::default().iface, &program, None).expect("session attach")
}

/// The server's `trace.pull` digest of a decoded trace.
pub fn trace_digest(outcome: &mcds_host::TraceOutcome) -> u64 {
    fnv1a64(format!("{:?}{:?}", outcome.flow, outcome.data_log).as_bytes())
}

/// True for the debug master losing bus arbitration (`BusStarved`).
pub fn is_bus_starved(e: &SessionError) -> bool {
    matches!(
        e,
        SessionError::Host(HostError::Device(DeviceError::BusStarved { .. }))
    )
}

/// What one debug op returned; compared between the farm and an
/// in-process replay of the same ops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Cycles run.
    Ran(u64),
    /// Words read.
    Words(Vec<u32>),
    /// Health snapshot: cycle and instructions retired.
    Health { cycle: u64, retired: u64 },
    /// Decoded trace: flow length and digest.
    Trace { flow: u64, digest: u64 },
    /// Device state hash.
    Hash(u64),
    /// A typed error.
    Failed,
}

/// Sends one debug op over the wire.
pub fn send_op(client: &mut FarmClient, session: u64, op: DebugOp) -> Result<Reply, ClientError> {
    let sess = || ("session", vint(session));
    Ok(match op {
        DebugOp::Run { cycles } => Reply::Ran(client.run(session, cycles)?.0),
        DebugOp::MemRead { addr, count } => {
            let ok = client.call(
                "mem.read",
                obj(vec![
                    sess(),
                    ("addr", vint(u64::from(addr))),
                    ("count", vint(count)),
                ]),
            )?;
            Reply::Words(p_words(&ok, "words").map_err(ClientError::Rpc)?)
        }
        DebugOp::Health => {
            let ok = client.call("health.pull", obj(vec![sess()]))?;
            Reply::Health {
                cycle: require_u64(&ok, "cycle")?,
                retired: require_u64(&ok, "retired")?,
            }
        }
        DebugOp::TracePull => {
            let (flow, digest) = client.pull_trace(session)?;
            Reply::Trace { flow, digest }
        }
        DebugOp::StateHash => Reply::Hash(client.state_hash(session)?),
    })
}

/// Applies one debug op to an in-process session.
pub fn apply_op(s: &mut Session, op: DebugOp) -> Result<Reply, SessionError> {
    Ok(match op {
        DebugOp::Run { cycles } => Reply::Ran(s.run(cycles).ran),
        DebugOp::MemRead { addr, count } => Reply::Words(s.read_words(addr, count as usize)?),
        DebugOp::Health => {
            let h = s.health();
            Reply::Health {
                cycle: h.cycle,
                retired: h.cores.iter().map(|c| c.retired).sum(),
            }
        }
        DebugOp::TracePull => {
            let outcome = s.pull_trace()?;
            Reply::Trace {
                flow: outcome.flow.len() as u64,
                digest: trace_digest(&outcome),
            }
        }
        DebugOp::StateHash => Reply::Hash(s.state_hash()),
    })
}

/// Seconds as a `Duration`, never below 1 ms.
pub fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s.max(0.001))
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}
