//! The three consumer workloads. Each one is set up, then measured for a
//! fixed wall time as a closed loop (every caller waits for its reply
//! before sending the next request), then checked for correctness outside
//! the timed window.
//!
//! * `farm-run`: long untraced `session.run` RPCs over TCP;
//! * `farm-debug`: a traced interactive debugger mix over TCP;
//! * `farm-churn`: create → run → evict → revive → destroy over TCP.
//!
//! The vnet fabric is measured by the traced ledger only: a CPU-bound
//! vehicle loop shows the host's CPU-speed drift in full (see
//! `benchmark/README.md`).

use crate::gen::{
    ChurnPlan, DebugOp, DebugPlan, RunPlan, CATALOG, CHURN_RUN_CYCLES, DEBUG_RECYCLE_OPS,
    RUN_LIFE_ROUNDS, RUN_MEAN_BUDGET,
};
use crate::rig::{
    apply_op, attach_session, evict_dir, ms_since, nproc, remove_evict_dir, rss_mb, send_op,
    spawn_server, Reply,
};
use crate::span::Tracer;
use crate::stats::Failures;
use mcds_farm::proto::obj;
use mcds_farm::{FarmClient, FarmServer};
use mcds_soc::ExecMode;
use mcds_workloads::Workload;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Workload names, as given to `--workload`.
pub const NAMES: [&str; 3] = ["farm-run", "farm-debug", "farm-churn"];

/// What one measured loop produced.
#[derive(Debug, Default)]
pub struct LoopStats {
    /// Wall seconds from the first request to the last reply.
    pub window_s: f64,
    /// Completed ops per second, summed over the client threads. Each
    /// thread's rate is its ops over the time spent inside them, so
    /// the benchmark's own work between ops (recycling sessions for
    /// stationarity, recording hashes for the correctness check) never
    /// counts against the program.
    pub ops_per_s: f64,
    /// Simulated cycles per second, summed the same way.
    pub cycles_per_s: f64,
    /// Latency of every op, ms (failed ops included).
    pub latencies_ms: Vec<f64>,
    /// Simulated cycles completed.
    pub cycles: u64,
    /// Attempted/failed ops.
    pub failures: Failures,
    /// Bytes on disk of each evicted session.
    pub evict_bytes: Vec<f64>,
    /// Resident-set samples taken every [`RSS_EVERY`] during the loop, MB.
    pub rss_mb: Vec<f64>,
}

/// How often the resident set is sampled during a loop.
const RSS_EVERY: Duration = Duration::from_millis(50);

impl LoopStats {
    fn merge(&mut self, other: LoopStats) {
        self.ops_per_s += other.ops_per_s;
        self.cycles_per_s += other.cycles_per_s;
        self.latencies_ms.extend(other.latencies_ms);
        self.cycles += other.cycles;
        self.failures.merge(other.failures);
        self.evict_bytes.extend(other.evict_bytes);
    }

    /// Simulated Mcycles per second.
    pub fn sim_mcps(&self) -> f64 {
        self.cycles_per_s / 1e6
    }
}

/// A set-up workload.
pub trait Bench {
    /// Runs the closed loop for `dur`, spans going to `tracer`.
    fn measure(&mut self, dur: Duration, tracer: &Tracer) -> LoopStats;
    /// Checks every output the loops produced against an in-process
    /// reference, then tears the workload down.
    ///
    /// # Errors
    ///
    /// A description of the first mismatch.
    fn verify(self: Box<Self>) -> Result<(), String>;
}

/// Sets up workload `name` under `seed`; `tag` keeps the farm's files
/// apart from other set-ups in the same run.
///
/// # Errors
///
/// An unknown workload name.
pub fn setup(name: &str, seed: u64, tag: &str) -> Result<Box<dyn Bench>, String> {
    Ok(match name {
        "farm-run" => Box::new(FarmRun::setup(seed, tag)),
        "farm-debug" => Box::new(FarmDebug::setup(seed, tag)),
        "farm-churn" => Box::new(FarmChurn::setup(seed, tag)),
        other => return Err(format!("unknown workload `{other}` (one of {NAMES:?})")),
    })
}

/// Runs `f` on one scoped thread per state until `dur` has passed, each
/// thread finishing its in-flight op, and merges what they measured.
fn closed_loop<S: Send>(
    states: &mut [S],
    dur: Duration,
    f: impl Fn(&mut S, u32, &mut LoopStats) + Sync,
) -> LoopStats {
    let start = Instant::now();
    let deadline = start + dur;
    let done = AtomicBool::new(false);
    let (parts, rss_mb): (Vec<LoopStats>, Vec<f64>) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut samples = Vec::new();
            while !done.load(Ordering::Relaxed) {
                samples.push(rss_mb());
                std::thread::sleep(RSS_EVERY);
            }
            samples
        });
        let handles: Vec<_> = states
            .iter_mut()
            .enumerate()
            .map(|(i, state)| {
                let f = &f;
                scope.spawn(move || {
                    let mut stats = LoopStats::default();
                    while Instant::now() < deadline {
                        f(state, i as u32, &mut stats);
                    }
                    stats.window_s = start.elapsed().as_secs_f64();
                    let busy_s = stats.latencies_ms.iter().sum::<f64>() / 1e3;
                    stats.ops_per_s = stats.latencies_ms.len() as f64 / busy_s;
                    stats.cycles_per_s = stats.cycles as f64 / busy_s;
                    stats
                })
            })
            .collect();
        let parts = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        done.store(true, Ordering::Relaxed);
        (parts, sampler.join().expect("rss sampler"))
    });
    let mut total = LoopStats {
        rss_mb,
        ..LoopStats::default()
    };
    for stats in parts {
        total.window_s = total.window_s.max(stats.window_s);
        total.merge(stats);
    }
    total
}

/// Runs `check` over `jobs` on up to [`nproc`] threads; the first error
/// wins.
fn verify_parallel<J: Send>(
    jobs: Vec<J>,
    check: impl Fn(J) -> Result<(), String> + Sync,
) -> Result<(), String> {
    let per = jobs.len().div_ceil(nproc()).max(1);
    let mut chunks: Vec<Vec<J>> = Vec::new();
    for job in jobs {
        match chunks.last_mut() {
            Some(c) if c.len() < per => c.push(job),
            _ => chunks.push(vec![job]),
        }
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                let check = &check;
                scope.spawn(move || chunk.into_iter().try_for_each(check))
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("verify thread"))
    })
}

/// Pings each fresh connection a few times before timing, so the first
/// timed requests do not ride on a new socket's quick-ack start.
const WARMUP_PINGS: usize = 4;

/// Connects one client per CPU to `server` in parallel, warms each
/// connection up, then sets each up with `init` (its index and its
/// connection).
fn connect_clients<S: Send>(
    server: &FarmServer,
    init: impl Fn(u64, FarmClient) -> S + Sync,
) -> Vec<S> {
    let addr = server.local_addr();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..nproc() as u64)
            .map(|c| {
                let init = &init;
                scope.spawn(move || {
                    let mut client = FarmClient::connect(addr).expect("connect");
                    for _ in 0..WARMUP_PINGS {
                        client.call("farm.ping", obj(vec![])).expect("farm.ping");
                    }
                    init(c, client)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client set-up"))
            .collect()
    })
}

// ---- farm-run -------------------------------------------------------------

struct RunSession {
    kind: Workload,
    id: u64,
    /// `(budget requested, cycles run)` of every `session.run`.
    runs: Vec<(u64, u64)>,
}

impl RunSession {
    fn create(client: &mut FarmClient, kind: Workload) -> RunSession {
        RunSession {
            kind,
            id: client.create(kind.name(), false).expect("session.create"),
            runs: Vec::new(),
        }
    }

    fn run(&mut self, client: &mut FarmClient, budget: u64) -> Result<u64, mcds_farm::ClientError> {
        let (ran, _) = client.run(self.id, budget)?;
        self.runs.push((budget, ran));
        Ok(ran)
    }
}

struct RunClient {
    client: FarmClient,
    plan: RunPlan,
    /// One live session per catalog kind, indexed like [`CATALOG`].
    sessions: Vec<RunSession>,
    rounds: usize,
    /// Replaced sessions with the state hash they were replaced at.
    finished: Vec<(RunSession, u64)>,
}

impl RunClient {
    /// Replaces the session whose turn it is (one per round, staggered)
    /// with a fresh one of the same kind. Not part of any timed op: it
    /// only keeps session age stationary.
    fn recycle(&mut self) {
        let slot = self.rounds % RUN_LIFE_ROUNDS;
        let kind = self.sessions[slot].kind;
        let fresh = RunSession::create(&mut self.client, kind);
        let old = std::mem::replace(&mut self.sessions[slot], fresh);
        let hash = self.client.state_hash(old.id).expect("session.state_hash");
        self.client.destroy(old.id).expect("session.destroy");
        self.finished.push((old, hash));
    }
}

struct FarmRun {
    clients: Vec<RunClient>,
    server: FarmServer,
    tag: String,
}

impl FarmRun {
    fn setup(seed: u64, tag: &str) -> FarmRun {
        let server = spawn_server(tag);
        let clients = connect_clients(&server, |c, mut client| {
            // Pre-age the staggered sessions to their steady-state ages:
            // the session replaced after the next round has lived
            // `RUN_LIFE_ROUNDS - 1` rounds, the one after it one fewer.
            let sessions = CATALOG
                .iter()
                .enumerate()
                .map(|(slot, &kind)| {
                    let mut s = RunSession::create(&mut client, kind);
                    let age = (RUN_LIFE_ROUNDS - 1 - slot) as u64 * RUN_MEAN_BUDGET;
                    if age > 0 {
                        s.run(&mut client, age).expect("pre-age run");
                    }
                    s
                })
                .collect();
            RunClient {
                client,
                plan: RunPlan::new(seed, c),
                sessions,
                rounds: 0,
                finished: Vec::new(),
            }
        });
        FarmRun {
            clients,
            server,
            tag: tag.to_string(),
        }
    }
}

impl Bench for FarmRun {
    fn measure(&mut self, dur: Duration, tracer: &Tracer) -> LoopStats {
        closed_loop(&mut self.clients, dur, |c, thread, stats| {
            // One op: a round of `session.run` RPCs, one per session.
            let op = tracer.new_op();
            let span = tracer.start(op, None, "bench", "run round", thread);
            let t = Instant::now();
            let mut ok = true;
            for (k, budget) in c.plan.next_round() {
                let session = &mut c.sessions[k];
                let client = &mut c.client;
                match tracer.leaf(
                    op,
                    Some(&span),
                    "farm.server",
                    "session.run",
                    thread,
                    || session.run(client, budget),
                ) {
                    Ok(ran) => stats.cycles += ran,
                    Err(_) => ok = false,
                }
            }
            stats.latencies_ms.push(ms_since(t));
            tracer.finish(span);
            stats.failures.record(ok);
            c.recycle();
            c.rounds += 1;
        })
    }

    fn verify(self: Box<Self>) -> Result<(), String> {
        let FarmRun {
            clients,
            server,
            tag,
        } = *self;
        let mut jobs = Vec::new();
        for mut c in clients {
            for s in std::mem::take(&mut c.sessions) {
                let hash = c.client.state_hash(s.id).map_err(|e| e.to_string())?;
                jobs.push((s, hash));
            }
            jobs.extend(c.finished);
        }
        drop(server);
        remove_evict_dir(&tag);
        // The same budgets in-process on the exact per-cycle reference
        // must land on the state the farm reported.
        verify_parallel(jobs, |(s, hash)| {
            let mut reference = attach_session(s.kind, false);
            reference.set_exec_mode(ExecMode::PerCycle);
            for &(budget, ran) in &s.runs {
                let got = reference.run(budget).ran;
                if got != ran {
                    return Err(format!(
                        "{}: ran {got} in-process, {ran} on the farm",
                        s.kind.name()
                    ));
                }
            }
            if reference.state_hash() != hash {
                return Err(format!(
                    "{} session {}: farm hash {hash:#x} != per-cycle reference {:#x}",
                    s.kind.name(),
                    s.id,
                    reference.state_hash()
                ));
            }
            Ok(())
        })
    }
}

// ---- farm-debug -----------------------------------------------------------

struct DebugSession {
    kind: Workload,
    id: u64,
    log: Vec<(DebugOp, Reply)>,
}

struct DebugClient {
    client: FarmClient,
    plan: DebugPlan,
    current: DebugSession,
    retired: Vec<DebugSession>,
}

impl DebugClient {
    fn open(client: &mut FarmClient, kind: Workload) -> DebugSession {
        DebugSession {
            kind,
            id: client.create(kind.name(), true).expect("session.create"),
            log: Vec::new(),
        }
    }

    /// Replaces the session once it has served its ops. Not part of any
    /// timed op: it only keeps trace backlog and session age stationary.
    fn recycle(&mut self) {
        self.client
            .destroy(self.current.id)
            .expect("session.destroy");
        let fresh = DebugClient::open(&mut self.client, self.plan.next_kind());
        self.retired
            .push(std::mem::replace(&mut self.current, fresh));
    }
}

struct FarmDebug {
    clients: Vec<DebugClient>,
    server: FarmServer,
    tag: String,
}

impl FarmDebug {
    fn setup(seed: u64, tag: &str) -> FarmDebug {
        let server = spawn_server(tag);
        let clients = connect_clients(&server, |c, mut client| {
            let mut plan = DebugPlan::new(seed, c);
            let current = DebugClient::open(&mut client, plan.next_kind());
            DebugClient {
                client,
                plan,
                current,
                retired: Vec::new(),
            }
        });
        FarmDebug {
            clients,
            server,
            tag: tag.to_string(),
        }
    }
}

impl Bench for FarmDebug {
    fn measure(&mut self, dur: Duration, tracer: &Tracer) -> LoopStats {
        closed_loop(&mut self.clients, dur, |c, thread, stats| {
            if c.current.log.len() >= DEBUG_RECYCLE_OPS {
                c.recycle();
            }
            let op = tracer.new_op();
            let next = c.plan.next_op().on(c.current.kind);
            let span = tracer.start(op, None, "bench", "debug op", thread);
            let t = Instant::now();
            let reply = tracer.leaf(
                op,
                Some(&span),
                "farm.server",
                next.method(),
                thread,
                || send_op(&mut c.client, c.current.id, next),
            );
            stats.latencies_ms.push(ms_since(t));
            tracer.finish(span);
            stats.failures.record(reply.is_ok());
            if let Ok(Reply::Ran(ran)) = &reply {
                stats.cycles += ran;
            }
            c.current.log.push((next, reply.unwrap_or(Reply::Failed)));
        })
    }

    fn verify(self: Box<Self>) -> Result<(), String> {
        let FarmDebug {
            clients,
            server,
            tag,
        } = *self;
        let mut jobs = Vec::new();
        for c in clients {
            jobs.extend(c.retired);
            jobs.push(c.current);
        }
        drop(server);
        remove_evict_dir(&tag);
        // Replaying each session's ops on an in-process session must give
        // the same reply, error for error.
        verify_parallel(jobs, |s| {
            let mut reference = attach_session(s.kind, true);
            for (i, (op, reply)) in s.log.iter().enumerate() {
                let got = apply_op(&mut reference, *op).unwrap_or(Reply::Failed);
                if &got != reply {
                    return Err(format!(
                        "{} session {} op {i} {op:?}: farm {reply:?} != in-process {got:?}",
                        s.kind.name(),
                        s.id
                    ));
                }
            }
            Ok(())
        })
    }
}

// ---- farm-churn -----------------------------------------------------------

struct ChurnClient {
    client: FarmClient,
    plan: ChurnPlan,
    /// `(kind, hash at eviction)` of every lifecycle.
    log: Vec<(Workload, u64)>,
    /// Revivals whose hash differed from the evicted one.
    mismatches: Vec<String>,
}

impl ChurnClient {
    /// One create → run → evict → revive (hash) → destroy lifecycle.
    fn lifecycle(&mut self, tag: &str, tracer: &Tracer, thread: u32, stats: &mut LoopStats) {
        let kind = self.plan.next_kind();
        let op = tracer.new_op();
        let span = tracer.start(op, None, "bench", "lifecycle", thread);
        let (parent, layer) = (Some(&span), "farm.server");
        let client = &mut self.client;
        let t = Instant::now();
        let mut created = None;
        let result = (|| {
            let id = tracer.leaf(op, parent, layer, "session.create", thread, || {
                client.create(kind.name(), false)
            })?;
            created = Some(id);
            tracer.leaf(op, parent, layer, "session.run", thread, || {
                client.run(id, CHURN_RUN_CYCLES)
            })?;
            let (_, evicted) = tracer.leaf(op, parent, layer, "session.evict", thread, || {
                client.evict(id)
            })?;
            let bytes = std::fs::metadata(evict_dir(tag).join(format!("session_{id}.json")));
            let revived = tracer.leaf(op, parent, layer, "session.state_hash", thread, || {
                client.state_hash(id)
            })?;
            tracer.leaf(op, parent, layer, "session.destroy", thread, || {
                client.destroy(id)
            })?;
            Ok::<_, mcds_farm::ClientError>((evicted, revived, bytes.map(|m| m.len())))
        })();
        stats.latencies_ms.push(ms_since(t));
        tracer.finish(span);
        stats.failures.record(result.is_ok());
        match result {
            Ok((evicted, revived, bytes)) => {
                stats.cycles += CHURN_RUN_CYCLES;
                if let Ok(b) = bytes {
                    stats.evict_bytes.push(b as f64);
                }
                if revived != evicted {
                    self.mismatches.push(format!(
                        "{}: revived {revived:#x} != evicted {evicted:#x}",
                        kind.name()
                    ));
                }
                self.log.push((kind, evicted));
            }
            Err(_) => {
                if let Some(id) = created {
                    let _ = client.destroy(id);
                }
            }
        }
    }
}

struct FarmChurn {
    clients: Vec<ChurnClient>,
    server: FarmServer,
    tag: String,
}

impl FarmChurn {
    fn setup(seed: u64, tag: &str) -> FarmChurn {
        let server = spawn_server(tag);
        let off = Tracer::new(false);
        let clients = connect_clients(&server, |c, client| {
            let mut churn = ChurnClient {
                client,
                plan: ChurnPlan::new(seed, c),
                log: Vec::new(),
                mismatches: Vec::new(),
            };
            // One warm-up lifecycle: the snapshot directory exists and the
            // first-write costs are paid before timing.
            churn.lifecycle(tag, &off, c as u32, &mut LoopStats::default());
            churn
        });
        FarmChurn {
            clients,
            server,
            tag: tag.to_string(),
        }
    }
}

impl Bench for FarmChurn {
    fn measure(&mut self, dur: Duration, tracer: &Tracer) -> LoopStats {
        let tag = self.tag.clone();
        closed_loop(&mut self.clients, dur, |c, thread, stats| {
            c.lifecycle(&tag, tracer, thread, stats)
        })
    }

    fn verify(self: Box<Self>) -> Result<(), String> {
        let FarmChurn {
            clients,
            server,
            tag,
        } = *self;
        drop(server);
        remove_evict_dir(&tag);
        let mut jobs = Vec::new();
        for c in clients {
            if let Some(m) = c.mismatches.first() {
                return Err(m.clone());
            }
            jobs.extend(c.log);
        }
        // Each evicted state must be what the same run gives in-process.
        verify_parallel(jobs, |(kind, evicted)| {
            let mut reference = attach_session(kind, false);
            reference.run(CHURN_RUN_CYCLES);
            if reference.state_hash() != evicted {
                return Err(format!(
                    "{}: evicted {evicted:#x} != in-process {:#x}",
                    kind.name(),
                    reference.state_hash()
                ));
            }
            Ok(())
        })
    }
}
