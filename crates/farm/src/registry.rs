//! The session registry: every simulated device the farm owns, keyed by
//! server-assigned id, with checkout/checkin concurrency control and
//! idle-session eviction to disk.
//!
//! A session is always in one of three states:
//!
//! * **Live** — resident in memory, ready to be checked out;
//! * **Busy** — checked out by exactly one worker or request handler
//!   (checkout blocks until it is checked back in);
//! * **Evicted** — suspended to a [`SessionSnapshot`] JSON file on disk,
//!   holding only its path, byte size and state hash in memory.
//!
//! Eviction is transparent: checking out an evicted session revives it —
//! the device is rebuilt from the session's [`DeviceSpec`], the snapshot
//! restored, and the revived state hash verified against the hash recorded
//! at suspend time. A memory budget ([`FarmConfig::memory_budget_bytes`])
//! triggers automatic least-recently-used eviction at checkin.

use crate::proto::{RpcError, ERR_DEVICE, ERR_NO_SESSION, ERR_SNAPSHOT};
use mcds::McdsConfig;
use mcds_host::{FleetHealth, Session, SessionSnapshot};
use mcds_psi::device::{DeviceSpec, DeviceVariant};
use mcds_psi::interface::InterfaceKind;
use mcds_soc::soc::memmap;
use mcds_telemetry::{Counter, Gauge, Telemetry};
use mcds_workloads::Workload;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Condvar, Mutex};

/// Estimated resident bytes of one live session — dominated by the three
/// memory images (2 MB flash + 256 KB SRAM + 512 KB emulation RAM). The
/// eviction budget is counted in these units.
pub const SESSION_RESIDENT_BYTES: usize =
    (memmap::FLASH_SIZE + memmap::SRAM_SIZE + memmap::EMEM_SIZE) as usize;

/// Farm-wide configuration.
#[derive(Debug, Clone)]
pub struct FarmConfig {
    /// Scheduler worker threads.
    pub workers: usize,
    /// Cycles one scheduling quantum runs before a session rotates to the
    /// back of the run queue.
    pub quantum: u64,
    /// Resident-memory budget; live sessions beyond it are evicted
    /// least-recently-used at checkin. `usize::MAX` disables eviction
    /// pressure (explicit `session.evict` still works).
    pub memory_budget_bytes: usize,
    /// Directory for suspended-session snapshots.
    pub evict_dir: PathBuf,
    /// Debug link every farm session attaches over.
    pub iface: InterfaceKind,
    /// Capacity of the farm's obs journal ring (last-N events retained
    /// for `obs.journal`, the unified timeline and flight-recorder
    /// dumps).
    pub journal_capacity: usize,
}

impl Default for FarmConfig {
    fn default() -> FarmConfig {
        FarmConfig {
            workers: 4,
            quantum: 50_000,
            memory_budget_bytes: usize::MAX,
            evict_dir: std::env::temp_dir().join(format!("mcds-farm-{}", std::process::id())),
            iface: InterfaceKind::Jtag,
            journal_capacity: 4096,
        }
    }
}

/// The device recipe farm sessions are built from: the workload's core
/// layout on the standard variant, with the standard generous tracing
/// configuration when `trace` is requested.
pub fn device_spec(workload: Workload, trace: bool) -> DeviceSpec {
    DeviceSpec {
        variant: DeviceVariant::EdSideBooster,
        cores: workload.core_configs(),
        mcds: trace.then(|| McdsConfig::program_trace(workload.cores())),
        with_dma: false,
        flash_wait_states: None,
    }
}

/// Public per-session book-keeping, as reported by `session.list`.
#[derive(Debug, Clone)]
pub struct SessionInfo {
    /// Server-assigned id.
    pub id: u64,
    /// The workload the session runs.
    pub workload: Workload,
    /// Whether tracing was configured at creation.
    pub trace: bool,
    /// "live", "busy" or "evicted".
    pub state: &'static str,
    /// Whether a client currently holds the attach marker.
    pub attached: bool,
    /// Total cycles the session has run.
    pub cycles_total: u64,
    /// The vehicle group this session belongs to, if any.
    pub vehicle: Option<String>,
}

/// Aggregate farm statistics, as reported by `farm.stats`.
#[derive(Debug, Clone, Default)]
pub struct FarmStats {
    /// Sessions currently live (including busy).
    pub sessions_live: usize,
    /// Sessions currently evicted to disk.
    pub sessions_evicted: usize,
    /// Bytes of suspended snapshots on disk.
    pub evicted_bytes: usize,
    /// Sessions created since start.
    pub created: u64,
    /// Evictions since start.
    pub evicted: u64,
    /// Revivals since start.
    pub revived: u64,
    /// Destructions since start.
    pub destroyed: u64,
    /// Cycles run across all sessions since start.
    pub cycles_total: u64,
    /// Of `cycles_total`, cycles the execution kernel skipped as provably
    /// quiescent (no per-cycle work was done for them).
    pub cycles_skipped_total: u64,
    /// Of `cycles_total`, cycles consumed by batched basic-block
    /// execution rather than exact per-cycle stepping.
    pub cycles_batched_total: u64,
}

struct Meta {
    workload: Workload,
    spec: DeviceSpec,
    trace: bool,
    attached: bool,
    last_activity: u64,
    cycles_total: u64,
    vehicle: Option<String>,
}

enum SlotState {
    Live(Box<Session>),
    Busy,
    Evicted {
        path: PathBuf,
        state_hash: u64,
        bytes: usize,
    },
}

struct Slot {
    meta: Meta,
    state: SlotState,
}

struct Inner {
    next_id: u64,
    seq: u64,
    slots: HashMap<u64, Slot>,
    stats: FarmStats,
}

struct Metrics {
    created: Counter,
    evicted: Counter,
    revived: Counter,
    destroyed: Counter,
    cycles: Counter,
    cycles_skipped: Counter,
    cycles_batched: Counter,
    live: Gauge,
    evicted_now: Gauge,
    evicted_bytes: Gauge,
}

/// The farm: a registry of sessions plus the telemetry that observes it.
pub struct Farm {
    inner: Mutex<Inner>,
    cond: Condvar,
    config: FarmConfig,
    tel: Telemetry,
    metrics: Metrics,
    journal: mcds_obs::Journal,
}

impl Farm {
    /// Builds an empty farm observing into `tel`.
    pub fn new(config: FarmConfig, tel: Telemetry) -> Farm {
        let r = tel.registry();
        let metrics = Metrics {
            created: r.counter("farm_sessions_created_total", "Sessions created"),
            evicted: r.counter("farm_sessions_evicted_total", "Sessions evicted to disk"),
            revived: r.counter("farm_sessions_revived_total", "Sessions revived from disk"),
            destroyed: r.counter("farm_sessions_destroyed_total", "Sessions destroyed"),
            cycles: r.counter("farm_cycles_total", "Cycles run across all sessions"),
            cycles_skipped: r.counter(
                "farm_cycles_skipped_total",
                "Cycles the execution kernel skipped as quiescent",
            ),
            cycles_batched: r.counter(
                "farm_cycles_batched_total",
                "Cycles executed as batched basic blocks",
            ),
            live: r.gauge("farm_sessions_live", "Sessions resident in memory"),
            evicted_now: r.gauge("farm_sessions_evicted", "Sessions suspended on disk"),
            evicted_bytes: r.gauge("farm_evicted_bytes", "Bytes of suspended snapshots"),
        };
        let journal = mcds_obs::Journal::new(config.journal_capacity);
        Farm {
            inner: Mutex::new(Inner {
                next_id: 1,
                seq: 0,
                slots: HashMap::new(),
                stats: FarmStats::default(),
            }),
            cond: Condvar::new(),
            config,
            tel,
            metrics,
            journal,
        }
    }

    /// The farm's configuration.
    pub fn config(&self) -> &FarmConfig {
        &self.config
    }

    /// The telemetry hub the farm records into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    /// The farm's obs journal: the bounded cross-layer event ring every
    /// request's causal trail is recorded into.
    pub fn journal(&self) -> &mcds_obs::Journal {
        &self.journal
    }

    /// Creates a new session running `workload` (optionally with program
    /// trace configured) and returns its id. The session starts live and
    /// unattached at cycle ~0 (attachment handshake cost only).
    ///
    /// # Errors
    ///
    /// [`ERR_DEVICE`] when the attach handshake fails.
    pub fn create(&self, workload: Workload, trace: bool) -> Result<u64, RpcError> {
        self.create_in_vehicle(workload, trace, None)
    }

    /// Like [`Farm::create`], additionally tagging the session as a member
    /// ECU of the named vehicle group. Grouped sessions render together
    /// (with fabric stats, when a vehicle scheduler reports them) in
    /// [`Farm::fleet_health`].
    ///
    /// # Errors
    ///
    /// [`ERR_DEVICE`] when the attach handshake fails.
    pub fn create_in_vehicle(
        &self,
        workload: Workload,
        trace: bool,
        vehicle: Option<String>,
    ) -> Result<u64, RpcError> {
        let spec = device_spec(workload, trace);
        let mut dev = spec.build();
        dev.soc_mut().load_program(&workload.program());
        let session = Session::attach(dev, self.config.iface, &workload.program(), None)
            .map_err(|e| RpcError::new(ERR_DEVICE, format!("session attach failed: {e}")))?;
        let mut inner = self.inner.lock().unwrap();
        let id = inner.next_id;
        inner.next_id += 1;
        inner.seq += 1;
        let seq = inner.seq;
        inner.slots.insert(
            id,
            Slot {
                meta: Meta {
                    workload,
                    spec,
                    trace,
                    attached: false,
                    last_activity: seq,
                    cycles_total: 0,
                    vehicle,
                },
                state: SlotState::Live(Box::new(session)),
            },
        );
        inner.stats.created += 1;
        self.metrics.created.inc();
        self.refresh_gauges(&inner);
        self.enforce_budget(&mut inner);
        drop(inner);
        self.cond.notify_all();
        Ok(id)
    }

    /// Checks a session out for exclusive use, blocking while another
    /// holder has it and transparently reviving it from disk if evicted.
    /// Every checkout MUST be paired with [`Farm::checkin`] (or
    /// [`Farm::discard`] on destruction).
    ///
    /// # Errors
    ///
    /// [`ERR_NO_SESSION`] for unknown ids; [`ERR_SNAPSHOT`] when revival
    /// fails (unreadable file, corrupt contents, state-hash mismatch).
    pub fn checkout(&self, id: u64) -> Result<Box<Session>, RpcError> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            let slot = inner
                .slots
                .get_mut(&id)
                .ok_or_else(|| RpcError::new(ERR_NO_SESSION, format!("no session {id}")))?;
            match &slot.state {
                SlotState::Live(_) => {
                    let SlotState::Live(session) =
                        std::mem::replace(&mut slot.state, SlotState::Busy)
                    else {
                        unreachable!()
                    };
                    return Ok(session);
                }
                SlotState::Busy => {
                    inner = self.cond.wait(inner).unwrap();
                }
                SlotState::Evicted {
                    path,
                    state_hash,
                    bytes,
                } => {
                    let (path, expected_hash, bytes) = (path.clone(), *state_hash, *bytes);
                    let workload = slot.meta.workload;
                    let spec = slot.meta.spec.clone();
                    slot.state = SlotState::Busy;
                    drop(inner);
                    let revived = self.revive(&path, expected_hash, workload, &spec);
                    let mut relock = self.inner.lock().unwrap();
                    match revived {
                        Ok(session) => {
                            let _ = std::fs::remove_file(&path);
                            relock.stats.revived += 1;
                            relock.stats.evicted_bytes =
                                relock.stats.evicted_bytes.saturating_sub(bytes);
                            self.metrics.revived.inc();
                            self.journal.record(
                                None,
                                None,
                                mcds_obs::ObsEvent::SessionRevived { session: id },
                            );
                            if let Some(slot) = relock.slots.get_mut(&id) {
                                slot.state = SlotState::Busy;
                            }
                            self.refresh_gauges(&relock);
                            return Ok(session);
                        }
                        Err(e) => {
                            // Put the eviction record back so a later retry
                            // (or destroy) still sees the session.
                            if let Some(slot) = relock.slots.get_mut(&id) {
                                slot.state = SlotState::Evicted {
                                    path,
                                    state_hash: expected_hash,
                                    bytes,
                                };
                            }
                            drop(relock);
                            self.cond.notify_all();
                            return Err(e);
                        }
                    }
                }
            }
        }
    }

    fn revive(
        &self,
        path: &PathBuf,
        expected_hash: u64,
        workload: Workload,
        spec: &DeviceSpec,
    ) -> Result<Box<Session>, RpcError> {
        let json = std::fs::read_to_string(path)
            .map_err(|e| RpcError::new(ERR_SNAPSHOT, format!("snapshot read failed: {e}")))?;
        let snap: SessionSnapshot = serde_json::from_str(&json)
            .map_err(|e| RpcError::new(ERR_SNAPSHOT, format!("snapshot parse failed: {e}")))?;
        snap.soc
            .verify_integrity()
            .map_err(|e| RpcError::new(ERR_SNAPSHOT, format!("snapshot corrupt: {e}")))?;
        let dev = spec.build();
        let session = Session::resume(dev, self.config.iface, &workload.program(), &snap)
            .map_err(|e| RpcError::new(ERR_SNAPSHOT, format!("snapshot resume failed: {e}")))?;
        if session.state_hash() != expected_hash {
            return Err(RpcError::new(
                ERR_SNAPSHOT,
                format!(
                    "revived state hash {:#018x} != recorded {:#018x}",
                    session.state_hash(),
                    expected_hash
                ),
            ));
        }
        Ok(Box::new(session))
    }

    /// Returns a checked-out session, crediting `ran_cycles` to its tally
    /// and the farm totals, then applies eviction pressure.
    pub fn checkin(&self, id: u64, session: Box<Session>, ran_cycles: u64) {
        let mut inner = self.inner.lock().unwrap();
        inner.seq += 1;
        let seq = inner.seq;
        if let Some(slot) = inner.slots.get_mut(&id) {
            slot.meta.last_activity = seq;
            slot.meta.cycles_total += ran_cycles;
            slot.state = SlotState::Live(session);
        }
        inner.stats.cycles_total += ran_cycles;
        if ran_cycles > 0 {
            self.metrics.cycles.add(ran_cycles);
        }
        self.enforce_budget(&mut inner);
        self.refresh_gauges(&inner);
        drop(inner);
        self.cond.notify_all();
    }

    /// Credits execution-kernel accounting for a quantum: of the cycles
    /// just run, how many were skipped as quiescent and how many were
    /// executed as batched blocks (the scheduler reads the deltas off the
    /// session's [`mcds_soc::ExecStats`] around each quantum).
    pub fn credit_kernel(&self, skipped: u64, batched: u64) {
        if skipped == 0 && batched == 0 {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        inner.stats.cycles_skipped_total += skipped;
        inner.stats.cycles_batched_total += batched;
        drop(inner);
        if skipped > 0 {
            self.metrics.cycles_skipped.add(skipped);
        }
        if batched > 0 {
            self.metrics.cycles_batched.add(batched);
        }
    }

    /// Drops a checked-out session and removes its slot — the destroy path.
    pub fn discard(&self, id: u64, session: Box<Session>) {
        drop(session);
        let mut inner = self.inner.lock().unwrap();
        inner.slots.remove(&id);
        inner.stats.destroyed += 1;
        self.metrics.destroyed.inc();
        self.refresh_gauges(&inner);
        drop(inner);
        self.cond.notify_all();
    }

    /// Destroys a session in any state (waiting while busy). Evicted
    /// sessions have their snapshot file deleted.
    ///
    /// # Errors
    ///
    /// [`ERR_NO_SESSION`] for unknown ids.
    pub fn destroy(&self, id: u64) -> Result<(), RpcError> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            let slot = inner
                .slots
                .get(&id)
                .ok_or_else(|| RpcError::new(ERR_NO_SESSION, format!("no session {id}")))?;
            match &slot.state {
                SlotState::Busy => inner = self.cond.wait(inner).unwrap(),
                SlotState::Live(_) => {
                    inner.slots.remove(&id);
                    break;
                }
                SlotState::Evicted { path, bytes, .. } => {
                    let _ = std::fs::remove_file(path);
                    let bytes = *bytes;
                    inner.stats.evicted_bytes = inner.stats.evicted_bytes.saturating_sub(bytes);
                    inner.slots.remove(&id);
                    break;
                }
            }
        }
        inner.stats.destroyed += 1;
        self.metrics.destroyed.inc();
        self.refresh_gauges(&inner);
        drop(inner);
        self.cond.notify_all();
        Ok(())
    }

    /// Explicitly evicts a session to disk (waiting while busy). Returns
    /// `(bytes, state_hash)` of the suspended snapshot, `bytes` being the
    /// length of the JSON file written.
    ///
    /// # Errors
    ///
    /// [`ERR_NO_SESSION`] for unknown ids (an already-evicted session just
    /// reports its existing record); [`ERR_SNAPSHOT`] on write failure.
    pub fn evict(&self, id: u64) -> Result<(usize, u64), RpcError> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            let slot = inner
                .slots
                .get(&id)
                .ok_or_else(|| RpcError::new(ERR_NO_SESSION, format!("no session {id}")))?;
            match &slot.state {
                SlotState::Busy => inner = self.cond.wait(inner).unwrap(),
                SlotState::Evicted {
                    bytes, state_hash, ..
                } => return Ok((*bytes, *state_hash)),
                SlotState::Live(_) => {
                    let result = self.evict_slot(&mut inner, id)?;
                    self.refresh_gauges(&inner);
                    drop(inner);
                    self.cond.notify_all();
                    return Ok(result);
                }
            }
        }
    }

    /// Writes one Live slot's snapshot to disk, then marks it Evicted. If
    /// the write fails the session was never disturbed and stays Live.
    /// Caller must hold the lock and have verified the slot is Live.
    fn evict_slot(&self, inner: &mut Inner, id: u64) -> Result<(usize, u64), RpcError> {
        let slot = inner.slots.get_mut(&id).expect("caller verified slot");
        let SlotState::Live(session) = &slot.state else {
            unreachable!("caller verified Live");
        };
        let snap = session.snapshot();
        let state_hash = snap.state_hash();
        let path = self.config.evict_dir.join(format!("session_{id}.json"));
        let bytes = mcds_replay::write_json_atomic(&path, &snap)
            .map_err(|e| RpcError::new(ERR_SNAPSHOT, format!("snapshot write failed: {e}")))?;
        slot.state = SlotState::Evicted {
            path,
            state_hash,
            bytes,
        };
        inner.stats.evicted += 1;
        inner.stats.evicted_bytes += bytes;
        self.metrics.evicted.inc();
        self.journal.record(
            None,
            None,
            mcds_obs::ObsEvent::SessionEvicted {
                session: id,
                bytes: bytes as u64,
            },
        );
        Ok((bytes, state_hash))
    }

    /// LRU-evicts live sessions while the resident estimate exceeds the
    /// budget. Busy sessions are skipped (they are owned elsewhere).
    fn enforce_budget(&self, inner: &mut Inner) {
        loop {
            let live: Vec<(u64, u64)> = inner
                .slots
                .iter()
                .filter(|(_, s)| matches!(s.state, SlotState::Live(_)))
                .map(|(&id, s)| (s.meta.last_activity, id))
                .collect();
            if live.len() * SESSION_RESIDENT_BYTES <= self.config.memory_budget_bytes
                || live.len() <= 1
            {
                return;
            }
            let (_, victim) = live.iter().min().copied().expect("non-empty");
            if self.evict_slot(inner, victim).is_err() {
                return; // disk trouble: stop applying pressure
            }
        }
    }

    /// Marks a session attached, reviving it from disk first if needed (the
    /// "restore on next attach" path).
    ///
    /// # Errors
    ///
    /// [`ERR_NO_SESSION`], [`crate::proto::ERR_ALREADY_ATTACHED`], or
    /// revival errors.
    pub fn attach(&self, id: u64) -> Result<(), RpcError> {
        let session = self.checkout(id)?;
        let mut inner = self.inner.lock().unwrap();
        let already = inner
            .slots
            .get(&id)
            .map(|s| s.meta.attached)
            .unwrap_or(false);
        if already {
            if let Some(slot) = inner.slots.get_mut(&id) {
                slot.state = SlotState::Live(session);
            }
            drop(inner);
            self.cond.notify_all();
            return Err(RpcError::new(
                crate::proto::ERR_ALREADY_ATTACHED,
                format!("session {id} is already attached"),
            ));
        }
        if let Some(slot) = inner.slots.get_mut(&id) {
            slot.meta.attached = true;
            slot.state = SlotState::Live(session);
        }
        self.refresh_gauges(&inner);
        drop(inner);
        self.cond.notify_all();
        Ok(())
    }

    /// Clears a session's attach marker.
    ///
    /// # Errors
    ///
    /// [`ERR_NO_SESSION`] or [`crate::proto::ERR_NOT_ATTACHED`].
    pub fn detach(&self, id: u64) -> Result<(), RpcError> {
        let mut inner = self.inner.lock().unwrap();
        let slot = inner
            .slots
            .get_mut(&id)
            .ok_or_else(|| RpcError::new(ERR_NO_SESSION, format!("no session {id}")))?;
        if !slot.meta.attached {
            return Err(RpcError::new(
                crate::proto::ERR_NOT_ATTACHED,
                format!("session {id} is not attached"),
            ));
        }
        slot.meta.attached = false;
        Ok(())
    }

    /// Lists every session's public info, sorted by id.
    pub fn list(&self) -> Vec<SessionInfo> {
        let inner = self.inner.lock().unwrap();
        let mut out: Vec<SessionInfo> = inner
            .slots
            .iter()
            .map(|(&id, slot)| SessionInfo {
                id,
                workload: slot.meta.workload,
                trace: slot.meta.trace,
                state: match slot.state {
                    SlotState::Live(_) => "live",
                    SlotState::Busy => "busy",
                    SlotState::Evicted { .. } => "evicted",
                },
                attached: slot.meta.attached,
                cycles_total: slot.meta.cycles_total,
                vehicle: slot.meta.vehicle.clone(),
            })
            .collect();
        out.sort_by_key(|s| s.id);
        out
    }

    /// Aggregate farm statistics.
    pub fn stats(&self) -> FarmStats {
        let inner = self.inner.lock().unwrap();
        let mut stats = inner.stats.clone();
        stats.sessions_live = inner
            .slots
            .values()
            .filter(|s| !matches!(s.state, SlotState::Evicted { .. }))
            .count();
        stats.sessions_evicted = inner.slots.len() - stats.sessions_live;
        stats
    }

    /// Gathers a fleet-wide health table over every currently live (not
    /// busy, not evicted) session — read-only, under the registry lock.
    pub fn fleet_health(&self) -> FleetHealth {
        let inner = self.inner.lock().unwrap();
        let mut ids: Vec<&u64> = inner.slots.keys().collect();
        ids.sort();
        let mut fleet = FleetHealth::new();
        for id in ids {
            if let Some(Slot {
                state: SlotState::Live(session),
                meta,
            }) = inner.slots.get(id)
            {
                match &meta.vehicle {
                    Some(v) => fleet.add_in_vehicle(v.clone(), format!("s{id}"), session.health()),
                    None => fleet.add(format!("s{id}"), session.health()),
                }
            }
        }
        fleet
    }

    fn refresh_gauges(&self, inner: &Inner) {
        let live = inner
            .slots
            .values()
            .filter(|s| !matches!(s.state, SlotState::Evicted { .. }))
            .count();
        self.metrics.live.set(live as f64);
        self.metrics
            .evicted_now
            .set((inner.slots.len() - live) as f64);
        self.metrics
            .evicted_bytes
            .set(inner.stats.evicted_bytes as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_farm(budget: usize) -> Farm {
        Farm::new(
            FarmConfig {
                memory_budget_bytes: budget,
                evict_dir: std::env::temp_dir()
                    .join(format!("mcds-farm-test-{}-{budget}", std::process::id())),
                ..Default::default()
            },
            Telemetry::new(),
        )
    }

    #[test]
    fn create_run_evict_revive_is_bit_identical() {
        let farm = test_farm(usize::MAX);
        let id = farm.create(Workload::Engine, false).unwrap();

        let mut s = farm.checkout(id).unwrap();
        let ran = s.run(40_000).ran;
        let hash_before = s.state_hash();
        let size_bytes = s.snapshot().soc.size_bytes();
        farm.checkin(id, s, ran);

        let (bytes, state_hash) = farm.evict(id).unwrap();
        let path = farm.config.evict_dir.join(format!("session_{id}.json"));
        let on_disk = std::fs::metadata(&path).expect("snapshot file").len();
        assert_eq!(bytes as u64, on_disk, "evict reports the bytes it wrote");
        // Hex costs two characters per image byte; the JSON around it stays
        // small.
        assert!(
            bytes <= 2 * size_bytes + 64 * 1024,
            "evicted file {bytes} B for {size_bytes} accounted bytes"
        );
        assert_eq!(farm.stats().evicted_bytes as u64, on_disk);
        assert_eq!(state_hash, hash_before);
        assert_eq!(farm.stats().sessions_evicted, 1);

        // Checkout transparently revives and verifies the hash.
        let s = farm.checkout(id).unwrap();
        assert_eq!(s.state_hash(), hash_before);
        farm.checkin(id, s, 0);
        assert_eq!(farm.stats().revived, 1);
        assert_eq!(farm.stats().sessions_evicted, 0);
        farm.destroy(id).unwrap();
    }

    #[test]
    fn failed_snapshot_write_revives_in_place() {
        // An evict_dir under a regular file cannot be created, so every
        // snapshot write fails.
        let blocker =
            std::env::temp_dir().join(format!("mcds-farm-test-{}-not-a-dir", std::process::id()));
        std::fs::write(&blocker, b"a file, not a directory").unwrap();
        let farm = Farm::new(
            FarmConfig {
                evict_dir: blocker.join("evict"),
                ..Default::default()
            },
            Telemetry::new(),
        );
        let id = farm.create(Workload::Engine, false).unwrap();
        let mut s = farm.checkout(id).unwrap();
        let ran = s.run(40_000).ran;
        let hash_before = s.state_hash();
        farm.checkin(id, s, ran);

        let err = farm.evict(id).unwrap_err();
        assert_eq!(err.code, ERR_SNAPSHOT);
        let infos = farm.list();
        let info = infos.iter().find(|s| s.id == id).unwrap();
        assert_eq!(info.state, "live", "the session stays resident");
        assert_eq!(farm.stats().evicted, 0);

        let mut s = farm.checkout(id).unwrap();
        assert_eq!(s.state_hash(), hash_before, "revived bit-identically");
        let ran = s.run(10_000).ran;
        assert_eq!(ran, 10_000, "the revived session runs on");
        farm.checkin(id, s, ran);
        farm.destroy(id).unwrap();
        std::fs::remove_file(&blocker).unwrap();
    }

    #[test]
    fn damaged_eviction_files_are_typed_errors() {
        use mcds_soc::mem::{PagedBytes, PAGE_SIZE};
        let farm = Farm::new(
            FarmConfig {
                evict_dir: std::env::temp_dir()
                    .join(format!("mcds-farm-test-{}-damaged", std::process::id())),
                ..Default::default()
            },
            Telemetry::new(),
        );
        let victim = farm.create(Workload::Engine, false).unwrap();
        let bystander = farm.create(Workload::Engine, false).unwrap();
        let mut s = farm.checkout(bystander).unwrap();
        let ran = s.run(20_000).ran;
        let bystander_hash = s.state_hash();
        farm.checkin(bystander, s, ran);

        let mut s = farm.checkout(victim).unwrap();
        let ran = s.run(20_000).ran;
        let sram = s.debugger().device().soc().sram().bytes().to_vec();
        let sram_hash = s.snapshot().soc.component("soc/sram").unwrap().hash();
        farm.checkin(victim, s, ran);
        farm.evict(victim).unwrap();
        let path = farm.config.evict_dir.join(format!("session_{victim}.json"));
        let good = std::fs::read_to_string(&path).unwrap();

        // The SRAM component, `{"name":"soc/sram","hash":..,"size":..,
        // "pages":[{"index":..,"hex":".."},..]}`, and its first page.
        let head = format!(
            "\"name\":\"soc/sram\",\"hash\":{sram_hash},\"size\":{},",
            sram.len()
        );
        let sram_at = good.find(&head).unwrap();
        let page_key = "\"pages\":[{\"index\":";
        let page_at =
            sram_at + good[sram_at..].find(page_key).expect("a listed page") + "\"pages\":[".len();
        let page_end = page_at + good[page_at..].find('}').unwrap() + 1;
        let page = &good[page_at..page_end];
        let index_at = page_at + "{\"index\":".len();
        let index_end = index_at + good[index_at..].find(',').unwrap();
        let hex_at = index_end + ",\"hex\":\"".len();
        let splice =
            |at: usize, end: usize, with: &str| format!("{}{with}{}", &good[..at], &good[end..]);
        let swapped = if good.as_bytes()[hex_at + 10] == b'7' {
            "8"
        } else {
            "7"
        };
        // An image one page larger under a recomputed hash passes the
        // integrity check and must be caught before it reaches the device.
        let mut larger = PagedBytes::new(sram.len() + PAGE_SIZE, 0);
        larger.write(0, &sram);
        let oversized = good.replacen(
            &head,
            &format!(
                "\"name\":\"soc/sram\",\"hash\":{},\"size\":{},",
                larger.hash(),
                larger.len()
            ),
            1,
        );
        let damages = [
            (
                "swapped digit",
                splice(hex_at + 10, hex_at + 11, swapped),
                "snapshot corrupt",
            ),
            (
                "non-hex digit",
                splice(hex_at + 10, hex_at + 11, "x"),
                "snapshot parse failed",
            ),
            (
                "page index past the end",
                splice(index_at, index_end, &(sram.len() / PAGE_SIZE).to_string()),
                "snapshot corrupt",
            ),
            (
                "short page",
                splice(hex_at, hex_at + 2, ""),
                "snapshot corrupt",
            ),
            (
                "duplicate page",
                splice(page_end, page_end, &format!(",{page}")),
                "snapshot corrupt",
            ),
            (
                "truncated file",
                good[..good.len() / 2].to_string(),
                "snapshot parse failed",
            ),
            ("oversized image", oversized, "snapshot resume failed"),
        ];
        for (what, damaged, reason) in damages {
            assert_ne!(damaged, good, "{what}: the file is damaged");
            std::fs::write(&path, damaged).unwrap();
            let err = farm.checkout(victim).unwrap_err();
            assert_eq!(err.code, ERR_SNAPSHOT, "{what}: {}", err.message);
            assert!(err.message.starts_with(reason), "{what}: {}", err.message);
            let infos = farm.list();
            let info = infos.iter().find(|i| i.id == victim).unwrap();
            assert_eq!(info.state, "evicted", "{what}: the record stays");
            let s = farm.checkout(bystander).unwrap();
            assert_eq!(
                s.state_hash(),
                bystander_hash,
                "{what}: the bystander is untouched"
            );
            farm.checkin(bystander, s, 0);
        }

        std::fs::write(&path, &good).unwrap();
        let s = farm.checkout(victim).expect("the undamaged file revives");
        farm.checkin(victim, s, 0);
        farm.destroy(victim).unwrap();
        assert!(!path.exists(), "destroy removes the evicted file");
        farm.destroy(bystander).unwrap();
    }

    #[test]
    fn budget_pressure_evicts_least_recently_used() {
        // Budget for exactly two resident sessions.
        let farm = test_farm(2 * SESSION_RESIDENT_BYTES);
        let a = farm.create(Workload::Engine, false).unwrap();
        let b = farm.create(Workload::Engine, false).unwrap();
        let c = farm.create(Workload::Engine, false).unwrap();
        // Creating c pushed the farm over budget: a (least recently
        // active) went to disk.
        let infos = farm.list();
        let state_of = |id| infos.iter().find(|s| s.id == id).map(|s| s.state).unwrap();
        assert_eq!(state_of(a), "evicted");
        assert_eq!(state_of(b), "live");
        assert_eq!(state_of(c), "live");
        for id in [a, b, c] {
            farm.destroy(id).unwrap();
        }
    }

    #[test]
    fn attach_twice_is_an_error_and_detach_clears() {
        let farm = test_farm(usize::MAX);
        let id = farm.create(Workload::Engine, false).unwrap();
        farm.attach(id).unwrap();
        let err = farm.attach(id).unwrap_err();
        assert_eq!(err.code, crate::proto::ERR_ALREADY_ATTACHED);
        farm.detach(id).unwrap();
        let err = farm.detach(id).unwrap_err();
        assert_eq!(err.code, crate::proto::ERR_NOT_ATTACHED);
        farm.attach(id).unwrap();
        farm.destroy(id).unwrap();
    }

    #[test]
    fn unknown_session_is_a_typed_error() {
        let farm = test_farm(usize::MAX);
        assert_eq!(farm.checkout(99).unwrap_err().code, ERR_NO_SESSION);
        assert_eq!(farm.destroy(99).unwrap_err().code, ERR_NO_SESSION);
        assert_eq!(farm.evict(99).unwrap_err().code, ERR_NO_SESSION);
    }
}
