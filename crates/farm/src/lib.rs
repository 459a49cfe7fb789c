//! # mcds-farm — a multi-session debug service
//!
//! One process, one TCP port, many simulated PSI devices. The farm turns
//! the single-device debug stack ([`mcds_host::Session`]) into a
//! *service*: clients speak a newline-delimited JSON-RPC protocol
//! ([`proto`]) to create sessions, run them, set breakpoints, poke
//! memory, swap calibration pages and pull trace — while a run-quantum
//! [`scheduler`] multiplexes M sessions over K worker threads and the
//! [`registry`] suspends idle sessions to disk under a memory budget and
//! revives them bit-identically (state-hash verified) on next use.
//!
//! The paper's debug/calibration concentrator serves one ECU per wire;
//! the farm is what that box becomes at fleet scale: a calibration lab or
//! HiL rack's worth of ECUs behind one endpoint, with eviction standing
//! in for the real-world practice of powering down rigs between runs.
//!
//! Layering:
//!
//! * [`proto`] — wire types: request parsing, response rendering, error
//!   codes, parameter accessors;
//! * [`registry`] — the session table: checkout/checkin exclusivity,
//!   LRU eviction to [`mcds_host::SessionSnapshot`] JSON files, verified
//!   revival;
//! * [`scheduler`] — K worker threads draining a FIFO of run quanta;
//! * [`server`] — the TCP listener and method dispatch;
//! * [`client`] — a small blocking client used by the examples, tests
//!   and the T13 bench.
//!
//! Everything observes into [`mcds_telemetry`] under the `farm_*` metric
//! namespace and the [`mcds_telemetry::Subsystem::Farm`] span counters;
//! telemetry stays strictly outside the determinism boundary.
//!
//! Cross-layer causal tracing rides on [`mcds_obs`]: every request mints
//! a correlation id in [`server`] dispatch, the [`scheduler`] stamps it
//! on each quantum's one `SchedulerQuantum` record (which is also the
//! timeline's cycle↔wall anchor) and hands the journal to the [`mcds_host::Session`] for the device
//! slice, so one `session.run` leaves a correlated trail through three
//! layers. `obs.journal` returns the ring's tail, `obs.timeline` the
//! unified Perfetto timeline, `obs.latency` per-method quantiles, and
//! farm-semantic error responses (code ≥ 1000) carry a
//! `flight_recorder` dump of the last journal events.

#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod registry;
pub mod scheduler;
pub mod server;

pub use client::{ClientError, FarmClient};
pub use proto::{Request, RpcError};
pub use registry::{device_spec, Farm, FarmConfig, FarmStats, SessionInfo, SESSION_RESIDENT_BYTES};
pub use scheduler::{RunOutcome, Scheduler};
pub use server::FarmServer;
