//! # mcds-obs — cross-layer causal tracing
//!
//! The paper's MCDS exists because post-silicon debug dies without
//! visibility into how components interact; this crate gives the *farm*
//! the same treatment the device got. It is the observability spine of
//! the suite: a bounded, lock-free-on-hot-path structured event
//! [`Journal`] shared by every runtime layer, request-scoped
//! **correlation ids** minted per farm JSON-RPC request and threaded
//! through dispatch → scheduler quanta → `host::Session` runs → vnet
//! fabric events, and a **unified Perfetto timeline**
//! ([`unified_timeline`]) that merges the wall-clock farm tracks with
//! the sim-cycle device tracks via the cycle↔wall anchor each scheduler
//! quantum record carries.
//!
//! Three invariants:
//!
//! * **Outside the determinism boundary.** Journal handles live next to
//!   [`mcds_telemetry::Telemetry`] handles: never snapshotted, hashed or
//!   replayed. Enabling the journal cannot change a single simulated
//!   bit (`tests/obs.rs` proptests it).
//! * **Bounded.** The ring overwrites oldest; `obs_journal_*` telemetry
//!   counts what was lost.
//! * **Causal.** One request ⇒ one correlation id, visible in events
//!   from at least three layers, so "why was this RPC slow" decomposes
//!   into per-stage latency.
//!
//! The flight-recorder dump ([`Journal::tail_json`]) is what campaign
//! triage attaches to `ReproArtifact`s and the farm attaches to typed
//! error payloads.

pub mod journal;
pub mod timeline;

pub use journal::{Journal, JournalRecord, ObsEvent};
pub use timeline::{sim_tid, timeline_json, unified_timeline, SIM_PID, WALL_PID};
