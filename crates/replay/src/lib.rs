#![warn(missing_docs)]

//! # mcds-replay — deterministic snapshot, record-replay and time-travel
//!
//! The device model in this workspace is cycle-accurate and fully
//! deterministic: given the same program, the same external inputs and the
//! same debug traffic, two runs are bit-identical. This crate turns that
//! property into debugging leverage, the way an emulator-based calibration
//! flow would:
//!
//! * [`snapshot`] — versioned, content-hashed snapshots of the whole
//!   device ([`SocSnapshot`]): the structured runtime state plus one
//!   sparse page image per memory (the 4 KiB pages off their reset
//!   value), each a hashed component, written to disk atomically
//!   ([`write_json_atomic`]);
//! * [`log`] — the record-replay input log ([`InputLog`]): every
//!   nondeterministic input (sensor stimulus, trigger pins, link fault
//!   plans, host debug commands) stamped with its apply cycle, so
//!   `replay(snapshot, log)` reproduces a run exactly;
//! * [`checkpoint`] — a bounded checkpoint ring ([`CheckpointRing`])
//!   enabling time travel: seeking to an arbitrary cycle or stepping a
//!   core *backwards* by restoring the nearest checkpoint and
//!   re-executing forward;
//! * [`hash`] — FNV-1a content hashing and the canonical
//!   [`device_state_hash`] used to verify that a replayed run converged
//!   on the original, bit for bit — by construction equal to the
//!   [`SocSnapshot::state_hash`] of a snapshot captured at that point;
//! * [`repro`] — self-contained failure repro artifacts
//!   ([`ReproArtifact`]): a shrunk scenario, its input log and expected
//!   final state hash serialized to one JSON file that `cargo test` can
//!   replay bit-identically.
//!
//! ```
//! use mcds_psi::device::{DeviceBuilder, DeviceVariant};
//! use mcds_replay::{device_state_hash, InputLog, Replayer, SocSnapshot};
//! use mcds_soc::asm::assemble;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let build = || {
//!     let mut d = DeviceBuilder::new(DeviceVariant::EdSideBooster).cores(1).build();
//!     d.soc_mut().load_program(
//!         &assemble(".org 0x80000000\nloop: addi r1, r1, 1\nj loop").unwrap());
//!     d
//! };
//! let mut dev = build();
//! let log = InputLog::new();
//! let mut rec = Replayer::new(&log);
//! mcds_replay::run_with_events(&mut dev, &mut rec, 500);
//! let snap = SocSnapshot::capture(&dev);
//! mcds_replay::run_with_events(&mut dev, &mut rec, 1_000);
//! let final_hash = device_state_hash(&dev);
//!
//! // Replay the second half from the snapshot on a fresh device.
//! let mut twin = build();
//! snap.restore_into(&mut twin);
//! let mut rep = Replayer::resume_at(&log, snap.cycle());
//! mcds_replay::run_with_events(&mut twin, &mut rep, 1_000);
//! assert_eq!(device_state_hash(&twin), final_hash);
//! # Ok(())
//! # }
//! ```

pub mod checkpoint;
pub mod fleet;
pub mod hash;
pub mod log;
pub mod repro;
pub mod snapshot;

pub use checkpoint::{Checkpoint, CheckpointRing};
pub use fleet::{fleet_state_hash, FleetSnapshot, FLEET_SNAPSHOT_VERSION};
pub use hash::{device_state_hash, extend_fnv1a64, fnv1a64, trace_bytes, Fnv1aWriter};
pub use log::{run_with_events, run_with_events_into, InputEvent, InputLog, Replayer};
pub use repro::{ReproArtifact, ReproError, REPRO_VERSION};
pub use snapshot::{write_json_atomic, Component, SnapshotIoError, SocSnapshot, SNAPSHOT_VERSION};
