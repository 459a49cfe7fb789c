//! mcds-vnet: the virtual vehicle network.
//!
//! The paper's debug and calibration architecture (Sections 5–6) exists
//! because powertrain ECUs never run alone: the engine controller, the
//! gearbox controller and their siblings exchange control traffic over
//! CAN, and the calibration tooling addresses the *fleet* — one vehicle's
//! worth of ECUs — as a unit. This crate closes that loop for the
//! simulated devices: it connects N [`mcds_psi::device::Device`]s through
//! a deterministic multi-segment CAN fabric and layers the vehicle-level
//! debug workflows on top.
//!
//! The pieces:
//!
//! - [`can`] — the bus model: 11/29-bit identifiers, priority
//!   arbitration, per-frame bit-time cost, and wire fault injection
//!   reusing `mcds_psi::faults`.
//! - [`node`] — the per-ECU bus adapter: cyclic transmission of output
//!   ports, reception into input ports, and the bus-carried trigger
//!   fabric, the one path a trigger pulse takes from device to device
//!   (an engine comparator hit halts the gearbox ECU a bounded number of
//!   frame-times later).
//! - [`gateway`] — table-driven store-and-forward routing between bus
//!   segments.
//! - [`vehicle`] — the lockstep scheduler tying devices, segments and
//!   gateway into one deterministic machine with a single event log,
//!   a fleet-wide state hash, and whole-vehicle snapshot/replay
//!   ([`mcds_replay::FleetSnapshot`]).
//! - [`calibration`] — fleet-wide XCP: the atomic calibration page swap
//!   (all ECUs switch or none) and per-vehicle DAQ aggregation into one
//!   time-aligned stream.
//! - [`demo`] — canonical engine+gearbox topologies used by tests,
//!   benches and examples.

#![warn(missing_docs)]

pub mod calibration;
pub mod can;
pub mod demo;
pub mod gateway;
pub mod node;
pub mod vehicle;

pub use calibration::{FleetSample, SwapOutcome};
pub use can::{CanFrame, CanId, CanSegment, SegmentConfig, SegmentStats};
pub use gateway::{Gateway, GatewayConfig, QueuedForward, RouteRule};
pub use node::{
    trigger_frame_id, EcuNode, NodeConfig, RxRule, TriggerRx, TxRule, TRIGGER_ID_BASE,
    TRIGGER_ID_SPAN, TRIGGER_PULSE_CYCLES,
};
pub use vehicle::{EcuSpec, Vehicle, VehicleBuilder, VehicleConfig, VehicleEvent, VehicleLog};
