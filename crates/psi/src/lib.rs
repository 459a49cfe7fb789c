#![warn(missing_docs)]

//! # mcds-psi — the Package-Sized In-circuit Emulator
//!
//! The PSI of Mayer et al. (DATE 2005): *"a novel method of including trace
//! buffers, overlay memories, processing resources and communication
//! interfaces without changing device behavior. PSI requires no external
//! emulation box, as the debug host interfaces directly with the SoC using
//! a standard interface."*
//!
//! * [`device`] — the assembled device: production TC1796 vs the TC1796ED
//!   construction variants (single-chip side booster, two-chip carrier /
//!   booster), debug command execution with realistic link timing;
//! * [`interface`] — USB 1.1 / JTAG / CAN latency+bandwidth models
//!   (JTAG ≈ 2 µs, USB ≈ 3 ms, Section 6);
//! * [`faults`] — deterministic, seedable fault injection on those links
//!   (frame drop / corruption / duplication / jitter, outage windows);
//! * [`service`] — the PCP2 debug-service core: driver overhead,
//!   performance monitor, consistency checker;
//! * [`trace_sink`] — trace storage in the 64 KB emulation-RAM segments.
//!
//! ```
//! use mcds_psi::device::{DeviceBuilder, DeviceVariant, DebugOp, DebugResponse};
//! use mcds_psi::interface::InterfaceKind;
//! use mcds_soc::asm::assemble;
//! use mcds_soc::soc::memmap;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut dev = DeviceBuilder::new(DeviceVariant::EdSideBooster).cores(2).build();
//! dev.soc_mut().load_program(&assemble(".org 0x80000000\nli r1, 7\nhalt")?);
//! dev.run_until_halt(10_000);
//! let resp = dev.execute(
//!     InterfaceKind::Jtag,
//!     DebugOp::ReadWords { addr: memmap::SRAM_BASE, count: 1 },
//! )?;
//! assert!(matches!(resp, DebugResponse::Words(_)));
//! # Ok(())
//! # }
//! ```

pub mod device;
pub mod faults;
pub mod interface;
pub mod service;
pub mod telemetry;
pub mod trace_sink;

pub use device::{
    DebugOp, DebugResponse, Device, DeviceBuilder, DeviceError, DeviceSpec, DeviceState,
    DeviceVariant, VariantInfo, BUS_STARVATION_LIMIT,
};
pub use faults::{
    DownWindow, FaultInjector, FaultInjectorState, FaultPlan, FaultPlanError, FaultStats, FrameFate,
};
pub use interface::{InterfaceKind, InterfaceModel, InterfaceModelError, LinkStats};
pub use service::{
    ConsistencyChecker, ConsistencyRule, PerfMonitor, ServiceProcessor, ServiceState,
};
pub use telemetry::link_label;
pub use trace_sink::{FullPolicy, SinkState, TraceSink};
