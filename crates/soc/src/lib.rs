#![warn(missing_docs)]

//! # mcds-soc — the SoC substrate
//!
//! A cycle-stepped software model of a TC1796-class multi-core powertrain
//! SoC: the substrate on which the MCDS debug logic (`mcds`) and the
//! Package-Sized ICE (`mcds-psi`) of Mayer et al. (DATE 2005) are
//! reproduced.
//!
//! The crate provides:
//!
//! * [`isa`] — the TC-RISC instruction set (16 registers, 32-bit fixed
//!   encoding, `BRK` = all-zero word for software breakpoints);
//! * [`asm`] — a two-pass assembler for writing workloads (and [`disasm`],
//!   its inverse, for trace listings);
//! * [`cpu`] — a single-issue in-order core with break/suspend debug
//!   semantics and a retirement-event trace tap;
//! * [`bus`] — a single-transaction multi-master bus with per-target wait
//!   states and a transaction trace tap;
//! * [`mem`] — flash (slow, bus-read-only), SRAM and the segmented PSI
//!   emulation RAM;
//! * [`overlay`] — the 16-range address-mapping block with dual atomic
//!   calibration pages and flash-matched overlay timing;
//! * [`periph`] — system timer, sensor/actuator ports and trigger pins;
//! * [`soc`] — the assembled device and its per-cycle event stream;
//! * [`sink`] — the push-based streaming observation pipeline
//!   ([`CycleSink`] and its combinators) that `Soc::step_into` feeds;
//! * [`kernel`] — the discrete-event execution kernel: a min-fold over
//!   per-component wakeups that skips quiescent stretches in one jump,
//!   plus a batched basic-block layer with cached decode for
//!   straight-line runs ([`ExecMode`], [`ExecStats`], [`HaltStop`]). Bit-identical to
//!   per-cycle stepping; falls back to it whenever observation demands.
//!
//! ## Example
//!
//! ```
//! use mcds_soc::asm::assemble;
//! use mcds_soc::event::CoreId;
//! use mcds_soc::soc::SocBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = assemble(
//!     "
//!     .org 0x80000000
//!     start:
//!         li r1, 6
//!         li r2, 7
//!         mul r3, r1, r2
//!         halt
//!     ",
//! )?;
//! let mut soc = SocBuilder::new().cores(1).build();
//! soc.load_program(&program);
//! soc.run_until_halt(10_000);
//! assert_eq!(soc.core(CoreId(0)).reg(mcds_soc::isa::Reg::new(3)), 42);
//! # Ok(())
//! # }
//! ```

pub mod asm;
pub mod bus;
pub mod cpu;
pub mod disasm;
pub mod event;
pub mod isa;
pub mod kernel;
pub mod mem;
pub mod overlay;
pub mod periph;
pub mod sink;
pub mod soc;

pub use bus::{
    Addr, AddrRange, BusCounters, BusFault, BusRequest, BusTarget, MasterCounters, MasterId,
};
pub use cpu::{CoreConfig, Cpu, RunState};
pub use event::{CoreId, CycleRecord, MemAccessInfo, RetireEvent, SocEvent, StopCause};
pub use isa::{Instr, MemWidth, Reg};
pub use kernel::{ExecMode, ExecStats, HaltStop};
pub use sink::{Collect, CountSink, CycleSink, FanOut, NullSink};
pub use soc::{memmap, BackdoorError, Soc, SocBuilder};
