//! The multi-master on-chip bus.
//!
//! Models the TC1796's FPI-class system bus at cycle granularity: one
//! transaction in flight at a time, fixed-priority arbitration between
//! masters (lower [`MasterId`] wins, CPU cores before the debug master), and
//! per-target wait states. The Multi-Core Debug Solution observes completed
//! transactions through [`BusXact`] records — the "system centric approach
//! \[that\] supports tracing of on-chip multi-master buses" of Section 4.

use crate::isa::MemWidth;
use std::fmt;

/// A byte address on the system bus.
pub type Addr = u32;

/// Identifies a bus master (CPU core, debug/service processor, DMA).
#[derive(
    serde::Serialize, serde::Deserialize, Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash,
)]
pub struct MasterId(pub u8);

impl fmt::Display for MasterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// A half-open address range `[start, end)`.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AddrRange {
    /// First address in the range.
    pub start: Addr,
    /// One past the last address in the range.
    pub end: Addr,
}

impl AddrRange {
    /// Creates a range from a base address and a size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if the range would wrap the address space or is empty.
    pub fn new(base: Addr, size: u32) -> AddrRange {
        assert!(size > 0, "empty address range");
        let end = base.checked_add(size).expect("address range wraps");
        AddrRange { start: base, end }
    }

    /// True if `addr` lies inside the range.
    pub fn contains(self, addr: Addr) -> bool {
        (self.start..self.end).contains(&addr)
    }

    /// The size of the range in bytes.
    pub fn len(self) -> u32 {
        self.end - self.start
    }

    /// True if the range is empty (never for ranges built with `new`).
    pub fn is_empty(self) -> bool {
        self.start == self.end
    }

    /// True if the two ranges share at least one address.
    pub fn overlaps(self, other: AddrRange) -> bool {
        self.start < other.end && other.start < self.end
    }
}

/// The kind of transfer a bus transaction performs.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum XferKind {
    /// Instruction fetch (read).
    Fetch,
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// Atomic read-modify-write (locked read followed by write).
    Atomic,
}

impl XferKind {
    /// True for transfers that put data onto the bus towards the target.
    pub fn is_write(self) -> bool {
        matches!(self, XferKind::Write | XferKind::Atomic)
    }
}

/// A bus request as issued by a master.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusRequest {
    /// Target byte address.
    pub addr: Addr,
    /// Access width.
    pub width: MemWidth,
    /// Transfer kind.
    pub kind: XferKind,
    /// Write data (ignored for reads; for [`XferKind::Atomic`] this is the
    /// value stored after the read).
    pub wdata: u32,
}

/// A completed transaction, delivered back to the issuing master and to bus
/// observers.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusCompletion {
    /// The master the response belongs to.
    pub master: MasterId,
    /// The original request.
    pub request: BusRequest,
    /// Read data (old memory value for atomics, 0 for plain writes).
    pub rdata: u32,
    /// The fault, if the access failed.
    pub fault: Option<BusFault>,
}

/// A completed bus transaction as seen by a trace observer.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusXact {
    /// Initiating master.
    pub master: MasterId,
    /// Target byte address.
    pub addr: Addr,
    /// Access width.
    pub width: MemWidth,
    /// Transfer kind.
    pub kind: XferKind,
    /// Data moved: write data for writes, read data for reads.
    pub data: u32,
}

/// An access error raised by the bus or a target.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BusFault {
    /// No target is mapped at the address.
    #[allow(missing_docs)]
    Unmapped { addr: Addr },
    /// The address is not aligned to the access width.
    #[allow(missing_docs)]
    Misaligned { addr: Addr, width: MemWidth },
    /// The target exists but refuses the access (e.g. a data write to
    /// program flash, or emulation RAM that is powered down).
    #[allow(missing_docs)]
    Denied { addr: Addr },
}

impl fmt::Display for BusFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            BusFault::Unmapped { addr } => write!(f, "unmapped bus address {addr:#010x}"),
            BusFault::Misaligned { addr, width } => {
                write!(
                    f,
                    "misaligned {}-byte access at {addr:#010x}",
                    width.bytes()
                )
            }
            BusFault::Denied { addr } => write!(f, "access denied at {addr:#010x}"),
        }
    }
}

impl std::error::Error for BusFault {}

/// A memory-mapped bus target (memory or peripheral).
///
/// Implementations define their own wait-state behaviour through
/// [`BusTarget::access_cycles`]; the bus holds the transaction for that many
/// cycles before performing the access, so timing-sensitive properties (the
/// overlay "access timing matches the flash memory being overlaid" claim of
/// Section 7) are modelled exactly.
pub trait BusTarget {
    /// Total bus occupancy in cycles for an access at `addr` (at least 1).
    fn access_cycles(&self, addr: Addr, kind: XferKind) -> u32;

    /// Performs a read of `width` at `addr`. `now` is the current SoC cycle.
    ///
    /// # Errors
    ///
    /// Returns a [`BusFault`] if the target refuses the access.
    fn read(&mut self, addr: Addr, width: MemWidth, now: u64) -> Result<u32, BusFault>;

    /// Performs a write of `width` at `addr`. `now` is the current SoC cycle.
    ///
    /// # Errors
    ///
    /// Returns a [`BusFault`] if the target refuses the access.
    fn write(&mut self, addr: Addr, width: MemWidth, value: u32, now: u64) -> Result<(), BusFault>;
}

/// Opaque handle to a target registered on a [`Bus`].
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TargetId(usize);

/// Per-master arbitration counters, maintained by the bus itself.
///
/// These are the ground truth the host-side analysis (`mcds-analysis`)
/// cross-checks its trace-derived numbers against: the trace path can lose
/// messages, the bus cannot lose cycles.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MasterCounters {
    /// Transactions granted to this master (including ones that faulted).
    pub grants: u64,
    /// Transactions completed without a fault.
    pub xacts: u64,
    /// Transactions completed with a fault.
    pub faults: u64,
    /// Cycles this master held the bus (occupancy, including wait states).
    pub occupancy_cycles: u64,
    /// Cycles this master had a request queued but not granted.
    pub wait_cycles: u64,
}

/// Whole-bus cycle accounting plus [`MasterCounters`] per master slot.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, Default, PartialEq, Eq)]
pub struct BusCounters {
    /// Total cycles the bus has been stepped.
    pub cycles: u64,
    /// Cycles with a transaction in flight.
    pub busy_cycles: u64,
    /// Cycles where at least one master waited while another held the bus.
    pub contended_cycles: u64,
    /// Counters indexed by master slot.
    pub per_master: Vec<MasterCounters>,
}

impl BusCounters {
    /// Fraction of cycles with a transaction in flight (0.0–1.0).
    pub fn utilization(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / self.cycles as f64
        }
    }

    /// The counter delta since an `earlier` snapshot — the counters for
    /// just the window between the two observations.
    ///
    /// All fields subtract saturating: an `earlier` snapshot taken from a
    /// different (or reset) bus can be ahead of `self` on some counter,
    /// and on very long runs a window must degrade to zero rather than
    /// wrap to an absurd near-`u64::MAX` value. Telemetry publishes these
    /// window deltas continuously, so "never panics, never wraps" is part
    /// of the contract.
    #[must_use]
    pub fn delta_since(&self, earlier: &BusCounters) -> BusCounters {
        let per_master = self
            .per_master
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let e = earlier.per_master.get(i).copied().unwrap_or_default();
                MasterCounters {
                    grants: m.grants.saturating_sub(e.grants),
                    xacts: m.xacts.saturating_sub(e.xacts),
                    faults: m.faults.saturating_sub(e.faults),
                    occupancy_cycles: m.occupancy_cycles.saturating_sub(e.occupancy_cycles),
                    wait_cycles: m.wait_cycles.saturating_sub(e.wait_cycles),
                }
            })
            .collect();
        BusCounters {
            cycles: self.cycles.saturating_sub(earlier.cycles),
            busy_cycles: self.busy_cycles.saturating_sub(earlier.busy_cycles),
            contended_cycles: self
                .contended_cycles
                .saturating_sub(earlier.contended_cycles),
            per_master,
        }
    }
}

struct ActiveTxn {
    master: MasterId,
    request: BusRequest,
    target: Option<TargetId>,
    cycles_left: u32,
}

/// Serializable snapshot of an in-flight bus transaction (see [`BusState`]).
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActiveTxnState {
    /// Master that owns the transaction.
    pub master: MasterId,
    /// The request being serviced.
    pub request: BusRequest,
    /// Resolved target, `None` for an unmapped (faulting) address.
    pub target: Option<TargetId>,
    /// Remaining wait-state cycles.
    pub cycles_left: u32,
}

/// Serializable runtime state of a [`Bus`]: queued and in-flight requests
/// plus arbitration bookkeeping. The address map, registered targets and
/// arbitration policy are build-time configuration and are *not* included —
/// [`Bus::restore_state`] requires an identically configured bus.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, PartialEq, Eq)]
pub struct BusState {
    pending: Vec<Option<BusRequest>>,
    active: Option<ActiveTxnState>,
    last_xact: Option<BusXact>,
    rr_next: usize,
    counters: BusCounters,
}

/// The system bus: targets, address map and a single-transaction arbiter.
///
/// Generic over the target type `T` so an SoC can use a concrete enum of
/// device models and retain typed backdoor access via [`Bus::target_mut`];
/// use `Box<dyn BusTarget>` for a fully dynamic bus.
pub struct Bus<T: BusTarget> {
    targets: Vec<T>,
    map: Vec<(AddrRange, TargetId)>,
    pending: Vec<Option<BusRequest>>,
    active: Option<ActiveTxn>,
    /// Completed transactions this cycle (for trace observers).
    last_xact: Option<BusXact>,
    rr_next: usize,
    round_robin: bool,
    counters: BusCounters,
}

impl<T: BusTarget> fmt::Debug for Bus<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Bus")
            .field("targets", &self.targets.len())
            .field("map", &self.map)
            .field("masters", &self.pending.len())
            .field("busy", &self.active.is_some())
            .finish()
    }
}

impl<T: BusTarget> Bus<T> {
    /// Creates a bus with `masters` request slots and fixed-priority
    /// arbitration (master 0 highest).
    pub fn new(masters: usize) -> Bus<T> {
        Bus {
            targets: Vec::new(),
            map: Vec::new(),
            pending: vec![None; masters],
            active: None,
            last_xact: None,
            rr_next: 0,
            round_robin: false,
            counters: BusCounters {
                per_master: vec![MasterCounters::default(); masters],
                ..BusCounters::default()
            },
        }
    }

    /// Switches the arbiter to round-robin between masters.
    pub fn set_round_robin(&mut self, enabled: bool) {
        self.round_robin = enabled;
    }

    /// Registers a target; it handles no addresses until [`Bus::map_range`]
    /// is called.
    pub fn add_target(&mut self, target: T) -> TargetId {
        let id = TargetId(self.targets.len());
        self.targets.push(target);
        id
    }

    /// Maps an address range to a registered target. Ranges must not overlap
    /// previously mapped ones.
    ///
    /// # Panics
    ///
    /// Panics if `range` overlaps an existing mapping or `target` is unknown.
    pub fn map_range(&mut self, range: AddrRange, target: TargetId) {
        assert!(target.0 < self.targets.len(), "unknown bus target");
        for (existing, _) in &self.map {
            assert!(
                !existing.overlaps(range),
                "bus mapping {range:?} overlaps {existing:?}"
            );
        }
        self.map.push((range, target));
    }

    /// Returns the target mapped at `addr`, if any.
    pub fn target_at(&self, addr: Addr) -> Option<TargetId> {
        self.map
            .iter()
            .find(|(r, _)| r.contains(addr))
            .map(|&(_, t)| t)
    }

    /// Mutable access to a registered target (for backdoor configuration by
    /// the device model, e.g. loading flash images or reading trace RAM).
    pub fn target_mut(&mut self, id: TargetId) -> &mut T {
        &mut self.targets[id.0]
    }

    /// Shared access to a registered target.
    pub fn target(&self, id: TargetId) -> &T {
        &self.targets[id.0]
    }

    /// Queues a request for `master`. At most one outstanding request per
    /// master; issuing while one is pending replaces it.
    ///
    /// # Panics
    ///
    /// Panics if `master` is out of range.
    pub fn request(&mut self, master: MasterId, request: BusRequest) {
        self.pending[master.0 as usize] = Some(request);
    }

    /// Removes a queued request for `master` that has not yet been granted.
    /// Returns `true` if a queued request was removed. An already-active
    /// transaction cannot be withdrawn and is unaffected.
    ///
    /// # Panics
    ///
    /// Panics if `master` is out of range.
    pub fn cancel_request(&mut self, master: MasterId) -> bool {
        self.pending[master.0 as usize].take().is_some()
    }

    /// True if `master` has a request queued or in flight.
    pub fn master_busy(&self, master: MasterId) -> bool {
        self.pending[master.0 as usize].is_some()
            || self.active.as_ref().is_some_and(|a| a.master == master)
    }

    /// The transaction completed on the most recent cycle, if any.
    pub fn last_xact(&self) -> Option<BusXact> {
        self.last_xact
    }

    /// Cycle-exact arbitration counters (see [`BusCounters`]).
    pub fn counters(&self) -> &BusCounters {
        &self.counters
    }

    /// Captures the arbiter's runtime state (queued/in-flight requests,
    /// round-robin pointer, counters). Target-internal state is captured by
    /// the owner of the targets, not here.
    pub fn save_state(&self) -> BusState {
        BusState {
            pending: self.pending.clone(),
            active: self.active.as_ref().map(|a| ActiveTxnState {
                master: a.master,
                request: a.request,
                target: a.target,
                cycles_left: a.cycles_left,
            }),
            last_xact: self.last_xact,
            rr_next: self.rr_next,
            counters: self.counters.clone(),
        }
    }

    /// Restores state captured by [`Bus::save_state`] onto an identically
    /// configured bus (same master count, targets and address map).
    ///
    /// # Panics
    ///
    /// Panics if the master count differs.
    pub fn restore_state(&mut self, state: &BusState) {
        assert_eq!(
            self.pending.len(),
            state.pending.len(),
            "bus master count mismatch on restore"
        );
        self.pending = state.pending.clone();
        self.active = state.active.as_ref().map(|a| ActiveTxn {
            master: a.master,
            request: a.request,
            target: a.target,
            cycles_left: a.cycles_left,
        });
        self.last_xact = state.last_xact;
        self.rr_next = state.rr_next;
        self.counters = state.counters.clone();
    }

    /// The master slot arbitration grants among those `ready` reports
    /// queued: fixed priority (lowest slot), or round-robin from `rr_next`
    /// over all master slots. The one arbitration order, shared by
    /// [`Bus::step`] and the execution kernel's merged executor.
    pub(crate) fn arbitrate(&self, ready: impl Fn(usize) -> bool) -> Option<usize> {
        let n = self.pending.len();
        // Walk the masters in arbitration order without materialising it.
        (0..n)
            .map(|k| {
                if self.round_robin {
                    (self.rr_next + k) % n
                } else {
                    k
                }
            })
            .find(|&i| ready(i))
    }

    fn grant_next(&mut self) {
        if self.active.is_some() {
            return;
        }
        let Some(i) = self.arbitrate(|i| self.pending[i].is_some()) else {
            return;
        };
        let request = self.pending[i].take().expect("arbitrated a queued slot");
        if self.round_robin {
            self.rr_next = (i + 1) % self.pending.len();
        }
        self.counters.per_master[i].grants += 1;
        self.active = Some(ActiveTxn {
            master: MasterId(i as u8),
            request,
            target: self.target_at(request.addr),
            cycles_left: self.xfer_cycles(&request),
        });
    }

    /// Advances the bus by one cycle. Returns the completion delivered this
    /// cycle, if a transaction finished.
    pub fn step(&mut self, now: u64) -> Option<BusCompletion> {
        self.last_xact = None;
        self.grant_next();
        self.counters.cycles += 1;
        if let Some(txn) = &self.active {
            self.counters.busy_cycles += 1;
            self.counters.per_master[txn.master.0 as usize].occupancy_cycles += 1;
            let mut waiting = false;
            for (i, slot) in self.pending.iter().enumerate() {
                if slot.is_some() {
                    self.counters.per_master[i].wait_cycles += 1;
                    waiting = true;
                }
            }
            if waiting {
                self.counters.contended_cycles += 1;
            }
        }
        let txn = self.active.as_mut()?;
        txn.cycles_left -= 1;
        if txn.cycles_left > 0 {
            return None;
        }
        let txn = self.active.take().expect("active transaction");
        let completion = self.perform(txn, now);
        self.conclude(&completion);
        Some(completion)
    }

    /// Books a completed transaction into the xact/fault counters and the
    /// `last_xact` probe — the single place those invariants live, shared
    /// by the per-cycle [`Bus::step`] and the batched kernel path.
    fn conclude(&mut self, completion: &BusCompletion) {
        let per_master = &mut self.counters.per_master[completion.master.0 as usize];
        if completion.fault.is_none() {
            per_master.xacts += 1;
        } else {
            per_master.faults += 1;
        }
        if completion.fault.is_none() {
            self.last_xact = Some(BusXact {
                master: completion.master,
                addr: completion.request.addr,
                width: completion.request.width,
                kind: completion.request.kind,
                data: if completion.request.kind.is_write()
                    && completion.request.kind != XferKind::Atomic
                {
                    completion.request.wdata
                } else {
                    completion.rdata
                },
            });
        }
    }

    /// Cycles a granted `request` occupies the bus, exactly as
    /// [`Bus::step`]'s arbiter would charge it: the target's access
    /// latency (read + write back-to-back for [`XferKind::Atomic`]), one
    /// cycle for unmapped addresses, minimum one cycle.
    pub(crate) fn xfer_cycles(&self, request: &BusRequest) -> u32 {
        let cycles = match self.target_at(request.addr) {
            Some(t) => {
                let base = self.targets[t.0].access_cycles(request.addr, request.kind);
                if request.kind == XferKind::Atomic {
                    // Locked read + write back-to-back.
                    base + self.targets[t.0].access_cycles(request.addr, XferKind::Write)
                } else {
                    base
                }
            }
            None => 1,
        };
        cycles.max(1)
    }

    /// True when no request is queued or in flight — the arbiter would do
    /// nothing but count the cycle. (`last_xact` may still be set from the
    /// previous cycle; quiescence checks must consult
    /// [`Bus::has_last_xact`] separately because the probe is cleared at
    /// the top of every stepped cycle and is part of hashed state.)
    pub(crate) fn is_quiet(&self) -> bool {
        self.active.is_none() && self.pending.iter().all(Option::is_none)
    }

    /// True if the one-cycle completed-transaction probe is set.
    pub(crate) fn has_last_xact(&self) -> bool {
        self.last_xact.is_some()
    }

    /// Clears the completed-transaction probe, as an idle stepped cycle
    /// would at its top.
    pub(crate) fn clear_last_xact(&mut self) {
        self.last_xact = None;
    }

    /// Accounts `n` cycles in which the bus provably did nothing (no
    /// queued or active requests): only the cycle counter moves, exactly
    /// as `n` idle [`Bus::step`]s would have left it.
    pub(crate) fn skip_quiet_cycles(&mut self, n: u64) {
        debug_assert!(self.is_quiet());
        self.counters.cycles += n;
    }

    /// Opens a batched kernel transfer for `master` occupying `cycles` bus
    /// cycles: books the grant, busy/occupancy time and round-robin
    /// rotation exactly as the per-cycle arbiter's grant and `cycles`
    /// [`Bus::step`]s would have, and clears `last_xact` as the first of
    /// those steps would. Waiting and contention are the caller's to book
    /// ([`Bus::add_wait`], [`Bus::add_contended`]).
    pub(crate) fn begin_fast_xfer(&mut self, master: MasterId, cycles: u32) {
        self.last_xact = None;
        let i = master.0 as usize;
        self.counters.per_master[i].grants += 1;
        if self.round_robin {
            self.rr_next = (i + 1) % self.pending.len();
        }
        self.counters.busy_cycles += u64::from(cycles);
        self.counters.per_master[i].occupancy_cycles += u64::from(cycles);
    }

    /// Books `cycles` cycles `master` spent queued while another master
    /// held the bus.
    pub(crate) fn add_wait(&mut self, master: MasterId, cycles: u64) {
        self.counters.per_master[master.0 as usize].wait_cycles += cycles;
    }

    /// Books `cycles` cycles in which at least one master waited.
    pub(crate) fn add_contended(&mut self, cycles: u64) {
        self.counters.contended_cycles += cycles;
    }

    /// The masters with a request queued or in flight.
    pub(crate) fn requesters(&self) -> impl Iterator<Item = usize> + '_ {
        let active = self.active.as_ref().map(|a| a.master.0 as usize);
        self.pending
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.is_some().then_some(i))
            .chain(active)
    }

    /// The request `master` has queued, if any.
    pub(crate) fn queued(&self, master: MasterId) -> Option<BusRequest> {
        self.pending[master.0 as usize]
    }

    /// The transaction in flight as `(master, request, cycles_left)`.
    pub(crate) fn in_flight(&self) -> Option<(MasterId, BusRequest, u32)> {
        self.active
            .as_ref()
            .map(|a| (a.master, a.request, a.cycles_left))
    }

    /// Takes the transaction in flight (see [`Bus::in_flight`]) off the
    /// bus for the kernel to finish, booking its remaining `cycles_left`
    /// busy/occupancy cycles up front as [`Bus::begin_fast_xfer`] books a
    /// whole transfer. [`Bus::put_in_flight`] is the inverse.
    pub(crate) fn take_in_flight(&mut self) {
        if let Some(txn) = self.active.take() {
            let left = u64::from(txn.cycles_left);
            self.counters.busy_cycles += left;
            self.counters.per_master[txn.master.0 as usize].occupancy_cycles += left;
        }
    }

    /// Puts a granted transfer back in flight with `cycles_left` cycles to
    /// go, un-booking those cycles' busy/occupancy time (booked ahead by
    /// [`Bus::begin_fast_xfer`] or [`Bus::take_in_flight`]): the
    /// per-cycle arbiter books them as it steps them.
    pub(crate) fn put_in_flight(
        &mut self,
        master: MasterId,
        request: BusRequest,
        cycles_left: u32,
    ) {
        debug_assert!(self.active.is_none() && cycles_left > 0);
        let left = u64::from(cycles_left);
        self.counters.busy_cycles -= left;
        self.counters.per_master[master.0 as usize].occupancy_cycles -= left;
        self.active = Some(ActiveTxn {
            master,
            request,
            target: self.target_at(request.addr),
            cycles_left,
        });
    }

    /// Completes a batched kernel transfer opened by
    /// [`Bus::begin_fast_xfer`]: performs the access against the mapped
    /// target at cycle `now` (the exact cycle the per-cycle arbiter would
    /// have performed it) and books the completion. The per-cycle
    /// accounting (`counters.cycles`) is the caller's to advance.
    pub(crate) fn finish_fast_xfer(
        &mut self,
        master: MasterId,
        request: BusRequest,
        now: u64,
    ) -> BusCompletion {
        let txn = ActiveTxn {
            master,
            request,
            target: self.target_at(request.addr),
            cycles_left: 0,
        };
        let completion = self.perform(txn, now);
        self.conclude(&completion);
        completion
    }

    /// Completes a batched *cached* fetch without touching the target: the
    /// decode cache already holds the fetched word, so only the completion
    /// book-keeping (xact count, `last_xact` probe) is replayed.
    pub(crate) fn finish_cached_fetch(&mut self, master: MasterId, addr: Addr, word: u32) {
        self.counters.per_master[master.0 as usize].xacts += 1;
        self.last_xact = Some(BusXact {
            master,
            addr,
            width: MemWidth::Word,
            kind: XferKind::Fetch,
            data: word,
        });
    }

    fn perform(&mut self, txn: ActiveTxn, now: u64) -> BusCompletion {
        let req = txn.request;
        let mut fault = None;
        let mut rdata = 0;
        if !req.addr.is_multiple_of(req.width.bytes()) {
            fault = Some(BusFault::Misaligned {
                addr: req.addr,
                width: req.width,
            });
        } else {
            match txn.target {
                None => fault = Some(BusFault::Unmapped { addr: req.addr }),
                Some(t) => {
                    let target = &mut self.targets[t.0];
                    let result = match req.kind {
                        XferKind::Fetch | XferKind::Read => {
                            target.read(req.addr, req.width, now).map(|v| rdata = v)
                        }
                        XferKind::Write => target.write(req.addr, req.width, req.wdata, now),
                        XferKind::Atomic => target.read(req.addr, req.width, now).and_then(|v| {
                            rdata = v;
                            target.write(req.addr, req.width, req.wdata, now)
                        }),
                    };
                    if let Err(e) = result {
                        fault = Some(e);
                    }
                }
            }
        }
        BusCompletion {
            master: txn.master,
            request: req,
            rdata,
            fault,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::Sram;

    fn word_read(addr: Addr) -> BusRequest {
        BusRequest {
            addr,
            width: MemWidth::Word,
            kind: XferKind::Read,
            wdata: 0,
        }
    }

    fn word_write(addr: Addr, v: u32) -> BusRequest {
        BusRequest {
            addr,
            width: MemWidth::Word,
            kind: XferKind::Write,
            wdata: v,
        }
    }

    fn bus_with_sram(masters: usize) -> Bus<Sram> {
        let mut bus = Bus::new(masters);
        let sram = bus.add_target(Sram::new(0x1000, 0).with_base(0x1000_0000));
        bus.map_range(AddrRange::new(0x1000_0000, 0x1000), sram);
        bus
    }

    #[test]
    fn read_after_write_roundtrips() {
        let mut bus = bus_with_sram(1);
        bus.request(MasterId(0), word_write(0x1000_0010, 0xDEAD_BEEF));
        let c = bus.step(0).expect("1-cycle sram write completes");
        assert!(c.fault.is_none());
        bus.request(MasterId(0), word_read(0x1000_0010));
        let c = bus.step(1).expect("read completes");
        assert_eq!(c.rdata, 0xDEAD_BEEF);
    }

    #[test]
    fn unmapped_access_faults() {
        let mut bus = bus_with_sram(1);
        bus.request(MasterId(0), word_read(0x9999_0000));
        let c = bus.step(0).unwrap();
        assert_eq!(c.fault, Some(BusFault::Unmapped { addr: 0x9999_0000 }));
        assert!(bus.last_xact().is_none(), "faulted access is not traced");
    }

    #[test]
    fn misaligned_access_faults() {
        let mut bus = bus_with_sram(1);
        bus.request(MasterId(0), word_read(0x1000_0002));
        let c = bus.step(0).unwrap();
        assert!(matches!(c.fault, Some(BusFault::Misaligned { .. })));
    }

    #[test]
    fn priority_arbitration_prefers_lower_master() {
        let mut bus = bus_with_sram(2);
        bus.request(MasterId(1), word_write(0x1000_0000, 1));
        bus.request(MasterId(0), word_write(0x1000_0004, 2));
        let c = bus.step(0).unwrap();
        assert_eq!(c.master, MasterId(0), "master 0 wins arbitration");
        let c = bus.step(1).unwrap();
        assert_eq!(c.master, MasterId(1));
    }

    #[test]
    fn round_robin_rotates_grants() {
        let mut bus = bus_with_sram(2);
        bus.set_round_robin(true);
        for i in 0..4 {
            bus.request(MasterId(0), word_write(0x1000_0000, i));
            bus.request(MasterId(1), word_write(0x1000_0004, i));
            let first = bus.step(0).unwrap().master;
            let second = bus.step(1).unwrap().master;
            // After each grant the pointer moves past the winner, so with
            // both masters pending the grants alternate within the pair.
            assert_eq!(first, MasterId(0));
            assert_eq!(second, MasterId(1));
        }
        // After serving master 0 the pointer sits at master 1: a fresh pair
        // of requests now grants master 1 first.
        bus.request(MasterId(0), word_write(0x1000_0000, 9));
        let only = bus.step(10).unwrap().master;
        assert_eq!(only, MasterId(0));
        bus.request(MasterId(0), word_write(0x1000_0000, 9));
        bus.request(MasterId(1), word_write(0x1000_0004, 9));
        assert_eq!(
            bus.step(11).unwrap().master,
            MasterId(1),
            "rotated past master 0"
        );
    }

    #[test]
    fn wait_states_delay_completion() {
        let mut bus: Bus<Sram> = Bus::new(1);
        let slow = bus.add_target(Sram::new(0x100, 3)); // 1 + 3 waits
        bus.map_range(AddrRange::new(0, 0x100), slow);
        bus.request(MasterId(0), word_read(0x10));
        assert!(bus.step(0).is_none());
        assert!(bus.step(1).is_none());
        assert!(bus.step(2).is_none());
        assert!(bus.step(3).is_some(), "completes on 4th cycle");
    }

    #[test]
    fn atomic_swaps_and_returns_old_value() {
        let mut bus = bus_with_sram(1);
        bus.request(MasterId(0), word_write(0x1000_0000, 7));
        bus.step(0);
        bus.request(
            MasterId(0),
            BusRequest {
                addr: 0x1000_0000,
                width: MemWidth::Word,
                kind: XferKind::Atomic,
                wdata: 9,
            },
        );
        // Atomic = read + write occupancy (2 cycles on zero-wait SRAM).
        assert!(bus.step(1).is_none());
        let c = bus.step(2).unwrap();
        assert_eq!(c.rdata, 7, "atomic returns old value");
        bus.request(MasterId(0), word_read(0x1000_0000));
        let c = bus.step(3).unwrap();
        assert_eq!(c.rdata, 9, "atomic stored new value");
    }

    #[test]
    fn overlapping_map_panics() {
        let mut bus: Bus<Sram> = Bus::new(1);
        let a = bus.add_target(Sram::new(0x100, 0));
        let b = bus.add_target(Sram::new(0x100, 0));
        bus.map_range(AddrRange::new(0, 0x100), a);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            bus.map_range(AddrRange::new(0x80, 0x100), b);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn xact_observer_sees_write_data() {
        let mut bus = bus_with_sram(1);
        bus.request(MasterId(0), word_write(0x1000_0020, 0xAB));
        bus.step(0);
        let x = bus.last_xact().expect("xact recorded");
        assert_eq!(x.data, 0xAB);
        assert_eq!(x.kind, XferKind::Write);
        assert_eq!(x.addr, 0x1000_0020);
    }

    #[test]
    fn delta_since_saturates_instead_of_wrapping() {
        // A window where `earlier` is ahead (snapshot from a reset or
        // different bus) must clamp to zero, not wrap near u64::MAX.
        let later = BusCounters {
            cycles: 100,
            busy_cycles: 10,
            contended_cycles: 0,
            per_master: vec![MasterCounters {
                grants: 5,
                xacts: 5,
                faults: 0,
                occupancy_cycles: 10,
                wait_cycles: 2,
            }],
        };
        let ahead = BusCounters {
            cycles: 500,
            busy_cycles: 400,
            contended_cycles: 300,
            per_master: vec![MasterCounters {
                grants: 50,
                xacts: 40,
                faults: 30,
                occupancy_cycles: 400,
                wait_cycles: 200,
            }],
        };
        let d = later.delta_since(&ahead);
        assert_eq!(d.cycles, 0);
        assert_eq!(d.busy_cycles, 0);
        assert_eq!(d.contended_cycles, 0);
        assert_eq!(d.per_master[0], MasterCounters::default());

        // Long-run end of the range: counters near u64::MAX still produce
        // an exact small window without overflow.
        let huge_earlier = BusCounters {
            cycles: u64::MAX - 10,
            busy_cycles: u64::MAX - 20,
            contended_cycles: u64::MAX - 30,
            per_master: vec![MasterCounters {
                grants: u64::MAX - 1,
                xacts: u64::MAX - 2,
                faults: u64::MAX - 3,
                occupancy_cycles: u64::MAX - 4,
                wait_cycles: u64::MAX - 5,
            }],
        };
        let mut huge_later = huge_earlier.clone();
        huge_later.cycles += 7;
        huge_later.busy_cycles += 6;
        huge_later.contended_cycles += 5;
        huge_later.per_master[0].grants += 1;
        huge_later.per_master[0].wait_cycles += 4;
        let d = huge_later.delta_since(&huge_earlier);
        assert_eq!(d.cycles, 7);
        assert_eq!(d.busy_cycles, 6);
        assert_eq!(d.contended_cycles, 5);
        assert_eq!(d.per_master[0].grants, 1);
        assert_eq!(d.per_master[0].xacts, 0);
        assert_eq!(d.per_master[0].wait_cycles, 4);

        // A master slot missing from `earlier` counts from zero.
        let mut wider = later.clone();
        wider.per_master.push(MasterCounters {
            grants: 3,
            ..MasterCounters::default()
        });
        let d = wider.delta_since(&later);
        assert_eq!(d.per_master[1].grants, 3);
    }

    #[test]
    fn addr_range_helpers() {
        let r = AddrRange::new(0x100, 0x40);
        assert!(r.contains(0x100));
        assert!(r.contains(0x13F));
        assert!(!r.contains(0x140));
        assert_eq!(r.len(), 0x40);
        assert!(!r.is_empty());
        assert!(r.overlaps(AddrRange::new(0x13F, 1)));
        assert!(!r.overlaps(AddrRange::new(0x140, 1)));
    }
}
