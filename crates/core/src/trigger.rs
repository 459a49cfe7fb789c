//! Trigger extraction: program and data comparators.
//!
//! Section 4: *"The trigger resources are implemented for the program and
//! data accesses and are further enhanced using state-machines based on
//! counters. They are compact but effective."*
//!
//! Each core's adaptation logic carries a small bank of program comparators
//! (matching the retired PC) and data comparators (matching access address,
//! direction and optionally a masked value). Comparator match outputs, the
//! external trigger pins, counter outputs and state-machine outputs form the
//! *signal* space ([`SignalRef`]) consumed by the cross-trigger matrix and
//! the trace qualifiers.

use mcds_soc::bus::AddrRange;
use mcds_soc::event::{CoreId, MemAccessInfo, RetireEvent};

/// Maximum program comparators per core ("compact but effective").
pub const PROG_COMPARATORS_PER_CORE: usize = 4;

/// Maximum data comparators per core.
pub const DATA_COMPARATORS_PER_CORE: usize = 4;

/// Which access directions a data comparator matches.
#[derive(
    serde::Serialize, serde::Deserialize, Debug, Clone, Copy, PartialEq, Eq, Hash, Default,
)]
pub enum AccessKind {
    /// Reads only.
    Read,
    /// Writes only.
    Write,
    /// Reads and writes.
    #[default]
    Any,
}

impl AccessKind {
    /// True if an access with `is_write` matches.
    pub fn matches(self, is_write: bool) -> bool {
        match self {
            AccessKind::Read => !is_write,
            AccessKind::Write => is_write,
            AccessKind::Any => true,
        }
    }
}

/// A program-address comparator: matches when a retired instruction's PC
/// falls inside the range.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgramComparator {
    /// The matched address range.
    pub range: AddrRange,
}

impl ProgramComparator {
    /// A comparator matching one exact instruction address.
    pub fn at(pc: u32) -> ProgramComparator {
        ProgramComparator {
            range: AddrRange::new(pc, 4),
        }
    }

    /// A comparator matching an address range.
    pub fn in_range(range: AddrRange) -> ProgramComparator {
        ProgramComparator { range }
    }

    /// True if the retired instruction matches.
    pub fn matches(&self, retire: &RetireEvent) -> bool {
        self.range.contains(retire.pc)
    }
}

/// A data-access comparator (watchpoint): matches address range, direction
/// and optionally a masked data value.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataComparator {
    /// The matched address range.
    pub range: AddrRange,
    /// Matched access direction.
    pub access: AccessKind,
    /// Optional `(value, mask)` condition: matches when
    /// `data & mask == value & mask`.
    pub value_match: Option<(u32, u32)>,
}

impl DataComparator {
    /// A comparator on an address range for the given direction, no value
    /// condition.
    pub fn on(range: AddrRange, access: AccessKind) -> DataComparator {
        DataComparator {
            range,
            access,
            value_match: None,
        }
    }

    /// Adds a masked value condition.
    pub fn with_value(mut self, value: u32, mask: u32) -> DataComparator {
        self.value_match = Some((value, mask));
        self
    }

    /// True if the access matches.
    pub fn matches(&self, access: &MemAccessInfo) -> bool {
        if !self.range.contains(access.addr) || !self.access.matches(access.is_write) {
            return false;
        }
        match self.value_match {
            None => true,
            Some((v, m)) => access.value & m == v & m,
        }
    }
}

/// A named trigger signal: the wire connecting trigger extraction, counters,
/// state machines and the cross-trigger matrix.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SignalRef {
    /// Program comparator `idx` of `core` matched this cycle.
    ProgComp {
        /// Owning core.
        core: CoreId,
        /// Comparator index.
        idx: usize,
    },
    /// Data comparator `idx` of `core` matched this cycle.
    DataComp {
        /// Owning core.
        core: CoreId,
        /// Comparator index.
        idx: usize,
    },
    /// External trigger-in pin went (or is) high this cycle.
    ExternalPin(u8),
    /// Counter `idx` reached its threshold.
    Counter(usize),
    /// State machine `idx` is in its trigger state.
    StateMachine(usize),
    /// Core `core` stopped (halt, breakpoint, fault) this cycle.
    CoreStopped(CoreId),
    /// Core `core` took an interrupt this cycle.
    IrqEntry(CoreId),
}

/// The set of signals asserted in one cycle.
///
/// A cycle asserts a handful of signals at most, so the set is a small
/// vector in assertion order: building, probing and dropping it costs no
/// hashing, and an empty set no allocation.
#[derive(Debug, Clone, Default)]
pub struct SignalSet {
    asserted: Vec<SignalRef>,
}

impl PartialEq for SignalSet {
    fn eq(&self, other: &SignalSet) -> bool {
        self.len() == other.len() && self.iter().all(|s| other.is_asserted(*s))
    }
}

impl Eq for SignalSet {}

impl SignalSet {
    /// An empty set.
    pub fn new() -> SignalSet {
        SignalSet::default()
    }

    /// Asserts a signal.
    pub fn assert_signal(&mut self, s: SignalRef) {
        if !self.is_asserted(s) {
            self.asserted.push(s);
        }
    }

    /// True if `s` is asserted.
    pub fn is_asserted(&self, s: SignalRef) -> bool {
        self.asserted.contains(&s)
    }

    /// True if any of `signals` is asserted (the OR stage of Figure 2).
    pub fn any_asserted<'a>(&self, signals: impl IntoIterator<Item = &'a SignalRef>) -> bool {
        signals.into_iter().any(|s| self.is_asserted(*s))
    }

    /// Number of asserted signals.
    pub fn len(&self) -> usize {
        self.asserted.len()
    }

    /// True if no signal is asserted.
    pub fn is_empty(&self) -> bool {
        self.asserted.is_empty()
    }

    /// Iterates over asserted signals, in assertion order.
    pub fn iter(&self) -> impl Iterator<Item = &SignalRef> {
        self.asserted.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcds_soc::isa::{Instr, MemWidth};

    fn retire(pc: u32) -> RetireEvent {
        RetireEvent {
            core: CoreId(0),
            pc,
            instr: Instr::Nop,
            next_pc: pc + 4,
            taken: None,
            mem: None,
        }
    }

    fn access(addr: u32, is_write: bool, value: u32) -> MemAccessInfo {
        MemAccessInfo {
            addr,
            width: MemWidth::Word,
            is_write,
            value,
        }
    }

    #[test]
    fn program_comparator_exact_and_range() {
        let c = ProgramComparator::at(0x8000_0010);
        assert!(c.matches(&retire(0x8000_0010)));
        assert!(!c.matches(&retire(0x8000_0014)));
        let r = ProgramComparator::in_range(AddrRange::new(0x8000_0000, 0x100));
        assert!(r.matches(&retire(0x8000_00FC)));
        assert!(!r.matches(&retire(0x8000_0100)));
    }

    #[test]
    fn data_comparator_direction() {
        let w = DataComparator::on(AddrRange::new(0x1000, 0x10), AccessKind::Write);
        assert!(w.matches(&access(0x1004, true, 0)));
        assert!(!w.matches(&access(0x1004, false, 0)));
        let r = DataComparator::on(AddrRange::new(0x1000, 0x10), AccessKind::Read);
        assert!(r.matches(&access(0x1004, false, 0)));
        assert!(!r.matches(&access(0x1004, true, 0)));
        let a = DataComparator::on(AddrRange::new(0x1000, 0x10), AccessKind::Any);
        assert!(a.matches(&access(0x1004, true, 0)));
        assert!(a.matches(&access(0x1004, false, 0)));
    }

    #[test]
    fn data_comparator_masked_value() {
        let c = DataComparator::on(AddrRange::new(0x1000, 0x10), AccessKind::Write)
            .with_value(0xAB00, 0xFF00);
        assert!(
            c.matches(&access(0x1000, true, 0xAB42)),
            "mask ignores low byte"
        );
        assert!(!c.matches(&access(0x1000, true, 0xAC42)));
        assert!(!c.matches(&access(0x2000, true, 0xAB00)), "outside range");
    }

    #[test]
    fn signal_set_or_semantics() {
        let mut s = SignalSet::new();
        let a = SignalRef::ProgComp {
            core: CoreId(0),
            idx: 0,
        };
        let b = SignalRef::ExternalPin(2);
        let c = SignalRef::Counter(1);
        s.assert_signal(a);
        s.assert_signal(b);
        assert!(s.is_asserted(a));
        assert!(!s.is_asserted(c));
        assert!(s.any_asserted(&[c, b]));
        assert!(!s.any_asserted(&[c]));
        assert_eq!(s.len(), 2);
    }
}
