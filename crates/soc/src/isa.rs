//! The TC-RISC instruction set.
//!
//! A compact 32-bit RISC ISA standing in for the TriCore/PCP cores of the
//! TC1796. The MCDS debug logic only observes *retirement-level* events
//! (program counter, branch kind, data accesses), so any in-order core with a
//! binary-encoded instruction stream produces the same observation stream the
//! real trace port would. Sixteen general registers; `r0` reads as zero,
//! `r14` is the stack pointer by convention and `r15` the link register.
//!
//! Encoding (32 bits, big-field layout):
//!
//! ```text
//! R-type: [31:24] op  [23:20] rd  [19:16] rs1  [15:12] rs2  [11:0] zero
//! I-type: [31:24] op  [23:20] rd  [19:16] rs1  [15:0]  imm16
//! B-type: [31:24] op  [23:20] rs1 [19:16] rs2  [15:0]  imm16 (signed words)
//! J-type: [31:24] op  [23:20] rd  [19:0]  imm20 (signed words)
//! ```
//!
//! The all-zero word is [`Instr::Brk`], so a debugger sets a software
//! breakpoint by writing `0x0000_0000` over any instruction — mirroring the
//! "unlimited software breakpoints" workflow of Section 7 of the paper.

use std::fmt;

/// A general-purpose register index (`r0`–`r15`).
///
/// `r0` is hardwired to zero: writes are discarded, reads return 0.
#[derive(
    serde::Serialize,
    serde::Deserialize,
    Debug,
    Clone,
    Copy,
    PartialEq,
    Eq,
    PartialOrd,
    Ord,
    Hash,
    Default,
)]
pub struct Reg(u8);

impl Reg {
    /// The zero register `r0`.
    pub const ZERO: Reg = Reg(0);
    /// The conventional stack pointer `r14`.
    pub const SP: Reg = Reg(14);
    /// The conventional link register `r15`.
    pub const LR: Reg = Reg(15);

    /// Creates a register index.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 16`.
    pub fn new(n: u8) -> Reg {
        assert!(n < 16, "register index out of range: r{n}");
        Reg(n)
    }

    /// Returns the register number (0–15).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A register–register ALU operation.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left (by the low 5 bits of the operand).
    Sll,
    /// Logical shift right.
    Srl,
    /// Arithmetic shift right.
    Sra,
    /// Signed set-less-than (1 or 0).
    Slt,
    /// Unsigned set-less-than.
    Sltu,
    /// Low 32 bits of the product.
    Mul,
    /// High 32 bits of the signed 64-bit product.
    Mulh,
    /// Signed division (÷0 yields all-ones, no trap).
    Div,
    /// Signed remainder (÷0 yields the dividend).
    Rem,
}

impl AluOp {
    /// Extra execute cycles beyond the base single cycle.
    ///
    /// Multiplies take one extra cycle, divides/remainders take seven, in the
    /// spirit of small automotive cores.
    pub fn extra_cycles(self) -> u32 {
        match self {
            AluOp::Mul | AluOp::Mulh => 1,
            AluOp::Div | AluOp::Rem => 7,
            _ => 0,
        }
    }

    /// Applies the operation to two operands.
    ///
    /// Division by zero yields all-ones (quotient) / the dividend
    /// (remainder), matching common embedded-core behaviour rather than
    /// trapping.
    pub fn apply(self, a: u32, b: u32) -> u32 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Sll => a.wrapping_shl(b & 31),
            AluOp::Srl => a.wrapping_shr(b & 31),
            AluOp::Sra => (a as i32).wrapping_shr(b & 31) as u32,
            AluOp::Slt => ((a as i32) < (b as i32)) as u32,
            AluOp::Sltu => (a < b) as u32,
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Mulh => (((a as i32 as i64) * (b as i32 as i64)) >> 32) as u32,
            AluOp::Div => {
                if b == 0 {
                    u32::MAX
                } else {
                    ((a as i32).wrapping_div(b as i32)) as u32
                }
            }
            AluOp::Rem => {
                if b == 0 {
                    a
                } else {
                    ((a as i32).wrapping_rem(b as i32)) as u32
                }
            }
        }
    }
}

/// A branch comparison condition.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchCond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed greater-or-equal.
    Ge,
    /// Unsigned less-than.
    Ltu,
    /// Unsigned greater-or-equal.
    Geu,
}

impl BranchCond {
    /// Evaluates the condition on two register values.
    pub fn eval(self, a: u32, b: u32) -> bool {
        match self {
            BranchCond::Eq => a == b,
            BranchCond::Ne => a != b,
            BranchCond::Lt => (a as i32) < (b as i32),
            BranchCond::Ge => (a as i32) >= (b as i32),
            BranchCond::Ltu => a < b,
            BranchCond::Geu => a >= b,
        }
    }
}

/// Width of a memory access.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemWidth {
    /// 8-bit access.
    Byte,
    /// 16-bit access.
    Half,
    /// 32-bit access.
    Word,
}

impl MemWidth {
    /// The access size in bytes.
    pub fn bytes(self) -> u32 {
        match self {
            MemWidth::Byte => 1,
            MemWidth::Half => 2,
            MemWidth::Word => 4,
        }
    }
}

/// A special register readable with `MFSR`.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpecialReg {
    /// The id of the executing core.
    CoreId,
    /// Low 32 bits of the core-local retired-cycle counter.
    CycleLo,
    /// High 32 bits of the core-local retired-cycle counter.
    CycleHi,
    /// The exception program counter: the address interrupted-from, and
    /// the `ERET` target.
    Epc,
    /// Interrupt enable (bit 0). Cleared on interrupt entry, set by `ERET`.
    IrqEnable,
}

impl SpecialReg {
    fn from_code(code: u16) -> Option<SpecialReg> {
        match code {
            0 => Some(SpecialReg::CoreId),
            1 => Some(SpecialReg::CycleLo),
            2 => Some(SpecialReg::CycleHi),
            3 => Some(SpecialReg::Epc),
            4 => Some(SpecialReg::IrqEnable),
            _ => None,
        }
    }

    fn code(self) -> u16 {
        match self {
            SpecialReg::CoreId => 0,
            SpecialReg::CycleLo => 1,
            SpecialReg::CycleHi => 2,
            SpecialReg::Epc => 3,
            SpecialReg::IrqEnable => 4,
        }
    }
}

/// A decoded TC-RISC instruction.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    /// Software breakpoint (the all-zero encoding). Halts the core and
    /// raises a breakpoint event for the debugger.
    Brk,
    /// No operation.
    Nop,
    /// Stops the core permanently (program completion marker).
    Halt,
    /// Memory barrier; drains the core's outstanding access (1 cycle).
    Sync,
    /// Reads a special register into `rd`.
    #[allow(missing_docs)]
    Mfsr { rd: Reg, sr: SpecialReg },
    /// Writes `rs1` into a special register (only [`SpecialReg::Epc`] and
    /// [`SpecialReg::IrqEnable`] are writable).
    #[allow(missing_docs)]
    Mtsr { sr: SpecialReg, rs1: Reg },
    /// Return from interrupt: `pc = EPC`, interrupts re-enabled. Traced as
    /// an indirect control transfer.
    Eret,
    /// Register–register ALU operation: `rd = op(rs1, rs2)`.
    #[allow(missing_docs)]
    Alu {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// Register–immediate ALU operation: `rd = op(rs1, ext(imm))` —
    /// logical ops zero-extend the immediate, arithmetic ops sign-extend.
    #[allow(missing_docs)]
    AluImm {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        imm: i16,
    },
    /// Loads `imm << 16` into `rd`.
    #[allow(missing_docs)]
    Lui { rd: Reg, imm: u16 },
    /// Memory load: `rd = mem[rs1 + sext(imm)]`, sign- or zero-extended.
    #[allow(missing_docs)]
    Load {
        width: MemWidth,
        signed: bool,
        rd: Reg,
        rs1: Reg,
        imm: i16,
    },
    /// Memory store: `mem[rs1 + sext(imm)] = rs2`.
    #[allow(missing_docs)]
    Store {
        width: MemWidth,
        rs2: Reg,
        rs1: Reg,
        imm: i16,
    },
    /// Conditional pc-relative branch by `imm` words.
    #[allow(missing_docs)]
    Branch {
        cond: BranchCond,
        rs1: Reg,
        rs2: Reg,
        imm: i16,
    },
    /// Jump and link: `rd = pc + 4; pc += imm * 4`.
    #[allow(missing_docs)]
    Jal { rd: Reg, imm: i32 },
    /// Jump and link register: `rd = pc + 4; pc = (rs1 + sext(imm)) & !3`.
    #[allow(missing_docs)]
    Jalr { rd: Reg, rs1: Reg, imm: i16 },
    /// Atomic exchange: `rd = mem[rs1]; mem[rs1] = rs2` as one locked bus
    /// transaction.
    #[allow(missing_docs)]
    Swap { rd: Reg, rs1: Reg, rs2: Reg },
}

/// Error returned when a 32-bit word does not decode to a TC-RISC
/// instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeInstrError {
    /// The word that failed to decode.
    pub word: u32,
}

impl fmt::Display for DecodeInstrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid instruction encoding {:#010x}", self.word)
    }
}

impl std::error::Error for DecodeInstrError {}

mod op {
    pub const BRK: u8 = 0x00;
    pub const NOP: u8 = 0x01;
    pub const HALT: u8 = 0x02;
    pub const SYNC: u8 = 0x03;
    pub const MFSR: u8 = 0x04;
    pub const MTSR: u8 = 0x05;
    pub const ERET: u8 = 0x06;
    pub const ALU_BASE: u8 = 0x10; // ..=0x1D, order of AluOp
    pub const ALUI_BASE: u8 = 0x20; // ADDI..SRAI subset below
    pub const LUI: u8 = 0x28;
    pub const LW: u8 = 0x30;
    pub const LH: u8 = 0x31;
    pub const LHU: u8 = 0x32;
    pub const LB: u8 = 0x33;
    pub const LBU: u8 = 0x34;
    pub const SW: u8 = 0x35;
    pub const SH: u8 = 0x36;
    pub const SB: u8 = 0x37;
    pub const BR_BASE: u8 = 0x40; // ..=0x45, order of BranchCond
    pub const JAL: u8 = 0x50;
    pub const JALR: u8 = 0x51;
    pub const SWAP: u8 = 0x60;
}

const ALU_OPS: [AluOp; 14] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::And,
    AluOp::Or,
    AluOp::Xor,
    AluOp::Sll,
    AluOp::Srl,
    AluOp::Sra,
    AluOp::Slt,
    AluOp::Sltu,
    AluOp::Mul,
    AluOp::Mulh,
    AluOp::Div,
    AluOp::Rem,
];

// Immediate forms exist only for the first 8 ALU ops (Add..Sra).
const ALUI_OPS: [AluOp; 8] = [
    AluOp::Add,
    AluOp::And,
    AluOp::Or,
    AluOp::Xor,
    AluOp::Slt,
    AluOp::Sll,
    AluOp::Srl,
    AluOp::Sra,
];

const BR_CONDS: [BranchCond; 6] = [
    BranchCond::Eq,
    BranchCond::Ne,
    BranchCond::Lt,
    BranchCond::Ge,
    BranchCond::Ltu,
    BranchCond::Geu,
];

fn alu_index(op: AluOp) -> u8 {
    ALU_OPS.iter().position(|&o| o == op).expect("op in table") as u8
}

fn alui_index(op: AluOp) -> Option<u8> {
    ALUI_OPS.iter().position(|&o| o == op).map(|i| i as u8)
}

fn br_index(c: BranchCond) -> u8 {
    BR_CONDS
        .iter()
        .position(|&o| o == c)
        .expect("cond in table") as u8
}

impl Instr {
    /// Encodes the instruction to its 32-bit binary form.
    ///
    /// # Panics
    ///
    /// Panics if a J-type immediate does not fit in 20 signed bits, or if an
    /// immediate-form ALU op has no immediate encoding (`Mul` and friends).
    pub fn encode(self) -> u32 {
        fn r(op: u8, rd: u8, rs1: u8, rs2: u8) -> u32 {
            (op as u32) << 24 | (rd as u32) << 20 | (rs1 as u32) << 16 | (rs2 as u32) << 12
        }
        fn i(op: u8, rd: u8, rs1: u8, imm: u16) -> u32 {
            (op as u32) << 24 | (rd as u32) << 20 | (rs1 as u32) << 16 | imm as u32
        }
        match self {
            Instr::Brk => 0,
            Instr::Nop => r(op::NOP, 0, 0, 0),
            Instr::Halt => r(op::HALT, 0, 0, 0),
            Instr::Sync => r(op::SYNC, 0, 0, 0),
            Instr::Mfsr { rd, sr } => i(op::MFSR, rd.0, 0, sr.code()),
            Instr::Mtsr { sr, rs1 } => i(op::MTSR, 0, rs1.0, sr.code()),
            Instr::Eret => r(op::ERET, 0, 0, 0),
            Instr::Alu {
                op: o,
                rd,
                rs1,
                rs2,
            } => r(op::ALU_BASE + alu_index(o), rd.0, rs1.0, rs2.0),
            Instr::AluImm {
                op: o,
                rd,
                rs1,
                imm,
            } => {
                let idx =
                    alui_index(o).unwrap_or_else(|| panic!("ALU op {o:?} has no immediate form"));
                i(op::ALUI_BASE + idx, rd.0, rs1.0, imm as u16)
            }
            Instr::Lui { rd, imm } => i(op::LUI, rd.0, 0, imm),
            Instr::Load {
                width,
                signed,
                rd,
                rs1,
                imm,
            } => {
                let o = match (width, signed) {
                    (MemWidth::Word, _) => op::LW,
                    (MemWidth::Half, true) => op::LH,
                    (MemWidth::Half, false) => op::LHU,
                    (MemWidth::Byte, true) => op::LB,
                    (MemWidth::Byte, false) => op::LBU,
                };
                i(o, rd.0, rs1.0, imm as u16)
            }
            Instr::Store {
                width,
                rs2,
                rs1,
                imm,
            } => {
                let o = match width {
                    MemWidth::Word => op::SW,
                    MemWidth::Half => op::SH,
                    MemWidth::Byte => op::SB,
                };
                i(o, rs2.0, rs1.0, imm as u16)
            }
            Instr::Branch {
                cond,
                rs1,
                rs2,
                imm,
            } => i(op::BR_BASE + br_index(cond), rs1.0, rs2.0, imm as u16),
            Instr::Jal { rd, imm } => {
                assert!(
                    (-(1 << 19)..(1 << 19)).contains(&imm),
                    "JAL offset {imm} out of 20-bit range"
                );
                (op::JAL as u32) << 24 | (rd.0 as u32) << 20 | (imm as u32 & 0xF_FFFF)
            }
            Instr::Jalr { rd, rs1, imm } => i(op::JALR, rd.0, rs1.0, imm as u16),
            Instr::Swap { rd, rs1, rs2 } => r(op::SWAP, rd.0, rs1.0, rs2.0),
        }
    }

    /// Decodes a 32-bit word.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeInstrError`] if the opcode byte is not assigned.
    pub fn decode(word: u32) -> Result<Instr, DecodeInstrError> {
        let opc = (word >> 24) as u8;
        let rd = Reg(((word >> 20) & 0xF) as u8);
        let rs1 = Reg(((word >> 16) & 0xF) as u8);
        let rs2 = Reg(((word >> 12) & 0xF) as u8);
        let imm16 = word as u16 as i16;
        let err = DecodeInstrError { word };
        Ok(match opc {
            op::BRK => Instr::Brk,
            op::NOP => Instr::Nop,
            op::HALT => Instr::Halt,
            op::SYNC => Instr::Sync,
            op::MFSR => Instr::Mfsr {
                rd,
                sr: SpecialReg::from_code(word as u16).ok_or(err)?,
            },
            op::MTSR => Instr::Mtsr {
                sr: SpecialReg::from_code(word as u16).ok_or(err)?,
                rs1,
            },
            op::ERET => Instr::Eret,
            o if (op::ALU_BASE..op::ALU_BASE + 14).contains(&o) => Instr::Alu {
                op: ALU_OPS[(o - op::ALU_BASE) as usize],
                rd,
                rs1,
                rs2,
            },
            o if (op::ALUI_BASE..op::ALUI_BASE + 8).contains(&o) => Instr::AluImm {
                op: ALUI_OPS[(o - op::ALUI_BASE) as usize],
                rd,
                rs1,
                imm: imm16,
            },
            op::LUI => Instr::Lui {
                rd,
                imm: word as u16,
            },
            op::LW => Instr::Load {
                width: MemWidth::Word,
                signed: false,
                rd,
                rs1,
                imm: imm16,
            },
            op::LH => Instr::Load {
                width: MemWidth::Half,
                signed: true,
                rd,
                rs1,
                imm: imm16,
            },
            op::LHU => Instr::Load {
                width: MemWidth::Half,
                signed: false,
                rd,
                rs1,
                imm: imm16,
            },
            op::LB => Instr::Load {
                width: MemWidth::Byte,
                signed: true,
                rd,
                rs1,
                imm: imm16,
            },
            op::LBU => Instr::Load {
                width: MemWidth::Byte,
                signed: false,
                rd,
                rs1,
                imm: imm16,
            },
            op::SW => Instr::Store {
                width: MemWidth::Word,
                rs2: rd,
                rs1,
                imm: imm16,
            },
            op::SH => Instr::Store {
                width: MemWidth::Half,
                rs2: rd,
                rs1,
                imm: imm16,
            },
            op::SB => Instr::Store {
                width: MemWidth::Byte,
                rs2: rd,
                rs1,
                imm: imm16,
            },
            o if (op::BR_BASE..op::BR_BASE + 6).contains(&o) => Instr::Branch {
                cond: BR_CONDS[(o - op::BR_BASE) as usize],
                rs1: rd,
                rs2: rs1,
                imm: imm16,
            },
            op::JAL => {
                let raw = word & 0xF_FFFF;
                let imm = ((raw << 12) as i32) >> 12; // sign-extend 20 bits
                Instr::Jal { rd, imm }
            }
            op::JALR => Instr::Jalr {
                rd,
                rs1,
                imm: imm16,
            },
            op::SWAP => Instr::Swap { rd, rs1, rs2 },
            _ => return Err(err),
        })
    }

    /// True if this instruction transfers control (taken or not).
    pub fn is_branch(self) -> bool {
        matches!(
            self,
            Instr::Branch { .. } | Instr::Jal { .. } | Instr::Jalr { .. } | Instr::Eret
        )
    }

    /// True if this instruction's branch target cannot be computed from the
    /// instruction word alone (needed by the trace compressor: indirect
    /// branches must carry an address in the trace stream).
    pub fn is_indirect_branch(self) -> bool {
        matches!(self, Instr::Jalr { .. } | Instr::Eret)
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instr::Brk => write!(f, "brk"),
            Instr::Nop => write!(f, "nop"),
            Instr::Halt => write!(f, "halt"),
            Instr::Sync => write!(f, "sync"),
            Instr::Mfsr { rd, sr } => write!(f, "mfsr {rd}, {sr:?}"),
            Instr::Mtsr { sr, rs1 } => write!(f, "mtsr {sr:?}, {rs1}"),
            Instr::Eret => write!(f, "eret"),
            Instr::Alu { op, rd, rs1, rs2 } => {
                write!(f, "{} {rd}, {rs1}, {rs2}", format!("{op:?}").to_lowercase())
            }
            Instr::AluImm { op, rd, rs1, imm } => {
                write!(
                    f,
                    "{}i {rd}, {rs1}, {imm}",
                    format!("{op:?}").to_lowercase()
                )
            }
            Instr::Lui { rd, imm } => write!(f, "lui {rd}, {imm:#x}"),
            Instr::Load {
                width,
                signed,
                rd,
                rs1,
                imm,
            } => {
                let m = match (width, signed) {
                    (MemWidth::Word, _) => "lw",
                    (MemWidth::Half, true) => "lh",
                    (MemWidth::Half, false) => "lhu",
                    (MemWidth::Byte, true) => "lb",
                    (MemWidth::Byte, false) => "lbu",
                };
                write!(f, "{m} {rd}, {imm}({rs1})")
            }
            Instr::Store {
                width,
                rs2,
                rs1,
                imm,
            } => {
                let m = match width {
                    MemWidth::Word => "sw",
                    MemWidth::Half => "sh",
                    MemWidth::Byte => "sb",
                };
                write!(f, "{m} {rs2}, {imm}({rs1})")
            }
            Instr::Branch {
                cond,
                rs1,
                rs2,
                imm,
            } => {
                write!(
                    f,
                    "b{} {rs1}, {rs2}, {imm}",
                    format!("{cond:?}").to_lowercase()
                )
            }
            Instr::Jal { rd, imm } => write!(f, "jal {rd}, {imm}"),
            Instr::Jalr { rd, rs1, imm } => write!(f, "jalr {rd}, {imm}({rs1})"),
            Instr::Swap { rd, rs1, rs2 } => write!(f, "swap {rd}, {rs1}, {rs2}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(i: Instr) {
        let w = i.encode();
        let back = Instr::decode(w).expect("decodes");
        assert_eq!(i, back, "round-trip through {w:#010x}");
    }

    #[test]
    fn brk_is_all_zero() {
        assert_eq!(Instr::Brk.encode(), 0);
        assert_eq!(Instr::decode(0).unwrap(), Instr::Brk);
    }

    #[test]
    fn roundtrip_simple_ops() {
        roundtrip(Instr::Nop);
        roundtrip(Instr::Halt);
        roundtrip(Instr::Sync);
        roundtrip(Instr::Mfsr {
            rd: Reg::new(3),
            sr: SpecialReg::CycleLo,
        });
        roundtrip(Instr::Mfsr {
            rd: Reg::new(3),
            sr: SpecialReg::Epc,
        });
        roundtrip(Instr::Mtsr {
            sr: SpecialReg::IrqEnable,
            rs1: Reg::new(4),
        });
        roundtrip(Instr::Eret);
    }

    #[test]
    fn roundtrip_all_alu_ops() {
        for &o in &ALU_OPS {
            roundtrip(Instr::Alu {
                op: o,
                rd: Reg::new(1),
                rs1: Reg::new(2),
                rs2: Reg::new(3),
            });
        }
    }

    #[test]
    fn roundtrip_all_alui_ops() {
        for &o in &ALUI_OPS {
            roundtrip(Instr::AluImm {
                op: o,
                rd: Reg::new(5),
                rs1: Reg::new(6),
                imm: -42,
            });
        }
    }

    #[test]
    fn roundtrip_mem_ops() {
        for (w, s) in [
            (MemWidth::Word, false),
            (MemWidth::Half, true),
            (MemWidth::Half, false),
            (MemWidth::Byte, true),
            (MemWidth::Byte, false),
        ] {
            roundtrip(Instr::Load {
                width: w,
                signed: s,
                rd: Reg::new(7),
                rs1: Reg::new(8),
                imm: -4,
            });
        }
        for w in [MemWidth::Word, MemWidth::Half, MemWidth::Byte] {
            roundtrip(Instr::Store {
                width: w,
                rs2: Reg::new(9),
                rs1: Reg::new(10),
                imm: 12,
            });
        }
        // LW decodes as unsigned per our canonical form; LH keeps sign.
        roundtrip(Instr::Swap {
            rd: Reg::new(1),
            rs1: Reg::new(2),
            rs2: Reg::new(3),
        });
    }

    #[test]
    fn roundtrip_branches_and_jumps() {
        for &c in &BR_CONDS {
            roundtrip(Instr::Branch {
                cond: c,
                rs1: Reg::new(1),
                rs2: Reg::new(2),
                imm: -100,
            });
        }
        roundtrip(Instr::Jal {
            rd: Reg::LR,
            imm: -1234,
        });
        roundtrip(Instr::Jal {
            rd: Reg::ZERO,
            imm: 0x7FFFF,
        });
        roundtrip(Instr::Jalr {
            rd: Reg::ZERO,
            rs1: Reg::LR,
            imm: 0,
        });
        roundtrip(Instr::Lui {
            rd: Reg::new(4),
            imm: 0xDEAD,
        });
    }

    #[test]
    fn invalid_opcode_rejected() {
        assert!(Instr::decode(0xFF00_0000).is_err());
        assert!(Instr::decode(0x7000_0000).is_err());
        // MFSR with unassigned special-reg code.
        assert!(Instr::decode((0x04u32) << 24 | 99).is_err());
    }

    #[test]
    fn alu_semantics() {
        assert_eq!(AluOp::Add.apply(2, 3), 5);
        assert_eq!(AluOp::Sub.apply(2, 3), u32::MAX);
        assert_eq!(AluOp::Sra.apply(0x8000_0000, 31), u32::MAX);
        assert_eq!(AluOp::Srl.apply(0x8000_0000, 31), 1);
        assert_eq!(AluOp::Slt.apply(u32::MAX, 0), 1, "-1 < 0 signed");
        assert_eq!(AluOp::Sltu.apply(u32::MAX, 0), 0);
        assert_eq!(
            AluOp::Mulh.apply(0x8000_0000, 2),
            u32::MAX,
            "sign-extended high mul"
        );
        assert_eq!(AluOp::Div.apply(7, 0), u32::MAX);
        assert_eq!(AluOp::Rem.apply(7, 0), 7);
        assert_eq!(AluOp::Div.apply((-7i32) as u32, 2), (-3i32) as u32);
    }

    #[test]
    fn branch_cond_semantics() {
        assert!(BranchCond::Lt.eval((-1i32) as u32, 0));
        assert!(!BranchCond::Ltu.eval((-1i32) as u32, 0));
        assert!(BranchCond::Geu.eval(u32::MAX, 5));
        assert!(BranchCond::Eq.eval(9, 9));
        assert!(BranchCond::Ne.eval(9, 8));
        assert!(BranchCond::Ge.eval(0, (-1i32) as u32));
    }

    #[test]
    fn reg_zero_constants() {
        assert_eq!(Reg::ZERO.index(), 0);
        assert_eq!(Reg::SP.index(), 14);
        assert_eq!(Reg::LR.index(), 15);
        assert_eq!(Reg::new(7).to_string(), "r7");
    }

    #[test]
    #[should_panic(expected = "register index out of range")]
    fn reg_out_of_range_panics() {
        let _ = Reg::new(16);
    }
}
