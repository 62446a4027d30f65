//! The SB-ISA machine instruction set.
//!
//! A load/store register machine with 16 general-purpose 64-bit registers.
//! Calling convention: arguments in `r1..r6`, return value in `r0`.
//! Control flow uses instruction-index targets (the assembler resolves
//! labels).

use std::fmt;

use manta_ir::{BinOp, CmpPred, Width};

/// A general-purpose register `r0`–`r15`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Reg(pub u8);

impl Reg {
    /// Number of general-purpose registers.
    pub const COUNT: usize = 16;
    /// The return-value register.
    pub const RET: Reg = Reg(0);

    /// The register carrying argument `i` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 6`; SB-ISA passes at most six register arguments.
    pub fn arg(i: usize) -> Reg {
        assert!(i < 6, "SB-ISA passes at most 6 register arguments");
        Reg(1 + i as u8)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// One machine instruction.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum MachInst {
    /// `mov rd, rs`.
    Mov {
        /// Destination.
        rd: Reg,
        /// Source.
        rs: Reg,
    },
    /// `movi rd, imm` — load a 64-bit immediate.
    MovImm {
        /// Destination.
        rd: Reg,
        /// Immediate value.
        imm: i64,
    },
    /// `movf rd, imm` — load a floating immediate (bit pattern).
    MovFloat {
        /// Destination.
        rd: Reg,
        /// Immediate value.
        imm: f64,
    },
    /// `<op> rd, rs, rt` — binary arithmetic.
    Bin {
        /// Operator.
        op: BinOp,
        /// Destination.
        rd: Reg,
        /// Left operand.
        rs: Reg,
        /// Right operand.
        rt: Reg,
    },
    /// `cmp.<pred> rd, rs, rt`.
    Cmp {
        /// Predicate.
        pred: CmpPred,
        /// Destination (0/1).
        rd: Reg,
        /// Left operand.
        rs: Reg,
        /// Right operand.
        rt: Reg,
    },
    /// `ld.<w> rd, [rs + off]`.
    Load {
        /// Access width.
        width: Width,
        /// Destination.
        rd: Reg,
        /// Base address register.
        rs: Reg,
        /// Byte offset.
        off: u32,
    },
    /// `st.<w> [rd + off], rs`.
    Store {
        /// Access width.
        width: Width,
        /// Base address register.
        rd: Reg,
        /// Byte offset.
        off: u32,
        /// Stored register.
        rs: Reg,
    },
    /// `salloc rd, size` — reserve a stack slot, address into `rd`.
    /// (Stands in for frame-pointer arithmetic; keeps slots identifiable.)
    Salloc {
        /// Destination (slot address).
        rd: Reg,
        /// Slot size in bytes.
        size: u32,
    },
    /// `lea.g rd, <global>` — address of a global.
    LeaGlobal {
        /// Destination.
        rd: Reg,
        /// Global index in the image.
        index: u32,
    },
    /// `lea.f rd, <func>` — address of a function (makes it address-taken).
    LeaFunc {
        /// Destination.
        rd: Reg,
        /// Function index in the image.
        index: u32,
    },
    /// `call <func>, nargs` — direct call; args in `r1..`, result in `r0`
    /// when the callee returns a value.
    Call {
        /// Callee function index.
        index: u32,
        /// Number of register arguments.
        nargs: u8,
    },
    /// `ecall <extern>, nargs` — call a declared external.
    ECall {
        /// Extern index.
        index: u32,
        /// Number of register arguments.
        nargs: u8,
    },
    /// `icall rs, nargs[, ret]` — indirect call through `rs`.
    ICall {
        /// Function-pointer register.
        rs: Reg,
        /// Number of register arguments.
        nargs: u8,
        /// Whether the call consumes a return value in `r0`.
        ret: bool,
    },
    /// `jmp <target>` — unconditional branch to an instruction index.
    Jmp {
        /// Target instruction index.
        target: u32,
    },
    /// `brz rs, <target>` — branch to `target` when `rs` is zero, else
    /// fall through.
    Brz {
        /// Condition register.
        rs: Reg,
        /// Target instruction index.
        target: u32,
    },
    /// `ret` — return (value in `r0` if the function returns one).
    Ret,
}

impl MachInst {
    /// Branch targets referenced by this instruction.
    pub fn targets(&self) -> Vec<u32> {
        match self {
            MachInst::Jmp { target } => vec![*target],
            MachInst::Brz { target, .. } => vec![*target],
            _ => vec![],
        }
    }
}

impl fmt::Display for MachInst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachInst::Mov { rd, rs } => write!(f, "mov {rd}, {rs}"),
            MachInst::MovImm { rd, imm } => write!(f, "movi {rd}, {imm}"),
            MachInst::MovFloat { rd, imm } => write!(f, "movf {rd}, {imm:?}"),
            MachInst::Bin { op, rd, rs, rt } => {
                write!(f, "{} {rd}, {rs}, {rt}", op.mnemonic())
            }
            MachInst::Cmp { pred, rd, rs, rt } => {
                write!(f, "cmp.{} {rd}, {rs}, {rt}", pred.mnemonic())
            }
            MachInst::Load { width, rd, rs, off } => {
                write!(f, "ld.w{} {rd}, [{rs}+{off}]", width.bits())
            }
            MachInst::Store { width, rd, off, rs } => {
                write!(f, "st.w{} [{rd}+{off}], {rs}", width.bits())
            }
            MachInst::Salloc { rd, size } => write!(f, "salloc {rd}, {size}"),
            MachInst::LeaGlobal { rd, index } => write!(f, "lea.g {rd}, {index}"),
            MachInst::LeaFunc { rd, index } => write!(f, "lea.f {rd}, {index}"),
            MachInst::Call { index, nargs } => write!(f, "call {index}, {nargs}"),
            MachInst::ECall { index, nargs } => write!(f, "ecall {index}, {nargs}"),
            MachInst::ICall { rs, nargs, ret } => {
                write!(f, "icall {rs}, {nargs}{}", if *ret { ", ret" } else { "" })
            }
            MachInst::Jmp { target } => write!(f, "jmp {target}"),
            MachInst::Brz { rs, target } => write!(f, "brz {rs}, {target}"),
            MachInst::Ret => write!(f, "ret"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminators_and_targets() {
        let brz = MachInst::Brz {
            rs: Reg(2),
            target: 9,
        };
        assert_eq!(brz.targets(), vec![9]);
        assert_eq!(MachInst::Jmp { target: 3 }.targets(), vec![3]);
        assert!(MachInst::Ret.targets().is_empty());
        assert!(MachInst::Mov {
            rd: Reg(0),
            rs: Reg(1)
        }
        .targets()
        .is_empty());
    }

    #[test]
    fn arg_registers() {
        assert_eq!(Reg::arg(0), Reg(1));
        assert_eq!(Reg::arg(5), Reg(6));
        assert_eq!(Reg::RET, Reg(0));
    }

    #[test]
    #[should_panic(expected = "at most 6")]
    fn too_many_args_panics() {
        let _ = Reg::arg(6);
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            MachInst::Load {
                width: Width::W32,
                rd: Reg(3),
                rs: Reg(4),
                off: 8
            }
            .to_string(),
            "ld.w32 r3, [r4+8]"
        );
        assert_eq!(
            MachInst::Bin {
                op: BinOp::Add,
                rd: Reg(1),
                rs: Reg(2),
                rt: Reg(3)
            }
            .to_string(),
            "add r1, r2, r3"
        );
    }
}
