//! The x86-64 instruction subset.
//!
//! One variant per canonical encoding form, so the decoder can map opcode
//! bytes onto variants deterministically and the encoder can reproduce the
//! exact input bytes (see `decode` for the canonical-form contract). The
//! subset covers what compilers emit for the workloads this repo analyzes:
//! `mov`/`movzx`/`movsx`/`lea`, the classic two-address ALU group, `cmp`/
//! `test` + `jcc`, `call`/`ret`, `push`/`pop`, and rel32 control flow only.

use std::fmt;

use manta_ir::Width;

/// A 64-bit general-purpose register, numbered in hardware encoding order:
/// `rax`=0, `rcx`=1, `rdx`=2, `rbx`=3, `rsp`=4, `rbp`=5, `rsi`=6, `rdi`=7,
/// `r8`–`r15`=8–15.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Gpr(pub u8);

impl Gpr {
    /// `rax` — return value.
    pub const RAX: Gpr = Gpr(0);
    /// `rcx` — 4th SysV argument.
    pub const RCX: Gpr = Gpr(1);
    /// `rdx` — 3rd SysV argument.
    pub const RDX: Gpr = Gpr(2);
    /// `rbx` — callee-saved.
    pub const RBX: Gpr = Gpr(3);
    /// `rsp` — stack pointer.
    pub const RSP: Gpr = Gpr(4);
    /// `rbp` — frame pointer.
    pub const RBP: Gpr = Gpr(5);
    /// `rsi` — 2nd SysV argument.
    pub const RSI: Gpr = Gpr(6);
    /// `rdi` — 1st SysV argument.
    pub const RDI: Gpr = Gpr(7);
    /// `r8` — 5th SysV argument.
    pub const R8: Gpr = Gpr(8);
    /// `r9` — 6th SysV argument.
    pub const R9: Gpr = Gpr(9);
    /// `r10` — caller-saved scratch.
    pub const R10: Gpr = Gpr(10);
    /// `r11` — caller-saved scratch.
    pub const R11: Gpr = Gpr(11);
    /// `r12` — callee-saved.
    pub const R12: Gpr = Gpr(12);
    /// `r13` — callee-saved.
    pub const R13: Gpr = Gpr(13);
    /// `r14` — callee-saved.
    pub const R14: Gpr = Gpr(14);
    /// `r15` — callee-saved.
    pub const R15: Gpr = Gpr(15);

    /// The SysV AMD64 integer argument registers in order.
    pub const SYSV_ARGS: [Gpr; 6] = [Gpr::RDI, Gpr::RSI, Gpr::RDX, Gpr::RCX, Gpr::R8, Gpr::R9];

    /// The register carrying SysV argument `i` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 6`; the subset passes at most six register arguments.
    pub fn arg(i: usize) -> Gpr {
        assert!(i < 6, "SysV passes at most 6 integer register arguments");
        Gpr::SYSV_ARGS[i]
    }

    /// 64-bit register name (`rax`, `r12`, ...).
    pub fn name64(self) -> &'static str {
        const NAMES: [&str; 16] = [
            "rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi", "r8", "r9", "r10", "r11",
            "r12", "r13", "r14", "r15",
        ];
        NAMES[self.0 as usize]
    }

    /// 32-bit sub-register name (`eax`, `r12d`, ...).
    pub fn name32(self) -> &'static str {
        const NAMES: [&str; 16] = [
            "eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi", "r8d", "r9d", "r10d", "r11d",
            "r12d", "r13d", "r14d", "r15d",
        ];
        NAMES[self.0 as usize]
    }

    /// 16-bit sub-register name (`ax`, `r12w`, ...).
    pub fn name16(self) -> &'static str {
        const NAMES: [&str; 16] = [
            "ax", "cx", "dx", "bx", "sp", "bp", "si", "di", "r8w", "r9w", "r10w", "r11w", "r12w",
            "r13w", "r14w", "r15w",
        ];
        NAMES[self.0 as usize]
    }

    /// 8-bit sub-register name, REX convention (`al`, `spl`, `r12b`, ...).
    pub fn name8(self) -> &'static str {
        const NAMES: [&str; 16] = [
            "al", "cl", "dl", "bl", "spl", "bpl", "sil", "dil", "r8b", "r9b", "r10b", "r11b",
            "r12b", "r13b", "r14b", "r15b",
        ];
        NAMES[self.0 as usize]
    }

    /// Name at an operand width.
    pub fn name(self, w: OpWidth) -> &'static str {
        match w {
            OpWidth::B8 => self.name8(),
            OpWidth::B16 => self.name16(),
            OpWidth::B32 => self.name32(),
            OpWidth::B64 => self.name64(),
        }
    }
}

impl fmt::Display for Gpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name64())
    }
}

/// Operand width of a memory access or sub-register operand.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum OpWidth {
    /// Byte.
    B8,
    /// Word.
    B16,
    /// Doubleword.
    B32,
    /// Quadword.
    B64,
}

impl OpWidth {
    /// Width in bits.
    pub fn bits(self) -> u32 {
        match self {
            OpWidth::B8 => 8,
            OpWidth::B16 => 16,
            OpWidth::B32 => 32,
            OpWidth::B64 => 64,
        }
    }

    /// The matching IR width.
    pub fn ir(self) -> Width {
        match self {
            OpWidth::B8 => Width::W8,
            OpWidth::B16 => Width::W16,
            OpWidth::B32 => Width::W32,
            OpWidth::B64 => Width::W64,
        }
    }

    /// Size keyword used in memory operands (`byte`, `qword`, ...).
    pub fn keyword(self) -> &'static str {
        match self {
            OpWidth::B8 => "byte",
            OpWidth::B16 => "word",
            OpWidth::B32 => "dword",
            OpWidth::B64 => "qword",
        }
    }
}

/// A memory operand.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Mem {
    /// `[base + disp]`.
    Base {
        /// Base register.
        base: Gpr,
        /// Signed byte displacement.
        disp: i32,
    },
    /// `[base + index*scale + disp]`; `index` must not be `rsp`.
    BaseIndex {
        /// Base register.
        base: Gpr,
        /// Index register (not `rsp`).
        index: Gpr,
        /// Scale factor: 1, 2, 4 or 8.
        scale: u8,
        /// Signed byte displacement.
        disp: i32,
    },
    /// `[rip + disp]` — position-independent data/function references.
    Rip {
        /// Displacement from the end of the instruction.
        disp: i32,
    },
}

impl fmt::Display for Mem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn disp_suffix(f: &mut fmt::Formatter<'_>, disp: i32) -> fmt::Result {
            match disp.cmp(&0) {
                std::cmp::Ordering::Greater => write!(f, "+{disp}"),
                std::cmp::Ordering::Less => write!(f, "-{}", disp.unsigned_abs()),
                std::cmp::Ordering::Equal => Ok(()),
            }
        }
        match self {
            Mem::Base { base, disp } => {
                write!(f, "[{base}")?;
                disp_suffix(f, *disp)?;
                write!(f, "]")
            }
            Mem::BaseIndex {
                base,
                index,
                scale,
                disp,
            } => {
                write!(f, "[{base}+{index}*{scale}")?;
                disp_suffix(f, *disp)?;
                write!(f, "]")
            }
            Mem::Rip { disp } => {
                write!(f, "[rip")?;
                disp_suffix(f, *disp)?;
                write!(f, "]")
            }
        }
    }
}

/// A register-or-memory source operand (RM-form instructions).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Rm {
    /// A register.
    Reg(Gpr),
    /// A memory operand.
    Mem(Mem),
}

/// Two-address ALU operations sharing the classic opcode group layout.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Alu {
    /// `add` — also the pointer-arithmetic workhorse.
    Add,
    /// `sub`.
    Sub,
    /// `and`.
    And,
    /// `or`.
    Or,
    /// `xor`.
    Xor,
    /// `cmp` — sets flags only, writes no register.
    Cmp,
    /// `imul` (0F AF / 69 forms).
    Mul,
}

impl Alu {
    /// Assembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Alu::Add => "add",
            Alu::Sub => "sub",
            Alu::And => "and",
            Alu::Or => "or",
            Alu::Xor => "xor",
            Alu::Cmp => "cmp",
            Alu::Mul => "imul",
        }
    }
}

/// Shift operations (`C1 /n` group).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Shift {
    /// `shl`.
    Shl,
    /// `shr` (logical).
    Shr,
}

impl Shift {
    /// Assembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Shift::Shl => "shl",
            Shift::Shr => "shr",
        }
    }
}

/// Condition codes for `jcc`, in the subset the lifter understands.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Cc {
    /// `je` / ZF=1.
    E,
    /// `jne` / ZF=0.
    Ne,
    /// `jl` — signed less.
    L,
    /// `jle` — signed less-or-equal.
    Le,
    /// `jg` — signed greater.
    G,
    /// `jge` — signed greater-or-equal.
    Ge,
    /// `jb` — unsigned below.
    B,
    /// `jbe` — unsigned below-or-equal.
    Be,
    /// `ja` — unsigned above.
    A,
    /// `jae` — unsigned above-or-equal.
    Ae,
}

impl Cc {
    /// Assembly mnemonic (without the `j` prefix this is the `cc` suffix).
    pub fn mnemonic(self) -> &'static str {
        match self {
            Cc::E => "e",
            Cc::Ne => "ne",
            Cc::L => "l",
            Cc::Le => "le",
            Cc::G => "g",
            Cc::Ge => "ge",
            Cc::B => "b",
            Cc::Be => "be",
            Cc::A => "a",
            Cc::Ae => "ae",
        }
    }

    /// The condition that branches exactly when `self` does not.
    pub fn negate(self) -> Cc {
        match self {
            Cc::E => Cc::Ne,
            Cc::Ne => Cc::E,
            Cc::L => Cc::Ge,
            Cc::Ge => Cc::L,
            Cc::Le => Cc::G,
            Cc::G => Cc::Le,
            Cc::B => Cc::Ae,
            Cc::Ae => Cc::B,
            Cc::Be => Cc::A,
            Cc::A => Cc::Be,
        }
    }

    /// The IR compare predicate with the same truth table. The subset treats
    /// unsigned condition codes as their signed counterparts — the IR has a
    /// single ordering predicate family, exactly like SB-ISA's `cmp.<pred>`.
    pub fn pred(self) -> manta_ir::CmpPred {
        use manta_ir::CmpPred;
        match self {
            Cc::E => CmpPred::Eq,
            Cc::Ne => CmpPred::Ne,
            Cc::L | Cc::B => CmpPred::Lt,
            Cc::Le | Cc::Be => CmpPred::Le,
            Cc::G | Cc::A => CmpPred::Gt,
            Cc::Ge | Cc::Ae => CmpPred::Ge,
        }
    }
}

/// One decoded instruction. Each variant corresponds to one canonical
/// encoding form; `encode` picks exactly one byte sequence per value and
/// `decode` only accepts sequences `encode` would produce.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Inst {
    /// `mov r, r` at 32 or 64 bits (`89 /r`, mod=11).
    MovRR {
        /// Operand width (`B32` or `B64`).
        w: OpWidth,
        /// Destination.
        dst: Gpr,
        /// Source.
        src: Gpr,
    },
    /// `mov r64, imm` (`REX.W C7 /0 id` or `REX.W B8+r io`).
    MovRI {
        /// Destination.
        dst: Gpr,
        /// Immediate, sign-extended from 32 bits when it fits.
        imm: i64,
    },
    /// `mov r, [mem]` at 32 or 64 bits (`8B /r`); narrower loads use
    /// [`Inst::MovZx`].
    MovLoad {
        /// Operand width (`B32` or `B64`).
        w: OpWidth,
        /// Destination.
        dst: Gpr,
        /// Source address.
        mem: Mem,
    },
    /// `mov [mem], r` at any width (`88` / `66 89` / `89` / `REX.W 89`).
    MovStore {
        /// Operand width.
        w: OpWidth,
        /// Destination address.
        mem: Mem,
        /// Stored register.
        src: Gpr,
    },
    /// `mov <w> [mem], imm` (`C6` / `66 C7` / `C7` / `REX.W C7`, `/0`).
    MovStoreImm {
        /// Operand width.
        w: OpWidth,
        /// Destination address.
        mem: Mem,
        /// Immediate (truncated to the operand width when stored).
        imm: i32,
    },
    /// `movzx r64, <w> r/m` (`REX.W 0F B6/B7`), zero-extending.
    MovZx {
        /// Source width (`B8` or `B16`).
        from: OpWidth,
        /// Destination (full 64-bit register).
        dst: Gpr,
        /// Source register or memory.
        src: Rm,
    },
    /// `movsx r64, <w> r/m` (`REX.W 0F BE/BF`, or `REX.W 63` for `B32`).
    MovSx {
        /// Source width (`B8`, `B16` or `B32`).
        from: OpWidth,
        /// Destination (full 64-bit register).
        dst: Gpr,
        /// Source register or memory.
        src: Rm,
    },
    /// `lea r64, [mem]` (`REX.W 8D /r`).
    Lea {
        /// Destination.
        dst: Gpr,
        /// Address expression (never dereferenced).
        mem: Mem,
    },
    /// Two-address ALU, register source (`REX.W 01/29/21/09/31/39` mod=11;
    /// `imul` is `REX.W 0F AF /r`).
    AluRR {
        /// Operation.
        op: Alu,
        /// Destination and left operand.
        dst: Gpr,
        /// Right operand.
        src: Gpr,
    },
    /// Two-address ALU, memory source (`REX.W 03/2B/23/0B/33/3B /r`).
    AluRM {
        /// Operation.
        op: Alu,
        /// Destination and left operand.
        dst: Gpr,
        /// Right operand address.
        mem: Mem,
    },
    /// Two-address ALU, immediate source (`REX.W 83 /n ib` or `81 /n id`;
    /// `imul` is `REX.W 69 /r id` with dst = src).
    AluRI {
        /// Operation.
        op: Alu,
        /// Destination and left operand.
        dst: Gpr,
        /// Right operand, sign-extended.
        imm: i32,
    },
    /// `test r64, r64` (`REX.W 85 /r`, mod=11) — flags only.
    TestRR {
        /// Left operand (r/m slot).
        a: Gpr,
        /// Right operand (reg slot).
        b: Gpr,
    },
    /// `shl`/`shr` by immediate (`REX.W C1 /4|/5 ib`).
    ShiftRI {
        /// Direction.
        sh: Shift,
        /// Destination and operand.
        dst: Gpr,
        /// Shift amount (0–63).
        amt: u8,
    },
    /// `push r64` (`50+r`).
    Push {
        /// Pushed register.
        reg: Gpr,
    },
    /// `pop r64` (`58+r`).
    Pop {
        /// Destination register.
        reg: Gpr,
    },
    /// `j<cc> rel32` (`0F 8x cd`) — rel8 forms are outside the subset.
    Jcc {
        /// Condition.
        cc: Cc,
        /// Displacement from the end of this instruction.
        rel: i32,
    },
    /// `jmp rel32` (`E9 cd`).
    Jmp {
        /// Displacement from the end of this instruction.
        rel: i32,
    },
    /// `call rel32` (`E8 cd`).
    Call {
        /// Displacement from the end of this instruction.
        rel: i32,
    },
    /// `call r64` (`FF /2`, mod=11).
    CallInd {
        /// Register holding the target address.
        reg: Gpr,
    },
    /// `ret` (`C3`).
    Ret,
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inst::MovRR { w, dst, src } => {
                write!(f, "mov {}, {}", dst.name(*w), src.name(*w))
            }
            Inst::MovRI { dst, imm } => write!(f, "mov {dst}, {imm}"),
            Inst::MovLoad { w, dst, mem } => {
                write!(f, "mov {}, {} {mem}", dst.name(*w), w.keyword())
            }
            Inst::MovStore { w, mem, src } => {
                write!(f, "mov {} {mem}, {}", w.keyword(), src.name(*w))
            }
            Inst::MovStoreImm { w, mem, imm } => {
                write!(f, "mov {} {mem}, {imm}", w.keyword())
            }
            Inst::MovZx { from, dst, src } => match src {
                Rm::Reg(r) => write!(f, "movzx {dst}, {}", r.name(*from)),
                Rm::Mem(m) => write!(f, "movzx {dst}, {} {m}", from.keyword()),
            },
            Inst::MovSx { from, dst, src } => match src {
                Rm::Reg(r) => write!(f, "movsx {dst}, {}", r.name(*from)),
                Rm::Mem(m) => write!(f, "movsx {dst}, {} {m}", from.keyword()),
            },
            Inst::Lea { dst, mem } => write!(f, "lea {dst}, {mem}"),
            Inst::AluRR { op, dst, src } => {
                write!(f, "{} {dst}, {src}", op.mnemonic())
            }
            Inst::AluRM { op, dst, mem } => {
                write!(f, "{} {dst}, qword {mem}", op.mnemonic())
            }
            Inst::AluRI { op, dst, imm } => {
                write!(f, "{} {dst}, {imm}", op.mnemonic())
            }
            Inst::TestRR { a, b } => write!(f, "test {a}, {b}"),
            Inst::ShiftRI { sh, dst, amt } => {
                write!(f, "{} {dst}, {amt}", sh.mnemonic())
            }
            Inst::Push { reg } => write!(f, "push {reg}"),
            Inst::Pop { reg } => write!(f, "pop {reg}"),
            Inst::Jcc { cc, rel } => write!(f, "j{} {rel:+}", cc.mnemonic()),
            Inst::Jmp { rel } => write!(f, "jmp {rel:+}"),
            Inst::Call { rel } => write!(f, "call {rel:+}"),
            Inst::CallInd { reg } => write!(f, "call {reg}"),
            Inst::Ret => write!(f, "ret"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_names_cover_all_widths() {
        assert_eq!(Gpr::RAX.name(OpWidth::B64), "rax");
        assert_eq!(Gpr::RAX.name(OpWidth::B32), "eax");
        assert_eq!(Gpr::RAX.name(OpWidth::B16), "ax");
        assert_eq!(Gpr::RAX.name(OpWidth::B8), "al");
        assert_eq!(Gpr::RSP.name(OpWidth::B8), "spl");
        assert_eq!(Gpr::R13.name(OpWidth::B32), "r13d");
    }

    #[test]
    fn sysv_argument_order() {
        assert_eq!(Gpr::arg(0), Gpr::RDI);
        assert_eq!(Gpr::arg(3), Gpr::RCX);
        assert_eq!(Gpr::arg(5), Gpr::R9);
    }

    #[test]
    fn cc_negation_round_trips() {
        for cc in [
            Cc::E,
            Cc::Ne,
            Cc::L,
            Cc::Le,
            Cc::G,
            Cc::Ge,
            Cc::B,
            Cc::Be,
            Cc::A,
            Cc::Ae,
        ] {
            assert_eq!(cc.negate().negate(), cc);
            assert_eq!(cc.pred().negate(), cc.negate().pred());
        }
    }

    #[test]
    fn mem_display() {
        assert_eq!(
            Mem::Base {
                base: Gpr::RBP,
                disp: -8
            }
            .to_string(),
            "[rbp-8]"
        );
        assert_eq!(
            Mem::BaseIndex {
                base: Gpr::RAX,
                index: Gpr::RCX,
                scale: 8,
                disp: 16
            }
            .to_string(),
            "[rax+rcx*8+16]"
        );
        assert_eq!(Mem::Rip { disp: 0 }.to_string(), "[rip]");
    }
}
