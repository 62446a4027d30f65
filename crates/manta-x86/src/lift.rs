//! Lifting x86-64 machine code to `manta-ir` SSA.
//!
//! The x86 counterpart of `manta_isa::lift` — and deliberately shaped so
//! that code compiled from the same source produces the *same* IR from
//! either frontend (the differential tests pin inferred types to be
//! bit-identical). Module layout, CFG recovery and SSA renaming are the
//! shared skeleton of [`manta_ir::frontend::lift`]; this module supplies
//! the x86 semantics. Three x86-specific recovery problems are handled
//! here:
//!
//! * **eflags.** x86 splits a conditional branch into a flag-setting
//!   `cmp`/`test` and a flag-consuming `jcc`. The lifter records the last
//!   flag definition per block symbolically and materializes it as an SSA
//!   boolean ([`manta_ir::InstKind::Cmp`]) at the consuming `jcc` — so the
//!   IR carries `cmp.Q` + `condbr` exactly like the SB-ISA lift, with no
//!   flags register in sight. Non-compare ALU writes clobber the recorded
//!   flags; a `jcc` with no live `cmp`/`test` in its block is an error.
//! * **Sub-registers.** `eax`/`ax`/`al` are masked views of `rax`: a
//!   32-bit register move and the register forms of `movzx`/`movsx` lift
//!   to an `and` with the width mask at the narrow width, giving the type
//!   substrate the same width evidence a narrow load would.
//! * **The stack frame.** `rsp`/`rbp` never become SSA values. A frame
//!   (`push rbp; mov rbp, rsp`) is recognized and `rbp`-relative offsets
//!   are partitioned into *slots*: each distinct `lea r, [rbp-off]` starts
//!   a slot (one [`manta_ir::InstKind::Alloca`], sized by the gap to the
//!   next slot), and any offsets below the lowest `lea` form one residual
//!   alloca at function entry — the mirror image of SB-ISA's `salloc`
//!   spill area. Direct `[rbp-off]` accesses become `gep`s into the
//!   owning slot.
//!
//! Calls follow the SysV ABI: `rdi`/`rsi`/`rdx`/`rcx`/`r8`/`r9` carry
//! parameters, `rax` carries the return value. Direct call targets resolve
//! through the image's function table or PLT; indirect calls recover their
//! arity from the argument registers written since the last call (a
//! RetDec-style heuristic) and are assumed to return a value.

use std::collections::BTreeSet;

use manta_ir::frontend::lift::{lift_module, Flow, FunctionLift, MachineFunction};
use manta_ir::{
    BinOp, BlockId, Callee, ExternId, Frontend, FrontendError, FuncId, Function, GlobalId,
    InstKind, Module, ValueId, ValueKind, Width,
};

pub use manta_ir::frontend::lift::LiftError;

use crate::decode::decode_all;
use crate::image::{rip_target, Image, ImageFunction};
use crate::inst::{Alu, Cc, Gpr, Inst, Mem, OpWidth, Rm, Shift};

fn err<T>(message: impl Into<String>) -> Result<T, LiftError> {
    Err(LiftError::new(message))
}

/// Lifts a decoded image to an IR module.
///
/// # Errors
///
/// Returns [`LiftError`] when the machine code does not decode, branches
/// outside its function, manipulates `rsp`/`rbp` outside the recognized
/// frame idioms, or consumes flags no `cmp`/`test` defined.
pub fn lift(image: &Image) -> Result<Module, LiftError> {
    let (module, insts) = lift_module(
        &image.name,
        &image.externs,
        &image.globals,
        &image.functions,
        |i, fx| {
            let src = &image.functions[i];
            let body = &image.text[src.offset as usize..(src.offset + src.len) as usize];
            let insts = decode_all(body)
                .map_err(|e| LiftError::new(format!("in function {}: {}", src.name, e.message)))?;
            let mut lifter = Lifter {
                image,
                func_index: i,
                src,
                insts,
                fx,
                lea_slots: Vec::new(),
                residual: None,
                flags: FlagSrc::None,
                args_written: [false; 6],
                cur_idx: 0,
                flags_materialized: 0,
                frame_slots: 0,
            };
            lifter.scan_frame()?;
            Ok(lifter)
        },
    )?;
    manta_telemetry::counter("lift.insts_decoded", insts as u64);
    Ok(module)
}

/// The last flag-defining instruction seen in the current block, held
/// symbolically until a `jcc` consumes it.
#[derive(Clone, Copy)]
enum FlagSrc {
    /// No live flag definition (block start, or clobbered by an ALU write
    /// or a call).
    None,
    /// `cmp lhs, rhs`.
    Cmp { lhs: ValueId, rhs: ValueId },
    /// `test a, b`.
    Test { a: ValueId, b: ValueId },
}

/// One `lea`-rooted frame slot: `[off, off + size)` below the frame base.
struct LeaSlot {
    off: i32,
    size: u64,
    value: Option<ValueId>,
}

/// The spill area below the lowest `lea`-rooted slot, lifted as one alloca
/// at function entry (the mirror of SB-ISA's `salloc`).
struct Residual {
    min_off: i32,
    size: u64,
    value: Option<ValueId>,
}

struct Lifter<'a> {
    image: &'a Image,
    func_index: usize,
    src: &'a ImageFunction,
    /// Decoded body: `(instruction, byte offset, length)` in offset order.
    insts: Vec<(Inst, usize, usize)>,
    fx: FunctionLift<Gpr>,
    lea_slots: Vec<LeaSlot>,
    residual: Option<Residual>,
    flags: FlagSrc,
    /// SysV argument registers written since the last call, for the
    /// indirect-call arity heuristic.
    args_written: [bool; 6],
    /// Index of the instruction being translated (RIP resolution).
    cur_idx: usize,
    flags_materialized: u64,
    frame_slots: u64,
}

impl Lifter<'_> {
    /// Instruction index a branch at `(off, len, rel)` lands on.
    fn branch_target(&self, off: usize, len: usize, rel: i32) -> Result<usize, LiftError> {
        let target = off as i64 + len as i64 + rel as i64;
        usize::try_from(target)
            .ok()
            .and_then(|t| self.insts.binary_search_by_key(&t, |&(_, o, _)| o).ok())
            .ok_or_else(|| {
                LiftError::new(format!(
                    "branch at offset {off} in {} targets {target:#x}, not an \
                     instruction boundary in the same function",
                    self.src.name
                ))
            })
    }

    /// Recognizes the frame prologue and partitions every `rbp`-relative
    /// offset into `lea`-rooted slots plus a residual spill area.
    fn scan_frame(&mut self) -> Result<(), LiftError> {
        let has_frame = matches!(
            self.insts.first(),
            Some(&(Inst::Push { reg: Gpr::RBP }, ..))
        ) && matches!(
            self.insts.get(1),
            Some(&(
                Inst::MovRR {
                    w: OpWidth::B64,
                    dst: Gpr::RBP,
                    src: Gpr::RSP,
                },
                ..
            ))
        );
        let mut lea_offs: BTreeSet<i32> = BTreeSet::new();
        let mut direct_offs: BTreeSet<i32> = BTreeSet::new();
        let mut note = |mem: &Mem, is_lea: bool| -> Result<(), LiftError> {
            if let Mem::Base {
                base: Gpr::RBP,
                disp,
            } = *mem
            {
                if disp >= 0 {
                    return err(format!(
                        "{}: [rbp+{disp}] accesses at or above the frame base",
                        self.src.name
                    ));
                }
                if is_lea {
                    lea_offs.insert(disp);
                } else {
                    direct_offs.insert(disp);
                }
            }
            Ok(())
        };
        for &(inst, ..) in &self.insts {
            match inst {
                Inst::Lea { mem, .. } => note(&mem, true)?,
                Inst::MovLoad { mem, .. }
                | Inst::MovStore { mem, .. }
                | Inst::MovStoreImm { mem, .. }
                | Inst::AluRM { mem, .. }
                | Inst::MovZx {
                    src: Rm::Mem(mem), ..
                }
                | Inst::MovSx {
                    src: Rm::Mem(mem), ..
                } => note(&mem, false)?,
                _ => {}
            }
        }
        if lea_offs.is_empty() && direct_offs.is_empty() {
            return Ok(());
        }
        if !has_frame {
            return err(format!(
                "{}: rbp-relative access without a `push rbp; mov rbp, rsp` prologue",
                self.src.name
            ));
        }
        // Slot `i` spans from its lea offset up to the next one (or 0).
        let leas: Vec<i32> = lea_offs.iter().copied().collect();
        for (i, &off) in leas.iter().enumerate() {
            let end = leas.get(i + 1).copied().unwrap_or(0);
            self.lea_slots.push(LeaSlot {
                off,
                size: (end - off) as u64,
                value: None,
            });
        }
        let floor = leas.first().copied().unwrap_or(0);
        if let Some(&min_direct) = direct_offs.first() {
            if min_direct < floor {
                self.residual = Some(Residual {
                    min_off: min_direct,
                    size: (floor - min_direct) as u64,
                    value: None,
                });
            }
        }
        Ok(())
    }

    /// The address of frame offset `off`, creating the owning slot's
    /// alloca at first touch.
    fn frame_addr(&mut self, b: BlockId, off: i32) -> Result<ValueId, LiftError> {
        if let Some(i) = self
            .lea_slots
            .iter()
            .position(|s| s.off <= off && (off as i64) < s.off as i64 + s.size as i64)
        {
            let base = match self.lea_slots[i].value {
                Some(v) => v,
                None => {
                    let size = self.lea_slots[i].size;
                    let v = self
                        .fx
                        .emit(b, Width::W64, |dst| InstKind::Alloca { dst, size });
                    self.lea_slots[i].value = Some(v);
                    self.frame_slots += 1;
                    v
                }
            };
            let inner = (off - self.lea_slots[i].off) as u64;
            return Ok(self.fx.gep(b, base, inner));
        }
        if let Some(res) = &self.residual {
            if off >= res.min_off {
                let base = res.value.expect("residual alloca emitted at entry");
                let inner = (off - res.min_off) as u64;
                return Ok(self.fx.gep(b, base, inner));
            }
        }
        err(format!(
            "{}: [rbp{off}] is outside every recovered frame slot",
            self.src.name
        ))
    }

    fn read_reg(&mut self, b: BlockId, r: Gpr) -> Result<ValueId, LiftError> {
        if r == Gpr::RSP || r == Gpr::RBP {
            return err(format!(
                "{}: {} read outside the frame idioms",
                self.src.name, r
            ));
        }
        Ok(self.fx.read(b, r))
    }

    fn write_reg(&mut self, r: Gpr, v: ValueId) -> Result<(), LiftError> {
        if r == Gpr::RSP || r == Gpr::RBP {
            return err(format!(
                "{}: {} written outside the frame idioms",
                self.src.name, r
            ));
        }
        if let Some(pos) = Gpr::SYSV_ARGS.iter().position(|&a| a == r) {
            self.args_written[pos] = true;
        }
        self.fx.write(r, v);
        Ok(())
    }

    /// The address an operand like `[base + index*scale + disp]` denotes,
    /// as an SSA value. `rbp` bases route through the frame slots;
    /// `[rip+d]` resolves to globals.
    fn lift_addr(&mut self, b: BlockId, mem: &Mem) -> Result<ValueId, LiftError> {
        match *mem {
            Mem::Base { base: Gpr::RSP, .. } => err(format!(
                "{}: rsp-relative memory access (only rbp frames are lifted)",
                self.src.name
            )),
            Mem::Base {
                base: Gpr::RBP,
                disp,
            } => self.frame_addr(b, disp),
            Mem::Base { base, disp } => {
                let base = self.read_reg(b, base)?;
                if disp >= 0 {
                    Ok(self.fx.gep(b, base, disp as u64))
                } else {
                    err(format!(
                        "{}: negative displacement {disp} off a non-frame base",
                        self.src.name
                    ))
                }
            }
            Mem::BaseIndex {
                base,
                index,
                scale,
                disp,
            } => {
                if base == Gpr::RSP || base == Gpr::RBP {
                    return err(format!(
                        "{}: indexed addressing off {base} is not lifted",
                        self.src.name
                    ));
                }
                let base_v = self.read_reg(b, base)?;
                let mut idx = self.read_reg(b, index)?;
                if scale > 1 {
                    let amt = self
                        .fx
                        .const_int(i64::from(scale.trailing_zeros()), Width::W64);
                    idx = self.fx.emit(b, Width::W64, |dst| InstKind::BinOp {
                        op: BinOp::Shl,
                        dst,
                        lhs: idx,
                        rhs: amt,
                    });
                }
                let sum = self.fx.emit(b, Width::W64, |dst| InstKind::BinOp {
                    op: BinOp::Add,
                    dst,
                    lhs: base_v,
                    rhs: idx,
                });
                if disp >= 0 {
                    Ok(self.fx.gep(b, sum, disp as u64))
                } else {
                    err(format!(
                        "{}: negative displacement {disp} in indexed addressing",
                        self.src.name
                    ))
                }
            }
            Mem::Rip { disp } => {
                let addr = self.rip_addr(disp, b)?;
                match addr {
                    RipTarget::Global(g, inner) => {
                        let base = self.global_value(g);
                        Ok(self.fx.gep(b, base, inner))
                    }
                    RipTarget::Func(_) => err(format!(
                        "{}: memory access through a function address",
                        self.src.name
                    )),
                }
            }
        }
    }

    /// Resolves a `[rip+disp]` reference at the current instruction.
    fn rip_addr(&mut self, disp: i32, _b: BlockId) -> Result<RipTarget, LiftError> {
        let (_, off, len) = self.insts[self.cur_idx];
        let addr = rip_target(self.image, self.func_index, (off + len) as u64, disp);
        if let Some((gi, inner)) = self.image.global_at_addr(addr) {
            return Ok(RipTarget::Global(GlobalId(gi as u32), inner));
        }
        if let Some(ti) = self.image.func_at_addr(addr) {
            return Ok(RipTarget::Func(FuncId::from_index(ti)));
        }
        err(format!(
            "{}: [rip{disp:+}] resolves to {addr:#x}, neither a global nor a \
             function entry",
            self.src.name
        ))
    }

    fn global_value(&mut self, g: GlobalId) -> ValueId {
        self.fx.value(ValueKind::GlobalAddr(g), Width::W64)
    }

    /// Reads the flag source at a `jcc` and materializes the SSA boolean.
    fn materialize_flags(&mut self, b: BlockId, cc: Cc) -> Result<ValueId, LiftError> {
        // The IR compare carries the *negated* condition: `jcc target` falls
        // through (then-edge) exactly when `!cc` holds — matching the SB
        // lift of `cmp.Q` + `brz`.
        let pred = cc.negate().pred();
        let v = match self.flags {
            FlagSrc::None => {
                return err(format!(
                    "{}: j{} without a live cmp/test in the same block",
                    self.src.name,
                    cc.mnemonic()
                ))
            }
            FlagSrc::Cmp { lhs, rhs } => self.fx.emit(b, Width::W1, |dst| InstKind::Cmp {
                dst,
                pred,
                lhs,
                rhs,
            }),
            FlagSrc::Test { a, b: tb } => {
                if !matches!(cc, Cc::E | Cc::Ne) {
                    return err(format!(
                        "{}: j{} after test is outside the lifted subset (only \
                         je/jne)",
                        self.src.name,
                        cc.mnemonic()
                    ));
                }
                let operand = if a == tb {
                    a
                } else {
                    self.fx.emit(b, Width::W64, |dst| InstKind::BinOp {
                        op: BinOp::And,
                        dst,
                        lhs: a,
                        rhs: tb,
                    })
                };
                let zero = self.fx.const_int(0, Width::W64);
                self.fx.emit(b, Width::W1, |dst| InstKind::Cmp {
                    dst,
                    pred,
                    lhs: operand,
                    rhs: zero,
                })
            }
        };
        self.flags_materialized += 1;
        Ok(v)
    }

    fn alu_binop(op: Alu) -> BinOp {
        match op {
            Alu::Add => BinOp::Add,
            Alu::Sub => BinOp::Sub,
            Alu::And => BinOp::And,
            Alu::Or => BinOp::Or,
            Alu::Xor => BinOp::Xor,
            Alu::Mul => BinOp::Mul,
            Alu::Cmp => unreachable!("cmp is handled by the flag machinery"),
        }
    }

    /// Reads register `r` through a sub-register mask of `width`.
    fn masked_read(&mut self, b: BlockId, r: Gpr, width: OpWidth) -> Result<ValueId, LiftError> {
        let full = self.read_reg(b, r)?;
        let mask = if width.bits() >= 64 {
            return Ok(full);
        } else {
            (1i64 << width.bits()) - 1
        };
        let mask_v = self.fx.const_int(mask, Width::W64);
        Ok(self.fx.emit(b, width.ir(), |dst| InstKind::BinOp {
            op: BinOp::And,
            dst,
            lhs: full,
            rhs: mask_v,
        }))
    }

    fn finish_call(
        &mut self,
        b: BlockId,
        callee: Callee,
        nargs: usize,
        ret_width: Option<Width>,
    ) -> Result<(), LiftError> {
        let args = (0..nargs)
            .map(|i| self.read_reg(b, Gpr::arg(i)))
            .collect::<Result<_, _>>()?;
        if let Some(v) = self.fx.call(b, callee, args, ret_width) {
            self.write_reg(Gpr::RAX, v)?;
        }
        // Calls clobber both flags and the arity-heuristic window.
        self.flags = FlagSrc::None;
        self.args_written = [false; 6];
        Ok(())
    }
}

impl MachineFunction for Lifter<'_> {
    type Reg = Gpr;
    const RET: Gpr = Gpr::RAX;

    fn param(index: usize) -> Gpr {
        Gpr::arg(index)
    }

    fn state(&mut self) -> &mut FunctionLift<Gpr> {
        &mut self.fx
    }

    fn inst_count(&self) -> usize {
        self.insts.len()
    }

    fn flow(&self, i: usize) -> Result<Flow, LiftError> {
        let (inst, off, len) = self.insts[i];
        Ok(match inst {
            Inst::Jmp { rel } => Flow::Jump(self.branch_target(off, len, rel)?),
            Inst::Jcc { rel, .. } => Flow::Branch(self.branch_target(off, len, rel)?),
            Inst::Ret => Flow::Return,
            _ => Flow::Next,
        })
    }

    fn begin_block(&mut self, b: BlockId) {
        // Flags and the arity heuristic never cross block boundaries.
        self.flags = FlagSrc::None;
        self.args_written = [false; 6];
        if b == self.fx.func.entry() {
            if let Some(res) = &mut self.residual {
                // The residual spill area is allocated up front, exactly
                // where SB-ISA's `salloc` sits.
                let size = res.size;
                res.value = Some(
                    self.fx
                        .emit(b, Width::W64, |dst| InstKind::Alloca { dst, size }),
                );
                self.frame_slots += 1;
            }
        }
    }

    fn finish(self) -> Function {
        manta_telemetry::counter("lift.flags_materialized", self.flags_materialized);
        manta_telemetry::counter("lift.frame_slots", self.frame_slots);
        self.fx.func
    }

    #[allow(clippy::too_many_lines)]
    fn translate(
        &mut self,
        module: &Module,
        b: BlockId,
        idx: usize,
    ) -> Result<Option<ValueId>, LiftError> {
        self.cur_idx = idx;
        let (inst, off, len) = self.insts[idx];
        match inst {
            // --- Frame idioms: no IR. ---------------------------------
            Inst::MovRR {
                w: OpWidth::B64,
                dst: Gpr::RBP,
                src: Gpr::RSP,
            }
            | Inst::MovRR {
                w: OpWidth::B64,
                dst: Gpr::RSP,
                src: Gpr::RBP,
            }
            | Inst::Push { reg: Gpr::RBP }
            | Inst::Pop { reg: Gpr::RBP }
            | Inst::AluRI {
                op: Alu::Add | Alu::Sub,
                dst: Gpr::RSP,
                ..
            } => {}
            Inst::Push { reg } | Inst::Pop { reg } => {
                // Callee-save spills bracket the body and restore what they
                // pushed; modelling them as no-ops keeps values flowing.
                let callee_saved =
                    matches!(reg, Gpr::RBX | Gpr::R12 | Gpr::R13 | Gpr::R14 | Gpr::R15);
                if !callee_saved {
                    return err(format!(
                        "{}: push/pop of caller-saved {reg} is outside the \
                         lifted subset",
                        self.src.name
                    ));
                }
            }
            // --- Data movement. ---------------------------------------
            Inst::MovRR { w, dst, src } => {
                let v = match w {
                    OpWidth::B64 => {
                        let s = self.read_reg(b, src)?;
                        self.fx
                            .emit(b, self.fx.func.value(s).width, |dst| InstKind::Copy {
                                dst,
                                src: s,
                            })
                    }
                    // A 32-bit register move zero-extends: lift as a masked
                    // view so the 32-bit width reaches the substrate.
                    _ => self.masked_read(b, src, w)?,
                };
                self.write_reg(dst, v)?;
            }
            Inst::MovRI { dst, imm } => {
                let v = self.fx.const_int(imm, Width::W64);
                self.write_reg(dst, v)?;
            }
            Inst::MovLoad { w, dst, mem } => {
                let addr = self.lift_addr(b, &mem)?;
                let width = w.ir();
                let v = self
                    .fx
                    .emit(b, width, |dst| InstKind::Load { dst, addr, width });
                self.write_reg(dst, v)?;
            }
            Inst::MovStore { w: _, mem, src } => {
                let addr = self.lift_addr(b, &mem)?;
                let val = self.read_reg(b, src)?;
                self.fx.func.append_inst(b, InstKind::Store { addr, val });
            }
            Inst::MovStoreImm { w: _, mem, imm } => {
                let addr = self.lift_addr(b, &mem)?;
                let val = self.fx.const_int(i64::from(imm), Width::W64);
                self.fx.func.append_inst(b, InstKind::Store { addr, val });
            }
            Inst::MovZx { from, dst, src } => {
                // The register form is a masked view of the wide register.
                let v = match src {
                    Rm::Reg(r) => self.masked_read(b, r, from)?,
                    Rm::Mem(mem) => {
                        let addr = self.lift_addr(b, &mem)?;
                        let width = from.ir();
                        self.fx
                            .emit(b, width, |dst| InstKind::Load { dst, addr, width })
                    }
                };
                self.write_reg(dst, v)?;
            }
            Inst::MovSx { from, dst, src } => {
                let v = match src {
                    Rm::Reg(r) => {
                        // Sign extension is NOT a mask (the high bits are
                        // copies of bit `from-1`), so the register form
                        // lifts as the shift-up/shift-down pair — the same
                        // staging SB-ISA encodes with two shift
                        // instructions, so both frontends produce
                        // bit-identical IR. The constant binds before the
                        // register read to match SB's `movi` staging order.
                        let amt = i64::from(64 - from.bits());
                        let c1 = self.fx.const_int(amt, Width::W64);
                        let lhs = self.read_reg(b, r)?;
                        let hi = self.fx.emit(b, Width::W64, |dst| InstKind::BinOp {
                            op: BinOp::Shl,
                            dst,
                            lhs,
                            rhs: c1,
                        });
                        let c2 = self.fx.const_int(amt, Width::W64);
                        self.fx.emit(b, Width::W64, |dst| InstKind::BinOp {
                            op: BinOp::Shr,
                            dst,
                            lhs: hi,
                            rhs: c2,
                        })
                    }
                    // Memory forms stay plain narrow loads: the access
                    // width is the type evidence, as with `movzx`.
                    Rm::Mem(mem) => {
                        let addr = self.lift_addr(b, &mem)?;
                        let width = from.ir();
                        self.fx
                            .emit(b, width, |dst| InstKind::Load { dst, addr, width })
                    }
                };
                self.write_reg(dst, v)?;
            }
            Inst::Lea { dst, mem } => match mem {
                Mem::Base {
                    base: Gpr::RBP,
                    disp,
                } => {
                    let v = self.frame_addr(b, disp)?;
                    self.write_reg(dst, v)?;
                }
                Mem::Rip { disp } => {
                    let v = match self.rip_addr(disp, b)? {
                        RipTarget::Global(g, inner) => {
                            let base = self.global_value(g);
                            self.fx.gep(b, base, inner)
                        }
                        RipTarget::Func(f) => self.fx.value(ValueKind::FuncAddr(f), Width::W64),
                    };
                    self.write_reg(dst, v)?;
                }
                _ => {
                    let v = self.lift_addr(b, &mem)?;
                    self.write_reg(dst, v)?;
                }
            },
            // --- ALU and flags. ---------------------------------------
            Inst::AluRR {
                op: Alu::Cmp,
                dst,
                src,
            } => {
                let lhs = self.read_reg(b, dst)?;
                let rhs = self.read_reg(b, src)?;
                self.flags = FlagSrc::Cmp { lhs, rhs };
            }
            Inst::AluRI {
                op: Alu::Cmp,
                dst,
                imm,
            } => {
                // Immediate before the register read: the read may create a
                // phi, and SB's `movi` staging binds its constant first, so
                // value creation order must match that sequence.
                let rhs = self.fx.const_int(i64::from(imm), Width::W64);
                let lhs = self.read_reg(b, dst)?;
                self.flags = FlagSrc::Cmp { lhs, rhs };
            }
            Inst::AluRM {
                op: Alu::Cmp,
                dst,
                mem,
            } => {
                let lhs = self.read_reg(b, dst)?;
                let addr = self.lift_addr(b, &mem)?;
                let rhs = self.fx.emit(b, Width::W64, |dst| InstKind::Load {
                    dst,
                    addr,
                    width: Width::W64,
                });
                self.flags = FlagSrc::Cmp { lhs, rhs };
            }
            Inst::AluRR { op, dst, src } => {
                let lhs = self.read_reg(b, dst)?;
                let rhs = self.read_reg(b, src)?;
                let op = Self::alu_binop(op);
                let v = self
                    .fx
                    .emit(b, Width::W64, |dst| InstKind::BinOp { op, dst, lhs, rhs });
                self.write_reg(dst, v)?;
                self.flags = FlagSrc::None;
            }
            Inst::AluRI { op, dst, imm } => {
                // Immediate first, as in the compare arm above.
                let rhs = self.fx.const_int(i64::from(imm), Width::W64);
                let lhs = self.read_reg(b, dst)?;
                let op = Self::alu_binop(op);
                let v = self
                    .fx
                    .emit(b, Width::W64, |dst| InstKind::BinOp { op, dst, lhs, rhs });
                self.write_reg(dst, v)?;
                self.flags = FlagSrc::None;
            }
            Inst::AluRM { op, dst, mem } => {
                let lhs = self.read_reg(b, dst)?;
                let addr = self.lift_addr(b, &mem)?;
                let rhs = self.fx.emit(b, Width::W64, |dst| InstKind::Load {
                    dst,
                    addr,
                    width: Width::W64,
                });
                let op = Self::alu_binop(op);
                let v = self
                    .fx
                    .emit(b, Width::W64, |dst| InstKind::BinOp { op, dst, lhs, rhs });
                self.write_reg(dst, v)?;
                self.flags = FlagSrc::None;
            }
            Inst::TestRR { a, b: tb } => {
                let av = self.read_reg(b, a)?;
                let bv = self.read_reg(b, tb)?;
                self.flags = FlagSrc::Test { a: av, b: bv };
            }
            Inst::ShiftRI { sh, dst, amt } => {
                // Immediate first, as in the compare arm above.
                let rhs = self.fx.const_int(i64::from(amt), Width::W64);
                let lhs = self.read_reg(b, dst)?;
                let op = match sh {
                    Shift::Shl => BinOp::Shl,
                    Shift::Shr => BinOp::Shr,
                };
                let v = self
                    .fx
                    .emit(b, Width::W64, |dst| InstKind::BinOp { op, dst, lhs, rhs });
                self.write_reg(dst, v)?;
                self.flags = FlagSrc::None;
            }
            // --- Control flow (the skeleton sets terminators). --------
            Inst::Jcc { cc, .. } => return Ok(Some(self.materialize_flags(b, cc)?)),
            Inst::Jmp { .. } | Inst::Ret => {}
            Inst::Call { rel } => {
                let addr = rip_target(self.image, self.func_index, (off + len) as u64, rel);
                if let Some(ti) = self.image.func_at_addr(addr) {
                    let target = &self.image.functions[ti];
                    let ret = if target.has_ret {
                        Some(Width::W64)
                    } else {
                        None
                    };
                    let nargs = target.nparams as usize;
                    self.finish_call(b, Callee::Direct(FuncId::from_index(ti)), nargs, ret)?;
                } else if let Some(ei) = self.image.plt_at_addr(addr) {
                    let decl = module.extern_decl(ExternId(ei as u32));
                    let nargs = self.image.externs[ei].nparams as usize;
                    let ret = decl.ret_width;
                    self.finish_call(b, Callee::Extern(ExternId(ei as u32)), nargs, ret)?;
                } else {
                    return err(format!(
                        "{}: call targets {addr:#x}, neither a function entry \
                         nor a PLT stub",
                        self.src.name
                    ));
                }
            }
            Inst::CallInd { reg } => {
                let fp = self.read_reg(b, reg)?;
                // Arity heuristic: the contiguous run of SysV argument
                // registers written since the last call. An indirect callee
                // is assumed to return a value (the conservative RetDec
                // choice — `rax` may or may not be read afterwards).
                let nargs = self.args_written.iter().take_while(|&&w| w).count();
                self.finish_call(b, Callee::Indirect(fp), nargs, Some(Width::W64))?;
            }
        }
        Ok(None)
    }
}

/// What a `[rip+disp]` reference resolves to.
enum RipTarget {
    /// Global index plus byte offset into the region.
    Global(GlobalId, u64),
    /// A function entry.
    Func(FuncId),
}

/// The x86-64 frontend plugin: recognizes XLF images by their ELF magic,
/// converts them to and from the Intel-like assembly syntax, and lifts
/// them via [`lift`].
#[derive(Clone, Copy, Debug, Default)]
pub struct X86Frontend;

impl Frontend for X86Frontend {
    fn name(&self) -> &'static str {
        "x86"
    }

    fn describe(&self) -> &'static str {
        "x86-64 subset (XLF ELF-subset container, magic \"\\x7fELF\")"
    }

    fn detects(&self, bytes: &[u8]) -> bool {
        bytes.starts_with(crate::image::MAGIC)
    }

    fn lift_bytes(&self, bytes: &[u8]) -> Result<Module, FrontendError> {
        Ok(lift(&crate::image::decode_image(bytes)?)?)
    }

    fn assemble(&self, text: &str) -> Result<Vec<u8>, FrontendError> {
        Ok(crate::image::encode_image(&crate::asm::assemble(text)?))
    }

    fn disassemble(&self, bytes: &[u8]) -> Result<String, FrontendError> {
        Ok(crate::asm::disassemble(&crate::image::decode_image(
            bytes,
        )?)?)
    }
}

#[cfg(test)]
mod tests {
    use manta_ir::{CmpPred, ConstKind, Terminator};

    use super::*;
    use crate::asm::assemble;

    fn lift_text(text: &str) -> Module {
        lift(&assemble(text).unwrap()).unwrap()
    }

    fn lift_err(text: &str) -> LiftError {
        lift(&assemble(text).unwrap()).unwrap_err()
    }

    #[test]
    fn lifts_straightline_function_with_call() {
        let m = lift_text(
            "module m\nextern malloc, 1, ret\nfunc f(1) -> ret {\n    mov rdi, rdi\n    call malloc\n    ret\n}\n",
        );
        let f = m.function_by_name("f").unwrap();
        assert_eq!(f.params().len(), 1);
        assert!(f.insts().any(|i| matches!(i.kind, InstKind::Call { .. })));
        assert!(f
            .blocks()
            .any(|b| matches!(b.term, Terminator::Ret(Some(_)))));
    }

    #[test]
    fn jcc_materializes_cmp_and_condbr() {
        let m = lift_text(
            "module m\nfunc f(1) -> ret {\n    cmp rdi, 0\n    je zero\n    mov rax, 1\n    ret\nzero:\n    mov rax, 2\n    ret\n}\n",
        );
        let f = m.function_by_name("f").unwrap();
        // `je` lifts as the negated predicate: fallthrough iff `rdi != 0`.
        assert!(f.insts().any(|i| matches!(
            i.kind,
            InstKind::Cmp {
                pred: CmpPred::Ne,
                ..
            }
        )));
        assert!(f
            .blocks()
            .any(|b| matches!(b.term, Terminator::CondBr { .. })));
    }

    #[test]
    fn branch_join_builds_phi() {
        let m = lift_text(
            "module m\nfunc f(1) -> ret {\n    cmp rdi, 0\n    je zero\n    mov rcx, 1\n    jmp done\nzero:\n    mov rcx, 2\ndone:\n    mov rax, rcx\n    ret\n}\n",
        );
        let f = m.function_by_name("f").unwrap();
        let phis = f
            .insts()
            .filter(|i| matches!(i.kind, InstKind::Phi { .. }))
            .count();
        assert_eq!(phis, 1, "one phi for rcx at the join");
    }

    #[test]
    fn loop_carried_value_builds_phi() {
        let m = lift_text(
            "module m\nfunc count(1) -> ret {\nhead:\n    cmp rdi, 0\n    je done\n    sub rdi, 1\n    jmp head\ndone:\n    mov rax, rdi\n    ret\n}\n",
        );
        let f = m.function_by_name("count").unwrap();
        assert!(
            f.insts().any(|i| matches!(i.kind, InstKind::Phi { .. })),
            "loop-carried rdi needs a phi"
        );
    }

    #[test]
    fn test_jne_lifts_like_brz() {
        let m = lift_text(
            "module m\nfunc f(1) -> ret {\n    test rdi, rdi\n    je out\n    mov rax, 1\n    ret\nout:\n    mov rax, 0\n    ret\n}\n",
        );
        let f = m.function_by_name("f").unwrap();
        // `test r, r; je` is a zero test: cmp (rdi != 0) like SB's brz.
        assert!(f.insts().any(|i| matches!(
            i.kind,
            InstKind::Cmp {
                pred: CmpPred::Ne,
                ..
            }
        )));
    }

    #[test]
    fn sub_registers_lift_as_masked_views() {
        let m = lift_text(
            "module m\nfunc f(1) -> ret {\n    movzx rax, dil\n    mov ecx, eax\n    mov rax, rcx\n    ret\n}\n",
        );
        let f = m.function_by_name("f").unwrap();
        // movzx rax, dil → and(rdi, 0xff) at W8; mov ecx, eax → and at W32.
        let masks: Vec<Width> = f
            .insts()
            .filter_map(|i| match i.kind {
                InstKind::BinOp {
                    op: BinOp::And,
                    dst,
                    ..
                } => Some(f.value(dst).width),
                _ => None,
            })
            .collect();
        assert_eq!(masks, vec![Width::W8, Width::W32]);
    }

    #[test]
    fn movsx_register_form_lifts_as_a_shift_pair() {
        let m = lift_text(
            "module m\nfunc f(1) -> ret {\n    movsx rax, dil\n    add rax, rdi\n    ret\n}\n",
        );
        let f = m.function_by_name("f").unwrap();
        // movsx rax, dil → (rdi << 56) >> 56, never an And mask — the
        // extension feeds the add directly.
        let ops: Vec<BinOp> = f
            .insts()
            .filter_map(|i| match i.kind {
                InstKind::BinOp { op, .. } => Some(op),
                _ => None,
            })
            .collect();
        assert_eq!(ops, vec![BinOp::Shl, BinOp::Shr, BinOp::Add]);
        let amounts: Vec<i64> = f
            .insts()
            .filter_map(|i| match i.kind {
                InstKind::BinOp {
                    op: BinOp::Shl | BinOp::Shr,
                    rhs,
                    ..
                } => match f.value(rhs).kind {
                    ValueKind::Const(manta_ir::ConstKind::Int(c)) => Some(c),
                    _ => None,
                },
                _ => None,
            })
            .collect();
        assert_eq!(amounts, vec![56, 56]);
    }

    #[test]
    fn movsx_memory_form_stays_a_narrow_load() {
        let m = lift_text(
            "module m\nfunc f(1) -> ret {\n    push rbp\n    mov rbp, rsp\n    sub rsp, 8\n    mov qword [rbp-8], rdi\n    movsx rax, dword [rbp-8]\n    mov rsp, rbp\n    pop rbp\n    ret\n}\n",
        );
        let f = m.function_by_name("f").unwrap();
        assert!(f.insts().any(|i| matches!(
            i.kind,
            InstKind::Load {
                width: Width::W32,
                ..
            }
        )));
        assert!(!f
            .insts()
            .any(|i| matches!(i.kind, InstKind::BinOp { op: BinOp::Shl, .. })));
    }

    #[test]
    fn rbp_locals_become_frame_allocas() {
        let m = lift_text(
            "module m\nextern observe, 1, void\nfunc f(1) -> ret {\n    push rbp\n    mov rbp, rsp\n    sub rsp, 32\n    lea rax, [rbp-16]\n    mov qword [rbp-16], rdi\n    mov qword [rbp-24], rdi\n    mov rdi, rax\n    call observe\n    mov rax, qword [rbp-24]\n    mov rsp, rbp\n    pop rbp\n    ret\n}\n",
        );
        let f = m.function_by_name("f").unwrap();
        // One lea-rooted slot ([rbp-16), 16 bytes) + one residual spill
        // area covering [rbp-24, rbp-16).
        let sizes: Vec<u64> = f
            .insts()
            .filter_map(|i| match i.kind {
                InstKind::Alloca { size, .. } => Some(size),
                _ => None,
            })
            .collect();
        assert_eq!(sizes, vec![8, 16], "residual spill first, then the slot");
        // The store at [rbp-16] goes straight to the slot alloca (no gep);
        // the [rbp-24] access hits the residual area.
        assert!(f.insts().any(|i| matches!(i.kind, InstKind::Store { .. })));
    }

    #[test]
    fn direct_only_rbp_frame_is_one_residual_alloca() {
        let m = lift_text(
            "module m\nfunc f(1) -> ret {\n    push rbp\n    mov rbp, rsp\n    mov qword [rbp-8], rdi\n    mov rax, qword [rbp-8]\n    pop rbp\n    ret\n}\n",
        );
        let f = m.function_by_name("f").unwrap();
        let allocas: Vec<u64> = f
            .insts()
            .filter_map(|i| match i.kind {
                InstKind::Alloca { size, .. } => Some(size),
                _ => None,
            })
            .collect();
        assert_eq!(allocas, vec![8]);
    }

    #[test]
    fn lea_func_marks_address_taken_and_icall_recovers_arity() {
        let m = lift_text(
            "module m\nfunc helper(1) -> ret {\n    mov rax, rdi\n    ret\n}\nfunc f(0) -> ret {\n    lea rcx, func helper\n    mov rdi, 7\n    call rcx\n    ret\n}\n",
        );
        assert!(m.function_by_name("helper").unwrap().is_address_taken());
        let f = m.function_by_name("f").unwrap();
        let icall_args = f
            .insts()
            .find_map(|i| match &i.kind {
                InstKind::Call {
                    callee: Callee::Indirect(_),
                    args,
                    ..
                } => Some(args.len()),
                _ => None,
            })
            .expect("indirect call lifted");
        assert_eq!(icall_args, 1, "mov rdi, 7 before `call rcx` means 1 arg");
    }

    #[test]
    fn global_lea_and_interior_access() {
        let m = lift_text(
            "module m\nglobal table, 64\nfunc f(0) -> ret {\n    lea rax, global table\n    mov rcx, qword [rax+8]\n    ret\n}\n",
        );
        let f = m.function_by_name("f").unwrap();
        assert!(f
            .values()
            .any(|(_, v)| matches!(v.kind, ValueKind::GlobalAddr(_))));
        assert!(f
            .insts()
            .any(|i| matches!(i.kind, InstKind::Gep { offset: 8, .. })));
    }

    #[test]
    fn jcc_without_flags_is_rejected() {
        let e = lift_err(
            "module m\nfunc f(1) -> ret {\n    mov rax, rdi\n    je out\nout:\n    ret\n}\n",
        );
        assert!(e.message.contains("without a live cmp/test"), "{e}");
    }

    #[test]
    fn rsp_access_is_rejected() {
        let e = lift_err("module m\nfunc f(1) -> ret {\n    mov rax, qword [rsp+8]\n    ret\n}\n");
        assert!(e.message.contains("rsp"), "{e}");
    }

    #[test]
    fn rbp_access_without_prologue_is_rejected() {
        let e = lift_err("module m\nfunc f(1) -> ret {\n    mov qword [rbp-8], rdi\n    ret\n}\n");
        assert!(e.message.contains("prologue"), "{e}");
    }

    #[test]
    fn undefined_register_reads_become_undef() {
        let m = lift_text("module m\nfunc f(0) -> ret {\n    mov rax, r9\n    ret\n}\n");
        let f = m.function_by_name("f").unwrap();
        assert!(f
            .values()
            .any(|(_, v)| matches!(v.kind, ValueKind::Const(ConstKind::Undef))));
    }

    #[test]
    fn frontend_detects_and_lifts() {
        let img = assemble("module m\nfunc f(0) -> void {\n    ret\n}\n").unwrap();
        let bytes = crate::image::encode_image(&img);
        let fe = X86Frontend;
        assert!(fe.detects(&bytes));
        assert!(!fe.detects(b"SBF1"));
        let m = fe.lift_bytes(&bytes).unwrap();
        assert!(m.function_by_name("f").is_some());
    }
}
