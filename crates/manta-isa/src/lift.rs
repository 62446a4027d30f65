//! Lifting SB-ISA machine code to `manta-ir` SSA.
//!
//! The module layout, CFG recovery and SSA renaming are the shared
//! skeleton of [`manta_ir::frontend::lift`]; this module supplies only the
//! meaning of each SB-ISA instruction. Parameters arrive in `r1..r6` and
//! the return value leaves in `r0`.

use manta_ir::frontend::lift::{lift_module, Flow, FunctionLift, MachineFunction};
use manta_ir::{
    BlockId, Callee, ConstKind, ExternId, Frontend, FrontendError, FuncId, Function, InstKind,
    Module, ValueId, ValueKind, Width,
};

pub use manta_ir::frontend::lift::LiftError;

use crate::image::{Image, ImageFunction};
use crate::inst::{MachInst, Reg};

fn err<T>(message: impl Into<String>) -> Result<T, LiftError> {
    Err(LiftError::new(message))
}

/// Lifts a decoded image to an IR module.
///
/// # Errors
///
/// Returns [`LiftError`] when the machine code is structurally invalid
/// (out-of-range targets or indexes, too many register arguments).
pub fn lift(image: &Image) -> Result<Module, LiftError> {
    let (module, insts) = lift_module(
        &image.name,
        &image.externs,
        &image.globals,
        &image.functions,
        |i, fx| {
            Ok(Lifter {
                image,
                src: &image.functions[i],
                fx,
            })
        },
    )?;
    manta_telemetry::counter("lift.insts_decoded", insts as u64);
    Ok(module)
}

struct Lifter<'a> {
    image: &'a Image,
    src: &'a ImageFunction,
    fx: FunctionLift<Reg>,
}

impl Lifter<'_> {
    /// Calls `callee` with the first `nargs` argument registers; a result
    /// lands in `r0`.
    fn call(&mut self, b: BlockId, callee: Callee, nargs: u8, ret: Option<Width>) {
        let args = (0..nargs as usize)
            .map(|i| self.fx.read(b, Reg::arg(i)))
            .collect();
        if let Some(v) = self.fx.call(b, callee, args, ret) {
            self.fx.write(Reg::RET, v);
        }
    }
}

impl MachineFunction for Lifter<'_> {
    type Reg = Reg;
    const RET: Reg = Reg::RET;

    fn param(index: usize) -> Reg {
        Reg::arg(index)
    }

    fn state(&mut self) -> &mut FunctionLift<Reg> {
        &mut self.fx
    }

    fn inst_count(&self) -> usize {
        self.src.code.len()
    }

    fn flow(&self, i: usize) -> Result<Flow, LiftError> {
        let target = |t: u32| {
            if (t as usize) < self.src.code.len() {
                Ok(t as usize)
            } else {
                err(format!(
                    "branch target {t} out of range in {}",
                    self.src.name
                ))
            }
        };
        Ok(match self.src.code[i] {
            MachInst::Jmp { target: t } => Flow::Jump(target(t)?),
            MachInst::Brz { target: t, .. } => Flow::Branch(target(t)?),
            MachInst::Ret => Flow::Return,
            _ => Flow::Next,
        })
    }

    fn translate(
        &mut self,
        module: &Module,
        b: BlockId,
        i: usize,
    ) -> Result<Option<ValueId>, LiftError> {
        match self.src.code[i] {
            MachInst::Mov { rd, rs } => {
                let src = self.fx.read(b, rs);
                let v = self
                    .fx
                    .emit(b, self.fx.func.value(src).width, |dst| InstKind::Copy {
                        dst,
                        src,
                    });
                self.fx.write(rd, v);
            }
            MachInst::MovImm { rd, imm } => {
                let v = self.fx.const_int(imm, Width::W64);
                self.fx.write(rd, v);
            }
            MachInst::MovFloat { rd, imm } => {
                let v = self
                    .fx
                    .value(ValueKind::Const(ConstKind::Float(imm)), Width::W64);
                self.fx.write(rd, v);
            }
            MachInst::Bin { op, rd, rs, rt } => {
                let lhs = self.fx.read(b, rs);
                let rhs = self.fx.read(b, rt);
                let v = self
                    .fx
                    .emit(b, Width::W64, |dst| InstKind::BinOp { op, dst, lhs, rhs });
                self.fx.write(rd, v);
            }
            MachInst::Cmp { pred, rd, rs, rt } => {
                let lhs = self.fx.read(b, rs);
                let rhs = self.fx.read(b, rt);
                let v = self.fx.emit(b, Width::W1, |dst| InstKind::Cmp {
                    dst,
                    pred,
                    lhs,
                    rhs,
                });
                self.fx.write(rd, v);
            }
            MachInst::Load { width, rd, rs, off } => {
                let base = self.fx.read(b, rs);
                let addr = self.fx.gep(b, base, off as u64);
                let v = self
                    .fx
                    .emit(b, width, |dst| InstKind::Load { dst, addr, width });
                self.fx.write(rd, v);
            }
            MachInst::Store { width, rd, off, rs } => {
                let base = self.fx.read(b, rd);
                let addr = self.fx.gep(b, base, off as u64);
                let val = self.fx.read(b, rs);
                self.fx.func.append_inst(b, InstKind::Store { addr, val });
                let _ = width;
            }
            MachInst::Salloc { rd, size } => {
                let v = self.fx.emit(b, Width::W64, |dst| InstKind::Alloca {
                    dst,
                    size: size as u64,
                });
                self.fx.write(rd, v);
            }
            MachInst::LeaGlobal { rd, index } => {
                if index as usize >= self.image.globals.len() {
                    return err(format!("global index {index} out of range"));
                }
                let v = self
                    .fx
                    .value(ValueKind::GlobalAddr(manta_ir::GlobalId(index)), Width::W64);
                self.fx.write(rd, v);
            }
            MachInst::LeaFunc { rd, index } => {
                let v = self
                    .fx
                    .value(ValueKind::FuncAddr(FuncId(index)), Width::W64);
                self.fx.write(rd, v);
            }
            MachInst::Call { index, nargs } => {
                let Some(target) = self.image.functions.get(index as usize) else {
                    return err(format!("call index {index} out of range"));
                };
                if nargs != target.nparams {
                    return err(format!(
                        "call to {} passes {nargs} args, expects {}",
                        target.name, target.nparams
                    ));
                }
                let ret = target.has_ret.then_some(Width::W64);
                self.call(b, Callee::Direct(FuncId(index)), nargs, ret);
            }
            MachInst::ECall { index, nargs } => {
                if index as usize >= self.image.externs.len() {
                    return err(format!("ecall index {index} out of range"));
                }
                let ret = module.extern_decl(ExternId(index)).ret_width;
                self.call(b, Callee::Extern(ExternId(index)), nargs, ret);
            }
            MachInst::ICall { rs, nargs, ret } => {
                let fp = self.fx.read(b, rs);
                let ret = ret.then_some(Width::W64);
                self.call(b, Callee::Indirect(fp), nargs, ret);
            }
            MachInst::Brz { rs, .. } => {
                let cond_src = self.fx.read(b, rs);
                // CondBr wants an i1; synthesize `cond = (rs != 0)` for
                // wider registers.
                let width = self.fx.func.value(cond_src).width;
                if width == Width::W1 {
                    return Ok(Some(cond_src));
                }
                let zero = self.fx.const_int(0, width);
                let cond = self.fx.emit(b, Width::W1, |dst| InstKind::Cmp {
                    dst,
                    pred: manta_ir::CmpPred::Ne,
                    lhs: cond_src,
                    rhs: zero,
                });
                return Ok(Some(cond));
            }
            // Control transfers are the skeleton's.
            MachInst::Jmp { .. } | MachInst::Ret => {}
        }
        Ok(None)
    }

    fn finish(self) -> Function {
        self.fx.func
    }
}

/// The SB-ISA frontend plugin: recognizes SBF images by their `SBF1`
/// magic, converts them to and from SB-ISA assembly, and lifts them via
/// [`lift`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SbFrontend;

impl Frontend for SbFrontend {
    fn name(&self) -> &'static str {
        "sb"
    }

    fn describe(&self) -> &'static str {
        "SB-ISA synthetic register machine (SBF container, magic \"SBF1\")"
    }

    fn detects(&self, bytes: &[u8]) -> bool {
        bytes.starts_with(crate::image::MAGIC)
    }

    fn lift_bytes(&self, bytes: &[u8]) -> Result<Module, FrontendError> {
        Ok(lift(&crate::image::decode(bytes)?)?)
    }

    fn assemble(&self, text: &str) -> Result<Vec<u8>, FrontendError> {
        Ok(crate::image::encode(&crate::asm::assemble(text)?))
    }

    fn disassemble(&self, bytes: &[u8]) -> Result<String, FrontendError> {
        Ok(crate::asm::disassemble(&crate::image::decode(bytes)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use manta_ir::Terminator;

    fn lift_text(text: &str) -> Module {
        lift(&assemble(text).unwrap()).unwrap()
    }

    #[test]
    fn lifts_straightline_function() {
        let m = lift_text(
            "module m\nextern malloc, 1, ret\nfunc f(1) -> ret {\n    mov r2, r1\n    ecall malloc, 1\n    ret\n}\n",
        );
        let f = m.function_by_name("f").unwrap();
        assert_eq!(f.params().len(), 1);
        assert!(f.insts().any(|i| matches!(i.kind, InstKind::Call { .. })));
        assert!(f
            .blocks()
            .any(|b| matches!(b.term, Terminator::Ret(Some(_)))));
    }

    #[test]
    fn lifts_branch_with_phi() {
        // r2 = 1 on one path, 2 on the other; returned after the join.
        let m = lift_text(
            "module m\nfunc f(1) -> ret {\n    brz r1, zero\n    movi r2, 1\n    jmp done\nzero:\n    movi r2, 2\ndone:\n    mov r0, r2\n    ret\n}\n",
        );
        let f = m.function_by_name("f").unwrap();
        let phis = f
            .insts()
            .filter(|i| matches!(i.kind, InstKind::Phi { .. }))
            .count();
        assert_eq!(phis, 1, "one phi for r2 at the join");
    }

    #[test]
    fn lifts_loop_with_phi() {
        let m = lift_text(
            "module m\nfunc count(1) -> ret {\nhead:\n    brz r1, done\n    movi r2, 1\n    sub r1, r1, r2\n    jmp head\ndone:\n    mov r0, r1\n    ret\n}\n",
        );
        let f = m.function_by_name("count").unwrap();
        assert!(
            f.insts().any(|i| matches!(i.kind, InstKind::Phi { .. })),
            "loop-carried r1 needs a phi"
        );
        manta_ir::verify::verify_module(&m).unwrap();
    }

    #[test]
    fn undefined_register_reads_become_undef() {
        let m = lift_text("module m\nfunc f(0) -> ret {\n    mov r0, r9\n    ret\n}\n");
        let f = m.function_by_name("f").unwrap();
        assert!(f
            .values()
            .any(|(_, v)| matches!(v.kind, ValueKind::Const(ConstKind::Undef))));
    }

    #[test]
    fn lea_f_marks_address_taken() {
        let m = lift_text(
            "module m\nfunc helper(0) -> void {\n    ret\n}\nfunc f(0) -> void {\n    lea.f r1, helper\n    icall r1, 0\n    ret\n}\n",
        );
        assert!(m.function_by_name("helper").unwrap().is_address_taken());
        assert!(!m.function_by_name("f").unwrap().is_address_taken());
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let text = "module m\nfunc g(2) -> void {\n    ret\n}\nfunc f(0) -> void {\n    call g, 1\n    ret\n}\n";
        let e = lift(&assemble(text).unwrap()).unwrap_err();
        assert!(e.message.contains("passes 1 args"), "{e}");
    }

    #[test]
    fn memory_offsets_lift_to_gep() {
        let m = lift_text(
            "module m\nfunc f(1) -> ret {\n    ld.w32 r0, [r1+12]\n    st.w64 [r1+8], r0\n    ret\n}\n",
        );
        let f = m.function_by_name("f").unwrap();
        let geps = f
            .insts()
            .filter(|i| matches!(i.kind, InstKind::Gep { .. }))
            .count();
        assert_eq!(geps, 2);
        // The load destination carries the access width.
        assert!(f.insts().any(|i| matches!(
            i.kind,
            InstKind::Load {
                width: Width::W32,
                ..
            }
        )));
    }
}
