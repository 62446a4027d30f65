//! Lifting SB-ISA machine code to `manta-ir` SSA.
//!
//! This is the reproduction's counterpart of the paper's RetDec stage:
//! "we utilize binary lifter to translate binary code to LLVM IR, in which
//! binary registers and arguments are translated to SSA value\[s\]" (§3).
//!
//! Basic blocks are recovered from branch targets, and registers are
//! renamed to SSA values with the sealed-block algorithm of Braun et al.
//! (all predecessors are known up front, so every block is sealed): a
//! register read first looks for a block-local definition, then recurses
//! into predecessors, inserting phis at joins. No type information exists
//! at this level — every lifted value carries only its machine width.

use std::collections::HashMap;
use std::fmt;

use manta_ir::{
    BlockId, Callee, ConstKind, Frontend, FrontendError, FuncId, Function, InstKind, Module,
    SsaBuilder, Terminator, Value, ValueId, ValueKind, Width,
};

use crate::image::{Image, ImageError};
use crate::inst::{MachInst, Reg};

/// Lifting failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LiftError {
    /// Description.
    pub message: String,
}

impl fmt::Display for LiftError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lift error: {}", self.message)
    }
}

impl std::error::Error for LiftError {}

impl From<ImageError> for LiftError {
    fn from(e: ImageError) -> LiftError {
        LiftError { message: e.message }
    }
}

fn err<T>(message: impl Into<String>) -> Result<T, LiftError> {
    Err(LiftError {
        message: message.into(),
    })
}

/// Lifts a decoded image to an IR module.
///
/// # Errors
///
/// Returns [`LiftError`] when the machine code is structurally invalid
/// (out-of-range targets or indexes, too many register arguments).
pub fn lift(image: &Image) -> Result<Module, LiftError> {
    let mut module = Module::new(image.name.clone());
    // Externs first, preserving image order so indexes line up.
    for e in &image.externs {
        let fallback: Vec<Width> = vec![Width::W64; e.nparams as usize];
        let ret = if e.has_ret { Some(Width::W64) } else { None };
        module.declare_extern(&e.name, &fallback, ret);
    }
    for g in &image.globals {
        module.push_global_named(&g.name, g.size);
    }
    // Function shells first (direct calls may reference any index).
    for (i, f) in image.functions.iter().enumerate() {
        if f.nparams as usize > 6 {
            return err(format!("function {} has too many parameters", f.name));
        }
        let params = vec![Width::W64; f.nparams as usize];
        let ret = if f.has_ret { Some(Width::W64) } else { None };
        let func = Function::new(FuncId::from_index(i), f.name.clone(), &params, ret);
        module.push_function_raw(func);
    }
    // Lift bodies.
    for (i, f) in image.functions.iter().enumerate() {
        let lifted = Lifter::new(&module, image, f)?.run()?;
        *module.function_mut(FuncId::from_index(i)) = lifted;
    }
    // Address-taken marking (scan all code for lea.f) — after body
    // installation so the flag survives on the final functions.
    for f in &image.functions {
        for inst in &f.code {
            if let MachInst::LeaFunc { index, .. } = inst {
                if *index as usize >= image.functions.len() {
                    return err(format!("lea.f references function {index} out of range"));
                }
                module
                    .function_mut(FuncId::from_index(*index as usize))
                    .set_address_taken(true);
            }
        }
    }
    manta_ir::verify::verify_module(&module).map_err(|e| LiftError {
        message: format!("lifted module failed verification: {e}"),
    })?;
    Ok(module)
}

struct Lifter<'a> {
    module: &'a Module,
    image: &'a Image,
    src: &'a crate::image::ImageFunction,
    func: Function,
    /// Machine instruction index → owning block.
    block_of: Vec<BlockId>,
    /// Block → leader instruction index.
    leader_of: HashMap<BlockId, usize>,
    /// Machine-CFG predecessors per block.
    preds: HashMap<BlockId, Vec<BlockId>>,
    /// Shared Braun-style register renamer (`manta_ir::SsaBuilder`).
    ssa: SsaBuilder<Reg>,
}

impl<'a> Lifter<'a> {
    fn new(
        module: &'a Module,
        image: &'a Image,
        src: &'a crate::image::ImageFunction,
    ) -> Result<Lifter<'a>, LiftError> {
        let fid = module
            .functions()
            .find(|f| f.name() == src.name)
            .expect("shell exists")
            .id();
        let params = vec![Width::W64; src.nparams as usize];
        let ret = if src.has_ret { Some(Width::W64) } else { None };
        let func = Function::new(fid, src.name.clone(), &params, ret);
        Ok(Lifter {
            module,
            image,
            src,
            func,
            block_of: Vec::new(),
            leader_of: HashMap::new(),
            preds: HashMap::new(),
            ssa: SsaBuilder::new(HashMap::new()),
        })
    }

    fn run(mut self) -> Result<Function, LiftError> {
        let code = &self.src.code;
        if code.is_empty() {
            // Empty body: entry stays `unreachable`.
            return Ok(self.func);
        }
        // 1. Leaders: index 0, branch targets, fallthroughs of terminators.
        let n = code.len();
        let mut is_leader = vec![false; n];
        is_leader[0] = true;
        for (i, inst) in code.iter().enumerate() {
            for t in inst.targets() {
                if t as usize >= n {
                    return err(format!(
                        "branch target {t} out of range in {}",
                        self.src.name
                    ));
                }
                is_leader[t as usize] = true;
            }
            if inst.is_terminator() && i + 1 < n {
                is_leader[i + 1] = true;
            }
        }
        // 2. Blocks in leader order; entry (index 0) is the existing bb0.
        self.block_of = vec![BlockId(0); n];
        let mut current = self.func.entry();
        self.leader_of.insert(current, 0);
        for (i, &leader) in is_leader.iter().enumerate() {
            if leader && i != 0 {
                current = self.func.add_block();
                self.leader_of.insert(current, i);
            }
            self.block_of[i] = current;
        }
        // 3. Machine CFG edges (for phi placement).
        for (i, inst) in code.iter().enumerate() {
            let b = self.block_of[i];
            let mut succs: Vec<usize> = Vec::new();
            match inst {
                MachInst::Jmp { target } => succs.push(*target as usize),
                MachInst::Brz { target, .. } => {
                    succs.push(*target as usize);
                    if i + 1 < n {
                        succs.push(i + 1);
                    }
                }
                MachInst::Ret => {}
                _ => {
                    if i + 1 < n && is_leader[i + 1] {
                        succs.push(i + 1);
                    }
                }
            }
            let ends_block = inst.is_terminator() || (i + 1 < n && is_leader[i + 1]);
            if ends_block {
                for s in succs {
                    let sb = self.block_of[s];
                    self.preds.entry(sb).or_default().push(b);
                }
            }
        }
        // 4. Translate in block order (leaders ascending = machine order).
        // Register reads without a block-local definition create *pending*
        // start-of-block phis; their operands are resolved in step 5 once
        // every block's end state is sealed (two-phase Braun-style SSA —
        // needed because loop back edges flow from not-yet-translated
        // blocks). The renaming machinery itself is the shared
        // `manta_ir::SsaBuilder`.
        self.ssa = SsaBuilder::new(self.preds.clone());
        let blocks: Vec<BlockId> = (0..self.func.block_count())
            .map(|i| BlockId(i as u32))
            .collect();
        for &b in &blocks {
            let seed: Vec<(Reg, ValueId)> = if b == self.func.entry() {
                self.func
                    .params()
                    .iter()
                    .enumerate()
                    .map(|(idx, &p)| (Reg::arg(idx), p))
                    .collect()
            } else {
                Vec::new()
            };
            self.ssa.begin_block(seed);
            let start = self.leader_of[&b];
            let mut i = start;
            let mut terminated = false;
            while i < n && self.block_of[i] == b {
                let inst = code[i];
                self.translate(b, i, &inst, &mut terminated)?;
                i += 1;
            }
            if !terminated {
                // Fallthrough into the next block.
                if i < n {
                    self.func
                        .replace_terminator(b, Terminator::Br(self.block_of[i]));
                } else {
                    self.func.replace_terminator(b, Terminator::Unreachable);
                }
            }
            self.ssa.end_block(b);
        }
        // 5. Resolve pending phis against sealed end-of-block states.
        self.ssa.finish(&mut self.func);
        manta_telemetry::counter("lift.insts_decoded", n as u64);
        Ok(self.func)
    }

    fn write(&mut self, _b: BlockId, r: Reg, v: ValueId) {
        self.ssa.write(r, v);
    }

    /// Reads `r` in the block being translated.
    fn read(&mut self, b: BlockId, r: Reg) -> ValueId {
        self.ssa.read(&mut self.func, b, r)
    }

    fn const_int(&mut self, v: i64, width: Width) -> ValueId {
        self.func.add_value(Value {
            kind: ValueKind::Const(ConstKind::Int(v)),
            width,
        })
    }

    fn def_value(&mut self, width: Width) -> (ValueId, manta_ir::InstId) {
        let next = manta_ir::InstId::from_index(self.func.inst_count());
        let v = self.func.add_value(Value {
            kind: ValueKind::Inst { def: next },
            width,
        });
        (v, next)
    }

    fn emit(&mut self, b: BlockId, width: Width, f: impl FnOnce(ValueId) -> InstKind) -> ValueId {
        let (v, expected) = self.def_value(width);
        let got = self.func.append_inst(b, f(v));
        debug_assert_eq!(got, expected);
        v
    }

    #[allow(clippy::too_many_lines)]
    fn translate(
        &mut self,
        b: BlockId,
        idx: usize,
        inst: &MachInst,
        terminated: &mut bool,
    ) -> Result<(), LiftError> {
        let n = self.src.code.len();
        match *inst {
            MachInst::Mov { rd, rs } => {
                let src = self.read(b, rs);
                let v = self.emit(b, self.func.value(src).width, |dst| InstKind::Copy {
                    dst,
                    src,
                });
                self.write(b, rd, v);
            }
            MachInst::MovImm { rd, imm } => {
                let v = self.const_int(imm, Width::W64);
                self.write(b, rd, v);
            }
            MachInst::MovFloat { rd, imm } => {
                let v = self.func.add_value(Value {
                    kind: ValueKind::Const(ConstKind::Float(imm)),
                    width: Width::W64,
                });
                self.write(b, rd, v);
            }
            MachInst::Bin { op, rd, rs, rt } => {
                let lhs = self.read(b, rs);
                let rhs = self.read(b, rt);
                let v = self.emit(b, Width::W64, |dst| InstKind::BinOp { op, dst, lhs, rhs });
                self.write(b, rd, v);
            }
            MachInst::Cmp { pred, rd, rs, rt } => {
                let lhs = self.read(b, rs);
                let rhs = self.read(b, rt);
                let v = self.emit(b, Width::W1, |dst| InstKind::Cmp {
                    dst,
                    pred,
                    lhs,
                    rhs,
                });
                self.write(b, rd, v);
            }
            MachInst::Load { width, rd, rs, off } => {
                let mut addr = self.read(b, rs);
                if off != 0 {
                    addr = self.emit(b, Width::W64, |dst| InstKind::Gep {
                        dst,
                        base: addr,
                        offset: off as u64,
                    });
                }
                let v = self.emit(b, width, |dst| InstKind::Load { dst, addr, width });
                self.write(b, rd, v);
            }
            MachInst::Store { width, rd, off, rs } => {
                let mut addr = self.read(b, rd);
                if off != 0 {
                    addr = self.emit(b, Width::W64, |dst| InstKind::Gep {
                        dst,
                        base: addr,
                        offset: off as u64,
                    });
                }
                let val = self.read(b, rs);
                self.func.append_inst(b, InstKind::Store { addr, val });
                let _ = width;
            }
            MachInst::Salloc { rd, size } => {
                let v = self.emit(b, Width::W64, |dst| InstKind::Alloca {
                    dst,
                    size: size as u64,
                });
                self.write(b, rd, v);
            }
            MachInst::LeaGlobal { rd, index } => {
                if index as usize >= self.image.globals.len() {
                    return err(format!("global index {index} out of range"));
                }
                let v = self.func.add_value(Value {
                    kind: ValueKind::GlobalAddr(manta_ir::GlobalId(index)),
                    width: Width::W64,
                });
                self.write(b, rd, v);
            }
            MachInst::LeaFunc { rd, index } => {
                let v = self.func.add_value(Value {
                    kind: ValueKind::FuncAddr(FuncId(index)),
                    width: Width::W64,
                });
                self.write(b, rd, v);
            }
            MachInst::Call { index, nargs } => {
                if index as usize >= self.image.functions.len() {
                    return err(format!("call index {index} out of range"));
                }
                let target = &self.image.functions[index as usize];
                if nargs != target.nparams {
                    return err(format!(
                        "call to {} passes {nargs} args, expects {}",
                        target.name, target.nparams
                    ));
                }
                let args: Vec<ValueId> = (0..nargs as usize)
                    .map(|i| self.read(b, Reg::arg(i)))
                    .collect();
                if target.has_ret {
                    let v = self.emit(b, Width::W64, |dst| InstKind::Call {
                        dst: Some(dst),
                        callee: Callee::Direct(FuncId(index)),
                        args: args.clone(),
                    });
                    self.write(b, Reg::RET, v);
                } else {
                    self.func.append_inst(
                        b,
                        InstKind::Call {
                            dst: None,
                            callee: Callee::Direct(FuncId(index)),
                            args,
                        },
                    );
                }
            }
            MachInst::ECall { index, nargs } => {
                if index as usize >= self.image.externs.len() {
                    return err(format!("ecall index {index} out of range"));
                }
                let decl = self.module.extern_decl(manta_ir::ExternId(index));
                let args: Vec<ValueId> = (0..nargs as usize)
                    .map(|i| self.read(b, Reg::arg(i)))
                    .collect();
                if let Some(w) = decl.ret_width {
                    let v = self.emit(b, w, |dst| InstKind::Call {
                        dst: Some(dst),
                        callee: Callee::Extern(manta_ir::ExternId(index)),
                        args: args.clone(),
                    });
                    self.write(b, Reg::RET, v);
                } else {
                    self.func.append_inst(
                        b,
                        InstKind::Call {
                            dst: None,
                            callee: Callee::Extern(manta_ir::ExternId(index)),
                            args,
                        },
                    );
                }
            }
            MachInst::ICall { rs, nargs, ret } => {
                let fp = self.read(b, rs);
                let args: Vec<ValueId> = (0..nargs as usize)
                    .map(|i| self.read(b, Reg::arg(i)))
                    .collect();
                if ret {
                    let v = self.emit(b, Width::W64, |dst| InstKind::Call {
                        dst: Some(dst),
                        callee: Callee::Indirect(fp),
                        args: args.clone(),
                    });
                    self.write(b, Reg::RET, v);
                } else {
                    self.func.append_inst(
                        b,
                        InstKind::Call {
                            dst: None,
                            callee: Callee::Indirect(fp),
                            args,
                        },
                    );
                }
            }
            MachInst::Jmp { target } => {
                let tb = self.block_of[target as usize];
                self.func.replace_terminator(b, Terminator::Br(tb));
                *terminated = true;
            }
            MachInst::Brz { rs, target } => {
                let cond_src = self.read(b, rs);
                // CondBr wants an i1; synthesize `cond = (rs != 0)` for
                // wider registers.
                let cond = if self.func.value(cond_src).width == Width::W1 {
                    cond_src
                } else {
                    let zero = self.const_int(0, self.func.value(cond_src).width);
                    self.emit(b, Width::W1, |dst| InstKind::Cmp {
                        dst,
                        pred: manta_ir::CmpPred::Ne,
                        lhs: cond_src,
                        rhs: zero,
                    })
                };
                let else_bb = self.block_of[target as usize];
                let then_bb = if idx + 1 < n {
                    self.block_of[idx + 1]
                } else {
                    // Branch at the very end: the fallthrough does not
                    // exist; both arms go to the target.
                    else_bb
                };
                self.func.replace_terminator(
                    b,
                    Terminator::CondBr {
                        cond,
                        then_bb,
                        else_bb,
                    },
                );
                *terminated = true;
            }
            MachInst::Ret => {
                let val = if self.src.has_ret {
                    Some(self.read(b, Reg::RET))
                } else {
                    None
                };
                self.func.replace_terminator(b, Terminator::Ret(val));
                *terminated = true;
            }
        }
        Ok(())
    }
}

/// The SB-ISA frontend plugin: recognizes SBF images by their `SBF1`
/// magic and lifts them via [`lift`].
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
        let image = crate::image::decode(bytes).map_err(|e| FrontendError::new(e.to_string()))?;
        lift(&image).map_err(|e| FrontendError::new(e.message))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

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
