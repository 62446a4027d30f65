//! The ISA-independent half of lifting machine code to SSA.
//!
//! This is the reproduction's counterpart of the paper's RetDec stage:
//! "we utilize binary lifter to translate binary code to LLVM IR, in which
//! binary registers and arguments are translated to SSA value\[s\]" (§3).
//! Only the meaning of each instruction differs between ISAs; everything
//! else is here:
//!
//! * [`lift_module`] declares the externs and globals, creates a shell per
//!   function (so direct calls may reference any index), installs the
//!   lifted bodies, marks every function whose address a body takes, and
//!   verifies the result.
//! * [`lift_function`] recovers the machine CFG from a body's [`Flow`]s —
//!   leaders, blocks, predecessors — and drives the ISA's
//!   [`MachineFunction::translate`] block by block, setting each block's
//!   terminator. Registers are renamed by the shared Braun-style
//!   [`SsaBuilder`] (all predecessors are known up front, so every block is
//!   sealed; pending phis resolve once every block's end state is known).
//!
//! No type information exists at this level — every lifted value carries
//! only its machine width.

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;

use super::image::{FunctionEntry, ImageExtern, ImageGlobal};
use crate::builder::SsaBuilder;
use crate::function::{Function, Terminator};
use crate::ids::{BlockId, FuncId, InstId, ValueId};
use crate::inst::{Callee, InstKind};
use crate::module::Module;
use crate::types::Width;
use crate::value::{ConstKind, Value, ValueKind};

/// A lifting failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LiftError {
    /// Description.
    pub message: String,
}

impl LiftError {
    /// Creates an error from any displayable message.
    pub fn new(message: impl Into<String>) -> LiftError {
        LiftError {
            message: message.into(),
        }
    }
}

impl fmt::Display for LiftError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lift error: {}", self.message)
    }
}

impl std::error::Error for LiftError {}

/// How control leaves one machine instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Flow {
    /// Continues with the next instruction.
    Next,
    /// Jumps to the instruction at this index.
    Jump(usize),
    /// Branches to the instruction at this index, or falls through to the
    /// next one.
    Branch(usize),
    /// Returns from the function.
    Return,
}

/// The state one function's lift shares between the skeleton and the ISA:
/// the function under construction and its register renamer.
pub struct FunctionLift<R> {
    /// The function being built.
    pub func: Function,
    /// Register → SSA value renaming.
    pub ssa: SsaBuilder<R>,
}

impl<R: Copy + Eq + Hash> FunctionLift<R> {
    /// Reads register `r` in block `b` (the block being translated).
    pub fn read(&mut self, b: BlockId, r: R) -> ValueId {
        self.ssa.read(&mut self.func, b, r)
    }

    /// Binds register `r` to `v` in the block being translated.
    pub fn write(&mut self, r: R, v: ValueId) {
        self.ssa.write(r, v);
    }

    /// A fresh integer constant.
    pub fn const_int(&mut self, v: i64, width: Width) -> ValueId {
        self.value(ValueKind::Const(ConstKind::Int(v)), width)
    }

    /// A fresh non-instruction value (constant, global or function
    /// address).
    pub fn value(&mut self, kind: ValueKind, width: Width) -> ValueId {
        self.func.add_value(Value { kind, width })
    }

    /// Appends the instruction `f` builds around its fresh destination
    /// value of `width`, returning that value.
    pub fn emit(
        &mut self,
        b: BlockId,
        width: Width,
        f: impl FnOnce(ValueId) -> InstKind,
    ) -> ValueId {
        let def = InstId::from_index(self.func.inst_count());
        let v = self.value(ValueKind::Inst { def }, width);
        let got = self.func.append_inst(b, f(v));
        debug_assert_eq!(got, def);
        v
    }

    /// `base + offset` as a `gep`, or `base` itself at offset 0.
    pub fn gep(&mut self, b: BlockId, base: ValueId, offset: u64) -> ValueId {
        if offset == 0 {
            return base;
        }
        self.emit(b, Width::W64, |dst| InstKind::Gep { dst, base, offset })
    }

    /// Appends a call of `callee`, returning its result value when
    /// `ret_width` declares one.
    pub fn call(
        &mut self,
        b: BlockId,
        callee: Callee,
        args: Vec<ValueId>,
        ret_width: Option<Width>,
    ) -> Option<ValueId> {
        let Some(width) = ret_width else {
            let dst = None;
            self.func
                .append_inst(b, InstKind::Call { dst, callee, args });
            return None;
        };
        Some(self.emit(b, width, |dst| InstKind::Call {
            dst: Some(dst),
            callee,
            args,
        }))
    }
}

/// One ISA's view of a function body: its instruction semantics over a
/// shared [`FunctionLift`]. [`lift_function`] owns everything else.
pub trait MachineFunction {
    /// The register file SSA renames.
    type Reg: Copy + Eq + Hash;

    /// The register holding the return value at `ret`.
    const RET: Self::Reg;

    /// The register carrying parameter `index` on entry.
    fn param(index: usize) -> Self::Reg;

    /// The shared lift state.
    fn state(&mut self) -> &mut FunctionLift<Self::Reg>;

    /// Number of machine instructions in the body.
    fn inst_count(&self) -> usize;

    /// How control leaves instruction `i`. Targets are instruction
    /// indexes of this body; a branch that lands anywhere else is an
    /// error.
    fn flow(&self, i: usize) -> Result<Flow, LiftError>;

    /// Resets per-block ISA state at the start of block `b`, after its
    /// registers are seeded.
    fn begin_block(&mut self, b: BlockId) {
        let _ = b;
    }

    /// Translates instruction `i` of block `b`; `module` resolves extern
    /// signatures. The skeleton sets the block's terminator afterwards;
    /// for a [`Flow::Branch`] instruction this returns the condition under
    /// which it falls through.
    fn translate(
        &mut self,
        module: &Module,
        b: BlockId,
        i: usize,
    ) -> Result<Option<ValueId>, LiftError>;

    /// The lifted function.
    fn finish(self) -> Function;
}

/// Recovers the machine CFG of `m`'s body and translates it block by block
/// (blocks in leader order, so the entry is `bb0` and the IR follows the
/// machine order) against `module`'s declarations. An empty body leaves
/// the entry `unreachable`. Fails with the first error of `m`.
pub fn lift_function<M: MachineFunction>(m: &mut M, module: &Module) -> Result<(), LiftError> {
    let n = m.inst_count();
    if n == 0 {
        return Ok(());
    }
    let flows = (0..n).map(|i| m.flow(i)).collect::<Result<Vec<_>, _>>()?;
    // 1. Leaders: index 0, branch targets, successors of control transfers.
    let mut is_leader = vec![false; n];
    is_leader[0] = true;
    for (i, &flow) in flows.iter().enumerate() {
        if let Flow::Jump(t) | Flow::Branch(t) = flow {
            is_leader[t] = true;
        }
        if flow != Flow::Next && i + 1 < n {
            is_leader[i + 1] = true;
        }
    }
    // 2. Blocks in leader order; the entry (index 0) is the existing bb0.
    let fx = m.state();
    let mut block_of = vec![fx.func.entry(); n];
    let mut leaders = vec![0];
    for i in 1..n {
        block_of[i] = if is_leader[i] {
            leaders.push(i);
            fx.func.add_block()
        } else {
            block_of[i - 1]
        };
    }
    // 3. Machine-CFG predecessors, for phi placement; a branch lists its
    // taken target before its fallthrough.
    let mut preds: HashMap<BlockId, Vec<BlockId>> = HashMap::new();
    for (i, &flow) in flows.iter().enumerate() {
        let next = (i + 1 < n).then_some(i + 1);
        let succs = match flow {
            Flow::Jump(t) => [Some(t), None],
            Flow::Branch(t) => [Some(t), next],
            Flow::Return => [None, None],
            Flow::Next => [next.filter(|&s| is_leader[s]), None],
        };
        for s in succs.into_iter().flatten() {
            preds.entry(block_of[s]).or_default().push(block_of[i]);
        }
    }
    fx.ssa = SsaBuilder::new(preds);
    // 4. Translate block by block, then set each block's terminator.
    for (bi, &start) in leaders.iter().enumerate() {
        let b = block_of[start];
        let end = leaders.get(bi + 1).copied().unwrap_or(n);
        let fx = m.state();
        // Parameters seed the entry block's argument registers.
        let seed = if bi == 0 { fx.func.params() } else { &[] };
        fx.ssa
            .begin_block(seed.iter().enumerate().map(|(idx, &p)| (M::param(idx), p)));
        m.begin_block(b);
        let mut cond = None;
        for i in start..end {
            cond = m.translate(module, b, i)?;
        }
        let last = end - 1;
        let fx = m.state();
        let term = match flows[last] {
            Flow::Next if end < n => Terminator::Br(block_of[end]),
            Flow::Next => Terminator::Unreachable,
            Flow::Jump(t) => Terminator::Br(block_of[t]),
            Flow::Branch(t) => {
                let cond = cond.ok_or_else(|| {
                    LiftError::new(format!(
                        "{}: branch at instruction {last} has no condition",
                        fx.func.name()
                    ))
                })?;
                // A branch at the very end has no fallthrough: both arms
                // go to the target.
                let else_bb = block_of[t];
                let then_bb = if end < n { block_of[end] } else { else_bb };
                Terminator::CondBr {
                    cond,
                    then_bb,
                    else_bb,
                }
            }
            Flow::Return => {
                let val = fx.func.ret_width().map(|_| fx.read(b, M::RET));
                Terminator::Ret(val)
            }
        };
        fx.func.replace_terminator(b, term);
        fx.ssa.end_block(b);
    }
    // 5. Resolve pending phis against the sealed end-of-block states.
    let fx = m.state();
    fx.ssa.finish(&mut fx.func);
    Ok(())
}

/// Lifts an image: declares its externs and globals, creates a shell per
/// function, lifts every body through the [`MachineFunction`] that
/// `machine` builds for it, marks address-taken functions and verifies the
/// module. Returns the module and the number of machine instructions
/// lifted.
///
/// `machine` receives the function's table index and its fresh
/// [`FunctionLift`], whose function already has the shell's signature.
///
/// # Errors
///
/// Returns [`LiftError`] for functions with more than six register
/// parameters, references to functions outside the table, whatever
/// `machine` or the body lift rejects, and modules that fail verification.
pub fn lift_module<F: FunctionEntry, M: MachineFunction>(
    name: &str,
    externs: &[ImageExtern],
    globals: &[ImageGlobal],
    functions: &[F],
    mut machine: impl FnMut(usize, FunctionLift<M::Reg>) -> Result<M, LiftError>,
) -> Result<(Module, usize), LiftError> {
    let mut module = Module::new(name);
    // Externs first, preserving table order so indexes line up.
    for e in externs {
        let fallback = vec![Width::W64; e.nparams as usize];
        let ret = e.has_ret.then_some(Width::W64);
        module.declare_extern(&e.name, &fallback, ret);
    }
    for g in globals {
        module.push_global_named(&g.name, g.size);
    }
    let shell = |i: usize, f: &F| {
        let params = vec![Width::W64; f.nparams() as usize];
        let ret = f.has_ret().then_some(Width::W64);
        Function::new(FuncId::from_index(i), f.name().to_string(), &params, ret)
    };
    // Shells first: direct calls may reference any index.
    for (i, f) in functions.iter().enumerate() {
        if f.nparams() > 6 {
            return Err(LiftError::new(format!(
                "function {} has too many register parameters",
                f.name()
            )));
        }
        module.push_function_raw(shell(i, f));
    }
    let mut insts = 0;
    for (i, f) in functions.iter().enumerate() {
        let fx = FunctionLift {
            func: shell(i, f),
            ssa: SsaBuilder::new(HashMap::new()),
        };
        let mut m = machine(i, fx)?;
        insts += m.inst_count();
        lift_function(&mut m, &module)?;
        *module.function_mut(FuncId::from_index(i)) = m.finish();
    }
    // Address-taken marking, after the bodies are installed so the flag
    // survives: any function whose address a body materializes.
    let mut taken = vec![false; functions.len()];
    for f in module.functions() {
        for (_, v) in f.values() {
            if let ValueKind::FuncAddr(t) = v.kind {
                let Some(slot) = taken.get_mut(t.index()) else {
                    return Err(LiftError::new(format!(
                        "{} takes the address of function {} out of range",
                        f.name(),
                        t.index()
                    )));
                };
                *slot = true;
            }
        }
    }
    for (i, taken) in taken.into_iter().enumerate() {
        if taken {
            module
                .function_mut(FuncId::from_index(i))
                .set_address_taken(true);
        }
    }
    crate::verify::verify_module(&module)
        .map_err(|e| LiftError::new(format!("lifted module failed verification: {e}")))?;
    Ok((module, insts))
}
