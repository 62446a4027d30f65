//! Stage 2: context-sensitive type refinement (paper §4.2.1, Algorithm 1).
//!
//! For each over-approximated variable `v`, a *backward* DDG traversal under
//! CFL-reachability finds the alias **roots** of `v` — the origins of the
//! value `v` carries in valid calling contexts. A *forward* CFL-valid
//! traversal from each root then collects only the type hints reachable in
//! matching contexts; the hint set replaces `v`'s interval (`F↑ = LUB`,
//! `F↓ = GLB`).
//!
//! Two ingredients give the precision gain over stage 1:
//!
//! * call edges act as parentheses, so hints flowing through a polymorphic
//!   function from *other* call sites are CFL-unreachable and ignored;
//! * only DDG-alias paths are searched, so hints of non-aliased variables
//!   that stage 1 unified through shared code are never collected.
//!
//! At `add`/`sub` instructions the traversal "turns to resolve the type of
//! operands first and performs feasibility checking to determine the
//! correct searching direction": an operand already precisely known to be
//! numeric cannot be the alias source of a pointer-valued result, and vice
//! versa.

use std::collections::{BTreeSet, HashMap, HashSet};

use manta_analysis::cfl::{ctx_op, CtxStack, Direction};
use manta_analysis::{DepKind, ModuleAnalysis, NodeId, VarRef};
use manta_ir::Type;
use manta_resilience::{Budget, BudgetExceeded};

use crate::interval::{FirstLayer, Resolution, TypeInterval};
use crate::refine::{refine_stage, Footprint};
use crate::reveal::RevealMap;
use crate::summaries::ChunkMemo;
use crate::{InferenceResult, MantaConfig, Stage};

/// Runs Algorithm 1 over the current `V_O` set, narrowing intervals in
/// place and appending a [`Stage::ContextRefine`] classification.
pub fn refine(
    analysis: &ModuleAnalysis,
    reveals: &RevealMap,
    config: &MantaConfig,
    result: &mut InferenceResult,
) {
    match refine_budgeted(
        analysis,
        reveals,
        config,
        result,
        &Budget::unlimited(),
        None,
    ) {
        Ok(()) => {}
        Err(_) => unreachable!("unlimited budget tripped"),
    }
}

/// [`refine`] through the shared refinement driver, under a cooperative
/// budget (one fuel unit per candidate variable plus one per DDG node
/// visited by its forward walk) and with an optional summary memo.
///
/// # Errors
///
/// Returns the tripped limit *before* committing any interval update, so
/// `result` still reflects the previous tier exactly.
pub(crate) fn refine_budgeted(
    analysis: &ModuleAnalysis,
    reveals: &RevealMap,
    config: &MantaConfig,
    result: &mut InferenceResult,
    budget: &Budget,
    memo: Option<&mut ChunkMemo>,
) -> Result<(), BudgetExceeded> {
    refine_stage(
        analysis,
        result,
        Stage::ContextRefine,
        memo,
        |frozen, chunk, fp| {
            let vars = refine_chunk(analysis, reveals, config, frozen, budget, chunk, fp)?;
            Ok((vars, Vec::new()))
        },
    )
}

/// Refines one per-function candidate partition. Fuel is charged exactly
/// as the historical serial loop: one unit per candidate plus the size of
/// its forward walk. With an enabled `fp`, records every function whose
/// data the walks read (the summary memo's reuse precondition).
fn refine_chunk(
    analysis: &ModuleAnalysis,
    reveals: &RevealMap,
    config: &MantaConfig,
    result: &InferenceResult,
    budget: &Budget,
    chunk: Vec<VarRef>,
    fp: &mut Footprint,
) -> Result<Vec<(VarRef, TypeInterval)>, BudgetExceeded> {
    let mut roots_cache: HashMap<VarRef, BTreeSet<NodeId>> = HashMap::new();
    let mut updates: Vec<(VarRef, TypeInterval)> = Vec::new();
    for v in chunk {
        budget.tick()?;
        fp.touch(v.func);
        let roots = find_roots_traced(analysis, result, config, v, &mut roots_cache, fp);
        let mut types: Vec<Type> = Vec::new();
        let mut visited: HashSet<NodeId> = HashSet::new();
        for &root in &roots {
            collect_types(
                analysis,
                reveals,
                result,
                config,
                root,
                &mut CtxStack::new(config.max_ctx_depth),
                &mut visited,
                &mut types,
                fp,
            );
        }
        // Charge the actual walk size so fuel reflects work done, not
        // just candidate count.
        budget.consume(visited.len() as u64)?;
        if !types.is_empty() {
            let mut interval = TypeInterval::unknown();
            for t in &types {
                interval.absorb(t);
            }
            updates.push((v, interval));
        }
    }
    Ok(updates)
}

/// `FIND_ROOTS(v)`: backward CFL-valid traversal to the origins of `v`
/// (Algorithm 1, lines 11–20). Results are memoized in `cache`.
#[cfg(test)]
pub(crate) fn find_roots(
    analysis: &ModuleAnalysis,
    result: &InferenceResult,
    config: &MantaConfig,
    v: VarRef,
    cache: &mut HashMap<VarRef, BTreeSet<NodeId>>,
) -> BTreeSet<NodeId> {
    find_roots_traced(analysis, result, config, v, cache, &mut Footprint::off())
}

/// [`find_roots`] with footprint recording. The memo is only ever shared
/// within one chunk, whose footprint already covers any walk that seeded
/// a memoized entry — so a cache hit needs no additional touches.
pub(crate) fn find_roots_traced(
    analysis: &ModuleAnalysis,
    result: &InferenceResult,
    config: &MantaConfig,
    v: VarRef,
    cache: &mut HashMap<VarRef, BTreeSet<NodeId>>,
    fp: &mut Footprint,
) -> BTreeSet<NodeId> {
    if let Some(r) = cache.get(&v) {
        return r.clone();
    }
    let start = analysis.ddg.node(v);
    let mut roots = BTreeSet::new();
    let mut visited = HashSet::new();
    let mut budget = config.max_visits;
    walk_roots(
        analysis,
        result,
        start,
        &mut CtxStack::new(config.max_ctx_depth),
        &mut visited,
        &mut roots,
        &mut budget,
        fp,
    );
    if roots.is_empty() {
        roots.insert(start);
    }
    cache.insert(v, roots.clone());
    roots
}

#[allow(clippy::too_many_arguments)]
fn walk_roots(
    analysis: &ModuleAnalysis,
    result: &InferenceResult,
    node: NodeId,
    ctx: &mut CtxStack,
    visited: &mut HashSet<NodeId>,
    roots: &mut BTreeSet<NodeId>,
    budget: &mut usize,
    fp: &mut Footprint,
) {
    if !visited.insert(node) || *budget == 0 {
        return;
    }
    *budget -= 1;
    fp.touch(analysis.ddg.var(node).func);
    let mut advanced = false;
    for &(parent, kind) in analysis.ddg.parents(node) {
        if !edge_carries_type(kind) {
            continue;
        }
        if let DepKind::Arith { .. } = kind {
            // The feasibility decision consumed the parent's interval even
            // when it rejects the edge, so the parent's owner is part of
            // the footprint either way.
            fp.touch(analysis.ddg.var(parent).func);
            if !arith_feasible(result, analysis.ddg.var(parent), analysis.ddg.var(node)) {
                continue;
            }
        }
        let op = ctx_op(kind, Direction::Backward);
        if ctx.enter(op) {
            advanced = true;
            walk_roots(analysis, result, parent, ctx, visited, roots, budget, fp);
            ctx.leave(op);
        }
    }
    if !advanced {
        roots.insert(node);
    }
}

/// `COLLECT_TYPES(root)`: forward CFL-valid traversal gathering type
/// annotations (Algorithm 1, lines 21–28).
#[allow(clippy::too_many_arguments)]
fn collect_types(
    analysis: &ModuleAnalysis,
    reveals: &RevealMap,
    result: &InferenceResult,
    config: &MantaConfig,
    node: NodeId,
    ctx: &mut CtxStack,
    visited: &mut HashSet<NodeId>,
    types: &mut Vec<Type>,
    fp: &mut Footprint,
) {
    if !visited.insert(node) || visited.len() > config.max_visits {
        return;
    }
    let v = analysis.ddg.var(node);
    fp.touch(v.func);
    for (_, t) in reveals.of_var(v) {
        types.push(t.clone());
    }
    for &(child, kind) in analysis.ddg.children(node) {
        if !edge_carries_type(kind) {
            continue;
        }
        if let DepKind::Arith { .. } = kind {
            fp.touch(analysis.ddg.var(child).func);
            if !arith_feasible(result, v, analysis.ddg.var(child)) {
                continue;
            }
        }
        let op = ctx_op(kind, Direction::Forward);
        if ctx.enter(op) {
            collect_types(
                analysis, reveals, result, config, child, ctx, visited, types, fp,
            );
            ctx.leave(op);
        }
    }
}

/// Whether an edge transports the *same* value (and hence the same type).
/// `Field` derives an interior pointer, `ExternFlow` may change the type
/// (`atoi`), `Cmp` produces a boolean — none carry the type across.
fn edge_carries_type(kind: DepKind) -> bool {
    matches!(
        kind,
        DepKind::Direct
            | DepKind::Memory(_)
            | DepKind::CallParam(_)
            | DepKind::CallReturn(_)
            | DepKind::Arith { .. }
    )
}

/// Feasibility check at `add`/`sub` edges: the operand and the result can
/// only alias when their currently-known types are compatible.
fn arith_feasible(result: &InferenceResult, operand: VarRef, res: VarRef) -> bool {
    let layer_of = |v: VarRef| -> Option<FirstLayer> {
        match result.var_types.get(&v)?.resolution() {
            Resolution::Precise(t) => Some(FirstLayer::of(&t)),
            _ => None,
        }
    };
    let may_be_ptr = |v: VarRef| match result.var_types.get(&v) {
        None => true,
        Some(i) => {
            i.is_any()
                || i.is_unknown()
                || matches!(
                    FirstLayer::of(&i.upper),
                    FirstLayer::Ptr | FirstLayer::Reg(manta_ir::Width::W64) | FirstLayer::Top
                )
        }
    };
    match (layer_of(operand), layer_of(res)) {
        // Both precisely known: they alias only if the first layers agree.
        (Some(a), Some(b)) => a == b,
        // A precisely numeric operand cannot be the alias source of a
        // possibly-pointer result (it is the offset, not the base).
        (Some(a), None) if a != FirstLayer::Ptr && a.is_concrete() => !may_be_ptr(res),
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Manta, MantaConfig, Sensitivity, VarClass};
    use manta_ir::{BinOp, ModuleBuilder, Width};

    /// The polymorphic-identity scenario: FI over-approximates the result
    /// of `id` in each caller; CS refinement must split the contexts.
    fn polymorphic_module() -> manta_ir::Module {
        let mut mb = ModuleBuilder::new("m");
        let malloc = mb.extern_fn("malloc", &[], None);
        let pd = mb.extern_fn("printf_d", &[], None);
        let ps = mb.extern_fn("printf_s", &[], None);
        let (id_f, mut ib) = mb.function("id", &[Width::W64], Some(Width::W64));
        let x = ib.param(0);
        ib.ret(Some(x));
        mb.finish_function(ib);

        // Caller 1: passes a numeric value, prints the result as %ld.
        let (_c1, mut cb1) = mb.function("use_int", &[Width::W64], None);
        let n = cb1.param(0);
        let n2 = cb1.binop(BinOp::Mul, n, n, Width::W64);
        let r1 = cb1.call(id_f, &[n2], Some(Width::W64)).unwrap();
        let fmt = cb1.alloca(8);
        cb1.call_extern(pd, &[fmt, r1], Some(Width::W32));
        cb1.ret(None);
        mb.finish_function(cb1);

        // Caller 2: passes a heap pointer, prints the result as %s.
        let (_c2, mut cb2) = mb.function("use_ptr", &[], None);
        let k = cb2.const_int(16, Width::W64);
        let buf = cb2.call_extern(malloc, &[k], Some(Width::W64)).unwrap();
        let r2 = cb2.call(id_f, &[buf], Some(Width::W64)).unwrap();
        let fmt = cb2.alloca(8);
        cb2.call_extern(ps, &[fmt, r2], Some(Width::W32));
        cb2.ret(None);
        mb.finish_function(cb2);
        mb.finish()
    }

    #[test]
    fn fi_over_approximates_polymorphic_results() {
        let analysis = manta_analysis::ModuleAnalysis::build(polymorphic_module());
        let r = Manta::new(MantaConfig::with_sensitivity(Sensitivity::Fi)).infer(&analysis);
        let m = analysis.module();
        let c1 = m.function_by_name("use_int").unwrap();
        // r1 = id(n2) — the direct call result (first call inst in c1).
        let r1 = c1
            .insts()
            .find_map(|i| match &i.kind {
                manta_ir::InstKind::Call {
                    dst,
                    callee: manta_ir::Callee::Direct(_),
                    ..
                } => *dst,
                _ => None,
            })
            .unwrap();
        assert_eq!(r.class_of(VarRef::new(c1.id(), r1)), VarClass::Over);
    }

    #[test]
    fn cs_refinement_splits_contexts() {
        let analysis = manta_analysis::ModuleAnalysis::build(polymorphic_module());
        let reveals = RevealMap::collect(&analysis);
        let config = MantaConfig::with_sensitivity(Sensitivity::FiCsFs);
        let mut result = crate::flow_insensitive::run(&analysis, &reveals, config);
        refine(&analysis, &reveals, &config, &mut result);

        let m = analysis.module();
        let c1 = m.function_by_name("use_int").unwrap();
        let c2 = m.function_by_name("use_ptr").unwrap();
        let call_dst = |f: &manta_ir::Function| {
            f.insts()
                .find_map(|i| match &i.kind {
                    manta_ir::InstKind::Call {
                        dst,
                        callee: manta_ir::Callee::Direct(_),
                        ..
                    } => *dst,
                    _ => None,
                })
                .unwrap()
        };
        let r1 = VarRef::new(c1.id(), call_dst(c1));
        let r2 = VarRef::new(c2.id(), call_dst(c2));
        // After context-sensitive refinement, the two call results are
        // precisely typed per their own contexts.
        let t1 = result.var_types[&r1].resolution();
        let t2 = result.var_types[&r2].resolution();
        assert!(
            t1.is_precise(),
            "use_int result should be precise, got {t1:?}"
        );
        assert!(
            t2.is_precise(),
            "use_ptr result should be precise, got {t2:?}"
        );
        let Resolution::Precise(t1) = t1 else {
            unreachable!()
        };
        let Resolution::Precise(t2) = t2 else {
            unreachable!()
        };
        assert!(t1.is_numeric(), "int context inferred {t1}");
        assert!(t2.is_pointer(), "ptr context inferred {t2}");
    }

    #[test]
    fn numeric_operand_of_pointer_add_is_not_a_root_path() {
        // r = base + off where off is precisely numeric: backward traversal
        // from r must not cross into off.
        let mut mb = ModuleBuilder::new("m");
        let malloc = mb.extern_fn("malloc", &[], None);
        let (fid, mut fb) = mb.function("f", &[Width::W64], Some(Width::W64));
        let n = fb.param(0);
        let off = fb.binop(BinOp::Mul, n, n, Width::W64); // precise numeric
        let k = fb.const_int(64, Width::W64);
        let base = fb.call_extern(malloc, &[k], Some(Width::W64)).unwrap();
        let r = fb.binop(BinOp::Add, base, off, Width::W64);
        let x = fb.load(r, Width::W64); // r revealed ptr
        let _ = x;
        fb.ret(Some(r));
        mb.finish_function(fb);
        let analysis = manta_analysis::ModuleAnalysis::build(mb.finish());
        let reveals = RevealMap::collect(&analysis);
        let config = MantaConfig::full();
        let result = crate::flow_insensitive::run(&analysis, &reveals, config);
        let mut cache = HashMap::new();
        let roots = find_roots(&analysis, &result, &config, VarRef::new(fid, r), &mut cache);
        let off_node = analysis.ddg.node(VarRef::new(fid, off));
        assert!(
            !roots.contains(&off_node),
            "numeric offset must not be an alias root"
        );
        let base_roots = find_roots(
            &analysis,
            &result,
            &config,
            VarRef::new(fid, base),
            &mut cache,
        );
        assert!(
            roots.iter().any(|r| base_roots.contains(r)),
            "pointer base must stay on the root path"
        );
    }
}
