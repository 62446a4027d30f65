//! Stage 3: flow-sensitive type refinement (paper §4.2.2, Algorithm 2) and
//! the standalone Manta-FS ablation.
//!
//! For each still-over-approximated variable `v`, the def site and every
//! use site `s` is treated as a distinct variable `v@s`. A backward search
//! on the CFG collects type annotations on *aliases* of `v` that reach `s`
//! in control-flow order; the search stops at the first annotation along a
//! path (a strong update). The collected set becomes `F↑(v@s)`/`F↓(v@s)`.
//!
//! This is the paper's "more aggressive" stage: when **no** hint is
//! CFG-reachable for any site of `v`, the refinement loses the type
//! entirely (`v` becomes unknown) — the phenomenon that makes FI+FS weaker
//! than FI+CS+FS (§6.1, Ablation Analysis; §6.4, Type Refinement Order).

use std::collections::{BTreeSet, HashMap, HashSet};

use manta_analysis::cfl::{CtxOp, CtxStack};
use manta_analysis::{DepKind, ModuleAnalysis, NodeId, VarRef};
use manta_ir::cfg::Cfg;
use manta_ir::{BlockId, FuncId, InstId, Type, ValueKind};
use manta_resilience::{Budget, BudgetExceeded};

use crate::classify;
use crate::ctx_refine::find_roots_traced;
use crate::interval::TypeInterval;
use crate::refine::{refine_stage, ChunkUpdates, Footprint};
use crate::reveal::RevealMap;
use crate::summaries::ChunkMemo;
use crate::{InferenceResult, MantaConfig, Stage};

/// Runs Algorithm 2 over the current `V_O` set and appends a
/// [`Stage::FlowRefine`] classification.
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
/// budget (one fuel unit per candidate variable and one per inspected
/// def/use site) and with an optional summary memo.
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
    let cfgs = Cfgs::new(analysis);
    refine_stage(
        analysis,
        result,
        Stage::FlowRefine,
        memo,
        |frozen, chunk, fp| {
            refine_chunk(analysis, reveals, config, frozen, &cfgs, budget, chunk, fp)
        },
    )
}

/// Runs Algorithm 2 over one per-function candidate partition. Fuel is
/// charged exactly as the historical serial loop: one unit per candidate
/// plus one per inspected def/use site. With an enabled `fp`, records
/// every function whose data the walks read.
#[allow(clippy::too_many_arguments)]
fn refine_chunk(
    analysis: &ModuleAnalysis,
    reveals: &RevealMap,
    config: &MantaConfig,
    result: &InferenceResult,
    cfgs: &Cfgs,
    budget: &Budget,
    chunk: Vec<VarRef>,
    fp: &mut Footprint,
) -> Result<ChunkUpdates, BudgetExceeded> {
    let mut roots_cache: HashMap<VarRef, BTreeSet<NodeId>> = HashMap::new();
    let mut var_updates: Vec<(VarRef, TypeInterval)> = Vec::new();
    let mut site_updates: Vec<((VarRef, InstId), TypeInterval)> = Vec::new();
    for v in chunk {
        budget.tick()?;
        fp.touch(v.func);
        let roots = find_roots_traced(analysis, result, config, v, &mut roots_cache, fp);
        let func = analysis.module().function(v.func);
        // Def site plus each use site (Algorithm 2 line 7).
        let mut site_intervals: Vec<(Option<InstId>, TypeInterval)> = Vec::new();
        let def_site = func.def_inst(v.value);
        let mut sites: Vec<Option<InstId>> = vec![def_site.map(Some).unwrap_or(None)];
        for u in func.users(v.value) {
            sites.push(Some(u));
        }
        sites.dedup();
        for site in sites {
            budget.tick()?;
            let types = reachable_types(
                analysis,
                reveals,
                result,
                config,
                cfgs,
                v.func,
                site,
                &roots,
                &mut roots_cache,
                true,
                fp,
            );
            if types.is_empty() {
                continue;
            }
            let mut interval = TypeInterval::unknown();
            for t in &types {
                interval.absorb(t);
            }
            if let Some(s) = site {
                site_updates.push(((v, s), interval.clone()));
            }
            site_intervals.push((site, interval));
        }
        // Variable-level: prefer the def-site result; otherwise merge all
        // site results; with no reachable hint anywhere the type is lost.
        let def_result = site_intervals
            .iter()
            .find(|(s, _)| *s == def_site)
            .map(|(_, i)| i.clone());
        let var_interval = def_result.unwrap_or_else(|| {
            let mut merged = TypeInterval::unknown();
            for (_, i) in &site_intervals {
                merged.merge(i);
            }
            merged
        });
        // When no hint is CFG-reachable at any site the type is lost: the
        // variable drops back to the unknown sentinel (the aggressive
        // behavior §6.4 attributes to flow-sensitive refinement).
        var_updates.push((v, var_interval));
    }
    Ok((var_updates, site_updates))
}

/// The standalone Manta-FS ablation: flow-sensitive hint collection with
/// strong updates for *every* variable, no global unification, and —
/// matching classic flow-sensitive binary type recovery — no crossing of
/// function boundaries. Aliasing is the intraprocedural copy/memory
/// closure.
pub fn standalone_fs(
    analysis: &ModuleAnalysis,
    reveals: &RevealMap,
    config: &MantaConfig,
) -> InferenceResult {
    match standalone_fs_budgeted(analysis, reveals, config, &Budget::unlimited()) {
        Ok(r) => r,
        Err(_) => unreachable!("unlimited budget tripped"),
    }
}

/// [`standalone_fs`] under a cooperative budget: one fuel unit per DDG
/// node during alias-class construction and one per inspected variable
/// site.
///
/// # Errors
///
/// Returns the tripped limit; no partial result is produced.
pub fn standalone_fs_budgeted(
    analysis: &ModuleAnalysis,
    reveals: &RevealMap,
    config: &MantaConfig,
    budget: &Budget,
) -> Result<InferenceResult, BudgetExceeded> {
    let cfgs = Cfgs::new(analysis);
    let mut result = InferenceResult::empty(*config);
    // Intraprocedural alias classes: values connected by copy/phi or by
    // same-function memory dependencies.
    let mut alias_class: HashMap<VarRef, usize> = HashMap::new();
    {
        let ddg = &analysis.ddg;
        let n = ddg.node_count();
        let mut uf = crate::unify::UnionFind::new(n);
        for idx in 0..n {
            budget.tick()?;
            let node = NodeId(idx as u32);
            let from = ddg.var(node);
            for &(to, kind) in ddg.children(node) {
                let tv = ddg.var(to);
                if tv.func != from.func {
                    continue;
                }
                if matches!(kind, DepKind::Direct | DepKind::Memory(_)) {
                    uf.union(idx, to.index());
                }
            }
        }
        for idx in 0..n {
            let v = analysis.ddg.var(NodeId(idx as u32));
            alias_class.insert(v, uf.find(idx));
        }
    }

    // Each function's variables consult only the (frozen) alias classes and
    // the reveal map, so the per-function site walks fan out across the
    // pool; updates merge back in function order.
    let func_ids: Vec<FuncId> = analysis.module().functions().map(|f| f.id()).collect();
    let alias_ref = &alias_class;
    let cfgs_ref = &cfgs;
    let per_func: Vec<Result<ChunkUpdates, BudgetExceeded>> =
        manta_parallel::par_map(func_ids, |fid| {
            let func = analysis.module().function(fid);
            let mut var_updates: Vec<(VarRef, TypeInterval)> = Vec::new();
            let mut site_updates: Vec<((VarRef, InstId), TypeInterval)> = Vec::new();
            for (value, data) in func.values() {
                if matches!(data.kind, ValueKind::Const(_)) {
                    continue;
                }
                let v = VarRef::new(fid, value);
                let class = alias_ref[&v];
                let def_site = func.def_inst(value);
                let mut sites: Vec<Option<InstId>> = vec![def_site.map(Some).unwrap_or(None)];
                for u in func.users(value) {
                    sites.push(Some(u));
                }
                sites.dedup();
                let mut var_interval: Option<TypeInterval> = None;
                for site in sites {
                    budget.tick()?;
                    let types = reachable_types_with_alias(
                        analysis,
                        reveals,
                        config,
                        cfgs_ref,
                        v.func,
                        site,
                        &|u| alias_ref.get(&u) == Some(&class),
                        false,
                    );
                    if types.is_empty() {
                        continue;
                    }
                    let mut interval = TypeInterval::unknown();
                    for t in &types {
                        interval.absorb(t);
                    }
                    if let Some(s) = site {
                        site_updates.push(((v, s), interval.clone()));
                    }
                    match (
                        &mut var_interval,
                        site == def_site.map(Some).unwrap_or(None),
                    ) {
                        (_, true) => var_interval = Some(interval),
                        (Some(existing), false) => existing.merge(&interval),
                        (None, false) => var_interval = Some(interval),
                    }
                }
                if let Some(i) = var_interval {
                    var_updates.push((v, i));
                }
            }
            Ok((var_updates, site_updates))
        });
    for chunk in per_func {
        let (vars, sites) = chunk?;
        for (v, i) in vars {
            result.var_types.insert(v, i);
        }
        for (k, i) in sites {
            result.site_types.insert(k, i);
        }
    }
    let counts = classify::classify(analysis, &mut result);
    result.stage_counts.push((Stage::StandaloneFs, counts));
    Ok(result)
}

/// Per-function CFGs plus block/instruction position indexes.
struct Cfgs {
    cfg: Vec<Cfg>,
    /// For each function: inst id → (block, index in block).
    positions: Vec<HashMap<InstId, (BlockId, usize)>>,
}

impl Cfgs {
    fn new(analysis: &ModuleAnalysis) -> Cfgs {
        let mut cfg = Vec::new();
        let mut positions = Vec::new();
        for f in analysis.module().functions() {
            cfg.push(Cfg::new(f));
            let mut pos = HashMap::new();
            for b in f.blocks() {
                for (i, &inst) in b.insts.iter().enumerate() {
                    pos.insert(inst, (b.id, i));
                }
            }
            positions.push(pos);
        }
        Cfgs { cfg, positions }
    }
}

/// `REACHABLE_TYPES(s, roots)` with DDG-root aliasing (Algorithm 2,
/// lines 12–23).
#[allow(clippy::too_many_arguments)]
fn reachable_types(
    analysis: &ModuleAnalysis,
    reveals: &RevealMap,
    result: &InferenceResult,
    config: &MantaConfig,
    cfgs: &Cfgs,
    func: FuncId,
    site: Option<InstId>,
    roots: &BTreeSet<NodeId>,
    roots_cache: &mut HashMap<VarRef, BTreeSet<NodeId>>,
    cross_callers: bool,
    fp: &mut Footprint,
) -> Vec<Type> {
    // The alias check of line 14: FIND_ROOTS(u) ∩ roots ≠ ∅. Pre-resolving
    // per queried variable via the shared memoized cache. The walker keeps
    // its own footprint accumulator (the alias closure already borrows
    // `fp` mutably) which is folded back in after the walk.
    let mut alias_memo: HashMap<VarRef, bool> = HashMap::new();
    let mut walker = Walker {
        analysis,
        reveals,
        config,
        cfgs,
        out: Vec::new(),
        memo: HashMap::new(),
        active: HashSet::new(),
        budget: config.max_visits,
        cross_callers,
        fp: Footprint::like(fp),
    };
    let mut is_alias = |u: VarRef, roots_cache: &mut HashMap<VarRef, BTreeSet<NodeId>>| -> bool {
        if let Some(&b) = alias_memo.get(&u) {
            return b;
        }
        let ur = find_roots_traced(analysis, result, config, u, roots_cache, fp);
        let b = ur.iter().any(|r| roots.contains(r));
        alias_memo.insert(u, b);
        b
    };
    // Bridge the two mutable borrows through a small closure enum.
    let mut alias_fn = |u: VarRef| is_alias(u, roots_cache);
    walker.start(func, site, &mut alias_fn);
    fp.absorb(walker.fp);
    walker.out
}

/// `REACHABLE_TYPES` with an arbitrary alias predicate (used by the
/// standalone FS mode).
#[allow(clippy::too_many_arguments)]
fn reachable_types_with_alias(
    analysis: &ModuleAnalysis,
    reveals: &RevealMap,
    config: &MantaConfig,
    cfgs: &Cfgs,
    func: FuncId,
    site: Option<InstId>,
    alias: &dyn Fn(VarRef) -> bool,
    cross_callers: bool,
) -> Vec<Type> {
    let mut walker = Walker {
        analysis,
        reveals,
        config,
        cfgs,
        out: Vec::new(),
        memo: HashMap::new(),
        active: HashSet::new(),
        budget: config.max_visits,
        cross_callers,
        fp: Footprint::off(),
    };
    let mut alias_fn = |u: VarRef| alias(u);
    walker.start(func, site, &mut alias_fn);
    walker.out
}

struct Walker<'a> {
    analysis: &'a ModuleAnalysis,
    reveals: &'a RevealMap,
    config: &'a MantaConfig,
    cfgs: &'a Cfgs,
    out: Vec<Type>,
    /// Memoized whole-block results: the types collectible scanning
    /// backward from the end of a block (first reveal per path).
    memo: HashMap<(FuncId, BlockId), Vec<Type>>,
    /// Blocks currently on the recursion stack (cycle guard; CFGs are
    /// acyclic after preprocessing, but caller crossings could revisit).
    active: HashSet<(FuncId, BlockId)>,
    budget: usize,
    cross_callers: bool,
    /// Functions whose blocks or caller lists this walk consulted.
    fp: Footprint,
}

impl<'a> Walker<'a> {
    /// Starts the backward walk at `site` (or at the function entry when
    /// `site` is `None` — the def site of a parameter).
    fn start(&mut self, func: FuncId, site: Option<InstId>, alias: &mut dyn FnMut(VarRef) -> bool) {
        let types = match site {
            Some(s) => {
                let (block, idx) = self.cfgs.positions[func.index()][&s];
                let mut ctx = CtxStack::new(self.config.max_ctx_depth);
                self.scan_block(func, block, Some(idx), &mut ctx, alias)
            }
            None => {
                let mut ctx = CtxStack::new(self.config.max_ctx_depth);
                self.cross_to_callers(func, &mut ctx, alias)
            }
        };
        self.out = types;
    }

    /// Collects the set of first-reveals along every backward path from the
    /// given position. Whole-block scans are memoized per `(func, block)`.
    fn scan_block(
        &mut self,
        func: FuncId,
        block: BlockId,
        from_idx: Option<usize>,
        ctx: &mut CtxStack,
        alias: &mut dyn FnMut(VarRef) -> bool,
    ) -> Vec<Type> {
        if from_idx.is_none() {
            if let Some(cached) = self.memo.get(&(func, block)) {
                return cached.clone();
            }
            if !self.active.insert((func, block)) || self.budget == 0 {
                return Vec::new();
            }
        }
        if self.budget > 0 {
            self.budget -= 1;
        } else {
            if from_idx.is_none() {
                self.active.remove(&(func, block));
            }
            return Vec::new();
        }
        self.fp.touch(func);
        let f = self.analysis.module().function(func);
        let b = f.block(block);
        let mut result: Option<Vec<Type>> = None;
        let start = match from_idx {
            Some(i) => Some(i),
            None if b.insts.is_empty() => None,
            None => Some(b.insts.len() - 1),
        };
        if let Some(start) = start {
            for pos in (0..=start).rev() {
                let inst = f.inst(b.insts[pos]);
                // Line 13: operands of s plus s's own definition.
                let mut candidates = inst.kind.uses();
                if let Some(d) = inst.kind.def() {
                    candidates.push(d);
                }
                candidates.dedup();
                let mut here: Vec<Type> = Vec::new();
                for u in candidates {
                    let uv = VarRef::new(func, u);
                    if let Some(t) = self.reveals.at_site(uv, inst.id) {
                        if alias(uv) {
                            here.push(t.clone());
                        }
                    }
                }
                if !here.is_empty() {
                    result.get_or_insert_with(Vec::new).extend(here);
                    // Strong update at instruction granularity: annotations
                    // here kill older hints along this path (lines 15-16);
                    // all aliases annotated at the *same* instruction
                    // contribute.
                    if self.config.strong_updates {
                        break;
                    }
                }
            }
        }
        let types = match (result, self.config.strong_updates) {
            (Some(tys), true) => tys,
            (found, _) => {
                let mut tys = found.unwrap_or_default();
                tys.extend(self.continue_upward(func, block, ctx, alias));
                tys
            }
        };
        if from_idx.is_none() {
            self.active.remove(&(func, block));
            self.memo.insert((func, block), types.clone());
        }
        types
    }

    fn continue_upward(
        &mut self,
        func: FuncId,
        block: BlockId,
        ctx: &mut CtxStack,
        alias: &mut dyn FnMut(VarRef) -> bool,
    ) -> Vec<Type> {
        let cfg = &self.cfgs.cfg[func.index()];
        let preds = cfg.preds(block).to_vec();
        if preds.is_empty() {
            if block == cfg.entry() && self.cross_callers {
                return self.cross_to_callers(func, ctx, alias);
            }
            return Vec::new();
        }
        let mut out = Vec::new();
        for p in preds {
            out.extend(self.scan_block(func, p, None, ctx, alias));
        }
        out
    }

    /// Crossing a function entry backward lands just above each call site
    /// (line 18's `CFG.parents` at entry), popping the context.
    fn cross_to_callers(
        &mut self,
        func: FuncId,
        ctx: &mut CtxStack,
        alias: &mut dyn FnMut(VarRef) -> bool,
    ) -> Vec<Type> {
        // The caller list is part of `func`'s call-graph adjacency, which
        // its input fingerprint covers — so consulting it (even when
        // empty) makes `func` part of the footprint.
        self.fp.touch(func);
        let callers = self.analysis.callgraph.callers(func).to_vec();
        let mut out = Vec::new();
        for edge in callers {
            let cs = manta_analysis::CallSite {
                caller: edge.caller,
                site: edge.site,
            };
            let op = CtxOp::Pop(cs);
            if ctx.enter(op) {
                let (block, idx) = self.cfgs.positions[edge.caller.index()][&edge.site];
                out.extend(self.scan_block(edge.caller, block, Some(idx), ctx, alias));
                ctx.leave(op);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::Resolution;
    use crate::{Manta, MantaConfig, Sensitivity, VarClass};
    use manta_ir::{ModuleBuilder, Width};

    /// The Figure 3 union scenario: one stack slot holds an int on one
    /// branch and a char* on the other; each branch reveals the type it
    /// instantiates.
    fn union_module() -> manta_ir::Module {
        let mut mb = ModuleBuilder::new("m");
        let pd = mb.extern_fn("printf_d", &[], None);
        let ps = mb.extern_fn("printf_s", &[], None);
        let malloc = mb.extern_fn("malloc", &[], None);
        let (_, mut fb) = mb.function("f", &[Width::W64, Width::W1], None);
        let x = fb.param(0);
        let c = fb.param(1);
        let slot = fb.alloca(8);
        let bb_i = fb.new_block();
        let bb_p = fb.new_block();
        let bb_j = fb.new_block();
        fb.cond_br(c, bb_i, bb_p);
        // Int branch: store x, reload, print as %ld.
        fb.switch_to(bb_i);
        fb.store(slot, x);
        let vi = fb.load(slot, Width::W64);
        let fmt1 = fb.alloca(8);
        fb.call_extern(pd, &[fmt1, vi], Some(Width::W32));
        fb.br(bb_j);
        // Ptr branch: store a heap pointer, reload, print as %s.
        fb.switch_to(bb_p);
        let k = fb.const_int(32, Width::W64);
        let buf = fb.call_extern(malloc, &[k], Some(Width::W64)).unwrap();
        fb.store(slot, buf);
        let vp = fb.load(slot, Width::W64);
        let fmt2 = fb.alloca(8);
        fb.call_extern(ps, &[fmt2, vp], Some(Width::W32));
        fb.br(bb_j);
        fb.switch_to(bb_j);
        fb.ret(None);
        mb.finish_function(fb);
        mb.finish()
    }

    fn loaded_values(analysis: &manta_analysis::ModuleAnalysis) -> Vec<(VarRef, InstId)> {
        let f = analysis.module().function_by_name("f").unwrap();
        f.insts()
            .filter_map(|i| match i.kind {
                manta_ir::InstKind::Load { dst, .. } => Some((VarRef::new(f.id(), dst), i.id)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn fi_merges_union_branches() {
        let analysis = manta_analysis::ModuleAnalysis::build(union_module());
        let r = Manta::new(MantaConfig::with_sensitivity(Sensitivity::Fi)).infer(&analysis);
        for (v, _) in loaded_values(&analysis) {
            assert_eq!(r.class_of(v), VarClass::Over, "{v} should merge int+ptr");
        }
    }

    #[test]
    fn flow_refinement_recovers_per_branch_types() {
        // The full cascade must type the int-branch load as numeric and the
        // ptr-branch load as a pointer (Example 4.2).
        let analysis = manta_analysis::ModuleAnalysis::build(union_module());
        let r = Manta::new(MantaConfig::with_sensitivity(Sensitivity::FiCsFs)).infer(&analysis);
        let loads = loaded_values(&analysis);
        assert_eq!(loads.len(), 2);
        let (vi, _si) = loads[0];
        let (vp, _sp) = loads[1];
        let ti = r.interval(vi).unwrap().resolution();
        let tp = r.interval(vp).unwrap().resolution();
        let Resolution::Precise(ti) = ti else {
            panic!("int-branch load not precise: {ti:?}")
        };
        let Resolution::Precise(tp) = tp else {
            panic!("ptr-branch load not precise: {tp:?}")
        };
        assert!(ti.is_numeric(), "int branch inferred {ti}");
        assert!(tp.is_pointer(), "ptr branch inferred {tp}");
    }

    #[test]
    fn standalone_fs_leaves_unhinted_vars_unknown() {
        // A parameter whose only hint lives in its caller is invisible to
        // the intraprocedural standalone FS.
        let mut mb = ModuleBuilder::new("m");
        let malloc = mb.extern_fn("malloc", &[], None);
        let (callee, mut cb) = mb.function("sink2", &[Width::W64], None);
        let p = cb.param(0);
        let q = cb.copy(p); // uses exist, but reveal nothing
        let _ = q;
        cb.ret(None);
        mb.finish_function(cb);
        let (_caller, mut fb) = mb.function("caller", &[], None);
        let k = fb.const_int(8, Width::W64);
        let buf = fb.call_extern(malloc, &[k], Some(Width::W64)).unwrap();
        fb.call(callee, &[buf], None);
        fb.ret(None);
        mb.finish_function(fb);
        let analysis = manta_analysis::ModuleAnalysis::build(mb.finish());
        let fs = Manta::new(MantaConfig::with_sensitivity(Sensitivity::Fs)).infer(&analysis);
        let callee = analysis.module().function_by_name("sink2").unwrap();
        let pv = VarRef::new(callee.id(), callee.params()[0]);
        assert_eq!(fs.class_of(pv), VarClass::Unknown);
        // FI sees the interprocedural unification and types it.
        let fi = Manta::new(MantaConfig::with_sensitivity(Sensitivity::Fi)).infer(&analysis);
        assert_eq!(fi.class_of(pv), VarClass::Precise);
    }

    #[test]
    fn standalone_fs_types_locally_revealed_vars() {
        let mut mb = ModuleBuilder::new("m");
        let (fid, mut fb) = mb.function("f", &[Width::W64], Some(Width::W64));
        let p = fb.param(0);
        let v = fb.load(p, Width::W64); // p revealed ptr at its use
        fb.ret(Some(v));
        mb.finish_function(fb);
        let analysis = manta_analysis::ModuleAnalysis::build(mb.finish());
        let fs = Manta::new(MantaConfig::with_sensitivity(Sensitivity::Fs)).infer(&analysis);
        let pv = VarRef::new(fid, p);
        assert_eq!(fs.class_of(pv), VarClass::Precise);
        assert!(matches!(fs.precise_type(pv), Some(t) if t.is_pointer()));
    }

    #[test]
    fn site_types_differ_across_branches() {
        let analysis = manta_analysis::ModuleAnalysis::build(union_module());
        let r = Manta::new(MantaConfig::with_sensitivity(Sensitivity::FiCsFs)).infer(&analysis);
        // The two printf call sites see the same stack slot with different
        // per-site types via interval_at.
        let loads = loaded_values(&analysis);
        let (vi, si) = loads[0];
        let (vp, sp) = loads[1];
        let at_i = r.interval_at(vi, si).unwrap().clone();
        let at_p = r.interval_at(vp, sp).unwrap().clone();
        assert_ne!(at_i, at_p);
    }
}
