//! The pipeline as calls into the program's public API: the engine path
//! the end-to-end numbers time, the same work as one call per layer for
//! the traced run, and the checks and ground-truth scores applied to the
//! verdicts of both.

use std::collections::BTreeMap;

use manta::cache::encode_result;
use manta::classify::over_approximated;
use manta::{ctx_refine, flow_insensitive, flow_refine};
use manta::{Engine, InferenceResult, MantaConfig, RevealMap, TypeQuery};
use manta_analysis::{
    preprocess, CallGraph, Ddg, ModuleAnalysis, PointsTo, PreprocessConfig, VarRef,
};
use manta_clients::{
    detect_bugs, indirect_call_sites, resolve_targets_manta, BugKind, BugReport, CheckerConfig,
    IndirectCall,
};
use manta_eval::metrics::{score_bug_reports, score_params, BugScore, IcallScore, PrScore};
use manta_ir::{Frontend, FuncId, Module};
use manta_store::Fingerprint;

use crate::inputs::{Input, Unit};
use crate::report::Outcome;
use crate::trace::Tracer;

/// The inference configuration every workload runs: the full FI → CS →
/// FS cascade.
pub fn config() -> MantaConfig {
    MantaConfig::full()
}

/// Everything one module produced, from types to client verdicts.
pub struct Verdicts {
    /// The substrate the verdicts were computed over.
    pub analysis: ModuleAnalysis,
    /// Inferred types.
    pub result: InferenceResult,
    /// Reports of all five checkers.
    pub reports: Vec<BugReport>,
    /// Slicer node visits spent by the checkers.
    pub visits: usize,
    /// Each indirect call site with the targets kept for it.
    pub icalls: Vec<(IndirectCall, Vec<FuncId>)>,
}

/// The frontend layer an input enters through.
pub fn frontend_layer(input: &Input) -> &'static str {
    match input {
        Input::X86(_) => "x86.lift",
        Input::Ir(_) => "ir.parse",
        Input::Asm(_) => "isa.asm_lift",
    }
}

/// Bytes or text to an IR module, through the frontend for its encoding.
pub fn lift(input: &Input) -> Result<Module, String> {
    match input {
        Input::X86(bytes) => manta_x86::X86Frontend
            .lift_bytes(bytes)
            .map_err(|e| format!("x86 lift: {e}")),
        Input::Ir(text) => {
            manta_ir::parser::parse_module(text).map_err(|e| format!("IR parse: {e}"))
        }
        Input::Asm(text) => {
            let image = manta_isa::assemble(text).map_err(|e| format!("assemble: {e}"))?;
            manta_isa::lift::lift(&image).map_err(|e| format!("SB lift: {e}"))
        }
    }
}

fn checkers(analysis: &ModuleAnalysis, result: &InferenceResult) -> (Vec<BugReport>, usize) {
    detect_bugs(
        analysis,
        Some(result),
        &BugKind::ALL,
        CheckerConfig::default(),
    )
}

fn icalls(analysis: &ModuleAnalysis, result: &InferenceResult) -> Vec<(IndirectCall, Vec<FuncId>)> {
    indirect_call_sites(analysis)
        .into_iter()
        .map(|site| {
            let kept = resolve_targets_manta(analysis, result, &site);
            (site, kept)
        })
        .collect()
}

/// Bytes to verdicts the way a caller of the library runs them: lift,
/// `Engine::analyze_module`, then the checkers and icall resolution.
pub fn run_engine(engine: &Engine, input: &Input) -> Result<Verdicts, String> {
    let module = lift(input)?;
    let (analysis, result) = engine
        .analyze_module(module)
        .map_err(|e| format!("analyze: {e}"))?;
    if result.is_degraded() {
        return Err(format!("degraded: {:?}", result.degradations));
    }
    let (reports, visits) = checkers(&analysis, &result);
    let icalls = icalls(&analysis, &result);
    Ok(Verdicts {
        analysis,
        result,
        reports,
        visits,
        icalls,
    })
}

/// Work counts gathered at the layer boundaries of traced passes.
#[derive(Default)]
pub struct Counts {
    ddg_edges: usize,
    pts_max: usize,
    reveal_sites: usize,
    over_fi: usize,
    over_cs: usize,
    over_fs: usize,
    slicer_visits: usize,
    reports: usize,
    icall_sites: usize,
    icall_kept: usize,
    icall_candidates: usize,
}

impl Counts {
    /// Records the counts of one traced pass.
    pub fn report(&self, out: &mut Outcome) {
        let ratio = |num: usize, den: usize| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        out.set("analysis.ddg_edges", self.ddg_edges as f64);
        out.set("analysis.pts_max", self.pts_max as f64);
        out.set("manta.reveal_sites", self.reveal_sites as f64);
        out.set("manta.over_after_fi", self.over_fi as f64);
        out.set("manta.over_after_cs", self.over_cs as f64);
        out.set("manta.over_after_fs", self.over_fs as f64);
        out.set(
            "manta.fs_resolved_ratio",
            ratio(self.over_cs.saturating_sub(self.over_fs), self.over_cs),
        );
        out.set("clients.slicer_visits", self.slicer_visits as f64);
        out.set("clients.reports", self.reports as f64);
        out.set("clients.icall_sites", self.icall_sites as f64);
        out.set(
            "clients.icall_kept_ratio",
            ratio(self.icall_kept, self.icall_candidates),
        );
    }
}

/// Preprocess → call graph → points-to → DDG, one span each.
pub fn traced_substrate(
    tracer: &mut Tracer,
    root: usize,
    module: Module,
    counts: &mut Counts,
) -> ModuleAnalysis {
    let pre = tracer.layer(root, "analysis.preprocess", || {
        preprocess(module, PreprocessConfig::default())
    });
    let callgraph = tracer.layer(root, "analysis.callgraph", || CallGraph::build(&pre));
    let pointsto = tracer.layer(root, "analysis.pointsto", || {
        PointsTo::solve(&pre, &callgraph)
    });
    let ddg = tracer.layer(root, "analysis.ddg", || Ddg::build(&pre, &pointsto));
    counts.ddg_edges += ddg.edge_count();
    counts.pts_max = counts.pts_max.max(pointsto.max_pts_len());
    ModuleAnalysis {
        pre,
        callgraph,
        pointsto,
        ddg,
    }
}

/// Reveal → FI → CS → FS, one span each, counting the variables still
/// over-approximated after each tier.
pub fn traced_infer(
    tracer: &mut Tracer,
    root: usize,
    analysis: &ModuleAnalysis,
    counts: &mut Counts,
) -> InferenceResult {
    let config = config();
    let reveals = tracer.layer(root, "manta.reveal", || RevealMap::collect(analysis));
    counts.reveal_sites += reveals.len();
    let mut result = tracer.layer(root, "manta.fi", || {
        flow_insensitive::run(analysis, &reveals, config)
    });
    counts.over_fi += over_approximated(analysis, &result).len();
    tracer.layer(root, "manta.cs", || {
        ctx_refine::refine(analysis, &reveals, &config, &mut result)
    });
    counts.over_cs += over_approximated(analysis, &result).len();
    tracer.layer(root, "manta.fs", || {
        flow_refine::refine(analysis, &reveals, &config, &mut result)
    });
    counts.over_fs += over_approximated(analysis, &result).len();
    result.config = config;
    result
}

/// The work of [`run_engine`] as one traced call per layer.
pub fn run_traced(
    tracer: &mut Tracer,
    root: usize,
    input: &Input,
    counts: &mut Counts,
) -> Result<Verdicts, String> {
    let module = tracer.layer(root, frontend_layer(input), || lift(input))?;
    let analysis = traced_substrate(tracer, root, module, counts);
    let result = traced_infer(tracer, root, &analysis, counts);
    let (reports, visits) = tracer.layer(root, "clients.checkers", || checkers(&analysis, &result));
    let icalls = tracer.layer(root, "clients.icall", || icalls(&analysis, &result));
    counts.slicer_visits += visits;
    counts.reports += reports.len();
    counts.icall_sites += icalls.len();
    let candidates = analysis.module().address_taken_functions().len();
    for (_, kept) in &icalls {
        counts.icall_kept += kept.len();
        counts.icall_candidates += candidates;
    }
    Ok(Verdicts {
        analysis,
        result,
        reports,
        visits,
        icalls,
    })
}

/// A digest of every verdict: the canonical result encoding, the
/// reports and the kept icall targets.
pub fn digest(v: &Verdicts) -> u64 {
    let mut fp = Fingerprint::new();
    fp.write(&encode_result(&v.result)).write_usize(v.visits);
    for r in &v.reports {
        fp.write_str(r.kind.label())
            .write_usize(r.func.index())
            .write_usize(r.sink_site.index());
    }
    for (site, kept) in &v.icalls {
        fp.write_usize(site.site.index()).write_usize(kept.len());
        for f in kept {
            fp.write_usize(f.index());
        }
    }
    fp.finish()
}

/// Instructions in an x86 image, decoded function by function.
pub fn x86_insts(bytes: &[u8]) -> usize {
    let Ok(image) = manta_x86::decode_image(bytes) else {
        return 0;
    };
    image
        .functions
        .iter()
        .filter_map(|f| {
            let start = f.offset as usize;
            let body = image.text.get(start..start + f.len as usize)?;
            manta_x86::decode::decode_all(body)
                .ok()
                .map(|insts| insts.len())
        })
        .sum()
}

/// Ground-truth scores of one or more modules' verdicts.
#[derive(Clone, Copy, Default, PartialEq)]
pub struct Quality {
    types: PrScore,
    icall: IcallScore,
    bugs: BugScore,
    bug_truth: bool,
}

impl Quality {
    /// Scores `v` against `unit`'s ground truth with the evaluation's
    /// own metric functions.
    pub fn score(unit: &Unit, v: &Verdicts) -> Quality {
        let module = v.analysis.module();
        let name = |f: FuncId| module.function(f).name().to_string();
        let types = score_params(&v.analysis, &unit.truth, |f, i| {
            let param = *module.function(f).params().get(i)?;
            v.result.var_interval(VarRef::new(f, param)).cloned()
        });
        // Sites match truth by ordinal within their host function.
        let at_count = module.address_taken_functions().len();
        let mut ordinal: BTreeMap<FuncId, usize> = BTreeMap::new();
        let mut icall = IcallScore::default();
        for (site, kept) in &v.icalls {
            let slot = ordinal.entry(site.func).or_insert(0);
            let ord = *slot;
            *slot += 1;
            if let Some(gt) = unit.truth.icall_targets.get(&(name(site.func), ord)) {
                let kept: Vec<String> = kept.iter().map(|&f| name(f)).collect();
                icall.add_site(&kept, gt, at_count);
            }
        }
        let pairs: Vec<(BugKind, String)> =
            v.reports.iter().map(|r| (r.kind, name(r.func))).collect();
        Quality {
            types,
            icall,
            bugs: score_bug_reports(&pairs, &unit.truth),
            bug_truth: !unit.truth.bugs.is_empty(),
        }
    }

    /// Adds another module's scores.
    pub fn merge(&mut self, other: &Quality) {
        self.types.merge(other.types);
        self.icall.sites += other.icall.sites;
        self.icall.targets_sum += other.icall.targets_sum;
        self.icall.gt_sum += other.icall.gt_sum;
        self.icall.precision_sum += other.icall.precision_sum;
        self.icall.recall_sum += other.icall.recall_sum;
        if other.bug_truth {
            self.bugs.merge(other.bugs);
            self.bug_truth = true;
        }
    }

    /// Records the quality metrics. A family whose ground truth the
    /// workload does not generate (parameter types on firmware, icall
    /// targets outside the projects, injected bugs outside the firmware)
    /// has nothing to get wrong and reads 1.
    pub fn report(&self, out: &mut Outcome) {
        let (tp, tr) = if self.types.total > 0 {
            (self.types.precision() / 100.0, self.types.recall() / 100.0)
        } else {
            (1.0, 1.0)
        };
        out.set("type_precision", tp);
        out.set("type_recall", tr);
        let (ip, ir) = if self.icall.sites > 0 {
            (self.icall.precision() / 100.0, self.icall.recall() / 100.0)
        } else {
            (1.0, 1.0)
        };
        out.set("icall_precision", ip);
        out.set("icall_recall", ir);
        let (bp, br) = if self.bug_truth {
            (self.bugs.precision(), self.bugs.recall())
        } else {
            (1.0, 1.0)
        };
        out.set("bug_precision", bp);
        out.set("bug_recall", br);
    }
}
