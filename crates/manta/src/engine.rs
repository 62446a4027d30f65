//! The staged inference engine: one orchestration path for every way of
//! running Manta.
//!
//! Four cross-cutting features (telemetry, resilience, parallelism,
//! caching) each used to add its own `infer_*` entrypoint, leaving the
//! driver logic — spans, budgets, panic isolation, cache keying,
//! degradation records — re-implemented per variant. This module folds
//! the matrix back into two pieces:
//!
//! * [`Stage`] — one inference pass (reveal, FI, CS or FS) with a name,
//!   a fault/isolation site, and a completed-tier label. Stages know
//!   *what* to compute, nothing about budgets, spans, faults, or
//!   caching.
//! * [`Engine`] — the driver. Built once via [`EngineBuilder`] from a
//!   [`MantaConfig`], a [`BudgetSpec`], a strictness flag, the
//!   provenance and summary switches, and an optional [`AnalysisCache`],
//!   it applies every cross-cutting concern exactly once, in one loop,
//!   for every stage.
//!
//! [`Engine::build_substrate`] builds the analysis substrate
//! (preprocess → call graph → points-to → DDG), which instruments and
//! guards its own sub-passes; [`Engine::analyze`] is the one entry for
//! plain, budgeted, strict and cached inference over it.

use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

use manta_analysis::ModuleAnalysis;
use manta_ir::Module;
use manta_resilience::{
    fault_point_budgeted, isolate, plan_active, Budget, BudgetExceeded, BudgetSpec, Degradation,
    DegradationKind, MantaError,
};
use manta_store::{Key, StoreError};

use crate::cache::{config_hash, encode_result, module_fingerprint, AnalysisCache};
use crate::provenance::ProvenanceGraph;
use crate::summaries::{self, ChunkMemo};
use crate::{
    ctx_refine, flow_insensitive, flow_refine, reveal, InferenceResult, MantaConfig, Sensitivity,
};

// ---------------------------------------------------------------------
// Stage context
// ---------------------------------------------------------------------

/// Everything a [`Stage`] may read or write while it runs: the analysis
/// substrate, the reveal map, the evolving [`InferenceResult`], and —
/// in summary mode — the chunk memo the refinement stages consult.
pub struct StageCtx<'a> {
    config: MantaConfig,
    budget: &'a Budget,
    analysis: &'a ModuleAnalysis,
    reveals: Option<reveal::RevealMap>,
    result: InferenceResult,
    memo: Option<&'a mut ChunkMemo>,
}

impl<'a> StageCtx<'a> {
    fn over(
        analysis: &'a ModuleAnalysis,
        config: MantaConfig,
        budget: &'a Budget,
        memo: Option<&'a mut ChunkMemo>,
    ) -> StageCtx<'a> {
        StageCtx {
            config,
            budget,
            analysis,
            reveals: None,
            result: InferenceResult::empty(config),
            memo,
        }
    }

    /// The inference configuration in effect.
    pub fn config(&self) -> &MantaConfig {
        &self.config
    }

    /// The cooperative budget every stage ticks against.
    pub fn budget(&self) -> &Budget {
        self.budget
    }

    /// The analysis substrate.
    pub fn analysis(&self) -> &ModuleAnalysis {
        self.analysis
    }

    /// The reveal map (panics if the reveal stage has not run).
    pub fn reveals(&self) -> &reveal::RevealMap {
        self.reveals.as_ref().expect("reveal stage has not run yet")
    }

    /// The evolving inference result.
    pub fn result(&self) -> &InferenceResult {
        &self.result
    }

    /// Mutable access for refinement stages.
    pub fn result_mut(&mut self) -> &mut InferenceResult {
        &mut self.result
    }
}

// ---------------------------------------------------------------------
// Stages
// ---------------------------------------------------------------------

/// One pass of the inference cascade, registered with the [`Engine`]
/// driver.
///
/// Implementations carry no resilience or telemetry logic of their own:
/// the driver opens the span, arms the fault point, isolates panics,
/// snapshots the result for rollback, and records degradations — once,
/// identically, for every stage.
pub trait Stage: Sync {
    /// Span name under the `infer` root (e.g. `"fi"`).
    fn name(&self) -> &'static str;

    /// Fault-injection / panic-isolation site and the `stage` label on
    /// any [`Degradation`] this stage causes (e.g. `"infer.fi"`).
    fn site(&self) -> &'static str;

    /// The completed-tier label this stage contributes on success:
    /// base tiers return `"FI"` / `"FS"`, refinements `"+CS"` / `"+FS"`,
    /// the reveal stage (outside the precision cascade) `None`.
    fn tier(&self) -> Option<&'static str> {
        None
    }

    /// Runs the pass, reading and writing through `ctx`.
    ///
    /// # Errors
    ///
    /// Budget exhaustion surfaces as [`MantaError`]; panics are caught
    /// by the driver.
    fn run(&self, ctx: &mut StageCtx<'_>) -> Result<(), MantaError>;
}

/// Converts a blown per-stage budget into a [`MantaError`], bumping the
/// `resilience.budget_exhausted` counter exactly once.
fn budget_error(site: &'static str, e: BudgetExceeded) -> MantaError {
    manta_resilience::budget_exhausted(site);
    MantaError::Budget {
        stage: site.to_string(),
        kind: e.kind,
    }
}

/// Collects type-revealing instructions (paper §4.1, Table 1 sources).
struct RevealStage;

impl Stage for RevealStage {
    fn name(&self) -> &'static str {
        "reveal"
    }

    fn site(&self) -> &'static str {
        "infer.reveal"
    }

    fn run(&self, ctx: &mut StageCtx<'_>) -> Result<(), MantaError> {
        ctx.reveals = Some(reveal::RevealMap::collect(ctx.analysis()));
        Ok(())
    }
}

/// Global flow-insensitive unification — the FI base tier.
struct FiStage;

impl Stage for FiStage {
    fn name(&self) -> &'static str {
        "fi"
    }

    fn site(&self) -> &'static str {
        "infer.fi"
    }

    fn tier(&self) -> Option<&'static str> {
        Some("FI")
    }

    fn run(&self, ctx: &mut StageCtx<'_>) -> Result<(), MantaError> {
        let mut r =
            flow_insensitive::run_budgeted(ctx.analysis(), ctx.reveals(), ctx.config, ctx.budget)
                .map_err(|e| budget_error(self.site(), e))?;
        r.config = ctx.config;
        ctx.result = r;
        Ok(())
    }
}

/// Standalone flow-sensitive inference — the FS base tier
/// ([`Sensitivity::Fs`]), no global unification at all.
struct StandaloneFsStage;

impl Stage for StandaloneFsStage {
    fn name(&self) -> &'static str {
        "fs"
    }

    fn site(&self) -> &'static str {
        "infer.fs"
    }

    fn tier(&self) -> Option<&'static str> {
        Some("FS")
    }

    fn run(&self, ctx: &mut StageCtx<'_>) -> Result<(), MantaError> {
        let mut r = flow_refine::standalone_fs_budgeted(
            ctx.analysis(),
            ctx.reveals(),
            &ctx.config,
            ctx.budget,
        )
        .map_err(|e| budget_error(self.site(), e))?;
        r.config = ctx.config;
        ctx.result = r;
        Ok(())
    }
}

/// Context-sensitive CFL refinement (Algorithm 1).
struct CsStage;

impl Stage for CsStage {
    fn name(&self) -> &'static str {
        "cs"
    }

    fn site(&self) -> &'static str {
        "infer.cs"
    }

    fn tier(&self) -> Option<&'static str> {
        Some("+CS")
    }

    fn run(&self, ctx: &mut StageCtx<'_>) -> Result<(), MantaError> {
        let reveals = ctx.reveals.as_ref().expect("reveal stage has not run yet");
        ctx_refine::refine_budgeted(
            ctx.analysis,
            reveals,
            &ctx.config,
            &mut ctx.result,
            ctx.budget,
            ctx.memo.as_deref_mut(),
        )
        .map_err(|e| budget_error(self.site(), e))
    }
}

/// Flow-sensitive refinement of the remaining over-approximated
/// variables (Algorithm 2).
struct FsRefineStage;

impl Stage for FsRefineStage {
    fn name(&self) -> &'static str {
        "fs"
    }

    fn site(&self) -> &'static str {
        "infer.fs"
    }

    fn tier(&self) -> Option<&'static str> {
        Some("+FS")
    }

    fn run(&self, ctx: &mut StageCtx<'_>) -> Result<(), MantaError> {
        let reveals = ctx.reveals.as_ref().expect("reveal stage has not run yet");
        flow_refine::refine_budgeted(
            ctx.analysis,
            reveals,
            &ctx.config,
            &mut ctx.result,
            ctx.budget,
            ctx.memo.as_deref_mut(),
        )
        .map_err(|e| budget_error(self.site(), e))
    }
}

/// The inference cascade for one sensitivity, in execution order.
///
/// [`Sensitivity::FiFsCs`] lists FS before CS — §6.4's reversed-order
/// ablation, the aggressive stage first.
pub fn stages(sensitivity: Sensitivity) -> &'static [&'static dyn Stage] {
    match sensitivity {
        Sensitivity::Fi => &[&RevealStage, &FiStage],
        Sensitivity::Fs => &[&RevealStage, &StandaloneFsStage],
        Sensitivity::FiFs => &[&RevealStage, &FiStage, &FsRefineStage],
        Sensitivity::FiCsFs => &[&RevealStage, &FiStage, &CsStage, &FsRefineStage],
        Sensitivity::FiFsCs => &[&RevealStage, &FiStage, &FsRefineStage, &CsStage],
    }
}

// ---------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------

/// Composes sensitivity config, budget, strictness, provenance and
/// summary switches, and a cache into an [`Engine`]. Every option is
/// owned by the engine it builds; building writes no process state.
///
/// ```
/// use manta::engine::EngineBuilder;
/// use manta::Sensitivity;
///
/// let engine = EngineBuilder::new()
///     .sensitivity(Sensitivity::FiCsFs)
///     .fuel(1_000_000)
///     .build()
///     .unwrap();
/// # let _ = engine;
/// ```
#[derive(Default)]
pub struct EngineBuilder {
    config: MantaConfig,
    budget: BudgetSpec,
    strict: bool,
    provenance: bool,
    summaries: bool,
    cache_dir: Option<PathBuf>,
    cache: Option<Arc<AnalysisCache>>,
}

impl EngineBuilder {
    /// Starts from the default configuration (full sensitivity is
    /// [`MantaConfig::full`], the default config is FI-only).
    pub fn new() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// Sets the whole inference configuration.
    #[must_use]
    pub fn config(mut self, config: MantaConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets only the sensitivity, keeping the other config knobs.
    #[must_use]
    pub fn sensitivity(mut self, sensitivity: Sensitivity) -> Self {
        self.config.sensitivity = sensitivity;
        self
    }

    /// Sets the budget specification (fuel and/or deadline).
    #[must_use]
    pub fn budget(mut self, spec: BudgetSpec) -> Self {
        self.budget = spec;
        self
    }

    /// Caps cooperative fuel (abstract work units) per analysis.
    #[must_use]
    pub fn fuel(mut self, fuel: u64) -> Self {
        self.budget.fuel = Some(fuel);
        self
    }

    /// Caps wall-clock time per analysis, in milliseconds.
    #[must_use]
    pub fn deadline_ms(mut self, ms: u64) -> Self {
        self.budget.deadline_ms = Some(ms);
        self
    }

    /// Propagate the first stage failure as an error instead of
    /// degrading gracefully (the CLI's `--strict`).
    #[must_use]
    pub fn strict(mut self, strict: bool) -> Self {
        self.strict = strict;
        self
    }

    /// Enables or disables type-provenance recording for this engine:
    /// it builds a [`ProvenanceGraph`] alongside each analysis
    /// (retrieved through [`Engine::analyze_explained`]), and
    /// substrates built by [`Engine::build_substrate`] record points-to
    /// first-derivation origins. Off — the default — costs one branch
    /// per potential recording point and leaves results bit-identical
    /// to a build without the feature. Other engines in the process are
    /// unaffected.
    #[must_use]
    pub fn provenance(mut self, enabled: bool) -> Self {
        self.provenance = enabled;
        self
    }

    /// Enables compositional per-function summaries: with a cache
    /// attached, a module-fingerprint miss runs the ordinary pipeline
    /// with a chunk memo — reveal/FI/classification fresh, refinement
    /// chunks replayed from the persisted summary state wherever their
    /// recorded input footprints still validate (see
    /// [`crate::summaries`]). Results and provenance graphs stay
    /// bit-identical to the full pipeline. Ignored without a cache;
    /// bypassed (no memo) under fuel limits and the standalone-FS
    /// sensitivity, and with the whole cache under deadlines, strict
    /// mode and fault plans.
    #[must_use]
    pub fn summaries(mut self, enabled: bool) -> Self {
        self.summaries = enabled;
        self
    }

    /// Opens (or initializes) a persistent [`AnalysisCache`] in `dir`
    /// at build time.
    #[must_use]
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Attaches an already-open cache (shared via [`Arc`]). Takes
    /// precedence over [`EngineBuilder::cache_dir`].
    #[must_use]
    pub fn cache(mut self, cache: Arc<AnalysisCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Builds the engine, opening the cache directory if one was given.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] only when a cache directory was
    /// requested and cannot be opened; cacheless builds are infallible.
    pub fn build(self) -> Result<Engine, StoreError> {
        let cache = match (self.cache, self.cache_dir) {
            (Some(cache), _) => Some(cache),
            (None, Some(dir)) => Some(Arc::new(AnalysisCache::open(dir)?)),
            (None, None) => None,
        };
        Ok(Engine {
            config: self.config,
            budget: self.budget,
            strict: self.strict,
            provenance: self.provenance,
            summaries: self.summaries,
            cache,
        })
    }
}

// ---------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------

/// The single orchestration path: every analysis — plain, budgeted,
/// strict, cached, CLI- or eval-driven — runs through
/// [`Engine::analyze`]'s driver loop.
#[derive(Clone)]
pub struct Engine {
    pub(crate) config: MantaConfig,
    pub(crate) budget: BudgetSpec,
    pub(crate) strict: bool,
    pub(crate) provenance: bool,
    pub(crate) summaries: bool,
    pub(crate) cache: Option<Arc<AnalysisCache>>,
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("config", &self.config)
            .field("budget", &self.budget)
            .field("strict", &self.strict)
            .field("provenance", &self.provenance)
            .field("summaries", &self.summaries)
            .field("cache", &self.cache.is_some())
            .finish()
    }
}

impl Engine {
    /// An engine with the given config and everything else default:
    /// unlimited budget, graceful degradation, no cache.
    pub fn new(config: MantaConfig) -> Engine {
        Engine {
            config,
            budget: BudgetSpec::default(),
            strict: false,
            provenance: false,
            summaries: false,
            cache: None,
        }
    }

    /// Starts a builder.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// The inference configuration.
    pub fn config(&self) -> &MantaConfig {
        &self.config
    }

    /// The budget specification new analyses start from.
    pub fn budget(&self) -> &BudgetSpec {
        &self.budget
    }

    /// Whether stage failures propagate as errors.
    pub fn strict(&self) -> bool {
        self.strict
    }

    /// Whether this engine records a type-provenance graph per analysis.
    pub fn provenance(&self) -> bool {
        self.provenance
    }

    /// The attached persistent cache, if any.
    pub fn cache(&self) -> Option<&AnalysisCache> {
        self.cache.as_deref()
    }

    /// A per-request view of this engine: every option (config knobs
    /// other than sensitivity, strictness, provenance, summaries and the
    /// attached cache — the `Arc` is cloned, not the store) carries
    /// over; only the sensitivity and the budget spec are replaced. A
    /// multi-tenant server derives one per request so an abusive
    /// client's budget cannot leak into its neighbors'.
    #[must_use]
    pub fn with_request(&self, sensitivity: Sensitivity, budget: BudgetSpec) -> Engine {
        let mut config = self.config;
        config.sensitivity = sensitivity;
        Engine {
            config,
            budget,
            ..self.clone()
        }
    }

    /// Analyzes one prepared module: cache lookup (when attached and
    /// eligible), then the staged cascade under a fresh budget.
    ///
    /// # Errors
    ///
    /// Non-strict engines never error — failures degrade and are
    /// recorded on [`InferenceResult::degradations`]. Strict engines
    /// propagate the first stage failure.
    pub fn analyze(&self, analysis: &ModuleAnalysis) -> Result<InferenceResult, MantaError> {
        self.analyze_inner(analysis, None).map(|(r, _)| r)
    }

    /// Like [`Engine::analyze`] but also returning the type-provenance
    /// graph when the engine was built with
    /// [`EngineBuilder::provenance`]`(true)`. The graph is `Some` iff
    /// provenance is on; a cache hit restores the persisted graph (and
    /// recomputes when the cached entry predates provenance recording).
    ///
    /// # Errors
    ///
    /// As for [`Engine::analyze`].
    pub fn analyze_explained(
        &self,
        analysis: &ModuleAnalysis,
    ) -> Result<(InferenceResult, Option<ProvenanceGraph>), MantaError> {
        self.analyze_inner(analysis, None)
    }

    /// Like [`Engine::analyze`] but charging work to an external,
    /// possibly shared, running budget (the CLI shares one budget
    /// across a whole command). A cache-served result consumes no
    /// budget; a cache miss charges `budget` exactly as the uncached
    /// engine would.
    ///
    /// # Errors
    ///
    /// As for [`Engine::analyze`].
    pub fn analyze_with_budget(
        &self,
        analysis: &ModuleAnalysis,
        budget: &Budget,
    ) -> Result<InferenceResult, MantaError> {
        self.analyze_inner(analysis, Some(budget)).map(|(r, _)| r)
    }

    /// Like [`Engine::analyze`] but reading and writing through an
    /// explicitly provided cache instead of the engine's own — for
    /// callers that manage cache lifetime themselves.
    ///
    /// # Errors
    ///
    /// As for [`Engine::analyze`].
    pub fn analyze_with_cache(
        &self,
        analysis: &ModuleAnalysis,
        cache: &AnalysisCache,
    ) -> Result<InferenceResult, MantaError> {
        self.analyze_cached(analysis, cache, None).map(|(r, _)| r)
    }

    /// Builds the analysis substrate and runs the cascade, sharing one
    /// budget across both.
    ///
    /// # Errors
    ///
    /// Substrate failures always propagate (there is nothing to degrade
    /// to without points-to and DDG); inference failures follow
    /// [`Engine::analyze`] semantics.
    pub fn analyze_module(
        &self,
        module: Module,
    ) -> Result<(ModuleAnalysis, InferenceResult), MantaError> {
        let budget = self.budget.start();
        let analysis = self.build_substrate(module, &budget)?;
        let result = self.analyze_with_budget(&analysis, &budget)?;
        Ok((analysis, result))
    }

    /// Builds the analysis substrate (preprocess → call graph →
    /// points-to → DDG) under `budget`. Each sub-pass opens its own
    /// span under `analysis.build` and is guarded at its own
    /// `analysis.*` site. A provenance-recording engine asks the
    /// points-to solver to record first derivations.
    ///
    /// # Errors
    ///
    /// Returns the first sub-pass failure: budget exhaustion at an
    /// `analysis.*` site or a caught panic.
    pub fn build_substrate(
        &self,
        module: Module,
        budget: &Budget,
    ) -> Result<ModuleAnalysis, MantaError> {
        ModuleAnalysis::build_budgeted(module, self.provenance, budget)
    }

    fn analyze_inner(
        &self,
        analysis: &ModuleAnalysis,
        external: Option<&Budget>,
    ) -> Result<(InferenceResult, Option<ProvenanceGraph>), MantaError> {
        match &self.cache {
            Some(cache) => self.analyze_cached(analysis, cache, external),
            None => self.run_uncached(analysis, external, None),
        }
    }

    fn run_uncached(
        &self,
        analysis: &ModuleAnalysis,
        external: Option<&Budget>,
        memo: Option<&mut ChunkMemo>,
    ) -> Result<(InferenceResult, Option<ProvenanceGraph>), MantaError> {
        match external {
            Some(budget) => self.run_pipeline(analysis, budget, memo),
            None => self.run_pipeline(analysis, &self.budget.start(), memo),
        }
    }

    /// The cache policy, applied in one place: bypass entirely under a
    /// strict engine, an armed fault plan, or a wall-clock deadline
    /// (faults and deadlines make results nondeterministic); otherwise
    /// sync the module index, look up, and persist only non-degraded
    /// results. A miss charges `external` when given, like the uncached
    /// path. A provenance-recording engine persists the graph next to
    /// the result under a `"prov"` key with the same fingerprint and
    /// config hash — the result payload itself stays bit-identical to a
    /// provenance-off run.
    fn analyze_cached(
        &self,
        analysis: &ModuleAnalysis,
        cache: &AnalysisCache,
        external: Option<&Budget>,
    ) -> Result<(InferenceResult, Option<ProvenanceGraph>), MantaError> {
        if self.strict || plan_active() || self.budget.deadline_ms.is_some() {
            return self.run_uncached(analysis, external, None);
        }
        let fingerprint = module_fingerprint(analysis.module());
        cache.sync_fingerprint(analysis.module().name(), fingerprint);
        let cfg = config_hash(&self.config, self.budget.fuel);
        let key = Key::new("infer", fingerprint, cfg);
        let prov_key = Key::new("prov", fingerprint, cfg);
        if let Some(hit) = cache.get_result(&key) {
            if !self.provenance {
                return Ok((hit, None));
            }
            // Serve the persisted graph with the hit; a missing or
            // undecodable graph (entry written by a provenance-off
            // engine) falls through to recompute both.
            if let Some(graph) = cache
                .store()
                .get(&prov_key)
                .and_then(|p| ProvenanceGraph::decode(&p).ok())
            {
                return Ok((hit, Some(graph)));
            }
        }
        // Summary mode: on a miss, the refinement stages replay chunks
        // from the persisted summary state. Limited budgets — the
        // engine's own fuel or a limited external budget — run without
        // the memo (a blown budget must trip exactly where the full
        // pipeline would), as do ineligible sensitivities.
        let state_key = (self.summaries
            && self.budget.fuel.is_none()
            && external.is_none_or(Budget::is_unlimited)
            && summaries::eligible(self.config.sensitivity))
        .then(|| summaries::state_key(analysis.module().name(), &self.config));
        let mut memo = state_key
            .as_ref()
            .map(|k| ChunkMemo::new(analysis, cache.store().get(k).as_deref()));
        let (result, prov) = self.run_uncached(analysis, external, memo.as_mut())?;
        if !result.is_degraded() {
            let _ = cache.store().put(&key, &encode_result(&result));
            if let Some(graph) = &prov {
                let _ = cache.store().put(&prov_key, &graph.encode());
            }
            if let (Some(k), Some(memo)) = (state_key, memo) {
                let _ = cache.store().put(&k, &memo.finish().0);
            }
        }
        Ok((result, prov))
    }

    /// The driver loop: every cross-cutting concern — span, fault
    /// point, budget attribution, panic isolation, tier snapshot /
    /// rollback, degradation record — applied once per stage. With a
    /// `memo`, the refinement stages replay and record summary chunks.
    pub(crate) fn run_pipeline(
        &self,
        analysis: &ModuleAnalysis,
        budget: &Budget,
        memo: Option<&mut ChunkMemo>,
    ) -> Result<(InferenceResult, Option<ProvenanceGraph>), MantaError> {
        manta_telemetry::span!("infer");
        let mut prov = self.provenance.then(ProvenanceGraph::new);
        if let (Some(graph), Some(p)) = (prov.as_mut(), analysis.pointsto.provenance.as_ref()) {
            graph.record_pointsto(p);
        }
        let mut ctx = StageCtx::over(analysis, self.config, budget, memo);
        let mut completed = String::from("none");
        for stage in stages(self.config.sensitivity) {
            // Stages mutate `ctx.result` in place but only commit after
            // a full pass; the snapshot restores the last completed
            // tier if the stage is cut short or panics midway — and,
            // when provenance is on, is the pre-stage state the fact
            // diff runs against.
            let snapshot = (!self.strict || prov.is_some()).then(|| ctx.result.clone());
            match Self::run_stage(*stage, &mut ctx) {
                Ok(()) => {
                    if let Some(graph) = prov.as_mut() {
                        if stage.site() == "infer.reveal" {
                            graph.record_reveals(ctx.reveals(), analysis.module());
                        } else if let Some(tier) = stage.tier() {
                            let before =
                                snapshot.as_ref().expect("provenance snapshots every stage");
                            graph.record_stage_diff(tier, before, &ctx.result);
                        }
                    }
                    if let Some(tier) = stage.tier() {
                        if completed == "none" {
                            completed = tier.trim_start_matches('+').to_string();
                        } else {
                            completed.push_str(tier);
                        }
                    }
                }
                Err(e) => {
                    if self.strict {
                        return Err(e);
                    }
                    let kind = DegradationKind::from_error(&e);
                    let detail = e.to_string();
                    ctx.result = snapshot.expect("non-strict stages snapshot before running");
                    ctx.result.degradations.push(Degradation::record(
                        stage.site(),
                        completed,
                        kind,
                        detail,
                    ));
                    break;
                }
            }
        }
        ctx.result.config = self.config;
        Ok((ctx.result, prov))
    }

    /// Runs one stage under the uniform guards.
    fn run_stage(stage: &dyn Stage, ctx: &mut StageCtx<'_>) -> Result<(), MantaError> {
        manta_telemetry::span!(stage.name());
        let site = stage.site();
        let budget = ctx.budget;
        isolate(site, || {
            fault_point_budgeted(site, budget);
            stage.run(ctx)
        })?
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::results_identical;
    use manta_ir::{ModuleBuilder, Width};

    fn module(tag: &str) -> Module {
        let mut mb = ModuleBuilder::new(tag);
        let malloc = mb.extern_fn("malloc", &[], None);
        let (_f, mut fb) = mb.function("grab", &[Width::W64], Some(Width::W64));
        let n = fb.param(0);
        let buf = fb.call_extern(malloc, &[n], Some(Width::W64));
        fb.ret(buf);
        mb.finish_function(fb);
        mb.finish()
    }

    #[test]
    fn builder_defaults_are_unlimited_and_graceful() {
        let engine = Engine::builder().build().expect("cacheless build");
        assert!(engine.budget().is_unlimited());
        assert!(!engine.strict());
        assert!(engine.cache().is_none());
    }

    #[test]
    fn with_request_replaces_only_sensitivity_and_budget() {
        let dir = std::env::temp_dir().join(format!(
            "manta-engine-test-{}-with-request",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Arc::new(AnalysisCache::open(&dir).expect("open cache"));
        let parent = Engine {
            config: MantaConfig {
                max_ctx_depth: 7,
                strong_updates: false,
                ..MantaConfig::full()
            },
            budget: BudgetSpec {
                fuel: Some(10),
                deadline_ms: None,
            },
            strict: true,
            provenance: true,
            summaries: true,
            cache: Some(Arc::clone(&cache)),
        };
        let budget = BudgetSpec {
            fuel: Some(500),
            deadline_ms: Some(250),
        };
        let child = parent.with_request(Sensitivity::Fi, budget);
        assert_eq!(child.config.sensitivity, Sensitivity::Fi);
        assert_eq!(child.budget, budget);
        assert_eq!(
            parent.config,
            MantaConfig {
                sensitivity: parent.config.sensitivity,
                ..child.config
            }
        );
        assert_eq!(
            (child.strict, child.provenance, child.summaries),
            (parent.strict, parent.provenance, parent.summaries)
        );
        let shared = child.cache.as_ref().expect("cache carried over");
        assert!(
            Arc::ptr_eq(shared, &cache),
            "the store is shared, not reopened"
        );
        drop((parent, child, cache));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn analyze_module_builds_and_infers() {
        let engine = Engine::new(MantaConfig::full());
        let (analysis, result) = engine.analyze_module(module("m")).expect("analyze");
        assert_eq!(analysis.module().name(), "m");
        assert!(!result.is_degraded());
        assert!(!result.var_types.is_empty());
    }

    /// A cached engine charges the caller's budget on a miss exactly as
    /// the uncached engine does: the same fuel is spent, and a zero-fuel
    /// budget degrades the same way. Only a hit is free.
    #[test]
    fn cached_miss_charges_the_external_budget() {
        let dir = std::env::temp_dir().join(format!(
            "manta-engine-test-{}-external-budget",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Arc::new(AnalysisCache::open(&dir).expect("open cache"));
        let analysis = ModuleAnalysis::build(module("budget"));
        let uncached = Engine::new(MantaConfig::full());
        let cached = Engine::builder()
            .config(MantaConfig::full())
            .cache(cache)
            .build()
            .expect("prebuilt cache cannot fail to attach");

        // Degraded results are never persisted, so both runs miss.
        let starved = |engine: &Engine| {
            engine
                .analyze_with_budget(&analysis, &Budget::with_fuel(0))
                .expect("non-strict never errors")
        };
        let (plain, via_cache) = (starved(&uncached), starved(&cached));
        assert!(plain.is_degraded(), "zero fuel must degrade uncached");
        assert!(
            results_identical(&plain, &via_cache),
            "a cached miss must degrade exactly as the uncached engine"
        );

        const FUEL: u64 = 1_000_000;
        let spent = |engine: &Engine| {
            let budget = Budget::with_fuel(FUEL);
            let r = engine
                .analyze_with_budget(&analysis, &budget)
                .expect("non-strict never errors");
            assert!(!r.is_degraded());
            FUEL - budget.fuel_left()
        };
        let uncached_spend = spent(&uncached);
        assert!(uncached_spend > 0, "inference must charge fuel");
        assert_eq!(spent(&cached), uncached_spend, "a miss charges the caller");
        assert_eq!(spent(&cached), 0, "a hit is served without charge");
        drop(cached);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Each engine owns its provenance switch: whichever engine is built
    /// last, the recording one records points-to derivations and the
    /// other records nothing.
    #[test]
    fn provenance_belongs_to_each_engine() {
        let build = |on: bool| {
            Engine::builder()
                .config(MantaConfig::full())
                .provenance(on)
                .build()
                .expect("cacheless build")
        };
        for recording_first in [true, false] {
            let (on, off) = if recording_first {
                let on = build(true);
                (on, build(false))
            } else {
                let off = build(false);
                (build(true), off)
            };
            let budget = Budget::unlimited();
            let with = on
                .build_substrate(module("prov-on"), &budget)
                .expect("substrate");
            let without = off
                .build_substrate(module("prov-off"), &budget)
                .expect("substrate");
            assert!(with.pointsto.provenance.is_some(), "{recording_first}");
            assert!(without.pointsto.provenance.is_none(), "{recording_first}");
            let (_, graph) = on.analyze_explained(&with).expect("analyze");
            let graph = graph.expect("provenance on yields a graph");
            assert!(
                !graph.pts_derivations().is_empty(),
                "{recording_first}: points-to derivations must be recorded"
            );
        }
    }

    #[test]
    fn every_sensitivity_has_a_base_tier_first() {
        for s in [
            Sensitivity::Fi,
            Sensitivity::Fs,
            Sensitivity::FiFs,
            Sensitivity::FiCsFs,
            Sensitivity::FiFsCs,
        ] {
            let cascade = stages(s);
            assert_eq!(cascade[0].site(), "infer.reveal");
            let first_tier = cascade[1].tier().expect("base tier after reveal");
            assert!(!first_tier.starts_with('+'), "base tier must not append");
            for stage in &cascade[2..] {
                assert!(stage.tier().expect("refinement tier").starts_with('+'));
            }
        }
    }

    #[test]
    fn analyze_explained_builds_a_graph_only_when_enabled() {
        let analysis = ModuleAnalysis::build(module("prov"));
        let off = Engine::new(MantaConfig::full());
        let (r_off, g_off) = off.analyze_explained(&analysis).expect("analyze");
        assert!(g_off.is_none(), "provenance off yields no graph");

        let on = Engine {
            provenance: true,
            ..Engine::new(MantaConfig::full())
        };
        let (r_on, g_on) = on.analyze_explained(&analysis).expect("analyze");
        let graph = g_on.expect("provenance on yields a graph");
        assert!(
            results_identical(&r_off, &r_on),
            "recording must not change results"
        );
        let tiers = graph.tier_counts();
        assert!(tiers.contains_key(crate::provenance::TIER_REVEAL));
        assert!(tiers.contains_key("FI"));
        // Every FI fact chains back to reveal leaves or is hint-free.
        let malloc_ret = *r_on.var_types.keys().min().expect("typed vars");
        assert!(graph.explain(malloc_ret).is_some());
    }

    #[test]
    fn strict_zero_fuel_propagates_a_budget_error() {
        let analysis = ModuleAnalysis::build(module("strict"));
        let engine = Engine::builder()
            .config(MantaConfig::full())
            .fuel(0)
            .strict(true)
            .build()
            .expect("cacheless build");
        let err = engine.analyze(&analysis).expect_err("zero fuel must trip");
        assert!(matches!(err, MantaError::Budget { .. }), "got {err:?}");
    }
}
