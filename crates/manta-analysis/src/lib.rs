//! # manta-analysis
//!
//! The binary static-analysis substrate the Manta type inference runs on:
//!
//! * [`mod@preprocess`] — the paper's §3 pre-processing: every loop in each
//!   function's CFG is unrolled (twice by default) and back edges on the
//!   call graph are broken, so all later analyses operate on acyclic
//!   structures.
//! * [`callgraph`] — direct-call graph with bottom-up ordering.
//! * [`pointsto`] — a field-sensitive, inclusion-based points-to analysis
//!   over the block memory model with allocation-site heap abstraction,
//!   reproducing the paper's documented unsound choices (function pointers
//!   are not modeled, arrays collapse to a monolithic object, parameters
//!   are assumed non-aliasing).
//! * [`ddg`] — the data-dependence graph of Definition 1, with call edges
//!   labeled by call site so CFL-reachability (context sensitivity) can be
//!   enforced during traversal.
//! * [`cfl`] — the calling-context stack used by Algorithms 1 and 2.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
// Fixpoint loops in this crate must not clone per-iteration state; prefer
// index/borrow patterns. Promote to `#![deny(clippy::redundant_clone)]` in CI
// if a regression slips through review.
#![warn(clippy::redundant_clone)]

pub mod callgraph;
pub mod cfl;
pub mod ddg;
pub mod pointsto;
pub mod preprocess;

pub use callgraph::CallGraph;
pub use cfl::CtxStack;
pub use ddg::{CallSite, Ddg, DepKind, NodeId};
pub use pointsto::{ObjectId, ObjectKind, PointsTo, PointsToProvenance, PtsSource};
pub use preprocess::{preprocess, PreprocessConfig, Preprocessed};

/// A module-global reference to an SSA value: the pair of its function and
/// the function-local value id. This is the variable domain `𝕍` shared by
/// the points-to analysis, the DDG and the type maps.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VarRef {
    /// Owning function.
    pub func: manta_ir::FuncId,
    /// Function-local value.
    pub value: manta_ir::ValueId,
}

impl VarRef {
    /// Shorthand constructor.
    pub fn new(func: manta_ir::FuncId, value: manta_ir::ValueId) -> VarRef {
        VarRef { func, value }
    }
}

impl std::fmt::Display for VarRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.func, self.value)
    }
}

/// Bundles the full analysis state for one module: the preprocessed module,
/// its call graph, points-to results and DDG. This is the input the `manta`
/// crate's type inference consumes.
#[derive(Debug)]
pub struct ModuleAnalysis {
    /// Preprocessing output (owns the acyclic module).
    pub pre: Preprocessed,
    /// The direct call graph (broken edges excluded).
    pub callgraph: CallGraph,
    /// Points-to results.
    pub pointsto: PointsTo,
    /// The data-dependence graph.
    pub ddg: Ddg,
}

impl ModuleAnalysis {
    /// Runs the whole substrate pipeline on `module` with the default
    /// preprocessing configuration and no points-to provenance.
    pub fn build(module: manta_ir::Module) -> ModuleAnalysis {
        manta_telemetry::span!("analysis.build");
        let pre = {
            manta_telemetry::span!("preprocess");
            preprocess(module, PreprocessConfig::default())
        };
        let callgraph = {
            manta_telemetry::span!("callgraph");
            CallGraph::build(&pre)
        };
        let pointsto = {
            manta_telemetry::span!("pointsto");
            PointsTo::solve(&pre, &callgraph)
        };
        let ddg = {
            manta_telemetry::span!("ddg");
            Ddg::build(&pre, &pointsto)
        };
        ModuleAnalysis {
            pre,
            callgraph,
            pointsto,
            ddg,
        }
    }

    /// Runs the whole substrate pipeline under a cooperative budget, with
    /// each stage behind a panic-isolation boundary. `provenance` asks
    /// the points-to solver to record first derivations
    /// ([`PointsTo::provenance`]); preprocessing uses the default
    /// configuration.
    ///
    /// Unlike the inference cascade there is no weaker tier to fall back
    /// to here — inference cannot run without the substrate — so a blown
    /// budget or a caught panic surfaces as a structured error rather
    /// than a degradation. Callers (the eval runner, the CLI) decide
    /// whether to skip the module or abort the run.
    ///
    /// # Errors
    ///
    /// Returns [`MantaError::Budget`] when `budget` trips and
    /// [`MantaError::Panic`] when a stage panics.
    ///
    /// [`MantaError::Budget`]: manta_resilience::MantaError::Budget
    /// [`MantaError::Panic`]: manta_resilience::MantaError::Panic
    pub fn build_budgeted(
        module: manta_ir::Module,
        provenance: bool,
        budget: &manta_resilience::Budget,
    ) -> Result<ModuleAnalysis, manta_resilience::MantaError> {
        use manta_resilience::{fault_point_budgeted, isolate, MantaError};
        manta_telemetry::span!("analysis.build");
        let budget_err = |stage: &str, e: manta_resilience::BudgetExceeded| {
            manta_resilience::budget_exhausted(stage);
            MantaError::Budget {
                stage: stage.to_string(),
                kind: e.kind,
            }
        };
        // Each stage runs fully inside its isolation boundary — including
        // the fault-injection point, so an injected panic is caught and
        // attributed to the stage it was armed on.
        let pre = {
            manta_telemetry::span!("preprocess");
            let fc = module.function_count() as u64;
            isolate("analysis.preprocess", || {
                fault_point_budgeted("analysis.preprocess", budget);
                budget.consume(fc)?;
                Ok(preprocess(module, PreprocessConfig::default()))
            })?
            .map_err(|e| budget_err("analysis.preprocess", e))?
        };
        let callgraph = {
            manta_telemetry::span!("callgraph");
            isolate("analysis.callgraph", || {
                fault_point_budgeted("analysis.callgraph", budget);
                budget.tick()?;
                Ok(CallGraph::build(&pre))
            })?
            .map_err(|e| budget_err("analysis.callgraph", e))?
        };
        let pointsto = {
            manta_telemetry::span!("pointsto");
            isolate("analysis.pointsto", || {
                fault_point_budgeted("analysis.pointsto", budget);
                PointsTo::solve_budgeted(&pre, &callgraph, provenance, budget)
            })?
            .map_err(|e| budget_err("analysis.pointsto", e))?
        };
        let ddg = {
            manta_telemetry::span!("ddg");
            isolate("analysis.ddg", || {
                fault_point_budgeted("analysis.ddg", budget);
                Ddg::build_budgeted(&pre, &pointsto, budget)
            })?
            .map_err(|e| budget_err("analysis.ddg", e))?
        };
        Ok(ModuleAnalysis {
            pre,
            callgraph,
            pointsto,
            ddg,
        })
    }

    /// The analyzed (acyclic) module.
    pub fn module(&self) -> &manta_ir::Module {
        &self.pre.module
    }
}
