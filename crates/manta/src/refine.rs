//! The one refinement driver behind both refinement stages (paper §4.2):
//! context-sensitive (Algorithm 1) and flow-sensitive (Algorithm 2)
//! refinement run the same loop over the variables the previous tier left
//! over-approximated, and differ only in the per-chunk walk.
//!
//! The loop: classify → partition the candidates by function → dispatch
//! the partitions on the pool → merge the updates → reclassify. Every
//! partition reads only the frozen pre-stage result (updates are applied
//! after the dispatch), so partitions refine independently and the merge
//! is order-free: keys are unique per partition. The per-partition memos
//! of the walks are pure caches, so making them partition-local cannot
//! change any answer.
//!
//! With a [`ChunkMemo`] (summary mode, see [`crate::summaries`]) the
//! driver first lets the memo replay every partition whose recorded read
//! footprint still validates, dispatches only the dirty ones — recording
//! their footprints — and hands the recomputed chunks back to the memo.

use manta_analysis::{ModuleAnalysis, VarRef};
use manta_ir::{FuncId, InstId};
use manta_resilience::BudgetExceeded;

use crate::classify;
use crate::interval::TypeInterval;
use crate::summaries::ChunkMemo;
use crate::{InferenceResult, Stage};

/// Variable- and site-level interval updates produced by one partition
/// (context-sensitive partitions produce no site updates).
pub(crate) type ChunkUpdates = (
    Vec<(VarRef, TypeInterval)>,
    Vec<((VarRef, InstId), TypeInterval)>,
);

/// One recomputed partition: its owner, the functions its walks read
/// (empty when recording is off), and its updates.
pub(crate) type Computed = (FuncId, Vec<FuncId>, ChunkUpdates);

/// Runs one refinement stage over the current over-approximated set and
/// appends its classification to `result.stage_counts`. `refine_chunk`
/// refines one per-function partition against the frozen pre-stage
/// result, recording what it read into the given [`Footprint`].
///
/// # Errors
///
/// Returns the first tripped limit in partition order *before*
/// committing any update, so `result` still reflects the previous tier
/// exactly.
pub(crate) fn refine_stage<F>(
    analysis: &ModuleAnalysis,
    result: &mut InferenceResult,
    stage: Stage,
    mut memo: Option<&mut ChunkMemo>,
    refine_chunk: F,
) -> Result<(), BudgetExceeded>
where
    F: Fn(&InferenceResult, Vec<VarRef>, &mut Footprint) -> Result<ChunkUpdates, BudgetExceeded>
        + Sync,
{
    let cs = stage == Stage::ContextRefine;
    let over = classify::over_approximated(analysis, result);
    let candidates = if cs { "cs.candidates" } else { "fs.candidates" };
    manta_telemetry::counter(candidates, over.len() as u64);

    let chunks = partition_by_func(over);
    let (replayed, dirty) = match memo.as_deref_mut() {
        Some(m) => m.split(analysis, stage, result, chunks),
        None => (Vec::new(), chunks),
    };
    let funcs = memo.is_some().then(|| analysis.module().function_count());
    let frozen: &InferenceResult = result;
    let per_chunk: Vec<Result<Computed, BudgetExceeded>> =
        manta_parallel::par_map(dirty, |chunk| {
            let owner = chunk[0].func;
            let mut fp = funcs.map_or_else(Footprint::off, Footprint::on);
            let updates = refine_chunk(frozen, chunk, &mut fp)?;
            Ok((owner, fp.into_funcs(), updates))
        });
    let mut computed: Vec<Computed> = Vec::with_capacity(per_chunk.len());
    for chunk in per_chunk {
        computed.push(chunk?);
    }
    if let Some(m) = memo {
        m.record(stage, &computed);
    }

    let (mut n_vars, mut n_sites) = (0u64, 0u64);
    let all = replayed
        .into_iter()
        .chain(computed.into_iter().map(|c| c.2));
    for (vars, sites) in all {
        n_vars += vars.len() as u64;
        n_sites += sites.len() as u64;
        result.var_types.extend(vars);
        result.site_types.extend(sites);
    }
    if cs {
        manta_telemetry::counter("cs.refined", n_vars);
    } else {
        manta_telemetry::counter("fs.site_types", n_sites);
    }
    let counts = classify::classify(analysis, result);
    result.stage_counts.push((stage, counts));
    Ok(())
}

/// Splits an already function-ordered candidate list into runs sharing a
/// function — the unit of work the refinement stages hand to the pool.
fn partition_by_func(over: Vec<VarRef>) -> Vec<Vec<VarRef>> {
    let mut chunks: Vec<Vec<VarRef>> = Vec::new();
    for v in over {
        match chunks.last_mut() {
            Some(chunk) if chunk[0].func == v.func => chunk.push(v),
            _ => chunks.push(vec![v]),
        }
    }
    chunks
}

/// Records which functions' data a refinement walk read. The summary
/// memo replays a cached chunk only when every function in its recorded
/// footprint has an unchanged input fingerprint, so the footprint must
/// cover *everything* the walk's outcome depends on: every DDG node
/// visited (its owner's edges and reveals), every variable whose interval
/// fed an arithmetic feasibility check, and every function whose CFG
/// blocks or caller list the flow-sensitive walker consulted. Recording
/// is off (`None`, a branch per touch) on the ordinary uncached path.
/// The recorder is a dense bitset over function indices: a touch per
/// visited node is on every walk's hot path, so it has to be a couple
/// of instructions, not a tree insert.
#[derive(Default, Debug)]
pub(crate) struct Footprint {
    bits: Option<Vec<u64>>,
}

impl Footprint {
    /// A disabled recorder: `touch` is a no-op.
    pub(crate) fn off() -> Footprint {
        Footprint { bits: None }
    }

    /// An enabled recorder over a module with `n_funcs` functions.
    pub(crate) fn on(n_funcs: usize) -> Footprint {
        Footprint {
            bits: Some(vec![0; n_funcs.div_ceil(64)]),
        }
    }

    /// A recorder in the same state (on/off) as `other`, for walks whose
    /// borrows force a separate accumulator merged back via [`absorb`].
    ///
    /// [`absorb`]: Footprint::absorb
    pub(crate) fn like(other: &Footprint) -> Footprint {
        Footprint {
            bits: other.bits.as_ref().map(|b| vec![0; b.len()]),
        }
    }

    /// Records that the walk read function `f`'s data.
    #[inline]
    pub(crate) fn touch(&mut self, f: FuncId) {
        if let Some(bits) = &mut self.bits {
            bits[f.index() >> 6] |= 1 << (f.index() & 63);
        }
    }

    /// Folds another recorder's touches into this one.
    pub(crate) fn absorb(&mut self, other: Footprint) {
        if let (Some(dst), Some(src)) = (&mut self.bits, other.bits) {
            for (d, s) in dst.iter_mut().zip(src) {
                *d |= s;
            }
        }
    }

    /// The recorded function set in index order (empty when recording
    /// was off).
    pub(crate) fn into_funcs(self) -> Vec<FuncId> {
        let Some(bits) = self.bits else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (w, word) in bits.into_iter().enumerate() {
            let mut word = word;
            while word != 0 {
                let b = word.trailing_zeros() as usize;
                out.push(FuncId((w << 6 | b) as u32));
                word &= word - 1;
            }
        }
        out
    }
}
