//! Compositional per-function summary cache: precise incremental
//! re-inference after small edits, with wavefront-parallel recomputation.
//!
//! ## What is cached, and what is always fresh
//!
//! The hybrid-sensitive cascade splits cleanly into two cost classes.
//! Reveal collection, flow-insensitive unification and classification are
//! cheap *global* passes — they run fresh on every solve. The expensive
//! part is the refinement stages (CS, FS): per-candidate CFL walks that
//! read only frozen inputs (DDG structure, reveals, CFGs, the call graph
//! and the pre-stage result) and produce independent interval updates.
//! Those per-function update chunks are what this module caches.
//!
//! ## Invalidation: input fingerprints × recorded footprints
//!
//! Each function `g` gets a per-stage **input fingerprint** `IN(g)`
//! covering everything a walk can observe about `g`: its canonical text,
//! its points-to slice (stable object keys, so renumbering does not
//! invalidate), its incident DDG edges in stable name-hash coordinates,
//! its call-graph adjacency, and the per-value interval slice of the
//! pre-stage result. Each cached chunk records the **footprint** of the
//! walks that produced it — every function whose data was read
//! (`ctx_refine::Footprint`). A chunk is replayed iff every
//! footprint member's current `IN` matches the value recorded at write
//! time; otherwise the chunk recomputes. Because the footprint covers
//! *all* inputs of the walk, replay is bit-identical by construction —
//! no precision allowlist is needed, and the parity suite pins it.
//!
//! This is the verified-cutoff property: after a 1% edit, the re-solve
//! cost is the cheap global passes plus only the chunks whose recorded
//! inputs actually changed. A function whose recomputed inputs hash
//! identically is transitively cut off.
//!
//! ## Wavefront scheduling
//!
//! Dirty chunks are grouped by the condensation of the call graph
//! ([`manta_parallel::wavefront::condense`]): each strongly-connected
//! component sits at a topological level, and every level's chunks
//! dispatch across the `manta-parallel` pool as one wavefront
//! ([`manta_parallel::wavefront::wavefront_dispatch`]). Chunks are pure
//! against the frozen pre-stage result, so wavefronts bound nothing
//! semantically — they shape the schedule (summaries are the only
//! cross-shard traffic) and feed the `summary.wavefront*` telemetry.
//!
//! ## What bypasses this path
//!
//! Fuel-limited budgets, the engine's own or a limited one passed to
//! `Engine::analyze_with_budget` (a blown budget must trip at the same
//! point the full pipeline would), strict engines, armed fault plans, wall-clock
//! deadlines, provenance-recording engines (stage diffs need the full
//! pipeline), and the standalone-FS sensitivity (its alias classes are a
//! global union-find, not per-candidate walks). Degraded-tier results
//! are never persisted.

use std::collections::HashMap;

use manta_analysis::{DepKind, ModuleAnalysis, ObjectKind, VarRef};
use manta_ir::{FuncId, InstId, ValueId};
use manta_parallel::wavefront;
use manta_resilience::Budget;
use manta_store::{hash_str, ByteReader, ByteWriter, DecodeError, Fingerprint, Key};

use crate::cache::{bad, config_hash, dec_interval, enc_interval, function_fingerprints};
use crate::ctx_refine::{self, Footprint};
use crate::flow_refine::{self, Cfgs, FsChunkOut};
use crate::interval::TypeInterval;
use crate::reveal::RevealMap;
use crate::{classify, flow_insensitive, InferenceResult, MantaConfig, Sensitivity, Stage};

/// Version of the persisted summary-state payload. Folded into every
/// input fingerprint and checked on decode, so a codec change orphans
/// (never misreads) older state. v3 added the per-function points-to
/// boundary fingerprint table.
pub const SUMMARY_STATE_VERSION: u32 = 3;

/// The store key holding a module's whole summary state for one config:
/// one mutable entry per `(module name, config)` — edits update it in
/// place rather than orphaning per-fingerprint entries.
#[must_use]
pub fn state_key(module_name: &str, config: &MantaConfig) -> Key {
    Key::new("fsum", hash_str(module_name), config_hash(config, None))
}

/// Whether the summary path supports this sensitivity. Standalone FS
/// builds global alias classes (a module-wide union-find), which the
/// per-function chunk model cannot replay.
#[must_use]
pub fn eligible(sensitivity: Sensitivity) -> bool {
    !matches!(sensitivity, Sensitivity::Fs)
}

/// The refinement stages the summary driver replays, in cascade order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum StageKind {
    Cs,
    Fs,
}

impl StageKind {
    fn tag(self) -> u8 {
        match self {
            StageKind::Cs => 0,
            StageKind::Fs => 1,
        }
    }

    fn from_tag(tag: u8) -> Option<StageKind> {
        Some(match tag {
            0 => StageKind::Cs,
            1 => StageKind::Fs,
            _ => return None,
        })
    }

    fn stage(self) -> Stage {
        match self {
            StageKind::Cs => Stage::ContextRefine,
            StageKind::Fs => Stage::FlowRefine,
        }
    }
}

fn stage_order(sensitivity: Sensitivity) -> &'static [StageKind] {
    match sensitivity {
        Sensitivity::Fi => &[],
        Sensitivity::Fs => unreachable!("standalone FS is ineligible for the summary path"),
        Sensitivity::FiFs => &[StageKind::Fs],
        Sensitivity::FiCsFs => &[StageKind::Cs, StageKind::Fs],
        Sensitivity::FiFsCs => &[StageKind::Fs, StageKind::Cs],
    }
}

// ---------------------------------------------------------------------
// Persisted state
// ---------------------------------------------------------------------

/// One cached refinement chunk: the updates one function's candidate
/// partition produced, plus the recorded read footprint that gates
/// replay. Values are function-local ids — valid whenever the owning
/// function's text fingerprint (part of its `IN`) is unchanged.
#[derive(Clone, Debug, PartialEq)]
struct ChunkEntry {
    /// Index into [`State::footprints`]: the `(name hash, IN at write
    /// time)` list for every function the producing walks read. Always
    /// includes the owner.
    footprint: u32,
    /// Variable-level interval updates, by local value id.
    vars: Vec<(u32, TypeInterval)>,
    /// Site-level interval updates (FS stages only).
    sites: Vec<(u32, u32, TypeInterval)>,
}

/// The whole persisted summary state: per stage, per function (by name
/// hash), the cached chunk. Footprints live in a deduplicated side
/// table — chunks in one call cluster record near-identical read sets,
/// so interning shrinks the payload by the cluster size and lets
/// validation run once per distinct footprint instead of once per
/// chunk.
#[derive(Default, Debug)]
struct State {
    footprints: Vec<Vec<(u64, u64)>>,
    /// Per-function points-to *boundary* fingerprints `(name hash, fp)`,
    /// sorted by name hash: the points-to sets visible at the
    /// function's interface (parameters and returns) in stable object
    /// keys. A function whose boundary fingerprint changed since the
    /// state was written has different cross-function points-to facts,
    /// so its callers' chunks are force-dirtied.
    boundary_fps: Vec<(u64, u64)>,
    stages: Vec<(u8, Vec<(u64, ChunkEntry)>)>,
}

impl State {
    fn entries(&self, tag: u8) -> Option<&Vec<(u64, ChunkEntry)>> {
        self.stages.iter().find(|(t, _)| *t == tag).map(|(_, e)| e)
    }
}

/// Builds the deduplicated footprint table of the *next* state: every
/// replayed, recomputed and carried-forward chunk re-interns its
/// footprint list here, so the table never accretes dead lists.
#[derive(Default)]
struct FpInterner {
    table: Vec<Vec<(u64, u64)>>,
    index: HashMap<Vec<(u64, u64)>, u32>,
}

impl FpInterner {
    fn intern(&mut self, list: Vec<(u64, u64)>) -> u32 {
        if let Some(&i) = self.index.get(&list) {
            return i;
        }
        let i = self.table.len() as u32;
        self.index.insert(list.clone(), i);
        self.table.push(list);
        i
    }
}

fn encode_state(state: &State) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(SUMMARY_STATE_VERSION);
    w.usize(state.footprints.len());
    for list in &state.footprints {
        w.usize(list.len());
        for (h, fp) in list {
            w.u64(*h).u64(*fp);
        }
    }
    w.usize(state.boundary_fps.len());
    for (nh, fp) in &state.boundary_fps {
        w.u64(*nh).u64(*fp);
    }
    w.usize(state.stages.len());
    for (tag, entries) in &state.stages {
        w.u8(*tag);
        w.usize(entries.len());
        for (nh, e) in entries {
            w.u64(*nh);
            w.u32(e.footprint);
            w.usize(e.vars.len());
            for (v, i) in &e.vars {
                w.u32(*v);
                enc_interval(&mut w, i);
            }
            w.usize(e.sites.len());
            for (v, s, i) in &e.sites {
                w.u32(*v).u32(*s);
                enc_interval(&mut w, i);
            }
        }
    }
    w.finish()
}

fn decode_state(payload: &[u8]) -> Result<State, DecodeError> {
    let mut r = ByteReader::new(payload);
    if r.u32("summary version")? != SUMMARY_STATE_VERSION {
        return Err(bad("summary version"));
    }
    let n_fps = r.len("summary footprints")?;
    let mut footprints = Vec::with_capacity(n_fps.min(4096));
    for _ in 0..n_fps {
        let nf = r.len("summary footprint")?;
        let mut list = Vec::with_capacity(nf.min(4096));
        for _ in 0..nf {
            list.push((r.u64("footprint name")?, r.u64("footprint fp")?));
        }
        footprints.push(list);
    }
    let n_bnd = r.len("summary boundary fps")?;
    let mut boundary_fps = Vec::with_capacity(n_bnd.min(4096));
    for _ in 0..n_bnd {
        boundary_fps.push((r.u64("boundary name")?, r.u64("boundary fp")?));
    }
    let n_stages = r.len("summary stages")?;
    let mut stages = Vec::with_capacity(n_stages.min(4));
    for _ in 0..n_stages {
        let tag = r.u8("summary stage tag")?;
        StageKind::from_tag(tag).ok_or(bad("summary stage tag"))?;
        let n = r.len("summary entries")?;
        let mut entries = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            let nh = r.u64("summary name hash")?;
            let footprint = r.u32("summary footprint ref")?;
            if footprint as usize >= footprints.len() {
                return Err(bad("summary footprint ref"));
            }
            let nv = r.len("summary vars")?;
            let mut vars = Vec::with_capacity(nv.min(4096));
            for _ in 0..nv {
                vars.push((r.u32("summary var")?, dec_interval(&mut r)?));
            }
            let ns = r.len("summary sites")?;
            let mut sites = Vec::with_capacity(ns.min(4096));
            for _ in 0..ns {
                sites.push((
                    r.u32("summary site var")?,
                    r.u32("summary site inst")?,
                    dec_interval(&mut r)?,
                ));
            }
            entries.push((
                nh,
                ChunkEntry {
                    footprint,
                    vars,
                    sites,
                },
            ));
        }
        stages.push((tag, entries));
    }
    r.expect_end("summary state")?;
    Ok(State {
        footprints,
        boundary_fps,
        stages,
    })
}

// ---------------------------------------------------------------------
// Input fingerprints
// ---------------------------------------------------------------------

/// Per-function input-fingerprint machinery. The *static* part (text,
/// points-to slice, DDG slice, call-graph adjacency, extern signatures)
/// is computed once per solve; [`Inputs::stage_fps`] folds in the
/// per-value interval slice of the live result at each stage entry.
struct Inputs {
    name_hash: Vec<u64>,
    by_name: HashMap<u64, FuncId>,
    static_fp: Vec<u64>,
    /// Content-stable object keys, kept for the boundary fingerprints.
    obj_keys: Vec<u64>,
}

impl Inputs {
    fn new(analysis: &ModuleAnalysis, text_fps: &[(String, u64)]) -> Inputs {
        let module = analysis.module();
        let name_hash: Vec<u64> = module.functions().map(|f| hash_str(f.name())).collect();
        let by_name: HashMap<u64, FuncId> = module
            .functions()
            .map(|f| (hash_str(f.name()), f.id()))
            .collect();

        // Extern signatures feed reveal rules without appearing in any
        // function's canonical text, so they fold into every IN: an
        // extern-sig edit soundly invalidates everything.
        let mut eh = Fingerprint::new();
        eh.write_u64(u64::from(SUMMARY_STATE_VERSION));
        for decl in module.externs() {
            eh.write_str(&decl.name);
            eh.write_usize(decl.param_widths.len());
            for w in &decl.param_widths {
                eh.write_u64(u64::from(w.bits()));
            }
            eh.write_u64(decl.ret_width.map(|w| u64::from(w.bits())).unwrap_or(0));
            eh.write_str(&format!("{:?}", decl.sig));
            eh.write_str(&format!("{:?}", decl.effect));
        }
        let extern_digest = eh.finish();

        let obj_keys = stable_object_keys(analysis, &name_hash);
        let ddg = &analysis.ddg;
        let pts = &analysis.pointsto;
        let cg = &analysis.callgraph;

        let mut static_fp = Vec::with_capacity(name_hash.len());
        // Arith edges hash their operator via its Debug text; memoized
        // per distinct operator, not per edge.
        let mut op_hash: HashMap<manta_ir::BinOp, u64> = HashMap::new();
        for func in module.functions() {
            let fid = func.id();
            let mut h = Fingerprint::new();
            h.write_u64(u64::from(SUMMARY_STATE_VERSION));
            h.write_u64(extern_digest);
            h.write_u64(text_fps[fid.index()].1);

            // Points-to slice: per value, the sorted stable object keys.
            for (value, _) in func.values() {
                let v = VarRef::new(fid, value);
                let mut ks: Vec<u64> = pts.pts_var(v).iter().map(|o| obj_keys[o.index()]).collect();
                ks.sort_unstable();
                h.write_u64(u64::from(value.0));
                h.write_usize(ks.len());
                for k in ks {
                    h.write_u64(k);
                }
            }

            // DDG slice: every edge incident to this function's nodes, in
            // stable coordinates. Hashes are sorted so adjacency-list
            // construction order (which can shift when *other* functions
            // change) cannot perturb the fingerprint.
            for (value, _) in func.values() {
                let n = ddg.node(VarRef::new(fid, value));
                let mut es: Vec<u64> = Vec::new();
                for &(other, kind) in ddg.children(n) {
                    es.push(edge_hash(0, ddg.var(other), kind, &name_hash, &mut op_hash));
                }
                for &(other, kind) in ddg.parents(n) {
                    es.push(edge_hash(1, ddg.var(other), kind, &name_hash, &mut op_hash));
                }
                es.sort_unstable();
                h.write_u64(u64::from(value.0));
                h.write_usize(es.len());
                for e in es {
                    h.write_u64(e);
                }
            }

            // Call-graph adjacency: both directions, with sites. Needed
            // beyond the DDG slice because e.g. a new zero-argument call
            // edge changes the FS caller crossing without adding any DDG
            // edge.
            let mut es: Vec<u64> = Vec::new();
            for e in cg.callees(fid) {
                let mut eh = Fingerprint::new();
                eh.write_u64(0)
                    .write_u64(name_hash[e.callee.index()])
                    .write_u64(u64::from(e.site.0));
                es.push(eh.finish());
            }
            for e in cg.callers(fid) {
                let mut eh = Fingerprint::new();
                eh.write_u64(1)
                    .write_u64(name_hash[e.caller.index()])
                    .write_u64(u64::from(e.site.0));
                es.push(eh.finish());
            }
            es.sort_unstable();
            h.write_usize(es.len());
            for e in es {
                h.write_u64(e);
            }

            static_fp.push(h.finish());
        }

        Inputs {
            name_hash,
            by_name,
            static_fp,
            obj_keys,
        }
    }

    /// Per-function points-to *boundary* fingerprints: the points-to
    /// sets of the function's parameters and returned values, in stable
    /// object keys. This is exactly the slice of points-to facts the
    /// function exchanges with its callers.
    fn boundary_fps(&self, analysis: &ModuleAnalysis) -> Vec<u64> {
        let module = analysis.module();
        let pts = &analysis.pointsto;
        let mut out = Vec::with_capacity(self.static_fp.len());
        for func in module.functions() {
            let fid = func.id();
            let mut h = Fingerprint::new();
            h.write_u64(u64::from(SUMMARY_STATE_VERSION));
            let eat_var = |h: &mut Fingerprint, v: manta_ir::ValueId| {
                let mut ks: Vec<u64> = pts
                    .pts_var(VarRef::new(fid, v))
                    .iter()
                    .map(|o| self.obj_keys[o.index()])
                    .collect();
                ks.sort_unstable();
                h.write_usize(ks.len());
                for k in ks {
                    h.write_u64(k);
                }
            };
            for &p in func.params() {
                h.write_u64(0);
                eat_var(&mut h, p);
            }
            for b in func.blocks() {
                if let manta_ir::Terminator::Ret(Some(r)) = b.term {
                    h.write_u64(1);
                    eat_var(&mut h, r);
                }
            }
            out.push(h.finish());
        }
        out
    }

    /// The per-function input fingerprints at one stage entry: the
    /// static part plus the current per-value interval slice (the only
    /// live input the walks read).
    fn stage_fps(&self, analysis: &ModuleAnalysis, result: &InferenceResult) -> Vec<u64> {
        let module = analysis.module();
        let mut out = Vec::with_capacity(self.static_fp.len());
        for func in module.functions() {
            let fid = func.id();
            let mut w = ByteWriter::new();
            for (value, _) in func.values() {
                match result.var_types.get(&VarRef::new(fid, value)) {
                    None => {
                        w.u8(0);
                    }
                    Some(i) => {
                        w.u8(1);
                        enc_interval(&mut w, i);
                    }
                }
            }
            let mut h = Fingerprint::new();
            h.write_u64(self.static_fp[fid.index()]);
            h.write(&w.finish());
            out.push(h.finish());
        }
        out
    }
}

/// Content-stable keys for abstract objects: allocation coordinates in
/// name-hash space, recursively for fields — so an edit elsewhere that
/// renumbers `ObjectId`s does not invalidate an untouched function's
/// points-to slice.
fn stable_object_keys(analysis: &ModuleAnalysis, name_hash: &[u64]) -> Vec<u64> {
    let pts = &analysis.pointsto;
    let module = analysis.module();
    let n = pts.object_count();
    let mut keys: Vec<Option<u64>> = vec![None; n];
    fn key_of(
        o: manta_analysis::ObjectId,
        pts: &manta_analysis::PointsTo,
        module: &manta_ir::Module,
        name_hash: &[u64],
        keys: &mut Vec<Option<u64>>,
    ) -> u64 {
        if let Some(k) = keys[o.index()] {
            return k;
        }
        let mut h = Fingerprint::new();
        match pts.object_kind(o) {
            ObjectKind::Stack { func, site, size } => {
                h.write_u64(0)
                    .write_u64(name_hash[func.index()])
                    .write_u64(u64::from(site.0))
                    .write_u64(size);
            }
            ObjectKind::Heap { func, site } => {
                h.write_u64(1)
                    .write_u64(name_hash[func.index()])
                    .write_u64(u64::from(site.0));
            }
            ObjectKind::Global(g) => {
                h.write_u64(2).write_str(&module.global(g).name);
            }
            ObjectKind::Field { parent, offset } => {
                let pk = key_of(parent, pts, module, name_hash, keys);
                h.write_u64(3).write_u64(pk).write_u64(offset);
            }
            ObjectKind::ExternBuf { func, site } => {
                h.write_u64(4)
                    .write_u64(name_hash[func.index()])
                    .write_u64(u64::from(site.0));
            }
        }
        let k = h.finish();
        keys[o.index()] = Some(k);
        k
    }
    for i in 0..n {
        key_of(
            manta_analysis::ObjectId(i as u32),
            pts,
            module,
            name_hash,
            &mut keys,
        );
    }
    keys.into_iter().map(|k| k.unwrap_or(0)).collect()
}

fn edge_hash(
    dir: u64,
    other: VarRef,
    kind: DepKind,
    name_hash: &[u64],
    op_hash: &mut HashMap<manta_ir::BinOp, u64>,
) -> u64 {
    let mut h = Fingerprint::new();
    h.write_u64(dir)
        .write_u64(name_hash[other.func.index()])
        .write_u64(u64::from(other.value.0));
    match kind {
        DepKind::Direct => {
            h.write_u64(0);
        }
        DepKind::Arith { op, operand } => {
            let oh = *op_hash
                .entry(op)
                .or_insert_with(|| hash_str(&format!("{op:?}")));
            h.write_u64(1).write_u64(oh).write_u64(u64::from(operand));
        }
        DepKind::Cmp => {
            h.write_u64(2);
        }
        DepKind::Field => {
            h.write_u64(7);
        }
        // The ObjectId payload labels which object mediated the memory
        // dependency; no traversal reads it, so it stays out of the
        // fingerprint (object renumbering must not invalidate).
        DepKind::Memory(_) => {
            h.write_u64(3);
        }
        DepKind::CallParam(cs) => {
            h.write_u64(4)
                .write_u64(name_hash[cs.caller.index()])
                .write_u64(u64::from(cs.site.0));
        }
        DepKind::CallReturn(cs) => {
            h.write_u64(5)
                .write_u64(name_hash[cs.caller.index()])
                .write_u64(u64::from(cs.site.0));
        }
        DepKind::ExternFlow => {
            h.write_u64(6);
        }
    }
    h.finish()
}

// ---------------------------------------------------------------------
// Wavefront scheduling
// ---------------------------------------------------------------------
//
// The scheduler itself lives in `manta_parallel::wavefront` (SCC
// condensation + level-by-level dispatch); this driver only maps
// functions onto condensation levels and names the telemetry counter.

// ---------------------------------------------------------------------
// The solve driver
// ---------------------------------------------------------------------

/// What one summary-mode solve reused and recomputed — the edit-storm
/// test's observability surface.
#[derive(Clone, Debug, Default)]
pub struct SolveReport {
    /// Functions whose cached chunks were replayed, per stage, by name.
    pub reused: Vec<String>,
    /// Functions whose chunks were recomputed, per stage, by name.
    pub recomputed: Vec<String>,
    /// Width of each dispatched recompute wavefront.
    pub wavefront_widths: Vec<usize>,
}

/// Runs the cascade in summary mode: reveal + FI + classification fresh,
/// refinement chunks replayed from `prev_state` where their recorded
/// footprints validate, recomputed (with footprint recording) otherwise.
/// Returns the result — bit-identical to the full pipeline — plus the
/// encoded new state and a reuse report.
#[must_use]
pub fn solve(
    analysis: &ModuleAnalysis,
    config: &MantaConfig,
    prev_state: Option<&[u8]>,
) -> (InferenceResult, Vec<u8>, SolveReport) {
    let text_fps = function_fingerprints(analysis.module());
    solve_with(analysis, config, prev_state, &text_fps)
}

/// [`solve`] with the canonical-text fingerprints precomputed by the
/// caller. The engine already hashes every function for the module
/// cache index; hashing again here would double the dominant fixed
/// cost of a warm summary solve.
pub(crate) fn solve_with(
    analysis: &ModuleAnalysis,
    config: &MantaConfig,
    prev_state: Option<&[u8]>,
    text_fps: &[(String, u64)],
) -> (InferenceResult, Vec<u8>, SolveReport) {
    manta_telemetry::span!("infer.summary");
    let module = analysis.module();
    let prev = {
        manta_telemetry::span!("summary.decode");
        match prev_state {
            Some(p) => match decode_state(p) {
                Ok(s) => s,
                Err(_) => {
                    manta_telemetry::counter("summary.state_corrupt", 1);
                    State::default()
                }
            },
            None => State::default(),
        }
    };
    let inputs = {
        manta_telemetry::span!("summary.inputs");
        Inputs::new(analysis, text_fps)
    };
    let stages = stage_order(config.sensitivity);
    let mut report = SolveReport::default();

    let reveals = RevealMap::collect(analysis);
    let mut result = flow_insensitive::run(analysis, &reveals, *config);

    // Call-graph condensation: SCC topological levels drive the
    // recompute wavefronts (callees' chunks before callers').
    let call_edges: Vec<(u32, u32)> = analysis
        .callgraph
        .edges()
        .iter()
        .map(|e| (e.caller.0, e.callee.0))
        .collect();
    let cond = wavefront::condense(module.function_count(), &call_edges);
    let level_of_func = cond.node_levels();

    let needs_fs = stages.contains(&StageKind::Fs);
    let cfgs = needs_fs.then(|| Cfgs::new(analysis));

    // Points-to boundary fingerprints: a function whose interface-level
    // points-to facts changed since the state was written exchanged
    // different facts with its callers, so every caller's chunk is
    // force-dirtied (in addition to ordinary footprint validation —
    // forcing extra recomputes is always sound because recompute is
    // deterministic and bit-identical).
    let boundary_now = {
        manta_telemetry::span!("summary.boundary_fps");
        inputs.boundary_fps(analysis)
    };
    let force_dirty: std::collections::HashSet<u64> = {
        let prev_bnd: HashMap<u64, u64> = prev.boundary_fps.iter().copied().collect();
        let mut force = std::collections::HashSet::new();
        if !prev_bnd.is_empty() {
            for func in module.functions() {
                let fid = func.id();
                let nh = inputs.name_hash[fid.index()];
                if prev_bnd.get(&nh) == Some(&boundary_now[fid.index()]) {
                    continue;
                }
                // Changed (or new) boundary: the owner and every caller
                // consume its interface facts.
                force.insert(nh);
                for e in analysis.callgraph.callers(fid) {
                    force.insert(inputs.name_hash[e.caller.index()]);
                }
            }
        }
        manta_telemetry::counter("summary.boundary_dirty", force.len() as u64);
        force
    };

    let mut new_state = State::default();
    let mut interner = FpInterner::default();
    for &stage in stages {
        let in_fps = {
            manta_telemetry::span!("summary.stage_fps");
            inputs.stage_fps(analysis, &result)
        };
        let over = classify::over_approximated(analysis, &result);
        match stage {
            StageKind::Cs => manta_telemetry::counter("cs.candidates", over.len() as u64),
            StageKind::Fs => manta_telemetry::counter("fs.candidates", over.len() as u64),
        }
        let chunks = ctx_refine::partition_by_func(over);

        let (reused, dirty) = {
            manta_telemetry::span!("summary.validate");
            let prev_by_name: HashMap<u64, &ChunkEntry> = prev
                .entries(stage.tag())
                .map(|es| es.iter().map(|(h, e)| (*h, e)).collect())
                .unwrap_or_default();
            // Footprint validity memoized per interned list: chunks in
            // one call cluster share a footprint, so each distinct read
            // set is checked once per stage no matter how many chunks
            // cite it.
            let mut fp_ok: Vec<Option<bool>> = vec![None; prev.footprints.len()];
            let mut reused: Vec<(FuncId, ChunkEntry)> = Vec::new();
            let mut dirty: Vec<(FuncId, Vec<VarRef>)> = Vec::new();
            for chunk in chunks {
                let f = chunk[0].func;
                let nh = inputs.name_hash[f.index()];
                // Boundary-forced chunks recompute even when their read
                // footprint still validates: the interface-level points-to
                // change is not guaranteed to show up in the stage
                // fingerprints the footprint cites.
                let valid = if force_dirty.contains(&nh) {
                    None
                } else {
                    prev_by_name.get(&nh).copied().filter(|e| {
                        let idx = e.footprint as usize;
                        *fp_ok[idx].get_or_insert_with(|| {
                            prev.footprints[idx].iter().all(|&(h, fp)| {
                                inputs.by_name.get(&h).map(|g| in_fps[g.index()]) == Some(fp)
                            })
                        })
                    })
                };
                match valid {
                    Some(e) => reused.push((f, e.clone())),
                    None => dirty.push((f, chunk)),
                }
            }
            (reused, dirty)
        };
        manta_telemetry::counter("summary.hits", reused.len() as u64);
        manta_telemetry::counter("summary.recomputes", dirty.len() as u64);
        for (f, _) in &reused {
            report.reused.push(module.function(*f).name().to_string());
        }
        for (f, _) in &dirty {
            report
                .recomputed
                .push(module.function(*f).name().to_string());
        }

        // Recompute dirty chunks wavefront by wavefront against the
        // frozen pre-stage result, recording footprints.
        let levels = wavefront::group_by_level(dirty, |f: FuncId| level_of_func[f.index()]);
        let mut width_max = 0u64;
        for l in &levels {
            report.wavefront_widths.push(l.len());
            width_max = width_max.max(l.len() as u64);
        }
        if width_max > 0 {
            manta_telemetry::counter_set("summary.wavefront_width_max", width_max);
        }
        let frozen: &InferenceResult = &result;
        let raw = {
            manta_telemetry::span!("summary.recompute");
            wavefront::wavefront_dispatch(levels, "summary.wavefronts", |(f, chunk)| {
                let mut fp = Footprint::on(module.function_count());
                let (vars, sites) = match stage {
                    StageKind::Cs => {
                        let updates = match ctx_refine::refine_chunk(
                            analysis,
                            &reveals,
                            config,
                            frozen,
                            &Budget::unlimited(),
                            chunk,
                            &mut fp,
                        ) {
                            Ok(u) => u,
                            Err(_) => unreachable!("unlimited budget tripped"),
                        };
                        (updates, Vec::new())
                    }
                    StageKind::Fs => {
                        let out: FsChunkOut = match flow_refine::refine_chunk(
                            analysis,
                            &reveals,
                            config,
                            frozen,
                            cfgs.as_ref().expect("Cfgs built for FS stages"),
                            &Budget::unlimited(),
                            chunk,
                            &mut fp,
                        ) {
                            Ok(o) => o,
                            Err(_) => unreachable!("unlimited budget tripped"),
                        };
                        out
                    }
                };
                let footprint: Vec<(u64, u64)> = fp
                    .into_funcs()
                    .into_iter()
                    .map(|g| (inputs.name_hash[g.index()], in_fps[g.index()]))
                    .collect();
                let vars: Vec<(u32, TypeInterval)> =
                    vars.into_iter().map(|(v, i)| (v.value.0, i)).collect();
                let sites: Vec<(u32, u32, TypeInterval)> = sites
                    .into_iter()
                    .map(|((v, s), i)| (v.value.0, s.0, i))
                    .collect();
                (f, footprint, vars, sites)
            })
        };
        // Interning is sequential bookkeeping, so it happens after the
        // parallel dispatch rather than inside it.
        let computed: Vec<(FuncId, ChunkEntry)> = raw
            .into_iter()
            .map(|(f, footprint, vars, sites)| {
                let entry = ChunkEntry {
                    footprint: interner.intern(footprint),
                    vars,
                    sites,
                };
                (f, entry)
            })
            .collect();

        // Apply updates (keys are unique per chunk, so order between
        // replayed and recomputed chunks cannot matter), then classify —
        // exactly what `refine_budgeted` does after its own merge.
        manta_telemetry::span!("summary.apply");
        let mut applied_vars = 0u64;
        let mut applied_sites = 0u64;
        for (f, entry) in reused.iter().chain(computed.iter()) {
            for (v, i) in &entry.vars {
                result
                    .var_types
                    .insert(VarRef::new(*f, ValueId(*v)), i.clone());
                applied_vars += 1;
            }
            for (v, s, i) in &entry.sites {
                result
                    .site_types
                    .insert((VarRef::new(*f, ValueId(*v)), InstId(*s)), i.clone());
                applied_sites += 1;
            }
        }
        match stage {
            StageKind::Cs => manta_telemetry::counter("cs.refined", applied_vars),
            StageKind::Fs => manta_telemetry::counter("fs.site_types", applied_sites),
        }
        let counts = classify::classify(analysis, &mut result);
        result.stage_counts.push((stage.stage(), counts));

        // New state for this stage: replayed + recomputed entries, plus
        // previous entries for functions that still exist but had no
        // candidates this round (a later edit may revive them).
        // Replayed and carried entries cite the *previous* footprint
        // table, so their lists re-intern into the new one.
        let mut entries: Vec<(u64, ChunkEntry)> = Vec::new();
        let mut present: std::collections::HashSet<u64> = std::collections::HashSet::new();
        for (f, mut e) in reused {
            let nh = inputs.name_hash[f.index()];
            present.insert(nh);
            e.footprint = interner.intern(prev.footprints[e.footprint as usize].clone());
            entries.push((nh, e));
        }
        for (f, e) in computed {
            let nh = inputs.name_hash[f.index()];
            present.insert(nh);
            entries.push((nh, e));
        }
        if let Some(old) = prev.entries(stage.tag()) {
            for (nh, e) in old {
                if inputs.by_name.contains_key(nh) && !present.contains(nh) {
                    let mut e = e.clone();
                    e.footprint = interner.intern(prev.footprints[e.footprint as usize].clone());
                    entries.push((*nh, e));
                }
            }
        }
        entries.sort_by_key(|(nh, _)| *nh);
        new_state.stages.push((stage.tag(), entries));
    }

    result.config = *config;
    new_state.footprints = interner.table;
    new_state.boundary_fps = {
        let mut fps: Vec<(u64, u64)> = module
            .functions()
            .map(|f| {
                let i = f.id().index();
                (inputs.name_hash[i], boundary_now[i])
            })
            .collect();
        fps.sort_unstable();
        fps
    };
    let encoded = {
        manta_telemetry::span!("summary.encode");
        encode_state(&new_state)
    };
    (result, encoded, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::results_identical;
    use crate::Manta;
    use manta_ir::{BinOp, ModuleBuilder, Width};

    fn module(mul: bool) -> manta_ir::Module {
        let mut mb = ModuleBuilder::new("summ");
        let malloc = mb.extern_fn("malloc", &[], None);
        let (id_f, mut ib) = mb.function("id", &[Width::W64], Some(Width::W64));
        let x = ib.param(0);
        ib.ret(Some(x));
        mb.finish_function(ib);
        let (_c1, mut cb1) = mb.function("use_int", &[Width::W64], None);
        let n = cb1.param(0);
        let n2 = if mul {
            cb1.binop(BinOp::Mul, n, n, Width::W64)
        } else {
            cb1.binop(BinOp::Add, n, n, Width::W64)
        };
        let r1 = cb1.call(id_f, &[n2], Some(Width::W64)).unwrap();
        let s = cb1.alloca(8);
        cb1.store(s, r1);
        cb1.ret(None);
        mb.finish_function(cb1);
        let (_c2, mut cb2) = mb.function("use_ptr", &[], None);
        let k = cb2.const_int(16, Width::W64);
        let buf = cb2.call_extern(malloc, &[k], Some(Width::W64)).unwrap();
        let r2 = cb2.call(id_f, &[buf], Some(Width::W64)).unwrap();
        let v = cb2.load(r2, Width::W64);
        let _ = v;
        cb2.ret(None);
        mb.finish_function(cb2);
        mb.finish()
    }

    #[test]
    fn summary_solve_matches_full_pipeline_bit_identically() {
        for s in [
            Sensitivity::Fi,
            Sensitivity::FiFs,
            Sensitivity::FiCsFs,
            Sensitivity::FiFsCs,
        ] {
            let analysis = manta_analysis::ModuleAnalysis::build(module(true));
            let config = MantaConfig::with_sensitivity(s);
            let full = Manta::new(config).infer(&analysis);
            let (cold, state, _) = solve(&analysis, &config, None);
            assert!(results_identical(&full, &cold), "{s:?} cold");
            let (warm, _, report) = solve(&analysis, &config, Some(&state));
            assert!(results_identical(&full, &warm), "{s:?} warm");
            assert!(
                report.recomputed.is_empty(),
                "{s:?}: nothing changed, nothing should recompute: {report:?}"
            );
        }
    }

    #[test]
    fn edit_recomputes_only_footprint_dirty_chunks() {
        let config = MantaConfig::full();
        let before = manta_analysis::ModuleAnalysis::build(module(true));
        let (_, state, _) = solve(&before, &config, None);

        let after = manta_analysis::ModuleAnalysis::build(module(false));
        let full = Manta::new(config).infer(&after);
        let (incr, _, report) = solve(&after, &config, Some(&state));
        assert!(results_identical(&full, &incr), "edit parity");
        // `use_ptr` is untouched by the edit and shares no walk inputs
        // with `use_int`'s changed text, so its chunks must replay.
        assert!(
            !report.recomputed.contains(&"use_ptr".to_string()),
            "untouched function recomputed: {report:?}"
        );
    }

    #[test]
    fn corrupt_state_degrades_to_full_recompute() {
        let config = MantaConfig::full();
        let analysis = manta_analysis::ModuleAnalysis::build(module(true));
        let full = Manta::new(config).infer(&analysis);
        let (r, _, _) = solve(&analysis, &config, Some(b"garbage"));
        assert!(results_identical(&full, &r));
    }

    #[test]
    fn state_codec_roundtrips() {
        let config = MantaConfig::full();
        let analysis = manta_analysis::ModuleAnalysis::build(module(true));
        let (_, state, _) = solve(&analysis, &config, None);
        let decoded = decode_state(&state).unwrap();
        assert_eq!(encode_state(&decoded), state);
    }
}
