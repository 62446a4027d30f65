//! Bit-identity of the staged [`Engine`] pipeline across the ways it
//! can be driven: pool sizes, the single-module entrypoint, and
//! provenance recording on or off, cold and warm through the cache.
//! Identity is checked through [`manta::cache::results_identical`], i.e.
//! over the full canonical encoding (which includes degradations).

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};

use manta::cache::results_identical;
use manta::{AnalysisCache, Engine, Manta, MantaConfig};
use manta_analysis::ModuleAnalysis;
use manta_resilience::BudgetSpec;
use manta_workloads::{PhenomenonMix, ProjectSpec};

/// Serializes tests that flip the process-global pool size.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Restores the auto thread count even when an assertion panics.
struct ThreadGuard;

impl Drop for ThreadGuard {
    fn drop(&mut self) {
        manta_parallel::set_threads(0);
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("manta-parity-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A small multi-project suite: phenomenon-diverse generated programs,
/// prepared through the checked loader the eval harness uses.
fn suite() -> Vec<ModuleAnalysis> {
    let specs: Vec<ProjectSpec> = ["nacre", "opal", "pyrite", "quartz"]
        .iter()
        .enumerate()
        .map(|(i, name)| ProjectSpec {
            name: (*name).to_string(),
            kloc: 1.0,
            functions: 5,
            mix: PhenomenonMix::balanced(),
            seed: 7000 + i as u64,
        })
        .collect();
    let load = manta_eval::load_specs_checked(specs, BudgetSpec::default());
    assert!(load.failures.is_empty(), "suite must build cleanly");
    load.projects.into_iter().map(|p| p.analysis).collect()
}

/// Engine results are invariant under the pool size, matching the
/// legacy single-path results computed at the default thread count.
#[test]
fn engine_results_are_thread_count_invariant() {
    let _l = lock();
    let _restore = ThreadGuard;
    let suite = suite();
    let engine = Engine::new(MantaConfig::full());
    let manta = Manta::new(MantaConfig::full());
    let baselines: Vec<_> = suite.iter().map(|a| manta.infer(a)).collect();
    for threads in [1usize, 2, 8] {
        manta_parallel::set_threads(threads);
        for (analysis, baseline) in suite.iter().zip(&baselines) {
            let r = engine.analyze(analysis).expect("non-strict cannot fail");
            assert!(
                results_identical(&r, baseline),
                "threads={threads}: engine result diverges from legacy baseline"
            );
        }
    }
}

/// `analyze_module` equals substrate build + analyze.
#[test]
fn module_entrypoint_matches_its_composite() {
    let suite = suite();
    let engine = Engine::new(MantaConfig::full());
    let module = suite[0].module().clone();
    let (analysis, result) = engine
        .analyze_module(module)
        .expect("non-strict cannot fail");
    let direct = engine.analyze(&analysis).expect("non-strict cannot fail");
    assert!(
        results_identical(&result, &direct),
        "analyze_module != build_substrate + analyze"
    );
}

/// Provenance recording must be a pure observer: results from a
/// provenance-enabled engine are bit-identical to the plain engine's,
/// cold and warm through the cache, and the persisted graph round-trips
/// byte-for-byte.
#[test]
fn provenance_recording_never_perturbs_results() {
    for (i, analysis) in suite().iter().enumerate() {
        let base = Engine::new(MantaConfig::full())
            .analyze(analysis)
            .expect("non-strict cannot fail");
        let engine = Engine::builder()
            .config(MantaConfig::full())
            .provenance(true)
            .build()
            .expect("cacheless engine cannot fail to build");
        let (observed, graph) = engine
            .analyze_explained(analysis)
            .expect("non-strict cannot fail");
        assert!(
            results_identical(&base, &observed),
            "project {i}: provenance recording changed the result bytes"
        );
        let graph = graph.expect("provenance-enabled engine returns a graph");
        assert!(!graph.is_empty(), "project {i}: graph must record facts");
    }

    // Cached: the graph persists next to the result; a warm hit serves
    // byte-identical payloads for both.
    let dir = temp_dir("prov");
    let cache = std::sync::Arc::new(AnalysisCache::open(&dir).expect("open cache"));
    let engine = Engine::builder()
        .config(MantaConfig::full())
        .provenance(true)
        .cache(cache)
        .build()
        .expect("prebuilt cache cannot fail to attach");
    let analysis = &suite()[0];
    let (cold_res, cold_graph) = engine
        .analyze_explained(analysis)
        .expect("non-strict cannot fail");
    let (warm_res, warm_graph) = engine
        .analyze_explained(analysis)
        .expect("non-strict cannot fail");
    assert!(results_identical(&cold_res, &warm_res));
    assert_eq!(
        cold_graph.expect("cold graph").encode(),
        warm_graph.expect("warm graph").encode(),
        "warm graph must be byte-identical to the cold one"
    );
    let plain = Engine::new(MantaConfig::full())
        .analyze(analysis)
        .expect("non-strict cannot fail");
    assert!(
        results_identical(&plain, &cold_res),
        "cached provenance run must match the plain engine"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
