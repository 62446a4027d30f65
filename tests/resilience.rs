//! Resilience integration tests spanning the whole pipeline.
//!
//! Two suites, both deterministic:
//!
//! * **Parser round-trip fuzzing** — 1000 seeded mutations (truncation,
//!   line deletion/duplication, character noise) of printed IR. The
//!   strict parser must return a structured error or a module, the
//!   recovering parser must always return something, and every mutant
//!   that still verifies must run through the budgeted analysis and the
//!   resilient inference cascade without panicking.
//! * **Fault-injection matrix** — every isolation site in the substrate,
//!   the cascade and the eval runner, armed with each fault kind. The
//!   pipeline must convert the fault into a structured error or a
//!   degradation record while keeping the last completed tier usable.
//!
//! The fault plan and the telemetry collector are process-global, so all
//! tests in this file serialize on one lock.

use std::sync::{Mutex, MutexGuard, PoisonError};

use manta::{Engine, Manta, MantaConfig, Sensitivity};
use manta_analysis::ModuleAnalysis;
use manta_ir::parser::{parse_module, parse_module_recovering};
use manta_ir::printer::print_module;
use manta_ir::verify::verify_module;
use manta_resilience::{
    Budget, BudgetSpec, DegradationKind, Fault, FaultArming, FaultPlan, MantaError,
};
use manta_workloads::generator::{self, GenSpec};
use manta_workloads::rng::ChaCha8Rng;
use manta_workloads::{PhenomenonMix, ProjectSpec};

/// Serializes every test here: they share the process-global fault plan
/// and telemetry collector.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A small generated workload whose printed IR seeds the fuzzer.
fn fuzz_program() -> generator::GeneratedProgram {
    generator::generate(&GenSpec {
        name: "fuzz".to_string(),
        functions: 3,
        mix: PhenomenonMix::balanced(),
        seed: 0xF00D,
    })
}

/// Characters the mutation operators splice in: IR punctuation and
/// identifier fragments, biased toward "almost valid" corruption.
const GARBAGE: &[char] = &[
    '{', '}', '(', ')', '=', ',', ':', '0', '9', 'v', 'x', '@', '*', ' ', '\n', '%', '-',
];

fn truncate_at(rng: &mut ChaCha8Rng, text: &str) -> String {
    let chars: Vec<char> = text.chars().collect();
    if chars.is_empty() {
        return String::new();
    }
    chars[..rng.gen_range(0..chars.len())].iter().collect()
}

fn drop_line(rng: &mut ChaCha8Rng, text: &str) -> String {
    let lines: Vec<&str> = text.lines().collect();
    if lines.is_empty() {
        return text.to_string();
    }
    let cut = rng.gen_range(0..lines.len());
    lines
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != cut)
        .map(|(_, l)| *l)
        .collect::<Vec<_>>()
        .join("\n")
}

fn dup_line(rng: &mut ChaCha8Rng, text: &str) -> String {
    let lines: Vec<&str> = text.lines().collect();
    if lines.is_empty() {
        return text.to_string();
    }
    let dup = rng.gen_range(0..lines.len());
    let mut out: Vec<&str> = Vec::with_capacity(lines.len() + 1);
    for (i, line) in lines.iter().enumerate() {
        out.push(line);
        if i == dup {
            out.push(line);
        }
    }
    out.join("\n")
}

fn overwrite_char(rng: &mut ChaCha8Rng, text: &str) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    if chars.is_empty() {
        return String::new();
    }
    let i = rng.gen_range(0..chars.len());
    chars[i] = GARBAGE[rng.gen_range(0..GARBAGE.len())];
    chars.into_iter().collect()
}

fn swap_chars(rng: &mut ChaCha8Rng, text: &str) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    if chars.len() < 2 {
        return text.to_string();
    }
    let i = rng.gen_range(0..chars.len());
    let j = rng.gen_range(0..chars.len());
    chars.swap(i, j);
    chars.into_iter().collect()
}

fn insert_char(rng: &mut ChaCha8Rng, text: &str) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    let i = rng.gen_range(0..=chars.len());
    chars.insert(i, GARBAGE[rng.gen_range(0..GARBAGE.len())]);
    chars.into_iter().collect()
}

/// Applies 1–3 random mutation operators to `base`.
fn mutate(rng: &mut ChaCha8Rng, base: &str) -> String {
    let mut text = base.to_string();
    for _ in 0..rng.gen_range(1..=3usize) {
        text = match rng.gen_range(0..6u32) {
            0 => truncate_at(rng, &text),
            1 => drop_line(rng, &text),
            2 => dup_line(rng, &text),
            3 => overwrite_char(rng, &text),
            4 => swap_chars(rng, &text),
            _ => insert_char(rng, &text),
        };
    }
    text
}

/// Runs one IR text through the full pipeline: strict parse, recovering
/// parse, verify, budgeted analysis, resilient inference. Returns what
/// stage the text reached. Every failure mode must be a structured
/// `Err`/degradation — a panic anywhere fails the test.
fn drive(rng: &mut ChaCha8Rng, text: &str) -> &'static str {
    // The recovering parser must always produce a module + diagnostics.
    let (_recovered, _errors) = parse_module_recovering(text);
    let module = match parse_module(text) {
        Ok(m) => m,
        Err(_) => return "parse-error",
    };
    if verify_module(&module).is_err() {
        return "verify-reject";
    }
    // Half the survivors run under a tight random fuel budget so the
    // degradation paths get fuzzed too, not just the happy path.
    let budget = if rng.gen_bool(0.5) {
        Budget::unlimited()
    } else {
        Budget::with_fuel(rng.gen_range(0..4096u64))
    };
    let analysis = match ModuleAnalysis::build_budgeted(module, false, &budget) {
        Ok(a) => a,
        Err(_) => return "analysis-degraded",
    };
    let result = Engine::new(MantaConfig::full())
        .analyze_with_budget(&analysis, &budget)
        .expect("non-strict analyze cannot fail");
    if result.is_degraded() {
        "inference-degraded"
    } else {
        "complete"
    }
}

#[test]
fn mutated_ir_never_panics_through_the_pipeline() {
    let _l = lock();
    let base = print_module(&fuzz_program().module);
    // The pristine text must survive end to end, proving the harness
    // exercises the real pipeline and not just early parse rejections.
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    assert_eq!(drive(&mut rng, &base), "complete");

    let mut outcomes: std::collections::BTreeMap<&str, usize> = Default::default();
    for seed in 0..1000u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let text = mutate(&mut rng, &base);
        *outcomes.entry(drive(&mut rng, &text)).or_default() += 1;
    }
    // Sanity on the mutation space: the operators must actually break
    // parsing some of the time, or the fuzz is a no-op.
    assert!(
        outcomes.get("parse-error").copied().unwrap_or(0) > 0,
        "no mutant broke the parser: {outcomes:?}"
    );
    assert_eq!(outcomes.values().sum::<usize>(), 1000, "{outcomes:?}");
}

#[test]
fn injected_faults_in_every_analysis_stage_surface_as_structured_errors() {
    let _l = lock();
    for site in [
        "analysis.preprocess",
        "analysis.callgraph",
        "analysis.pointsto",
        "analysis.ddg",
    ] {
        for fault in [Fault::Panic, Fault::ExhaustBudget] {
            let _guard = FaultPlan::new()
                .arm(site, fault, FaultArming::Always)
                .install();
            let budget = Budget::unlimited();
            let module = fuzz_program().module;
            let err = ModuleAnalysis::build_budgeted(module, false, &budget)
                .expect_err("armed fault must fail the build");
            match fault {
                Fault::Panic => {
                    assert!(matches!(err, MantaError::Panic { .. }), "{site}: {err:?}")
                }
                Fault::ExhaustBudget => {
                    assert!(matches!(err, MantaError::Budget { .. }), "{site}: {err:?}")
                }
            }
            let (MantaError::Panic { stage, .. } | MantaError::Budget { stage, .. }) = &err else {
                unreachable!()
            };
            assert_eq!(stage, site, "fault attributed to the armed stage");
            assert_eq!(
                DegradationKind::from_error(&err),
                DegradationKind::InjectedFault
            );
        }
    }
}

#[test]
fn injected_faults_in_refinement_keep_the_last_completed_tier() {
    let _l = lock();
    let analysis = ModuleAnalysis::build(fuzz_program().module);
    let engine = Engine::new(MantaConfig::full());
    let fi_baseline = Manta::new(MantaConfig::with_sensitivity(Sensitivity::Fi)).infer(&analysis);
    for (site, completed) in [("infer.cs", "FI"), ("infer.fs", "FI+CS")] {
        for fault in [Fault::Panic, Fault::ExhaustBudget] {
            let _guard = FaultPlan::new()
                .arm(site, fault, FaultArming::Always)
                .install();
            let result = engine
                .analyze_with_budget(&analysis, &Budget::unlimited())
                .expect("non-strict analyze cannot fail");
            assert_eq!(result.degradations.len(), 1, "{site}/{fault:?}");
            let d = &result.degradations[0];
            assert_eq!(d.stage, site);
            assert_eq!(d.completed, completed);
            assert_eq!(d.kind, DegradationKind::InjectedFault);
            // The result stays usable: the tiers below the faulted stage
            // are intact, so the totals match a clean lower-tier run.
            assert_eq!(
                result.final_counts().total(),
                fi_baseline.final_counts().total(),
                "{site}/{fault:?}"
            );
            if site == "infer.cs" {
                // CS faulted on its first step: the kept maps are the
                // flow-insensitive tier, bit for bit.
                assert_eq!(result.stage_counts, fi_baseline.stage_counts);
            }
        }
    }
}

#[test]
fn injected_fault_in_the_base_stage_yields_an_empty_degraded_result() {
    let _l = lock();
    let analysis = ModuleAnalysis::build(fuzz_program().module);
    let engine = Engine::new(MantaConfig::full());
    for fault in [Fault::Panic, Fault::ExhaustBudget] {
        let _guard = FaultPlan::new()
            .arm("infer.fi", fault, FaultArming::Always)
            .install();
        let result = engine
            .analyze_with_budget(&analysis, &Budget::unlimited())
            .expect("non-strict analyze cannot fail");
        assert_eq!(result.degradations.len(), 1, "{fault:?}");
        assert_eq!(result.degradations[0].stage, "infer.fi");
        assert_eq!(result.degradations[0].completed, "none");
        assert_eq!(result.degradations[0].kind, DegradationKind::InjectedFault);
        assert_eq!(result.final_counts().total(), 0, "{fault:?}");
    }
}

#[test]
fn strict_mode_propagates_an_injected_fault_as_an_error() {
    let _l = lock();
    let analysis = ModuleAnalysis::build(fuzz_program().module);
    let engine = Engine::builder()
        .config(MantaConfig::full())
        .strict(true)
        .build()
        .expect("cacheless engine cannot fail to build");
    let _guard = FaultPlan::new()
        .arm("infer.cs", Fault::Panic, FaultArming::Always)
        .install();
    let err = engine
        .analyze_with_budget(&analysis, &Budget::unlimited())
        .expect_err("strict mode must not degrade");
    match err {
        MantaError::Panic { stage, .. } => assert_eq!(stage, "infer.cs"),
        other => panic!("expected a caught panic, got {other}"),
    }
}

#[test]
fn budget_exhaustion_in_one_eval_project_spares_the_rest() {
    let _l = lock();
    let specs: Vec<ProjectSpec> = ["alpha", "beta", "gamma"]
        .iter()
        .enumerate()
        .map(|(i, name)| ProjectSpec {
            name: (*name).to_string(),
            kloc: 1.0,
            functions: 4,
            mix: PhenomenonMix::balanced(),
            seed: 31 + i as u64,
        })
        .collect();
    let _guard = FaultPlan::new()
        .arm(
            "eval.project:beta",
            Fault::ExhaustBudget,
            FaultArming::Always,
        )
        .install();
    let load = manta_eval::load_specs_checked(specs, BudgetSpec::default());
    assert_eq!(load.projects.len(), 2, "alpha and gamma must survive");
    assert_eq!(load.failures.len(), 1);
    let f = &load.failures[0];
    assert_eq!(f.name, "beta");
    // The exhaustion lands on the first budgeted stage inside the build.
    assert!(
        matches!(f.error, MantaError::Budget { .. }),
        "{:?}",
        f.error
    );
    assert_eq!(f.degradation.kind, DegradationKind::InjectedFault);
}

#[test]
fn degradations_and_caught_panics_reach_the_telemetry_counters() {
    let _l = lock();
    manta_telemetry::set_enabled(true);
    manta_telemetry::reset();
    let analysis = ModuleAnalysis::build(fuzz_program().module);
    let engine = Engine::new(MantaConfig::full());
    {
        let _guard = FaultPlan::new()
            .arm("infer.cs", Fault::Panic, FaultArming::Always)
            .install();
        let r = engine
            .analyze_with_budget(&analysis, &Budget::unlimited())
            .expect("non-strict analyze cannot fail");
        assert!(r.is_degraded());
    }
    let r = engine
        .analyze_with_budget(&analysis, &Budget::with_fuel(0))
        .expect("non-strict analyze cannot fail");
    assert!(r.is_degraded());
    let report = manta_telemetry::report();
    let count = |name: &str| report.counters.get(name).copied().unwrap_or(0);
    assert!(
        count("resilience.degradations") >= 2,
        "{:?}",
        report.counters
    );
    assert!(
        count("resilience.panics_caught") >= 1,
        "{:?}",
        report.counters
    );
    assert!(
        count("resilience.budget_exhausted") >= 1,
        "{:?}",
        report.counters
    );
    assert!(
        count("resilience.faults_fired") >= 1,
        "{:?}",
        report.counters
    );
    manta_telemetry::set_enabled(false);
}
