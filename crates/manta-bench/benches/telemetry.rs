//! Overhead of the telemetry layer on the mid-size pipeline.
//!
//! Two views, printed side by side:
//!
//! * **measured** — wall time of generate → build → infer with collection
//!   disabled vs enabled;
//! * **estimated disabled overhead** — the number of instrumentation call
//!   sites hit during one run, times the measured cost of a single
//!   disabled-path call. This is the honest "NullSink" figure: it isolates
//!   the early-return branch from run-to-run pipeline noise.
//!
//! The estimated disabled overhead must stay under 2% of the pipeline.
//! A third view times the same pipeline through a provenance-recording
//! and a non-recording engine, for information only.

use manta::{Engine, Manta, MantaConfig};
use manta_analysis::ModuleAnalysis;
use manta_bench::harness;
use manta_telemetry::{Counter, SpanReport};
use manta_workloads::{generator, PhenomenonMix};

fn pipeline(spec: &generator::GenSpec) -> usize {
    let g = generator::generate(spec);
    let analysis = ModuleAnalysis::build(g.module);
    let result = Manta::new(MantaConfig::full()).infer(&analysis);
    result.final_counts().total()
}

/// The same pipeline through an engine that does or does not record
/// type provenance (substrate derivations and the stage graph).
fn engine_pipeline(spec: &generator::GenSpec, provenance: bool) -> usize {
    let g = generator::generate(spec);
    let engine = Engine::builder()
        .config(MantaConfig::full())
        .provenance(provenance)
        .build()
        .expect("cacheless engine cannot fail to build");
    let (_, result) = engine
        .analyze_module(g.module)
        .expect("non-strict cannot fail");
    result.final_counts().total()
}

fn span_hits(spans: &[SpanReport]) -> u64 {
    spans.iter().map(|s| s.count + span_hits(&s.children)).sum()
}

fn main() {
    let spec = generator::GenSpec {
        name: "telemetry-bench".into(),
        functions: 40,
        mix: PhenomenonMix::balanced(),
        seed: 7,
    };

    manta_telemetry::set_enabled(false);
    let disabled_ns = harness::time(|| pipeline(&spec));

    manta_telemetry::set_enabled(true);
    manta_telemetry::reset();
    let enabled_ns = harness::time(|| pipeline(&spec));

    // One clean run to count how often each kind of instrumentation site
    // fires; each firing is one early-return branch when collection is off.
    // Summing counter *values* overcounts sites that add a large delta in
    // one call (e.g. `ddg.edges`), which only makes the estimate more
    // conservative.
    manta_telemetry::reset();
    pipeline(&spec);
    let report = manta_telemetry::report();
    let span_count = span_hits(&report.spans);
    let counter_count: u64 = report.counters.values().sum();

    // Micro-cost of one disabled-path call of each kind, net of the
    // measurement loop itself.
    manta_telemetry::set_enabled(false);
    static PROBE: Counter = Counter::new("bench.telemetry.probe");
    let baseline_ns = harness::time(|| std::hint::black_box(1u64));
    let counter_ns = (harness::time(|| PROBE.add(1)) - baseline_ns).max(0.0);
    let span_ns = (harness::time(|| {
        manta_telemetry::span!("bench-probe");
    }) - baseline_ns)
        .max(0.0);

    let est_overhead_ns = span_count as f64 * span_ns + counter_count as f64 * counter_ns;
    let est_pct = 100.0 * est_overhead_ns / disabled_ns;
    let meas_pct = 100.0 * (enabled_ns - disabled_ns) / disabled_ns;

    println!(
        "bench telemetry/pipeline-disabled          {:>12.3} ms",
        disabled_ns / 1e6
    );
    println!(
        "bench telemetry/pipeline-enabled           {:>12.3} ms",
        enabled_ns / 1e6
    );
    println!("bench telemetry/enabled-delta              {meas_pct:>11.2} %");
    println!("bench telemetry/disabled-span              {span_ns:>12.3} ns");
    println!("bench telemetry/disabled-counter           {counter_ns:>12.3} ns");
    println!("bench telemetry/span-hits                  {span_count:>12}");
    println!("bench telemetry/counter-hits               {counter_count:>12}");
    println!("bench telemetry/est-disabled-overhead      {est_pct:>11.3} %");
    assert!(
        est_pct < 2.0,
        "disabled telemetry must cost <2% of the pipeline, estimated {est_pct:.3}%"
    );
    println!("telemetry overhead OK (<2% disabled)");

    // Provenance legs, driven through the engine flag. The on/off wall
    // delta is printed for information only: recording derivations is
    // allowed to cost, and a non-recording engine carries a `false`
    // field rather than probing a process-wide switch.
    let prov_off_ns = harness::time(|| engine_pipeline(&spec, false));
    let prov_on_ns = harness::time(|| engine_pipeline(&spec, true));
    let prov_meas_pct = 100.0 * (prov_on_ns - prov_off_ns) / prov_off_ns;
    println!(
        "bench telemetry/provenance-off             {:>12.3} ms",
        prov_off_ns / 1e6
    );
    println!(
        "bench telemetry/provenance-on              {:>12.3} ms",
        prov_on_ns / 1e6
    );
    println!("bench telemetry/provenance-on-delta        {prov_meas_pct:>11.2} %");
}
