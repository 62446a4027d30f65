//! The batch workloads: one caller carries every module from its input
//! bytes or text to final verdicts, cold and in order, pass after pass,
//! with the thread pool at its default size.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use manta::Engine;

use crate::inputs::{Input, Unit};
use crate::pipeline::{
    config, digest, run_engine, run_traced, x86_insts, Counts, Quality, Verdicts,
};
use crate::report::{median, peak_rss_mib, percentile, reset_peak_rss, set_layers, Outcome};
use crate::trace::Tracer;
use crate::{alloc, more_setups, Args};

/// The first pass's digest and scores per module, which every later
/// pass (engine or traced) must reproduce.
struct Expected {
    first: Vec<Option<(u64, Quality)>>,
}

impl Expected {
    fn check(&mut self, i: usize, unit: &Unit, v: &Verdicts) -> Result<(), String> {
        let got = (digest(v), Quality::score(unit, v));
        match &self.first[i] {
            None => {
                self.first[i] = Some(got);
                Ok(())
            }
            Some(want) if *want == got => Ok(()),
            Some(_) => Err("verdicts differ from the first pass".to_string()),
        }
    }

    fn quality(&self) -> Quality {
        let mut q = Quality::default();
        for (_, unit_q) in self.first.iter().flatten() {
            q.merge(unit_q);
        }
        q
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_string())
}

/// One engine pass over every module. Returns each module's latency (ms),
/// `None` where it failed, the functions of the modules that passed, and
/// the pass's busy time (ms) over all modules.
fn engine_pass(
    engine: &Engine,
    units: &[Unit],
    expected: &mut Expected,
    out: &mut Outcome,
) -> (Vec<Option<f64>>, usize, f64) {
    let (mut latencies, mut funcs, mut busy) = (Vec::with_capacity(units.len()), 0, 0.0);
    for (i, unit) in units.iter().enumerate() {
        out.attempted += 1;
        let start = Instant::now();
        let verdicts = catch_unwind(AssertUnwindSafe(|| run_engine(engine, &unit.input)));
        let ms = start.elapsed().as_secs_f64() * 1e3;
        busy += ms;
        match verdicts
            .map_err(panic_message)
            .and_then(|r| r)
            .and_then(|v| expected.check(i, unit, &v))
        {
            Ok(()) => {
                latencies.push(Some(ms));
                funcs += unit.functions;
            }
            Err(e) => {
                latencies.push(None);
                out.fail(format!("{}: {e}", unit.name));
            }
        }
    }
    (latencies, funcs, busy)
}

/// Runs a batch workload over the modules `setup` generates.
pub fn run(
    args: &Args,
    setup: impl Fn(u64) -> Result<Vec<Unit>, String>,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut units = Vec::new();
    while more_setups(&setup_s) {
        let start = Instant::now();
        units = setup(args.seed)?;
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let engine = Engine::new(config());
    let mut expected = Expected {
        first: vec![None; units.len()],
    };
    if args.trace {
        traced(args, &units, &engine, &mut expected, &mut out);
        return Ok(out);
    }

    reset_peak_rss();
    let mut by_module: Vec<Vec<f64>> = vec![Vec::new(); units.len()];
    let (mut ok, mut funcs, mut busy) = (0usize, 0, 0.0);
    let start = Instant::now();
    let mut passes = 0;
    while passes == 0 || start.elapsed().as_secs_f64() < args.seconds {
        let (lat, f, b) = engine_pass(&engine, &units, &mut expected, &mut out);
        for (module, ms) in by_module.iter_mut().zip(lat) {
            if let Some(ms) = ms {
                module.push(ms);
                ok += 1;
            }
        }
        funcs += f;
        busy += b;
        passes += 1;
        if out.failed == out.attempted {
            break;
        }
    }
    // A module's latency is its median over passes; the percentiles are
    // taken across modules, so one disturbed pass cannot move them.
    let mut latencies: Vec<f64> = by_module
        .iter_mut()
        .filter(|m| !m.is_empty())
        .map(|m| median(m))
        .collect();
    let busy_s = busy / 1e3;
    out.set("setup_s", median(&mut setup_s));
    out.set("funcs_per_s", funcs as f64 / busy_s);
    out.set("requests_per_s", ok as f64 / busy_s);
    out.set("latency_p50_ms", percentile(&mut latencies, 0.5));
    out.set("latency_p90_ms", percentile(&mut latencies, 0.9));
    out.set("peak_rss_mib", peak_rss_mib().ok_or("no peak RSS")?);
    out.set(
        "ok_share",
        (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64,
    );
    expected.quality().report(&mut out);
    Ok(out)
}

/// One pass of one traced call per layer over every module; the verdicts
/// must match the engine's. Heap counting slows allocation, so a pass
/// with `count_heap` on serves for heap peaks only.
fn traced_pass(
    tracer: &mut Tracer,
    pass: u32,
    units: &[Unit],
    count_heap: bool,
    expected: &mut Expected,
    out: &mut Outcome,
) -> Counts {
    tracer.set_pass(pass);
    let mut counts = Counts::default();
    for (i, unit) in units.iter().enumerate() {
        out.attempted += 1;
        let root = tracer.open("module", i as u32);
        alloc::set_counting(count_heap);
        let verdicts = catch_unwind(AssertUnwindSafe(|| {
            run_traced(tracer, root, &unit.input, &mut counts)
        }));
        alloc::set_counting(false);
        tracer.close(root);
        if let Err(e) = verdicts
            .map_err(panic_message)
            .and_then(|r| r)
            .and_then(|v| expected.check(i, unit, &v))
        {
            out.fail(format!("{} (traced): {e}", unit.name));
        }
    }
    counts
}

/// The traced run: plain engine passes alternate with traced passes, and
/// one more traced pass with heap counting on gives the heap peaks.
fn traced(
    args: &Args,
    units: &[Unit],
    engine: &Engine,
    expected: &mut Expected,
    out: &mut Outcome,
) {
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);
    let mut heap = Tracer::new(epoch);
    let mut plain_ms = Vec::new();
    let mut counts = Counts::default();
    let mut pass = 0u32;
    while pass == 0 || epoch.elapsed().as_secs_f64() < args.seconds {
        let (_, _, busy) = engine_pass(engine, units, expected, out);
        plain_ms.push(busy);
        if pass == 0 {
            traced_pass(&mut heap, pass, units, true, expected, out);
        }
        counts = traced_pass(&mut tracer, pass, units, false, expected, out);
        pass += 1;
    }
    set_layers(out, &tracer.layers(), &heap.layers());
    counts.report(out);
    let bytes = |want: fn(&Input) -> bool| {
        let total: usize = units
            .iter()
            .filter(|u| want(&u.input))
            .map(|u| u.input.size())
            .sum();
        total as f64
    };
    out.set("x86.bytes", bytes(|i| matches!(i, Input::X86(_))));
    out.set("ir.bytes", bytes(|i| matches!(i, Input::Ir(_))));
    let insts: usize = units
        .iter()
        .map(|u| match &u.input {
            Input::X86(b) => x86_insts(b),
            _ => 0,
        })
        .sum();
    out.set("x86.insts", insts as f64);
    let mut traced_ms = tracer.pass_ms();
    let traced_median = median(&mut traced_ms);
    out.set("pass.ms", traced_median);
    out.set(
        "trace.overhead_share",
        traced_median / median(&mut plain_ms) - 1.0,
    );
    tracer.absorb(heap);
    crate::write_trace(args, &tracer);
}
