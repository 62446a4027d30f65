//! Metric catalogue, summary statistics and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit, higher is better)`. Every workload
/// reports every one of them.
pub const END_TO_END: &[(&str, &str, bool)] = &[
    ("setup_s", "s", false),
    ("funcs_per_s", "functions/s", true),
    ("requests_per_s", "req/s", true),
    ("latency_p50_ms", "ms", false),
    ("latency_p90_ms", "ms", false),
    ("peak_rss_mib", "MiB", false),
    ("ok_share", "fraction", true),
    ("type_precision", "fraction", true),
    ("type_recall", "fraction", true),
    ("icall_precision", "fraction", true),
    ("icall_recall", "fraction", true),
    ("bug_precision", "fraction", true),
    ("bug_recall", "fraction", true),
];

/// The layers spans are recorded around, in pipeline order. Each reports
/// its share of the traced pass rather than milliseconds, so a layer a
/// workload never calls reads a share of 0, not a constant time.
pub const LAYERS: &[&str] = &[
    "x86.lift",
    "ir.parse",
    "isa.asm_lift",
    "analysis.preprocess",
    "analysis.callgraph",
    "analysis.pointsto",
    "analysis.ddg",
    "manta.reveal",
    "manta.fi",
    "manta.cs",
    "manta.fs",
    "clients.checkers",
    "clients.icall",
    "store",
];

/// Per-layer counts and ratios beyond each layer's `.share` and
/// `.peak_heap_mib`: `(name, unit, higher is better)`.
pub const LAYER_COUNTS: &[(&str, &str, bool)] = &[
    ("x86.bytes", "bytes", true),
    ("x86.insts", "count", true),
    ("ir.bytes", "bytes", true),
    ("isa.bytes", "bytes", true),
    ("analysis.ddg_edges", "count", false),
    ("analysis.pts_max", "count", false),
    ("manta.reveal_sites", "count", true),
    ("manta.over_after_fi", "count", false),
    ("manta.over_after_cs", "count", false),
    ("manta.over_after_fs", "count", false),
    ("manta.fs_resolved_ratio", "fraction", true),
    ("clients.slicer_visits", "count", false),
    ("clients.reports", "count", false),
    ("clients.icall_sites", "count", true),
    ("clients.icall_kept_ratio", "fraction", false),
    ("store.hit_ratio", "fraction", true),
    ("store.entries", "count", false),
    ("store.disk_bytes", "bytes", false),
    ("serve.client.peak_heap_mib", "MiB", false),
    ("serve.overhead_share", "fraction", false),
    ("serve.overloaded", "count", false),
    ("serve.bytes_in", "bytes", false),
    ("serve.bytes_out", "bytes", false),
    ("pass.ms", "ms", false),
    ("trace.overhead_share", "fraction", false),
];

/// Every per-layer metric: `(name, unit, higher is better)`.
pub fn per_layer() -> Vec<(String, &'static str, bool)> {
    let mut out = Vec::new();
    for layer in LAYERS {
        out.push((format!("{layer}.share"), "fraction", false));
        out.push((format!("{layer}.peak_heap_mib"), "MiB", false));
    }
    out.extend(
        LAYER_COUNTS
            .iter()
            .map(|&(name, unit, higher)| (name.to_string(), unit, higher)),
    );
    out
}

/// The outcome of one run.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: modules analysed or requests sent.
    pub attempted: u64,
    /// Operations that errored, panicked, degraded, were refused or
    /// failed an output check.
    pub failed: u64,
    /// Metric values by name. Names in the printed catalogue that are
    /// missing here read 0 (a layer the workload never calls).
    pub values: BTreeMap<String, f64>,
    /// Why operations failed (first few) and other remarks.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Sets one metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Counts one failed operation and keeps the first reasons.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.notes.len() < 20 {
            self.notes.push(why);
        }
    }

    /// Prints the catalogue `metrics` as a table on stderr and the result
    /// object as the last line of stdout.
    pub fn print(&self, metrics: &[(String, &str, bool)]) {
        for note in &self.notes {
            eprintln!("note: {note}");
        }
        let mut json = String::new();
        let mut all_finite = true;
        for (i, (name, unit, higher)) in metrics.iter().enumerate() {
            let value = self.values.get(name).copied().unwrap_or(0.0);
            all_finite &= value.is_finite();
            let direction = if *higher { "higher" } else { "lower" };
            eprintln!("{name:<32} {value:>16.6} {unit:<12} {direction} is better");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                if value.is_finite() { value } else { 0.0 }
            );
        }
        let correct = self.failed == 0 && self.attempted > 0 && all_finite;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.attempted, self.failed
        );
    }
}

/// Median of `values` (sorts them); 0 for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

/// Percentile `q` in `[0, 1]` of `values`, interpolated linearly between
/// the two nearest ranks (sorts them); 0 for an empty slice.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let h = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let (lo, hi) = (h.floor() as usize, h.ceil() as usize);
    values[lo] + (h - lo as f64) * (values[hi] - values[lo])
}

const MIB: f64 = 1024.0 * 1024.0;

/// Bytes as MiB.
pub fn mib(bytes: usize) -> f64 {
    bytes as f64 / MIB
}

/// Records each layer's share of the busy time in one pass (from the
/// per-pass medians in `times`) and its largest heap rise from `heap`.
pub fn set_layers(
    out: &mut Outcome,
    times: &BTreeMap<&'static str, (f64, usize)>,
    heap: &BTreeMap<&'static str, (f64, usize)>,
) {
    let total: f64 = times.values().map(|&(ms, _)| ms).sum();
    for (layer, &(ms, _)) in times {
        let peak = heap.get(layer).map_or(0, |&(_, peak)| peak);
        out.set(format!("{layer}.share"), ms / total);
        out.set(format!("{layer}.peak_heap_mib"), mib(peak));
    }
}

/// Peak resident set of this process since the last [`reset_peak_rss`],
/// in MiB (Linux `VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Restarts the peak-resident-set window at the current resident set
/// (Linux `clear_refs` mode 5). Best effort: without it the peak also
/// covers set-up.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}
