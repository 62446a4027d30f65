//! Host metadata stamped into every `BENCH_*.json` baseline.
//!
//! The regression guards in `bench_perf --check` and
//! `bench_incremental --check` skip thread-scaling comparisons on
//! underpowered hosts; recording the core count and the exact skip
//! reasons next to the numbers makes a committed baseline
//! self-describing — a reader (or a later `--check` run) can tell which
//! guards were live when it was recorded.

use manta_store::json::JsonWriter;

/// What the recording host looked like when a baseline was written.
#[derive(Clone, Debug)]
pub struct HostMeta {
    /// `available_parallelism` at measurement time.
    pub cores: usize,
    /// Worker threads the `manta-parallel` pool resolves to (after any
    /// `--threads`/`MANTA_THREADS` override; equals `cores` by default).
    pub effective_threads: usize,
    /// Human-readable reasons for every thread-dependent guard this
    /// host cannot exercise. Empty on a full-size host.
    pub guard_skips: Vec<String>,
}

/// Probes the current host and derives the guard-skip reasons, mirroring
/// the conditions `bench_perf`'s `--check` mode applies.
#[must_use]
pub fn host_meta() -> HostMeta {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut guard_skips = Vec::new();
    if cores <= 1 {
        guard_skips.push("thread-scaling guard skipped: single-core host".to_string());
    }
    HostMeta {
        cores,
        effective_threads: manta_parallel::threads(),
        guard_skips,
    }
}

/// Writes `"host": {…}` into an already-open JSON object.
pub fn write_host(w: &mut JsonWriter, meta: &HostMeta) {
    w.key("host");
    w.begin_object();
    w.key("cores");
    w.uint(meta.cores as u64);
    w.key("effective_threads");
    w.uint(meta.effective_threads as u64);
    w.key("guard_skips");
    w.begin_array();
    for reason in &meta.guard_skips {
        w.string(reason);
    }
    w.end_array();
    w.end_object();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_object_is_valid_json_and_consistent() {
        let meta = host_meta();
        assert!(meta.cores >= 1);
        assert!(meta.effective_threads >= 1);
        let mut w = JsonWriter::new();
        w.begin_object();
        write_host(&mut w, &meta);
        w.end_object();
        let v = manta_store::json::parse(&w.finish()).expect("valid JSON");
        let host = v.get("host").unwrap();
        assert_eq!(host.get("cores").unwrap().as_f64(), Some(meta.cores as f64));
        let skips = host.get("guard_skips").unwrap().as_array().unwrap();
        assert_eq!(skips.len(), meta.guard_skips.len());
        if meta.cores > 1 {
            assert!(skips.is_empty(), "multi-core hosts skip nothing");
        } else {
            assert!(!skips.is_empty(), "small hosts must record why");
        }
    }
}
