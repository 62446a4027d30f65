//! Shared helpers for the Manta benchmark harness.

pub mod harness;
pub mod host;

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fresh, empty temp directory unique to this process and call:
/// keyed by pid, `tag` and a per-process counter, so concurrent bench
/// processes and repeated calls never share a store.
#[must_use]
pub fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "manta-bench-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}
