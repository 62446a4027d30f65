//! The repository's benchmark: carries generated programs from input
//! bytes or text to verdicts through the public API, checks every output
//! against ground truth, and prints each metric by name, unit and
//! direction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload projects-x86 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! traced variant and prints the per-layer metrics, writing its spans to
//! `.perfbench/traces/`. The last line of stdout is the result object;
//! a readable table goes to stderr. `perfbench/README.md` describes the
//! workloads and metrics.

mod alloc;
mod batch;
mod inputs;
mod pipeline;
mod report;
mod serve;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Where runs keep their scratch directories and traces, relative to
/// the directory the benchmark runs from.
const OUT_DIR: &str = ".perfbench";

/// Set-ups per run: at least this many, and until they took at least
/// [`MIN_SETUP_SECONDS`] together, so a fast set-up is timed often enough
/// for a steady median.
const MIN_SETUPS: usize = 5;
const MIN_SETUP_SECONDS: f64 = 1.0;

/// Whether another set-up should be timed after those in `taken` (s).
pub fn more_setups(taken: &[f64]) -> bool {
    taken.len() < MIN_SETUPS || taken.iter().sum::<f64>() < MIN_SETUP_SECONDS
}

/// The workloads, by name.
const WORKLOADS: &[&str] = &["projects-x86", "firmware-ir", "serve-coreutils"];

/// Command-line arguments.
pub struct Args {
    workload: String,
    /// Seed every input is derived from.
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: f64,
    /// Run the traced variant.
    pub trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 30.0,
            trace: false,
        };
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => args.workload = value,
                "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {}",
                WORKLOADS.join(", ")
            ));
        }
        if !(args.seconds > 0.0 && args.seconds.is_finite()) {
            return Err("--seconds must be positive".to_string());
        }
        Ok(args)
    }
}

/// This run's private scratch directory, named by pid and removed when
/// the run ends; [`RunDir::fresh`] numbers the paths inside it.
pub struct RunDir {
    dir: PathBuf,
    next: AtomicUsize,
}

impl RunDir {
    fn create() -> Result<RunDir, String> {
        let dir = PathBuf::from(OUT_DIR).join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(RunDir {
            dir,
            next: AtomicUsize::new(0),
        })
    }

    /// A path inside the run directory that no other caller gets.
    pub fn fresh(&self, tag: &str) -> PathBuf {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        self.dir.join(format!("{tag}-{n}"))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Writes a traced run's spans under `.perfbench/traces/`.
pub fn write_trace(args: &Args, tracer: &trace::Tracer) {
    let dir = PathBuf::from(OUT_DIR).join("traces");
    let path = dir.join(format!(
        "{}-seed{}-{}.jsonl",
        args.workload,
        args.seed,
        std::process::id()
    ));
    match std::fs::create_dir_all(&dir).and_then(|()| tracer.write_jsonl(&path)) {
        Ok(()) => eprintln!("spans: {} ({})", path.display(), tracer.spans().len()),
        Err(e) => eprintln!("spans not written to {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let run_dir = match RunDir::create() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: run directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "workload {} seed {} seconds {} trace {}: nproc {}, pool threads {}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        nproc(),
        manta_parallel::effective_threads()
    );
    let outcome = match args.workload.as_str() {
        "projects-x86" => batch::run(&args, |seed| {
            inputs::projects_x86(seed, inputs::PROJECT_COPIES)
        }),
        "firmware-ir" => batch::run(&args, |seed| {
            Ok(inputs::firmware_ir(seed, inputs::FIRMWARE_COPIES))
        }),
        _ => serve::run(&args, &run_dir),
    };
    drop(run_dir);
    match outcome {
        Ok(outcome) => {
            let catalogue = if args.trace {
                report::per_layer()
            } else {
                report::END_TO_END
                    .iter()
                    .map(|&(name, unit, higher)| (name.to_string(), unit, higher))
                    .collect()
            };
            outcome.print(&catalogue);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
