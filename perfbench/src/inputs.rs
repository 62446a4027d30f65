//! Workload inputs, all derived from the benchmark's seed.
//!
//! The suites keep their sizes and phenomenon mixes; only each
//! program's generator seed (and the serve request order) comes from
//! the seed argument, so a second seed gives different programs of the
//! same shape.

use manta_store::splitmix64;
use manta_workloads::rng::ChaCha8Rng;
use manta_workloads::{
    coreutils_suite, firmware_suite, project_suite, FirmwareSpec, GroundTruth, ProjectSpec,
};

/// Copies of the project suite in one run.
pub const PROJECT_COPIES: usize = 8;
/// Copies of the firmware suite in one run.
pub const FIRMWARE_COPIES: usize = 4;
/// Copies of the coreutils suite the serve rounds cycle through.
pub const COREUTILS_COPIES: usize = 4;

/// The seed of item `index` in stream `stream`.
pub fn derive(seed: u64, stream: u64, index: usize) -> u64 {
    splitmix64(splitmix64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)) ^ index as u64)
}

/// `instances` copies of `suite`, copy `k` of item `i` renamed
/// `<name>_<k>` and given its own seed, so every copy is a different
/// program of the same shape.
fn copies<S: Clone>(
    suite: &[S],
    seed: u64,
    stream: u64,
    instances: usize,
    respec: impl Fn(&S, usize, u64) -> S,
) -> Vec<S> {
    (0..instances)
        .flat_map(|k| {
            suite
                .iter()
                .enumerate()
                .map(|(i, spec)| respec(spec, k, derive(seed, stream, k * suite.len() + i)))
                .collect::<Vec<_>>()
        })
        .collect()
}

fn respec_project(spec: &ProjectSpec, k: usize, seed: u64) -> ProjectSpec {
    ProjectSpec {
        name: format!("{}_{k}", spec.name),
        seed,
        ..spec.clone()
    }
}

/// `instances` copies of the 14 Table-3 projects.
pub fn project_specs(seed: u64, instances: usize) -> Vec<ProjectSpec> {
    copies(&project_suite(), seed, 1, instances, respec_project)
}

/// Copy `instance` of the 104 coreutils-like modules.
pub fn coreutils_specs(seed: u64, instance: usize) -> Vec<ProjectSpec> {
    let suite = coreutils_suite();
    let n = suite.len();
    copies(&suite, seed, 2, instance + 1, respec_project).split_off(instance * n)
}

/// `instances` copies of the nine Table-5 firmware images.
pub fn firmware_specs(seed: u64, instances: usize) -> Vec<FirmwareSpec> {
    copies(&firmware_suite(), seed, 3, instances, |spec, k, seed| {
        FirmwareSpec {
            name: format!("{}_{k}", spec.name),
            seed,
            ..spec.clone()
        }
    })
}

/// `0..n` in a seeded order (Fisher–Yates).
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order
}

/// What one module enters the program as.
pub enum Input {
    /// An x86 XLF image.
    X86(Vec<u8>),
    /// Textual IR.
    Ir(String),
    /// SB-ISA assembly text.
    Asm(String),
}

impl Input {
    /// Size of the input in bytes.
    pub fn size(&self) -> usize {
        match self {
            Input::X86(b) => b.len(),
            Input::Ir(t) | Input::Asm(t) => t.len(),
        }
    }
}

/// One generated module, encoded, with its scoring oracle.
pub struct Unit {
    /// Module name.
    pub name: String,
    /// Functions in the generated module.
    pub functions: usize,
    /// The bytes or text the program receives.
    pub input: Input,
    /// Ground truth from the generator; the program never sees it.
    pub truth: GroundTruth,
}

/// Generates `instances` copies of the 14 projects as x86 images.
pub fn projects_x86(seed: u64, instances: usize) -> Result<Vec<Unit>, String> {
    project_specs(seed, instances)
        .iter()
        .map(|spec| {
            let g = spec.generate();
            let dual =
                manta_workloads::emit_dual(&g.module).map_err(|e| format!("{}: {e}", spec.name))?;
            Ok(Unit {
                name: spec.name.clone(),
                functions: g.module.function_count(),
                input: Input::X86(dual.x86_bytes()),
                truth: g.truth,
            })
        })
        .collect()
}

/// Generates `instances` copies of the nine firmware images as textual IR.
pub fn firmware_ir(seed: u64, instances: usize) -> Vec<Unit> {
    firmware_specs(seed, instances)
        .iter()
        .map(|spec| {
            let g = manta_workloads::generate_firmware(spec);
            Unit {
                name: spec.name.clone(),
                functions: g.module.function_count(),
                input: Input::Ir(manta_ir::printer::print_module(&g.module)),
                truth: g.truth,
            }
        })
        .collect()
}

/// Generates copy `instance` of the 104 coreutils modules as SB-ISA
/// assembly.
pub fn coreutils_asm(seed: u64, instance: usize) -> Result<Vec<Unit>, String> {
    coreutils_specs(seed, instance)
        .iter()
        .map(|spec| {
            let g = spec.generate();
            let dual =
                manta_workloads::emit_dual(&g.module).map_err(|e| format!("{}: {e}", spec.name))?;
            Ok(Unit {
                name: spec.name.clone(),
                functions: g.module.function_count(),
                input: Input::Asm(manta_isa::asm::disassemble(&dual.sb)),
                truth: g.truth,
            })
        })
        .collect()
}
