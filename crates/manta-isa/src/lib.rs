//! # manta-isa
//!
//! SB-ISA — a small synthetic register machine standing in for the real
//! binaries the Manta paper analyzes. It provides the *zero-knowledge*
//! entry point of the pipeline: programs exist as encoded bytes in an SBF
//! image (no types, no variable names — only code), and the [`lift`]
//! module translates those bytes into `manta-ir` SSA exactly the way
//! RetDec lifts x86 to LLVM IR in the paper (§3: "binary registers and
//! arguments are translated to SSA values").
//!
//! * [`inst`] — the machine instruction set (16 GP registers, loads and
//!   stores with byte offsets, arithmetic, compares, calls, branches).
//! * [`asm`] — the SB-ISA instruction syntax and disassembler.
//! * [`image`] — the SBF container: encode/decode whole programs to bytes.
//! * [`lift`] — the meaning of each instruction in SSA (Braun et al.)
//!   terms, producing a [`manta_ir::Module`].
//!
//! The symbol tables and their codec, the assembler's top-level grammar
//! and the lift skeleton are shared with every ISA in
//! [`manta_ir::frontend`].
//!
//! ```
//! use manta_isa::{asm, image, lift};
//!
//! let program = r#"
//! module demo
//! extern malloc(w64) -> w64
//! func grab(1) -> ret {
//!     mov r7, r1
//!     ecall malloc, 1
//!     ret
//! }
//! "#;
//! let img = asm::assemble(program)?;
//! let bytes = image::encode(&img);
//! let decoded = image::decode(&bytes)?;
//! let module = lift::lift(&decoded)?;
//! assert_eq!(module.function_count(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod asm;
pub mod image;
pub mod inst;
pub mod lift;

pub use asm::{assemble, AsmError};
pub use image::{decode, encode, Image, ImageError, ImageExtern, ImageFunction, ImageGlobal};
pub use inst::{MachInst, Reg};
