//! The per-ISA frontend plugin interface and the skeleton every ISA shares.
//!
//! Manta analyzes [`Module`]s; where those modules come from is a frontend
//! concern. Each supported ISA ships one [`Frontend`] implementation that
//! knows how to recognize its image container by magic bytes, assemble and
//! disassemble its text syntax, and lift the machine code inside it to SSA.
//! The engine, CLI, eval and serve paths stay ISA-agnostic: they hold
//! `dyn Frontend`s and dispatch on [`Frontend::detects`].
//!
//! Like Macaw's split between a shared core and per-architecture semantics
//! packages, everything that does not depend on the instruction set lives
//! here, once:
//!
//! * [`image`] — the symbol tables every container carries (program name,
//!   externs, globals, function signatures) and their byte codec.
//! * [`asm`] — the assembler's top-level grammar (`module`, `extern`,
//!   `global`, `func … {`, labels, `}`, comments) and its printer.
//! * [`lift`] — module layout (externs, globals, function shells,
//!   address-taken marking, verification) and machine-CFG recovery with
//!   the per-block translation loop.
//!
//! An ISA supplies only its header magic, its instruction set with its
//! byte codec and text syntax, and the semantics of each instruction.

use std::fmt;

use crate::module::Module;

pub mod asm;
pub mod image;
pub mod lift;

/// A frontend failure: unrecognized bytes, malformed container, assembly
/// that does not parse, or machine code the lifter cannot translate.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FrontendError {
    /// Description of what went wrong.
    pub message: String,
}

impl FrontendError {
    /// Creates an error from any displayable message.
    pub fn new(message: impl Into<String>) -> FrontendError {
        FrontendError {
            message: message.into(),
        }
    }
}

impl fmt::Display for FrontendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "frontend error: {}", self.message)
    }
}

impl std::error::Error for FrontendError {}

impl From<image::ImageError> for FrontendError {
    fn from(e: image::ImageError) -> FrontendError {
        FrontendError::new(e.to_string())
    }
}

impl From<asm::AsmError> for FrontendError {
    fn from(e: asm::AsmError) -> FrontendError {
        FrontendError::new(e.to_string())
    }
}

impl From<lift::LiftError> for FrontendError {
    fn from(e: lift::LiftError) -> FrontendError {
        FrontendError::new(e.message)
    }
}

/// A binary-image frontend: recognizes one container format, converts
/// between it and its assembly syntax, and lifts the machine code inside
/// it to an SSA [`Module`].
pub trait Frontend {
    /// Short identifier used on the command line (`--frontend <name>`).
    fn name(&self) -> &'static str;

    /// One-line description of the ISA and container, for error listings.
    fn describe(&self) -> &'static str;

    /// Whether `bytes` start with this frontend's image magic.
    fn detects(&self, bytes: &[u8]) -> bool;

    /// Decodes the image and lifts every function to SSA.
    ///
    /// # Errors
    ///
    /// Returns [`FrontendError`] for malformed containers or unliftable
    /// machine code.
    fn lift_bytes(&self, bytes: &[u8]) -> Result<Module, FrontendError>;

    /// Assembles this ISA's text syntax into container bytes.
    ///
    /// # Errors
    ///
    /// Returns [`FrontendError`] naming the offending line.
    fn assemble(&self, text: &str) -> Result<Vec<u8>, FrontendError>;

    /// Renders container bytes as assembly text that
    /// [`Frontend::assemble`] turns back into the same bytes.
    ///
    /// # Errors
    ///
    /// Returns [`FrontendError`] for malformed containers or machine code
    /// that does not decode.
    fn disassemble(&self, bytes: &[u8]) -> Result<String, FrontendError>;
}
