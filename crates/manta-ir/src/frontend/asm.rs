//! The assembler grammar both ISAs share.
//!
//! ```text
//! ; a comment runs to the end of its line
//! module <name>
//! extern <name>, <nparams>[, ret]        (also `extern <name>(w64, …) -> w64`)
//! global <name>, <size>
//! func <name>(<nparams>) -> ret|void {
//! <label>:
//!     <instruction>                      (ISA-specific syntax)
//! }
//! ```
//!
//! [`Program::parse`] reads the top level and splits every function body
//! into labels and instruction lines; an ISA's assembler then parses each
//! [`InstLine`] with its own instruction syntax, resolving labels and
//! symbols through it so every error carries the line that caused it.
//! Labels bind to the next instruction, and any symbol may be referenced
//! before its declaration. [`print_program`] is the inverse.

use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;

use super::image::{FunctionEntry, ImageExtern, ImageGlobal};

/// An assembly failure with its 1-based line.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AsmError {
    /// 1-based line number (0 for whole-program layout failures).
    pub line: usize,
    /// Description.
    pub message: String,
}

impl AsmError {
    /// Creates an error at `line`.
    pub fn new(line: usize, message: impl Into<String>) -> AsmError {
        AsmError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "assembly error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AsmError {}

/// One line of a function body.
enum BodyLine<'t> {
    Label(&'t str),
    Inst(usize, &'t str),
}

/// A function whose header is parsed and whose body awaits the ISA.
pub struct AsmFunction<'t> {
    /// Symbol name.
    pub name: String,
    /// Number of register parameters.
    pub nparams: u8,
    /// Whether the function returns a value.
    pub has_ret: bool,
    body: Vec<BodyLine<'t>>,
    /// Label → index of the instruction it binds to.
    labels: HashMap<&'t str, u32>,
}

/// A program with its top level parsed: the symbol tables and every
/// function's header, body lines and labels.
pub struct Program<'t> {
    /// Program name (`module` line).
    pub name: String,
    /// External declarations, in source order.
    pub externs: Vec<ImageExtern>,
    /// Globals, in source order.
    pub globals: Vec<ImageGlobal>,
    /// Functions, in source order.
    pub functions: Vec<AsmFunction<'t>>,
    func_index: HashMap<String, u32>,
}

/// One element of a function body, in source order.
pub enum Line<'a> {
    /// A label binding to the next instruction.
    Label(&'a str),
    /// An instruction for the ISA to parse.
    Inst(InstLine<'a>),
}

/// One instruction line, with the program's symbols in scope.
pub struct InstLine<'a> {
    /// 1-based line number.
    pub line: usize,
    /// The instruction, comment stripped and trimmed.
    pub text: &'a str,
    program: &'a Program<'a>,
    function: &'a AsmFunction<'a>,
}

impl InstLine<'_> {
    /// An error at this line.
    pub fn error(&self, message: impl Into<String>) -> AsmError {
        AsmError::new(self.line, message)
    }

    /// Fails at this line.
    pub fn err<T>(&self, message: impl Into<String>) -> Result<T, AsmError> {
        Err(self.error(message))
    }

    /// The index of the instruction `label` binds to in this function, or
    /// an error at this line if it is undefined.
    pub fn label(&self, label: &str) -> Result<u32, AsmError> {
        self.function
            .labels
            .get(label)
            .copied()
            .ok_or_else(|| self.error(format!("undefined label `{label}`")))
    }

    /// The function-table index of `name`, if it is a function.
    pub fn function(&self, name: &str) -> Option<u32> {
        self.program.func_index.get(name).copied()
    }

    /// The extern-table index of `name`, if it is an extern.
    pub fn extern_index(&self, name: &str) -> Option<u32> {
        let i = self.program.externs.iter().position(|e| e.name == name)?;
        Some(i as u32)
    }

    /// The global-table index of `name`, if it is a global.
    pub fn global(&self, name: &str) -> Option<u32> {
        let i = self.program.globals.iter().position(|g| g.name == name)?;
        Some(i as u32)
    }
}

impl<'t> Program<'t> {
    /// Parses the top-level grammar of `text`.
    ///
    /// # Errors
    ///
    /// Returns [`AsmError`] for malformed `module`/`extern`/`global`/`func`
    /// lines, duplicate labels, stray top-level lines, and function bodies
    /// left open (reported at their `func` line).
    pub fn parse(text: &'t str) -> Result<Program<'t>, AsmError> {
        let mut program = Program {
            name: String::new(),
            externs: Vec::new(),
            globals: Vec::new(),
            functions: Vec::new(),
            func_index: HashMap::new(),
        };
        // The open function body and its `func` line.
        let mut open: Option<(AsmFunction<'t>, usize)> = None;
        let mut n_insts: u32 = 0;
        for (i, raw) in text.lines().enumerate() {
            let ln = i + 1;
            let line = raw.split(';').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if line == "}" {
                if let Some((func, _)) = open.take() {
                    program.functions.push(func);
                    continue;
                }
            }
            if let Some((func, _)) = &mut open {
                if let Some(label) = line.strip_suffix(':') {
                    let label = label.trim();
                    if func.labels.insert(label, n_insts).is_some() {
                        return Err(AsmError::new(ln, format!("duplicate label `{label}`")));
                    }
                    func.body.push(BodyLine::Label(label));
                } else {
                    func.body.push(BodyLine::Inst(ln, line));
                    n_insts += 1;
                }
                continue;
            }
            if let Some(rest) = line.strip_prefix("module ") {
                program.name = rest.trim().to_string();
            } else if let Some(rest) = line.strip_prefix("extern ") {
                program.externs.push(parse_extern(ln, rest)?);
            } else if let Some(rest) = line.strip_prefix("global ") {
                let parts: Vec<&str> = rest.split(',').map(str::trim).collect();
                let [name, size] = parts[..] else {
                    return Err(AsmError::new(ln, "global expects `name, size`"));
                };
                let size = size
                    .parse()
                    .map_err(|_| AsmError::new(ln, format!("bad size `{size}`")))?;
                program.globals.push(ImageGlobal {
                    name: name.to_string(),
                    size,
                });
            } else if let Some(rest) = line.strip_prefix("func ") {
                let func = parse_func_header(ln, rest)?;
                program
                    .func_index
                    .insert(func.name.clone(), program.functions.len() as u32);
                open = Some((func, ln));
                n_insts = 0;
            } else {
                return Err(AsmError::new(
                    ln,
                    format!("unexpected top-level line `{line}`"),
                ));
            }
        }
        if let Some((func, ln)) = open {
            return Err(AsmError::new(
                ln,
                format!("unterminated body of function `{}`", func.name),
            ));
        }
        Ok(program)
    }

    /// The body of `function` in source order, each instruction line with
    /// this program's symbols in scope.
    pub fn lines<'a>(&'a self, function: &'a AsmFunction<'a>) -> impl Iterator<Item = Line<'a>> {
        function.body.iter().map(move |l| match *l {
            BodyLine::Label(label) => Line::Label(label),
            BodyLine::Inst(line, text) => Line::Inst(InstLine {
                line,
                text,
                program: self,
                function,
            }),
        })
    }

    /// The instruction lines of `function`, labels skipped.
    pub fn insts<'a>(
        &'a self,
        function: &'a AsmFunction<'a>,
    ) -> impl Iterator<Item = InstLine<'a>> {
        self.lines(function).filter_map(|l| match l {
            Line::Inst(inst) => Some(inst),
            Line::Label(_) => None,
        })
    }
}

/// `extern name, nparams[, ret]`, or `extern name(w64, w64) -> w64`.
fn parse_extern(ln: usize, rest: &str) -> Result<ImageExtern, AsmError> {
    if let Some(open) = rest.find('(') {
        let close = rest
            .rfind(')')
            .ok_or_else(|| AsmError::new(ln, "expected `)`"))?;
        let nparams = rest[open + 1..close]
            .split(',')
            .filter(|p| !p.trim().is_empty())
            .count() as u8;
        return Ok(ImageExtern {
            name: rest[..open].trim().to_string(),
            nparams,
            has_ret: returns_value(&rest[close..]),
        });
    }
    let parts: Vec<&str> = rest.split(',').map(str::trim).collect();
    if parts.len() < 2 {
        return Err(AsmError::new(ln, "extern expects `name, nparams[, ret]`"));
    }
    let nparams = parts[1]
        .parse()
        .map_err(|_| AsmError::new(ln, format!("bad nparams `{}`", parts[1])))?;
    Ok(ImageExtern {
        name: parts[0].to_string(),
        nparams,
        has_ret: parts.get(2) == Some(&"ret"),
    })
}

/// `name(nparams) -> ret|void {`, after the `func` keyword.
fn parse_func_header<'t>(ln: usize, rest: &str) -> Result<AsmFunction<'t>, AsmError> {
    let rest = rest
        .strip_suffix('{')
        .ok_or_else(|| AsmError::new(ln, "expected `{`"))?
        .trim();
    let open = rest
        .find('(')
        .ok_or_else(|| AsmError::new(ln, "expected `(`"))?;
    let close = rest
        .rfind(')')
        .ok_or_else(|| AsmError::new(ln, "expected `)`"))?;
    let nparams = rest[open + 1..close]
        .trim()
        .parse()
        .map_err(|_| AsmError::new(ln, "func expects `(nparams)`"))?;
    Ok(AsmFunction {
        name: rest[..open].trim().to_string(),
        nparams,
        has_ret: returns_value(&rest[close..]),
        body: Vec::new(),
        labels: HashMap::new(),
    })
}

/// Whether a `) -> …` signature tail declares a return value.
fn returns_value(tail: &str) -> bool {
    tail.contains("->") && !tail.contains("void")
}

/// Renders a program in the shared grammar: the `module`, `extern` and
/// `global` lines, then every function's `func` line, the body `body`
/// writes for it (given its table index), and the closing brace. Fails
/// with the first error `body` returns.
pub fn print_program<F: FunctionEntry, E>(
    name: &str,
    externs: &[ImageExtern],
    globals: &[ImageGlobal],
    functions: &[F],
    mut body: impl FnMut(&mut String, usize, &F) -> Result<(), E>,
) -> Result<String, E> {
    let mut out = String::new();
    let _ = writeln!(out, "module {name}");
    for e in externs {
        let ret = if e.has_ret { ", ret" } else { "" };
        let _ = writeln!(out, "extern {}, {}{}", e.name, e.nparams, ret);
    }
    for g in globals {
        let _ = writeln!(out, "global {}, {}", g.name, g.size);
    }
    for (i, f) in functions.iter().enumerate() {
        let ret = if f.has_ret() { "ret" } else { "void" };
        let _ = writeln!(out, "\nfunc {}({}) -> {} {{", f.name(), f.nparams(), ret);
        body(&mut out, i, f)?;
        out.push_str("}\n");
    }
    Ok(out)
}
