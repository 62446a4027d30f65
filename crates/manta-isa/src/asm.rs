//! The SB-ISA instruction syntax, on the shared top-level grammar of
//! [`manta_ir::frontend::asm`] (`module`, `extern`, `global`,
//! `func … {`, labels, `}`, `;` comments):
//!
//! ```text
//!     mov r0, r1          movi r2, 42        movf r3, 1.5
//!     add r0, r1, r2      cmp.eq r4, r1, r2
//!     ld.w64 r5, [r7+8]   st.w32 [r7+0], r5
//!     salloc r6, 16       lea.g r7, <global> lea.f r8, <func>
//!     call <func>, 1      ecall <extern>, 2  icall r8, 2[, ret]
//!     jmp <label>         brz r4, <label>    ret
//! ```
//!
//! Branch operands name labels and are resolved to instruction indexes.
//! [`disassemble`] emits text that [`assemble`] parses back to an
//! identical [`Image`].

use std::convert::Infallible;
use std::fmt::Write as _;

use manta_ir::frontend::asm::{print_program, InstLine, Program};
use manta_ir::{BinOp, CmpPred, Width};

pub use manta_ir::frontend::asm::AsmError;

use crate::image::{Image, ImageFunction};
use crate::inst::{MachInst, Reg};

type Result<T> = std::result::Result<T, AsmError>;

fn parse_reg(l: &InstLine<'_>, tok: &str) -> Result<Reg> {
    let n: u8 = tok
        .trim()
        .strip_prefix('r')
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| l.error(format!("bad register `{tok}`")))?;
    if (n as usize) >= Reg::COUNT {
        return l.err(format!("register out of range `{tok}`"));
    }
    Ok(Reg(n))
}

/// Assembles a whole program.
///
/// # Errors
///
/// Returns [`AsmError`] pointing at the offending line.
pub fn assemble(text: &str) -> Result<Image> {
    let program = Program::parse(text)?;
    let mut functions = Vec::with_capacity(program.functions.len());
    for f in &program.functions {
        functions.push(ImageFunction {
            name: f.name.clone(),
            nparams: f.nparams,
            has_ret: f.has_ret,
            code: program
                .insts(f)
                .map(|l| parse_inst(&l))
                .collect::<Result<_>>()?,
        });
    }
    Ok(Image {
        name: program.name,
        externs: program.externs,
        globals: program.globals,
        functions,
    })
}

fn parse_inst(l: &InstLine<'_>) -> Result<MachInst> {
    let (mn, rest) = match l.text.split_once(char::is_whitespace) {
        Some((m, r)) => (m, r.trim()),
        None => (l.text, ""),
    };
    let parts: Vec<&str> = if rest.is_empty() {
        Vec::new()
    } else {
        rest.split(',').map(str::trim).collect()
    };
    let (base, suffix) = match mn.split_once('.') {
        Some((b, s)) => (b, Some(s)),
        None => (mn, None),
    };
    let need = |n: usize| -> Result<()> {
        if parts.len() == n {
            Ok(())
        } else {
            l.err(format!("`{mn}` expects {n} operands, got {}", parts.len()))
        }
    };
    let number = |tok: &str, what: &str| l.error(format!("bad {what} `{tok}`"));
    let function = |name: &str| {
        l.function(name)
            .ok_or_else(|| l.error(format!("unknown function `{name}`")))
    };
    Ok(match base {
        "mov" => {
            need(2)?;
            MachInst::Mov {
                rd: parse_reg(l, parts[0])?,
                rs: parse_reg(l, parts[1])?,
            }
        }
        "movi" => {
            need(2)?;
            MachInst::MovImm {
                rd: parse_reg(l, parts[0])?,
                imm: parts[1].parse().map_err(|_| number(parts[1], "imm"))?,
            }
        }
        "movf" => {
            need(2)?;
            MachInst::MovFloat {
                rd: parse_reg(l, parts[0])?,
                imm: parts[1].parse().map_err(|_| number(parts[1], "float"))?,
            }
        }
        "cmp" => {
            need(3)?;
            let pred = suffix
                .and_then(CmpPred::from_mnemonic)
                .ok_or_else(|| l.error(format!("bad predicate `{mn}`")))?;
            MachInst::Cmp {
                pred,
                rd: parse_reg(l, parts[0])?,
                rs: parse_reg(l, parts[1])?,
                rt: parse_reg(l, parts[2])?,
            }
        }
        "ld" => {
            need(2)?;
            let width = parse_mem_width(l, suffix)?;
            let (rs, off) = parse_mem(l, parts[1])?;
            MachInst::Load {
                width,
                rd: parse_reg(l, parts[0])?,
                rs,
                off,
            }
        }
        "st" => {
            need(2)?;
            let width = parse_mem_width(l, suffix)?;
            let (rd, off) = parse_mem(l, parts[0])?;
            MachInst::Store {
                width,
                rd,
                off,
                rs: parse_reg(l, parts[1])?,
            }
        }
        "salloc" => {
            need(2)?;
            MachInst::Salloc {
                rd: parse_reg(l, parts[0])?,
                size: parts[1].parse().map_err(|_| number(parts[1], "size"))?,
            }
        }
        "lea" => {
            need(2)?;
            let rd = parse_reg(l, parts[0])?;
            match suffix {
                Some("g") => MachInst::LeaGlobal {
                    rd,
                    index: l
                        .global(parts[1])
                        .ok_or_else(|| l.error(format!("unknown global `{}`", parts[1])))?,
                },
                Some("f") => MachInst::LeaFunc {
                    rd,
                    index: function(parts[1])?,
                },
                _ => return l.err("lea needs `.g` or `.f` suffix"),
            }
        }
        "call" => {
            need(2)?;
            MachInst::Call {
                index: function(parts[0])?,
                nargs: parts[1].parse().map_err(|_| number(parts[1], "nargs"))?,
            }
        }
        "ecall" => {
            need(2)?;
            MachInst::ECall {
                index: l
                    .extern_index(parts[0])
                    .ok_or_else(|| l.error(format!("unknown extern `{}`", parts[0])))?,
                nargs: parts[1].parse().map_err(|_| number(parts[1], "nargs"))?,
            }
        }
        "icall" => {
            if parts.len() < 2 || parts.len() > 3 {
                return l.err("icall expects `rs, nargs[, ret]`");
            }
            MachInst::ICall {
                rs: parse_reg(l, parts[0])?,
                nargs: parts[1].parse().map_err(|_| number(parts[1], "nargs"))?,
                ret: parts.get(2) == Some(&"ret"),
            }
        }
        "jmp" => {
            need(1)?;
            MachInst::Jmp {
                target: l.label(parts[0])?,
            }
        }
        "brz" => {
            need(2)?;
            MachInst::Brz {
                rs: parse_reg(l, parts[0])?,
                target: l.label(parts[1])?,
            }
        }
        "ret" => MachInst::Ret,
        other => {
            let op = BinOp::from_mnemonic(other)
                .ok_or_else(|| l.error(format!("unknown mnemonic `{other}`")))?;
            need(3)?;
            MachInst::Bin {
                op,
                rd: parse_reg(l, parts[0])?,
                rs: parse_reg(l, parts[1])?,
                rt: parse_reg(l, parts[2])?,
            }
        }
    })
}

fn parse_mem_width(l: &InstLine<'_>, suffix: Option<&str>) -> Result<Width> {
    let s = suffix.ok_or_else(|| l.error("memory access needs `.w<bits>`"))?;
    s.strip_prefix('w')
        .and_then(|b| b.parse::<u32>().ok())
        .and_then(Width::from_bits)
        .ok_or_else(|| l.error(format!("bad width `{s}`")))
}

/// `[rN+off]`
fn parse_mem(l: &InstLine<'_>, tok: &str) -> Result<(Reg, u32)> {
    let inner = tok
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| l.error(format!("bad memory operand `{tok}`")))?;
    match inner.split_once('+') {
        Some((r, o)) => {
            let off = o
                .trim()
                .parse()
                .map_err(|_| l.error(format!("bad offset `{o}`")))?;
            Ok((parse_reg(l, r)?, off))
        }
        None => Ok((parse_reg(l, inner)?, 0)),
    }
}

/// Renders an image back to assembly text that [`assemble`] parses to an
/// identical image. Branch targets get `L<index>` labels.
pub fn disassemble(image: &Image) -> String {
    let body = |out: &mut String, _: usize, f: &ImageFunction| {
        let mut targets: Vec<u32> = f.code.iter().flat_map(MachInst::targets).collect();
        targets.sort_unstable();
        targets.dedup();
        for (i, inst) in f.code.iter().enumerate() {
            if targets.binary_search(&(i as u32)).is_ok() {
                let _ = writeln!(out, "L{i}:");
            }
            let _ = match inst {
                MachInst::Jmp { target } => writeln!(out, "    jmp L{target}"),
                MachInst::Brz { rs, target } => writeln!(out, "    brz {rs}, L{target}"),
                MachInst::Call { index, nargs } => {
                    let callee = &image.functions[*index as usize].name;
                    writeln!(out, "    call {callee}, {nargs}")
                }
                MachInst::ECall { index, nargs } => {
                    let callee = &image.externs[*index as usize].name;
                    writeln!(out, "    ecall {callee}, {nargs}")
                }
                MachInst::LeaGlobal { rd, index } => {
                    let g = &image.globals[*index as usize].name;
                    writeln!(out, "    lea.g {rd}, {g}")
                }
                MachInst::LeaFunc { rd, index } => {
                    let f = &image.functions[*index as usize].name;
                    writeln!(out, "    lea.f {rd}, {f}")
                }
                other => writeln!(out, "    {other}"),
            };
        }
        Ok::<(), Infallible>(())
    };
    let Ok(text) = print_program(
        &image.name,
        &image.externs,
        &image.globals,
        &image.functions,
        body,
    );
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
module demo
extern malloc, 1, ret
extern free, 1
global table, 64

func helper(1) -> ret {
    add r0, r1, r1
    ret
}

func main(1) -> ret {
    salloc r7, 16
    movi r2, 42
    st.w64 [r7+8], r2
    ld.w64 r3, [r7+8]
    cmp.eq r4, r3, r2
    brz r4, skip
    mov r1, r3
    call helper, 1
skip:
    lea.f r5, helper
    icall r5, 1, ret
    lea.g r6, table
    ecall malloc, 1
    ret
}
"#;

    #[test]
    fn assembles_sample() {
        let img = assemble(SAMPLE).unwrap();
        assert_eq!(img.name, "demo");
        assert_eq!(img.externs.len(), 2);
        assert!(img.externs[0].has_ret && !img.externs[1].has_ret);
        assert_eq!(img.globals.len(), 1);
        assert_eq!(img.functions.len(), 2);
        let main = &img.functions[1];
        assert!(main.code.iter().any(|i| matches!(i, MachInst::Brz { .. })));
        // `skip` resolved to the lea.f instruction index.
        let brz_target = main
            .code
            .iter()
            .find_map(|i| match i {
                MachInst::Brz { target, .. } => Some(*target),
                _ => None,
            })
            .unwrap();
        assert!(matches!(
            main.code[brz_target as usize],
            MachInst::LeaFunc { .. }
        ));
    }

    #[test]
    fn disassemble_roundtrip() {
        let img = assemble(SAMPLE).unwrap();
        let text = disassemble(&img);
        let img2 = assemble(&text).unwrap();
        assert_eq!(img, img2);
    }

    #[test]
    fn undefined_label_is_reported() {
        let bad = "module m\nfunc f(0) -> void {\n    jmp nowhere\n}\n";
        let e = assemble(bad).unwrap_err();
        assert!(e.message.contains("nowhere"));
    }

    #[test]
    fn unknown_mnemonic_reports_line() {
        let bad = "module m\nfunc f(0) -> void {\n    frob r0, r1\n}\n";
        let e = assemble(bad).unwrap_err();
        assert_eq!(e.line, 3);
    }

    #[test]
    fn forward_function_references_resolve() {
        let text = "module m\nfunc a(0) -> void {\n    call b, 0\n    ret\n}\nfunc b(0) -> void {\n    ret\n}\n";
        let img = assemble(text).unwrap();
        assert!(matches!(
            img.functions[0].code[0],
            MachInst::Call { index: 1, nargs: 0 }
        ));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text =
            "module m ; trailing\n; full comment\n\nfunc f(0) -> void {\n    ret ; done\n}\n";
        let img = assemble(text).unwrap();
        assert_eq!(img.functions[0].code, vec![MachInst::Ret]);
    }
}
