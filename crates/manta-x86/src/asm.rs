//! The Intel-like instruction syntax of the x86-64 subset, on the shared
//! top-level grammar of [`manta_ir::frontend::asm`] (`module`, `extern`,
//! `global`, `func … {`, labels, `}`, `;` comments):
//!
//! ```text
//!     push rbp            mov rbp, rsp       sub rsp, 32
//!     mov rax, rbx        mov eax, ebx       mov rax, 42
//!     mov rax, qword [rbp-8]                 mov dword [rbp-8], eax
//!     mov qword [rax+8], 7
//!     movzx rax, byte [rdi]                  movzx rax, cl
//!     movsx rax, dword [rdi]                 lea rax, [rbp-16]
//!     lea rax, func <name>                   lea rax, global <name>
//!     add rax, rbx        cmp rax, 0         imul rax, qword [rbp-8]
//!     test rax, rax       shl rax, 3
//!     je <label>          jmp <label>
//!     call <func|extern>  call rax           ret
//! ```
//!
//! `call` resolves function names first, then externs (through their PLT
//! stub), then registers. The [`ImageBuilder`] lays the bodies out.
//! [`disassemble`] renders an image back to text that [`assemble`] parses
//! to an identical image.

use std::fmt::Write as _;

use manta_ir::frontend::asm::{print_program, InstLine, Line, Program};

pub use manta_ir::frontend::asm::AsmError;

use crate::decode::decode_all;
use crate::image::{
    rip_target, Image, ImageBuilder, ImageError, ImageFunction, SymInst, TEXT_BASE,
};
use crate::inst::{Alu, Cc, Gpr, Inst, Mem, OpWidth, Rm, Shift};

type Result<T> = std::result::Result<T, AsmError>;

/// Parses a register name at any width.
fn parse_reg(tok: &str) -> Option<(Gpr, OpWidth)> {
    for i in 0..16u8 {
        let g = Gpr(i);
        if tok == g.name64() {
            return Some((g, OpWidth::B64));
        }
        if tok == g.name32() {
            return Some((g, OpWidth::B32));
        }
        if tok == g.name16() {
            return Some((g, OpWidth::B16));
        }
        if tok == g.name8() {
            return Some((g, OpWidth::B8));
        }
    }
    None
}

fn parse_imm(tok: &str) -> Option<i64> {
    let tok = tok.trim();
    if let Some(hex) = tok.strip_prefix("0x") {
        return i64::from_str_radix(hex, 16).ok();
    }
    if let Some(hex) = tok.strip_prefix("-0x") {
        return i64::from_str_radix(hex, 16).ok().map(|v| -v);
    }
    tok.parse().ok()
}

fn parse_size_keyword(tok: &str) -> Option<OpWidth> {
    match tok {
        "byte" => Some(OpWidth::B8),
        "word" => Some(OpWidth::B16),
        "dword" => Some(OpWidth::B32),
        "qword" => Some(OpWidth::B64),
        _ => None,
    }
}

/// A parsed operand.
enum Operand {
    Reg(Gpr, OpWidth),
    Imm(i64),
    Mem(Option<OpWidth>, Mem),
}

/// Parses `[base]`, `[base+disp]`, `[base-disp]`, `[base+index*scale+disp]`,
/// `[rip+disp]`, with an optional size keyword in front.
fn parse_operand(l: &InstLine<'_>, tok: &str) -> Result<Operand> {
    let tok = tok.trim();
    // Optional `qword [...]` size prefix.
    if let Some((kw, rest)) = tok.split_once(char::is_whitespace) {
        if let Some(w) = parse_size_keyword(kw) {
            let Operand::Mem(None, mem) = parse_operand(l, rest.trim())? else {
                return l.err(format!("size keyword `{kw}` must precede `[...]`"));
            };
            return Ok(Operand::Mem(Some(w), mem));
        }
    }
    if let Some((r, w)) = parse_reg(tok) {
        return Ok(Operand::Reg(r, w));
    }
    if let Some(v) = parse_imm(tok) {
        return Ok(Operand::Imm(v));
    }
    let Some(inner) = tok.strip_prefix('[').and_then(|s| s.strip_suffix(']')) else {
        return l.err(format!("bad operand `{tok}`"));
    };
    // Split `a+b-c` into signed terms.
    let mut terms: Vec<(bool, String)> = Vec::new();
    let mut cur = String::new();
    let mut neg = false;
    for ch in inner.chars() {
        match ch {
            '+' | '-' if !cur.trim().is_empty() => {
                terms.push((neg, cur.trim().to_string()));
                cur = String::new();
                neg = ch == '-';
            }
            '-' if cur.trim().is_empty() => neg = true,
            _ => cur.push(ch),
        }
    }
    if !cur.trim().is_empty() {
        terms.push((neg, cur.trim().to_string()));
    }

    let mut base: Option<Gpr> = None;
    let mut rip = false;
    let mut index: Option<(Gpr, u8)> = None;
    let mut disp: i64 = 0;
    for (neg, term) in terms {
        if let Some((r_tok, s_tok)) = term.split_once('*') {
            let Some((r, OpWidth::B64)) = parse_reg(r_tok.trim()) else {
                return l.err(format!("bad index register `{r_tok}`"));
            };
            let Some(scale) = s_tok
                .trim()
                .parse::<u8>()
                .ok()
                .filter(|s| matches!(s, 1 | 2 | 4 | 8))
            else {
                return l.err(format!("bad scale `{s_tok}` (want 1, 2, 4 or 8)"));
            };
            if neg || index.is_some() {
                return l.err("at most one positive scaled index allowed");
            }
            index = Some((r, scale));
        } else if term == "rip" {
            if neg || rip || base.is_some() {
                return l.err("rip must be the sole (positive) base");
            }
            rip = true;
        } else if let Some((r, OpWidth::B64)) = parse_reg(&term) {
            if neg {
                return l.err("registers cannot be subtracted");
            }
            if base.is_none() {
                base = Some(r);
            } else if index.is_none() {
                index = Some((r, 1));
            } else {
                return l.err("too many registers in memory operand");
            }
        } else if let Some(v) = parse_imm(&term) {
            disp += if neg { -v } else { v };
        } else {
            return l.err(format!("bad memory term `{term}`"));
        }
    }
    let disp = i32::try_from(disp).map_err(|_| l.error("displacement overflows i32"))?;
    let mem = match (rip, base, index) {
        (true, None, None) => Mem::Rip { disp },
        (false, Some(base), None) => Mem::Base { base, disp },
        (false, Some(base), Some((index, scale))) => {
            if index == Gpr::RSP {
                return l.err("rsp cannot be an index register");
            }
            Mem::BaseIndex {
                base,
                index,
                scale,
                disp,
            }
        }
        _ => return l.err(format!("unsupported memory operand `[{inner}]`")),
    };
    Ok(Operand::Mem(None, mem))
}

fn alu_of(mn: &str) -> Option<Alu> {
    match mn {
        "add" => Some(Alu::Add),
        "sub" => Some(Alu::Sub),
        "and" => Some(Alu::And),
        "or" => Some(Alu::Or),
        "xor" => Some(Alu::Xor),
        "cmp" => Some(Alu::Cmp),
        "imul" => Some(Alu::Mul),
        _ => None,
    }
}

fn cc_of(mn: &str) -> Option<Cc> {
    match mn {
        "je" => Some(Cc::E),
        "jne" => Some(Cc::Ne),
        "jl" => Some(Cc::L),
        "jle" => Some(Cc::Le),
        "jg" => Some(Cc::G),
        "jge" => Some(Cc::Ge),
        "jb" => Some(Cc::B),
        "jbe" => Some(Cc::Be),
        "ja" => Some(Cc::A),
        "jae" => Some(Cc::Ae),
        _ => None,
    }
}

/// Assembles a whole program into a linked [`Image`].
///
/// # Errors
///
/// Returns [`AsmError`] pointing at the offending line; a layout failure
/// of the whole image (a rel32 displacement overflow) reports line 0.
pub fn assemble(text: &str) -> Result<Image> {
    let program = Program::parse(text)?;
    let mut builder = ImageBuilder::new(
        program.name.clone(),
        program.externs.clone(),
        program.globals.clone(),
    );
    for f in &program.functions {
        let body = program
            .lines(f)
            .map(|line| match line {
                Line::Label(label) => Ok(SymInst::Label(label.to_string())),
                Line::Inst(l) => parse_inst(&l),
            })
            .collect::<Result<_>>()?;
        builder.function(f.name.clone(), f.nparams, f.has_ret, body);
    }
    builder
        .build()
        .map_err(|e: ImageError| AsmError::new(0, e.message))
}

fn parse_inst(l: &InstLine<'_>) -> Result<SymInst> {
    let (mn, rest) = match l.text.split_once(char::is_whitespace) {
        Some((m, r)) => (m, r.trim()),
        None => (l.text, ""),
    };
    let parts: Vec<&str> = if rest.is_empty() {
        Vec::new()
    } else {
        // Commas never occur inside `[...]` in this syntax.
        rest.split(',').map(str::trim).collect()
    };
    let need = |n: usize| -> Result<()> {
        if parts.len() == n {
            Ok(())
        } else {
            l.err(format!("`{mn}` expects {n} operands, got {}", parts.len()))
        }
    };

    // Branches and symbol references are checked here, so an undefined
    // name fails at its line rather than at layout.
    let label = |name: &str| l.label(name).map(|_| name.to_string());
    let symbol = |name: &str, kind: &str, known: Option<u32>| {
        known
            .map(|_| name.to_string())
            .ok_or_else(|| l.error(format!("unknown {kind} `{name}`")))
    };
    if let Some(cc) = cc_of(mn) {
        need(1)?;
        return Ok(SymInst::JccLabel(cc, label(parts[0])?));
    }

    Ok(match mn {
        "mov" => {
            need(2)?;
            let dst = parse_operand(l, parts[0])?;
            let src = parse_operand(l, parts[1])?;
            match (dst, src) {
                (Operand::Reg(d, wd), Operand::Reg(s, ws)) => {
                    if wd != ws {
                        return l.err("mov operand widths differ");
                    }
                    if !matches!(wd, OpWidth::B32 | OpWidth::B64) {
                        return l.err("narrow reg-reg mov: use movzx/movsx");
                    }
                    SymInst::Real(Inst::MovRR {
                        w: wd,
                        dst: d,
                        src: s,
                    })
                }
                (Operand::Reg(d, OpWidth::B64), Operand::Imm(imm)) => {
                    SymInst::Real(Inst::MovRI { dst: d, imm })
                }
                (Operand::Reg(d, w), Operand::Mem(kw, mem)) => {
                    if let Some(kw) = kw {
                        if kw != w {
                            return l.err("size keyword disagrees with register width");
                        }
                    }
                    if !matches!(w, OpWidth::B32 | OpWidth::B64) {
                        return l.err("narrow loads: use movzx/movsx");
                    }
                    SymInst::Real(Inst::MovLoad { w, dst: d, mem })
                }
                (Operand::Mem(kw, mem), Operand::Reg(s, w)) => {
                    if let Some(kw) = kw {
                        if kw != w {
                            return l.err("size keyword disagrees with register width");
                        }
                    }
                    SymInst::Real(Inst::MovStore { w, mem, src: s })
                }
                (Operand::Mem(Some(w), mem), Operand::Imm(imm)) => {
                    let imm =
                        i32::try_from(imm).map_err(|_| l.error("store immediate overflows i32"))?;
                    SymInst::Real(Inst::MovStoreImm { w, mem, imm })
                }
                (Operand::Mem(None, _), Operand::Imm(_)) => {
                    return l.err("store of immediate needs a size keyword")
                }
                _ => return l.err("unsupported mov operand combination"),
            }
        }
        "movzx" | "movsx" => {
            need(2)?;
            let Operand::Reg(dst, OpWidth::B64) = parse_operand(l, parts[0])? else {
                return l.err(format!("{mn} destination must be a 64-bit register"));
            };
            let (from, src) = match parse_operand(l, parts[1])? {
                Operand::Reg(r, w) => (w, Rm::Reg(r)),
                Operand::Mem(Some(w), mem) => (w, Rm::Mem(mem)),
                Operand::Mem(None, _) => {
                    return l.err(format!("{mn} memory source needs a size keyword"))
                }
                Operand::Imm(_) => return l.err(format!("{mn} source cannot be immediate")),
            };
            let ok = matches!(
                (mn, from),
                ("movzx", OpWidth::B8 | OpWidth::B16)
                    | ("movsx", OpWidth::B8 | OpWidth::B16 | OpWidth::B32)
            );
            if !ok {
                return l.err(format!("{mn} cannot widen from {} bits", from.bits()));
            }
            if mn == "movzx" {
                SymInst::Real(Inst::MovZx { from, dst, src })
            } else {
                SymInst::Real(Inst::MovSx { from, dst, src })
            }
        }
        "lea" => {
            need(2)?;
            let Operand::Reg(dst, OpWidth::B64) = parse_operand(l, parts[0])? else {
                return l.err("lea destination must be a 64-bit register");
            };
            if let Some(name) = parts[1].strip_prefix("func ") {
                let name = name.trim();
                SymInst::LeaFunc(dst, symbol(name, "function", l.function(name))?)
            } else if let Some(name) = parts[1].strip_prefix("global ") {
                let name = name.trim();
                SymInst::LeaGlobal(dst, symbol(name, "global", l.global(name))?)
            } else {
                let Operand::Mem(_, mem) = parse_operand(l, parts[1])? else {
                    return l.err("lea source must be a memory operand");
                };
                SymInst::Real(Inst::Lea { dst, mem })
            }
        }
        _ if alu_of(mn).is_some() => {
            let op = alu_of(mn).unwrap();
            need(2)?;
            let Operand::Reg(dst, OpWidth::B64) = parse_operand(l, parts[0])? else {
                return l.err(format!("{mn} destination must be a 64-bit register"));
            };
            match parse_operand(l, parts[1])? {
                Operand::Reg(src, OpWidth::B64) => SymInst::Real(Inst::AluRR { op, dst, src }),
                Operand::Reg(..) => return l.err(format!("{mn} source must be 64-bit")),
                Operand::Imm(imm) => {
                    let imm =
                        i32::try_from(imm).map_err(|_| l.error("ALU immediate overflows i32"))?;
                    SymInst::Real(Inst::AluRI { op, dst, imm })
                }
                Operand::Mem(kw, mem) => {
                    if matches!(kw, Some(w) if w != OpWidth::B64) {
                        return l.err(format!("{mn} memory source must be qword"));
                    }
                    SymInst::Real(Inst::AluRM { op, dst, mem })
                }
            }
        }
        "test" => {
            need(2)?;
            let (Operand::Reg(a, OpWidth::B64), Operand::Reg(b, OpWidth::B64)) =
                (parse_operand(l, parts[0])?, parse_operand(l, parts[1])?)
            else {
                return l.err("test expects two 64-bit registers");
            };
            SymInst::Real(Inst::TestRR { a, b })
        }
        "shl" | "shr" => {
            need(2)?;
            let Operand::Reg(dst, OpWidth::B64) = parse_operand(l, parts[0])? else {
                return l.err(format!("{mn} destination must be a 64-bit register"));
            };
            let Operand::Imm(amt) = parse_operand(l, parts[1])? else {
                return l.err(format!("{mn} amount must be immediate"));
            };
            let amt = u8::try_from(amt)
                .ok()
                .filter(|a| *a < 64)
                .ok_or_else(|| l.error("shift amount must be 0-63"))?;
            let sh = if mn == "shl" { Shift::Shl } else { Shift::Shr };
            SymInst::Real(Inst::ShiftRI { sh, dst, amt })
        }
        "push" | "pop" => {
            need(1)?;
            let Operand::Reg(reg, OpWidth::B64) = parse_operand(l, parts[0])? else {
                return l.err(format!("{mn} expects a 64-bit register"));
            };
            if mn == "push" {
                SymInst::Real(Inst::Push { reg })
            } else {
                SymInst::Real(Inst::Pop { reg })
            }
        }
        "jmp" => {
            need(1)?;
            SymInst::JmpLabel(label(parts[0])?)
        }
        "call" => {
            need(1)?;
            let target = parts[0];
            if l.function(target).is_some() {
                SymInst::CallFunc(target.to_string())
            } else if l.extern_index(target).is_some() {
                SymInst::CallExtern(target.to_string())
            } else if let Some((reg, OpWidth::B64)) = parse_reg(target) {
                SymInst::Real(Inst::CallInd { reg })
            } else {
                return l.err(format!("unknown call target `{target}`"));
            }
        }
        "ret" => {
            need(0)?;
            SymInst::Real(Inst::Ret)
        }
        other => return l.err(format!("unknown mnemonic `{other}`")),
    })
}

/// Renders an image back to assembly text that [`assemble`] parses to an
/// identical image. Branch targets get `L<offset>` labels.
///
/// # Errors
///
/// Returns [`ImageError`] when the text bytes don't decode, or when a call
/// or RIP reference points at no known function, extern or global.
pub fn disassemble(image: &Image) -> std::result::Result<String, ImageError> {
    print_program(
        &image.name,
        &image.externs,
        &image.globals,
        &image.functions,
        |out, fi, f| write_body(out, image, fi, f),
    )
}

fn write_body(
    out: &mut String,
    image: &Image,
    fi: usize,
    f: &ImageFunction,
) -> std::result::Result<(), ImageError> {
    let code = &image.text[f.offset as usize..(f.offset + f.len) as usize];
    let insts = decode_all(code)
        .map_err(|e| ImageError::new(format!("function `{}`: {}", f.name, e.message)))?;
    let branch_target = |off: usize, len: usize, rel: i32| {
        (off as u64 + len as u64).wrapping_add(rel as i64 as u64)
    };
    let mut targets: Vec<u64> = insts
        .iter()
        .filter_map(|&(inst, off, len)| match inst {
            Inst::Jmp { rel } | Inst::Jcc { rel, .. } => Some(branch_target(off, len, rel)),
            _ => None,
        })
        .collect();
    targets.sort_unstable();
    targets.dedup();
    for &(inst, off, len) in &insts {
        if targets.binary_search(&(off as u64)).is_ok() {
            let _ = writeln!(out, "L{off}:");
        }
        let next_off = off as u64 + len as u64;
        let _ = match inst {
            Inst::Jmp { rel } => writeln!(out, "    jmp L{}", branch_target(off, len, rel)),
            Inst::Jcc { cc, rel } => {
                let t = branch_target(off, len, rel);
                writeln!(out, "    j{} L{t}", cc.mnemonic())
            }
            Inst::Call { rel } => {
                let addr = (TEXT_BASE + f.offset as u64 + next_off).wrapping_add(rel as i64 as u64);
                if let Some(ti) = image.func_at_addr(addr) {
                    writeln!(out, "    call {}", image.functions[ti].name)
                } else if let Some(ei) = image.plt_at_addr(addr) {
                    writeln!(out, "    call {}", image.externs[ei].name)
                } else {
                    return Err(ImageError::new(format!(
                        "call target {addr:#x} matches no symbol"
                    )));
                }
            }
            Inst::Lea {
                dst,
                mem: Mem::Rip { disp },
            } => {
                let addr = rip_target(image, fi, next_off, disp);
                if let Some(ti) = image.func_at_addr(addr) {
                    writeln!(out, "    lea {dst}, func {}", image.functions[ti].name)
                } else if let Some((gi, 0)) = image.global_at_addr(addr) {
                    writeln!(out, "    lea {dst}, global {}", image.globals[gi].name)
                } else {
                    return Err(ImageError::new(format!(
                        "rip reference {addr:#x} matches no symbol"
                    )));
                }
            }
            other => writeln!(out, "    {other}"),
        };
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
module demo
extern malloc, 1, ret
global table, 64

func helper(1) -> ret {
    mov rax, rdi
    add rax, 1
    ret
}

func main(0) -> ret {
    push rbp
    mov rbp, rsp
    sub rsp, 16
    mov rdi, 16
    call malloc
    mov qword [rbp-8], rax
    mov rax, qword [rbp-8]
    test rax, rax
    je out
    mov rdi, rax
    call helper
out:
    lea rsi, global table
    lea rdx, func helper
    mov rsp, rbp
    pop rbp
    ret
}
"#;

    #[test]
    fn assembles_sample() {
        let img = assemble(SAMPLE).unwrap();
        assert_eq!(img.name, "demo");
        assert_eq!(img.externs.len(), 1);
        assert_eq!(img.globals.len(), 1);
        assert_eq!(img.functions.len(), 2);
        // Every function body decodes cleanly.
        for f in &img.functions {
            let code = &img.text[f.offset as usize..(f.offset + f.len) as usize];
            decode_all(code).unwrap();
        }
    }

    #[test]
    fn disassemble_roundtrip() {
        let img = assemble(SAMPLE).unwrap();
        let text = disassemble(&img).unwrap();
        let img2 = assemble(&text).unwrap();
        assert_eq!(img, img2);
    }

    #[test]
    fn memory_operand_forms() {
        let text = "module m\nfunc f(0) -> void {\n    mov rax, qword [rbx+rcx*8+16]\n    mov rdx, qword [rsp+8]\n    mov ecx, dword [rbp-4]\n    ret\n}\n";
        let img = assemble(text).unwrap();
        let f = &img.functions[0];
        let code = &img.text[f.offset as usize..(f.offset + f.len) as usize];
        let insts = decode_all(code).unwrap();
        assert!(matches!(
            insts[0].0,
            Inst::MovLoad {
                mem: Mem::BaseIndex { scale: 8, .. },
                ..
            }
        ));
    }

    #[test]
    fn unknown_call_target_reports_line() {
        let bad = "module m\nfunc f(0) -> void {\n    call ghost\n}\n";
        let e = assemble(bad).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("ghost"));
    }

    #[test]
    fn sub_register_mnemonics() {
        let text = "module m\nfunc f(1) -> ret {\n    movzx rax, dil\n    movsx rcx, eax\n    mov eax, ecx\n    ret\n}\n";
        let img = assemble(text).unwrap();
        let f = &img.functions[0];
        let code = &img.text[f.offset as usize..(f.offset + f.len) as usize];
        let insts = decode_all(code).unwrap();
        assert!(matches!(
            insts[0].0,
            Inst::MovZx {
                from: OpWidth::B8,
                src: Rm::Reg(Gpr::RDI),
                ..
            }
        ));
        assert!(matches!(
            insts[2].0,
            Inst::MovRR {
                w: OpWidth::B32,
                ..
            }
        ));
    }
}
