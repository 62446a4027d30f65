//! The SBF ("simulated binary format") container.
//!
//! An [`Image`] is the in-memory form of a whole program: external
//! declarations, global regions, and functions with their machine code.
//! [`encode`]/[`decode`] serialize it to/from bytes — the artifact a
//! "stripped binary" is in this reproduction. After the `SBF1` magic the
//! layout is the shared one of [`manta_ir::frontend::image`]; each
//! function row ends with its instruction count and encoded instructions.

use manta_ir::frontend::image::{decode_tables, encode_tables, FunctionEntry, PutLe, Reader};
use manta_ir::{BinOp, CmpPred, Width};

pub use manta_ir::frontend::image::{ImageError, ImageExtern, ImageGlobal};

use crate::inst::{MachInst, Reg};

/// Magic bytes identifying an SBF image.
pub const MAGIC: &[u8; 4] = b"SBF1";

/// A function in an image.
#[derive(Clone, PartialEq, Debug)]
pub struct ImageFunction {
    /// Symbol name.
    pub name: String,
    /// Number of register parameters (`r1..`).
    pub nparams: u8,
    /// Whether the function returns a value in `r0`.
    pub has_ret: bool,
    /// Machine code.
    pub code: Vec<MachInst>,
}

impl FunctionEntry for ImageFunction {
    fn name(&self) -> &str {
        &self.name
    }
    fn nparams(&self) -> u8 {
        self.nparams
    }
    fn has_ret(&self) -> bool {
        self.has_ret
    }
}

/// A whole SB-ISA program.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Image {
    /// Program name.
    pub name: String,
    /// External declarations.
    pub externs: Vec<ImageExtern>,
    /// Globals.
    pub globals: Vec<ImageGlobal>,
    /// Functions.
    pub functions: Vec<ImageFunction>,
}

impl Image {
    /// Total instruction count.
    pub fn total_insts(&self) -> usize {
        self.functions.iter().map(|f| f.code.len()).sum()
    }
}

fn err<T>(message: impl Into<String>) -> Result<T, ImageError> {
    Err(ImageError::new(message))
}

/// Serializes `image` to bytes.
pub fn encode(image: &Image) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    encode_tables(
        &mut buf,
        &image.name,
        &image.externs,
        &image.globals,
        &image.functions,
        |buf, f| {
            buf.put_u32_le(f.code.len() as u32);
            for inst in &f.code {
                encode_inst(buf, inst);
            }
        },
    );
    buf
}

/// Deserializes an image from bytes.
///
/// # Errors
///
/// Returns [`ImageError`] for truncated or malformed input.
pub fn decode(bytes: &[u8]) -> Result<Image, ImageError> {
    let mut r = Reader::after_magic(bytes, MAGIC, "SBF")?;
    let (name, externs, globals, functions) =
        decode_tables(&mut r, |name, nparams, has_ret, r| {
            let n_code = r.u32()? as usize;
            // Every instruction takes at least one byte, which bounds the
            // allocation by the input's size.
            let mut code = Vec::with_capacity(n_code.min(r.remaining()));
            for _ in 0..n_code {
                code.push(decode_inst(r)?);
            }
            Ok(ImageFunction {
                name,
                nparams,
                has_ret,
                code,
            })
        })?;
    Ok(Image {
        name,
        externs,
        globals,
        functions,
    })
}

fn width_code(w: Width) -> u8 {
    match w {
        Width::W1 => 0,
        Width::W8 => 1,
        Width::W16 => 2,
        Width::W32 => 3,
        Width::W64 => 4,
    }
}

fn width_from(code: u8) -> Result<Width, ImageError> {
    Ok(match code {
        0 => Width::W1,
        1 => Width::W8,
        2 => Width::W16,
        3 => Width::W32,
        4 => Width::W64,
        other => return err(format!("bad width code {other}")),
    })
}

fn binop_code(op: BinOp) -> u8 {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::Div => 3,
        BinOp::Rem => 4,
        BinOp::And => 5,
        BinOp::Or => 6,
        BinOp::Xor => 7,
        BinOp::Shl => 8,
        BinOp::Shr => 9,
    }
}

fn binop_from(code: u8) -> Result<BinOp, ImageError> {
    Ok(match code {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        2 => BinOp::Mul,
        3 => BinOp::Div,
        4 => BinOp::Rem,
        5 => BinOp::And,
        6 => BinOp::Or,
        7 => BinOp::Xor,
        8 => BinOp::Shl,
        9 => BinOp::Shr,
        other => return err(format!("bad binop code {other}")),
    })
}

fn pred_code(p: CmpPred) -> u8 {
    match p {
        CmpPred::Eq => 0,
        CmpPred::Ne => 1,
        CmpPred::Lt => 2,
        CmpPred::Le => 3,
        CmpPred::Gt => 4,
        CmpPred::Ge => 5,
    }
}

fn pred_from(code: u8) -> Result<CmpPred, ImageError> {
    Ok(match code {
        0 => CmpPred::Eq,
        1 => CmpPred::Ne,
        2 => CmpPred::Lt,
        3 => CmpPred::Le,
        4 => CmpPred::Gt,
        5 => CmpPred::Ge,
        other => return err(format!("bad predicate code {other}")),
    })
}

fn encode_inst(buf: &mut Vec<u8>, inst: &MachInst) {
    match inst {
        MachInst::Mov { rd, rs } => {
            buf.put_u8(0);
            buf.put_u8(rd.0);
            buf.put_u8(rs.0);
        }
        MachInst::MovImm { rd, imm } => {
            buf.put_u8(1);
            buf.put_u8(rd.0);
            buf.put_u64_le(*imm as u64);
        }
        MachInst::MovFloat { rd, imm } => {
            buf.put_u8(2);
            buf.put_u8(rd.0);
            buf.put_u64_le(imm.to_bits());
        }
        MachInst::Bin { op, rd, rs, rt } => {
            buf.put_u8(3);
            buf.put_u8(binop_code(*op));
            buf.put_u8(rd.0);
            buf.put_u8(rs.0);
            buf.put_u8(rt.0);
        }
        MachInst::Cmp { pred, rd, rs, rt } => {
            buf.put_u8(4);
            buf.put_u8(pred_code(*pred));
            buf.put_u8(rd.0);
            buf.put_u8(rs.0);
            buf.put_u8(rt.0);
        }
        MachInst::Load { width, rd, rs, off } => {
            buf.put_u8(5);
            buf.put_u8(width_code(*width));
            buf.put_u8(rd.0);
            buf.put_u8(rs.0);
            buf.put_u32_le(*off);
        }
        MachInst::Store { width, rd, off, rs } => {
            buf.put_u8(6);
            buf.put_u8(width_code(*width));
            buf.put_u8(rd.0);
            buf.put_u32_le(*off);
            buf.put_u8(rs.0);
        }
        MachInst::Salloc { rd, size } => {
            buf.put_u8(7);
            buf.put_u8(rd.0);
            buf.put_u32_le(*size);
        }
        MachInst::LeaGlobal { rd, index } => {
            buf.put_u8(8);
            buf.put_u8(rd.0);
            buf.put_u32_le(*index);
        }
        MachInst::LeaFunc { rd, index } => {
            buf.put_u8(9);
            buf.put_u8(rd.0);
            buf.put_u32_le(*index);
        }
        MachInst::Call { index, nargs } => {
            buf.put_u8(10);
            buf.put_u32_le(*index);
            buf.put_u8(*nargs);
        }
        MachInst::ECall { index, nargs } => {
            buf.put_u8(11);
            buf.put_u32_le(*index);
            buf.put_u8(*nargs);
        }
        MachInst::ICall { rs, nargs, ret } => {
            buf.put_u8(12);
            buf.put_u8(rs.0);
            buf.put_u8(*nargs);
            buf.put_u8(*ret as u8);
        }
        MachInst::Jmp { target } => {
            buf.put_u8(13);
            buf.put_u32_le(*target);
        }
        MachInst::Brz { rs, target } => {
            buf.put_u8(14);
            buf.put_u8(rs.0);
            buf.put_u32_le(*target);
        }
        MachInst::Ret => buf.put_u8(15),
    }
}

fn decode_inst(r: &mut Reader<'_>) -> Result<MachInst, ImageError> {
    let opcode = r.u8()?;
    Ok(match opcode {
        0 => MachInst::Mov {
            rd: reg(r.u8()?)?,
            rs: reg(r.u8()?)?,
        },
        1 => MachInst::MovImm {
            rd: reg(r.u8()?)?,
            imm: r.u64()? as i64,
        },
        2 => MachInst::MovFloat {
            rd: reg(r.u8()?)?,
            imm: f64::from_bits(r.u64()?),
        },
        3 => MachInst::Bin {
            op: binop_from(r.u8()?)?,
            rd: reg(r.u8()?)?,
            rs: reg(r.u8()?)?,
            rt: reg(r.u8()?)?,
        },
        4 => MachInst::Cmp {
            pred: pred_from(r.u8()?)?,
            rd: reg(r.u8()?)?,
            rs: reg(r.u8()?)?,
            rt: reg(r.u8()?)?,
        },
        5 => MachInst::Load {
            width: width_from(r.u8()?)?,
            rd: reg(r.u8()?)?,
            rs: reg(r.u8()?)?,
            off: r.u32()?,
        },
        6 => MachInst::Store {
            width: width_from(r.u8()?)?,
            rd: reg(r.u8()?)?,
            off: r.u32()?,
            rs: reg(r.u8()?)?,
        },
        7 => MachInst::Salloc {
            rd: reg(r.u8()?)?,
            size: r.u32()?,
        },
        8 => MachInst::LeaGlobal {
            rd: reg(r.u8()?)?,
            index: r.u32()?,
        },
        9 => MachInst::LeaFunc {
            rd: reg(r.u8()?)?,
            index: r.u32()?,
        },
        10 => MachInst::Call {
            index: r.u32()?,
            nargs: r.u8()?,
        },
        11 => MachInst::ECall {
            index: r.u32()?,
            nargs: r.u8()?,
        },
        12 => MachInst::ICall {
            rs: reg(r.u8()?)?,
            nargs: r.u8()?,
            ret: r.u8()? != 0,
        },
        13 => MachInst::Jmp { target: r.u32()? },
        14 => MachInst::Brz {
            rs: reg(r.u8()?)?,
            target: r.u32()?,
        },
        15 => MachInst::Ret,
        other => return err(format!("bad opcode {other}")),
    })
}

fn reg(code: u8) -> Result<Reg, ImageError> {
    if (code as usize) < Reg::COUNT {
        Ok(Reg(code))
    } else {
        err(format!("bad register r{code}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Image {
        Image {
            name: "sample".into(),
            externs: vec![ImageExtern {
                name: "malloc".into(),
                nparams: 1,
                has_ret: true,
            }],
            globals: vec![ImageGlobal {
                name: "tbl".into(),
                size: 64,
            }],
            functions: vec![ImageFunction {
                name: "f".into(),
                nparams: 1,
                has_ret: true,
                code: vec![
                    MachInst::MovImm {
                        rd: Reg(2),
                        imm: -5,
                    },
                    MachInst::Bin {
                        op: BinOp::Add,
                        rd: Reg(0),
                        rs: Reg(1),
                        rt: Reg(2),
                    },
                    MachInst::MovFloat {
                        rd: Reg(3),
                        imm: 1.5,
                    },
                    MachInst::Load {
                        width: Width::W32,
                        rd: Reg(4),
                        rs: Reg(0),
                        off: 12,
                    },
                    MachInst::Store {
                        width: Width::W64,
                        rd: Reg(0),
                        off: 4,
                        rs: Reg(4),
                    },
                    MachInst::Brz {
                        rs: Reg(4),
                        target: 7,
                    },
                    MachInst::Call { index: 0, nargs: 1 },
                    MachInst::Ret,
                ],
            }],
        }
    }

    #[test]
    fn roundtrip() {
        let img = sample();
        let bytes = encode(&img);
        let back = decode(&bytes).unwrap();
        assert_eq!(img, back);
    }

    #[test]
    fn rejects_bad_magic() {
        let e = decode(b"XXXX").unwrap_err();
        assert!(e.message.contains("magic"));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let bytes = encode(&sample());
        for cut in 0..bytes.len() {
            assert!(
                decode(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must fail"
            );
        }
    }

    #[test]
    fn rejects_bad_register() {
        let image = Image {
            functions: vec![ImageFunction {
                name: "f".into(),
                nparams: 0,
                has_ret: false,
                code: vec![MachInst::Mov {
                    rd: Reg(0),
                    rs: Reg(0),
                }],
            }],
            ..Default::default()
        };
        // The image ends with the `mov`: opcode, rd, rs.
        let mut bytes = encode(&image);
        let rd = bytes.len() - 2;
        bytes[rd] = 99;
        let e = decode(&bytes).unwrap_err();
        assert!(e.message.contains("register"));
    }
}
