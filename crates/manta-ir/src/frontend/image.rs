//! The symbol tables every image container carries, and their byte codec.
//!
//! Both containers open with an ISA-specific header (SBF's `SBF1`, XLF's
//! ELF ident) and then share one layout, written by [`encode_tables`] and
//! read back by [`decode_tables`]:
//!
//! ```text
//! name      str
//! externs   u32 count, then per extern:   str name, u8 nparams, u8 has_ret
//! globals   u32 count, then per global:   str name, u64 size
//! functions u32 count, then per function: str name, u8 nparams, u8 has_ret,
//!                                         <ISA-specific columns>
//! ```
//!
//! Integers are little-endian; a `str` is a `u16` byte length followed by
//! UTF-8. Names are carried for evaluation bookkeeping only (the
//! ground-truth oracle keys on them); no container carries types.

use std::fmt;

/// An external declaration: a symbol the program calls but does not define.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ImageExtern {
    /// Symbol name.
    pub name: String,
    /// Parameter count (ABI-visible).
    pub nparams: u8,
    /// Whether a value is returned.
    pub has_ret: bool,
}

/// A global data region.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ImageGlobal {
    /// Symbol name.
    pub name: String,
    /// Region size in bytes.
    pub size: u64,
}

/// The signature columns of a function-table row, common to every ISA:
/// what the codec writes before the ISA's columns and what the lifter
/// turns into a function shell.
pub trait FunctionEntry {
    /// Symbol name.
    fn name(&self) -> &str;
    /// Number of register parameters.
    fn nparams(&self) -> u8;
    /// Whether the function returns a value.
    fn has_ret(&self) -> bool;
}

/// A malformed or truncated image, or one that cannot be laid out.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ImageError {
    /// What went wrong.
    pub message: String,
}

impl ImageError {
    /// Creates an error from any displayable message.
    pub fn new(message: impl Into<String>) -> ImageError {
        ImageError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid image: {}", self.message)
    }
}

impl std::error::Error for ImageError {}

/// Little-endian writers on a byte buffer.
pub trait PutLe {
    /// Appends one byte.
    fn put_u8(&mut self, v: u8);
    /// Appends a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16);
    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32);
    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64);
    /// Appends a `str`: `u16` length, then the UTF-8 bytes.
    fn put_str(&mut self, s: &str);
}

impl PutLe for Vec<u8> {
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }
    #[inline]
    fn put_u16_le(&mut self, v: u16) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    #[inline]
    fn put_u32_le(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    #[inline]
    fn put_u64_le(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    #[inline]
    fn put_str(&mut self, s: &str) {
        self.put_u16_le(s.len() as u16);
        self.extend_from_slice(s.as_bytes());
    }
}

/// A cursor over image bytes. Every read returns [`ImageError`] instead of
/// running past the end.
pub struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader over what follows `magic`; an error naming `container`
    /// if `bytes` do not start with it.
    pub fn after_magic(
        bytes: &'a [u8],
        magic: &[u8],
        container: &str,
    ) -> Result<Reader<'a>, ImageError> {
        let bytes = bytes
            .strip_prefix(magic)
            .ok_or_else(|| ImageError::new(format!("bad magic (not an {container} image)")))?;
        Ok(Reader { bytes })
    }

    /// The next `N` bytes.
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], ImageError> {
        let (head, rest) = self
            .bytes
            .split_first_chunk::<N>()
            .ok_or_else(|| ImageError::new("truncated input"))?;
        self.bytes = rest;
        Ok(*head)
    }

    /// The next `len` bytes; the error names `what` was cut short.
    #[inline]
    pub fn slice(&mut self, len: usize, what: &str) -> Result<&'a [u8], ImageError> {
        if self.bytes.len() < len {
            return Err(ImageError::new(format!("truncated {what}")));
        }
        let (head, rest) = self.bytes.split_at(len);
        self.bytes = rest;
        Ok(head)
    }

    /// Number of bytes left.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.bytes.len()
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, ImageError> {
        Ok(self.array::<1>()?[0])
    }

    /// A little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, ImageError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, ImageError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, ImageError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A `str`.
    pub fn str(&mut self) -> Result<String, ImageError> {
        let len = self.u16()? as usize;
        let bytes = self.slice(len, "string")?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ImageError::new("non-utf8 string"))
    }
}

/// Writes the shared tables; `columns` appends each function row's
/// ISA-specific columns after its signature.
pub fn encode_tables<F: FunctionEntry>(
    buf: &mut Vec<u8>,
    name: &str,
    externs: &[ImageExtern],
    globals: &[ImageGlobal],
    functions: &[F],
    mut columns: impl FnMut(&mut Vec<u8>, &F),
) {
    buf.put_str(name);
    buf.put_u32_le(externs.len() as u32);
    for e in externs {
        buf.put_str(&e.name);
        buf.put_u8(e.nparams);
        buf.put_u8(e.has_ret as u8);
    }
    buf.put_u32_le(globals.len() as u32);
    for g in globals {
        buf.put_str(&g.name);
        buf.put_u64_le(g.size);
    }
    buf.put_u32_le(functions.len() as u32);
    for f in functions {
        buf.put_str(f.name());
        buf.put_u8(f.nparams());
        buf.put_u8(f.has_ret() as u8);
        columns(buf, f);
    }
}

/// The program name, externs, globals and function rows of an image.
pub type Tables<F> = (String, Vec<ImageExtern>, Vec<ImageGlobal>, Vec<F>);

/// Reads the shared tables; `row` builds each function from its signature
/// (`name`, `nparams`, `has_ret`) and reads its ISA-specific columns.
///
/// # Errors
///
/// Returns [`ImageError`] for truncated or malformed input, or whatever
/// `row` rejects.
pub fn decode_tables<'a, F>(
    r: &mut Reader<'a>,
    mut row: impl FnMut(String, u8, bool, &mut Reader<'a>) -> Result<F, ImageError>,
) -> Result<Tables<F>, ImageError> {
    let name = r.str()?;
    let externs = (0..r.u32()?)
        .map(|_| {
            let (name, nparams, has_ret) = (r.str()?, r.u8()?, r.u8()? != 0);
            Ok(ImageExtern {
                name,
                nparams,
                has_ret,
            })
        })
        .collect::<Result<_, ImageError>>()?;
    let globals = (0..r.u32()?)
        .map(|_| {
            let (name, size) = (r.str()?, r.u64()?);
            Ok(ImageGlobal { name, size })
        })
        .collect::<Result<_, ImageError>>()?;
    let functions = (0..r.u32()?)
        .map(|_| {
            let (name, nparams, has_ret) = (r.str()?, r.u8()?, r.u8()? != 0);
            row(name, nparams, has_ret, r)
        })
        .collect::<Result<_, ImageError>>()?;
    Ok((name, externs, globals, functions))
}
