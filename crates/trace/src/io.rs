//! Trace serialization: a plain-text interchange format.
//!
//! One operation per line: an `R` or `W` marker (case-insensitive: `r`
//! and `w` are accepted too, though the writer always emits upper case)
//! followed by a hex address, e.g.
//!
//! ```text
//! R 0x7f3a00
//! W 0x7f3a40
//! # comments and blank lines are ignored
//! ```
//!
//! A bare address line is read as a read — so a file that is just a list
//! of hex addresses (the classic "din-lite" dump) loads too. Addresses
//! that do not fit in a `u64` are rejected with the dedicated
//! [`TraceIoError::AddrOverflow`] error rather than being truncated or
//! lumped in with syntax errors.
//!
//! The compact binary sibling of this format lives in
//! [`binary`](crate::binary).

use std::error::Error;
use std::fmt;
use std::io::{BufRead, Write};

/// One memory operation of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemOp {
    /// Byte address.
    pub addr: u64,
    /// Whether the operation is a write.
    pub write: bool,
}

impl MemOp {
    /// A read.
    pub fn read(addr: u64) -> Self {
        Self { addr, write: false }
    }

    /// A write.
    pub fn write(addr: u64) -> Self {
        Self { addr, write: true }
    }
}

/// Error while parsing a trace file.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line that is neither an operation nor a comment.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// The offending content.
        content: String,
    },
    /// A syntactically valid address too large for a `u64`.
    AddrOverflow {
        /// 1-based line number.
        line: usize,
        /// The offending content.
        content: String,
    },
    /// A binary trace whose leading magic bytes are wrong (not a binary
    /// trace at all, or one mangled in transit).
    BadMagic {
        /// The bytes actually found.
        found: [u8; 4],
    },
    /// A binary trace written by a format version this reader does not
    /// understand.
    BadVersion {
        /// The version byte actually found.
        found: u8,
    },
    /// A binary trace that ends mid-structure.
    Truncated {
        /// Which structure the input ran out in.
        context: &'static str,
    },
    /// A binary trace block whose payload does not decode: a varint that
    /// overruns the block or the `u64` range, or trailing garbage after
    /// the last operation.
    Corrupt {
        /// 0-based index of the offending block.
        block: usize,
        /// What failed to decode.
        detail: &'static str,
    },
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "I/O error: {e}"),
            TraceIoError::BadLine { line, content } => {
                write!(f, "bad trace line {line}: {content:?}")
            }
            TraceIoError::AddrOverflow { line, content } => {
                write!(f, "address overflows u64 on trace line {line}: {content:?}")
            }
            TraceIoError::BadMagic { found } => {
                write!(f, "not a binary trace (magic bytes {found:02x?})")
            }
            TraceIoError::BadVersion { found } => {
                write!(f, "unsupported binary trace version {found}")
            }
            TraceIoError::Truncated { context } => {
                write!(f, "binary trace truncated in {context}")
            }
            TraceIoError::Corrupt { block, detail } => {
                write!(f, "corrupt binary trace block {block}: {detail}")
            }
        }
    }
}

impl Error for TraceIoError {}

impl From<std::io::Error> for TraceIoError {
    fn from(e: std::io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

/// Serialize `ops` in the text format.
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn write_trace<W: Write>(ops: &[MemOp], out: &mut W) -> std::io::Result<()> {
    for op in ops {
        writeln!(out, "{} {:#x}", if op.write { 'W' } else { 'R' }, op.addr)?;
    }
    Ok(())
}

/// Parse a trace in the text format. Operation markers are matched
/// case-insensitively (`R`/`r`, `W`/`w`).
///
/// # Errors
///
/// Returns [`TraceIoError::BadLine`] for malformed lines,
/// [`TraceIoError::AddrOverflow`] for addresses that do not fit in a
/// `u64`, and [`TraceIoError::Io`] for underlying read failures.
pub fn read_trace<R: BufRead>(input: R) -> Result<Vec<MemOp>, TraceIoError> {
    let mut ops = Vec::new();
    for (i, line) in input.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let bad = || TraceIoError::BadLine {
            line: i + 1,
            content: trimmed.to_owned(),
        };
        let (write, addr_str) = match trimmed.split_once(char::is_whitespace) {
            Some((marker, rest)) => match marker {
                "R" | "r" => (false, rest.trim()),
                "W" | "w" => (true, rest.trim()),
                _ => return Err(bad()),
            },
            None => (false, trimmed),
        };
        let addr = match parse_addr(addr_str) {
            Ok(addr) => addr,
            Err(AddrParseIssue::Overflow) => {
                return Err(TraceIoError::AddrOverflow {
                    line: i + 1,
                    content: trimmed.to_owned(),
                })
            }
            Err(AddrParseIssue::Invalid) => return Err(bad()),
        };
        ops.push(MemOp { addr, write });
    }
    Ok(ops)
}

enum AddrParseIssue {
    Overflow,
    Invalid,
}

fn parse_addr(s: &str) -> Result<u64, AddrParseIssue> {
    let parsed = if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse::<u64>()
    };
    parsed.map_err(|e| match e.kind() {
        std::num::IntErrorKind::PosOverflow => AddrParseIssue::Overflow,
        _ => AddrParseIssue::Invalid,
    })
}

/// Attach write markers to an address trace: each access becomes a write
/// with probability `write_fraction` (seeded, reproducible). The
/// collected form of [`with_writes_iter`].
pub fn with_writes(addrs: &[u64], write_fraction: f64, seed: u64) -> Vec<MemOp> {
    with_writes_iter(addrs.iter().copied(), write_fraction, seed).collect()
}

/// The streaming form of [`with_writes`]: marks each address as it is
/// pulled, one draw from the seeded generator per address in order, so
/// the operations are the ones `with_writes` returns without an
/// operation vector being built. With `write_fraction == 0.0` every
/// operation is a read.
///
/// # Panics
///
/// Panics if `write_fraction` is outside `[0, 1]`.
pub fn with_writes_iter<I: IntoIterator<Item = u64>>(
    addrs: I,
    write_fraction: f64,
    seed: u64,
) -> impl Iterator<Item = MemOp> {
    use cachekit_policies::rng::Prng;
    assert!(
        (0.0..=1.0).contains(&write_fraction),
        "fraction out of range"
    );
    let mut rng = Prng::seed_from_u64(seed);
    addrs.into_iter().map(move |addr| MemOp {
        addr,
        write: rng.gen_bool(write_fraction),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let ops = vec![MemOp::read(0x40), MemOp::write(0x1000), MemOp::read(7)];
        let mut buf = Vec::new();
        write_trace(&ops, &mut buf).unwrap();
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(back, ops);
    }

    #[test]
    fn comments_blanks_and_bare_addresses_are_accepted() {
        let text = "# a trace\n\n0x40\n64\nW 0x80\n";
        let ops = read_trace(text.as_bytes()).unwrap();
        assert_eq!(
            ops,
            vec![MemOp::read(0x40), MemOp::read(64), MemOp::write(0x80)]
        );
    }

    #[test]
    fn bad_lines_are_reported_with_position() {
        let text = "R 0x40\nX 12\n";
        match read_trace(text.as_bytes()) {
            Err(TraceIoError::BadLine { line, content }) => {
                assert_eq!(line, 2);
                assert_eq!(content, "X 12");
            }
            other => panic!("expected BadLine, got {other:?}"),
        }
    }

    #[test]
    fn lowercase_markers_are_accepted() {
        let text = "r 0x40\nw 0x80\nR 0xc0\nW 0x100\n";
        let ops = read_trace(text.as_bytes()).unwrap();
        assert_eq!(
            ops,
            vec![
                MemOp::read(0x40),
                MemOp::write(0x80),
                MemOp::read(0xc0),
                MemOp::write(0x100),
            ]
        );
    }

    #[test]
    fn overflowing_addresses_get_a_dedicated_error() {
        // 17 hex digits: one past what u64 can hold.
        for text in ["R 0x10000000000000000\n", "18446744073709551616\n"] {
            match read_trace(text.as_bytes()) {
                Err(TraceIoError::AddrOverflow { line: 1, content }) => {
                    assert_eq!(content, text.trim());
                }
                other => panic!("expected AddrOverflow for {text:?}, got {other:?}"),
            }
        }
        // The maximum address itself is fine.
        let ops = read_trace("W 0xffffffffffffffff\n".as_bytes()).unwrap();
        assert_eq!(ops, vec![MemOp::write(u64::MAX)]);
    }

    #[test]
    fn non_numeric_addresses_stay_bad_lines() {
        match read_trace("R zz\n".as_bytes()) {
            Err(TraceIoError::BadLine { line: 1, .. }) => {}
            other => panic!("expected BadLine, got {other:?}"),
        }
    }

    #[test]
    fn with_writes_is_reproducible_and_proportional() {
        let addrs: Vec<u64> = (0..10_000).collect();
        let a = with_writes(&addrs, 0.3, 1);
        let b = with_writes(&addrs, 0.3, 1);
        assert_eq!(a, b);
        let writes = a.iter().filter(|op| op.write).count();
        assert!((2500..3500).contains(&writes), "writes = {writes}");
    }
}
