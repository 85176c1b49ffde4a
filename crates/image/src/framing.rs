//! The one length-prefixed framing implementation shared by every wire
//! surface in the workspace: framed multi-image PBM ingest
//! ([`crate::pbm::write_framed`] / [`crate::pbm::FramedPbmReader`]), the
//! `slapd` request protocol, and the protocol-v2 stream-record frames.
//!
//! A frame is `<decimal byte length>\n<exactly that many body bytes>`.
//! Leading PBM whitespace before the digits is tolerated (so a trailing
//! newline after a previous body parses cleanly), the prefix is accumulated
//! with checked arithmetic against a caller-supplied cap, and the body is
//! read straight into the caller's buffer, which grows (amortized) with the
//! bytes that actually arrive and never to the declared length — a lying
//! prefix costs memory in proportion to the real data, not the claim.
//!
//! Three independent hand-rolled copies of this logic used to live in
//! `pbm.rs`, `serve::protocol`, and the stream-record codec; they now all
//! call through here, so the byte-soup no-panic property tests in
//! `serve::wire` cover every framing consumer at once.

use std::io::{self, Read, Write};

/// Default upper bound on a declared frame length (2³¹ bytes). Prefixes
/// above the cap are rejected as [`FrameError::Overflow`] before any body
/// byte is read.
pub const MAX_FRAME_BYTES: usize = 1 << 31;

/// Typed failure of the framing layer, independent of what the body holds.
#[derive(Debug)]
pub enum FrameError {
    /// A prefix byte that is neither an ASCII digit nor PBM whitespace.
    BadPrefix(u8),
    /// A declared length above the parser's cap: the prefix is lying,
    /// reject before reading the body.
    Overflow {
        /// The declared (absurd) byte length, saturated at the point the
        /// cap was crossed.
        declared: usize,
    },
    /// Input ended before the declared body (or, with `missing ==
    /// declared`, before the prefix terminator).
    Truncated {
        /// Bytes the prefix declared.
        declared: usize,
        /// Bytes that never arrived.
        missing: usize,
    },
    /// Transport failure underneath the parser.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadPrefix(b) => {
                write!(f, "bad frame length byte {:?}", *b as char)
            }
            FrameError::Overflow { declared } => {
                write!(f, "frame length prefix out of range ({declared})")
            }
            FrameError::Truncated { declared, missing } => {
                write!(f, "frame truncated: {missing} of {declared} bytes missing")
            }
            FrameError::Io(e) => write!(f, "I/O error under the frame parser: {e}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// PBM whitespace (the netpbm definition) — the byte classes a prefix may
/// start with and must end with.
pub fn is_frame_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n' | b'\r' | 0x0b | 0x0c)
}

/// Incremental decimal length-prefix parser: feed bytes one at a time, get
/// the parsed length back the moment the terminator arrives. Usable both
/// from blocking readers ([`Frame::read_into`]) and from nonblocking
/// connection state machines that receive bytes as the socket delivers them.
#[derive(Debug)]
pub struct PrefixParser {
    len: Option<usize>,
    max: usize,
}

impl PrefixParser {
    /// A fresh parser rejecting declared lengths above `max`.
    pub fn new(max: usize) -> Self {
        PrefixParser { len: None, max }
    }

    /// Forgets any partially-accumulated digits, ready for the next prefix.
    pub fn reset(&mut self) {
        self.len = None;
    }

    /// Digits accumulated so far, if any — for truncation reporting when
    /// input ends mid-prefix.
    pub fn declared(&self) -> Option<usize> {
        self.len
    }

    /// Consumes one byte. `Ok(None)` means feed more; `Ok(Some(len))` means
    /// the prefix (terminator included) is complete. Whitespace before the
    /// first digit is skipped; whitespace after at least one digit
    /// terminates; anything else is [`FrameError::BadPrefix`].
    pub fn step(&mut self, b: u8) -> Result<Option<usize>, FrameError> {
        if b.is_ascii_digit() {
            let d = (b - b'0') as usize;
            let v = self
                .len
                .unwrap_or(0)
                .checked_mul(10)
                .and_then(|v| v.checked_add(d))
                .filter(|&v| v <= self.max)
                .ok_or(FrameError::Overflow {
                    declared: self.len.unwrap_or(0).saturating_mul(10).saturating_add(d),
                })?;
            self.len = Some(v);
            Ok(None)
        } else if is_frame_space(b) {
            match self.len.take() {
                Some(v) => Ok(Some(v)),
                None => Ok(None),
            }
        } else {
            Err(FrameError::BadPrefix(b))
        }
    }
}

/// The framing codec: static writers and a blocking reader over the
/// `<decimal length>\n<body>` record format.
pub struct Frame;

impl Frame {
    /// Writes the prefix alone: `len` in ASCII decimal plus the `\n`
    /// terminator. Callers streaming a body they don't hold in one buffer
    /// (e.g. [`crate::pbm::write_framed`]) follow with exactly `len` bytes.
    pub fn write_prefix<W: Write>(mut w: W, len: usize) -> io::Result<()> {
        writeln!(w, "{len}")
    }

    /// Writes one complete frame: prefix then body.
    pub fn write<W: Write>(mut w: W, body: &[u8]) -> io::Result<()> {
        Frame::write_prefix(&mut w, body.len())?;
        w.write_all(body)
    }

    /// Reads one frame body into `buf` (cleared first), enforcing `max` on
    /// the declared length. Returns the body length, or `Ok(None)` at a
    /// clean end of input before any digit. The body is read straight into
    /// `buf`, bounded by the declared length; `buf` grows with amortized
    /// doubling as bytes arrive and never reserves the declared length, so
    /// a lying prefix costs about twice the bytes that really arrived.
    pub fn read_into<R: Read>(
        mut r: R,
        buf: &mut Vec<u8>,
        max: usize,
    ) -> Result<Option<usize>, FrameError> {
        let mut parser = PrefixParser::new(max);
        let mut byte = [0u8; 1];
        let len = loop {
            match r.read(&mut byte) {
                Ok(0) => {
                    return match parser.declared() {
                        None => Ok(None), // clean end between frames
                        Some(declared) => Err(FrameError::Truncated {
                            declared,
                            missing: declared,
                        }),
                    };
                }
                Ok(_) => {
                    if let Some(len) = parser.step(byte[0])? {
                        break len;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(FrameError::Io(e)),
            }
        };
        buf.clear();
        let got = r
            .take(len as u64)
            .read_to_end(buf)
            .map_err(FrameError::Io)?;
        if got < len {
            return Err(FrameError::Truncated {
                declared: len,
                missing: len - got,
            });
        }
        Ok(Some(len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_one(bytes: &[u8]) -> Result<Option<Vec<u8>>, FrameError> {
        let mut buf = Vec::new();
        Frame::read_into(bytes, &mut buf, MAX_FRAME_BYTES).map(|got| got.map(|_| buf))
    }

    #[test]
    fn frames_roundtrip_back_to_back() {
        let mut wire = Vec::new();
        Frame::write(&mut wire, b"hello").unwrap();
        Frame::write(&mut wire, b"").unwrap();
        Frame::write(&mut wire, &[0u8; 300]).unwrap();
        let mut r = &wire[..];
        let mut buf = Vec::new();
        assert!(matches!(
            Frame::read_into(&mut r, &mut buf, 1 << 20),
            Ok(Some(5))
        ));
        assert_eq!(buf, b"hello");
        assert!(matches!(
            Frame::read_into(&mut r, &mut buf, 1 << 20),
            Ok(Some(0))
        ));
        assert!(buf.is_empty());
        assert!(matches!(
            Frame::read_into(&mut r, &mut buf, 1 << 20),
            Ok(Some(300))
        ));
        assert_eq!(buf, vec![0u8; 300]);
        assert!(matches!(
            Frame::read_into(&mut r, &mut buf, 1 << 20),
            Ok(None)
        ));
    }

    #[test]
    fn leading_whitespace_before_the_digits_is_tolerated() {
        assert_eq!(read_one(b"\n\r 2\nok").unwrap().unwrap(), b"ok");
    }

    #[test]
    fn clean_eof_before_any_digit_is_end_of_stream() {
        assert!(read_one(b"").unwrap().is_none());
        assert!(read_one(b"\n \n").unwrap().is_none());
    }

    #[test]
    fn eof_inside_the_prefix_reports_full_truncation() {
        match read_one(b"12") {
            Err(FrameError::Truncated { declared, missing }) => {
                assert_eq!((declared, missing), (12, 12));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn eof_inside_the_body_reports_the_missing_bytes() {
        match read_one(b"10\nabc") {
            Err(FrameError::Truncated { declared, missing }) => {
                assert_eq!((declared, missing), (10, 7));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn a_non_digit_prefix_byte_is_typed() {
        match read_one(b"xy\n") {
            Err(FrameError::BadPrefix(b'x')) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn a_prefix_above_the_cap_is_rejected_before_the_body() {
        let mut wire = b"99999999999999999999\n".to_vec();
        wire.extend_from_slice(&[0u8; 16]);
        match read_one(&wire) {
            Err(FrameError::Overflow { declared }) => assert!(declared > MAX_FRAME_BYTES),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// A reader that hands out at most `step` bytes per call and, when
    /// `interrupt` is set, fails every other call with `Interrupted`.
    struct Trickle<'a> {
        bytes: &'a [u8],
        step: usize,
        interrupt: bool,
        calls: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.interrupt && self.calls.is_multiple_of(2) {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let n = self.step.min(out.len()).min(self.bytes.len());
            out[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    fn patterned(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 % 251) as u8).collect()
    }

    #[test]
    fn one_byte_reads_with_interrupts_yield_the_exact_body() {
        let body = patterned(1000);
        let mut wire = Vec::new();
        Frame::write(&mut wire, &body).unwrap();
        Frame::write(&mut wire, b"tail").unwrap();
        let mut r = Trickle {
            bytes: &wire,
            step: 1,
            interrupt: true,
            calls: 0,
        };
        let mut buf = Vec::new();
        assert_eq!(
            Frame::read_into(&mut r, &mut buf, MAX_FRAME_BYTES).unwrap(),
            Some(1000)
        );
        assert_eq!(buf, body);
        // The reader stopped exactly at the frame boundary.
        assert_eq!(
            Frame::read_into(&mut r, &mut buf, MAX_FRAME_BYTES).unwrap(),
            Some(4)
        );
        assert_eq!(buf, b"tail");
        assert!(Frame::read_into(&mut r, &mut buf, MAX_FRAME_BYTES)
            .unwrap()
            .is_none());
    }

    #[test]
    fn a_lying_prefix_costs_only_the_bytes_that_arrive() {
        let declared = 1usize << 30;
        let arrived = 200 * 1024;
        let mut wire = format!("{declared}\n").into_bytes();
        wire.extend_from_slice(&patterned(arrived));
        let mut buf = Vec::new();
        match Frame::read_into(&wire[..], &mut buf, MAX_FRAME_BYTES) {
            Err(FrameError::Truncated {
                declared: d,
                missing,
            }) => {
                assert_eq!((d, missing), (declared, declared - arrived));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(buf.len(), arrived);
        assert!(
            buf.capacity() <= 2 * arrived + 64 * 1024,
            "capacity {} for {arrived} arrived bytes",
            buf.capacity()
        );
    }

    #[test]
    fn eof_mid_body_across_many_reads_reports_the_missing_bytes() {
        let declared = 4 * 64 * 1024;
        let arrived = 3 * 64 * 1024 + 5;
        let mut wire = format!("{declared}\n").into_bytes();
        wire.extend_from_slice(&patterned(arrived));
        let r = Trickle {
            bytes: &wire,
            step: 10_000,
            interrupt: false,
            calls: 0,
        };
        let mut buf = Vec::new();
        match Frame::read_into(r, &mut buf, MAX_FRAME_BYTES) {
            Err(FrameError::Truncated {
                declared: d,
                missing,
            }) => {
                assert_eq!((d, missing), (declared, declared - arrived));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(buf, patterned(arrived));
    }

    #[test]
    fn the_incremental_parser_matches_the_blocking_reader() {
        let mut p = PrefixParser::new(1 << 20);
        assert!(p.step(b' ').unwrap().is_none());
        assert!(p.step(b'4').unwrap().is_none());
        assert!(p.step(b'2').unwrap().is_none());
        assert_eq!(p.declared(), Some(42));
        assert_eq!(p.step(b'\n').unwrap(), Some(42));
        // Parser is reusable after yielding a length.
        assert!(p.step(b'7').unwrap().is_none());
        assert_eq!(p.step(b'\n').unwrap(), Some(7));
        p.reset();
        assert_eq!(p.declared(), None);
    }
}
