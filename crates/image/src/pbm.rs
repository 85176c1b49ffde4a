//! Plain (P1) and raw (P4) PBM image input/output.
//!
//! PBM is the natural interchange format for binary images; the examples use
//! it to dump workloads for inspection with standard tools, and
//! [`PbmRowReader`] feeds the streaming labeler ([`crate::stream`]) one row
//! at a time without ever materializing the frame.
//!
//! The header is parsed **byte-exactly**: magic, width, and height are
//! whitespace-separated tokens with `#` comments, and — critically for `P4`
//! — exactly *one* whitespace byte separates the height from the raw pixel
//! bytes. (An earlier line-oriented tokenizer consumed whole lines, so raw
//! pixel bytes sharing the height's line, or containing `#`/newline bytes,
//! could be swallowed as header text.)
//!
//! Every parse failure is a structured [`PbmError`] (wrapped into the
//! `io::Error` the signatures return): untrusted ingest — the `slapd`
//! labeling service in particular — recovers the variant with
//! [`PbmError::from_io`] and maps it to a typed wire error code instead of
//! pattern-matching message strings.

use crate::bitmap::Bitmap;
use crate::framing::{Frame, FrameError};
use crate::stream::RowSource;
use std::io::{self, BufRead, Read, Write};

/// Structured PBM parse failure. Every error this module produces is one of
/// these variants, wrapped into the [`io::Error`] the public signatures
/// return (so [`RowSource`] and every existing caller keep working); a
/// consumer that needs the *taxonomy* — the labeling service maps parse
/// failures to typed wire error codes — recovers it with
/// [`PbmError::from_io`].
#[derive(Debug)]
pub enum PbmError {
    /// Transport failure underneath the parser (the socket died, not the
    /// bytes).
    Io(io::Error),
    /// The magic token was neither `P1` nor `P4`.
    BadMagic(String),
    /// End of input inside the header (or a `P4` header with no pixel byte
    /// after the height's single whitespace).
    TruncatedHeader,
    /// A width/height token that is not a decimal number.
    BadDim {
        /// Which dimension failed (`"width"` or `"height"`).
        name: &'static str,
        /// The offending token.
        token: String,
    },
    /// A zero width or height: no pixel raster can follow.
    ZeroDim {
        /// Declared height.
        rows: usize,
        /// Declared width.
        cols: usize,
    },
    /// `rows × cols` overflows `usize`: the raster is unrepresentable, and
    /// any consumer doing arithmetic on the product would wrap.
    DimsOverflow {
        /// Declared height.
        rows: usize,
        /// Declared width.
        cols: usize,
    },
    /// End of input before the declared raster was complete.
    TruncatedPixels {
        /// Rows the header promised.
        declared_rows: usize,
        /// Rows fully read before the input ended.
        read_rows: usize,
    },
    /// A `P1` raster byte that is not a pixel digit, whitespace, or comment.
    BadPixelByte(u8),
    /// A framed-stream length prefix containing a non-digit byte.
    BadLengthPrefix(u8),
    /// A framed-stream length prefix too large to be a real frame
    /// (> [`MAX_FRAME_BYTES`]): the prefix is lying, reject before reading.
    LyingLengthPrefix {
        /// The declared (absurd) byte length.
        declared: usize,
    },
    /// A framed-stream body that ended before its declared length — either
    /// genuine truncation or a length prefix lying high.
    TruncatedFrame {
        /// Bytes the prefix declared.
        declared: usize,
        /// Bytes that never arrived.
        missing: usize,
    },
}

impl PbmError {
    /// The [`io::ErrorKind`] this error surfaces as: truncation classes map
    /// to [`io::ErrorKind::UnexpectedEof`], malformed bytes to
    /// [`io::ErrorKind::InvalidData`], transport errors to their own kind.
    pub fn kind(&self) -> io::ErrorKind {
        match self {
            PbmError::Io(e) => e.kind(),
            PbmError::TruncatedHeader
            | PbmError::TruncatedPixels { .. }
            | PbmError::TruncatedFrame { .. } => io::ErrorKind::UnexpectedEof,
            _ => io::ErrorKind::InvalidData,
        }
    }

    /// Recovers the typed error from an [`io::Error`] produced by this
    /// module (`None` for foreign errors).
    pub fn from_io(err: &io::Error) -> Option<&PbmError> {
        err.get_ref()?.downcast_ref::<PbmError>()
    }
}

impl std::fmt::Display for PbmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PbmError::Io(e) => write!(f, "I/O error under the PBM parser: {e}"),
            PbmError::BadMagic(m) => write!(f, "unsupported PBM magic {m:?}"),
            PbmError::TruncatedHeader => f.write_str("truncated PBM header"),
            PbmError::BadDim { name, token } => write!(f, "bad PBM {name} {token:?}"),
            PbmError::ZeroDim { rows, cols } => {
                write!(f, "zero-sized PBM image ({rows} x {cols})")
            }
            PbmError::DimsOverflow { rows, cols } => {
                write!(f, "PBM dimensions {rows} x {cols} overflow the pixel count")
            }
            PbmError::TruncatedPixels {
                declared_rows,
                read_rows,
            } => write!(
                f,
                "PBM pixel data truncated: {declared_rows} row(s) declared, {read_rows} read"
            ),
            PbmError::BadPixelByte(b) => {
                write!(f, "unexpected pixel character {:?}", *b as char)
            }
            PbmError::BadLengthPrefix(b) => {
                write!(f, "bad framed PBM length byte {:?}", *b as char)
            }
            PbmError::LyingLengthPrefix { declared } => {
                write!(f, "framed PBM length prefix out of range ({declared})")
            }
            PbmError::TruncatedFrame { declared, missing } => write!(
                f,
                "framed PBM truncated: {missing} of {declared} frame bytes missing"
            ),
        }
    }
}

impl std::error::Error for PbmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PbmError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PbmError> for io::Error {
    fn from(e: PbmError) -> io::Error {
        match e {
            // Transport errors pass through untouched; everything else is
            // wrapped so `PbmError::from_io` can recover the taxonomy.
            PbmError::Io(inner) => inner,
            other => io::Error::new(other.kind(), other),
        }
    }
}

impl From<FrameError> for PbmError {
    /// Maps the shared framing layer's taxonomy onto the PBM-specific one
    /// the framed readers have always reported, keeping every existing
    /// caller's match arms valid.
    fn from(e: FrameError) -> PbmError {
        match e {
            FrameError::BadPrefix(b) => PbmError::BadLengthPrefix(b),
            FrameError::Overflow { declared } => PbmError::LyingLengthPrefix { declared },
            FrameError::Truncated { declared, missing } => {
                PbmError::TruncatedFrame { declared, missing }
            }
            FrameError::Io(inner) => PbmError::Io(inner),
        }
    }
}

/// Writes `img` as plain-text PBM (`P1`).
pub fn write_plain<W: Write>(img: &Bitmap, mut w: W) -> io::Result<()> {
    writeln!(w, "P1")?;
    writeln!(w, "{} {}", img.cols(), img.rows())?;
    for r in 0..img.rows() {
        let mut line = String::with_capacity(img.cols() * 2);
        for c in 0..img.cols() {
            line.push(if img.get(r, c) { '1' } else { '0' });
            if c + 1 < img.cols() {
                line.push(' ');
            }
        }
        writeln!(w, "{line}")?;
    }
    Ok(())
}

/// Writes `img` as raw PBM (`P4`), rows padded to whole bytes.
pub fn write_raw<W: Write>(img: &Bitmap, mut w: W) -> io::Result<()> {
    writeln!(w, "P4")?;
    writeln!(w, "{} {}", img.cols(), img.rows())?;
    let bytes_per_row = img.cols().div_ceil(8);
    let mut row = vec![0u8; bytes_per_row];
    for r in 0..img.rows() {
        row.iter_mut().for_each(|b| *b = 0);
        for c in 0..img.cols() {
            if img.get(r, c) {
                row[c / 8] |= 0x80 >> (c % 8);
            }
        }
        w.write_all(&row)?;
    }
    Ok(())
}

/// PBM variants understood by the reader.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Magic {
    /// Plain text: `0`/`1` characters with whitespace and `#` comments.
    Plain,
    /// Raw: rows of big-endian bit-packed bytes, rows padded to whole bytes.
    Raw,
}

/// PBM whitespace (the netpbm definition).
fn is_pbm_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n' | b'\r' | 0x0b | 0x0c)
}

/// Reads one byte, `None` at end of input.
fn next_byte<R: Read>(r: &mut R) -> Result<Option<u8>, PbmError> {
    let mut b = [0u8; 1];
    loop {
        match r.read(&mut b) {
            Ok(0) => return Ok(None),
            Ok(_) => return Ok(Some(b[0])),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(PbmError::Io(e)),
        }
    }
}

/// Reads one whitespace/comment-delimited header token, byte by byte.
/// Returns the token and the single byte that terminated it (`None` at end
/// of input). A `#` starts a comment running to the end of its line; a
/// comment terminating a token is reported as the newline that closed it, so
/// for `P4` the raw data always begins at the very next byte.
fn read_token<R: BufRead>(r: &mut R) -> Result<(String, Option<u8>), PbmError> {
    let mut token = String::new();
    loop {
        let Some(b) = next_byte(r)? else {
            return if token.is_empty() {
                Err(PbmError::TruncatedHeader)
            } else {
                Ok((token, None))
            };
        };
        if b == b'#' {
            // Swallow the comment through its newline. Mid-token this also
            // terminates the token (netpbm allows comments anywhere in the
            // header); the newline is the delimiter byte.
            loop {
                match next_byte(r)? {
                    Some(b'\n') => break,
                    Some(_) => {}
                    None => {
                        return if token.is_empty() {
                            Err(PbmError::TruncatedHeader)
                        } else {
                            Ok((token, None))
                        }
                    }
                }
            }
            if !token.is_empty() {
                return Ok((token, Some(b'\n')));
            }
        } else if is_pbm_space(b) {
            if !token.is_empty() {
                return Ok((token, Some(b)));
            }
        } else {
            token.push(b as char);
        }
    }
}

/// Parses the PBM header (`magic width height`) byte-exactly. On return the
/// reader is positioned at the first pixel byte: for `P4`, exactly one
/// whitespace byte (or one comment line) after the height. Dimensions are
/// guarded here — zero dims and a `rows × cols` product overflowing `usize`
/// are rejected before any consumer can size a buffer from them.
fn read_header<R: BufRead>(r: &mut R) -> Result<(Magic, usize, usize), PbmError> {
    let (magic_token, _) = read_token(r)?;
    let magic = match magic_token.as_str() {
        "P1" => Magic::Plain,
        "P4" => Magic::Raw,
        other => return Err(PbmError::BadMagic(other.to_string())),
    };
    let dim = |name: &'static str, token: String| {
        token
            .parse::<usize>()
            .map_err(|_| PbmError::BadDim { name, token })
    };
    let cols = dim("width", read_token(r)?.0)?;
    let (height_token, height_term) = read_token(r)?;
    let rows = dim("height", height_token)?;
    if rows == 0 || cols == 0 {
        return Err(PbmError::ZeroDim { rows, cols });
    }
    if rows.checked_mul(cols).is_none() {
        return Err(PbmError::DimsOverflow { rows, cols });
    }
    // The byte that ended the height token was the single whitespace the P4
    // spec puts before the raw data; hitting end of input instead means no
    // pixel data can follow.
    if magic == Magic::Raw && height_term.is_none() {
        return Err(PbmError::TruncatedHeader);
    }
    Ok((magic, cols, rows))
}

/// Incremental PBM reader: parses the header eagerly, then yields one packed
/// row per [`RowSource::next_row`] call — the adapter that feeds
/// [`crate::stream::label_stream`] and the out-of-core band labeler from a
/// file or pipe without materializing the image.
#[derive(Debug)]
pub struct PbmRowReader<R: Read> {
    reader: io::BufReader<R>,
    magic: Magic,
    cols: usize,
    rows: usize,
    next_row: usize,
    /// Raw row buffer for `P4` (`ceil(cols / 8)` bytes).
    raw: Vec<u8>,
}

impl<R: Read> PbmRowReader<R> {
    /// Wraps `r`, reading and validating the PBM header immediately. Any
    /// failure carries a [`PbmError`] payload ([`PbmError::from_io`]).
    pub fn new(r: R) -> io::Result<Self> {
        let mut reader = io::BufReader::new(r);
        let (magic, cols, rows) = read_header(&mut reader).map_err(io::Error::from)?;
        Ok(PbmRowReader {
            reader,
            magic,
            cols,
            rows,
            next_row: 0,
            raw: vec![0u8; cols.div_ceil(8)],
        })
    }

    /// Image width from the header.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Image height from the header.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Reads the next `P1` row: `cols` digit characters, skipping whitespace
    /// and `#` comments.
    fn next_plain_row(&mut self, words: &mut [u64]) -> Result<(), PbmError> {
        let mut col = 0usize;
        while col < self.cols {
            let Some(b) = next_byte(&mut self.reader)? else {
                return Err(PbmError::TruncatedPixels {
                    declared_rows: self.rows,
                    read_rows: self.next_row,
                });
            };
            match b {
                b'0' => col += 1,
                b'1' => {
                    words[col / 64] |= 1u64 << (col % 64);
                    col += 1;
                }
                b'#' => {
                    // Comment through end of line, allowed between pixels.
                    while !matches!(next_byte(&mut self.reader)?, Some(b'\n') | None) {}
                }
                _ if is_pbm_space(b) => {}
                other => return Err(PbmError::BadPixelByte(other)),
            }
        }
        Ok(())
    }

    /// Reads the next `P4` row: `ceil(cols / 8)` raw bytes, most significant
    /// bit leftmost, repacked into least-significant-bit-first words with
    /// the padding bits past `cols` cleared.
    fn next_raw_row(&mut self, words: &mut [u64]) -> Result<(), PbmError> {
        self.reader.read_exact(&mut self.raw).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                PbmError::TruncatedPixels {
                    declared_rows: self.rows,
                    read_rows: self.next_row,
                }
            } else {
                PbmError::Io(e)
            }
        })?;
        for (i, &byte) in self.raw.iter().enumerate() {
            words[i / 8] |= u64::from(byte.reverse_bits()) << (8 * (i % 8));
        }
        let tail = self.cols % 64;
        if tail != 0 {
            let last = words.len() - 1;
            words[last] &= (1u64 << tail) - 1;
        }
        Ok(())
    }
}

impl<R: Read> RowSource for PbmRowReader<R> {
    fn cols(&self) -> usize {
        self.cols
    }

    fn rows_hint(&self) -> Option<usize> {
        Some(self.rows)
    }

    fn next_row(&mut self, words: &mut Vec<u64>) -> io::Result<bool> {
        if self.next_row >= self.rows {
            return Ok(false);
        }
        words.clear();
        words.resize(self.cols.div_ceil(64), 0);
        match self.magic {
            Magic::Plain => self.next_plain_row(words).map_err(io::Error::from)?,
            Magic::Raw => self.next_raw_row(words).map_err(io::Error::from)?,
        }
        self.next_row += 1;
        Ok(true)
    }
}

/// Writes `img` as one frame of the length-prefixed framed-PBM protocol: the
/// frame's byte length in ASCII decimal terminated by one `\n`, followed by
/// exactly that many bytes of a complete raw (`P4`) PBM image. Frames
/// concatenate into a multi-image stream ([`FramedPbmReader`]) — the
/// video-style continuous-ingest format `slap stream --framed` consumes.
pub fn write_framed<W: Write>(img: &Bitmap, w: &mut W) -> io::Result<()> {
    let mut frame = Vec::new();
    write_raw(img, &mut frame)?;
    Frame::write(w, &frame)
}

/// Upper bound on a declared frame length (2³¹ bytes). A corrupt prefix
/// below this still costs only the bytes that actually arrive — the body
/// buffer grows with them and is never pre-allocated to the declared length.
/// Prefixes above it are rejected as [`PbmError::LyingLengthPrefix`].
pub use crate::framing::MAX_FRAME_BYTES;

/// Reader for the length-prefixed multi-image PBM framing
/// ([`write_framed`]): a stream of `<decimal length>\n<frame bytes>` records,
/// each frame a complete PBM image (`P4` as written, though `P1` frames are
/// accepted too). Frame dimensions may change between frames, so a single
/// long-lived process can ingest a whole video feed without restarting.
///
/// One frame's *compressed* bytes are buffered at a time (the buffer is
/// reused across frames); the pixels themselves still stream row by row
/// through the returned [`PbmRowReader`].
#[derive(Debug)]
pub struct FramedPbmReader<R: Read> {
    reader: io::BufReader<R>,
    frame: Vec<u8>,
}

impl<R: Read> FramedPbmReader<R> {
    /// Wraps `r`. No bytes are read until the first
    /// [`FramedPbmReader::next_frame`] call.
    pub fn new(r: R) -> Self {
        FramedPbmReader {
            reader: io::BufReader::new(r),
            frame: Vec::new(),
        }
    }

    /// Advances to the next frame: parses the decimal length prefix, reads
    /// exactly that many bytes, and returns a row reader over them (its
    /// header already validated). `Ok(None)` at a clean end of stream;
    /// a truncated prefix or frame body is an error.
    pub fn next_frame(&mut self) -> io::Result<Option<PbmRowReader<&[u8]>>> {
        match Frame::read_into(&mut self.reader, &mut self.frame, MAX_FRAME_BYTES) {
            Ok(None) => Ok(None), // clean end between frames
            Ok(Some(_)) => PbmRowReader::new(&self.frame[..]).map(Some),
            Err(e) => Err(PbmError::from(e).into()),
        }
    }
}

/// Reads a PBM image in either `P1` or `P4` format. `#` comments are honored
/// in the header and in `P1` pixel data. Built on [`PbmRowReader`], so it
/// shares the byte-exact header handling with the streaming path.
pub fn read<R: Read>(r: R) -> io::Result<Bitmap> {
    let mut reader = PbmRowReader::new(r)?;
    let mut img = Bitmap::new(reader.rows(), reader.cols());
    let mut words = Vec::new();
    for row in 0..reader.rows() {
        if !reader.next_row(&mut words)? {
            unreachable!("PbmRowReader yields exactly rows() rows");
        }
        img.set_row_words(row, &words);
    }
    Ok(img)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn plain_roundtrip() {
        let img = gen::uniform_random(13, 17, 0.4, 9);
        let mut buf = Vec::new();
        write_plain(&img, &mut buf).unwrap();
        let back = read(&buf[..]).unwrap();
        assert_eq!(img, back);
    }

    #[test]
    fn raw_roundtrip() {
        let img = gen::uniform_random(9, 21, 0.6, 10); // width not multiple of 8
        let mut buf = Vec::new();
        write_raw(&img, &mut buf).unwrap();
        let back = read(&buf[..]).unwrap();
        assert_eq!(img, back);
    }

    #[test]
    fn reads_comments_and_whitespace() {
        let text = "P1\n# a comment\n3 2 # trailing\n1 0 1\n0 1 0\n";
        let img = read(text.as_bytes()).unwrap();
        assert!(img.get(0, 0) && img.get(0, 2) && img.get(1, 1));
        assert_eq!(img.count_ones(), 3);
    }

    #[test]
    fn rejects_bad_magic() {
        assert!(read("P5\n2 2\n".as_bytes()).is_err());
    }

    #[test]
    fn rejects_truncated_p1() {
        assert!(read("P1\n2 2\n1 0 1\n".as_bytes()).is_err());
    }

    #[test]
    fn rejects_zero_dimensions() {
        assert!(read("P1\n0 2\n".as_bytes()).is_err());
    }

    #[test]
    fn p4_pixel_bytes_may_contain_newlines_and_hashes() {
        // 2×2 image, 1 byte per row. Row bytes 0x0a (a newline) and 0x23
        // (`#`): the line-oriented header tokenizer used to swallow these as
        // header text; the byte-exact parser must treat them as pixels.
        let buf: &[u8] = b"P4\n2 2\n\x0a\x23";
        let img = read(buf).unwrap();
        // 0x0a = 0b0000_1010: leftmost two bits are 0,0.
        assert!(!img.get(0, 0) && !img.get(0, 1));
        // 0x23 = 0b0010_0011: leftmost two bits are 0,0 as well.
        assert!(!img.get(1, 0) && !img.get(1, 1));
        // An all-ones row byte right after the single whitespace.
        let full = read(&b"P4\n2 2\n\xff\xff"[..]).unwrap();
        assert_eq!(full.count_ones(), 4);
    }

    #[test]
    fn p4_single_whitespace_after_height_is_data_boundary() {
        // The first pixel byte is 0x31 (`'1'`): a tokenizer that keeps
        // reading header tokens would consume it. 8 columns, one row.
        let buf: &[u8] = b"P4 8 1 \x31";
        let img = read(buf).unwrap();
        assert_eq!(img.cols(), 8);
        // 0x31 = 0b0011_0001.
        let want = [false, false, true, true, false, false, false, true];
        for (c, &w) in want.iter().enumerate() {
            assert_eq!(img.get(0, c), w, "col {c}");
        }
    }

    #[test]
    fn p4_comment_adjacent_to_height_is_tolerated() {
        // A comment directly after the height digits: its terminating
        // newline is the single whitespace, and the data starts right after.
        let buf: &[u8] = b"P4\n8 1# trailing comment\n\xff";
        let img = read(buf).unwrap();
        assert_eq!(img.count_ones(), 8);
    }

    #[test]
    fn p4_truncated_pixel_data_is_an_error() {
        // 3 rows of 1 byte each declared, only 2 supplied.
        let buf: &[u8] = b"P4\n8 3\n\xff\xff";
        let err = read(buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // Header that ends at the height with no data byte at all.
        let err = read(&b"P4\n8 3"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn row_reader_streams_rows_incrementally() {
        let img = gen::uniform_random(11, 70, 0.5, 3); // crosses a word boundary
        for raw in [false, true] {
            let mut buf = Vec::new();
            if raw {
                write_raw(&img, &mut buf).unwrap();
            } else {
                write_plain(&img, &mut buf).unwrap();
            }
            let mut reader = PbmRowReader::new(&buf[..]).unwrap();
            assert_eq!((reader.rows(), reader.cols()), (11, 70));
            assert_eq!(reader.rows_hint(), Some(11));
            let mut words = Vec::new();
            for r in 0..img.rows() {
                assert!(reader.next_row(&mut words).unwrap(), "row {r} (raw={raw})");
                assert_eq!(&words[..], img.row_words(r), "row {r} (raw={raw})");
            }
            assert!(!reader.next_row(&mut words).unwrap(), "exhausted");
        }
    }

    #[test]
    fn p1_rejects_garbage_pixel_characters() {
        let err = read("P1\n2 2\n1 0 x 1\n".as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(matches!(
            PbmError::from_io(&err),
            Some(PbmError::BadPixelByte(b'x'))
        ));
    }

    #[test]
    fn errors_carry_the_typed_taxonomy() {
        // Every rejection path surfaces a structured PbmError that a
        // consumer (the labeling service) can recover by downcast.
        let err = read("P5\n2 2\n".as_bytes()).unwrap_err();
        assert!(matches!(
            PbmError::from_io(&err),
            Some(PbmError::BadMagic(m)) if m == "P5"
        ));
        let err = read("P1\n0 2\n".as_bytes()).unwrap_err();
        assert!(matches!(
            PbmError::from_io(&err),
            Some(PbmError::ZeroDim { rows: 2, cols: 0 })
        ));
        let err = read("P1\nx 2\n".as_bytes()).unwrap_err();
        assert!(matches!(
            PbmError::from_io(&err),
            Some(PbmError::BadDim { name: "width", .. })
        ));
        let err = read("P1".as_bytes()).unwrap_err();
        assert!(matches!(
            PbmError::from_io(&err),
            Some(PbmError::TruncatedHeader)
        ));
        let err = read(b"P4\n8 3\n\xff".as_slice()).unwrap_err();
        assert!(matches!(
            PbmError::from_io(&err),
            Some(PbmError::TruncatedPixels {
                declared_rows: 3,
                read_rows: 1
            })
        ));
        // A header whose pixel product overflows usize must be rejected at
        // parse time, before any consumer sizes a buffer from it.
        let huge = format!("P1\n{} 3\n", usize::MAX);
        let err = read(huge.as_bytes()).unwrap_err();
        assert!(matches!(
            PbmError::from_io(&err),
            Some(PbmError::DimsOverflow { rows: 3, .. })
        ));
        // Framed-stream taxonomy: lying prefixes and truncation.
        let mut reader = FramedPbmReader::new(&b"99999999999999999999\nP4"[..]);
        let err = reader.next_frame().unwrap_err();
        assert!(matches!(
            PbmError::from_io(&err),
            Some(PbmError::LyingLengthPrefix { .. })
        ));
        let mut reader = FramedPbmReader::new(&b"xy\n"[..]);
        let err = reader.next_frame().unwrap_err();
        assert!(matches!(
            PbmError::from_io(&err),
            Some(PbmError::BadLengthPrefix(b'x'))
        ));
        let mut reader = FramedPbmReader::new(&b"2000000000\nP4\n8 1\n\xff"[..]);
        let err = reader.next_frame().unwrap_err();
        assert!(matches!(
            PbmError::from_io(&err),
            Some(PbmError::TruncatedFrame {
                declared: 2000000000,
                ..
            })
        ));
        // The io::ErrorKind convention is preserved across the taxonomy.
        assert_eq!(
            PbmError::TruncatedHeader.kind(),
            io::ErrorKind::UnexpectedEof
        );
        assert_eq!(
            PbmError::BadMagic(String::new()).kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn framed_stream_roundtrips_multiple_heterogeneous_frames() {
        let frames = [
            gen::uniform_random(5, 21, 0.5, 1),
            gen::uniform_random(9, 70, 0.3, 2), // different dims mid-stream
            gen::uniform_random(1, 1, 1.0, 3),
        ];
        let mut buf = Vec::new();
        for img in &frames {
            write_framed(img, &mut buf).unwrap();
        }
        let mut reader = FramedPbmReader::new(&buf[..]);
        let mut words = Vec::new();
        for (i, img) in frames.iter().enumerate() {
            let mut frame = reader.next_frame().unwrap().unwrap_or_else(|| {
                panic!("frame {i} missing");
            });
            assert_eq!((frame.rows(), frame.cols()), (img.rows(), img.cols()));
            for r in 0..img.rows() {
                assert!(frame.next_row(&mut words).unwrap());
                assert_eq!(&words[..], img.row_words(r), "frame {i} row {r}");
            }
            assert!(!frame.next_row(&mut words).unwrap());
        }
        assert!(reader.next_frame().unwrap().is_none(), "clean end");
        assert!(reader.next_frame().unwrap().is_none(), "idempotent end");
    }

    #[test]
    fn framed_stream_rejects_truncation_and_garbage() {
        // Truncated frame body.
        let img = gen::uniform_random(4, 8, 0.5, 7);
        let mut buf = Vec::new();
        write_framed(&img, &mut buf).unwrap();
        buf.truncate(buf.len() - 2);
        let mut reader = FramedPbmReader::new(&buf[..]);
        assert_eq!(
            reader.next_frame().unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        // Length prefix with no frame.
        let mut reader = FramedPbmReader::new(&b"12"[..]);
        assert_eq!(
            reader.next_frame().unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        // Non-digit prefix byte.
        let mut reader = FramedPbmReader::new(&b"xy\n"[..]);
        assert_eq!(
            reader.next_frame().unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        // Absurd length must error out, not allocate.
        let mut reader = FramedPbmReader::new(&b"99999999999999999999\nP4"[..]);
        assert_eq!(
            reader.next_frame().unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        // A lying (huge but in-range) prefix over a short body must fail
        // with EOF after buffering only the real bytes, not pre-allocate
        // the declared length.
        let body: &[u8] = b"2000000000\nP4\n8 1\n\xff";
        let real = body.len() - "2000000000\n".len();
        let mut reader = FramedPbmReader::new(body);
        assert_eq!(
            reader.next_frame().unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        assert!(
            reader.frame.capacity() <= real + 64 * 1024,
            "buffered {} bytes for a {real}-byte body",
            reader.frame.capacity()
        );
    }
}
