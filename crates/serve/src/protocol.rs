//! The `slapd` wire protocol: framed-PBM jobs in, typed responses out.
//!
//! Requests reuse the existing framed-PBM format unchanged
//! ([`slap_image::pbm::write_framed`] / [`slap_image::pbm::FramedPbmReader`]):
//! a client connection is a sequence of `<decimal length>\n<raw P4 PBM>`
//! job frames. Responses are one record per job, in submission order:
//!
//! ```text
//! OK <rows> <cols> <components> <payload_len>\n<payload_len bytes>
//! ERR <code> <detail>\n
//! ```
//!
//! The `OK` payload is the label grid, row-major, one little-endian `u32`
//! per pixel (background = `u32::MAX`), bit-identical to the fast engine.
//! `ERR` codes are the closed [`WireError`] taxonomy — a client can branch
//! on the code (retry on `queue-full`, give up on `too-large`) without
//! parsing prose.
//!
//! # Protocol v2: negotiated response modes
//!
//! A v2 client opens its connection with a hello line:
//!
//! ```text
//! HELLO slapd/2 <mode>\n
//! ```
//!
//! where `<mode>` is `grid` or `stream` ([`ResponseMode`]); the server
//! echoes the hello back with the mode it granted, and every job on that
//! connection is answered in the granted mode. A connection whose first
//! byte is a frame length digit instead of `H` is a v1 client: no hello is
//! exchanged and responses stay whole-grid, so v1 clients work untouched.
//!
//! In `stream` mode the per-job response replaces the grid payload with
//! the retired-component feature records the scan-line engine produces —
//! `O(components)` bytes instead of `O(pixels)`:
//!
//! ```text
//! STREAM <rows> <cols>\n
//! <len>\n<len-byte record>    (0 or more, one per component)
//! 0\n                          (zero-length terminator frame)
//! END <components>\n
//! ```
//!
//! Each record frame body is the 56-byte little-endian encoding of one
//! [`RetiredComponent`] ([`crate::wire::encode_record`]); the `END` trailer
//! double-checks the count. Rejections are the same `ERR` records as v1 in
//! both modes.

use crate::wire::{decode_record, encode_record, Frame, FrameError, RECORD_BYTES};
use slap_image::pbm::PbmError;
use slap_image::RetiredComponent;
use std::io::{self, BufRead, Write};

/// The protocol generation spoken by this build: the `2` in
/// `HELLO slapd/2`.
pub const PROTOCOL_VERSION: u32 = 2;

/// Hard cap on an `OK` payload a client will buffer (bytes). The label grid
/// of the largest admissible job (`rows × cols < u32::MAX` pixels) fits; a
/// lying header above it is rejected before any allocation.
pub const MAX_PAYLOAD_BYTES: u64 = (u32::MAX as u64) * 4;

/// Cap on a response header line; anything longer is a protocol violation,
/// not a response.
pub(crate) const MAX_HEADER_BYTES: usize = 256;

/// How a connection wants its successful job responses encoded, negotiated
/// once per connection by the v2 hello.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ResponseMode {
    /// Whole label grids, one `u32` per pixel — the v1 format and the
    /// default when no hello is exchanged.
    #[default]
    Grid,
    /// Length-prefixed retired-component feature records: `O(components)`
    /// bytes per job, and the only mode in which frames above the grid
    /// pixel budget are routed out-of-core instead of rejected.
    Stream,
}

impl ResponseMode {
    /// The stable wire token for this mode.
    pub fn name(self) -> &'static str {
        match self {
            ResponseMode::Grid => "grid",
            ResponseMode::Stream => "stream",
        }
    }

    /// Parses a wire token as produced by [`ResponseMode::name`].
    pub fn parse(s: &str) -> Option<ResponseMode> {
        match s {
            "grid" => Some(ResponseMode::Grid),
            "stream" => Some(ResponseMode::Stream),
            _ => None,
        }
    }
}

impl std::fmt::Display for ResponseMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Writes one hello line (`HELLO slapd/<version> <mode>`): the client's
/// opening request, and the server's echo granting a mode.
pub fn write_hello<W: Write>(w: &mut W, mode: ResponseMode) -> io::Result<()> {
    writeln!(w, "HELLO slapd/{PROTOCOL_VERSION} {}", mode.name())?;
    w.flush()
}

/// Parses a hello line (without its terminating newline) into the speaker's
/// protocol version and requested mode. `None` if the line is not a
/// well-formed hello.
pub fn parse_hello(line: &str) -> Option<(u32, ResponseMode)> {
    let mut parts = line.split(' ');
    if parts.next() != Some("HELLO") {
        return None;
    }
    let version = parts.next()?.strip_prefix("slapd/")?.parse::<u32>().ok()?;
    let mode = ResponseMode::parse(parts.next()?)?;
    if parts.next().is_some() {
        return None;
    }
    Some((version, mode))
}

/// Reads the server's hello echo and returns the granted mode. An `ERR`
/// line in place of the echo surfaces as `InvalidData` carrying the detail;
/// a clean close surfaces as `UnexpectedEof`.
pub fn read_hello<R: BufRead>(r: &mut R) -> io::Result<ResponseMode> {
    let line = read_header_line(r)?.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed before the hello echo",
        )
    })?;
    parse_hello(&line).map(|(_, mode)| mode).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("expected a hello echo, got {line:?}"),
        )
    })
}

/// The closed set of typed job-rejection codes `slapd` can answer with.
///
/// Every guard in the service maps to exactly one code, so the chaos suite
/// (and real clients) can assert on *which* defense fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WireError {
    /// The job frame did not parse as framed PBM (bad magic, bad dims,
    /// truncated raster, lying length prefix, garbage bytes...).
    BadFrame,
    /// The image exceeds the server's dimension or pixel budget.
    TooLarge,
    /// `rows × cols` overflows the label space (`u32`) or `usize`.
    Overflow,
    /// The bounded job queue is full — backpressure, resubmit later.
    QueueFull,
    /// The job missed its wall-clock deadline (queued too long, stalled
    /// ingest, or slow compute).
    Deadline,
    /// The job panicked inside the engine; it was isolated and the worker
    /// session rebuilt. The server is still healthy.
    Panic,
    /// The server is draining and accepts no new jobs.
    Shutdown,
}

impl WireError {
    /// Every code, in wire order.
    pub const ALL: [WireError; 7] = [
        WireError::BadFrame,
        WireError::TooLarge,
        WireError::Overflow,
        WireError::QueueFull,
        WireError::Deadline,
        WireError::Panic,
        WireError::Shutdown,
    ];

    /// The stable wire token for this code.
    pub fn code(self) -> &'static str {
        match self {
            WireError::BadFrame => "bad-frame",
            WireError::TooLarge => "too-large",
            WireError::Overflow => "overflow",
            WireError::QueueFull => "queue-full",
            WireError::Deadline => "deadline",
            WireError::Panic => "panic",
            WireError::Shutdown => "shutdown",
        }
    }

    /// Parses a wire token as produced by [`WireError::code`].
    pub fn parse(s: &str) -> Option<WireError> {
        WireError::ALL.into_iter().find(|e| e.code() == s)
    }

    /// Whether an idempotent client should resubmit after this rejection:
    /// transient conditions (load, drain, a one-off panic) are retryable;
    /// verdicts about the job itself are not.
    pub fn retryable(self) -> bool {
        matches!(
            self,
            WireError::QueueFull | WireError::Deadline | WireError::Panic | WireError::Shutdown
        )
    }

    /// Maps a structured PBM parse failure to its wire code: dimension
    /// overflow keeps its own code, every other malformation is `bad-frame`.
    pub fn from_pbm(e: &PbmError) -> WireError {
        match e {
            PbmError::DimsOverflow { .. } => WireError::Overflow,
            _ => WireError::BadFrame,
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.code())
    }
}

/// A successful job reply: the labeled grid plus its summary numbers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobOk {
    /// Image height.
    pub rows: usize,
    /// Image width.
    pub cols: usize,
    /// Connected components found.
    pub components: usize,
    /// Row-major per-pixel labels (background = `u32::MAX`), bit-identical
    /// to the fast engine's `LabelGrid`.
    pub labels: Vec<u32>,
}

/// One parsed server response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// The job was labeled.
    Ok(JobOk),
    /// The job was rejected with a typed code.
    Rejected {
        /// The typed rejection code.
        code: WireError,
        /// Human-readable detail (single line, diagnostic only).
        detail: String,
    },
}

/// A successful stream-mode job reply: per-component feature records
/// instead of a pixel grid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobStream {
    /// Image height.
    pub rows: usize,
    /// Image width.
    pub cols: usize,
    /// Connected components found (equals `records.len()`, double-checked
    /// against the `END` trailer on read).
    pub components: usize,
    /// One feature record per component, in retirement order.
    pub records: Vec<RetiredComponent>,
}

/// One parsed stream-mode server response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StreamResponse {
    /// The job was labeled; features arrived as records.
    Ok(JobStream),
    /// The job was rejected with a typed code (same taxonomy as v1).
    Rejected {
        /// The typed rejection code.
        code: WireError,
        /// Human-readable detail (single line, diagnostic only).
        detail: String,
    },
}

/// Writes a `STREAM` response: header, one frame per record, the
/// zero-length terminator frame, and the `END` trailer. The whole reply is
/// encoded into `scratch` (the caller's reusable buffer, cleared here) and
/// handed to `w` in one `write_all`.
pub fn write_stream_ok<W: Write>(
    w: &mut W,
    rows: usize,
    cols: usize,
    records: &[RetiredComponent],
    scratch: &mut Vec<u8>,
) -> io::Result<()> {
    // Every record frame carries the same prefix: format it once.
    let mut prefix = Vec::with_capacity(8);
    Frame::write_prefix(&mut prefix, RECORD_BYTES)?;
    scratch.clear();
    writeln!(scratch, "STREAM {rows} {cols}")?;
    scratch.reserve(records.len() * (prefix.len() + RECORD_BYTES));
    for rec in records {
        scratch.extend_from_slice(&prefix);
        encode_record(rec, scratch);
    }
    Frame::write(&mut *scratch, b"")?;
    writeln!(scratch, "END {}", records.len())?;
    w.write_all(scratch)?;
    w.flush()
}

/// Reads one stream-mode server response. `Ok(None)` at a clean end of
/// stream. Record frames are bounded at [`RECORD_BYTES`] each and the
/// record count at `rows × cols` (a pixel can belong to at most one
/// component), so a hostile server cannot force unbounded allocation.
pub fn read_stream_response<R: BufRead>(r: &mut R) -> io::Result<Option<StreamResponse>> {
    let Some(line) = read_header_line(r)? else {
        return Ok(None);
    };
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, format!("{msg}: {line:?}"));
    let mut parts = line.splitn(3, ' ');
    match parts.next() {
        Some("STREAM") => {
            let mut num = |name: &str| -> io::Result<u64> {
                parts
                    .next()
                    .and_then(|t| t.parse::<u64>().ok())
                    .ok_or_else(|| bad(&format!("bad {name} in STREAM header")))
            };
            let rows = num("rows")?;
            let cols = num("cols")?;
            let max_records = rows
                .checked_mul(cols)
                .filter(|&px| px > 0)
                .ok_or_else(|| bad("absurd dims in STREAM header"))?;
            let mut records = Vec::new();
            let mut body = Vec::new();
            loop {
                let got = Frame::read_into(&mut *r, &mut body, RECORD_BYTES)
                    .map_err(frame_to_io)?
                    .ok_or_else(|| {
                        io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "stream response truncated before its terminator",
                        )
                    })?;
                if got == 0 {
                    break;
                }
                let rec = decode_record(&body)
                    .ok_or_else(|| bad(&format!("record frame of {got} bytes")))?;
                if records.len() as u64 >= max_records {
                    return Err(bad("more records than pixels"));
                }
                records.push(rec);
            }
            let trailer =
                read_header_line(r)?.ok_or_else(|| bad("stream response truncated before END"))?;
            let count = trailer
                .strip_prefix("END ")
                .and_then(|t| t.parse::<usize>().ok())
                .ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("bad stream trailer: {trailer:?}"),
                    )
                })?;
            if count != records.len() {
                return Err(bad(&format!(
                    "END declares {count} records, {} arrived",
                    records.len()
                )));
            }
            Ok(Some(StreamResponse::Ok(JobStream {
                rows: rows as usize,
                cols: cols as usize,
                components: count,
                records,
            })))
        }
        Some("ERR") => {
            let code = parts
                .next()
                .and_then(WireError::parse)
                .ok_or_else(|| bad("unknown ERR code"))?;
            let detail = parts.next().unwrap_or("").to_string();
            Ok(Some(StreamResponse::Rejected { code, detail }))
        }
        _ => Err(bad("unrecognized stream response header")),
    }
}

/// Maps a framing failure on the record stream to the `io::Error` the
/// response readers speak.
fn frame_to_io(e: FrameError) -> io::Error {
    match e {
        FrameError::Io(inner) => inner,
        trunc @ FrameError::Truncated { .. } => {
            io::Error::new(io::ErrorKind::UnexpectedEof, trunc.to_string())
        }
        other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
    }
}

/// Writes an `OK` response. `scratch` is the caller's reusable byte buffer
/// for the payload encoding (cleared here), so a warm connection thread
/// serializes without reallocating.
pub fn write_ok<W: Write>(
    w: &mut W,
    rows: usize,
    cols: usize,
    components: usize,
    labels: &[u32],
    scratch: &mut Vec<u8>,
) -> io::Result<()> {
    let payload_len = labels.len() * 4;
    writeln!(w, "OK {rows} {cols} {components} {payload_len}")?;
    scratch.clear();
    scratch.reserve(payload_len);
    scratch.extend(labels.iter().flat_map(|l| l.to_le_bytes()));
    w.write_all(scratch)?;
    w.flush()
}

/// Writes an `ERR` response. Newlines in `detail` are flattened so the
/// record stays one line.
pub fn write_err<W: Write>(w: &mut W, code: WireError, detail: &str) -> io::Result<()> {
    let detail: String = detail
        .chars()
        .map(|c| if c == '\n' || c == '\r' { ' ' } else { c })
        .collect();
    writeln!(w, "ERR {} {detail}", code.code())?;
    w.flush()
}

/// Reads one response header line (bytes up to `\n`, bounded). `Ok(None)`
/// at a clean end of stream before any byte.
pub(crate) fn read_header_line<R: BufRead>(r: &mut R) -> io::Result<Option<String>> {
    let mut line = Vec::new();
    loop {
        let mut b = [0u8; 1];
        match r.read(&mut b) {
            Ok(0) => {
                return if line.is_empty() {
                    Ok(None)
                } else {
                    Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "response header truncated",
                    ))
                }
            }
            Ok(_) if b[0] == b'\n' => break,
            Ok(_) => {
                if line.len() >= MAX_HEADER_BYTES {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "response header too long",
                    ));
                }
                line.push(b[0]);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    String::from_utf8(line)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "response header is not UTF-8"))
}

/// Reads one server response. `Ok(None)` at a clean end of stream (the
/// server closed between responses). The payload is read in bounded chunks,
/// so a lying payload length costs only the bytes that actually arrive.
pub fn read_response<R: BufRead>(r: &mut R) -> io::Result<Option<Response>> {
    let Some(line) = read_header_line(r)? else {
        return Ok(None);
    };
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, format!("{msg}: {line:?}"));
    let mut parts = line.splitn(5, ' ');
    match parts.next() {
        Some("OK") => {
            let mut num = |name: &str| -> io::Result<u64> {
                parts
                    .next()
                    .and_then(|t| t.parse::<u64>().ok())
                    .ok_or_else(|| bad(&format!("bad {name} in OK header")))
            };
            let rows = num("rows")?;
            let cols = num("cols")?;
            let components = num("components")?;
            let payload_len = num("payload length")?;
            let pixels = rows
                .checked_mul(cols)
                .filter(|&px| px * 4 == payload_len && payload_len <= MAX_PAYLOAD_BYTES)
                .ok_or_else(|| bad("payload length disagrees with dims"))?;
            let mut labels = Vec::with_capacity(0);
            let mut chunk = [0u8; 64 * 1024];
            let mut remaining = payload_len as usize;
            let mut carry: Vec<u8> = Vec::with_capacity(4);
            labels.reserve(pixels.min(1 << 20) as usize);
            while remaining > 0 {
                let want = remaining.min(chunk.len());
                match r.read(&mut chunk[..want]) {
                    Ok(0) => {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            format!("response payload truncated: {remaining} bytes missing"),
                        ))
                    }
                    Ok(got) => {
                        remaining -= got;
                        let mut bytes = &chunk[..got];
                        // Finish a u32 straddling the previous chunk first.
                        while !carry.is_empty() && !bytes.is_empty() {
                            carry.push(bytes[0]);
                            bytes = &bytes[1..];
                            if carry.len() == 4 {
                                labels.push(u32::from_le_bytes([
                                    carry[0], carry[1], carry[2], carry[3],
                                ]));
                                carry.clear();
                            }
                        }
                        let whole = bytes.len() / 4 * 4;
                        for quad in bytes[..whole].chunks_exact(4) {
                            labels.push(u32::from_le_bytes([quad[0], quad[1], quad[2], quad[3]]));
                        }
                        carry.extend_from_slice(&bytes[whole..]);
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            debug_assert!(carry.is_empty(), "payload length is a multiple of 4");
            Ok(Some(Response::Ok(JobOk {
                rows: rows as usize,
                cols: cols as usize,
                components: components as usize,
                labels,
            })))
        }
        Some("ERR") => {
            let code = parts
                .next()
                .and_then(WireError::parse)
                .ok_or_else(|| bad("unknown ERR code"))?;
            let detail = parts.collect::<Vec<_>>().join(" ");
            Ok(Some(Response::Rejected { code, detail }))
        }
        _ => Err(bad("unrecognized response header")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ok_response_roundtrips() {
        let labels = vec![0u32, u32::MAX, 7, 0xdead_beef];
        let mut buf = Vec::new();
        let mut scratch = Vec::new();
        write_ok(&mut buf, 2, 2, 2, &labels, &mut scratch).unwrap();
        let mut r = io::BufReader::new(&buf[..]);
        match read_response(&mut r).unwrap().unwrap() {
            Response::Ok(ok) => {
                assert_eq!((ok.rows, ok.cols, ok.components), (2, 2, 2));
                assert_eq!(ok.labels, labels);
            }
            other => panic!("expected OK, got {other:?}"),
        }
        assert!(read_response(&mut r).unwrap().is_none(), "clean end");
    }

    #[test]
    fn err_response_roundtrips_every_code() {
        for code in WireError::ALL {
            let mut buf = Vec::new();
            write_err(&mut buf, code, "detail\nwith newline").unwrap();
            let mut r = io::BufReader::new(&buf[..]);
            match read_response(&mut r).unwrap().unwrap() {
                Response::Rejected { code: got, detail } => {
                    assert_eq!(got, code);
                    assert!(!detail.contains('\n'), "{detail:?}");
                }
                other => panic!("expected ERR, got {other:?}"),
            }
            assert_eq!(WireError::parse(code.code()), Some(code));
        }
        assert_eq!(WireError::parse("nope"), None);
    }

    #[test]
    fn lying_ok_header_is_rejected_without_allocation() {
        // Payload length that disagrees with dims.
        let mut r = io::BufReader::new(&b"OK 2 2 1 999\n"[..]);
        assert!(read_response(&mut r).is_err());
        // Dims product overflowing u64.
        let huge = format!("OK {} {} 1 16\n", u64::MAX, u64::MAX);
        let mut r = io::BufReader::new(huge.as_bytes());
        assert!(read_response(&mut r).is_err());
        // Truncated payload costs only the bytes that arrived.
        let mut r = io::BufReader::new(&b"OK 2 2 1 16\n\x01\x00"[..]);
        let err = read_response(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn garbage_header_is_a_protocol_error() {
        let mut r = io::BufReader::new(&b"HELLO world\n"[..]);
        assert_eq!(
            read_response(&mut r).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        let mut r = io::BufReader::new(&b"ERR not-a-code x\n"[..]);
        assert!(read_response(&mut r).is_err());
    }

    #[test]
    fn retryable_codes_are_the_transient_ones() {
        assert!(WireError::QueueFull.retryable());
        assert!(WireError::Deadline.retryable());
        assert!(WireError::Shutdown.retryable());
        assert!(WireError::Panic.retryable());
        assert!(!WireError::BadFrame.retryable());
        assert!(!WireError::TooLarge.retryable());
        assert!(!WireError::Overflow.retryable());
    }

    #[test]
    fn hello_lines_roundtrip_both_modes() {
        for mode in [ResponseMode::Grid, ResponseMode::Stream] {
            let mut buf = Vec::new();
            write_hello(&mut buf, mode).unwrap();
            let line = std::str::from_utf8(&buf).unwrap().trim_end();
            assert_eq!(parse_hello(line), Some((PROTOCOL_VERSION, mode)));
            let mut r = io::BufReader::new(&buf[..]);
            assert_eq!(read_hello(&mut r).unwrap(), mode);
        }
        assert_eq!(parse_hello("HELLO slapd/2"), None);
        assert_eq!(parse_hello("HELLO slapd/x grid"), None);
        assert_eq!(parse_hello("HELLO other/2 grid"), None);
        assert_eq!(parse_hello("HELLO slapd/2 grid extra"), None);
        assert_eq!(parse_hello("OK 1 1 1 4"), None);
        assert_eq!(ResponseMode::parse("stream"), Some(ResponseMode::Stream));
        assert_eq!(ResponseMode::parse("nope"), None);
    }

    #[test]
    fn stream_response_roundtrips() {
        let records = vec![
            RetiredComponent {
                min_pos_col: 0,
                min_pos_row: 0,
                area: 3,
                min_row: 0,
                max_row: 1,
                min_col: 0,
                max_col: 1,
                sum_row: 1,
                sum_col: 1,
                perimeter: 8,
            },
            RetiredComponent {
                min_pos_col: 3,
                min_pos_row: 2,
                area: 1,
                min_row: 2,
                max_row: 2,
                min_col: 3,
                max_col: 3,
                sum_row: 2,
                sum_col: 3,
                perimeter: 4,
            },
        ];
        let mut buf = Vec::new();
        let mut scratch = Vec::new();
        write_stream_ok(&mut buf, 3, 4, &records, &mut scratch).unwrap();
        let mut r = io::BufReader::new(&buf[..]);
        match read_stream_response(&mut r).unwrap().unwrap() {
            StreamResponse::Ok(job) => {
                assert_eq!((job.rows, job.cols, job.components), (3, 4, 2));
                assert_eq!(job.records, records);
            }
            other => panic!("expected STREAM, got {other:?}"),
        }
        assert!(read_stream_response(&mut r).unwrap().is_none(), "clean end");
    }

    #[test]
    fn empty_stream_response_roundtrips() {
        let mut buf = Vec::new();
        let mut scratch = Vec::new();
        write_stream_ok(&mut buf, 5, 5, &[], &mut scratch).unwrap();
        let mut r = io::BufReader::new(&buf[..]);
        match read_stream_response(&mut r).unwrap().unwrap() {
            StreamResponse::Ok(job) => {
                assert_eq!(job.components, 0);
                assert!(job.records.is_empty());
            }
            other => panic!("expected STREAM, got {other:?}"),
        }
    }

    #[test]
    fn stream_errors_share_the_v1_taxonomy() {
        for code in WireError::ALL {
            let mut buf = Vec::new();
            write_err(&mut buf, code, "why it failed").unwrap();
            let mut r = io::BufReader::new(&buf[..]);
            match read_stream_response(&mut r).unwrap().unwrap() {
                StreamResponse::Rejected { code: got, detail } => {
                    assert_eq!(got, code);
                    assert_eq!(detail, "why it failed");
                }
                other => panic!("expected ERR, got {other:?}"),
            }
        }
    }

    #[test]
    fn hostile_stream_responses_are_typed_errors() {
        // Truncated before the terminator frame.
        let mut r = io::BufReader::new(&b"STREAM 2 2\n"[..]);
        assert_eq!(
            read_stream_response(&mut r).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        // A record frame wider than RECORD_BYTES is an overflow, not an
        // allocation.
        let mut r = io::BufReader::new(&b"STREAM 2 2\n999999\nx"[..]);
        assert!(read_stream_response(&mut r).is_err());
        // A record frame of the wrong (short) length.
        let mut r = io::BufReader::new(&b"STREAM 2 2\n3\nabc0\nEND 1\n"[..]);
        assert!(read_stream_response(&mut r).is_err());
        // A lying END count.
        let mut buf = Vec::new();
        let mut scratch = Vec::new();
        write_stream_ok(&mut buf, 2, 2, &[], &mut scratch).unwrap();
        let lying = String::from_utf8(buf).unwrap().replace("END 0", "END 9");
        let mut r = io::BufReader::new(lying.as_bytes());
        assert!(read_stream_response(&mut r).is_err());
        // More records than pixels.
        let mut buf = Vec::new();
        let rec = RetiredComponent {
            min_pos_col: 0,
            min_pos_row: 0,
            area: 1,
            min_row: 0,
            max_row: 0,
            min_col: 0,
            max_col: 0,
            sum_row: 0,
            sum_col: 0,
            perimeter: 4,
        };
        write_stream_ok(&mut buf, 1, 1, &[rec, rec], &mut scratch).unwrap();
        let mut r = io::BufReader::new(&buf[..]);
        assert!(read_stream_response(&mut r).is_err());
    }

    #[test]
    fn pbm_taxonomy_maps_to_wire_codes() {
        assert_eq!(
            WireError::from_pbm(&PbmError::DimsOverflow { rows: 9, cols: 9 }),
            WireError::Overflow
        );
        assert_eq!(
            WireError::from_pbm(&PbmError::TruncatedHeader),
            WireError::BadFrame
        );
        assert_eq!(
            WireError::from_pbm(&PbmError::LyingLengthPrefix { declared: 1 }),
            WireError::BadFrame
        );
    }
}
