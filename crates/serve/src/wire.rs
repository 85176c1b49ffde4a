//! Shared wire plumbing for the `slapd` protocol: the single
//! length-prefixed [`Frame`] codec (re-exported from
//! [`slap_image::framing`], where the framed-PBM readers use the same
//! implementation) plus the fixed-width binary codec for
//! [`RetiredComponent`] feature records carried by protocol-v2 `STREAM`
//! responses.
//!
//! Every framed surface in the service — request framing, response record
//! framing, multi-image PBM ingest — parses through one implementation, so
//! the byte-soup property tests at the bottom of this module exercise the
//! hostile-input behavior of all of them at once.

pub use slap_image::framing::{Frame, FrameError, PrefixParser, MAX_FRAME_BYTES};
use slap_image::RetiredComponent;

/// Encoded size of one feature record: six `u32` position/bbox fields then
/// four `u64` accumulators, all little-endian.
pub const RECORD_BYTES: usize = 6 * 4 + 4 * 8;

/// Appends the little-endian fixed-width encoding of `rec` to `out`.
/// Field order: `min_pos_col`, `min_pos_row`, `min_row`, `max_row`,
/// `min_col`, `max_col` (u32 each), then `area`, `sum_row`, `sum_col`,
/// `perimeter` (u64 each).
pub fn encode_record(rec: &RetiredComponent, out: &mut Vec<u8>) {
    out.reserve(RECORD_BYTES);
    for v in [
        rec.min_pos_col,
        rec.min_pos_row,
        rec.min_row,
        rec.max_row,
        rec.min_col,
        rec.max_col,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    for v in [rec.area, rec.sum_row, rec.sum_col, rec.perimeter] {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Decodes one record from exactly [`RECORD_BYTES`] bytes; `None` if the
/// slice has any other length. Never panics on arbitrary byte content —
/// every 56-byte string decodes to *some* record (validity checks such as
/// `min_row <= max_row` belong to the consumer).
pub fn decode_record(bytes: &[u8]) -> Option<RetiredComponent> {
    if bytes.len() != RECORD_BYTES {
        return None;
    }
    let u32_at = |i: usize| u32::from_le_bytes(bytes[i * 4..i * 4 + 4].try_into().unwrap());
    let u64_at = |i: usize| {
        let at = 24 + i * 8;
        u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
    };
    Some(RetiredComponent {
        min_pos_col: u32_at(0),
        min_pos_row: u32_at(1),
        min_row: u32_at(2),
        max_row: u32_at(3),
        min_col: u32_at(4),
        max_col: u32_at(5),
        area: u64_at(0),
        sum_row: u64_at(1),
        sum_col: u64_at(2),
        perimeter: u64_at(3),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::DetRng;

    fn arbitrary_record(rng: &mut DetRng) -> RetiredComponent {
        RetiredComponent {
            min_pos_col: rng.next_u64() as u32,
            min_pos_row: rng.next_u64() as u32,
            area: rng.next_u64(),
            min_row: rng.next_u64() as u32,
            max_row: rng.next_u64() as u32,
            min_col: rng.next_u64() as u32,
            max_col: rng.next_u64() as u32,
            sum_row: rng.next_u64(),
            sum_col: rng.next_u64(),
            perimeter: rng.next_u64(),
        }
    }

    #[test]
    fn records_roundtrip_bit_exactly() {
        let mut rng = DetRng::new(0xfeed);
        let mut buf = Vec::new();
        for _ in 0..200 {
            let rec = arbitrary_record(&mut rng);
            buf.clear();
            encode_record(&rec, &mut buf);
            assert_eq!(buf.len(), RECORD_BYTES);
            assert_eq!(decode_record(&buf), Some(rec));
        }
    }

    #[test]
    fn decode_rejects_every_other_length() {
        for len in 0..RECORD_BYTES * 2 {
            if len == RECORD_BYTES {
                continue;
            }
            assert!(decode_record(&vec![0u8; len]).is_none(), "len {len}");
        }
    }

    #[test]
    fn byte_soup_never_panics_the_framing_stack() {
        // The no-panic property over the whole shared stack: arbitrary
        // bytes through the incremental prefix parser, the blocking frame
        // reader, and the record decoder. Every outcome is a typed value.
        let mut rng = DetRng::new(0x50fa);
        let mut soup = Vec::new();
        let mut body = Vec::new();
        for round in 0..400 {
            let len = rng.below(512) as usize;
            soup.clear();
            for _ in 0..len {
                // Bias toward digits and whitespace so the parser gets past
                // the prefix often enough to exercise the body path too.
                let b = match rng.below(4) {
                    0 => b'0' + rng.below(10) as u8,
                    1 => b"\n\r \t"[rng.below(4) as usize],
                    _ => rng.next_u64() as u8,
                };
                soup.push(b);
            }
            let mut parser = PrefixParser::new(MAX_FRAME_BYTES);
            for &b in &soup {
                if parser.step(b).is_err() {
                    break;
                }
            }
            let mut r = &soup[..];
            while let Ok(Some(got)) = Frame::read_into(&mut r, &mut body, 1 << 16) {
                assert_eq!(got, body.len(), "round {round}");
                let _ = decode_record(&body);
            }
        }
    }

    #[test]
    fn replies_keep_the_per_record_wire_bytes() {
        // The one-pass reply encoders must emit exactly what one
        // `Frame::write` per record (and one `to_le_bytes` per label) did.
        use crate::protocol::{write_ok, write_stream_ok};
        let mut rng = DetRng::new(0xb17e);
        let mut scratch = Vec::new();
        for n in [0u64, 1, 17] {
            let records: Vec<RetiredComponent> =
                (0..n).map(|_| arbitrary_record(&mut rng)).collect();
            let mut want = b"STREAM 9 12\n".to_vec();
            for rec in &records {
                let mut body = Vec::new();
                encode_record(rec, &mut body);
                Frame::write(&mut want, &body).unwrap();
            }
            Frame::write(&mut want, b"").unwrap();
            want.extend_from_slice(format!("END {n}\n").as_bytes());
            let mut got = Vec::new();
            write_stream_ok(&mut got, 9, 12, &records, &mut scratch).unwrap();
            assert_eq!(got, want, "{n} records");
        }
        let labels: Vec<u32> = (0..12).map(|_| rng.next_u64() as u32).collect();
        let mut want = b"OK 3 4 5 48\n".to_vec();
        for l in &labels {
            want.extend_from_slice(&l.to_le_bytes());
        }
        let mut got = Vec::new();
        write_ok(&mut got, 3, 4, 5, &labels, &mut scratch).unwrap();
        assert_eq!(got, want);
    }

    /// Fixed seeds for the reply-reader byte soups: the offline `proptest`
    /// stub does not shrink, so a failure replays from its seed instead.
    const REPLY_SOUP_SEEDS: [u64; 4] = [0x5eed_0001, 0xdead_beef, 0x000f_f1ce, 0x1234_5678_9abc];

    /// Applies up to three random byte edits (overwrite, delete, insert,
    /// truncate) to a well-formed reply, leaving its first `keep` bytes
    /// alone. A quarter of the replies stay intact, so every soup reaches
    /// the readers' success paths as well as their error paths.
    fn mutate(rng: &mut DetRng, bytes: &mut Vec<u8>, keep: usize) {
        for _ in 0..rng.below(4) {
            let at = keep + rng.below((bytes.len() - keep) as u64 + 1) as usize;
            let byte = match rng.below(3) {
                0 => b'0' + rng.below(10) as u8,
                1 => b"\n \t"[rng.below(3) as usize],
                _ => rng.next_u64() as u8,
            };
            match rng.below(4) {
                0 if at < bytes.len() => bytes[at] = byte,
                1 if at < bytes.len() => {
                    bytes.remove(at);
                }
                2 => bytes.insert(at, byte),
                _ => bytes.truncate(at),
            }
        }
    }

    #[test]
    fn byte_soup_after_a_stream_header_is_ok_or_a_typed_error() {
        use crate::protocol::{read_stream_response, StreamResponse};
        use std::io::{self, BufReader};
        let (mut oks, mut errs) = (0, 0);
        for seed in REPLY_SOUP_SEEDS {
            let mut rng = DetRng::new(seed);
            for round in 0..300 {
                let (rows, cols) = (1 + rng.below(3), 1 + rng.below(3));
                let mut soup = format!("STREAM {rows} {cols}\n").into_bytes();
                let header = soup.len();
                if round % 4 == 3 {
                    // Raw bytes after the header.
                    soup.extend((0..rng.below(256)).map(|_| rng.next_u64() as u8));
                } else {
                    // Up to one record more than the pixels allow, then the
                    // terminator and an END count sometimes off by one.
                    let n = rng.below(rows * cols + 2);
                    for _ in 0..n {
                        Frame::write_prefix(&mut soup, RECORD_BYTES).unwrap();
                        encode_record(&arbitrary_record(&mut rng), &mut soup);
                    }
                    let end = n + rng.below(4) / 3;
                    soup.extend_from_slice(format!("0\nEND {end}\n").as_bytes());
                    mutate(&mut rng, &mut soup, header);
                }
                let mut r = BufReader::new(&soup[..]);
                match read_stream_response(&mut r) {
                    Ok(Some(StreamResponse::Ok(job))) => {
                        oks += 1;
                        assert_eq!(job.components, job.records.len());
                        assert!(
                            job.records.len() as u64 <= rows * cols,
                            "seed {seed:#x} round {round}: {} records on {rows}x{cols}",
                            job.records.len()
                        );
                    }
                    Ok(other) => panic!("seed {seed:#x} round {round}: {other:?}"),
                    Err(e) => {
                        errs += 1;
                        assert!(
                            matches!(
                                e.kind(),
                                io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                            ),
                            "seed {seed:#x} round {round}: {e:?}"
                        );
                    }
                }
            }
        }
        // The soup must reach both outcomes, or the property says little.
        assert!(oks > 0 && errs > 0, "{oks} ok, {errs} errors");
    }

    #[test]
    fn byte_soup_in_place_of_a_hello_echo_is_ok_or_a_typed_error() {
        use crate::protocol::read_hello;
        use std::io::{self, BufReader};
        let (mut oks, mut errs) = (0, 0);
        for seed in REPLY_SOUP_SEEDS {
            let mut rng = DetRng::new(seed);
            for round in 0..300 {
                let mode = ["grid", "stream"][rng.below(2) as usize];
                let mut soup = format!("HELLO slapd/{} {mode}\n", rng.below(4)).into_bytes();
                mutate(&mut rng, &mut soup, 0);
                let mut r = BufReader::new(&soup[..]);
                match read_hello(&mut r) {
                    Ok(_) => oks += 1,
                    Err(e) => {
                        errs += 1;
                        assert!(
                            matches!(
                                e.kind(),
                                io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                            ),
                            "seed {seed:#x} round {round}: {e:?}"
                        );
                    }
                }
            }
        }
        assert!(oks > 0 && errs > 0, "{oks} ok, {errs} errors");
    }

    #[test]
    fn frames_of_records_concatenate_and_parse_back() {
        // The exact shape a STREAM response carries: back-to-back record
        // frames terminated by a zero-length frame.
        let mut rng = DetRng::new(0x7a11);
        let records: Vec<RetiredComponent> = (0..17).map(|_| arbitrary_record(&mut rng)).collect();
        let mut wire = Vec::new();
        let mut scratch = Vec::new();
        for rec in &records {
            scratch.clear();
            encode_record(rec, &mut scratch);
            Frame::write(&mut wire, &scratch).unwrap();
        }
        Frame::write(&mut wire, b"").unwrap();
        let mut r = &wire[..];
        let mut body = Vec::new();
        let mut got = Vec::new();
        loop {
            let len = Frame::read_into(&mut r, &mut body, RECORD_BYTES)
                .expect("well-formed frames")
                .expect("terminator before EOF");
            if len == 0 {
                break;
            }
            got.push(decode_record(&body).expect("exact record length"));
        }
        assert_eq!(got, records);
    }
}
