//! The serve phase: an in-process `slapd` on loopback driven by a closed
//! loop of two clients, one connection each. Client G sends grid-mode
//! jobs; client S alternates in-core stream jobs with frames the server
//! routes out-of-core. Latency is timed around each `Client` call.
//!
//! The traced run also replays each job's stages in-process on the same
//! frames (encode, server compute, response write and read), so the part
//! of a client's latency that no stage explains — socket, poll loop and
//! queue wait — shows as a residual.

use crate::frames::{timed, Counters, OOC_BAND_ROWS};
use crate::gate::{self, Ledger};
use crate::trace::Tracer;
use crate::workload::{Fingerprint, Frame, Inputs, SERVE_MAX_PIXELS};
use slap_cc::EngineKind;
use slap_image::pbm::{self, PbmRowReader};
use slap_image::stream::label_stream;
use slap_image::{Bitmap, Connectivity, LabelGrid, OutOfCoreLabeler, RetiredComponent};
use slap_serve::protocol;
use slap_serve::{Client, Response, RetryPolicy, ServeConfig, Server, StreamResponse};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Server worker threads.
pub const WORKERS: usize = 2;
/// Jobs each replay labels, however short its time budget.
const MIN_REPLAYS: usize = 8;

const CONN: Connectivity = Connectivity::Four;

/// Binds the benchmark's server: 4-connectivity, [`WORKERS`] workers, and
/// the routing threshold that sends the out-of-core pool out-of-core.
pub fn bind() -> io::Result<Server> {
    Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            conn: CONN,
            workers: WORKERS,
            max_pixels: SERVE_MAX_PIXELS,
            ..ServeConfig::default()
        },
    )
}

/// The component count of every frame of `pool`, from a local `fast`
/// session: what the server's replies must carry.
pub fn component_counts(pool: &[Frame]) -> Vec<u64> {
    let mut fast = EngineKind::Fast.session(1);
    let mut grid = LabelGrid::new_background(1, 1);
    pool.iter()
        .map(|f| fast.label_into(&f.img, CONN, &mut grid).components as u64)
        .collect()
}

fn policy(jitter_seed: u64) -> RetryPolicy {
    RetryPolicy {
        jitter_seed,
        ..RetryPolicy::default()
    }
}

fn check_grid(
    reply: Result<slap_serve::JobOk, slap_serve::ClientError>,
    f: &Frame,
    want: u64,
) -> Result<(), String> {
    let ok = reply.map_err(|e| e.to_string())?;
    gate::same_count(ok.components as u64, want)?;
    gate::same_count(ok.labels.len() as u64, (f.img.rows() * f.img.cols()) as u64)
}

fn check_stream(
    reply: Result<slap_serve::JobStream, slap_serve::ClientError>,
    f: &Frame,
    want: u64,
) -> Result<(), String> {
    let ok = reply.map_err(|e| e.to_string())?;
    gate::records_match(&ok.records, want, f.ones)
}

/// Sends every serve frame once in its mode, warming both workers' sessions
/// and checking each reply.
pub fn warm(addr: SocketAddr, inputs: &Inputs, want: &Fingerprint, ledger: &mut Ledger) {
    let mut client = Client::with_policy(addr, policy(0));
    for (i, f) in inputs.grid.iter().enumerate() {
        ledger.check(
            check_grid(client.label(&f.img), f, want.grid[i]),
            "warm-up grid job",
        );
    }
    for (i, f) in inputs.stream.iter().enumerate() {
        ledger.check(
            check_stream(client.label_stream(&f.img), f, want.stream[i]),
            "warm-up stream job",
        );
    }
    for (i, f) in inputs.ooc.iter().enumerate() {
        ledger.check(
            check_stream(client.label_stream(&f.img), f, want.ooc[i]),
            "warm-up ooc job",
        );
    }
}

/// Client-observed latencies (ms) and outcomes of one load window.
#[derive(Debug, Default)]
pub struct Load {
    pub grid: Vec<f64>,
    pub stream: Vec<f64>,
    pub ooc: Vec<f64>,
    pub jobs_ok: u64,
    pub elapsed_s: f64,
    pub retries: u64,
    pub ledger: Ledger,
}

impl Load {
    /// Latency samples of the grid, stream and out-of-core modes, in order.
    pub fn latencies(&self) -> [&[f64]; 3] {
        [&self.grid, &self.stream, &self.ooc]
    }
}

/// Runs the closed loop for at least `budget`, and until every mode has
/// `min_samples` answered jobs, but at most twice `budget`.
pub fn drive(
    addr: SocketAddr,
    inputs: &Inputs,
    want: &Fingerprint,
    budget: Duration,
    min_samples: usize,
    t: &mut Tracer,
) -> Load {
    let stop = AtomicBool::new(false);
    let counts = [
        AtomicUsize::new(0),
        AtomicUsize::new(0),
        AtomicUsize::new(0),
    ];
    let start = Instant::now();
    let (g, s) = std::thread::scope(|scope| {
        let client_g = scope.spawn(|| {
            let mut t = t.fork();
            let mut client = Client::with_policy(addr, policy(1));
            let mut load = Load::default();
            let mut job = 0u64;
            while !stop.load(Ordering::SeqCst) {
                let i = job as usize % inputs.grid.len();
                let f = &inputs.grid[i];
                let (ms, reply) = timed(&mut t, job, "client.grid", |_| client.label(&f.img));
                let outcome = check_grid(reply, f, want.grid[i]);
                if outcome.is_ok() {
                    load.grid.push(ms);
                    load.jobs_ok += 1;
                }
                load.ledger.check(outcome, "grid job");
                counts[0].store(load.grid.len(), Ordering::SeqCst);
                job += 1;
            }
            load.retries = client.retries();
            (load, t)
        });
        let client_s = scope.spawn(|| {
            let mut t = t.fork();
            let mut client = Client::with_policy(addr, policy(2));
            let mut load = Load::default();
            let mut job = 0u64;
            while !stop.load(Ordering::SeqCst) {
                let i = (job / 2) as usize % inputs.stream.len();
                let (name, f, expected, lat, slot) = if job.is_multiple_of(2) {
                    (
                        "client.stream",
                        &inputs.stream[i],
                        want.stream[i],
                        &mut load.stream,
                        1,
                    )
                } else {
                    ("client.ooc", &inputs.ooc[i], want.ooc[i], &mut load.ooc, 2)
                };
                let (ms, reply) = timed(&mut t, job, name, |_| client.label_stream(&f.img));
                let outcome = check_stream(reply, f, expected);
                if outcome.is_ok() {
                    lat.push(ms);
                    load.jobs_ok += 1;
                }
                counts[slot].store(lat.len(), Ordering::SeqCst);
                load.ledger.check(outcome, name);
                job += 1;
            }
            load.retries = client.retries();
            (load, t)
        });
        loop {
            std::thread::sleep(Duration::from_millis(5));
            let e = start.elapsed();
            let enough = counts
                .iter()
                .all(|c| c.load(Ordering::SeqCst) >= min_samples);
            let done = client_g.is_finished() || client_s.is_finished();
            if (e >= budget && enough) || e >= budget * 2 || done {
                break;
            }
        }
        stop.store(true, Ordering::SeqCst);
        (
            client_g.join().expect("grid client thread"),
            client_s.join().expect("stream client thread"),
        )
    });
    let ((g, tg), (s, ts)) = (g, s);
    t.absorb(tg);
    t.absorb(ts);
    let mut ledger = g.ledger;
    ledger.merge(s.ledger);
    Load {
        grid: g.grid,
        stream: s.stream,
        ooc: s.ooc,
        jobs_ok: g.jobs_ok + s.jobs_ok,
        elapsed_s: start.elapsed().as_secs_f64(),
        retries: g.retries + s.retries,
        ledger,
    }
}

/// The framed-PBM request a client sends for `img`.
fn framed(img: &Bitmap) -> Vec<u8> {
    let mut v = Vec::new();
    pbm::write_framed(img, &mut v).expect("writing to a Vec cannot fail");
    v
}

/// The frame body (the P4 image) of a framed request.
fn body(framed: &[u8]) -> &[u8] {
    let nl = framed
        .iter()
        .position(|&b| b == b'\n')
        .expect("a framed request has a length line");
    &framed[nl + 1..]
}

/// Replays each serve mode's stages in-process on the serve frames, in
/// turn, for at least `budget`.
pub fn replay(
    inputs: &Inputs,
    want: &Fingerprint,
    budget: Duration,
    t: &mut Tracer,
    ledger: &mut Ledger,
    counters: &mut Counters,
) {
    let mut fast = EngineKind::Fast.session(1);
    let mut grid = LabelGrid::new_background(1, 1);
    let mut ooc = OutOfCoreLabeler::new(OOC_BAND_ROWS, 1);
    let mut scratch = Vec::new();
    let start = Instant::now();
    let mut job = 0u64;
    while (job as usize) < MIN_REPLAYS || start.elapsed() < budget {
        let i = job as usize % inputs.grid.len();
        let f = &inputs.grid[i];
        let outcome = t.span("replay.grid", job, |t| {
            let req = t.span("pbm.write_framed", job, |_| framed(&f.img));
            let (components, labels) = t.span("server.grid_compute", job, |_| {
                let img = pbm::read(body(&req)).expect("valid frame");
                let st = fast.label_into(&img, CONN, &mut grid);
                (st.components, grid.as_slice().to_vec())
            });
            let mut wire = Vec::new();
            t.span("protocol.write_ok", job, |_| {
                protocol::write_ok(
                    &mut wire,
                    f.img.rows(),
                    f.img.cols(),
                    components,
                    &labels,
                    &mut scratch,
                )
            })
            .expect("writing to a Vec cannot fail");
            match t.span("protocol.read_response", job, |_| {
                protocol::read_response(&mut &wire[..])
            }) {
                Ok(Some(Response::Ok(ok))) => gate::same_count(ok.components as u64, want.grid[i]),
                _ => Err("replayed grid reply did not parse".to_string()),
            }
        });
        ledger.check(outcome, "replay grid");

        let f = &inputs.stream[i];
        let (outcome, records) = replay_stream(
            t,
            job,
            "replay.stream",
            "server.stream_compute",
            f,
            want.stream[i],
            &mut scratch,
            |body| label_stream(&mut PbmRowReader::new(body)?, CONN).map(|run| run.components),
        );
        ledger.check(outcome, "replay stream");
        counters.mean("protocol.stream_records", records as f64);

        let f = &inputs.ooc[i];
        let (outcome, _) = replay_stream(
            t,
            job,
            "replay.ooc",
            "server.ooc_compute",
            f,
            want.ooc[i],
            &mut scratch,
            |body| {
                ooc.label_source(&mut PbmRowReader::new(body)?, CONN)
                    .map(|run| run.components)
            },
        );
        ledger.check(outcome, "replay ooc");
        job += 1;
    }
}

/// One stream-mode replay: encode, compute, write the `STREAM` reply, read
/// it back. Returns the check outcome and the record count.
#[allow(clippy::too_many_arguments)]
fn replay_stream(
    t: &mut Tracer,
    job: u64,
    parent: &'static str,
    compute: &'static str,
    f: &Frame,
    want: u64,
    scratch: &mut Vec<u8>,
    label: impl FnOnce(&[u8]) -> io::Result<Vec<RetiredComponent>>,
) -> (Result<(), String>, usize) {
    t.span(parent, job, |t| {
        let req = t.span("pbm.write_framed", job, |_| framed(&f.img));
        let records = t
            .span(compute, job, |_| label(body(&req)))
            .expect("valid frame");
        let mut wire = Vec::new();
        t.span("protocol.write_stream", job, |_| {
            protocol::write_stream_ok(&mut wire, f.img.rows(), f.img.cols(), &records, scratch)
        })
        .expect("writing to a Vec cannot fail");
        let outcome = match t.span("protocol.read_stream", job, |_| {
            protocol::read_stream_response(&mut &wire[..])
        }) {
            Ok(Some(StreamResponse::Ok(ok))) => gate::records_match(&ok.records, want, f.ones),
            _ => Err("replayed stream reply did not parse".to_string()),
        };
        (outcome, records.len())
    })
}
