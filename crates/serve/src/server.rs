//! `slapd`: the fault-tolerant labeling server.
//!
//! The design is a small set of independent defenses layered in front of
//! the warm labeling engines:
//!
//! ```text
//!  poll loop ──► connection state machines ──► bounded queue ──► workers
//!     │  accept + readiness   │  parse + guards     │  backpressure  │ warm
//!     │  (idle conns cost     │  (typed ERR early)  │  + byte budget │ engine
//!     ▼   no thread)          ▼                     ▼               ▼ pools
//!  nonblocking I/O        typed ERR           queue-full ERR   panic ⇒ rebuild
//! ```
//!
//! * **Readiness core**: one poll thread (raw `poll(2)` via [`crate::poll`])
//!   owns the listener and every connection as a nonblocking state machine
//!   (greeting → frame prefix → frame body → job in flight). An idle
//!   keep-alive connection is one `pollfd` slot, not a parked thread; the
//!   whole server runs on `1 poll + workers + 1 watchdog` threads.
//! * **Admission guards** run before any allocation proportional to the
//!   job: dimension caps, `rows × cols` overflow, pixel budget.
//! * **Response modes**: a protocol-v2 hello negotiates `grid` (v1 label
//!   grids, the default — v1 clients never send a hello and are served
//!   unchanged) or `stream` (retired-component feature records). Every
//!   stream job runs on the worker's warm out-of-core band scheduler at
//!   `O(cols + live)` carried state, so stream jobs above `max_pixels` are
//!   not rejected (they are counted as out-of-core); `max_stream_pixels` is
//!   the hard cap.
//! * **Backpressure** is the bounded queue — when it is full the client
//!   gets a typed `queue-full` rejection immediately; the server never
//!   buffers unbounded work.
//! * **Deadlines** are wall-clock per job: the watchdog sweeps expired
//!   queued jobs, workers refuse to start expired work, and the poll loop
//!   stops waiting past the deadline.
//! * **Panic isolation**: a panicking engine is caught with
//!   `catch_unwind`, the job answers `ERR panic`, the worker rebuilds its
//!   sessions, and the server keeps serving. A stream job whose buffered
//!   body turns out truncated fails with `ERR bad-frame` and rebuilds
//!   nothing.
//! * **Graceful drain**: [`Server::shutdown`] stops accepting, rejects new
//!   jobs with `shutdown`, finishes everything in flight, and returns the
//!   final stats snapshot.

use crate::poll::{poll_fds, set_nonblocking, PollFd, POLLERR, POLLHUP, POLLIN, POLLOUT};
use crate::protocol::{self, ResponseMode, WireError};
use crate::queue::{BoundedQueue, PushRejection};
use crate::wire::PrefixParser;
use slap_cc::{Connectivity, EngineKind, LabelEngine};
use slap_image::pbm::{self, PbmError, PbmRowReader, MAX_FRAME_BYTES};
use slap_image::{Bitmap, LabelGrid, OutOfCoreLabeler, RetiredComponent, STREAM_BAND_ROWS};
use std::io::{self, PipeReader, PipeWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, Once};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// A pre-compute inspection hook, called with each admitted grid-mode job's
/// bitmap on the worker thread before labeling (stream-mode jobs never
/// materialize a bitmap, so the hook does not see them). Tests use it to
/// inject panics and delays; production leaves it `None`.
pub type JobHook = Arc<dyn Fn(&Bitmap) + Send + Sync>;

/// Grid jobs at or above this many pixels run on the parallel engine;
/// smaller jobs take the fast sequential engine.
const PARALLEL_THRESHOLD_PIXELS: u64 = 1 << 21;

/// Tunable limits and behavior for a [`Server`].
#[derive(Clone)]
pub struct ServeConfig {
    /// Neighbor convention applied to every job.
    pub conn: Connectivity,
    /// Worker threads, each holding warm engine sessions.
    pub workers: usize,
    /// Maximum queued jobs (items) before `queue-full`.
    pub queue_cap: usize,
    /// Maximum bytes of queued job state (bitmaps + reserved label output)
    /// before `queue-full` — the memory budget.
    pub queue_budget_bytes: usize,
    /// Maximum rows and maximum cols per job.
    pub max_dim: usize,
    /// Maximum `rows × cols` for a whole-grid response; in stream mode the
    /// *routing threshold* instead — larger frames go out-of-core.
    pub max_pixels: u64,
    /// Hard pixel cap for stream-mode jobs (the out-of-core path).
    pub max_stream_pixels: u64,
    /// Rows per band for the out-of-core scheduler that runs every stream
    /// job (clamped so a band never exceeds the `u32` position space at
    /// `max_dim` width).
    pub ooc_band_rows: usize,
    /// Wall-clock budget per job, from admission to response.
    pub deadline: Duration,
    /// Socket read/write timeout — how long a client may stall mid-frame.
    pub io_timeout: Duration,
    /// Threads handed to the parallel engine session, which labels grid
    /// jobs of at least 2^21 pixels.
    pub engine_threads: usize,
    /// Optional pre-compute hook (see [`JobHook`]).
    pub job_hook: Option<JobHook>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            conn: Connectivity::Four,
            workers: 2,
            queue_cap: 64,
            queue_budget_bytes: 256 << 20,
            max_dim: 1 << 15,
            max_pixels: 1 << 26,
            max_stream_pixels: 1 << 30,
            ooc_band_rows: STREAM_BAND_ROWS,
            deadline: Duration::from_secs(5),
            io_timeout: Duration::from_secs(5),
            engine_threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            job_hook: None,
        }
    }
}

impl std::fmt::Debug for ServeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeConfig")
            .field("conn", &self.conn)
            .field("workers", &self.workers)
            .field("queue_cap", &self.queue_cap)
            .field("queue_budget_bytes", &self.queue_budget_bytes)
            .field("max_dim", &self.max_dim)
            .field("max_pixels", &self.max_pixels)
            .field("max_stream_pixels", &self.max_stream_pixels)
            .field("ooc_band_rows", &self.ooc_band_rows)
            .field("deadline", &self.deadline)
            .field("io_timeout", &self.io_timeout)
            .field("engine_threads", &self.engine_threads)
            .field("job_hook", &self.job_hook.as_ref().map(|_| "<hook>"))
            .finish()
    }
}

macro_rules! stats_fields {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Live server counters (lock-free, updated by every thread).
        #[derive(Debug, Default)]
        pub struct ServerStats {
            $($(#[$doc])* pub $name: std::sync::atomic::AtomicU64,)*
        }

        /// A point-in-time copy of [`ServerStats`] plus queue high-water
        /// marks.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $($(#[$doc])* pub $name: u64,)*
            /// Most jobs queued at once.
            pub peak_queue_depth: u64,
            /// Most queued job bytes held at once.
            pub peak_queue_bytes: u64,
        }

        impl ServerStats {
            fn snapshot(&self, peaks: (usize, usize)) -> StatsSnapshot {
                StatsSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)*
                    peak_queue_depth: peaks.0 as u64,
                    peak_queue_bytes: peaks.1 as u64,
                }
            }
        }
    };
}

stats_fields! {
    /// Connections accepted.
    connections,
    /// Jobs labeled and answered (`OK` or `STREAM`), counted once the
    /// response is fully flushed to the socket.
    jobs_ok,
    /// Stream-mode jobs answered with feature records (a subset of
    /// `jobs_ok`).
    jobs_streamed,
    /// Stream-mode jobs above `max_pixels`, which only the out-of-core band
    /// scheduler could serve (a subset of `jobs_streamed`).
    jobs_ooc,
    /// High-water mark of per-job carried state on the stream path (runs
    /// of one band-boundary row) — the measurable `O(cols + live)` claim.
    peak_carried_runs,
    /// `bad-frame` rejections (parse failures, garbage, truncation).
    bad_frame,
    /// `too-large` rejections (dimension or pixel budget).
    too_large,
    /// `overflow` rejections (`rows × cols` overflows label space).
    overflow,
    /// `queue-full` rejections (backpressure).
    queue_full,
    /// `deadline` rejections (expired in queue, stalled ingest, or slow
    /// compute).
    deadline_expired,
    /// Jobs that panicked inside the engine (each also rebuilds a worker).
    panics,
    /// `shutdown` rejections during drain.
    shutdown_rejects,
    /// Connections dropped on raw I/O errors (reset, broken pipe, stall).
    io_errors,
    /// Worker engine pools rebuilt after a panic.
    sessions_rebuilt,
}

impl ServerStats {
    fn count_reject(&self, code: WireError) {
        let counter = match code {
            WireError::BadFrame => &self.bad_frame,
            WireError::TooLarge => &self.too_large,
            WireError::Overflow => &self.overflow,
            WireError::QueueFull => &self.queue_full,
            WireError::Deadline => &self.deadline_expired,
            WireError::Panic => &self.panics,
            WireError::Shutdown => &self.shutdown_rejects,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

impl StatsSnapshot {
    /// Total typed rejections of every kind.
    pub fn rejected(&self) -> u64 {
        self.bad_frame
            + self.too_large
            + self.overflow
            + self.queue_full
            + self.deadline_expired
            + self.panics
            + self.shutdown_rejects
    }
}

/// Wakes the poll loop from any thread by writing one byte down a
/// self-pipe whose read end sits in the poll set.
struct Waker {
    pipe: Mutex<PipeWriter>,
}

impl Waker {
    fn wake(&self) {
        let mut w = self.pipe.lock().unwrap_or_else(|e| e.into_inner());
        // A full pipe already guarantees a pending wakeup; WouldBlock (and
        // any other failure) is safely ignorable.
        let _ = w.write(&[1]);
    }
}

/// The work a job carries to a worker: a materialized bitmap for grid
/// responses, or the raw framed-PBM body for stream responses (never
/// expanded to pixels on the server).
enum Payload {
    Grid(Bitmap),
    Stream {
        /// The complete frame body (PBM header + raster), parsed row by
        /// row on the worker.
        body: Vec<u8>,
        /// The frame is above `max_pixels`: counted in `jobs_ooc`.
        ooc: bool,
    },
}

/// One admitted job traveling from the poll loop to a worker.
struct Job {
    payload: Payload,
    deadline: Instant,
    resp: Responder,
}

enum Outcome {
    Labeled {
        components: usize,
        labels: Vec<u32>,
    },
    Streamed {
        records: Vec<RetiredComponent>,
        ooc: bool,
    },
    /// The job failed inside the worker for a reason that is the job's
    /// fault (e.g. a truncated raster discovered while streaming the
    /// buffered body). Answered as a typed `ERR`; no pool is rebuilt.
    Failed {
        code: WireError,
        detail: String,
    },
    Panicked,
    Expired,
}

/// A job's reply path: completions are posted to the poll loop's channel
/// and the loop is woken. `seq` lets the loop drop stale completions for
/// jobs it already timed out.
struct Responder {
    tx: mpsc::Sender<Completion>,
    token: u64,
    seq: u64,
    waker: Arc<Waker>,
}

impl Responder {
    fn send(&self, outcome: Outcome) {
        let _ = self.tx.send(Completion {
            token: self.token,
            seq: self.seq,
            outcome,
        });
        self.waker.wake();
    }
}

struct Completion {
    token: u64,
    seq: u64,
    outcome: Outcome,
}

struct Shared {
    cfg: ServeConfig,
    queue: BoundedQueue<Job>,
    stats: ServerStats,
    draining: AtomicBool,
    stopped: AtomicBool,
    waker: Arc<Waker>,
}

/// Where a connection's state machine is between bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Nothing decided yet: the first byte picks v2 (hello, `H`) or v1
    /// (frame prefix, digit/whitespace).
    Greeting,
    /// Accumulating a frame length prefix (possibly zero digits so far).
    Prefix,
    /// Accumulating a frame body of known length.
    Body,
    /// A job is queued or running; input is stashed until it answers.
    InFlight,
}

/// Deferred success counters, applied when the response bytes have fully
/// reached the socket (so drain-time counts match what clients observed).
enum Credit {
    Grid,
    Stream { ooc: bool },
}

/// One nonblocking connection owned by the poll loop.
struct Conn {
    sock: TcpStream,
    token: u64,
    mode: ResponseMode,
    phase: Phase,
    prefix: PrefixParser,
    /// Partial hello line while `Greeting` decides v2.
    greet: Vec<u8>,
    /// Current frame body, filled to `body_len`.
    body: Vec<u8>,
    body_len: usize,
    /// Bytes received while a job was in flight, replayed afterward.
    stash: Vec<u8>,
    /// Pending response bytes and the flush cursor into them.
    out: Vec<u8>,
    out_at: usize,
    flush_credit: Vec<Credit>,
    /// Armed while mid-frame: the client must keep bytes coming.
    io_deadline: Option<Instant>,
    /// Armed while a job is in flight: the worker must answer by then.
    job_deadline: Option<Instant>,
    /// Armed at drain start as a backstop for unflushable connections.
    drain_deadline: Option<Instant>,
    seq: u64,
    job_rows: usize,
    job_cols: usize,
    read_eof: bool,
    close_after_flush: bool,
}

impl Conn {
    fn new(sock: TcpStream, token: u64) -> Conn {
        Conn {
            sock,
            token,
            mode: ResponseMode::Grid,
            phase: Phase::Greeting,
            prefix: PrefixParser::new(MAX_FRAME_BYTES),
            greet: Vec::new(),
            body: Vec::new(),
            body_len: 0,
            stash: Vec::new(),
            out: Vec::new(),
            out_at: 0,
            flush_credit: Vec::new(),
            io_deadline: None,
            job_deadline: None,
            drain_deadline: None,
            seq: 0,
            job_rows: 0,
            job_cols: 0,
            read_eof: false,
            close_after_flush: false,
        }
    }

    /// Whether the client is partway through sending a frame (or hello),
    /// which is when the stall deadline applies.
    fn mid_frame(&self) -> bool {
        match self.phase {
            Phase::Greeting => !self.greet.is_empty(),
            Phase::Prefix => self.prefix.declared().is_some(),
            Phase::Body => true,
            Phase::InFlight => false,
        }
    }

    fn has_output(&self) -> bool {
        self.out_at < self.out.len()
    }
}

/// The listening service. Dropping a `Server` without calling
/// [`Server::shutdown`] leaks its threads; shut it down.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    poll: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` and starts the poll loop, worker pool, and watchdog.
    /// Bind to port 0 for an ephemeral port ([`Server::local_addr`]).
    pub fn bind(addr: impl ToSocketAddrs, cfg: ServeConfig) -> io::Result<Server> {
        assert!(cfg.workers > 0, "a server needs at least one worker");
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let (wake_rx, wake_tx) = io::pipe()?;
        set_nonblocking(wake_rx.as_raw_fd())?;
        set_nonblocking(wake_tx.as_raw_fd())?;
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(cfg.queue_cap, cfg.queue_budget_bytes),
            cfg,
            stats: ServerStats::default(),
            draining: AtomicBool::new(false),
            stopped: AtomicBool::new(false),
            waker: Arc::new(Waker {
                pipe: Mutex::new(wake_tx),
            }),
        });

        let workers = (0..shared.cfg.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("slapd-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();

        let watchdog = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("slapd-watchdog".into())
                .spawn(move || watchdog_loop(&shared))
                .expect("spawn watchdog")
        };

        let poll = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("slapd-poll".into())
                .spawn(move || poll_loop(&shared, listener, wake_rx))
                .expect("spawn poll loop")
        };

        Ok(Server {
            addr,
            shared,
            poll: Some(poll),
            workers,
            watchdog: Some(watchdog),
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A live peek at the counters; the authoritative final snapshot is
    /// the return value of [`Server::shutdown`].
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot(self.shared.queue.peaks())
    }

    /// Graceful drain: stop accepting connections, answer `shutdown` to
    /// new jobs on live connections, finish every job already admitted,
    /// then stop all threads and return the final stats.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.waker.wake();
        // The poll loop closes the listener, finishes in-flight responses
        // (workers are still running), flushes, and exits.
        if let Some(h) = self.poll.take() {
            let _ = h.join();
        }
        // Now drain the queue: workers consume the backlog and exit.
        self.shared.queue.drain();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        self.shared.stopped.store(true, Ordering::SeqCst);
        if let Some(h) = self.watchdog.take() {
            h.thread().unpark();
            let _ = h.join();
        }
        self.shared.stats.snapshot(self.shared.queue.peaks())
    }
}

/// Writes a typed rejection into the connection's output buffer and counts
/// it immediately (matching the historical thread-per-conn accounting for
/// rejections; successes are deferred to flush time instead).
fn reject_to(shared: &Shared, conn: &mut Conn, code: WireError, detail: &str) {
    shared.stats.count_reject(code);
    let _ = protocol::write_err(&mut conn.out, code, detail);
}

/// Feeds received bytes through a connection's state machine: greeting
/// detection, prefix parsing, body accumulation, admission. Stops (and
/// stashes the remainder) when a job goes in flight; errors inside a fully
/// buffered frame body answer `ERR` and keep the stream synchronized,
/// while prefix/hello errors desync and close after flushing.
fn ingest(shared: &Arc<Shared>, done_tx: &mpsc::Sender<Completion>, conn: &mut Conn, bytes: &[u8]) {
    let mut i = 0;
    while i < bytes.len() {
        if conn.close_after_flush {
            return; // discard input after a fatal protocol error
        }
        match conn.phase {
            Phase::InFlight => {
                conn.stash.extend_from_slice(&bytes[i..]);
                return;
            }
            Phase::Greeting => {
                if conn.greet.is_empty() && bytes[i] != b'H' {
                    // v1 client: no hello, straight into frame framing.
                    conn.phase = Phase::Prefix;
                    continue;
                }
                let b = bytes[i];
                i += 1;
                if b == b'\n' {
                    let granted = std::str::from_utf8(&conn.greet)
                        .ok()
                        .and_then(protocol::parse_hello)
                        .map(|(_, mode)| mode);
                    match granted {
                        Some(mode) => {
                            conn.mode = mode;
                            conn.phase = Phase::Prefix;
                            conn.greet.clear();
                            let _ = protocol::write_hello(&mut conn.out, mode);
                        }
                        None => {
                            reject_to(shared, conn, WireError::BadFrame, "bad hello line");
                            conn.close_after_flush = true;
                            return;
                        }
                    }
                } else if conn.greet.len() >= protocol::MAX_HEADER_BYTES {
                    reject_to(shared, conn, WireError::BadFrame, "hello line too long");
                    conn.close_after_flush = true;
                    return;
                } else {
                    conn.greet.push(b);
                }
            }
            Phase::Prefix => {
                let b = bytes[i];
                i += 1;
                match conn.prefix.step(b) {
                    Ok(None) => {}
                    Ok(Some(len)) => {
                        conn.body.clear();
                        conn.body_len = len;
                        conn.phase = Phase::Body;
                        if len == 0 {
                            // An empty frame is a complete (vacuous) body:
                            // admit now so it fails header parsing cleanly.
                            admit(shared, done_tx, conn);
                        }
                    }
                    Err(e) => {
                        // Prefix corruption desyncs the byte stream: answer
                        // and close, exactly like the framed reader did.
                        let pe = PbmError::from(e);
                        reject_to(shared, conn, WireError::from_pbm(&pe), &pe.to_string());
                        conn.close_after_flush = true;
                        return;
                    }
                }
            }
            Phase::Body => {
                let want = conn.body_len - conn.body.len();
                let take = want.min(bytes.len() - i);
                conn.body.extend_from_slice(&bytes[i..i + take]);
                i += take;
                if conn.body.len() == conn.body_len {
                    conn.prefix.reset();
                    admit(shared, done_tx, conn);
                }
            }
        }
    }
}

/// Admits the completed frame in `conn.body`: guards, payload build, queue
/// push. Leaves the connection in `InFlight` on success or back in
/// `Prefix` (with a typed `ERR` queued) on rejection.
fn admit(shared: &Arc<Shared>, done_tx: &mpsc::Sender<Completion>, conn: &mut Conn) {
    let cfg = &shared.cfg;
    conn.phase = Phase::Prefix;
    conn.io_deadline = None;

    // Header parse over the buffered body. Failures here never desync the
    // framing — answer ERR and await the next frame.
    let (rows, cols) = match PbmRowReader::new(&conn.body[..]) {
        Ok(rd) => (rd.rows(), rd.cols()),
        Err(e) => {
            let (code, detail) = classify_job_error(&e);
            reject_to(shared, conn, code, &detail);
            return;
        }
    };
    // Admission guards, cheapest first, all before any job-sized
    // allocation.
    if rows > cfg.max_dim || cols > cfg.max_dim {
        let detail = format!("{rows}x{cols} exceeds max dimension {}", cfg.max_dim);
        reject_to(shared, conn, WireError::TooLarge, &detail);
        return;
    }
    // max_dim caps each side well below 2^32, so this product fits in u64.
    let pixels = rows as u64 * cols as u64;
    match conn.mode {
        ResponseMode::Grid => {
            if pixels >= u64::from(u32::MAX) {
                let detail = format!("{rows}x{cols} overflows the u32 label space");
                reject_to(shared, conn, WireError::Overflow, &detail);
                return;
            }
            if pixels > cfg.max_pixels {
                let detail = format!(
                    "{pixels} pixels exceeds grid budget {}; retry in stream mode \
                     (out-of-core, hard cap {} pixels)",
                    cfg.max_pixels, cfg.max_stream_pixels
                );
                reject_to(shared, conn, WireError::TooLarge, &detail);
                return;
            }
        }
        ResponseMode::Stream => {
            if pixels > cfg.max_stream_pixels {
                let detail = format!(
                    "{pixels} pixels exceeds stream budget {}",
                    cfg.max_stream_pixels
                );
                reject_to(shared, conn, WireError::TooLarge, &detail);
                return;
            }
        }
    }
    if shared.draining.load(Ordering::SeqCst) {
        reject_to(shared, conn, WireError::Shutdown, "server is draining");
        return;
    }

    let (payload, weight) = match conn.mode {
        ResponseMode::Grid => {
            // Materialize the bitmap from the buffered frame body. Failures
            // here (truncated raster, bad pixel bytes) do not desync.
            let img = match pbm::read(&conn.body[..]) {
                Ok(img) => img,
                Err(e) => {
                    let (code, detail) = classify_job_error(&e);
                    reject_to(shared, conn, code, &detail);
                    return;
                }
            };
            // Weight = bitmap words + the label grid the worker hands back.
            let weight = img.as_words().len() * 8 + (pixels as usize) * 4;
            (Payload::Grid(img), weight)
        }
        ResponseMode::Stream => {
            // The raster is validated by the worker as it streams the rows;
            // the server never holds more than the compressed body.
            let body = std::mem::take(&mut conn.body);
            let weight = body.len() + 64;
            (
                Payload::Stream {
                    body,
                    ooc: pixels > cfg.max_pixels,
                },
                weight,
            )
        }
    };

    conn.seq += 1;
    let job = Job {
        payload,
        deadline: Instant::now() + cfg.deadline,
        resp: Responder {
            tx: done_tx.clone(),
            token: conn.token,
            seq: conn.seq,
            waker: Arc::clone(&shared.waker),
        },
    };
    match shared.queue.try_push(job, weight) {
        Err((_, PushRejection::Full)) => {
            reject_to(
                shared,
                conn,
                WireError::QueueFull,
                "job queue is full; retry",
            );
        }
        Err((_, PushRejection::Draining)) => {
            reject_to(shared, conn, WireError::Shutdown, "server is draining");
        }
        Ok(()) => {
            conn.phase = Phase::InFlight;
            conn.job_rows = rows;
            conn.job_cols = cols;
            // Workers race the deadline; give them a grace period so their
            // own expiry report (or the watchdog's) normally wins.
            let wait = cfg.deadline + cfg.deadline / 4 + Duration::from_millis(50);
            conn.job_deadline = Some(Instant::now() + wait);
        }
    }
}

/// Maps a job-level `io::Error` (header parse, raster streaming) to its
/// wire code and single-line detail.
fn classify_job_error(e: &io::Error) -> (WireError, String) {
    match PbmError::from_io(e) {
        Some(pe) => (WireError::from_pbm(pe), pe.to_string()),
        None => (WireError::BadFrame, e.to_string()),
    }
}

/// Applies a worker completion to its connection: writes the response,
/// then replays any stashed bytes (which may admit the next job).
fn complete(
    shared: &Arc<Shared>,
    done_tx: &mpsc::Sender<Completion>,
    conn: &mut Conn,
    outcome: Outcome,
    scratch: &mut Vec<u8>,
) {
    conn.phase = Phase::Prefix;
    conn.job_deadline = None;
    match outcome {
        Outcome::Labeled { components, labels } => {
            let _ = protocol::write_ok(
                &mut conn.out,
                conn.job_rows,
                conn.job_cols,
                components,
                &labels,
                scratch,
            );
            conn.flush_credit.push(Credit::Grid);
        }
        Outcome::Streamed { records, ooc } => {
            let _ = protocol::write_stream_ok(
                &mut conn.out,
                conn.job_rows,
                conn.job_cols,
                &records,
                scratch,
            );
            conn.flush_credit.push(Credit::Stream { ooc });
        }
        Outcome::Failed { code, detail } => {
            reject_to(shared, conn, code, &detail);
        }
        Outcome::Panicked => {
            // The worker already counted the panic; answer the client.
            let _ = protocol::write_err(
                &mut conn.out,
                WireError::Panic,
                "job panicked; worker rebuilt",
            );
        }
        Outcome::Expired => {
            // The watchdog/worker already counted the expiry.
            let _ = protocol::write_err(
                &mut conn.out,
                WireError::Deadline,
                "job missed its deadline",
            );
        }
    }
    let stash = std::mem::take(&mut conn.stash);
    if !stash.is_empty() {
        ingest(shared, done_tx, conn, &stash);
    }
}

/// Pushes pending output to the socket. Success counters ride the flush:
/// they apply only once every buffered byte (the response included) has
/// reached the socket, so drained stats never exceed what clients could
/// observe. Returns `false` if the connection died.
fn flush_out(shared: &Shared, conn: &mut Conn) -> bool {
    while conn.out_at < conn.out.len() {
        match conn.sock.write(&conn.out[conn.out_at..]) {
            Ok(0) => {
                shared.stats.io_errors.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            Ok(n) => conn.out_at += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                shared.stats.io_errors.fetch_add(1, Ordering::Relaxed);
                return false;
            }
        }
    }
    conn.out.clear();
    conn.out_at = 0;
    for credit in conn.flush_credit.drain(..) {
        shared.stats.jobs_ok.fetch_add(1, Ordering::Relaxed);
        if let Credit::Stream { ooc } = credit {
            shared.stats.jobs_streamed.fetch_add(1, Ordering::Relaxed);
            if ooc {
                shared.stats.jobs_ooc.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    true
}

/// Reads everything currently available on the connection through
/// `chunk`, the poll thread's one reusable read buffer. Returns `false` if
/// the connection died on a transport error.
fn read_some(
    shared: &Arc<Shared>,
    done_tx: &mpsc::Sender<Completion>,
    conn: &mut Conn,
    chunk: &mut [u8],
) -> bool {
    loop {
        if conn.phase == Phase::InFlight || conn.close_after_flush || conn.read_eof {
            break;
        }
        match conn.sock.read(chunk) {
            Ok(0) => {
                conn.read_eof = true;
                break;
            }
            Ok(n) => {
                ingest(shared, done_tx, conn, &chunk[..n]);
                // Stall detection: the clock restarts on every byte of
                // progress and only runs while mid-frame.
                conn.io_deadline = conn
                    .mid_frame()
                    .then(|| Instant::now() + shared.cfg.io_timeout);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                shared.stats.io_errors.fetch_add(1, Ordering::Relaxed);
                return false;
            }
        }
    }
    if !conn.mid_frame() {
        conn.io_deadline = None;
    }
    flush_out(shared, conn)
}

/// Per-iteration housekeeping for one connection: deadline expiries, EOF
/// resolution, drain closure. Returns `false` when the connection should
/// be removed.
fn sweep_conn(
    shared: &Arc<Shared>,
    done_tx: &mpsc::Sender<Completion>,
    conn: &mut Conn,
    now: Instant,
    draining: bool,
) -> bool {
    // A stalled mid-frame client: same answer and same counter as the old
    // blocking read timeout.
    if let Some(d) = conn.io_deadline {
        if now >= d && conn.mid_frame() {
            shared.stats.io_errors.fetch_add(1, Ordering::Relaxed);
            let _ = protocol::write_err(
                &mut conn.out,
                WireError::Deadline,
                "stream stalled mid-frame",
            );
            conn.io_deadline = None;
            conn.close_after_flush = true;
        }
    }
    // A worker that never answered within the grace window: reject typed,
    // invalidate the outstanding completion, and keep the connection.
    if conn.phase == Phase::InFlight {
        if let Some(d) = conn.job_deadline {
            if now >= d {
                conn.phase = Phase::Prefix;
                conn.job_deadline = None;
                reject_to(shared, conn, WireError::Deadline, "job missed its deadline");
                // Bump so the eventual completion for the abandoned job is
                // recognized as stale and dropped.
                conn.seq += 1;
                let stash = std::mem::take(&mut conn.stash);
                if !stash.is_empty() {
                    ingest(shared, done_tx, conn, &stash);
                }
            }
        }
    }
    // EOF resolution once nothing is in flight: a clean close between
    // frames, or a truncation error mid-frame (fatal, as it always was).
    if conn.read_eof && conn.phase != Phase::InFlight && !conn.close_after_flush {
        if conn.mid_frame() {
            let declared = if conn.phase == Phase::Body {
                conn.body_len
            } else {
                conn.prefix.declared().unwrap_or(0)
            };
            let missing = declared.saturating_sub(conn.body.len());
            let pe = PbmError::TruncatedFrame { declared, missing };
            reject_to(shared, conn, WireError::BadFrame, &pe.to_string());
        } else if conn.phase == Phase::Greeting && !conn.greet.is_empty() {
            reject_to(shared, conn, WireError::BadFrame, "hello line truncated");
        }
        conn.close_after_flush = true;
    }
    if draining {
        // Backstop: never let an unflushable connection hold the drain.
        let d = *conn
            .drain_deadline
            .get_or_insert(now + shared.cfg.io_timeout);
        if now >= d {
            return false;
        }
        if conn.phase != Phase::InFlight {
            conn.close_after_flush = true;
        }
    }
    if !flush_out(shared, conn) {
        return false;
    }
    if conn.close_after_flush && !conn.has_output() && conn.phase != Phase::InFlight {
        let _ = conn.sock.shutdown(std::net::Shutdown::Both);
        return false;
    }
    true
}

/// The readiness loop: accepts connections, pumps every state machine, and
/// dispatches worker completions — all on one thread.
fn poll_loop(shared: &Arc<Shared>, listener: TcpListener, wake_rx: PipeReader) {
    let (done_tx, done_rx) = mpsc::channel::<Completion>();
    let mut listener = Some(listener);
    let mut conns: Vec<Conn> = Vec::new();
    let mut next_token: u64 = 0;
    let mut scratch = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut wake_rx = wake_rx;

    loop {
        // Worker completions first: they free connections to make
        // progress and carry response bytes to flush below.
        while let Ok(c) = done_rx.try_recv() {
            if let Some(conn) = conns.iter_mut().find(|k| k.token == c.token) {
                if conn.phase == Phase::InFlight && conn.seq == c.seq {
                    complete(shared, &done_tx, conn, c.outcome, &mut scratch);
                }
            }
        }

        let draining = shared.draining.load(Ordering::SeqCst);
        if draining {
            // Closing the listener refuses new connections immediately.
            listener = None;
        }

        let now = Instant::now();
        let mut i = 0;
        while i < conns.len() {
            if sweep_conn(shared, &done_tx, &mut conns[i], now, draining) {
                i += 1;
            } else {
                conns.swap_remove(i);
            }
        }

        if draining && conns.is_empty() {
            break;
        }

        // Poll set: wake pipe, listener, then one slot per connection.
        let mut fds = vec![PollFd::new(wake_rx.as_raw_fd(), POLLIN)];
        let listener_slot = listener.as_ref().map(|l| {
            fds.push(PollFd::new(l.as_raw_fd(), POLLIN));
            fds.len() - 1
        });
        let conn_base = fds.len();
        for conn in &conns {
            let mut events = 0i16;
            if conn.phase != Phase::InFlight && !conn.read_eof && !conn.close_after_flush {
                events |= POLLIN;
            }
            if conn.has_output() {
                events |= POLLOUT;
            }
            fds.push(PollFd::new(conn.sock.as_raw_fd(), events));
        }

        // Sleep until readiness, a wakeup, or the nearest deadline; the
        // 250ms cap bounds any accounting drift without busy-waiting.
        let mut timeout = Duration::from_millis(250);
        for conn in &conns {
            for d in [conn.io_deadline, conn.job_deadline, conn.drain_deadline]
                .into_iter()
                .flatten()
            {
                timeout = timeout.min(d.saturating_duration_since(now));
            }
        }
        let _ = poll_fds(&mut fds, Some(timeout));

        if fds[0].ready() {
            let mut buf = [0u8; 64];
            while matches!(wake_rx.read(&mut buf), Ok(n) if n > 0) {}
        }

        if let (Some(slot), Some(l)) = (listener_slot, listener.as_ref()) {
            if fds[slot].ready() {
                loop {
                    match l.accept() {
                        Ok((sock, _)) => {
                            shared.stats.connections.fetch_add(1, Ordering::Relaxed);
                            if sock.set_nonblocking(true).is_err() {
                                shared.stats.io_errors.fetch_add(1, Ordering::Relaxed);
                                continue;
                            }
                            let _ = sock.set_nodelay(true);
                            next_token += 1;
                            conns.push(Conn::new(sock, next_token));
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => {
                            shared.stats.io_errors.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                    }
                }
            }
        }

        for (slot, fd) in fds.iter().enumerate().skip(conn_base) {
            if !fd.ready() {
                continue;
            }
            // Tokens are assigned in push order and sweeps preserve no
            // order, so map the slot back to the connection by fd.
            let Some(idx) = conns.iter().position(|c| c.sock.as_raw_fd() == fd.fd) else {
                continue;
            };
            let _ = slot;
            let mut alive = true;
            if fd.revents & (POLLIN | POLLHUP | POLLERR) != 0 {
                alive = read_some(shared, &done_tx, &mut conns[idx], &mut chunk);
            }
            if alive && fd.revents & POLLOUT != 0 {
                alive = flush_out(shared, &mut conns[idx]);
            }
            if !alive {
                conns.swap_remove(idx);
            }
        }
    }
}

thread_local! {
    /// True while this worker thread is inside a job's `catch_unwind`,
    /// so the global panic hook knows to stay quiet: the panic is
    /// contained and reported on the wire, not a server bug.
    static IN_JOB: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn install_quiet_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !IN_JOB.with(|f| f.get()) {
                previous(info);
            }
        }));
    });
}

/// A worker's warm engine pool: fast and parallel whole-grid sessions
/// routed by job size, plus the out-of-core band scheduler session that
/// runs every stream job (one warm labeler per worker, band buffers reused
/// across jobs).
struct Engines {
    fast: Box<dyn LabelEngine>,
    parallel: Box<dyn LabelEngine>,
    ooc: OutOfCoreLabeler,
    grid: LabelGrid,
}

impl Engines {
    fn new(cfg: &ServeConfig) -> Engines {
        // A band must stay inside the u32 position space at the widest
        // admissible frame.
        let band_cap = ((u32::MAX as u64 - 1) / cfg.max_dim.max(1) as u64).max(1) as usize;
        Engines {
            fast: EngineKind::Fast.session(1),
            parallel: EngineKind::Parallel.session(cfg.engine_threads),
            ooc: OutOfCoreLabeler::new(cfg.ooc_band_rows.clamp(1, band_cap), 1),
            grid: LabelGrid::new_background(1, 1),
        }
    }

    fn run(&mut self, cfg: &ServeConfig, img: &Bitmap) -> (usize, Vec<u32>) {
        if let Some(hook) = &cfg.job_hook {
            hook(img);
        }
        let pixels = img.rows() as u64 * img.cols() as u64;
        if self.grid.rows() != img.rows() || self.grid.cols() != img.cols() {
            self.grid = LabelGrid::new_background(img.rows(), img.cols());
        }
        let engine = if pixels >= PARALLEL_THRESHOLD_PIXELS && cfg.engine_threads > 1 {
            &mut self.parallel
        } else {
            &mut self.fast
        };
        let stats = engine.label_into(img, cfg.conn, &mut self.grid);
        (stats.components, self.grid.as_slice().to_vec())
    }

    /// Labels a stream job straight from its buffered frame body on the
    /// worker's warm out-of-core band labeler, never materializing the
    /// pixels. Returns the records plus the job's peak carried boundary
    /// runs.
    fn run_stream(
        &mut self,
        cfg: &ServeConfig,
        body: &[u8],
    ) -> io::Result<(Vec<RetiredComponent>, u64)> {
        let run = self
            .ooc
            .label_source(&mut PbmRowReader::new(body)?, cfg.conn)?;
        Ok((run.components, run.stats.peak_carried_runs as u64))
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    install_quiet_panic_hook();
    let cfg = &shared.cfg;
    let mut engines = Engines::new(cfg);
    while let Some(job) = shared.queue.pop() {
        if Instant::now() > job.deadline {
            shared
                .stats
                .deadline_expired
                .fetch_add(1, Ordering::Relaxed);
            job.resp.send(Outcome::Expired);
            continue;
        }
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            IN_JOB.with(|f| f.set(true));
            match &job.payload {
                Payload::Grid(img) => {
                    let (components, labels) = engines.run(cfg, img);
                    Outcome::Labeled { components, labels }
                }
                Payload::Stream { body, ooc } => match engines.run_stream(cfg, body) {
                    Ok((records, peak)) => {
                        shared
                            .stats
                            .peak_carried_runs
                            .fetch_max(peak, Ordering::Relaxed);
                        Outcome::Streamed { records, ooc: *ooc }
                    }
                    Err(e) => {
                        let (code, detail) = classify_job_error(&e);
                        Outcome::Failed { code, detail }
                    }
                },
            }
        }));
        IN_JOB.with(|f| f.set(false));
        match result {
            Ok(outcome) => job.resp.send(outcome),
            Err(_) => {
                // The engine pool may hold torn state; rebuild it.
                shared.stats.panics.fetch_add(1, Ordering::Relaxed);
                shared
                    .stats
                    .sessions_rebuilt
                    .fetch_add(1, Ordering::Relaxed);
                engines = Engines::new(cfg);
                job.resp.send(Outcome::Panicked);
            }
        }
    }
}

/// Sweeps the queue for jobs that expired before any worker reached them,
/// so a saturated queue still answers `deadline` promptly instead of
/// making clients wait out their full timeout.
fn watchdog_loop(shared: &Arc<Shared>) {
    let tick = (shared.cfg.deadline / 4).max(Duration::from_millis(5));
    while !shared.stopped.load(Ordering::SeqCst) {
        let now = Instant::now();
        shared.queue.reject_if(
            |job| now > job.deadline,
            |job| {
                shared
                    .stats
                    .deadline_expired
                    .fetch_add(1, Ordering::Relaxed);
                job.resp.send(Outcome::Expired);
            },
        );
        thread::park_timeout(tick);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Response, StreamResponse};
    use slap_image::pbm;
    use std::io::BufReader;

    fn test_cfg() -> ServeConfig {
        ServeConfig {
            workers: 2,
            deadline: Duration::from_millis(500),
            io_timeout: Duration::from_millis(500),
            ..ServeConfig::default()
        }
    }

    fn checker(rows: usize, cols: usize) -> Bitmap {
        let mut img = Bitmap::new(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                if (r + c) % 2 == 0 {
                    img.set(r, c, true);
                }
            }
        }
        img
    }

    fn roundtrip_one(addr: SocketAddr, img: &Bitmap) -> Response {
        let mut stream = TcpStream::connect(addr).unwrap();
        pbm::write_framed(img, &mut stream).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        protocol::read_response(&mut reader).unwrap().unwrap()
    }

    /// Opens a stream-mode connection: hello sent, echo verified.
    fn stream_conn(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
        let mut stream = TcpStream::connect(addr).unwrap();
        protocol::write_hello(&mut stream, ResponseMode::Stream).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        assert_eq!(
            protocol::read_hello(&mut reader).unwrap(),
            ResponseMode::Stream
        );
        (stream, reader)
    }

    #[test]
    fn labels_match_the_fast_engine_bit_for_bit() {
        let server = Server::bind("127.0.0.1:0", test_cfg()).unwrap();
        let img = checker(17, 41);
        let resp = roundtrip_one(server.local_addr(), &img);
        let Response::Ok(ok) = resp else {
            panic!("expected OK, got {resp:?}");
        };
        let mut grid = LabelGrid::new_background(17, 41);
        let mut session = EngineKind::Fast.session(1);
        let stats = session.label_into(&img, Connectivity::Four, &mut grid);
        assert_eq!(ok.components, stats.components);
        assert_eq!(ok.labels, grid.as_slice());
        let final_stats = server.shutdown();
        assert_eq!(final_stats.jobs_ok, 1);
        assert_eq!(final_stats.rejected(), 0);
    }

    #[test]
    fn oversized_dims_get_typed_rejections_without_allocation() {
        let cfg = ServeConfig {
            max_dim: 64,
            max_pixels: 1 << 10,
            ..test_cfg()
        };
        let server = Server::bind("127.0.0.1:0", cfg).unwrap();
        let addr = server.local_addr();

        // Over max_dim: reject before reading the raster.
        let mut stream = TcpStream::connect(addr).unwrap();
        let body = b"P4\n100000 2\n".to_vec();
        stream
            .write_all(format!("{}\n", body.len()).as_bytes())
            .unwrap();
        stream.write_all(&body).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        match protocol::read_response(&mut reader).unwrap().unwrap() {
            Response::Rejected { code, .. } => assert_eq!(code, WireError::TooLarge),
            other => panic!("expected too-large, got {other:?}"),
        }
        // Over max_pixels but under max_dim: the detail names the cap and
        // the stream-mode escape hatch.
        let body = b"P4\n64 64\n".to_vec();
        stream
            .write_all(format!("{}\n", body.len()).as_bytes())
            .unwrap();
        stream.write_all(&body).unwrap();
        match protocol::read_response(&mut reader).unwrap().unwrap() {
            Response::Rejected { code, detail } => {
                assert_eq!(code, WireError::TooLarge);
                assert!(detail.contains("1024"), "cap in detail: {detail:?}");
                assert!(detail.contains("stream mode"), "retry hint: {detail:?}");
            }
            other => panic!("expected too-large, got {other:?}"),
        }
        // The connection is still healthy after both rejections.
        let img = checker(8, 8);
        pbm::write_framed(&img, &mut stream).unwrap();
        assert!(matches!(
            protocol::read_response(&mut reader).unwrap().unwrap(),
            Response::Ok(_)
        ));
        let stats = server.shutdown();
        assert_eq!(stats.too_large, 2);
        assert_eq!(stats.jobs_ok, 1);
    }

    #[test]
    fn a_short_grid_raster_is_a_bad_frame_and_the_socket_keeps_serving() {
        let server = Server::bind("127.0.0.1:0", test_cfg()).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        // A well-framed body whose P4 raster holds 1 of 3 declared rows.
        let body = b"P4\n8 3\n\xff".to_vec();
        stream
            .write_all(format!("{}\n", body.len()).as_bytes())
            .unwrap();
        stream.write_all(&body).unwrap();
        match protocol::read_response(&mut reader).unwrap().unwrap() {
            Response::Rejected { code, detail } => {
                assert_eq!(code, WireError::BadFrame);
                let want = PbmError::TruncatedPixels {
                    declared_rows: 3,
                    read_rows: 1,
                };
                assert_eq!(detail, want.to_string());
            }
            other => panic!("expected bad-frame, got {other:?}"),
        }
        pbm::write_framed(&checker(8, 8), &mut stream).unwrap();
        assert!(matches!(
            protocol::read_response(&mut reader).unwrap().unwrap(),
            Response::Ok(_)
        ));
        let stats = server.shutdown();
        assert_eq!(stats.bad_frame, 1);
        assert_eq!(stats.sessions_rebuilt, 0);
        assert_eq!(stats.jobs_ok, 1);
    }

    #[test]
    fn a_panicking_job_is_isolated_and_the_server_keeps_serving() {
        let cfg = ServeConfig {
            job_hook: Some(Arc::new(|img: &Bitmap| {
                assert!(img.rows() != 13, "chaos hook: unlucky height");
            })),
            ..test_cfg()
        };
        let server = Server::bind("127.0.0.1:0", cfg).unwrap();
        let addr = server.local_addr();
        match roundtrip_one(addr, &checker(13, 8)) {
            Response::Rejected { code, .. } => assert_eq!(code, WireError::Panic),
            other => panic!("expected panic rejection, got {other:?}"),
        }
        // Same server, next job is fine.
        assert!(matches!(
            roundtrip_one(addr, &checker(12, 8)),
            Response::Ok(_)
        ));
        let stats = server.shutdown();
        assert_eq!(stats.panics, 1);
        assert_eq!(stats.sessions_rebuilt, 1);
        assert_eq!(stats.jobs_ok, 1);
    }

    #[test]
    fn shutdown_drains_and_reports_rejections() {
        let server = Server::bind("127.0.0.1:0", test_cfg()).unwrap();
        let addr = server.local_addr();
        assert!(matches!(
            roundtrip_one(addr, &checker(9, 9)),
            Response::Ok(_)
        ));
        let stats = server.shutdown();
        assert_eq!(stats.jobs_ok, 1);
        assert_eq!(stats.connections, 1);
        // The listener is gone: connecting is refused, never a hang.
        assert!(TcpStream::connect(addr).is_err());
    }

    #[test]
    fn stream_mode_negotiates_and_returns_feature_records() {
        let server = Server::bind("127.0.0.1:0", test_cfg()).unwrap();
        let img = checker(19, 37);
        let (mut stream, mut reader) = stream_conn(server.local_addr());
        pbm::write_framed(&img, &mut stream).unwrap();
        let resp = protocol::read_stream_response(&mut reader)
            .unwrap()
            .unwrap();
        let StreamResponse::Ok(job) = resp else {
            panic!("expected STREAM, got {resp:?}");
        };
        assert_eq!((job.rows, job.cols), (19, 37));
        let mut grid = LabelGrid::new_background(19, 37);
        let mut session = EngineKind::Fast.session(1);
        let stats = session.label_into(&img, Connectivity::Four, &mut grid);
        assert_eq!(job.components, stats.components);
        let foreground: u64 = (0..19)
            .flat_map(|r| (0..37).map(move |c| (r, c)))
            .filter(|&(r, c)| img.get(r, c))
            .count() as u64;
        assert_eq!(job.records.iter().map(|r| r.area).sum::<u64>(), foreground);
        let final_stats = server.shutdown();
        assert_eq!(final_stats.jobs_ok, 1);
        assert_eq!(final_stats.jobs_streamed, 1);
        assert_eq!(final_stats.jobs_ooc, 0);
        assert!(final_stats.peak_carried_runs > 0);
    }

    #[test]
    fn oversize_stream_jobs_route_out_of_core() {
        let cfg = ServeConfig {
            max_pixels: 256, // a 64×64 frame is 16× over the grid budget
            ..test_cfg()
        };
        let server = Server::bind("127.0.0.1:0", cfg).unwrap();
        let img = checker(64, 64);
        let (mut stream, mut reader) = stream_conn(server.local_addr());
        pbm::write_framed(&img, &mut stream).unwrap();
        let resp = protocol::read_stream_response(&mut reader)
            .unwrap()
            .unwrap();
        let StreamResponse::Ok(job) = resp else {
            panic!("expected STREAM, got {resp:?}");
        };
        let mut grid = LabelGrid::new_background(64, 64);
        let mut session = EngineKind::Fast.session(1);
        let stats = session.label_into(&img, Connectivity::Four, &mut grid);
        assert_eq!(job.components, stats.components);
        let final_stats = server.shutdown();
        assert_eq!(final_stats.jobs_ooc, 1);
        // The paper's carried-state bound, observable on the wire path.
        assert!(final_stats.peak_carried_runs <= 64 / 2 + 1);
    }

    #[test]
    fn v1_and_v2_clients_interleave_on_one_server() {
        let server = Server::bind("127.0.0.1:0", test_cfg()).unwrap();
        let addr = server.local_addr();
        let img = checker(11, 23);
        assert!(matches!(roundtrip_one(addr, &img), Response::Ok(_)));
        let (mut stream, mut reader) = stream_conn(addr);
        pbm::write_framed(&img, &mut stream).unwrap();
        assert!(matches!(
            protocol::read_stream_response(&mut reader)
                .unwrap()
                .unwrap(),
            StreamResponse::Ok(_)
        ));
        assert!(matches!(roundtrip_one(addr, &img), Response::Ok(_)));
        let stats = server.shutdown();
        assert_eq!(stats.jobs_ok, 3);
        assert_eq!(stats.jobs_streamed, 1);
    }

    #[test]
    fn a_bad_hello_is_rejected_and_closed() {
        let server = Server::bind("127.0.0.1:0", test_cfg()).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(b"HELLO slapd/2 sideways\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        match protocol::read_response(&mut reader).unwrap().unwrap() {
            Response::Rejected { code, .. } => assert_eq!(code, WireError::BadFrame),
            other => panic!("expected bad-frame, got {other:?}"),
        }
        assert!(protocol::read_response(&mut reader).unwrap().is_none());
        let stats = server.shutdown();
        assert_eq!(stats.bad_frame, 1);
    }
}
