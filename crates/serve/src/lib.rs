//! `slapd`: a fault-tolerant TCP labeling service over the framed-PBM
//! wire format, plus its retrying client and a deterministic
//! fault-injection harness.
//!
//! The scan-line labelers in `slap_image` label one image at a time; this
//! crate turns them into a long-running service that survives hostile
//! inputs and load spikes. Its only workspace dependency is `slap_image`:
//! no simulator, machine or union-find crate is linked into the service.
//!
//! * [`server::Server`] — acceptor, bounded job queue with byte-budget
//!   backpressure, one job at a time per worker on its warm labelers (a
//!   fast labeler for grid replies, an out-of-core band labeler for stream
//!   replies; the worker decodes the frame body), per-job wall-clock
//!   deadlines with a watchdog, panic isolation with labeler rebuild, and
//!   graceful drain.
//! * [`protocol`] — the wire format: framed-PBM jobs in, `OK` label
//!   payloads, v2 `STREAM` feature-record responses, or a closed taxonomy
//!   of typed `ERR` codes out, with a versioned hello so v1 clients keep
//!   working untouched.
//! * [`wire`] — the shared length-prefixed [`wire::Frame`] codec (one
//!   implementation for request framing, PBM ingest, and stream records)
//!   and the fixed-width feature-record encoding.
//! * [`poll`] — the minimal raw-libc `poll(2)` shim behind the
//!   readiness-based connection core (idle keep-alives cost no thread).
//! * [`client::Client`] — connection pooling and jittered-exponential
//!   retry, safe because labeling is idempotent.
//! * [`chaos`] — seeded fault scripts ([`chaos::FaultyStream`]) for the
//!   integration suite: truncation, short ops, mid-frame disconnects,
//!   lying length prefixes, stalls, garbage, rasters truncated inside a
//!   consistent frame, and clients that vanish mid-response.
//!
//! Everything is `std`-only: threads, `TcpListener`, `Mutex`/`Condvar`,
//! and `mpsc` — no async runtime to depend on or to misbehave under load.

#![warn(missing_docs)]

pub mod chaos;
pub mod client;
pub mod poll;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod wire;

pub use chaos::{Delivery, DetRng, FaultClass, FaultyStream};
pub use client::{Client, ClientError, RetryPolicy};
pub use protocol::{JobOk, JobStream, Response, ResponseMode, StreamResponse, WireError};
pub use queue::{BoundedQueue, PushRejection};
pub use server::{JobHook, ServeConfig, Server, ServerStats, StatsSnapshot};
pub use wire::{Frame, FrameError, RECORD_BYTES};
