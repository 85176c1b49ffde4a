//! The `slap-bench serve` sweep: sustained `slapd` throughput under
//! concurrent clients, recorded to `BENCH_serve.json`.
//!
//! For each (family, size, connectivity, mode) workload the sweep binds a
//! real [`slap_serve::Server`] on an ephemeral port and drives it with 1,
//! 4, and 16 concurrent [`slap_serve::Client`]s for a fixed wall-clock
//! window, recording jobs answered, retries, and the server's own rejection
//! ledger. Three response modes are measured per point: `grid` (v1
//! whole-grid payloads), `stream` (protocol-v2 feature records, in-core),
//! and `ooc` (stream mode against a server whose routing threshold forces
//! every job out-of-core). Every client retries transient rejections
//! (`queue-full`, `deadline`) per its policy, so the headline criterion is
//! loss-free service: **zero failed jobs at every concurrency level**, with
//! [`spec`] also enforcing full coverage — every client count of
//! [`CLIENTS`] in every mode of [`MODES`] on every swept workload — and the
//! paper's carried-state bound on the streaming paths:
//! `peak_carried_runs ≤ n/2 + 1`, i.e. `O(cols + live)` server memory per
//! out-of-core job rather than `O(n²)`.
//!
//! The recorded `host_threads` keeps narrow hosts honest: on one or two
//! CPUs the 16-client point measures queueing discipline, not parallel
//! speedup, and the spec deliberately demands no scaling curve.

use crate::record::{Bound, Cover, Entry, Op, Report, Rhs, Sel, Spec};
use crate::sweep::{conn_id, CONNS, SEED};
use slap_image::{gen, Connectivity};
use slap_serve::{Client, RetryPolicy, ServeConfig, Server};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Concurrency levels every sweep covers, with their entry configs.
pub const CLIENTS: &[(usize, &str)] = &[(1, "clients=1"), (4, "clients=4"), (16, "clients=16")];

/// Response modes (entry engines) every sweep covers. `ooc` is stream mode
/// against a server whose `max_pixels` routing threshold (set to `n²/4`)
/// pushes every benched job through the out-of-core band scheduler.
pub const MODES: &[&str] = &["grid", "stream", "ooc"];

/// Worker threads the benched server runs (the entries' `threads`).
pub const WORKERS: usize = 2;

const COUNTERS: &[&str] = &[
    "elapsed_ns",
    "jobs_ok",
    "failures",
    "retries",
    "rejected",
    "ooc_jobs",
    "peak_carried_runs",
];

/// Measures one (image, connectivity, mode, clients) point against a fresh
/// server.
fn time_point(
    family: &str,
    n: usize,
    conn: Connectivity,
    mode: &str,
    (clients, config): (usize, &str),
    window: Duration,
) -> Entry {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            conn,
            workers: WORKERS,
            // The ooc point forces routing: every n×n job crosses the
            // threshold and runs banded with O(cols) carried state.
            max_pixels: if mode == "ooc" {
                ((n * n) / 4) as u64
            } else {
                ServeConfig::default().max_pixels
            },
            ..ServeConfig::default()
        },
    )
    .expect("bind bench server");
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));

    let t0 = Instant::now();
    let drivers: Vec<_> = (0..clients)
        .map(|i| {
            let stop = Arc::clone(&stop);
            let family = family.to_string();
            let grid_mode = mode == "grid";
            std::thread::spawn(move || {
                // Distinct seeds so concurrent clients don't serve one
                // identical job from the page cache of the allocator.
                let img = gen::by_name(&family, n, SEED + i as u64).expect("workload");
                let mut client = Client::with_policy(
                    addr,
                    RetryPolicy {
                        base_delay: Duration::from_millis(2),
                        jitter_seed: 0x5eed + i as u64,
                        ..RetryPolicy::default()
                    },
                );
                let (mut ok, mut failures) = (0u64, 0u64);
                while !stop.load(Ordering::Relaxed) {
                    let outcome = if grid_mode {
                        client.label(&img).map(|_| ())
                    } else {
                        client.label_stream(&img).map(|_| ())
                    };
                    match outcome {
                        Ok(()) => ok += 1,
                        Err(_) => failures += 1,
                    }
                }
                (ok, failures, client.retries())
            })
        })
        .collect();
    std::thread::sleep(window);
    stop.store(true, Ordering::Relaxed);
    let (mut jobs_ok, mut failures, mut retries) = (0u64, 0u64, 0u64);
    for d in drivers {
        let (o, f, r) = d.join().expect("bench client");
        jobs_ok += o;
        failures += f;
        retries += r;
    }
    let elapsed_ns = t0.elapsed().as_nanos() as u64;
    let stats = server.shutdown();
    Entry::new(family, n, conn_id(conn), mode, config, WORKERS)
        .count(COUNTERS[0], elapsed_ns)
        .count(COUNTERS[1], jobs_ok)
        .count(COUNTERS[2], failures)
        .count(COUNTERS[3], retries)
        .count(COUNTERS[4], stats.rejected())
        .count(COUNTERS[5], stats.jobs_ooc)
        .count(COUNTERS[6], stats.peak_carried_runs)
}

/// Runs the sweep.
pub fn run(quick: bool, progress: &mut dyn FnMut(&str)) -> Report {
    let (families, sides, window): (&[&str], &[usize], _) = if quick {
        (&["random50"], &[128], Duration::from_millis(250))
    } else {
        (
            &["random50", "blobs"],
            &[128, 256],
            Duration::from_millis(1000),
        )
    };
    let mut entries = Vec::new();
    for &family in families {
        for &n in sides {
            for &conn in CONNS {
                for &mode in MODES {
                    for &clients in CLIENTS {
                        let e = time_point(family, n, conn, mode, clients, window);
                        progress(&e.line());
                        entries.push(e);
                    }
                }
            }
        }
    }
    Report::new("serve", quick, families, sides, entries)
}

/// The serve criteria: every entry served at least one job with **zero
/// failures** (loss-free service under retry); every measured workload
/// covers every client count in every mode; grid entries carry no stream
/// state; the streaming paths honor `peak_carried_runs ≤ n/2 + 1`, in-core
/// stream jobs never route out-of-core, and every `ooc` job does.
pub fn spec() -> Spec {
    let carried = |mode| Bound {
        sel: Sel(mode, "*"),
        lhs: &["peak_carried_runs"],
        op: Op::Le,
        rhs: Rhs::N(|n| n / 2 + 1, "n/2+1"),
        why: "carried-state bound",
    };
    let every = |lhs, op, rhs, why| Bound {
        sel: Sel::ANY,
        lhs,
        op,
        rhs,
        why,
    };
    Spec {
        need: vec![(Sel::ANY, COUNTERS)],
        reference: Vec::new(),
        bounds: vec![
            every(&["elapsed_ns"], Op::Ge, Rhs::Const(1), "empty window"),
            every(
                &["jobs_ok"],
                Op::Ge,
                Rhs::Const(1),
                "no jobs completed inside the window",
            ),
            every(&["failures"], Op::Eq, Rhs::Const(0), "loss-free criterion"),
            Bound {
                sel: Sel("grid", "*"),
                lhs: &["ooc_jobs", "peak_carried_runs"],
                op: Op::Eq,
                rhs: Rhs::Const(0),
                why: "grid entries must carry no stream state",
            },
            Bound {
                sel: Sel("stream", "*"),
                lhs: &["ooc_jobs"],
                op: Op::Eq,
                rhs: Rhs::Const(0),
                why: "in-core stream entries must not route ooc",
            },
            Bound {
                sel: Sel("ooc", "*"),
                lhs: &["ooc_jobs"],
                op: Op::Eq,
                rhs: Rhs::Of("jobs_ok"),
                why: "ooc routing hole",
            },
            carried("stream"),
            carried("ooc"),
        ],
        cover: vec![Cover {
            pairs: MODES
                .iter()
                .flat_map(|&m| CLIENTS.iter().map(move |c| Sel(m, c.1)))
                .collect(),
            min_families: 1,
            min_sides: 1,
            families: &[],
        }],
        ratios: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::table::{rejects_wrong_schema, roundtrips};

    fn fixture() -> Report {
        let mut entries = Vec::new();
        for family in ["random50", "blobs"] {
            for n in [128usize, 256] {
                for conn in [4u32, 8] {
                    for &mode in MODES {
                        for &(clients, config) in CLIENTS {
                            let jobs = 100 * clients as u64;
                            let streaming = mode != "grid";
                            entries.push(
                                Entry::new(family, n, conn, mode, config, WORKERS)
                                    .count(COUNTERS[0], 1_000_000_000)
                                    .count(COUNTERS[1], jobs)
                                    .count(COUNTERS[2], 0)
                                    .count(COUNTERS[3], 3)
                                    .count(COUNTERS[4], 3)
                                    .count(COUNTERS[5], if mode == "ooc" { jobs } else { 0 })
                                    .count(COUNTERS[6], if streaming { n as u64 / 2 } else { 0 }),
                            );
                        }
                    }
                }
            }
        }
        let mut r = Report::new("serve", false, &["random50", "blobs"], &[128, 256], entries);
        r.host_threads = 1;
        r
    }

    /// Sets `counter` on the first entry of `mode`.
    fn set(r: &mut Report, mode: &str, counter: &str, value: impl Fn(&Entry) -> u64) {
        let e = r.entries.iter_mut().find(|e| e.engine == mode).unwrap();
        let v = value(e);
        e.counters.iter_mut().find(|(k, _)| k == counter).unwrap().1 = v;
    }

    #[test]
    fn report_roundtrips_through_validation() {
        roundtrips(fixture());
    }

    #[test]
    fn validation_rejects_wrong_schema() {
        rejects_wrong_schema(fixture());
    }

    crate::record::rows! { fixture();
        validation_enforces_loss_free_service: false, |r| set(r, "grid", "failures", |_| 1)
            => Err("loss-free criterion");
        validation_enforces_full_client_coverage: false, |r| {
            r.entries.retain(|e| !(e.family == "blobs" && e.n == 256 && e.conn == 8 && e.config == "clients=16"));
        } => Err("coverage hole: blobs/256/8-conn lacks grid clients=16");
        validation_enforces_full_mode_coverage: false, |r| {
            r.entries.retain(|e| !(e.family == "blobs" && e.n == 256 && e.conn == 8 && e.engine == "ooc"));
        } => Err("coverage hole: blobs/256/8-conn lacks ooc clients=1");
        validation_enforces_the_carried_state_bound: false, |r| set(r, "ooc", "peak_carried_runs", |e| e.n * e.n)
            => Err("carried-state bound");
        validation_enforces_the_stream_carried_state_bound: false, |r| set(r, "stream", "peak_carried_runs", |e| e.n)
            => Err("carried-state bound");
        validation_enforces_ooc_routing: false, |r| set(r, "ooc", "ooc_jobs", |e| e.counter("jobs_ok").unwrap() - 1)
            => Err("ooc routing hole");
        validation_rejects_ooc_routing_of_stream_jobs: false, |r| set(r, "stream", "ooc_jobs", |_| 1)
            => Err("in-core stream entries must not route ooc");
        validation_rejects_stream_state_on_grid_entries: false, |r| set(r, "grid", "peak_carried_runs", |_| 7)
            => Err("no stream state");
        validation_rejects_idle_windows: false, |r| set(r, "grid", "jobs_ok", |_| 0)
            => Err("no jobs");
        validation_requires_full_scale_when_asked: true, |r| r.scale = "quick".into()
            => Err("full-scale");
        quick_scale_passes_without_require_full: false, |r| r.scale = "quick".into() => Ok(());
    }

    #[test]
    fn quick_sweep_smoke() {
        // One real (tiny) point per mode, end to end: a live server, one
        // client, a short window — loss-free, and the ooc point actually
        // routes out-of-core with bounded carried state.
        for &mode in MODES {
            let e = time_point(
                "random50",
                64,
                Connectivity::Four,
                mode,
                CLIENTS[0],
                Duration::from_millis(50),
            );
            let c = |k| e.counter(k).unwrap();
            assert!(c("jobs_ok") > 0, "{mode}");
            assert_eq!(c("failures"), 0, "{mode}");
            match mode {
                "grid" => assert_eq!(c("peak_carried_runs"), 0),
                "stream" => assert_eq!(c("ooc_jobs"), 0),
                _ => {
                    assert_eq!(c("ooc_jobs"), c("jobs_ok"));
                    assert!(c("peak_carried_runs") <= 64 / 2 + 1);
                }
            }
        }
    }
}
