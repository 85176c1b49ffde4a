//! `slap` — command-line front end for the SLAP reproduction.
//!
//! ```text
//! slap gen <workload> <n> [seed]            # write a PBM image to stdout
//! slap label [--uf KIND] [--conn 4|8] [f]   # label a PBM (stdin if omitted)
//!            [--engine E] [--threads N]     #   host engine E from the
//!            [--tiles RxC]                  #   registry (default: the
//!                                           #   simulated SLAP Algorithm CC);
//!                                           #   --tiles shapes (and implies)
//!                                           #   the tiled engine
//! slap label --out-of-core [...]            # another spelling of `slap stream`
//! slap bench [--uf KIND] <workload> <n>     # step-count one workload
//! slap trace [--pass uf|label] <workload> <n> [seed]
//!                                           # ASCII space-time diagram
//! slap features [--conn 4|8] [--engine E]   # per-component geometry via any
//!               [--threads N] [file.pbm]    #   registered engine
//! slap stream [--conn 4|8] [--band-rows N]  # streaming label pass: rows in
//!             [--tiles 1xC] [--framed] [f]  #   band by band, retired
//!                                           #   components out,
//!                                           #   O(band × cols + live)
//!                                           #   memory; --framed:
//!                                           #   length-prefixed multi-image
//!                                           #   P4 ingest
//! slap compare <workload> <n> [seed]        # CC vs baselines step counts
//! slap serve [--addr H:P] [--conn 4|8]      # slapd: fault-tolerant TCP
//!            [--workers N] [--queue-cap N]  #   labeling service; one job
//!            [--queue-budget-mb N]          #   per worker thread, bounded
//!            [--max-dim N] [--max-pixels N] #   queue, deadlines, panic
//!            [--max-stream-pixels N]        #   isolation; frames past
//!            [--deadline-ms N]              #   --max-pixels stream
//!            [--io-timeout-ms N]            #   out-of-core; SIGINT/SIGTERM
//!                                           #   drains and prints stats
//! slap client [--addr H:P] [--attempts N]   # submit PBM jobs to slapd with
//!             [--base-delay-ms N]           #   retry/backoff (stdin if no
//!             [--stream] [f ...]            #   files); --stream: protocol
//!                                           #   v2 feature records, no grid
//! slap workloads                            # list generators + engines
//! ```
//!
//! Host-engine dispatch goes through `slap_cc::engine::registry()`: the
//! `--engine` flag names a registered [`EngineKind`], and this binary holds
//! no per-engine code of its own.

use slap_repro::baselines::{divide_conquer_labels, naive_slap_labels};
use slap_repro::cc::engine::{registry, EngineKind, LabelEngine};
use slap_repro::cc::features::{euler_number, features_with_engine};
use slap_repro::cc::spacetime::left_pass_trace;
use slap_repro::cc::{label_components_kind, label_components_runs, CcOptions};
use slap_repro::hypercube::sv_labels_conn;
use slap_repro::image::{
    gen, pbm, Bitmap, Connectivity, LabelGrid, OutOfCoreLabeler, RetiredComponent, STREAM_BAND_ROWS,
};
use slap_repro::machine::render_gantt;
use slap_repro::serve::{Client, ClientError, RetryPolicy, ServeConfig, Server};
use slap_repro::unionfind::{TarjanUf, UfKind};
use std::io::Read;
use std::sync::atomic::{AtomicBool, Ordering};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut rest: Vec<&str> = args.iter().map(String::as_str).collect();
    if rest.is_empty() {
        usage();
    }
    let cmd = rest.remove(0);
    let uf = take_flag(&mut rest, "--uf")
        .map(|v| UfKind::parse(v).unwrap_or_else(|| die(&format!("unknown union-find kind {v:?}"))))
        .unwrap_or(UfKind::Tarjan);
    let conn = take_flag(&mut rest, "--conn")
        .map(|v| {
            Connectivity::parse(v)
                .unwrap_or_else(|| die(&format!("connectivity must be 4 or 8, got {v:?}")))
        })
        .unwrap_or(Connectivity::Four);
    let pass = take_flag(&mut rest, "--pass").unwrap_or("uf");
    // `--engine KIND` selects a host labeling engine from the registry;
    // `--threads N` sizes the multithreaded ones (and, alone, still implies
    // the strip-parallel engine for back-compatibility).
    let engine = take_flag(&mut rest, "--engine").map(|v| {
        EngineKind::parse(v).unwrap_or_else(|| {
            let names: Vec<&str> = registry().iter().map(|e| e.kind.name()).collect();
            die(&format!(
                "unknown engine {v:?}; registered engines: {}",
                names.join(", ")
            ))
        })
    });
    let threads = take_flag(&mut rest, "--threads").map(|v| {
        v.parse::<usize>()
            .ok()
            .filter(|&t| t >= 1)
            .unwrap_or_else(|| die(&format!("--threads needs a positive integer, got {v:?}")))
    });
    // `--tiles RxC` shapes the tiled engine's grid (R bands of C tile
    // columns) and, alone, implies `--engine tiled`.
    let tiles = take_flag(&mut rest, "--tiles").map(|v| {
        let (r, c) = v
            .split_once(['x', 'X'])
            .and_then(|(r, c)| Some((r.parse::<usize>().ok()?, c.parse::<usize>().ok()?)))
            .filter(|&(r, c)| r >= 1 && c >= 1)
            .unwrap_or_else(|| die(&format!("--tiles needs RxC (e.g. 2x2), got {v:?}")));
        (r, c)
    });
    let engine = match (engine, tiles) {
        (Some(EngineKind::Tiled { .. }) | None, Some((tiles_y, tiles_x))) => {
            Some(EngineKind::Tiled { tiles_x, tiles_y })
        }
        (Some(kind), Some(_)) => die(&format!(
            "--tiles only applies to the tiled engine, not {kind}"
        )),
        (engine, None) => engine,
    };
    let out_of_core = take_toggle(&mut rest, "--out-of-core");
    let band_rows = take_flag(&mut rest, "--band-rows")
        .map(|v| {
            v.parse::<usize>()
                .ok()
                .filter(|&n| n >= 1)
                .unwrap_or_else(|| die(&format!("--band-rows needs a positive integer, got {v:?}")))
        })
        .unwrap_or(STREAM_BAND_ROWS);
    let framed = take_toggle(&mut rest, "--framed");
    let opts = CcOptions {
        connectivity: conn,
        ..CcOptions::default()
    };
    match cmd {
        "gen" => {
            let (name, n, seed) = parse_workload(&rest);
            let img = make_image(name, n, seed);
            pbm::write_plain(&img, std::io::stdout().lock()).expect("write PBM");
        }
        // `label --out-of-core` is another spelling of `stream`: both run the
        // band labeler, which never materializes the frame, so any
        // whole-frame `--engine` would break the O(cols + live) contract this
        // path exists for.
        "stream" | "label" if cmd == "stream" || out_of_core => {
            if let Some(kind) = engine.filter(|_| tiles.is_none()) {
                die(&format!(
                    "slap stream and slap label --out-of-core run the streaming engine; \
                     `--engine {kind}` would need the whole frame in memory \
                     (use `slap label --engine {kind}`)"
                ));
            }
            let tiles_x = match tiles {
                None => 1,
                Some((1, c)) => c,
                Some(_) => die(
                    "--tiles for the streaming engine takes 1xC: each band is one row \
                     of tiles (its height is --band-rows)",
                ),
            };
            if framed {
                framed_stream_report(&rest, conn, band_rows, tiles_x);
            } else {
                stream_report(&rest, conn, band_rows, tiles_x);
            }
        }
        "label" => {
            let img = read_image(&rest);
            match pick_session(engine, threads) {
                Some(session) => host_report(&img, conn, session),
                None => report(&img, uf, &opts),
            }
        }
        "bench" => {
            let (name, n, seed) = parse_workload(&rest);
            let img = make_image(name, n, seed);
            report(&img, uf, &opts);
        }
        "trace" => {
            let (name, n, seed) = parse_workload(&rest);
            let img = make_image(name, n, seed);
            let tr = left_pass_trace::<TarjanUf>(&img, &opts);
            let (spans, rep, title) = match pass {
                "label" => (&tr.label_spans, &tr.label_report, "Label-Pass (Fig. 6)"),
                _ => (&tr.uf_spans, &tr.uf_report, "Union-Find-Pass (Fig. 5)"),
            };
            println!(
                "{title} on {name} {n}x{n}: makespan {} steps, {} messages",
                rep.makespan, rep.messages
            );
            print!("{}", render_gantt(spans, 100));
        }
        "features" => {
            let img = read_image(&rest);
            // Feature extraction labels with any registered engine (default:
            // fast) — bit-identity makes the choice invisible in the output.
            let mut session =
                pick_session(engine, threads).unwrap_or_else(|| EngineKind::Fast.session(1));
            let mut labels = LabelGrid::new_background(1, 1);
            let run = features_with_engine(&img, conn, session.as_mut(), &mut labels);
            let euler = euler_number(&img, conn);
            println!(
                "{} component(s), Euler number {} ({} hole(s)), measured in {} SLAP steps",
                run.per_component.len(),
                euler.euler,
                run.per_component.len() as i64 - euler.euler,
                run.metrics.total_steps
            );
            println!(
                "{:>10} {:>7} {:>12} {:>14} {:>9} {:>8}",
                "label", "area", "bbox", "centroid", "perim", "extent"
            );
            for (label, f) in &run.per_component {
                let (cr, cc) = f.centroid();
                println!(
                    "{label:>10} {:>7} {:>5}x{:<6} ({cr:6.1},{cc:6.1}) {:>9} {:>8.2}",
                    f.area,
                    f.height(),
                    f.width(),
                    f.perimeter,
                    f.extent()
                );
            }
        }
        "compare" => {
            let (name, n, seed) = parse_workload(&rest);
            let img = make_image(name, n, seed);
            let cc = label_components_kind(&img, uf, &opts);
            let runs = label_components_runs::<TarjanUf>(&img, &opts);
            println!("workload {name} {n}x{n} (seed {seed}), union-find {uf}, {conn}");
            println!("{:<28} {:>12} {:>10}", "algorithm", "steps", "PEs");
            println!(
                "{:<28} {:>12} {:>10}",
                "Algorithm CC (pixels)", cc.metrics.total_steps, n
            );
            println!(
                "{:<28} {:>12} {:>10}",
                "Algorithm CC (runs)", runs.metrics.total_steps, n
            );
            if conn == Connectivity::Four {
                let (nl, nr) = naive_slap_labels(&img);
                assert_eq!(nl, cc.labels);
                println!("{:<28} {:>12} {:>10}", "naive label passing", nr.steps, n);
                let (dl, dr) = divide_conquer_labels(&img);
                assert_eq!(dl, cc.labels);
                println!(
                    "{:<28} {:>12} {:>10}",
                    "divide & conquer [2,12]", dr.steps, n
                );
            }
            let (hl, hr) = sv_labels_conn(&img, conn);
            assert_eq!(hl, cc.labels);
            println!(
                "{:<28} {:>12} {:>10}",
                "hypercube S-V [5]-style", hr.rounds, hr.pes
            );
        }
        "serve" => {
            if threads.is_some() {
                die(
                    "slap serve does not take --threads: each worker labels one job at a \
                     time on its own thread; size the pool with --workers N",
                );
            }
            serve_cmd(&mut rest, conn)
        }
        "client" => client_cmd(&mut rest),
        "workloads" => {
            for w in gen::WORKLOADS {
                println!("{w}");
            }
            eprintln!("\nunion-find kinds for --uf:");
            for k in UfKind::ALL {
                eprintln!("  {k}");
            }
            eprintln!("\nhost engines for --engine:");
            for info in registry() {
                eprintln!("  {:<9} {}", info.kind.name(), info.description);
            }
        }
        _ => usage(),
    }
}

/// Parses a required-positive-integer flag value.
fn take_num<T: std::str::FromStr + PartialOrd + From<u8>>(
    rest: &mut Vec<&str>,
    flag: &str,
) -> Option<T> {
    take_flag(rest, flag).map(|v| {
        v.parse::<T>()
            .ok()
            .filter(|n| *n >= T::from(1u8))
            .unwrap_or_else(|| die(&format!("{flag} needs a positive integer, got {v:?}")))
    })
}

/// Arms SIGINT/SIGTERM to request a graceful drain. Returns the flag the
/// serve loop polls. Uses the raw C `signal(2)` entry point (libc is
/// always linked by std on this target) so the binary stays free of
/// external crates.
fn arm_drain_signals() -> &'static AtomicBool {
    static DRAIN: AtomicBool = AtomicBool::new(false);
    extern "C" fn on_signal(_sig: i32) {
        DRAIN.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> isize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
    &DRAIN
}

/// `slap serve`: runs slapd until SIGINT/SIGTERM, then drains gracefully
/// (stop accepting, finish in-flight jobs) and prints the final stats.
fn serve_cmd(rest: &mut Vec<&str>, conn: Connectivity) {
    let addr = take_flag(rest, "--addr").unwrap_or("127.0.0.1:7154");
    let mut cfg = ServeConfig {
        conn,
        ..ServeConfig::default()
    };
    if let Some(n) = take_num::<usize>(rest, "--workers") {
        cfg.workers = n;
    }
    if let Some(n) = take_num::<usize>(rest, "--queue-cap") {
        cfg.queue_cap = n;
    }
    if let Some(n) = take_num::<usize>(rest, "--queue-budget-mb") {
        cfg.queue_budget_bytes = n
            .checked_mul(1 << 20)
            .unwrap_or_else(|| die(&format!("--queue-budget-mb {n} overflows the byte count")));
    }
    if let Some(n) = take_num::<usize>(rest, "--max-dim") {
        cfg.max_dim = n;
    }
    if let Some(n) = take_num::<u64>(rest, "--max-pixels") {
        cfg.max_pixels = n;
    }
    if let Some(n) = take_num::<u64>(rest, "--max-stream-pixels") {
        cfg.max_stream_pixels = n;
    }
    if let Some(ms) = take_num::<u64>(rest, "--deadline-ms") {
        cfg.deadline = std::time::Duration::from_millis(ms);
    }
    if let Some(ms) = take_num::<u64>(rest, "--io-timeout-ms") {
        cfg.io_timeout = std::time::Duration::from_millis(ms);
    }
    if !rest.is_empty() {
        die(&format!(
            "serve does not take positional arguments: {rest:?}"
        ));
    }
    let drain = arm_drain_signals();
    let server =
        Server::bind(addr, cfg.clone()).unwrap_or_else(|e| die(&format!("bind {addr}: {e}")));
    eprintln!(
        "slapd listening on {} ({} worker(s), queue {} job(s) / {} MiB, \
         deadline {} ms, {conn}); SIGINT/SIGTERM drains",
        server.local_addr(),
        cfg.workers,
        cfg.queue_cap,
        cfg.queue_budget_bytes >> 20,
        cfg.deadline.as_millis(),
    );
    while !drain.load(Ordering::SeqCst) {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    eprintln!("slapd draining: no new connections, finishing in-flight jobs...");
    let stats = server.shutdown();
    eprintln!(
        "slapd drained. {} connection(s), {} job(s) ok ({} streamed, {} \
         out-of-core, peak {} carried run(s)), {} rejection(s) \
         [bad-frame {}, too-large {}, overflow {}, queue-full {}, deadline {}, \
         panic {}, shutdown {}], {} io error(s), {} session rebuild(s), \
         peak queue {} job(s) / {} byte(s)",
        stats.connections,
        stats.jobs_ok,
        stats.jobs_streamed,
        stats.jobs_ooc,
        stats.peak_carried_runs,
        stats.rejected(),
        stats.bad_frame,
        stats.too_large,
        stats.overflow,
        stats.queue_full,
        stats.deadline_expired,
        stats.panics,
        stats.shutdown_rejects,
        stats.io_errors,
        stats.sessions_rebuilt,
        stats.peak_queue_depth,
        stats.peak_queue_bytes,
    );
}

/// `slap client`: submits each PBM (stdin when no files are given) to a
/// running slapd with retry/backoff, printing one summary line per job.
/// With `--stream` the job is submitted in protocol-v2 stream mode and
/// the per-component feature records are summarized instead of the grid.
fn client_cmd(rest: &mut Vec<&str>) {
    let addr_str = take_flag(rest, "--addr").unwrap_or("127.0.0.1:7154");
    let stream_mode = take_toggle(rest, "--stream");
    let addr = std::net::ToSocketAddrs::to_socket_addrs(addr_str)
        .ok()
        .and_then(|mut a| a.next())
        .unwrap_or_else(|| die(&format!("cannot resolve {addr_str:?}")));
    let mut policy = RetryPolicy::default();
    if let Some(n) = take_num::<u32>(rest, "--attempts") {
        policy.max_attempts = n;
    }
    if let Some(ms) = take_num::<u64>(rest, "--base-delay-ms") {
        policy.base_delay = std::time::Duration::from_millis(ms);
    }
    let mut client = Client::with_policy(addr, policy);
    let jobs: Vec<(String, Bitmap)> = if rest.is_empty() {
        let mut buf = Vec::new();
        std::io::stdin().read_to_end(&mut buf).expect("read stdin");
        let img = pbm::read(&buf[..]).unwrap_or_else(|e| die(&format!("parse stdin: {e}")));
        vec![("stdin".to_string(), img)]
    } else {
        rest.iter()
            .map(|path| {
                let f =
                    std::fs::File::open(path).unwrap_or_else(|e| die(&format!("open {path}: {e}")));
                let img = pbm::read(f).unwrap_or_else(|e| die(&format!("parse {path}: {e}")));
                (path.to_string(), img)
            })
            .collect()
    };
    let mut failed = false;
    for (name, img) in &jobs {
        let t0 = std::time::Instant::now();
        let outcome = if stream_mode {
            client.label_stream(img).map(|ok| {
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                println!(
                    "{name}: {}x{}, {} component(s) streamed, {ms:.3} ms \
                     ({} retry(ies) so far)",
                    ok.rows,
                    ok.cols,
                    ok.components,
                    client.retries(),
                );
                for rec in &ok.records {
                    println!(
                        "  label {}: area {}, bbox [{}..{}]x[{}..{}], \
                         perimeter {}",
                        rec.label(ok.rows),
                        rec.area,
                        rec.min_row,
                        rec.max_row,
                        rec.min_col,
                        rec.max_col,
                        rec.perimeter,
                    );
                }
            })
        } else {
            client.label(img).map(|ok| {
                println!(
                    "{name}: {}x{}, {} component(s), {:.3} ms ({} retry(ies) so far)",
                    ok.rows,
                    ok.cols,
                    ok.components,
                    t0.elapsed().as_secs_f64() * 1e3,
                    client.retries(),
                )
            })
        };
        match outcome {
            Ok(()) => {}
            Err(ClientError::Rejected { code, detail }) => {
                eprintln!("{name}: rejected ({code}): {detail}");
                failed = true;
            }
            Err(e) => {
                eprintln!("{name}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

fn take_flag<'a>(rest: &mut Vec<&'a str>, flag: &str) -> Option<&'a str> {
    let pos = rest.iter().position(|a| *a == flag)?;
    if pos + 1 >= rest.len() {
        die(&format!("{flag} needs a value"));
    }
    let v = rest[pos + 1];
    rest.drain(pos..=pos + 1);
    Some(v)
}

/// Removes a value-less toggle flag, reporting whether it was present.
fn take_toggle(rest: &mut Vec<&str>, flag: &str) -> bool {
    match rest.iter().position(|a| *a == flag) {
        Some(pos) => {
            rest.remove(pos);
            true
        }
        None => false,
    }
}

/// Resolves the host-engine session requested by `--engine` / `--threads`:
/// an explicit `--engine` wins, a bare `--threads N` keeps selecting the
/// strip-parallel engine (the pre-registry spelling), and `None` means the
/// caller's default (the SLAP simulation for `label`, the fast engine for
/// `features`). Multithreaded engines default to the host's available
/// parallelism when `--threads` is omitted.
fn pick_session(
    engine: Option<EngineKind>,
    threads: Option<usize>,
) -> Option<Box<dyn LabelEngine>> {
    let kind = engine.or(threads.map(|_| EngineKind::Parallel))?;
    let threads = threads.unwrap_or_else(|| {
        if kind.info().multithreaded {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        } else {
            1
        }
    });
    Some(kind.session(threads))
}

/// Opens the file named by the first positional argument, or stdin, and
/// names it for error messages.
fn open_input<'a>(rest: &[&'a str]) -> (Box<dyn Read>, &'a str) {
    match rest.first() {
        Some(&path) => {
            let f = std::fs::File::open(path).unwrap_or_else(|e| die(&format!("open {path}: {e}")));
            (Box::new(f), path)
        }
        None => (Box::new(std::io::stdin().lock()), "stdin"),
    }
}

fn read_image(rest: &[&str]) -> Bitmap {
    let (input, what) = open_input(rest);
    pbm::read(input).unwrap_or_else(|e| die(&format!("parse {what}: {e}")))
}

fn parse_workload<'a>(rest: &[&'a str]) -> (&'a str, usize, u64) {
    let name = rest.first().copied().unwrap_or_else(|| usage());
    let n: usize = rest
        .get(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| die("size must be a positive integer"));
    let seed: u64 = rest.get(2).and_then(|s| s.parse().ok()).unwrap_or(42);
    (name, n, seed)
}

fn make_image(name: &str, n: usize, seed: u64) -> Bitmap {
    gen::by_name(name, n, seed)
        .unwrap_or_else(|| die(&format!("unknown workload {name:?}; try `slap workloads`")))
}

fn report(img: &Bitmap, uf: UfKind, opts: &CcOptions) {
    let run = label_components_kind(img, uf, opts);
    let stats = run.labels.component_stats();
    let m = &run.metrics;
    println!(
        "{}x{} image, {:.1}% foreground, {} component(s) under {}",
        img.rows(),
        img.cols(),
        100.0 * img.density(),
        stats.len(),
        opts.connectivity,
    );
    if let Some(largest) = stats.iter().max_by_key(|s| s.pixels) {
        println!(
            "largest component: label {} with {} px ({}x{} bbox)",
            largest.label,
            largest.pixels,
            largest.height(),
            largest.width()
        );
    }
    println!(
        "SLAP/{uf}: {} steps on {} PEs ({:.1} steps/column); \
         messages: {} union-find + {} label",
        m.total_steps,
        img.cols(),
        m.total_steps as f64 / img.cols() as f64,
        m.left.uf_pass.messages + m.right.uf_pass.messages,
        m.left.label_pass.messages + m.right.label_pass.messages,
    );
}

/// `label --engine E [--threads N]`: labels with a registered host engine
/// session and reports the components, timing the labeling instead of
/// counting SLAP steps.
fn host_report(img: &Bitmap, conn: Connectivity, mut session: Box<dyn LabelEngine>) {
    let mut labels = LabelGrid::new_background(1, 1);
    let t0 = std::time::Instant::now();
    let engine_stats = session.label_into(img, conn, &mut labels);
    let elapsed = t0.elapsed();
    let t1 = std::time::Instant::now();
    let stats = labels.component_stats();
    let stats_elapsed = t1.elapsed();
    println!(
        "{}x{} image, {:.1}% foreground, {} component(s) under {}",
        img.rows(),
        img.cols(),
        100.0 * img.density(),
        stats.len(),
        conn,
    );
    if let Some(largest) = stats.iter().max_by_key(|s| s.pixels) {
        println!(
            "largest component: label {} with {} px ({}x{} bbox)",
            largest.label,
            largest.pixels,
            largest.height(),
            largest.width()
        );
    }
    print!(
        "host/{}: {} thread(s), {:.3} ms, stats {:.3} ms",
        session.kind(),
        engine_stats.threads,
        elapsed.as_secs_f64() * 1e3,
        stats_elapsed.as_secs_f64() * 1e3
    );
    if engine_stats.runs > 0 {
        print!(", {} run(s)", engine_stats.runs);
    }
    let tiles = engine_stats.tiles;
    if tiles.total() > 0 {
        print!(
            ", tiles {}bg/{}int/{}bd",
            tiles.background, tiles.interior, tiles.boundary
        );
    }
    if engine_stats.iterations > 0 {
        print!(
            ", {} iteration(s), {} reduction pass(es)",
            engine_stats.iterations, engine_stats.reduction_passes
        );
    }
    println!();
}

/// `stream --framed`: consumes a length-prefixed multi-image P4 stream
/// ([`pbm::FramedPbmReader`]), relabeling frame after frame through **one**
/// warm band labeler (arenas reused across frames, dimensions free to
/// change) — the video-style continuous-ingest mode.
fn framed_stream_report(rest: &[&str], conn: Connectivity, band_rows: usize, tiles_x: usize) {
    let (input, what) = open_input(rest);
    let mut frames = pbm::FramedPbmReader::new(input);
    let mut labeler = OutOfCoreLabeler::new(band_rows, tiles_x);
    let mut index = 0u64;
    let t0 = std::time::Instant::now();
    loop {
        let mut frame = match frames.next_frame() {
            Ok(Some(frame)) => frame,
            Ok(None) => break,
            Err(e) => die(&format!("read {what}: {e}")),
        };
        index += 1;
        let mut components = 0u64;
        let stats = labeler
            .label_source_with(&mut frame, conn, |_| components += 1)
            .unwrap_or_else(|e| die(&format!("read {what} frame {index}: {e}")));
        println!(
            "frame {index}: {}x{}, {components} component(s), {} px, peak carried {} run(s)",
            stats.rows, stats.cols, stats.pixels, stats.peak_carried_runs,
        );
    }
    let elapsed = t0.elapsed();
    println!(
        "{index} frame(s) under {conn} in {:.3} ms (one warm stream session, \
         O(cols + live) carried state)",
        elapsed.as_secs_f64() * 1e3
    );
}

/// `stream` / `label --out-of-core`: labels a PBM through the band labeler
/// ([`OutOfCoreLabeler`], `band_rows` rows per band, `tiles_x` tile
/// columns). The image is never materialized and retired components go
/// straight from the labeler's sink into a bounded preview, so arbitrarily
/// tall or component-dense files and pipes really do run in
/// `O(band × cols + live components)` memory.
fn stream_report(rest: &[&str], conn: Connectivity, band_rows: usize, tiles_x: usize) {
    /// Components listed in the report table.
    const LISTED: usize = 32;

    let (input, what) = open_input(rest);
    let mut reader =
        pbm::PbmRowReader::new(input).unwrap_or_else(|e| die(&format!("parse {what}: {e}")));
    let mut total: u64 = 0;
    // The LISTED smallest records by label order; trimmed whenever the
    // buffer doubles, so memory never scales with the component count.
    let mut preview: Vec<RetiredComponent> = Vec::new();
    let t0 = std::time::Instant::now();
    let s = OutOfCoreLabeler::new(band_rows, tiles_x)
        .label_source_with(&mut reader, conn, |rec| {
            total += 1;
            preview.push(rec);
            if preview.len() > 2 * LISTED {
                preview.sort_unstable();
                preview.truncate(LISTED);
            }
        })
        .unwrap_or_else(|e| die(&format!("read {what}: {e}")));
    let elapsed = t0.elapsed();
    println!(
        "{}x{} image, {:.1}% foreground, {total} component(s) under {conn}",
        s.rows,
        s.cols,
        100.0 * s.pixels as f64 / (s.rows as f64 * s.cols as f64).max(1.0),
    );
    println!(
        "stream engine: {} band(s) of {} row(s) x {tiles_x} tile column(s); \
         peak frontier {} run(s), peak carried {} run(s), {} live slot(s), \
         {} band run(s); {} rows in {:.3} ms ({:.0} rows/s)",
        s.bands,
        s.band_rows,
        s.peak_frontier_runs,
        s.peak_carried_runs,
        s.peak_live_slots,
        s.peak_band_runs,
        s.rows,
        elapsed.as_secs_f64() * 1e3,
        s.rows as f64 / elapsed.as_secs_f64().max(1e-9),
    );
    preview.sort_unstable();
    preview.truncate(LISTED);
    println!(
        "{:>10} {:>7} {:>12} {:>14} {:>9}",
        "label", "area", "bbox", "centroid", "perim"
    );
    for rec in &preview {
        let (cr, cc) = rec.centroid();
        println!(
            "{:>10} {:>7} {:>5}x{:<6} ({cr:6.1},{cc:6.1}) {:>9}",
            rec.label(s.rows as usize),
            rec.area,
            rec.height(),
            rec.width(),
            rec.perimeter,
        );
    }
    if total > preview.len() as u64 {
        println!("  ... and {} more", total - preview.len() as u64);
    }
}

fn usage() -> ! {
    let engines: Vec<&str> = registry().iter().map(|e| e.kind.name()).collect();
    eprintln!(
        "usage:\n  slap gen <workload> <n> [seed]\n  \
         slap label [--uf KIND] [--conn 4|8] [--engine E] [--threads N] [--tiles RxC] [file.pbm]\n  \
         slap label --out-of-core [--band-rows N] [--tiles 1xC] [--conn 4|8] [file.pbm]\n  \
         slap bench [--uf KIND] [--conn 4|8] <workload> <n> [seed]\n  \
         slap trace [--pass uf|label] <workload> <n> [seed]\n  \
         slap features [--conn 4|8] [--engine E] [--threads N] [file.pbm]\n  \
         slap stream [--conn 4|8] [--band-rows N] [--tiles 1xC] [--framed] [file.pbm]\n  \
         slap compare [--uf KIND] [--conn 4|8] <workload> <n> [seed]\n  \
         slap serve [--addr H:P] [--conn 4|8] [--workers N] [--queue-cap N] [--queue-budget-mb N]\n             \
         [--max-dim N] [--max-pixels N] [--max-stream-pixels N]\n             \
         [--deadline-ms N] [--io-timeout-ms N]\n  \
         slap client [--addr H:P] [--stream] [--attempts N] [--base-delay-ms N] [file.pbm ...]\n  \
         slap workloads\n\
         (--engine: one of {}; see `slap workloads`)",
        engines.join("|")
    );
    std::process::exit(2);
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
