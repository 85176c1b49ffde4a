//! `slap` — command-line front end for the SLAP reproduction.
//!
//! Every subcommand is one row of [`COMMANDS`], which [`parse`] checks each
//! command line against and `usage` prints. Host-engine dispatch goes through
//! `slap_cc::engine::registry()`: `--engine` names a registered
//! [`EngineKind`], and this binary holds no per-engine code of its own.

use slap_repro::baselines::{divide_conquer_labels, naive_slap_labels};
use slap_repro::cc::engine::{registry, EngineKind};
use slap_repro::cc::features::{euler_number, features_with_engine};
use slap_repro::cc::spacetime::left_pass_trace;
use slap_repro::cc::{label_components_kind, label_components_runs, CcOptions};
use slap_repro::hypercube::sv_labels_conn;
use slap_repro::image::stream::band_rows_for;
use slap_repro::image::{
    gen, pbm, Bitmap, ComponentInfo, Connectivity, LabelGrid, OutOfCoreLabeler, RetiredComponent,
    STREAM_BAND_ROWS,
};
use slap_repro::machine::render_gantt;
use slap_repro::serve::{Client, ClientError, RetryPolicy, ServeConfig, Server};
use slap_repro::unionfind::{TarjanUf, UfKind};
use std::io::{self, Read, Write};
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// `print!` for the subcommands that report on stdout: a closed stdout —
/// the reader left the pipe, as `head` does — ends the process quietly with
/// status 0 instead of a panic (see [`stdout_ok`]).
macro_rules! out {
    ($($arg:tt)*) => {
        stdout_ok(io::stdout().write_fmt(format_args!($($arg)*)))
    };
}

/// `println!` through [`out!`].
macro_rules! outln {
    () => {
        out!("\n")
    };
    ($($arg:tt)*) => {
        out!("{}\n", format_args!($($arg)*))
    };
}

/// Settles a write to stdout: a closed pipe exits quietly with status 0,
/// any other failure is an error. SIGPIPE stays ignored (Rust's default),
/// so `serve` and `client` keep seeing a vanished socket peer as an
/// `EPIPE` error rather than being killed.
fn stdout_ok(written: io::Result<()>) {
    match written {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => die(&format!("write stdout: {e}")),
    }
}

/// One subcommand: its synopsis after `slap ` — the name, then
/// `[--flag VALUE]`, `[--toggle]`, `<required>`, `[optional]` and a
/// trailing `[repeated ...]` — a one-line summary, and the function that
/// runs it.
struct Command {
    synopsis: &'static str,
    about: &'static str,
    run: fn(&Args),
}

/// The subcommands: the one source of both the parser and the usage text.
const COMMANDS: &[Command] = &[
    Command {
        synopsis: "gen <workload> <n> [seed]",
        about: "write a generated image to stdout as plain PBM",
        run: gen_cmd,
    },
    Command {
        synopsis: "label [--uf KIND] [--conn 4|8] [--engine E] [--threads N] [--tiles RxC] \
                   [file.pbm]",
        about: "label a PBM (stdin if no file) by simulated Algorithm CC or host engine E",
        run: label_cmd,
    },
    Command {
        synopsis: "trace [--pass uf|label] [--conn 4|8] <workload> <n> [seed]",
        about: "ASCII space-time diagram of one pass of Algorithm CC",
        run: trace_cmd,
    },
    Command {
        synopsis: "features [--conn 4|8] [--engine E] [--threads N] [--tiles RxC] [file.pbm]",
        about: "per-component geometry, labeled by host engine E (default fast)",
        run: features_cmd,
    },
    Command {
        synopsis: "stream [--conn 4|8] [--framed] [file.pbm]",
        // `cli_smoke` matches "streaming engine" in refusals of this row.
        about: "label a PBM, or --framed P4 frames, in bands through the streaming engine",
        run: stream_cmd,
    },
    Command {
        synopsis: "compare [--uf KIND] [--conn 4|8] <workload> <n> [seed]",
        about: "step counts of Algorithm CC and the baselines, cross-checked",
        run: compare_cmd,
    },
    Command {
        synopsis: "serve [--addr H:P] [--conn 4|8] [--workers N] [--queue-cap N] \
                   [--queue-budget-mb N] [--max-dim N] [--max-pixels N] \
                   [--max-stream-pixels N] [--deadline-ms N] [--io-timeout-ms N]",
        about: "run slapd, the TCP labeling service, until SIGINT/SIGTERM drains it",
        run: serve_cmd,
    },
    Command {
        synopsis: "client [--addr H:P] [--stream] [--attempts N] [--base-delay-ms N] \
                   [file.pbm ...]",
        about: "submit PBM jobs to slapd with retry; --stream: feature records, no grid",
        run: client_cmd,
    },
    Command {
        synopsis: "workloads",
        about: "list the generators, union-find kinds and host engines",
        run: workloads_cmd,
    },
];

impl Command {
    fn name(&self) -> &'static str {
        self.synopsis.split(' ').next().unwrap_or_default()
    }

    /// The bracketed items after the name: flags and positional arguments.
    fn items(&self) -> impl Iterator<Item = &'static str> {
        self.synopsis[self.name().len()..]
            .split_inclusive(['>', ']'])
            .map(str::trim)
    }

    /// `(flag, value placeholder)` of each flag; `""` for a toggle.
    fn flags(&self) -> impl Iterator<Item = (&'static str, &'static str)> {
        self.items()
            .filter_map(|item| item.strip_prefix('[')?.strip_suffix(']'))
            .filter(|flag| flag.starts_with("--"))
            .map(|flag| flag.split_once(' ').unwrap_or((flag, "")))
    }

    fn refuse(&self, what: &str) -> ! {
        let (name, synopsis, about) = (self.name(), self.synopsis, self.about);
        die(&format!("slap {name} {what}: slap {synopsis} ({about})"))
    }
}

/// A command line checked against its [`Command`] row.
struct Args<'a> {
    cmd: &'static Command,
    /// The flags given, with their values (`""` for a toggle).
    flags: Vec<(&'static str, &'a str)>,
    positional: Vec<&'a str>,
}

/// Checks `argv` (without the program name) against [`COMMANDS`]: exactly
/// the row's flags, each at most once, and its positional shape.
fn parse(argv: &[String]) -> Args<'_> {
    let cmd = argv
        .first()
        .and_then(|name| COMMANDS.iter().find(|c| c.name() == name))
        .unwrap_or_else(|| usage());
    let (mut flags, mut positional) = (Vec::new(), Vec::new());
    let mut rest = argv[1..].iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            positional.push(arg.as_str());
            continue;
        }
        let Some((flag, value)) = cmd.flags().find(|(f, _)| f == arg) else {
            cmd.refuse(&format!("does not take {arg}"))
        };
        if flags.iter().any(|&(f, _)| f == flag) {
            cmd.refuse(&format!("takes {flag} once"));
        }
        let value = match value {
            "" => "",
            _ => rest
                .next()
                .unwrap_or_else(|| die(&format!("{flag} needs a value"))),
        };
        flags.push((flag, value));
    }
    let shape: Vec<_> = cmd.items().filter(|i| !i.starts_with("[--")).collect();
    if let Some(missing) = shape.get(positional.len()).filter(|p| p.starts_with('<')) {
        cmd.refuse(&format!("needs {missing}"));
    }
    if positional.len() > shape.len() && !shape.last().is_some_and(|p| p.ends_with("...]")) {
        cmd.refuse(&format!("does not take {:?}", positional[shape.len()]));
    }
    Args {
        cmd,
        flags,
        positional,
    }
}

impl<'a> Args<'a> {
    /// The value of `flag` (`""` for a toggle), if it was given.
    fn get(&self, flag: &str) -> Option<&'a str> {
        debug_assert!(self.cmd.flags().any(|(f, _)| f == flag), "{flag}");
        self.flags.iter().find(|(f, _)| *f == flag).map(|&(_, v)| v)
    }

    /// A flag whose value must be a positive integer.
    fn num<T: FromStr + PartialOrd + From<u8>>(&self, flag: &str) -> Option<T> {
        let v = self.get(flag)?;
        positive(v).or_else(|| die(&format!("{flag} needs a positive integer, got {v:?}")))
    }

    fn conn(&self) -> Connectivity {
        self.get("--conn").map_or(Connectivity::Four, |v| {
            Connectivity::parse(v)
                .unwrap_or_else(|| die(&format!("connectivity must be 4 or 8, got {v:?}")))
        })
    }

    fn uf(&self) -> UfKind {
        self.get("--uf").map_or(UfKind::Tarjan, |v| {
            UfKind::parse(v).unwrap_or_else(|| die(&format!("unknown union-find kind {v:?}")))
        })
    }

    fn cc_options(&self) -> CcOptions {
        CcOptions {
            connectivity: self.conn(),
            ..CcOptions::default()
        }
    }

    /// `<workload> <n> [seed]`: the generator name, the size, the seed (42
    /// when omitted) and the image they make.
    fn workload(&self) -> (&'a str, usize, u64, Bitmap) {
        let p = &self.positional;
        let n = positive(p[1]).unwrap_or_else(|| die("size must be a positive integer"));
        let seed = p.get(2).map_or(42, |s| {
            s.parse()
                .unwrap_or_else(|_| die(&format!("seed must be an unsigned integer, got {s:?}")))
        });
        let name = p[0];
        let img = gen::by_name(name, n, seed)
            .unwrap_or_else(|| die(&format!("unknown workload {name:?}; try `slap workloads`")));
        (name, n, seed, img)
    }

    /// The host engine `--engine` names, shaped by `--tiles`, and its worker
    /// count from `--threads`; `None` without `--engine` (the caller's
    /// default: the SLAP simulation for `label`, the fast engine for
    /// `features`). Multithreaded engines default to the host's available
    /// parallelism; the others refuse `--threads`.
    fn engine(&self) -> Option<(EngineKind, usize)> {
        let mut kind = self.get("--engine").map(|name| {
            EngineKind::parse(name).unwrap_or_else(|| {
                let names = engine_names(", ");
                die(&format!(
                    "unknown engine {name:?}; registered engines: {names}"
                ))
            })
        });
        if let Some(v) = self.get("--tiles") {
            let Some(EngineKind::Tiled { tiles_x, tiles_y }) = &mut kind else {
                die("--tiles shapes --engine tiled")
            };
            (*tiles_y, *tiles_x) = v
                .split_once(['x', 'X'])
                .and_then(|(r, c)| Some((positive(r)?, positive(c)?)))
                .unwrap_or_else(|| die(&format!("--tiles needs RxC (e.g. 2x2), got {v:?}")));
        }
        let multithreaded = kind.map(|k| k.info().multithreaded);
        let threads = match (self.num::<usize>("--threads"), multithreaded) {
            (Some(_), None) => die("--threads sizes an --engine"),
            (Some(_), Some(false)) => die(&format!(
                "--threads sizes a multithreaded --engine, not {}",
                kind.map_or("", EngineKind::name)
            )),
            (Some(t), Some(true)) => t,
            (None, Some(true)) => std::thread::available_parallelism().map_or(1, |p| p.get()),
            (None, _) => 1,
        };
        kind.map(|k| (k, threads))
    }

    /// `[file.pbm]`: the input file, or `None` for stdin.
    fn file(&self) -> Option<&'a str> {
        self.positional.first().copied()
    }
}

fn positive<T: FromStr + PartialOrd + From<u8>>(v: &str) -> Option<T> {
    v.parse::<T>().ok().filter(|n| *n >= T::from(1u8))
}

/// Opens `path`, or stdin, and names it for error messages.
fn open_input(path: Option<&str>) -> (Box<dyn Read>, &str) {
    let Some(path) = path else {
        return (Box::new(io::stdin().lock()), "stdin");
    };
    let f = std::fs::File::open(path).unwrap_or_else(|e| die(&format!("open {path}: {e}")));
    (Box::new(f), path)
}

fn read_image(path: Option<&str>) -> (&str, Bitmap) {
    let (input, what) = open_input(path);
    let img = pbm::read(input).unwrap_or_else(|e| die(&format!("parse {what}: {e}")));
    (what, img)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse(&argv);
    (args.cmd.run)(&args);
}

fn gen_cmd(args: &Args) {
    let img = args.workload().3;
    stdout_ok(pbm::write_plain(&img, io::stdout().lock()));
}

fn label_cmd(args: &Args) {
    let (uf, opts, engine) = (args.uf(), args.cc_options(), args.engine());
    if engine.is_some() && args.get("--uf").is_some() {
        die("--uf picks the simulated union-find; a host --engine does not read it");
    }
    let img = read_image(args.file()).1;
    match engine {
        Some((kind, threads)) => host_report(&img, opts.connectivity, kind, threads),
        None => report(&img, uf, &opts),
    }
}

fn trace_cmd(args: &Args) {
    let (name, n, _, img) = args.workload();
    let tr = left_pass_trace::<TarjanUf>(&img, &args.cc_options());
    let (spans, rep, title) = match args.get("--pass") {
        None | Some("uf") => (&tr.uf_spans, &tr.uf_report, "Union-Find-Pass (Fig. 5)"),
        Some("label") => (&tr.label_spans, &tr.label_report, "Label-Pass (Fig. 6)"),
        Some(v) => die(&format!("--pass must be uf or label, got {v:?}")),
    };
    outln!(
        "{title} on {name} {n}x{n}: makespan {} steps, {} messages",
        rep.makespan,
        rep.messages
    );
    out!("{}", render_gantt(spans, 100));
}

fn features_cmd(args: &Args) {
    // Feature extraction labels with any registered engine (default:
    // fast) — bit-identity makes the choice invisible in the output.
    let (kind, threads) = args.engine().unwrap_or((EngineKind::Fast, 1));
    let mut session = kind.session(threads);
    let conn = args.conn();
    let img = read_image(args.file()).1;
    let mut labels = LabelGrid::new_background(1, 1);
    let run = features_with_engine(&img, conn, session.as_mut(), &mut labels);
    let euler = euler_number(&img, conn);
    outln!(
        "{} component(s), Euler number {} ({} hole(s)), measured in {} SLAP steps",
        run.per_component.len(),
        euler.euler,
        run.per_component.len() as i64 - euler.euler,
        run.metrics.total_steps
    );
    outln!(
        "{:>10} {:>7} {:>12} {:>14} {:>9} {:>8}",
        "label",
        "area",
        "bbox",
        "centroid",
        "perim",
        "extent"
    );
    for (label, f) in &run.per_component {
        let (cr, cc) = f.centroid();
        outln!(
            "{label:>10} {:>7} {:>5}x{:<6} ({cr:6.1},{cc:6.1}) {:>9} {:>8.2}",
            f.area,
            f.height(),
            f.width(),
            f.perimeter,
            f.extent()
        );
    }
}

fn compare_cmd(args: &Args) {
    let (uf, opts) = (args.uf(), args.cc_options());
    let conn = opts.connectivity;
    let (name, n, seed, img) = args.workload();
    let cc = label_components_kind(&img, uf, &opts);
    let runs = label_components_runs::<TarjanUf>(&img, &opts);
    outln!("workload {name} {n}x{n} (seed {seed}), union-find {uf}, {conn}");
    outln!("{:<28} {:>12} {:>10}", "algorithm", "steps", "PEs");
    outln!(
        "{:<28} {:>12} {:>10}",
        "Algorithm CC (pixels)",
        cc.metrics.total_steps,
        n
    );
    outln!(
        "{:<28} {:>12} {:>10}",
        "Algorithm CC (runs)",
        runs.metrics.total_steps,
        n
    );
    if conn == Connectivity::Four {
        let (nl, nr) = naive_slap_labels(&img);
        assert_eq!(nl, cc.labels);
        outln!("{:<28} {:>12} {:>10}", "naive label passing", nr.steps, n);
        let (dl, dr) = divide_conquer_labels(&img);
        assert_eq!(dl, cc.labels);
        outln!(
            "{:<28} {:>12} {:>10}",
            "divide & conquer [2,12]",
            dr.steps,
            n
        );
    }
    let (hl, hr) = sv_labels_conn(&img, conn);
    assert_eq!(hl, cc.labels);
    outln!(
        "{:<28} {:>12} {:>10}",
        "hypercube S-V [5]-style",
        hr.rounds,
        hr.pes
    );
}

fn workloads_cmd(_: &Args) {
    for w in gen::WORKLOADS {
        outln!("{w}");
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
fn serve_cmd(args: &Args) {
    let addr = args.get("--addr").unwrap_or("127.0.0.1:7154");
    let conn = args.conn();
    let mut cfg = ServeConfig {
        conn,
        ..ServeConfig::default()
    };
    cfg.workers = args.num("--workers").unwrap_or(cfg.workers);
    cfg.queue_cap = args.num("--queue-cap").unwrap_or(cfg.queue_cap);
    if let Some(n) = args.num::<usize>("--queue-budget-mb") {
        cfg.queue_budget_bytes = n
            .checked_mul(1 << 20)
            .unwrap_or_else(|| die(&format!("--queue-budget-mb {n} overflows the byte count")));
    }
    cfg.max_dim = args.num("--max-dim").unwrap_or(cfg.max_dim);
    cfg.max_pixels = args.num("--max-pixels").unwrap_or(cfg.max_pixels);
    cfg.max_stream_pixels = args
        .num("--max-stream-pixels")
        .unwrap_or(cfg.max_stream_pixels);
    cfg.deadline = args
        .num("--deadline-ms")
        .map_or(cfg.deadline, Duration::from_millis);
    cfg.io_timeout = args
        .num("--io-timeout-ms")
        .map_or(cfg.io_timeout, Duration::from_millis);
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
        std::thread::sleep(Duration::from_millis(100));
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
fn client_cmd(args: &Args) {
    let addr_str = args.get("--addr").unwrap_or("127.0.0.1:7154");
    let stream_mode = args.get("--stream").is_some();
    let addr = std::net::ToSocketAddrs::to_socket_addrs(addr_str)
        .ok()
        .and_then(|mut a| a.next())
        .unwrap_or_else(|| die(&format!("cannot resolve {addr_str:?}")));
    let mut policy = RetryPolicy::default();
    policy.max_attempts = args.num("--attempts").unwrap_or(policy.max_attempts);
    policy.base_delay = args
        .num("--base-delay-ms")
        .map_or(policy.base_delay, Duration::from_millis);
    let mut client = Client::with_policy(addr, policy);
    let jobs: Vec<(&str, Bitmap)> = match &args.positional[..] {
        [] => vec![read_image(None)],
        paths => paths.iter().map(|&path| read_image(Some(path))).collect(),
    };
    let mut failed = false;
    for (name, img) in &jobs {
        let t0 = std::time::Instant::now();
        let outcome = if stream_mode {
            client.label_stream(img).map(|ok| {
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                outln!(
                    "{name}: {}x{}, {} component(s) streamed, {ms:.3} ms \
                     ({} retry(ies) so far)",
                    ok.rows,
                    ok.cols,
                    ok.components,
                    client.retries(),
                );
                for rec in &ok.records {
                    outln!(
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
                outln!(
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

/// The first two lines of a `label` report: the image, its component
/// count and its largest component.
fn print_components(img: &Bitmap, stats: &[ComponentInfo], conn: Connectivity) {
    outln!(
        "{}x{} image, {:.1}% foreground, {} component(s) under {conn}",
        img.rows(),
        img.cols(),
        100.0 * img.density(),
        stats.len(),
    );
    if let Some(largest) = stats.iter().max_by_key(|s| s.pixels) {
        outln!(
            "largest component: label {} with {} px ({}x{} bbox)",
            largest.label,
            largest.pixels,
            largest.height(),
            largest.width()
        );
    }
}

fn report(img: &Bitmap, uf: UfKind, opts: &CcOptions) {
    let run = label_components_kind(img, uf, opts);
    let stats = run.labels.component_stats();
    let m = &run.metrics;
    print_components(img, &stats, opts.connectivity);
    outln!(
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
/// and reports the components, timing the labeling instead of counting SLAP
/// steps.
fn host_report(img: &Bitmap, conn: Connectivity, kind: EngineKind, threads: usize) {
    let mut session = kind.session(threads);
    let mut labels = LabelGrid::new_background(1, 1);
    let t0 = std::time::Instant::now();
    let engine_stats = session.label_into(img, conn, &mut labels);
    let elapsed = t0.elapsed();
    let t1 = std::time::Instant::now();
    let stats = labels.component_stats();
    let stats_elapsed = t1.elapsed();
    print_components(img, &stats, conn);
    out!(
        "host/{kind}: {} thread(s), {:.3} ms, stats {:.3} ms",
        engine_stats.threads,
        elapsed.as_secs_f64() * 1e3,
        stats_elapsed.as_secs_f64() * 1e3
    );
    if engine_stats.runs > 0 {
        out!(", {} run(s)", engine_stats.runs);
    }
    let tiles = engine_stats.tiles;
    if tiles.total() > 0 {
        out!(
            ", tiles {}bg/{}int/{}bd",
            tiles.background,
            tiles.interior,
            tiles.boundary
        );
    }
    if engine_stats.iterations > 0 {
        out!(
            ", {} iteration(s), {} reduction pass(es)",
            engine_stats.iterations,
            engine_stats.reduction_passes
        );
    }
    outln!();
}

/// `stream --framed`: consumes a length-prefixed multi-image P4 stream
/// ([`pbm::FramedPbmReader`]), relabeling frame after frame through **one**
/// warm band labeler (arenas reused across frames, dimensions free to
/// change) — the video-style continuous-ingest mode. The labeler is rebuilt
/// only when a frame's width changes [`band_rows_for`] (from 2^25 columns on).
fn framed_stream_report(input: Box<dyn Read>, what: &str, conn: Connectivity) {
    let mut frames = pbm::FramedPbmReader::new(input);
    let mut band_rows = STREAM_BAND_ROWS;
    let mut labeler = OutOfCoreLabeler::new(band_rows, 1);
    let mut index = 0u64;
    let t0 = std::time::Instant::now();
    while let Some(mut frame) = frames
        .next_frame()
        .unwrap_or_else(|e| die(&format!("read {what}: {e}")))
    {
        index += 1;
        if band_rows_for(frame.cols()) != band_rows {
            band_rows = band_rows_for(frame.cols());
            labeler = OutOfCoreLabeler::new(band_rows, 1);
        }
        let mut components = 0u64;
        let stats = labeler
            .label_source_with(&mut frame, conn, |_| components += 1)
            .unwrap_or_else(|e| die(&format!("read {what} frame {index}: {e}")));
        outln!(
            "frame {index}: {}x{}, {components} component(s), {} px, peak carried {} run(s)",
            stats.rows,
            stats.cols,
            stats.pixels,
            stats.peak_carried_runs,
        );
    }
    let elapsed = t0.elapsed();
    outln!(
        "{index} frame(s) under {conn} in {:.3} ms (one warm stream session, \
         O(cols + live) carried state)",
        elapsed.as_secs_f64() * 1e3
    );
}

/// `stream` without `--framed`: labels a PBM through the band labeler
/// ([`OutOfCoreLabeler`], [`band_rows_for`] its width rows per band, one
/// tile column). The image is never materialized and retired components go
/// straight from the labeler's sink into a bounded preview, so arbitrarily
/// tall or component-dense files and pipes really do run in
/// `O(band × cols + live components)` memory.
fn stream_cmd(args: &Args) {
    /// Components listed in the report table.
    const LISTED: usize = 32;

    let conn = args.conn();
    let (input, what) = open_input(args.file());
    if args.get("--framed").is_some() {
        return framed_stream_report(input, what, conn);
    }
    let mut reader =
        pbm::PbmRowReader::new(input).unwrap_or_else(|e| die(&format!("parse {what}: {e}")));
    let mut total: u64 = 0;
    // The LISTED smallest records by label order; trimmed whenever the
    // buffer doubles, so memory never scales with the component count.
    let mut preview: Vec<RetiredComponent> = Vec::new();
    let t0 = std::time::Instant::now();
    let s = OutOfCoreLabeler::new(band_rows_for(reader.cols()), 1)
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
    outln!(
        "{}x{} image, {:.1}% foreground, {total} component(s) under {conn}",
        s.rows,
        s.cols,
        100.0 * s.pixels as f64 / (s.rows as f64 * s.cols as f64).max(1.0),
    );
    outln!(
        "stream engine: {} band(s) of {} row(s) x 1 tile column(s); \
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
    outln!(
        "{:>10} {:>7} {:>12} {:>14} {:>9}",
        "label",
        "area",
        "bbox",
        "centroid",
        "perim"
    );
    for rec in &preview {
        let (cr, cc) = rec.centroid();
        outln!(
            "{:>10} {:>7} {:>5}x{:<6} ({cr:6.1},{cc:6.1}) {:>9}",
            rec.label(s.rows as usize),
            rec.area,
            rec.height(),
            rec.width(),
            rec.perimeter,
        );
    }
    if total > preview.len() as u64 {
        outln!("  ... and {} more", total - preview.len() as u64);
    }
}

/// Prints the usage text from [`COMMANDS`], wrapped at 80 columns, and
/// exits 2.
fn usage() -> ! {
    eprintln!("usage:");
    for cmd in COMMANDS {
        let mut line = format!("  slap {}", cmd.name());
        for item in cmd.items() {
            if line.len() + item.len() >= 80 {
                eprintln!("{line}");
                line = " ".repeat(cmd.name().len() + 7);
            }
            line = format!("{line} {item}");
        }
        eprintln!("{line}\n      {}", cmd.about);
    }
    eprintln!(
        "(--engine: one of {}; see `slap workloads`)",
        engine_names("|")
    );
    std::process::exit(2);
}

fn engine_names(sep: &str) -> String {
    let names: Vec<&str> = registry().iter().map(|e| e.kind.name()).collect();
    names.join(sep)
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
