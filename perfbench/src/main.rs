//! `perfbench`: end-to-end and per-layer benchmark of frame labeling and
//! `slapd` latency.
//!
//! ```text
//! perfbench --workload <random50|blobs> [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --print-fingerprints
//! ```
//!
//! A run sets up its inputs and sessions, spends its time budget on the
//! frame phase ([`frames`]) and the serve phase ([`serve`]), and then sets
//! up again until it has timed [`SETUP_REPEATS`] set-ups. Every output is
//! checked ([`gate`]). The last line of stdout is one JSON object:
//! `correct`, `attempted`, `failed`, and the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics of the traced run (`--trace 1`),
//! which also writes its spans to `.bench_trace/<workload>-seed<N>.jsonl`.

mod calib;
mod frames;
mod gate;
mod json;
mod serve;
mod stats;
mod trace;
mod workload;

use calib::Calib;
use frames::{Counters, Rig};
use gate::Ledger;
use stats::{median, min_samples_for, percentile};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{Fingerprint, Inputs, Workload, DEFAULT_SEED, WORKLOADS};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Samples per serve mode the traced run collects for its medians.
const TRACED_MIN_SAMPLES: usize = 20;
/// Windows the untraced serve phase is split into.
const SERVE_WINDOWS: usize = 16;
/// Calibration kernel calls before and after each set-up.
const SETUP_CALIB_BURST: usize = 25;
/// Calibration kernel calls before each serve window.
const WINDOW_CALIB_BURST: usize = 10;

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("label4_ms", "ms"),
    ("label8_ms", "ms"),
    ("par4_ms", "ms"),
    ("par8_ms", "ms"),
    ("stream4_ms", "ms"),
    ("ooc4_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("grid_p50_ms", "ms"),
    ("grid_p95_ms", "ms"),
    ("stream_p50_ms", "ms"),
    ("stream_p95_ms", "ms"),
    ("ooc_p50_ms", "ms"),
    ("ooc_p95_ms", "ms"),
];

/// Frame-phase metrics (each the median of its per-frame samples) and
/// their tracing overheads.
const FRAME_METRICS: [(&str, &str); 6] = [
    ("label4_ms", "overhead.label4_ms"),
    ("label8_ms", "overhead.label8_ms"),
    ("par4_ms", "overhead.par4_ms"),
    ("par8_ms", "overhead.par8_ms"),
    ("stream4_ms", "overhead.stream4_ms"),
    ("ooc4_ms", "overhead.ooc4_ms"),
];

/// Serve modes with their p50, p95 and p50-overhead metrics.
const SERVE_MODES: [(&str, &str, &str, &str); 3] = [
    ("grid", "grid_p50_ms", "grid_p95_ms", "overhead.grid_p50_ms"),
    (
        "stream",
        "stream_p50_ms",
        "stream_p95_ms",
        "overhead.stream_p50_ms",
    ),
    ("ooc", "ooc_p50_ms", "ooc_p95_ms", "overhead.ooc_p50_ms"),
];

/// Per-layer metrics, printed with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("pbm.read_ms", "ms"),
    ("pbm.rows_ms", "ms"),
    ("fast.build4_ms", "ms"),
    ("fast.build8_ms", "ms"),
    ("fast.resolve4_ms", "ms"),
    ("fast.resolve8_ms", "ms"),
    ("labels.stats_ms", "ms"),
    ("fast.runs", "count"),
    ("fast.components", "count"),
    ("fast.tiles_boundary", "count"),
    ("fast.tiles_interior", "count"),
    ("fast.tiles_background", "count"),
    ("tiled.label4_ms", "ms"),
    ("tiled.label8_ms", "ms"),
    ("tiled.seam_unions", "count"),
    ("stream.label4_ms", "ms"),
    ("stream.peak_frontier_runs", "count"),
    ("ooc.label4_ms", "ms"),
    ("ooc.bands", "count"),
    ("ooc.peak_carried_runs", "count"),
    ("engine.scratch_bytes", "bytes"),
    ("pbm.write_framed_ms", "ms"),
    ("server.grid_compute_ms", "ms"),
    ("protocol.write_ok_ms", "ms"),
    ("protocol.read_response_ms", "ms"),
    ("server.stream_compute_ms", "ms"),
    ("protocol.write_stream_ms", "ms"),
    ("protocol.read_stream_ms", "ms"),
    ("protocol.stream_records", "count"),
    ("server.ooc_compute_ms", "ms"),
    ("grid.residual_ms", "ms"),
    ("stream.residual_ms", "ms"),
    ("ooc.residual_ms", "ms"),
    ("server.peak_queue_depth", "count"),
    ("server.peak_queue_bytes", "bytes"),
    ("server.rejected", "count"),
    ("client.retries", "count"),
    ("error_frac", "frac"),
    ("host.calib_ms", "ms"),
    ("overhead.label4_ms", "ms"),
    ("overhead.label8_ms", "ms"),
    ("overhead.par4_ms", "ms"),
    ("overhead.par8_ms", "ms"),
    ("overhead.stream4_ms", "ms"),
    ("overhead.ooc4_ms", "ms"),
    ("overhead.grid_p50_ms", "ms"),
    ("overhead.stream_p50_ms", "ms"),
    ("overhead.ooc_p50_ms", "ms"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, 10.0, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(workload::find(name).ok_or_else(|| format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or("--seconds takes a positive number")?
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let workload =
        workload.ok_or_else(|| format!("--workload is required (one of {})", names.join(", ")))?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One set-up: inputs, warm sessions, expected counts, a bound and warm
/// server.
struct State {
    inputs: Inputs,
    /// Every input's exact counts: what each output is checked against.
    expect: Fingerprint,
    rig: Rig,
    server: slap_serve::Server,
}

fn set_up(w: Workload, seed: u64, ledger: &mut Ledger) -> State {
    let inputs = workload::generate(w, seed);
    let mut rig = Rig::new();
    let expect = Fingerprint {
        frames: rig.gate(&inputs, ledger),
        grid: serve::component_counts(&inputs.grid),
        stream: serve::component_counts(&inputs.stream),
        ooc: serve::component_counts(&inputs.ooc),
    };
    let server = serve::bind().expect("bind a loopback server");
    serve::warm(server.local_addr(), &inputs, &expect, ledger);
    State {
        inputs,
        expect,
        rig,
        server,
    }
}

impl State {
    /// Replaces the server with a freshly bound and warmed one.
    fn rebind(&mut self, ledger: &mut Ledger) {
        let old = std::mem::replace(
            &mut self.server,
            serve::bind().expect("bind a loopback server"),
        );
        old.shutdown();
        serve::warm(self.server.local_addr(), &self.inputs, &self.expect, ledger);
    }
}

/// `nproc`, CPU model and the instruction-set extensions the engines
/// multiversion on.
fn host_stamp() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
            .unwrap_or_default()
    };
    let flags = field("flags");
    let has = |f: &str| flags.split_whitespace().any(|x| x == f);
    format!(
        "{{\"nproc\": {}, \"cpu\": \"{}\", \"avx2\": {}, \"bmi2\": {}}}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        field("model name").replace(['"', '\\'], ""),
        has("avx2"),
        has("bmi2"),
    )
}

/// Sets up once, appending the time (scaled to the reference host speed)
/// to `times`.
fn timed_set_up(
    args: &Args,
    calib: &mut Calib,
    ledger: &mut Ledger,
    times: &mut Vec<f64>,
) -> State {
    calib.take();
    calib.burst(SETUP_CALIB_BURST);
    let t0 = Instant::now();
    let st = set_up(args.workload, args.seed, ledger);
    let secs = t0.elapsed().as_secs_f64();
    calib.burst(SETUP_CALIB_BURST);
    times.push(secs * calib.take());
    st
}

/// The process's resident-set high-water mark (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

type Metrics = BTreeMap<&'static str, f64>;

fn med(v: &[f64]) -> f64 {
    median(v).unwrap_or(f64::NAN)
}

/// The untraced run: frame phase, then serve phase, half the budget each.
/// Frame times are scaled to the reference host speed next to each call.
/// The serve phase runs in [`SERVE_WINDOWS`] windows, each against a
/// freshly bound and warmed server, because a server's throughput varies
/// by ±8% from one instance to the next (thread placement on 2 CPUs). The
/// kernel cannot run beside the load without slowing it, and a few calls
/// between windows are too noisy to scale a window by, so serve times are
/// scaled by the median kernel time of the whole run: the host's speed
/// changes over minutes, and a run lasts under one.
fn measure(st: &mut State, seconds: f64, calib: &mut Calib, ledger: &mut Ledger, m: &mut Metrics) {
    let half = Duration::from_secs_f64(seconds / 2.0);
    let mut t = Tracer::new(false, Instant::now());
    let samples = st.rig.phase(
        &st.inputs,
        &st.expect.frames,
        half,
        &mut t,
        calib,
        ledger,
        &mut Counters::default(),
    );
    for (name, _) in FRAME_METRICS {
        m.insert(name, med(&samples[name]));
    }
    let min = min_samples_for(0.95);
    let mut lat: [Vec<f64>; 3] = Default::default();
    let (mut jobs, mut secs) = (0, 0.0);
    for w in 0..SERVE_WINDOWS {
        if w > 0 {
            st.rebind(ledger);
        }
        calib.burst(WINDOW_CALIB_BURST);
        let load = serve::drive(
            st.server.local_addr(),
            &st.inputs,
            &st.expect,
            half / SERVE_WINDOWS as u32,
            min.div_ceil(SERVE_WINDOWS),
            &mut t,
        );
        for (all, window) in lat.iter_mut().zip(load.latencies()) {
            all.extend_from_slice(window);
        }
        jobs += load.jobs_ok;
        secs += load.elapsed_s;
        ledger.merge(load.ledger);
    }
    eprintln!("perfbench: median kernel time {:.4} ms", calib.median_ms());
    let f = calib.take();
    m.insert("jobs_per_s", jobs as f64 / secs / f);
    for ((mode, p50, p95, _), lat) in SERVE_MODES.into_iter().zip(&lat) {
        m.insert(p50, med(lat) * f);
        let tail = percentile(lat, 0.95).unwrap_or_else(|| {
            ledger.fail(
                mode,
                &format!("{} samples cannot support a p95 (need {min})", lat.len()),
            );
            f64::NAN
        });
        m.insert(p95, tail * f);
    }
}

/// The traced run: each phase once untraced and once traced, then the
/// serve replay, a fifth of the budget each. Frame-layer times are scaled
/// like the frame metrics; serve-layer times are as measured. Returns the
/// spans.
fn measure_traced(
    st: &mut State,
    seconds: f64,
    calib: &mut Calib,
    ledger: &mut Ledger,
    m: &mut Metrics,
) -> Tracer {
    let fifth = Duration::from_secs_f64(seconds / 5.0);
    let epoch = Instant::now();
    let mut counters = Counters::default();
    let mut off = Tracer::new(false, epoch);
    let mut t = Tracer::new(true, epoch);
    let addr = st.server.local_addr();

    let base = st.rig.phase(
        &st.inputs,
        &st.expect.frames,
        fifth,
        &mut off,
        calib,
        ledger,
        &mut counters,
    );
    calib.take();
    let traced = st.rig.phase(
        &st.inputs,
        &st.expect.frames,
        fifth,
        &mut t,
        calib,
        ledger,
        &mut counters,
    );
    m.insert("host.calib_ms", calib.median_ms());
    let f_frames = calib.take();
    for (name, overhead) in FRAME_METRICS {
        m.insert(overhead, med(&traced[name]) - med(&base[name]));
    }

    let base = serve::drive(
        addr,
        &st.inputs,
        &st.expect,
        fifth,
        TRACED_MIN_SAMPLES,
        &mut off,
    );
    let load = serve::drive(
        addr,
        &st.inputs,
        &st.expect,
        fifth,
        TRACED_MIN_SAMPLES,
        &mut t,
    );
    serve::replay(&st.inputs, &st.expect, fifth, &mut t, ledger, &mut counters);
    for ((_, _, _, overhead), (b, l)) in SERVE_MODES
        .into_iter()
        .zip(base.latencies().into_iter().zip(load.latencies()))
    {
        m.insert(overhead, med(l) - med(b));
    }

    let d = |name: &str, parent: Option<&str>| med(&t.durations_ms(name, parent));
    let frame = |name: &str| d(name, None) * f_frames;
    let serve = |name: &str| d(name, None);
    let residual =
        |mode: &str| d(&format!("client.{mode}"), None) - d(&format!("replay.{mode}"), None);
    let (build4, build8) = (frame("fast.build4"), frame("fast.build8"));
    let stats = st.server.stats();
    m.extend([
        ("pbm.read_ms", frame("pbm.read")),
        ("pbm.rows_ms", frame("pbm.rows")),
        ("fast.build4_ms", build4),
        ("fast.build8_ms", build8),
        ("fast.resolve4_ms", frame("fast.label_into4") - build4),
        ("fast.resolve8_ms", frame("fast.label_into8") - build8),
        ("labels.stats_ms", frame("labels.stats")),
        ("tiled.label4_ms", frame("tiled.label4")),
        ("tiled.label8_ms", frame("tiled.label8")),
        ("stream.label4_ms", frame("stream.label4")),
        ("ooc.label4_ms", frame("ooc.label4")),
        ("engine.scratch_bytes", st.rig.scratch_bytes() as f64),
        ("pbm.write_framed_ms", serve("pbm.write_framed")),
        ("server.grid_compute_ms", serve("server.grid_compute")),
        ("protocol.write_ok_ms", serve("protocol.write_ok")),
        ("protocol.read_response_ms", serve("protocol.read_response")),
        ("server.stream_compute_ms", serve("server.stream_compute")),
        (
            "protocol.write_stream_ms",
            d("protocol.write_stream", Some("replay.stream")),
        ),
        (
            "protocol.read_stream_ms",
            d("protocol.read_stream", Some("replay.stream")),
        ),
        ("server.ooc_compute_ms", serve("server.ooc_compute")),
        ("grid.residual_ms", residual("grid")),
        ("stream.residual_ms", residual("stream")),
        ("ooc.residual_ms", residual("ooc")),
        ("server.peak_queue_depth", stats.peak_queue_depth as f64),
        ("server.peak_queue_bytes", stats.peak_queue_bytes as f64),
        ("server.rejected", stats.rejected() as f64),
        ("client.retries", (base.retries + load.retries) as f64),
    ]);
    for (name, _) in PER_LAYER {
        if let Some(v) = counters.get(name) {
            m.insert(name, v);
        }
    }
    ledger.merge(base.ledger);
    ledger.merge(load.ledger);
    t
}

/// The result line: every listed metric with its unit, in list order.
fn result_line(ledger: &Ledger, list: &[(&'static str, &str)], m: &Metrics) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        ledger.failed == 0,
        ledger.attempted.max(1),
        ledger.failed
    );
    for (i, (name, unit)) in list.iter().enumerate() {
        let v = m
            .get(name)
            .copied()
            .filter(|v| v.is_finite())
            .unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

fn print_fingerprints() -> ExitCode {
    let mut out = String::from("{\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let mut ledger = Ledger::default();
        let st = set_up(*w, DEFAULT_SEED, &mut ledger);
        let fp = st.expect;
        st.server.shutdown();
        if ledger.failed > 0 {
            eprintln!("perfbench: the correctness gate failed; no fingerprint recorded");
            return ExitCode::FAILURE;
        }
        let sep = if i + 1 == WORKLOADS.len() { "" } else { "," };
        let _ = writeln!(out, "  \"{}\": {}{sep}", w.name, fp.to_json());
    }
    out.push('}');
    println!("{out}");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--print-fingerprints") {
        return print_fingerprints();
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let host = host_stamp();
    println!("host: {host}");
    println!(
        "workload: {} seed: {} seconds: {} trace: {}",
        args.workload.name, args.seed, args.seconds, args.trace as u8
    );

    let mut ledger = Ledger::default();
    let mut calib = Calib::new();
    let mut setup_s = Vec::new();
    let mut st = timed_set_up(&args, &mut calib, &mut ledger, &mut setup_s);
    if args.seed == DEFAULT_SEED {
        let recorded = match Fingerprint::recorded(args.workload) {
            Ok(fp) => fp,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(3);
            }
        };
        if st.expect != recorded {
            eprintln!(
                "perfbench: the {} generators drifted from the recorded fingerprint; refusing to report\n  \
                 recorded: {}\n  produced: {}",
                args.workload.name,
                recorded.to_json(),
                st.expect.to_json()
            );
            st.server.shutdown();
            return ExitCode::from(3);
        }
    }

    let mut m = Metrics::new();
    let line = if args.trace {
        let spans = measure_traced(&mut st, args.seconds, &mut calib, &mut ledger, &mut m);
        st.server.shutdown();
        m.insert("error_frac", ledger.error_frac());
        write_trace(&args, &host, &spans);
        result_line(&ledger, PER_LAYER, &m)
    } else {
        measure(&mut st, args.seconds, &mut calib, &mut ledger, &mut m);
        m.insert("peak_rss_mb", peak_rss_mb());
        // The repeated set-ups come last: freeing one set-up's few hundred
        // MB before the next fragments the heap, which would make the RSS
        // high-water mark of the measured phases vary by ±10%.
        for _ in 1..SETUP_REPEATS {
            st.server.shutdown();
            st = timed_set_up(&args, &mut calib, &mut ledger, &mut setup_s);
        }
        st.server.shutdown();
        m.insert("setup_s", med(&setup_s));
        result_line(&ledger, END_TO_END, &m)
    };
    println!("{line}");
    if ledger.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Writes the spans once, at exit, under `.bench_trace/` in the working
/// directory.
fn write_trace(args: &Args, host: &str, t: &Tracer) {
    let dir = std::path::Path::new(".bench_trace");
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload.name, args.seed));
    let header = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"host\": {host}}}\n",
        args.workload.name, args.seed
    );
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, header + &t.to_json_lines()));
    match written {
        Ok(()) => eprintln!(
            "perfbench: {} spans written to {}",
            t.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(doc: &json::Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(json::Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(json::Value::as_str)
                        .expect("string field")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn listed(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn emitted_metrics_match_benchmark_json() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        assert_eq!(names(&doc, "end_to_end"), listed(END_TO_END));
        assert_eq!(names(&doc, "per_layer"), listed(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(json::Value::as_array)
            .expect("workload list")
            .iter()
            .map(|w| w.get("name").and_then(json::Value::as_str).expect("name"))
            .collect();
        assert_eq!(
            workloads,
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
    }

    #[test]
    fn result_line_carries_every_listed_metric() {
        let ledger = Ledger {
            attempted: 3,
            failed: 0,
        };
        let m: Metrics = END_TO_END.iter().map(|(n, _)| (*n, 1.5)).collect();
        let line = json::parse(&result_line(&ledger, END_TO_END, &m)).expect("valid JSON");
        let metrics = line.get("metrics").expect("metrics");
        for (name, unit) in END_TO_END {
            let v = metrics.get(name).expect("metric present");
            assert_eq!(v.get("unit").and_then(json::Value::as_str), Some(*unit));
            assert_eq!(v.get("value"), Some(&json::Value::Num(1.5)));
        }
        assert_eq!(line.get("correct"), Some(&json::Value::Bool(true)));
    }

    #[test]
    fn arguments_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a =
            parse_args(&argv("--workload blobs --seed 9 --seconds 3 --trace 1")).expect("valid");
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace),
            ("blobs", 9, 3.0, true)
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload blobs --trace 2")).is_err());
    }
}
