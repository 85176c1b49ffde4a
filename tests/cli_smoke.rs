//! Smoke tests for the `slap` binary: drive the documented subcommands
//! through real process invocations so the CLI surface (arg parsing, PBM
//! stdin/stdout plumbing, report formatting) cannot silently rot.

use std::io::Write;
use std::process::{Command, Output, Stdio};

fn slap(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_slap"))
        .args(args)
        .output()
        .expect("spawn slap")
}

fn slap_with_stdin(args: &[&str], stdin: &[u8]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_slap"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn slap");
    // BrokenPipe is fine: the child may reject the input and exit before the
    // write finishes (e.g. the garbage-PBM case)
    match child.stdin.take().expect("stdin handle").write_all(stdin) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {}
        Err(e) => panic!("write stdin: {e}"),
    }
    child.wait_with_output().expect("wait for slap")
}

fn stdout_str(out: &Output) -> String {
    assert!(
        out.status.success(),
        "slap exited with {:?}; stderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout.clone()).expect("utf8 stdout")
}

#[test]
fn workloads_lists_known_generators() {
    let out = stdout_str(&slap(&["workloads"]));
    let names: Vec<&str> = out.lines().collect();
    assert!(!names.is_empty());
    for expected in ["comb", "random50", "spiral"] {
        assert!(
            names.iter().any(|n| n.contains(expected)),
            "workload list missing {expected:?}: {names:?}"
        );
    }
}

#[test]
fn gen_label_features_roundtrip_through_pbm() {
    // gen: every listed workload must emit a parseable plain PBM header
    let listed = stdout_str(&slap(&["workloads"]));
    let workload = listed.lines().next().expect("at least one workload");

    let pbm = slap(&["gen", workload, "16", "1"]);
    let pbm_bytes = pbm.stdout.clone();
    let text = stdout_str(&pbm);
    assert!(
        text.starts_with("P1"),
        "gen should emit plain PBM: {text:?}"
    );
    assert!(text.contains("16 16"), "gen should emit a 16x16 header");

    // label: the PBM round-trips through stdin and produces a report
    let label = slap_with_stdin(&["label"], &pbm_bytes);
    let report = stdout_str(&label);
    assert!(
        report.contains("component(s)"),
        "label report missing component count: {report:?}"
    );
    assert!(
        report.contains("16x16"),
        "label report missing dims: {report:?}"
    );

    // features: same image via a file argument, per-component geometry out
    let path = std::env::temp_dir().join(format!("slap_smoke_{}.pbm", std::process::id()));
    std::fs::write(&path, &pbm_bytes).expect("write temp PBM");
    let features = slap(&["features", path.to_str().expect("utf8 temp path")]);
    let _ = std::fs::remove_file(&path);
    let ftext = stdout_str(&features);
    assert!(
        ftext.contains("Euler number"),
        "features report missing Euler number: {ftext:?}"
    );
    assert!(
        ftext.contains("area"),
        "features table missing header: {ftext:?}"
    );
}

#[test]
fn stream_labels_piped_pbm_with_bounded_memory_report() {
    let pbm_bytes = slap(&["gen", "blobs", "20", "2"]).stdout;
    for conn in ["4", "8"] {
        let out = slap_with_stdin(&["stream", "--conn", conn], &pbm_bytes);
        let report = stdout_str(&out);
        assert!(
            report.contains("component(s)"),
            "stream report missing component count: {report:?}"
        );
        assert!(
            report.contains("peak frontier"),
            "stream report missing frontier stats: {report:?}"
        );
        assert!(
            report.contains("rows/s"),
            "stream report missing throughput: {report:?}"
        );
    }
    // The streaming path must reject garbage cleanly, like `label`.
    let bad = slap_with_stdin(&["stream"], b"P4\n8 3\n\xff");
    assert!(!bad.status.success(), "truncated P4 must not stream");
    let err = String::from_utf8_lossy(&bad.stderr);
    assert!(!err.contains("panicked"), "clean error expected: {err}");
}

#[test]
fn out_of_core_label_reports_what_stream_and_the_fast_engine_report() {
    // 300 rows: three bands of the 128-row streaming band.
    let pbm_bytes = slap(&["gen", "random50", "300", "5"]).stdout;
    for conn in ["4", "8"] {
        let fast = stdout_str(&slap_with_stdin(
            &["label", "--engine", "fast", "--conn", conn],
            &pbm_bytes,
        ));
        let want = fast.lines().next().unwrap_or_default();
        assert!(want.contains("component(s)"), "{fast:?}");
        let report = stdout_str(&slap_with_stdin(&["stream", "--conn", conn], &pbm_bytes));
        // The component line (dims, density, count) is the fast engine's.
        assert_eq!(report.lines().next(), Some(want), "{conn}: {report:?}");
        for expected in [
            "peak frontier",
            "rows/s",
            "3 band(s) of 128 row(s) x 1 tile column(s)",
        ] {
            assert!(report.contains(expected), "{conn}: {report:?}");
        }
    }
}

#[test]
fn label_and_features_dispatch_every_registered_engine() {
    let pbm_bytes = slap(&["gen", "blobs", "18", "4"]).stdout;
    let mut reports = Vec::new();
    for engine in ["bfs", "fast", "parallel"] {
        let out = slap_with_stdin(&["label", "--engine", engine, "--conn", "8"], &pbm_bytes);
        let report = stdout_str(&out);
        assert!(
            report.contains(&format!("host/{engine}:")),
            "--engine {engine} must route to that engine: {report:?}"
        );
        // The stats-fold time is printed beside the labeling time.
        let stats_ms = report
            .split(", stats ")
            .nth(1)
            .and_then(|rest| rest.split(" ms").next())
            .and_then(|ms| ms.parse::<f64>().ok());
        assert!(
            stats_ms.is_some(),
            "--engine {engine} must report the stats fold time: {report:?}"
        );
        // The component line is engine-independent (bit-identity).
        reports.push(report.lines().next().unwrap_or_default().to_string());

        let fout = slap_with_stdin(&["features", "--engine", engine], &pbm_bytes);
        let freport = stdout_str(&fout);
        assert!(
            freport.contains("Euler number"),
            "features --engine {engine}: {freport:?}"
        );
    }
    reports.dedup();
    assert_eq!(
        reports.len(),
        1,
        "all engines must report identical components: {reports:?}"
    );
    // Unknown engines die cleanly, listing the registry.
    let bad = slap_with_stdin(&["label", "--engine", "warp"], &pbm_bytes);
    assert!(!bad.status.success());
    let err = String::from_utf8_lossy(&bad.stderr);
    assert!(
        err.contains("registered engines") && err.contains("parallel"),
        "unknown-engine error should list the registry: {err}"
    );
    // `stream` is no registry engine: the streaming labeler emits records,
    // not grids, and runs as `slap stream`.
    let bad = slap_with_stdin(&["label", "--engine", "stream"], &pbm_bytes);
    assert_eq!(bad.status.code(), Some(2));
    let err = String::from_utf8_lossy(&bad.stderr);
    assert!(
        err.contains("unknown engine \"stream\"") && err.contains("registered engines"),
        "{err}"
    );
    // `stream --engine fast` is a contradiction and must be refused.
    let bad = slap_with_stdin(&["stream", "--engine", "fast"], &pbm_bytes);
    assert!(!bad.status.success());
    let err = String::from_utf8_lossy(&bad.stderr);
    assert!(err.contains("streaming engine"), "{err}");
}

/// `report` with every `<number> ms` timing masked to `_ ms`.
fn mask_timings(report: &str) -> String {
    let words: Vec<&str> = report.split(' ').collect();
    let masked: Vec<&str> = words
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let timed = words.get(i + 1).is_some_and(|next| next.starts_with("ms"));
            if timed && w.parse::<f64>().is_ok() {
                "_"
            } else {
                w
            }
        })
        .collect();
    masked.join(" ")
}

#[test]
fn run_based_engines_print_the_walks_component_stats() {
    // `fast` and `parallel` print the records their labeling pass carried
    // in the grid; `bfs` leaves none, so its stats come from the walk over
    // the labels. The stats lines must agree to the last digit.
    for workload in ["random50", "blobs"] {
        let pbm_bytes = slap(&["gen", workload, "256", "3"]).stdout;
        for conn in ["4", "8"] {
            let reports: Vec<(String, String)> = ["fast", "parallel", "bfs"]
                .into_iter()
                .map(|engine| {
                    let args = ["label", "--engine", engine, "--conn", conn];
                    let report = mask_timings(&stdout_str(&slap_with_stdin(&args, &pbm_bytes)));
                    let (stats, host): (Vec<&str>, Vec<&str>) =
                        report.lines().partition(|l| !l.starts_with("host/"));
                    assert_eq!(host.len(), 1, "{engine}: {report:?}");
                    assert!(
                        host[0].contains(" _ ms, stats _ ms"),
                        "{engine}: timings must be masked: {report:?}"
                    );
                    (engine.to_string(), stats.join("\n"))
                })
                .collect();
            let (_, want) = &reports[2];
            assert!(want.contains("largest component"), "{want:?}");
            for (engine, stats) in &reports {
                assert_eq!(stats, want, "{workload} {conn}-conn: {engine} vs bfs");
            }
        }
    }
}

#[test]
fn framed_stream_ingests_multiple_p4_frames_in_one_process() {
    // Two hand-crafted raw P4 frames of different dimensions, each preceded
    // by its decimal byte length — the `--framed` continuous-ingest format.
    let f1: &[u8] = b"P4\n8 2\n\xff\x00"; // solid row then blank: 1 component
    let f2: &[u8] = b"P4\n16 3\n\xaa\xaa\x00\x00\xff\xff"; // 8 dots + a bar
    let mut framed = Vec::new();
    for f in [f1, f2] {
        framed.extend_from_slice(format!("{}\n", f.len()).as_bytes());
        framed.extend_from_slice(f);
    }
    let out = slap_with_stdin(&["stream", "--framed"], &framed);
    let report = stdout_str(&out);
    assert!(
        report.contains("frame 1: 2x8, 1 component(s)"),
        "first frame summary missing: {report:?}"
    );
    assert!(
        report.contains("frame 2: 3x16, 9 component(s)"),
        "second frame summary missing: {report:?}"
    );
    assert!(
        report.contains("2 frame(s)"),
        "trailing summary missing: {report:?}"
    );
    // Truncated frames die cleanly, like every other bad input.
    let bad = slap_with_stdin(&["stream", "--framed"], b"10\nP4\n8 2\n");
    assert!(!bad.status.success(), "truncated frame must not stream");
    let err = String::from_utf8_lossy(&bad.stderr);
    assert!(!err.contains("panicked"), "clean error expected: {err}");
}

#[test]
fn label_accepts_uf_and_conn_flags() {
    let pbm = slap(&["gen", "comb", "12", "3"]);
    let pbm_bytes = stdout_str(&pbm).into_bytes();
    for uf in ["tarjan", "blum", "quickfind"] {
        let out = slap_with_stdin(&["label", "--uf", uf, "--conn", "8"], &pbm_bytes);
        let report = stdout_str(&out);
        assert!(
            report.contains("component(s)"),
            "--uf {uf} report: {report:?}"
        );
    }
}

#[test]
fn compare_cross_checks_all_algorithms() {
    // `compare` asserts internally that every labeler agrees with CC
    let out = stdout_str(&slap(&["compare", "comb", "12", "1"]));
    assert!(out.contains("Algorithm CC"), "compare output: {out:?}");
}

#[test]
fn bad_input_fails_without_panic_message() {
    let out = slap_with_stdin(&["label"], b"not a pbm at all");
    assert!(!out.status.success(), "garbage PBM must not parse");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        !err.contains("panicked"),
        "parse failure should be a clean error, not a panic: {err}"
    );
}

#[test]
fn serve_rejects_a_queue_budget_that_overflows_bytes() {
    // 2^44 MiB is 2^64 bytes: it must be refused, not wrap to a zero budget
    let out = slap(&[
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--queue-budget-mb",
        "17592186044416",
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--queue-budget-mb"), "flag not named: {err}");
    assert!(!err.contains("panicked"), "clean error expected: {err}");
}

#[test]
fn serve_refuses_threads_and_the_band_rows_flag() {
    // Each slapd worker labels one job on its own thread, so a thread
    // count has nothing to size: it is refused by name, not ignored.
    let out = slap(&["serve", "--addr", "127.0.0.1:0", "--threads", "2"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--threads"), "flag not named: {err}");
    assert!(!err.contains("panicked"), "clean error expected: {err}");
    // The band height follows --max-dim; there is no flag for it.
    let out = slap(&["serve", "--addr", "127.0.0.1:0", "--ooc-band-rows", "128"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--ooc-band-rows"), "flag not named: {err}");
    assert!(!err.contains("panicked"), "clean error expected: {err}");
}

/// Asserts that `args` exits 2 with one clean stderr line naming `named`.
fn assert_refused(args: &[&str], named: &str) {
    let out = slap(args);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
    assert_eq!(
        err.trim_end().lines().count(),
        1,
        "{args:?}: one line: {err}"
    );
    assert!(err.contains(named), "{args:?}: {named} not named: {err}");
    assert!(
        !err.contains("panicked"),
        "{args:?}: clean error expected: {err}"
    );
}

#[test]
fn every_subcommand_refuses_flags_it_does_not_take() {
    // A listener the client would reach if it dialed before refusing.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    listener.set_nonblocking(true).expect("nonblocking");
    let addr = listener.local_addr().expect("addr").to_string();
    let client = format!("client --addr {addr} --engine bfs --tiles 2x2");
    let cases = [
        (
            "gen random50 4 1 --threads 3 --band-rows 2 --framed",
            "--threads",
        ),
        ("label --framed", "--framed"),
        ("trace --uf blum random50 8 1", "--uf"),
        ("trace --pass bogus random50 8 1", "--pass"),
        ("features --uf blum", "--uf"),
        ("stream --engine fast", "--engine"),
        ("compare --engine fast comb 12 1", "--engine"),
        ("serve --addr 127.0.0.1:0 --stream", "--stream"),
        (&client, "--engine"),
        ("workloads --conn 8", "--conn"),
        // The second spellings are gone: `slap stream` is the one streaming
        // command, and --threads / --tiles only size an --engine.
        ("label --out-of-core", "--out-of-core"),
        ("stream --band-rows 4", "--band-rows"),
        ("stream --tiles 1x2", "--tiles"),
        ("label --threads 2", "--engine"),
        ("label --tiles 2x2", "--engine"),
        ("features --engine fast --tiles 2x2", "--engine"),
        ("label --conn 4 --conn 8", "--conn"),
        // A flag the chosen path never reads: sequential engines take no
        // --threads, and a host engine reads no --uf.
        ("label --engine fast --threads 2", "--threads"),
        ("features --engine bfs --threads 2", "--threads"),
        ("label --engine propagate --threads 2", "--threads"),
        ("label --engine fast --uf blum", "--uf"),
    ];
    for (args, named) in cases {
        assert_refused(&args.split(' ').collect::<Vec<_>>(), named);
    }
    // `bench` was `gen | label`; it is no subcommand now.
    let out = slap(&["bench", "random50", "8", "1"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).starts_with("usage:"),
        "{out:?}"
    );
    assert!(
        listener
            .accept()
            .is_err_and(|e| e.kind() == std::io::ErrorKind::WouldBlock),
        "client dialed before refusing its flags"
    );
}

#[test]
fn bad_positional_arguments_exit_2_without_panic() {
    for cmd in ["gen", "trace", "compare"] {
        assert_refused(&[cmd, "random50", "0"], "size must be a positive integer");
        assert_refused(&[cmd, "random50", "4", "abc"], "\"abc\"");
        assert_refused(&[cmd, "random50", "4", "1", "junk"], "\"junk\"");
    }
    assert_refused(&["label", "a.pbm", "b.pbm"], "\"b.pbm\"");
    assert_refused(&["serve", "extra"], "\"extra\"");
}

#[test]
fn a_reader_closing_stdout_ends_gen_quietly() {
    // `slap gen random50 512 1 | head -c 10`: a 512² plain PBM overflows
    // the pipe buffer, so the write after the reader leaves meets a closed
    // pipe.
    let mut child = Command::new(env!("CARGO_BIN_EXE_slap"))
        .args(["gen", "random50", "512", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn slap");
    let mut head = [0u8; 10];
    std::io::Read::read_exact(&mut child.stdout.take().expect("stdout handle"), &mut head)
        .expect("read 10 bytes");
    let out = child.wait_with_output().expect("wait for slap");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{out:?}");
}
