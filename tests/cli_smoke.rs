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
    // So must a band too tall for the u32 position space at this width.
    let valid = b"P4\n8 3\n\xff\x00\xff";
    for cmd in [&["stream"][..], &["label", "--out-of-core"][..]] {
        let args = [cmd, &["--band-rows", "4294967296"][..]].concat();
        let bad = slap_with_stdin(&args, valid);
        assert!(
            !bad.status.success(),
            "{args:?}: an overflowing band must not stream"
        );
        let err = String::from_utf8_lossy(&bad.stderr);
        assert!(
            !err.contains("panicked"),
            "{args:?}: clean error expected: {err}"
        );
        assert_eq!(err.trim().lines().count(), 1, "{args:?}: one line: {err}");
    }
}

#[test]
fn out_of_core_label_reports_what_stream_and_the_fast_engine_report() {
    // 40 rows: one band at the default height, 14 bands of 3 rows.
    let pbm_bytes = slap(&["gen", "random50", "40", "5"]).stdout;
    for conn in ["4", "8"] {
        let fast = stdout_str(&slap_with_stdin(
            &["label", "--engine", "fast", "--conn", conn],
            &pbm_bytes,
        ));
        let want = fast.lines().next().unwrap_or_default();
        assert!(want.contains("component(s)"), "{fast:?}");
        for (band, bands) in [
            (&[][..], "1 band(s) of 128 row(s) x 1 tile column(s)"),
            (
                &["--band-rows", "3", "--tiles", "1x2"][..],
                "14 band(s) of 3 row(s) x 2 tile column(s)",
            ),
        ] {
            for cmd in [&["label", "--out-of-core"][..], &["stream"][..]] {
                let args = [cmd, band, &["--conn", conn]].concat();
                let report = stdout_str(&slap_with_stdin(&args, &pbm_bytes));
                // The component line (dims, density, count) is the fast
                // engine's, at any band shape.
                assert_eq!(report.lines().next(), Some(want), "{args:?}: {report:?}");
                for expected in ["peak frontier", "rows/s", bands] {
                    assert!(report.contains(expected), "{args:?}: {report:?}");
                }
            }
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
