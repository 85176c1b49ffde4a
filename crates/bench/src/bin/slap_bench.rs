//! `slap-bench` — the recorders behind the committed `BENCH_*.json` files.
//!
//! ```text
//! slap-bench RECORDER                    # full sweep -> BENCH_<RECORDER>.json
//! slap-bench RECORDER --quick --out F    # small sweep (CI smoke), custom path
//! slap-bench check FILE                  # validate a recorded file
//! slap-bench check FILE --require-full   # + full scale and the headline gates
//! ```
//!
//! The recorders are the rows of [`slap_bench::record::RECORDERS`]:
//! `baseline` (oracle vs. fast engine vs. simulated Algorithm CC), `tiled`
//! (tile grids, `T × 1` strips, and the out-of-core band scheduler),
//! `stream` (the bounded-memory streaming engine and its frontier peaks),
//! `reuse` (cold-call vs. warm-session for every registry engine), `serve`
//! (`slapd` jobs at 1/4/16 clients per response mode), and `propagate` (the
//! label-equivalence engine vs. the oracle, plus lock-step step counts).
//! Every file has the one `slap-bench/v1` shape; `check` validates it
//! against the spec of the recorder its header names.

use slap_bench::record::{check, recorder, RECORDERS};

fn usage() -> ! {
    let names: Vec<&str> = RECORDERS.iter().map(|r| r.name).collect();
    eprintln!(
        "usage: slap-bench {{{}}} [--quick] [--out PATH]\n       \
         slap-bench check PATH [--require-full]",
        names.join("|")
    );
    std::process::exit(2);
}

/// Exits with `msg` on stderr.
fn fail(msg: String) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    if cmd == "check" {
        let (mut path, mut require_full) = (None, false);
        for a in &args[1..] {
            match a.as_str() {
                "--require-full" => require_full = true,
                p if path.is_none() => path = Some(p),
                _ => usage(),
            }
        }
        let Some(path) = path else { usage() };
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
        match check(&text, require_full) {
            Ok(()) => println!("{path}: ok"),
            Err(e) => fail(format!("{path}: INVALID: {e}")),
        }
        return;
    }
    let Some(rec) = recorder(cmd) else { usage() };
    let (mut quick, mut out) = (false, format!("BENCH_{}.json", rec.name));
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" | "-q" => quick = true,
            "--out" | "-o" => out = it.next().cloned().unwrap_or_else(|| usage()),
            _ => usage(),
        }
    }
    let report = (rec.run)(quick, &mut |line| eprintln!("  {line}"));
    let text = report.to_json();
    if let Err(e) = check(&text, !quick) {
        fail(format!("generated sweep failed its own validation: {e}"));
    }
    std::fs::write(&out, text).unwrap_or_else(|e| fail(format!("cannot write {out}: {e}")));
    eprintln!("wrote {out} ({} entries)", report.entries.len());
}
