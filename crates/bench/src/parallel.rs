//! The `slap-bench parallel` sweep: strip-parallel engine scaling (the
//! tiled engine on a `threads × 1` grid) vs. the sequential fast engine,
//! serialized to `BENCH_parallel.json`.
//!
//! For each (family, size, connectivity) point the sweep times the
//! sequential fast engine once and the strip-parallel engine at every
//! thread count in [`THREAD_COUNTS`] — both as warm registry sessions
//! ([`EngineKind::session`]) — asserting bit-identical labels while timing.
//! The recorded `host_threads` (the
//! machine's available parallelism) travels with the file: wall-clock
//! speedup is a property of the recording host, and the [`validate`]
//! headline criterion — parallel@4 ≥ 1.8× the sequential engine on
//! `random50` @ 2048² under 4-connectivity — is only enforceable when the
//! host actually has ≥ 4 hardware threads.

use crate::json;
use crate::sweep::{self, conn_id, CONNS, SEED};
use slap_cc::engine::EngineKind;
use slap_image::LabelGrid;
use std::fmt::Write as _;

/// Schema identifier stamped into (and required from) every parallel file.
pub const SCHEMA: &str = "slap-bench-parallel/v1";

/// Thread counts swept by the `parallel` engine entries.
pub const THREAD_COUNTS: &[usize] = &[1, 2, 4, 8];

/// The headline speedup `validate` demands from parallel@4 over the
/// sequential engine on `random50` @ 2048² (4-connectivity), on hosts with
/// at least [`MIN_HOST_THREADS`] hardware threads.
pub const REQUIRED_SPEEDUP: f64 = 1.8;

/// Minimum recorded host parallelism for the speedup criterion to apply.
pub const MIN_HOST_THREADS: u64 = 4;

/// One timed (family, size, connectivity, engine, threads) point.
#[derive(Clone, Debug)]
pub struct Entry {
    /// Workload family name (a `gen::by_name` key).
    pub family: String,
    /// Image side (the image is `n × n`).
    pub n: usize,
    /// Adjacency convention: `4` or `8`.
    pub conn: u32,
    /// `"fast"` (sequential reference) or `"parallel"`.
    pub engine: String,
    /// Worker threads (always `1` for the `"fast"` engine).
    pub threads: usize,
    /// Best wall-clock nanoseconds over the repetitions.
    pub best_ns: u64,
    /// Mean wall-clock nanoseconds over the repetitions.
    pub mean_ns: u64,
    /// Number of timed repetitions.
    pub reps: usize,
    /// For `"parallel"` entries: labels were bit-identical to the
    /// sequential engine's.
    pub bit_identical: Option<bool>,
}

/// A finished sweep, ready to serialize.
#[derive(Clone, Debug)]
pub struct ParallelReport {
    /// `"quick"` or `"full"`.
    pub scale: String,
    /// `std::thread::available_parallelism()` on the recording host.
    pub host_threads: usize,
    /// Families swept.
    pub families: Vec<String>,
    /// Sides swept.
    pub sides: Vec<usize>,
    /// All timed points.
    pub entries: Vec<Entry>,
}

/// Sweep parameters per scale.
fn sweep_params(quick: bool) -> (&'static [&'static str], &'static [usize]) {
    const FAMILIES: &[&str] = &["random50", "blobs", "checker"];
    if quick {
        (FAMILIES, &[64, 128, 256])
    } else {
        (FAMILIES, &[512, 1024, 2048])
    }
}

/// Runs the sweep. `progress` receives one line per timed point. Engines
/// are warm registry sessions: one [`EngineKind::Fast`] session as the
/// sequential reference, one [`EngineKind::Parallel`] session per thread
/// count.
pub fn run_parallel(quick: bool, mut progress: impl FnMut(&str)) -> ParallelReport {
    let (families, sides) = sweep_params(quick);
    let host_threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut entries = Vec::new();
    let mut fast = EngineKind::Fast.session(1);
    let mut fast_grid = LabelGrid::new_background(1, 1);
    let mut par_grid = LabelGrid::new_background(1, 1);
    sweep::drive(families, sides, quick, |p| {
        let (family, n, cid, reps) = (p.family, p.n, p.cid, p.reps);
        // Sequential reference: timed, and the identity baseline.
        let (best, mean) = sweep::time_reps(reps, || {
            fast.label_into(std::hint::black_box(p.img), p.conn, &mut fast_grid);
        });
        progress(&format!(
            "{family}/{n}/{cid}-conn fast: {:.3} ms",
            best as f64 / 1e6
        ));
        entries.push(Entry {
            family: family.to_string(),
            n,
            conn: cid,
            engine: "fast".to_string(),
            threads: 1,
            best_ns: best,
            mean_ns: mean,
            reps,
            bit_identical: None,
        });
        for &t in THREAD_COUNTS {
            let mut labeler = EngineKind::Parallel.session(t);
            let (best, mean) = sweep::time_reps(reps, || {
                labeler.label_into(std::hint::black_box(p.img), p.conn, &mut par_grid);
            });
            let ok = par_grid == fast_grid;
            progress(&format!(
                "{family}/{n}/{cid}-conn parallel@{t}: {:.3} ms",
                best as f64 / 1e6
            ));
            entries.push(Entry {
                family: family.to_string(),
                n,
                conn: cid,
                engine: "parallel".to_string(),
                threads: t,
                best_ns: best,
                mean_ns: mean,
                reps,
                bit_identical: Some(ok),
            });
        }
    });
    ParallelReport {
        scale: if quick { "quick" } else { "full" }.to_string(),
        host_threads,
        families: families.iter().map(|s| s.to_string()).collect(),
        sides: sides.to_vec(),
        entries,
    }
}

impl ParallelReport {
    /// Best time of one recorded point.
    fn best_of(
        &self,
        family: &str,
        n: usize,
        conn: u32,
        engine: &str,
        threads: usize,
    ) -> Option<u64> {
        self.entries
            .iter()
            .find(|e| {
                e.family == family
                    && e.n == n
                    && e.conn == conn
                    && e.engine == engine
                    && e.threads == threads
            })
            .map(|e| e.best_ns)
    }

    /// Serializes the report. Hand-rolled (the workspace `serde` is a
    /// no-op stub); [`validate`] checks the inverse direction.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema\": {},", json::quote(SCHEMA));
        let _ = writeln!(s, "  \"scale\": {},", json::quote(&self.scale));
        let _ = writeln!(s, "  \"seed\": {SEED},");
        let _ = writeln!(s, "  \"host_threads\": {},", self.host_threads);
        let fams: Vec<String> = self.families.iter().map(|f| json::quote(f)).collect();
        let _ = writeln!(s, "  \"families\": [{}],", fams.join(", "));
        let sides: Vec<String> = self.sides.iter().map(|n| n.to_string()).collect();
        let _ = writeln!(s, "  \"sides\": [{}],", sides.join(", "));
        let threads: Vec<String> = THREAD_COUNTS.iter().map(|t| t.to_string()).collect();
        let _ = writeln!(s, "  \"thread_counts\": [{}],", threads.join(", "));
        s.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"family\": {}, \"n\": {}, \"conn\": {}, \"engine\": {}, \"threads\": {}, \
                 \"best_ns\": {}, \"mean_ns\": {}, \"reps\": {}",
                json::quote(&e.family),
                e.n,
                e.conn,
                json::quote(&e.engine),
                e.threads,
                e.best_ns,
                e.mean_ns,
                e.reps
            );
            if let Some(ok) = e.bit_identical {
                let _ = write!(s, ", \"bit_identical\": {ok}");
            }
            s.push('}');
            if i + 1 < self.entries.len() {
                s.push(',');
            }
            s.push('\n');
        }
        s.push_str("  ],\n");
        // Derived scaling ratios: parallel@T vs the sequential engine.
        s.push_str("  \"speedups\": [\n");
        let mut lines = Vec::new();
        for family in &self.families {
            for &n in &self.sides {
                for &conn in CONNS {
                    let cid = conn_id(conn);
                    let Some(fast) = self.best_of(family, n, cid, "fast", 1) else {
                        continue;
                    };
                    let ratios: Vec<String> = THREAD_COUNTS
                        .iter()
                        .filter_map(|&t| {
                            let par = self.best_of(family, n, cid, "parallel", t)?;
                            Some(format!(
                                "\"x{}\": {:.3}",
                                t,
                                fast as f64 / par.max(1) as f64
                            ))
                        })
                        .collect();
                    lines.push(format!(
                        "    {{\"family\": {}, \"n\": {}, \"conn\": {}, {}}}",
                        json::quote(family),
                        n,
                        cid,
                        ratios.join(", ")
                    ));
                }
            }
        }
        s.push_str(&lines.join(",\n"));
        s.push_str("\n  ]\n}\n");
        s
    }
}

/// Validates a parallel-sweep JSON document against the schema. With
/// `require_full` the file must also be a full-scale sweep, and — when the
/// recording host had at least [`MIN_HOST_THREADS`] hardware threads — must
/// meet the headline criterion: parallel@4 at least [`REQUIRED_SPEEDUP`]×
/// the sequential fast engine on `random50` @ 2048² under 4-connectivity.
/// On narrower hosts (a 1-core CI container cannot exhibit wall-clock
/// speedup) the shape and bit-identity checks still apply in full.
pub fn validate(text: &str, require_full: bool) -> Result<(), String> {
    let doc = json::parse(text)?;
    let obj = doc.as_object().ok_or("top level is not an object")?;
    let get = |key: &str| {
        obj.iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing key {key:?}"))
    };
    let schema = get("schema")?.as_str().ok_or("schema is not a string")?;
    if schema != SCHEMA {
        return Err(format!("schema {schema:?}, expected {SCHEMA:?}"));
    }
    let scale = get("scale")?.as_str().ok_or("scale is not a string")?;
    if scale != "quick" && scale != "full" {
        return Err(format!("scale {scale:?} is neither quick nor full"));
    }
    if require_full && scale != "full" {
        return Err("a full-scale parallel sweep is required".to_string());
    }
    let host_threads = get("host_threads")?
        .as_u64()
        .filter(|&v| v > 0)
        .ok_or("host_threads is not a positive integer")?;
    let entries = get("entries")?
        .as_array()
        .ok_or("entries is not an array")?;
    if entries.is_empty() {
        return Err("entries is empty".to_string());
    }
    // Per-entry shape, plus (family, n, conn) → {fast seen, parallel thread
    // counts seen}.
    let mut coverage: Vec<(String, u64, u64, bool, Vec<u64>)> = Vec::new();
    for (i, e) in entries.iter().enumerate() {
        let ctx = |msg: &str| format!("entry {i}: {msg}");
        let eo = e.as_object().ok_or_else(|| ctx("not an object"))?;
        let field = |key: &str| {
            eo.iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| ctx(&format!("missing {key:?}")))
        };
        let family = field("family")?
            .as_str()
            .ok_or_else(|| ctx("family is not a string"))?
            .to_string();
        let n = field("n")?
            .as_u64()
            .filter(|&n| n > 0)
            .ok_or_else(|| ctx("n is not a positive integer"))?;
        let conn = field("conn")?
            .as_u64()
            .filter(|&c| c == 4 || c == 8)
            .ok_or_else(|| ctx("conn is not 4 or 8"))?;
        let engine = field("engine")?
            .as_str()
            .ok_or_else(|| ctx("engine is not a string"))?
            .to_string();
        let threads = field("threads")?
            .as_u64()
            .filter(|&t| t > 0)
            .ok_or_else(|| ctx("threads is not a positive integer"))?;
        let best = field("best_ns")?
            .as_u64()
            .filter(|&v| v > 0)
            .ok_or_else(|| ctx("best_ns is not a positive integer"))?;
        let mean = field("mean_ns")?
            .as_u64()
            .ok_or_else(|| ctx("mean_ns is not an integer"))?;
        if mean < best {
            return Err(ctx("mean_ns is below best_ns"));
        }
        field("reps")?
            .as_u64()
            .filter(|&v| v > 0)
            .ok_or_else(|| ctx("reps is not a positive integer"))?;
        match engine.as_str() {
            "fast" => {
                if threads != 1 {
                    return Err(ctx("fast entries must record threads = 1"));
                }
            }
            "parallel" => {
                let ok = eo
                    .iter()
                    .find(|(k, _)| k == "bit_identical")
                    .and_then(|(_, v)| v.as_bool())
                    .ok_or_else(|| ctx("parallel entry lacks bit_identical"))?;
                if !ok {
                    return Err(ctx("labels were not bit-identical to the fast engine"));
                }
            }
            other => return Err(ctx(&format!("unknown engine {other:?}"))),
        }
        match coverage
            .iter_mut()
            .find(|(f, m, c, _, _)| *f == family && *m == n && *c == conn)
        {
            Some((_, _, _, fast_seen, par_threads)) => {
                if engine == "fast" {
                    *fast_seen = true;
                } else {
                    par_threads.push(threads);
                }
            }
            None => coverage.push((
                family,
                n,
                conn,
                engine == "fast",
                if engine == "parallel" {
                    vec![threads]
                } else {
                    Vec::new()
                },
            )),
        }
    }
    // Coverage: every point needs the sequential reference plus ≥ 3 thread
    // counts, and each connectivity needs ≥ 2 families × ≥ 3 sizes.
    for want in [4u64, 8] {
        let full_points: Vec<_> = coverage
            .iter()
            .filter(|(_, _, c, fast_seen, par)| {
                *c == want && *fast_seen && {
                    let mut t = par.clone();
                    t.sort_unstable();
                    t.dedup();
                    t.len() >= 3
                }
            })
            .collect();
        let mut fams: Vec<&str> = full_points.iter().map(|(f, ..)| f.as_str()).collect();
        fams.sort_unstable();
        fams.dedup();
        let mut ns: Vec<u64> = full_points.iter().map(|(_, n, ..)| *n).collect();
        ns.sort_unstable();
        ns.dedup();
        if fams.len() < 2 || ns.len() < 3 {
            return Err(format!(
                "coverage too thin at {want}-connectivity: {} families × {} sizes \
                 with fast + ≥3 thread counts (need ≥ 2 × ≥ 3)",
                fams.len(),
                ns.len()
            ));
        }
    }
    if require_full && host_threads >= MIN_HOST_THREADS {
        let best_of = |engine: &str, threads: u64| {
            entries.iter().find_map(|e| {
                let eo = e.as_object()?;
                let s = |k: &str| eo.iter().find(|(n, _)| n == k).map(|(_, v)| v);
                (s("family")?.as_str()? == "random50"
                    && s("n")?.as_u64()? == 2048
                    && s("conn")?.as_u64()? == 4
                    && s("engine")?.as_str()? == engine
                    && s("threads")?.as_u64()? == threads)
                    .then(|| s("best_ns")?.as_u64())
                    .flatten()
            })
        };
        let fast = best_of("fast", 1).ok_or("no fast entry for random50 @ 2048 (4-conn)")?;
        let par =
            best_of("parallel", 4).ok_or("no parallel@4 entry for random50 @ 2048 (4-conn)")?;
        let ratio = fast as f64 / par.max(1) as f64;
        if ratio < REQUIRED_SPEEDUP {
            return Err(format!(
                "parallel@4 is only {ratio:.2}× the fast engine on random50 @ 2048 \
                 (need ≥ {REQUIRED_SPEEDUP}× on a host with ≥ {MIN_HOST_THREADS} threads)"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report(host_threads: usize) -> ParallelReport {
        let mut entries = Vec::new();
        for family in ["random50", "blobs"] {
            for n in [512usize, 1024, 2048] {
                for conn in [4u32, 8] {
                    entries.push(Entry {
                        family: family.to_string(),
                        n,
                        conn,
                        engine: "fast".to_string(),
                        threads: 1,
                        best_ns: 4000,
                        mean_ns: 4500,
                        reps: 3,
                        bit_identical: None,
                    });
                    for t in [1usize, 2, 4, 8] {
                        entries.push(Entry {
                            family: family.to_string(),
                            n,
                            conn,
                            engine: "parallel".to_string(),
                            threads: t,
                            best_ns: 4000 / (t as u64).min(4), // 4× at 4 threads
                            mean_ns: 4500,
                            reps: 3,
                            bit_identical: Some(true),
                        });
                    }
                }
            }
        }
        ParallelReport {
            scale: "full".to_string(),
            host_threads,
            families: vec!["random50".to_string(), "blobs".to_string()],
            sides: vec![512, 1024, 2048],
            entries,
        }
    }

    #[test]
    fn report_roundtrips_through_validation() {
        let text = tiny_report(8).to_json();
        validate(&text, false).expect("quick validation");
        validate(&text, true).expect("full validation");
    }

    #[test]
    fn validation_rejects_wrong_schema() {
        let text = tiny_report(8).to_json().replace(SCHEMA, "bogus/v0");
        assert!(validate(&text, false).is_err());
    }

    #[test]
    fn validation_rejects_non_identical_labels() {
        let mut report = tiny_report(8);
        for e in &mut report.entries {
            if e.engine == "parallel" {
                e.bit_identical = Some(false);
            }
        }
        let err = validate(&report.to_json(), false).unwrap_err();
        assert!(err.contains("bit-identical"), "{err}");
    }

    #[test]
    fn full_validation_enforces_the_speedup_on_wide_hosts() {
        let mut report = tiny_report(8);
        for e in &mut report.entries {
            if e.engine == "parallel" {
                e.best_ns = 4000; // no speedup at any thread count
            }
        }
        let text = report.to_json();
        validate(&text, false).expect("quick validation ignores the ratio");
        let err = validate(&text, true).unwrap_err();
        assert!(err.contains("1.8"), "{err}");
    }

    #[test]
    fn full_validation_waives_the_speedup_on_narrow_hosts() {
        // Same no-speedup numbers, but recorded on a 1-thread host: the
        // ratio criterion cannot apply there.
        let mut report = tiny_report(1);
        for e in &mut report.entries {
            if e.engine == "parallel" {
                e.best_ns = 4000;
            }
        }
        validate(&report.to_json(), true).expect("narrow-host full validation");
    }

    #[test]
    fn validation_rejects_thin_coverage() {
        let mut report = tiny_report(8);
        report.entries.retain(|e| e.family == "random50");
        let err = validate(&report.to_json(), false).unwrap_err();
        assert!(err.contains("coverage"), "{err}");
    }

    #[test]
    fn quick_sweep_smoke() {
        let report = run_parallel(true, |_| {});
        validate(&report.to_json(), false).expect("fresh quick sweep validates");
    }
}
