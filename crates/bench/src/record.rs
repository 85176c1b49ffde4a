//! The one `slap-bench` file shape: the entry, the header, the writer, the
//! parser, and the data-driven validator every recorder shares.
//!
//! Every committed `BENCH_<recorder>.json` is one [`Report`]: a header
//! (`schema`, `recorder`, `scale`, `seed`, `host_threads`, the swept
//! `families` / `sides` / `conns`), a list of [`Entry`]s — one per timed
//! (family, size, connectivity, engine, config) point, each carrying an
//! optional `matches_reference` flag and named `u64` counters such as
//! `best_ns` / `mean_ns` / `reps` — and a `ratios` list the writer derives
//! from the entries. A recorder contributes only its run function and a
//! [`Spec`]: the counters its entries must carry, per-entry [`Bound`]s,
//! point [`Cover`]age, and headline [`Ratio`]s with their [`Gate`]s.
//! [`validate`] enforces a spec; [`check`] dispatches a file to its
//! recorder's spec through [`RECORDERS`].

use crate::json::{self, Json};
use crate::sweep::{conn_id, Point, CONNS, SEED};
use crate::{baseline, propagate, reuse, serve, stream, tiled};

/// Schema identifier stamped into (and required from) every bench file.
pub const SCHEMA: &str = "slap-bench/v1";

/// The counters every timed entry carries.
pub const TIMED: &[&str] = &["best_ns", "mean_ns", "reps"];

/// One recorded point.
#[derive(Clone, Debug, PartialEq)]
pub struct Entry {
    /// Workload family name (a `gen::by_name` key).
    pub family: String,
    /// Image side (the image is `n × n`).
    pub n: u64,
    /// Adjacency convention: `4` or `8`.
    pub conn: u64,
    /// What was run: an engine id, a service mode, or a machine comparison.
    pub engine: String,
    /// The engine's configuration (tile grid, session temperature, client
    /// count), empty when it has one.
    pub config: String,
    /// Worker threads.
    pub threads: u64,
    /// Whether the output matched the recorder's reference, where checked.
    pub matches_reference: Option<bool>,
    /// Named counters, in recording order.
    pub counters: Vec<(String, u64)>,
}

impl Entry {
    /// An entry with no counters yet.
    pub fn new(
        family: &str,
        n: usize,
        conn: u32,
        engine: &str,
        config: &str,
        threads: usize,
    ) -> Self {
        Entry {
            family: family.to_string(),
            n: n as u64,
            conn: u64::from(conn),
            engine: engine.to_string(),
            config: config.to_string(),
            threads: threads as u64,
            matches_reference: None,
            counters: Vec::new(),
        }
    }

    /// An entry at a sweep point.
    pub fn at(p: &Point, engine: &str, config: &str, threads: usize) -> Self {
        Self::new(p.family, p.n, p.cid, engine, config, threads)
    }

    /// Adds one counter.
    pub fn count(mut self, name: &str, value: u64) -> Self {
        self.counters.push((name.to_string(), value));
        self
    }

    /// Adds the [`TIMED`] counters from a `(best_ns, mean_ns)` pair.
    pub fn timed(self, (best, mean): (u64, u64), reps: usize) -> Self {
        self.count("best_ns", best)
            .count("mean_ns", mean)
            .count("reps", reps as u64)
    }

    /// Records whether the output matched the reference.
    pub fn matching(mut self, ok: bool) -> Self {
        self.matches_reference = Some(ok);
        self
    }

    /// A counter's value.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }

    /// A counter, or the `n` / `threads` field, by name.
    fn value(&self, name: &str) -> Option<u64> {
        match name {
            "n" => Some(self.n),
            "threads" => Some(self.threads),
            _ => self.counter(name),
        }
    }

    /// `family/n/conn-conn engine config`.
    fn label(&self) -> String {
        let what = format!("{} {}", self.engine, self.config);
        format!(
            "{}/{}/{}-conn {}",
            self.family,
            self.n,
            self.conn,
            what.trim_end()
        )
    }

    /// One progress line: best time when timed, then the other counters.
    pub fn line(&self) -> String {
        let mut line = self.label();
        if let Some(best) = self.counter("best_ns") {
            line += &format!(": {:.3} ms", best as f64 / 1e6);
        }
        let rest: Vec<String> = self
            .counters
            .iter()
            .filter(|(k, _)| !TIMED.contains(&k.as_str()))
            .map(|(k, v)| format!("{k} {v}"))
            .collect();
        if !rest.is_empty() {
            line += &format!(" ({})", rest.join(", "));
        }
        line
    }
}

/// A finished sweep: the header plus every entry.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// The [`RECORDERS`] name that produced the file.
    pub recorder: String,
    /// `"quick"` or `"full"`.
    pub scale: String,
    /// Seed of the random workload families.
    pub seed: u64,
    /// `std::thread::available_parallelism()` on the recording host.
    pub host_threads: u64,
    /// Families swept.
    pub families: Vec<String>,
    /// Sides swept.
    pub sides: Vec<u64>,
    /// Connectivities swept.
    pub conns: Vec<u64>,
    /// All recorded points.
    pub entries: Vec<Entry>,
}

impl Report {
    /// A report of this host's sweep.
    pub fn new(
        recorder: &str,
        quick: bool,
        families: &[&str],
        sides: &[usize],
        entries: Vec<Entry>,
    ) -> Self {
        Report {
            recorder: recorder.to_string(),
            scale: if quick { "quick" } else { "full" }.to_string(),
            seed: SEED,
            host_threads: std::thread::available_parallelism().map_or(1, |p| p.get()) as u64,
            families: families.iter().map(|s| s.to_string()).collect(),
            sides: sides.iter().map(|&n| n as u64).collect(),
            conns: CONNS.iter().map(|&c| u64::from(conn_id(c))).collect(),
            entries,
        }
    }

    /// Writes the report as JSON, with the `ratios` its recorder's [`Spec`]
    /// derives. Hand-rolled (the workspace has no serde);
    /// [`Report::parse`] reads it back.
    pub fn to_json(&self) -> String {
        let strs = |v: &[String]| v.iter().map(|s| json::quote(s)).collect::<Vec<_>>();
        let nums = |v: &[u64]| v.iter().map(u64::to_string).collect::<Vec<_>>();
        let entries: Vec<String> = self
            .entries
            .iter()
            .map(|e| {
                let mut s = format!(
                    "{{\"family\": {}, \"n\": {}, \"conn\": {}, \"engine\": {}, \"config\": {}, \
                     \"threads\": {}",
                    json::quote(&e.family),
                    e.n,
                    e.conn,
                    json::quote(&e.engine),
                    json::quote(&e.config),
                    e.threads
                );
                if let Some(ok) = e.matches_reference {
                    s += &format!(", \"matches_reference\": {ok}");
                }
                for (k, v) in &e.counters {
                    s += &format!(", {}: {v}", json::quote(k));
                }
                s + "}"
            })
            .collect();
        let spec = recorder(&self.recorder)
            .map(|r| (r.spec)())
            .unwrap_or_default();
        let ratios: Vec<String> = derive_ratios(&self.entries, &spec)
            .iter()
            .map(|(_, r)| {
                format!(
                    "{{\"ratio\": {}, \"family\": {}, \"n\": {}, \"conn\": {}, \"value\": {:.3}}}",
                    json::quote(&r.label),
                    json::quote(&r.family),
                    r.n,
                    r.conn,
                    r.value
                )
            })
            .collect();
        let list = |items: Vec<String>, inner: &str| match items.is_empty() {
            true => "[]".to_string(),
            false => format!("[\n{inner}{}\n  ]", items.join(&format!(",\n{inner}"))),
        };
        format!(
            "{{\n  \"schema\": {},\n  \"recorder\": {},\n  \"scale\": {},\n  \"seed\": {},\n  \
             \"host_threads\": {},\n  \"families\": [{}],\n  \"sides\": [{}],\n  \
             \"conns\": [{}],\n  \"entries\": {},\n  \"ratios\": {}\n}}\n",
            json::quote(SCHEMA),
            json::quote(&self.recorder),
            json::quote(&self.scale),
            self.seed,
            self.host_threads,
            strs(&self.families).join(", "),
            nums(&self.sides).join(", "),
            nums(&self.conns).join(", "),
            list(entries, "    "),
            list(ratios, "    ")
        )
    }

    /// Parses a bench file, rejecting any other schema first (so a stale or
    /// foreign file is reported by its schema, not by a missing key). The
    /// recorded `ratios` are not read back: [`validate`] re-derives them.
    pub fn parse(text: &str) -> Result<Report, String> {
        let doc = json::parse(text)?;
        let schema = text_of(&doc, "schema")?;
        if schema != SCHEMA {
            return Err(format!("unknown schema {schema:?} (expected {SCHEMA:?})"));
        }
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("{key} is not an array"))
        };
        let strings = |key: &str| {
            list(key)?
                .iter()
                .map(|v| v.as_str().map(str::to_string))
                .collect::<Option<Vec<_>>>()
                .ok_or_else(|| format!("{key} holds a non-string"))
        };
        let uints = |key: &str| {
            list(key)?
                .iter()
                .map(Json::as_u64)
                .collect::<Option<Vec<_>>>()
                .ok_or_else(|| format!("{key} holds a non-integer"))
        };
        let entries = list("entries")?
            .iter()
            .enumerate()
            .map(|(i, v)| parse_entry(v).map_err(|m| format!("entry {i}: {m}")))
            .collect::<Result<_, _>>()?;
        Ok(Report {
            recorder: text_of(&doc, "recorder")?,
            scale: text_of(&doc, "scale")?,
            seed: uint_of(&doc, "seed")?,
            host_threads: uint_of(&doc, "host_threads")?,
            families: strings("families")?,
            sides: uints("sides")?,
            conns: uints("conns")?,
            entries,
        })
    }
}

fn text_of(obj: &Json, key: &str) -> Result<String, String> {
    match obj.get(key) {
        None => Err(format!("missing {key:?}")),
        Some(v) => v
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("{key} is not a string")),
    }
}

fn uint_of(obj: &Json, key: &str) -> Result<u64, String> {
    match obj.get(key) {
        None => Err(format!("missing {key:?}")),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| format!("{key} is not a non-negative integer")),
    }
}

/// One entry object: the fixed keys, then every other key as a counter.
fn parse_entry(v: &Json) -> Result<Entry, String> {
    const FIXED: &[&str] = &[
        "family",
        "n",
        "conn",
        "engine",
        "config",
        "threads",
        "matches_reference",
    ];
    let members = v.as_object().ok_or("not an object")?;
    let counters = members
        .iter()
        .filter(|(k, _)| !FIXED.contains(&k.as_str()))
        .map(|(k, c)| match c.as_u64() {
            Some(c) => Ok((k.clone(), c)),
            None => Err(format!("counter {k:?} is not a non-negative integer")),
        })
        .collect::<Result<_, String>>()?;
    let matches_reference = match v.get("matches_reference") {
        None => None,
        Some(b) => Some(b.as_bool().ok_or("matches_reference is not a boolean")?),
    };
    Ok(Entry {
        family: text_of(v, "family")?,
        n: uint_of(v, "n")?,
        conn: uint_of(v, "conn")?,
        engine: text_of(v, "engine")?,
        config: text_of(v, "config")?,
        threads: uint_of(v, "threads")?,
        matches_reference,
        counters,
    })
}

/// Entry selector: `(engine, config)`, where `"*"` matches anything.
#[derive(Clone, Copy, Debug)]
pub struct Sel(pub &'static str, pub &'static str);

impl Sel {
    /// Every entry.
    pub const ANY: Sel = Sel("*", "*");

    fn matches(self, e: &Entry) -> bool {
        (self.0 == "*" || self.0 == e.engine) && (self.1 == "*" || self.1 == e.config)
    }

    fn label(self) -> String {
        format!("{} {}", self.0, self.1).trim_end().to_string()
    }
}

/// Comparison of a [`Bound`].
#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// `lhs == rhs`
    Eq,
    /// `lhs < rhs`
    Lt,
    /// `lhs ≤ rhs`
    Le,
    /// `lhs ≥ rhs`
    Ge,
}

/// Right-hand side of a [`Bound`].
#[derive(Clone, Copy, Debug)]
pub enum Rhs {
    /// A constant.
    Const(u64),
    /// Another counter of the same entry.
    Of(&'static str),
    /// A function of the image side, with its formula for messages.
    N(fn(u64) -> u64, &'static str),
}

/// A per-entry bound: the sum of the `lhs` counters (or `n` / `threads`)
/// compared with `rhs`, on every entry `sel` matches.
#[derive(Clone, Copy, Debug)]
pub struct Bound {
    /// Entries the bound applies to.
    pub sel: Sel,
    /// Counters summed on the left.
    pub lhs: &'static [&'static str],
    /// The comparison.
    pub op: Op,
    /// The right-hand side.
    pub rhs: Rhs,
    /// What the bound witnesses, named in the error.
    pub why: &'static str,
}

/// Point coverage: every (family, n, conn) point that holds any of `pairs`
/// must hold all of them, and each connectivity needs complete points on
/// at least `min_families` families × `min_sides` sides, including every
/// family in `families`. An entry whose (engine, config) is in no clause
/// is unknown to the recorder.
#[derive(Clone, Debug)]
pub struct Cover {
    /// The (engine, config) pairs a complete point carries.
    pub pairs: Vec<Sel>,
    /// Minimum distinct families of complete points per connectivity.
    pub min_families: usize,
    /// Minimum distinct sides of complete points per connectivity.
    pub min_sides: usize,
    /// Families that must be among the complete points.
    pub families: &'static [&'static str],
}

/// Bound of a [`Gate`].
#[derive(Clone, Copy, Debug)]
pub enum Cmp {
    /// `value ≥ x`
    AtLeast(f64),
    /// `value ≤ x`
    AtMost(f64),
}

/// An acceptance criterion on a derived [`Ratio`].
#[derive(Clone, Copy, Debug)]
pub struct Gate {
    /// What the gate witnesses, named in the error.
    pub why: &'static str,
    /// The headline (family, n) the gate reads; `None` gates every row.
    pub at: Option<(&'static str, u64)>,
    /// Connectivities read at the headline point.
    pub conns: &'static [u64],
    /// The bound.
    pub bound: Cmp,
    /// Applied only under `--require-full`.
    pub full_only: bool,
    /// Applied only when the recording host had this many threads.
    pub min_host_threads: u64,
}

impl Gate {
    /// A full-scale gate at `random50` @ 2048².
    pub const fn headline(why: &'static str, bound: Cmp, conns: &'static [u64]) -> Gate {
        Gate {
            why,
            at: Some(("random50", 2048)),
            conns,
            bound,
            full_only: true,
            min_host_threads: 1,
        }
    }
}

/// A derived ratio `num.best_ns / den.best_ns`, one row per `den` entry
/// whose `num` partner was recorded at the same point. A `"*"` engine in
/// `num` pairs each `den` entry with the same engine's `num` config.
#[derive(Clone, Copy, Debug)]
pub struct Ratio {
    /// Numerator entries.
    pub num: Sel,
    /// Denominator entries.
    pub den: Sel,
    /// `(num conn, den conn)` for a cross-connectivity ratio.
    pub conns: Option<(u64, u64)>,
    /// The criterion on the ratio, if any.
    pub gate: Option<Gate>,
}

impl Ratio {
    /// A same-point ratio with no gate.
    pub const fn new(num: Sel, den: Sel) -> Ratio {
        Ratio {
            num,
            den,
            conns: None,
            gate: None,
        }
    }

    /// The ratio with `gate`.
    pub const fn gated(self, gate: Gate) -> Ratio {
        Ratio {
            gate: Some(gate),
            ..self
        }
    }
}

/// One derived ratio row.
struct RatioRow {
    /// `num/den`, engines and configs spelled out.
    label: String,
    family: String,
    n: u64,
    /// Connectivity of the denominator.
    conn: u64,
    /// `num.best_ns / den.best_ns`.
    value: f64,
}

/// A recorder's acceptance criteria, as data.
#[derive(Clone, Debug, Default)]
pub struct Spec {
    /// Counters each selected entry must carry.
    pub need: Vec<(Sel, &'static [&'static str])>,
    /// Entries that must record `matches_reference`.
    pub reference: Vec<Sel>,
    /// Per-entry bounds.
    pub bounds: Vec<Bound>,
    /// Point coverage clauses.
    pub cover: Vec<Cover>,
    /// Derived ratios and their gates.
    pub ratios: Vec<Ratio>,
}

/// Every ratio row `spec` derives from `entries`, with its ratio's index.
fn derive_ratios(entries: &[Entry], spec: &Spec) -> Vec<(usize, RatioRow)> {
    let mut rows = Vec::new();
    for (i, r) in spec.ratios.iter().enumerate() {
        let (num_conn, den_conn) = r.conns.map_or((None, None), |(a, b)| (Some(a), Some(b)));
        for d in entries.iter().filter(|d| r.den.matches(d)) {
            if den_conn.is_some_and(|c| c != d.conn) {
                continue;
            }
            let engine = if r.num.0 == "*" {
                d.engine.as_str()
            } else {
                r.num.0
            };
            let num_conn = num_conn.unwrap_or(d.conn);
            let top = entries
                .iter()
                .find(|e| {
                    (e.family == d.family && e.n == d.n && e.conn == num_conn)
                        && e.engine == engine
                        && r.num.matches(e)
                })
                .and_then(|e| e.counter("best_ns"));
            let (Some(top), Some(bottom)) = (top, d.counter("best_ns")) else {
                continue;
            };
            let side = |s: Sel, conn: u64| {
                let engine = if s.0 == "*" { d.engine.as_str() } else { s.0 };
                let l = format!("{engine} {}", s.1).trim_end().to_string();
                match r.conns {
                    Some(_) => format!("{l} {conn}-conn"),
                    None => l,
                }
            };
            rows.push((
                i,
                RatioRow {
                    label: format!("{}/{}", side(r.num, num_conn), side(r.den, d.conn)),
                    family: d.family.clone(),
                    n: d.n,
                    conn: d.conn,
                    value: top as f64 / bottom.max(1) as f64,
                },
            ));
        }
    }
    rows
}

/// Validates a parsed bench file against its recorder's spec. Always
/// enforced: a known scale, a positive `host_threads`, every entry inside
/// the header's sweep with a known (engine, config), the spec's counters,
/// reference flags (none recorded `false`) and bounds, `mean_ns ≥ best_ns`
/// and `reps > 0` on timed entries, point coverage, and the gates that are
/// not full-only. With `require_full` the file must be a full-scale sweep
/// meeting every gate its `host_threads` admits.
pub fn validate(doc: &Report, spec: &Spec, require_full: bool) -> Result<(), String> {
    match doc.scale.as_str() {
        "full" => {}
        "quick" if !require_full => {}
        "quick" => return Err("a full-scale sweep is required (scale is quick)".to_string()),
        other => return Err(format!("scale {other:?} is neither quick nor full")),
    }
    if doc.host_threads == 0 {
        return Err("host_threads must be positive".to_string());
    }
    if doc.sides.contains(&0) || doc.conns.iter().any(|c| *c != 4 && *c != 8) {
        return Err("sides must be positive and conns 4 or 8".to_string());
    }
    if doc.entries.is_empty() {
        return Err("entries is empty".to_string());
    }
    for (i, e) in doc.entries.iter().enumerate() {
        check_entry(doc, spec, e).map_err(|m| format!("entry {i} ({}): {m}", e.label()))?;
    }
    for cover in &spec.cover {
        check_cover(cover, &doc.entries)?;
    }
    let rows = derive_ratios(&doc.entries, spec);
    for (i, r) in spec.ratios.iter().enumerate() {
        let Some(g) = r.gate else { continue };
        if (g.full_only && !require_full) || doc.host_threads < g.min_host_threads {
            continue;
        }
        let mine: Vec<&RatioRow> = rows
            .iter()
            .filter(|(j, _)| *j == i)
            .map(|(_, row)| row)
            .collect();
        let at = |row: &RatioRow, (family, n): (&str, u64), conn: u64| {
            row.family == family && row.n == n && row.conn == conn
        };
        if let Some(point) = g.at {
            if let Some(c) = g
                .conns
                .iter()
                .find(|&&c| !mine.iter().any(|row| at(row, point, c)))
            {
                return Err(format!(
                    "{}: no {}/{} ratio at {} @ {} ({c}-conn)",
                    g.why,
                    r.num.label(),
                    r.den.label(),
                    point.0,
                    point.1
                ));
            }
        }
        let gated = mine.iter().filter(|row| {
            g.at.is_none_or(|point| g.conns.iter().any(|&c| at(row, point, c)))
        });
        for row in gated {
            let (ok, need) = match g.bound {
                Cmp::AtLeast(x) => (row.value >= x, format!("≥ {x}×")),
                Cmp::AtMost(x) => (row.value <= x, format!("≤ {x}×")),
            };
            if !ok {
                let host = match g.min_host_threads {
                    1 => String::new(),
                    t => format!(" on a host with ≥ {t} threads"),
                };
                return Err(format!(
                    "{}: {} is {:.3}× on {} @ {} ({}-conn); need {need}{host}",
                    g.why, row.label, row.value, row.family, row.n, row.conn
                ));
            }
        }
    }
    Ok(())
}

/// The per-entry rules of [`validate`].
fn check_entry(doc: &Report, spec: &Spec, e: &Entry) -> Result<(), String> {
    if !doc.families.contains(&e.family) || !doc.sides.contains(&e.n) {
        return Err("family or side is not in the header's sweep".to_string());
    }
    if !doc.conns.contains(&e.conn) || e.threads == 0 {
        return Err("conn is not swept or threads is zero".to_string());
    }
    if !spec
        .cover
        .iter()
        .any(|c| c.pairs.iter().any(|s| s.matches(e)))
    {
        return Err(format!(
            "unknown engine/config {:?} {:?} for recorder {:?}",
            e.engine, e.config, doc.recorder
        ));
    }
    for (_, names) in spec.need.iter().filter(|(s, _)| s.matches(e)) {
        if let Some(name) = names.iter().find(|k| e.counter(k).is_none()) {
            return Err(format!("missing counter {name:?}"));
        }
    }
    if let Some(best) = e.counter("best_ns") {
        if best == 0 || e.counter("mean_ns").is_none_or(|m| m < best) {
            return Err("best_ns is zero or mean_ns is missing or below it".to_string());
        }
        if e.counter("reps").unwrap_or(0) == 0 {
            return Err("reps must be positive".to_string());
        }
    }
    if spec.reference.iter().any(|s| s.matches(e)) && e.matches_reference.is_none() {
        return Err("missing matches_reference".to_string());
    }
    if e.matches_reference == Some(false) {
        return Err("output does not match the reference (matches_reference: false)".to_string());
    }
    for b in spec.bounds.iter().filter(|b| b.sel.matches(e)) {
        let mut lhs = 0u64;
        for name in b.lhs {
            let v = e.value(name);
            lhs = lhs
                .saturating_add(v.ok_or_else(|| format!("{}: missing counter {name:?}", b.why))?);
        }
        let (rhs, what) = match b.rhs {
            Rhs::Const(c) => (c, c.to_string()),
            Rhs::Of(name) => (
                e.value(name)
                    .ok_or_else(|| format!("{}: missing counter {name:?}", b.why))?,
                name.to_string(),
            ),
            Rhs::N(f, formula) => (f(e.n), formula.to_string()),
        };
        let (ok, op) = match b.op {
            Op::Eq => (lhs == rhs, "=="),
            Op::Lt => (lhs < rhs, "<"),
            Op::Le => (lhs <= rhs, "≤"),
            Op::Ge => (lhs >= rhs, "≥"),
        };
        if !ok {
            return Err(format!(
                "{}: {} = {lhs}, need {op} {what} = {rhs}",
                b.why,
                b.lhs.join(" + ")
            ));
        }
    }
    Ok(())
}

/// One [`Cover`] clause over both connectivities.
fn check_cover(c: &Cover, entries: &[Entry]) -> Result<(), String> {
    let pairs: Vec<String> = c.pairs.iter().map(|s| s.label()).collect();
    for conn in [4u64, 8] {
        let at = |e: &Entry| e.conn == conn && c.pairs.iter().any(|s| s.matches(e));
        let mut points: Vec<(&str, u64)> = entries
            .iter()
            .filter(|e| at(e))
            .map(|e| (e.family.as_str(), e.n))
            .collect();
        points.sort_unstable();
        points.dedup();
        for &(family, n) in &points {
            let has = |s: &Sel| {
                entries
                    .iter()
                    .any(|e| e.family == family && e.n == n && e.conn == conn && s.matches(e))
            };
            if let Some(s) = c.pairs.iter().find(|s| !has(s)) {
                return Err(format!(
                    "coverage hole: {family}/{n}/{conn}-conn lacks {}",
                    s.label()
                ));
            }
        }
        let mut families: Vec<&str> = points.iter().map(|p| p.0).collect();
        families.dedup();
        let mut sides: Vec<u64> = points.iter().map(|p| p.1).collect();
        sides.sort_unstable();
        sides.dedup();
        if families.len() < c.min_families || sides.len() < c.min_sides {
            return Err(format!(
                "coverage too thin at {conn}-connectivity: {} families × {} sizes carry [{}] \
                 (need ≥ {} × ≥ {})",
                families.len(),
                sides.len(),
                pairs.join(", "),
                c.min_families,
                c.min_sides
            ));
        }
        if let Some(f) = c.families.iter().find(|f| !families.contains(f)) {
            return Err(format!(
                "family {f:?} is not covered at {conn}-connectivity"
            ));
        }
    }
    Ok(())
}

/// A recorder's sweep: `true` runs the quick scale; the callback receives
/// one progress line per entry.
pub type Run = fn(bool, &mut dyn FnMut(&str)) -> Report;

/// One `slap-bench` recorder: its sweep and its acceptance criteria. The
/// CLI's default output is `BENCH_<name>.json`.
pub struct Recorder {
    /// Subcommand and `recorder` header value.
    pub name: &'static str,
    /// Runs the sweep.
    pub run: Run,
    /// The acceptance criteria.
    pub spec: fn() -> Spec,
}

/// Every recorder, in CLI order.
pub const RECORDERS: &[Recorder] = &[
    Recorder {
        name: "baseline",
        run: baseline::run,
        spec: baseline::spec,
    },
    Recorder {
        name: "tiled",
        run: tiled::run,
        spec: tiled::spec,
    },
    Recorder {
        name: "stream",
        run: stream::run,
        spec: stream::spec,
    },
    Recorder {
        name: "reuse",
        run: reuse::run,
        spec: reuse::spec,
    },
    Recorder {
        name: "serve",
        run: serve::run,
        spec: serve::spec,
    },
    Recorder {
        name: "propagate",
        run: propagate::run,
        spec: propagate::spec,
    },
];

/// The recorder named `name`.
pub fn recorder(name: &str) -> Option<&'static Recorder> {
    RECORDERS.iter().find(|r| r.name == name)
}

/// Parses a bench file and validates it against its recorder's spec.
pub fn check(text: &str, require_full: bool) -> Result<(), String> {
    let doc = Report::parse(text)?;
    let rec = recorder(&doc.recorder).ok_or_else(|| {
        let known: Vec<&str> = RECORDERS.iter().map(|r| r.name).collect();
        format!(
            "unknown recorder {:?} (known: {})",
            doc.recorder,
            known.join(", ")
        )
    })?;
    validate(&doc, &(rec.spec)(), require_full)
}

/// Declares one `#[test]` per rejection-table row: `name: require_full,
/// mutation => expected`, where the mutation edits a fresh fixture and the
/// expected result is `Ok(())` or `Err(text the error must contain)`.
#[cfg(test)]
macro_rules! rows {
    ($fixture:expr; $($name:ident: $full:expr, $mutate:expr => $want:expr;)+) => {
        $(
            #[test]
            fn $name() {
                $crate::record::table::row($fixture, $mutate, $full, $want);
            }
        )+
    };
}

#[cfg(test)]
pub(crate) use rows;

/// The row runner and the checks every recorder's fixture passes.
#[cfg(test)]
pub(crate) mod table {
    use super::*;

    /// Mutates `doc`, writes it, and checks the file as `slap-bench check`
    /// would.
    pub fn row(
        mut doc: Report,
        mutate: impl FnOnce(&mut Report),
        require_full: bool,
        want: Result<(), &str>,
    ) {
        mutate(&mut doc);
        let got = check(&doc.to_json(), require_full);
        match (&got, want) {
            (Ok(()), Ok(())) => {}
            (Err(e), Err(w)) if e.contains(w) => {}
            _ => panic!("got {got:?}, want {want:?}"),
        }
    }

    /// The fixture survives write → parse unchanged and validates at both
    /// scales.
    pub fn roundtrips(doc: Report) {
        let text = doc.to_json();
        assert_eq!(Report::parse(&text).expect("parse"), doc);
        check(&text, false).expect("quick validation");
        check(&text, true).expect("full validation");
    }

    /// A file claiming another schema is rejected by its schema.
    pub fn rejects_wrong_schema(doc: Report) {
        let text = doc.to_json().replace(SCHEMA, "bogus/v0");
        let err = check(&text, false).unwrap_err();
        assert!(err.contains("unknown schema \"bogus/v0\""), "{err}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn tiny() -> Report {
        let entries = ["random50", "blobs"]
            .iter()
            .flat_map(|f| [64usize, 128, 256].map(|n| (f, n)))
            .flat_map(|(f, n)| [4u32, 8].map(|c| (f, n, c)))
            .map(|(f, n, c)| {
                Entry::new(f, n, c, "stream", "", 1)
                    .timed((10, 10), 1)
                    .matching(true)
                    .count("rows_per_s", 1)
                    .count("peak_frontier_runs", 1)
                    .count("peak_nodes", 1)
            })
            .collect();
        Report::new(
            "stream",
            true,
            &["random50", "blobs"],
            &[64, 128, 256],
            entries,
        )
    }

    #[test]
    fn check_names_an_unknown_schema() {
        let text = tiny().to_json().replace(SCHEMA, "slap-bench-nope/v1");
        let err = check(&text, false).unwrap_err();
        assert_eq!(
            err,
            "unknown schema \"slap-bench-nope/v1\" (expected \"slap-bench/v1\")"
        );
        // A file of a retired per-recorder schema is reported the same way,
        // not by the first key it lacks.
        let err = check(r#"{"schema": "slap-bench-tiled/v1", "entries": []}"#, false).unwrap_err();
        assert!(
            err.starts_with("unknown schema \"slap-bench-tiled/v1\""),
            "{err}"
        );
    }

    rows! { tiny();
        check_names_an_unknown_recorder: false, |r| r.recorder = "parallel".into()
            => Err("unknown recorder \"parallel\" (known: baseline, tiled, stream, reuse, serve, propagate)");
        check_rejects_entries_outside_the_header: false, |r| r.sides.retain(|&n| n != 64)
            => Err("family or side is not in the header's sweep");
        check_rejects_unknown_scales: false, |r| r.scale = "medium".into()
            => Err("scale \"medium\" is neither quick nor full");
        check_rejects_mean_below_best: false, |r| r.entries[0].counters[1].1 = 9
            => Err("mean_ns is missing or below it");
        check_rejects_zero_reps: false, |r| r.entries[0].counters[2].1 = 0
            => Err("reps must be positive");
        check_rejects_empty_files: false, |r| r.entries.clear() => Err("entries is empty");
    }

    #[test]
    fn parse_rejects_malformed_entries() {
        let text = tiny().to_json();
        for (from, to, want) in [
            (
                "\"n\": 64,",
                "\"n\": -64,",
                "entry 0: n is not a non-negative integer",
            ),
            (
                "\"rows_per_s\": 1",
                "\"rows_per_s\": \"x\"",
                "counter \"rows_per_s\" is not",
            ),
            (
                "\"matches_reference\": true",
                "\"matches_reference\": 1",
                "not a boolean",
            ),
            (
                "\"engine\": \"stream\", ",
                "",
                "entry 0: missing \"engine\"",
            ),
        ] {
            let err = check(&text.replacen(from, to, 1), false).unwrap_err();
            assert!(err.contains(want), "{from} -> {to}: {err}");
        }
    }

    /// Every committed `BENCH_*.json` passes `check --require-full`, is
    /// exactly what the writer emits for its contents, and each recorder
    /// has exactly one, named after it.
    #[test]
    fn committed_files_pass_full_validation() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut seen = Vec::new();
        for file in std::fs::read_dir(&root).expect("repo root") {
            let name = file.expect("dir entry").file_name().into_string().unwrap();
            let Some(rec) = name
                .strip_prefix("BENCH_")
                .and_then(|s| s.strip_suffix(".json"))
            else {
                continue;
            };
            let text = std::fs::read_to_string(root.join(&name)).unwrap();
            check(&text, true).unwrap_or_else(|e| panic!("{name}: {e}"));
            let doc = Report::parse(&text).unwrap();
            assert_eq!(doc.recorder, rec, "{name}");
            // Written by the one writer: canonical layout, derived ratios.
            assert_eq!(doc.to_json(), text, "{name}");
            seen.push(rec.to_string());
        }
        seen.sort();
        let mut want: Vec<&str> = RECORDERS.iter().map(|r| r.name).collect();
        want.sort();
        assert_eq!(seen, want);
    }
}
