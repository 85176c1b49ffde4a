//! `experiments` — prints the paper-claim tables E1–E16 as markdown (README's
//! build section has the run line).
//!
//! ```text
//! experiments all            # every experiment at full scale
//! experiments e3 e5          # selected experiments
//! experiments --quick all    # small sweeps (seconds, for smoke testing)
//! experiments --list         # experiment ids and what they reproduce
//! ```

use slap_bench::{experiments, Scale};

const DESCRIPTIONS: &[(&str, &str)] = &[
    ("e1", "Lemma 1/2: O(n) with unit-cost union-find"),
    ("e2", "Theorem 3: Blum k-UF trees, O(n·lg n/lg lg n)"),
    ("e3", "S3: Tarjan UF near-linear typical / O(n lg n) worst"),
    ("e4", "Fig. 3: naive label passing vs Algorithm CC"),
    ("e5", "Intro: divide&conquer SLAP baseline (Theta(n lg n))"),
    ("e6", "Intro: mesh (n^2 PEs) resource comparison"),
    ("e7", "Corollary 4: component folds of initial labels"),
    ("e8", "Theorem 5: 1-bit links need Omega(n lg n)"),
    ("e9", "S3 variants: idle compression, eager forwarding"),
    ("e10", "S3/[21]: union-find implementation family"),
    ("e11", "ours: threaded lock-step executor scaling"),
    (
        "e12",
        "S3: interval structure of the phase-2 union sequence",
    ),
    ("e13", "ours: run-length vs per-pixel pass ablation"),
    ("e14", "ours: 8-connectivity extension cost parity"),
    (
        "e15",
        "Intro: hypercube (n^2 PEs, polylog time) resource comparison",
    ),
    (
        "e16",
        "S3: speculative forwarding with quashing (lock-step)",
    ),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Full;
    let mut names: Vec<String> = Vec::new();
    for a in &args {
        match a.as_str() {
            "--quick" | "-q" => scale = Scale::Quick,
            "--list" | "-l" => {
                for (id, desc) in DESCRIPTIONS {
                    println!("{id:5} {desc}");
                }
                return;
            }
            "--help" | "-h" => {
                eprintln!("usage: experiments [--quick] (all | e1 .. e16)+");
                return;
            }
            other => names.push(other.to_string()),
        }
    }
    if names.is_empty() {
        eprintln!("usage: experiments [--quick] (all | e1 .. e16)+  (see --list)");
        std::process::exit(2);
    }
    for name in &names {
        match experiments::by_name(name, scale) {
            Some(tables) => {
                for t in tables {
                    print!("{}", t.to_markdown());
                }
            }
            None => {
                eprintln!("unknown experiment {name:?}; see --list");
                std::process::exit(2);
            }
        }
    }
}
