//! **Ablation** (this repository's addition) — what each of the paper's
//! techniques costs or saves in runtime.
//!
//! The paper attributes its tractability to pseudo aggressors (§3.1) and
//! dominance pruning (§3.2); §3.3 adds higher-order aggressors. Each row
//! switches one of them off (or validation, or changes the beam cap)
//! and reports the median wall-clock time of a top-k run in both modes.
//! The quality side of the ablation is a test:
//! `crates/core/tests/paper_scenarios.rs::dominance_pruning_preserves_soundness`.
//!
//! Usage:
//! `cargo run --release -p dna-bench --bin ablation [--circuits i1,i2] [--kmax 10] [--seed S]`
//! (`--kmax` is the k of every run).

use std::time::{Duration, Instant};

use dna_bench::{secs, HarnessArgs, Table};
use dna_topk::{Mode, TopKAnalysis, TopKConfig};

/// Timed runs per cell; the median is reported.
const RUNS: usize = 5;

fn variants() -> Vec<(String, TopKConfig)> {
    let base = TopKConfig::default();
    let beam = base.max_list_width.map_or_else(|| "none".to_owned(), |w| w.to_string());
    let mut out = vec![
        (format!("full (beam {beam})"), base),
        ("no_dominance".to_owned(), TopKConfig { dominance_pruning: false, ..base }),
        ("no_pseudo".to_owned(), TopKConfig { pseudo_aggressors: false, ..base }),
        ("no_higher_order".to_owned(), TopKConfig { higher_order: false, ..base }),
        ("no_validation".to_owned(), TopKConfig { validate: false, ..base }),
    ];
    for width in [4usize, 12, 48] {
        out.push((format!("beam {width}"), TopKConfig { max_list_width: Some(width), ..base }));
    }
    out
}

fn median_runtime(engine: &TopKAnalysis<'_>, mode: Mode, k: usize) -> Duration {
    let mut times: Vec<Duration> = (0..RUNS)
        .map(|_| {
            let start = Instant::now();
            match mode {
                Mode::Addition => engine.addition_set(k),
                Mode::Elimination => engine.elimination_set(k),
            }
            .expect("analysis succeeds");
            start.elapsed()
        })
        .collect();
    times.sort();
    times[RUNS / 2]
}

fn main() {
    let args = HarnessArgs::parse(&["i1", "i2"], 10);
    let k = args.kmax;
    let circuits = args.load_circuits().expect("known circuit names");
    let modes = [(Mode::Addition, "add"), (Mode::Elimination, "del")];

    println!("Ablation — median of {RUNS} runs per cell, k = {k} (seed {})\n", args.seed);
    let mut header = vec!["variant".to_owned()];
    for (name, _) in &circuits {
        header.extend(modes.iter().map(|(_, tag)| format!("{tag} {name} (s)")));
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new(&header_refs);

    for (label, config) in variants() {
        eprintln!("[ablation] {label}");
        let mut row = vec![label];
        for (_, circuit) in &circuits {
            let engine = TopKAnalysis::new(circuit, config);
            row.extend(modes.iter().map(|&(mode, _)| secs(median_runtime(&engine, mode, k))));
        }
        table.row(row);
    }
    println!("{}", table.render());
}
