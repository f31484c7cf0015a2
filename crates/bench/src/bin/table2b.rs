//! **Table 2(b)** — circuit delay and runtime of the top-k aggressors
//! *elimination* set across the i1–i10 benchmark suite.
//!
//! Per circuit the paper reports the fully-noisy delay (k = 0) and the
//! delay after fixing the top-k couplings for k ∈ {5,10,20,30,40,50},
//! plus runtimes. Expected shape: delays fall from the all-aggressor
//! bound toward the noiseless bound as the fix budget grows.
//!
//! The one-pass paper algorithm is used by default; pass `--peeled` to
//! use the iterative peeling extension (better fix quality, ~k/step times
//! the cost).
//!
//! Usage:
//! `cargo run --release -p dna-bench --bin table2b [--circuits i1,i2] [--kmax 50] [--quick]`

use dna_bench::{ns, secs, HarnessArgs, Table};
use dna_noise::{CouplingMask, NoiseAnalysis};
use dna_topk::{TopKAnalysis, TopKConfig};

fn main() {
    // `--peeled` is specific to this binary; strip it before shared parsing.
    let peeled = std::env::args().any(|a| a == "--peeled");
    let filtered: Vec<String> = std::env::args().filter(|a| a != "--peeled").collect();
    let args = HarnessArgs::parse_from(
        &filtered[1..],
        &["i1", "i2", "i3", "i4", "i5", "i6", "i7", "i8", "i9", "i10"],
        50,
    );

    let ks: Vec<usize> =
        [5usize, 10, 20, 30, 40, 50].into_iter().filter(|&k| k <= args.kmax).collect();

    println!(
        "Table 2(b) — top-k aggressors elimination set ({}, seed {})\n",
        if peeled { "peeled extension" } else { "one-pass paper algorithm" },
        args.seed
    );
    let mut header: Vec<String> =
        vec!["ckt".into(), "gates".into(), "nets".into(), "ccs".into(), "k=0".into()];
    header.extend(ks.iter().map(|k| format!("k={k}")));
    header.push("noiseless".into());
    header.extend(ks.iter().map(|k| format!("t{k} (s)")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new(&header_refs);

    for (name, circuit) in args.load_circuits().expect("known circuit names") {
        eprintln!("[table2b] {name} ({})", circuit.stats());
        let engine = TopKAnalysis::new(&circuit, TopKConfig::default());
        let noise = NoiseAnalysis::new(&circuit, TopKConfig::default().noise);
        let all_agg = noise.run().expect("noise analysis succeeds").circuit_delay();
        let no_agg = noise
            .run_with_mask(&CouplingMask::none(&circuit))
            .expect("noise analysis succeeds")
            .circuit_delay();

        let mut delays = Vec::new();
        let mut runtimes = Vec::new();
        for &k in &ks {
            let r = if peeled {
                engine.elimination_set_peeled(k, (k / 5).max(1))
            } else {
                engine.elimination_set(k)
            }
            .expect("analysis succeeds");
            eprintln!("[table2b]   k={k}: {} in {:?}", ns(r.delay_after()), r.runtime());
            delays.push(ns(r.delay_after()));
            runtimes.push(secs(r.runtime()));
        }

        let mut row = vec![
            name,
            circuit.num_gates().to_string(),
            circuit.num_nets().to_string(),
            circuit.num_couplings().to_string(),
            ns(all_agg),
        ];
        row.extend(delays);
        row.push(ns(no_agg));
        row.extend(runtimes);
        table.row(row);
    }
    println!("{}", table.render());
    println!(
        "delays in ns; expected shape: all agg (k=0) >= k-columns (falling with k) >= noiseless"
    );
}
