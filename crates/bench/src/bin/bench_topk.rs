//! The tracked serial-vs-parallel scaling benchmark.
//!
//! Writes `BENCH_topk.json` (schema `dna_bench::topk_bench::SCHEMA`) and
//! prints the timing table. `dna bench --json` is the CLI front end for
//! the same harness.
//!
//! ```text
//! cargo run --release -p dna-bench --bin bench_topk -- \
//!     [--circuits i1,i5,i10] [--k 10] [--samples 1] [--seed 42] \
//!     [--quick] [--out BENCH_topk.json]
//! ```

use dna_bench::topk_bench::{run, BenchSpec};

fn main() {
    let mut spec = BenchSpec::default();
    let mut out_path = String::from("BENCH_topk.json");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--circuits" => {
                i += 1;
                let list = args.get(i).expect("--circuits needs a value");
                spec.circuits = list.split(',').map(str::to_owned).collect();
            }
            "--k" => {
                i += 1;
                spec.k = args.get(i).and_then(|s| s.parse().ok()).expect("--k needs an integer");
            }
            "--samples" => {
                i += 1;
                spec.samples =
                    args.get(i).and_then(|s| s.parse().ok()).expect("--samples needs an integer");
            }
            "--seed" => {
                i += 1;
                spec.seed =
                    args.get(i).and_then(|s| s.parse().ok()).expect("--seed needs an integer");
            }
            "--quick" => {
                spec.circuits = vec!["i1".into()];
                spec.k = spec.k.min(3);
            }
            "--out" => {
                i += 1;
                out_path = args.get(i).expect("--out needs a path").clone();
            }
            other => panic!(
                "unknown argument `{other}`\n\
                 usage: [--circuits i1,i5,i10] [--k N] [--samples N] [--seed S] \
                 [--quick] [--out FILE]"
            ),
        }
        i += 1;
    }

    let report = match run(&spec) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("bench failed: {e}");
            std::process::exit(1);
        }
    };
    print!("{}", report.render_table());
    if let Err(e) = std::fs::write(&out_path, report.to_json()) {
        eprintln!("cannot write `{out_path}`: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out_path} (host_threads = {})", report.host_threads);
    if report.entries.iter().any(|e| !e.identical_to_serial) {
        eprintln!("ERROR: a parallel run diverged from its serial reference");
        std::process::exit(1);
    }
    if report.batch.iter().any(|e| !e.identical_to_sequential) {
        eprintln!("ERROR: a batch scenario diverged from its sequential reference");
        std::process::exit(1);
    }
}
