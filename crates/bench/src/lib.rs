//! Shared harness utilities for regenerating the paper's tables and
//! figures.
//!
//! Every binary in this crate reproduces one experiment:
//!
//! | target      | experiment |
//! |-------------|------------|
//! | `table1`    | Table 1 — proposed vs. brute force, k = 1..4 |
//! | `table2a`   | Table 2(a) — top-k addition sets, i1–i10 |
//! | `table2b`   | Table 2(b) — top-k elimination sets, i1–i10 |
//! | `figure10`  | Fig. 10 — addition/elimination convergence, k = 1..75 |
//! | `figure4`   | Fig. 4 — non-monotonicity demonstration |
//! | `ablation`  | runtime with each of the paper's techniques switched off |
//!
//! Speed claims about the engine come from the repository benchmark
//! (`perfbench/`, declared in `BENCHMARK.json`), not from these binaries.

// Accepted `clippy::pedantic` baseline. The CI_FULL pedantic triage in
// `ci.sh` is non-gating; this allowlist keeps its output limited to new
// findings. Numeric casts between index/size types are pervasive and
// intentional here, exact float comparison is the point of the
// bit-identity contracts, and short or similar names mirror the paper's
// notation.
#![allow(
    clippy::cast_lossless,
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_precision_loss,
    clippy::cast_sign_loss,
    clippy::doc_markdown,
    clippy::float_cmp,
    clippy::items_after_statements,
    clippy::many_single_char_names,
    clippy::missing_panics_doc,
    clippy::similar_names,
    clippy::too_many_lines
)]

use std::fmt::Write as _;

use dna_netlist::{suite, Circuit, NetlistError};

/// Default RNG seed used by every experiment so results are reproducible.
pub const DEFAULT_SEED: u64 = 42;

/// Simple command-line options shared by the table binaries.
///
/// Parsed by hand (the workspace carries no CLI dependency):
///
/// ```text
/// --circuits i1,i2,i5   restrict to these benchmark circuits
/// --kmax 20             cap the largest k exercised
/// --seed 7              change the generator seed
/// --quick               shorthand for small circuits and small k
/// ```
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Benchmark circuit names to run.
    pub circuits: Vec<String>,
    /// Largest k to exercise.
    pub kmax: usize,
    /// Generator seed.
    pub seed: u64,
    /// Quick mode (small circuits, small k).
    pub quick: bool,
}

impl HarnessArgs {
    /// Parses `std::env::args`, applying the given defaults.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments.
    #[must_use]
    pub fn parse(default_circuits: &[&str], default_kmax: usize) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::parse_from(&args, default_circuits, default_kmax)
    }

    /// Parses an explicit argument list (used by binaries that strip their
    /// own flags first).
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments.
    #[must_use]
    pub fn parse_from(args: &[String], default_circuits: &[&str], default_kmax: usize) -> Self {
        let mut out = Self {
            circuits: default_circuits.iter().map(|s| (*s).to_owned()).collect(),
            kmax: default_kmax,
            seed: DEFAULT_SEED,
            quick: false,
        };
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--circuits" => {
                    i += 1;
                    let list = args.get(i).expect("--circuits needs a value");
                    out.circuits = list.split(',').map(str::to_owned).collect();
                }
                "--kmax" => {
                    i += 1;
                    out.kmax =
                        args.get(i).and_then(|s| s.parse().ok()).expect("--kmax needs an integer");
                }
                "--seed" => {
                    i += 1;
                    out.seed =
                        args.get(i).and_then(|s| s.parse().ok()).expect("--seed needs an integer");
                }
                "--quick" => {
                    out.quick = true;
                    out.circuits = vec!["i1".into(), "i2".into(), "i3".into()];
                    out.kmax = out.kmax.min(10);
                }
                other => panic!(
                    "unknown argument `{other}`\n\
                     usage: [--circuits i1,i2] [--kmax N] [--seed S] [--quick]"
                ),
            }
            i += 1;
        }
        out
    }

    /// Generates the selected benchmark circuits.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown circuit names.
    pub fn load_circuits(&self) -> Result<Vec<(String, Circuit)>, NetlistError> {
        self.circuits
            .iter()
            .map(|name| suite::benchmark(name, self.seed).map(|c| (name.clone(), c)))
            .collect()
    }
}

/// A plain-text table printer with right-aligned columns, used to render
/// output shaped like the paper's tables.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new(header: &[&str]) -> Self {
        Self { header: header.iter().map(|s| (*s).to_owned()).collect(), rows: Vec::new() }
    }

    /// Appends one row (must match the header length).
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the header length.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders the table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:>w$}", w = w);
            }
            out.push('\n');
        };
        line(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }
}

/// Formats picoseconds as nanoseconds with three decimals (the paper
/// reports ns).
#[must_use]
pub fn ns(ps: f64) -> String {
    format!("{:.3}", ps / 1000.0)
}

/// Formats a duration in seconds with two decimals.
#[must_use]
pub fn secs(d: std::time::Duration) -> String {
    format!("{:.2}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["ckt", "delay"]);
        t.row(vec!["i1".into(), "0.546".into()]);
        t.row(vec!["i10".into(), "3.09".into()]);
        let s = t.render();
        assert!(s.contains("ckt"));
        assert_eq!(s.lines().count(), 4);
        // Right alignment: `i1` padded to the width of `ckt`/`i10`.
        assert!(s.lines().nth(2).unwrap().starts_with(" i1"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["x".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ns(546.0), "0.546");
        assert_eq!(secs(std::time::Duration::from_millis(1234)), "1.23");
    }

    #[test]
    fn load_circuits_resolves_names() {
        let args = HarnessArgs { circuits: vec!["i1".into()], kmax: 5, seed: 1, quick: false };
        let loaded = args.load_circuits().unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].1.num_gates(), 59);
        let bad = HarnessArgs { circuits: vec!["nope".into()], ..args };
        assert!(bad.load_circuits().is_err());
    }

    #[test]
    #[should_panic(expected = "--kmax needs an integer")]
    fn trailing_kmax_is_a_usage_error() {
        let _ = HarnessArgs::parse_from(&["--kmax".into()], &["i1"], 50);
    }

    #[test]
    #[should_panic(expected = "--circuits needs a value")]
    fn trailing_circuits_is_a_usage_error() {
        let _ = HarnessArgs::parse_from(&["--circuits".into()], &["i1"], 50);
    }
}
