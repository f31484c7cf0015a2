//! End-to-end and per-layer benchmark of the top-k aggressor engine.
//!
//! ```text
//! perfbench --workload <signoff-i5|eco-session-i3|serve-tenants-i1|all>
//!           --seed <n> --seconds <s> --trace <0|1> [--tiny] [--plant-mismatch]
//! ```
//!
//! Each workload generates its circuits from `--seed`, hands them to the
//! library only as `.ckt` text, measures a closed loop for `--seconds`,
//! checks every answer against an independent reference, prints a
//! human-readable report and, as its last line, one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). `--workload all` runs the three in turn. Any failed operation or fingerprint mismatch makes the
//! run exit non-zero. `--tiny` shrinks every workload to i1-sized inputs
//! for the smoke test; `--plant-mismatch` corrupts one reported
//! fingerprint so that test can see the check fail.

mod common;
mod eco;
mod json;
mod signoff;
mod tenants;

use common::Sheet;

pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
    pub plant_mismatch: bool,
}

/// Metrics of the untraced run, reported on every workload and gated in
/// `BENCHMARK.json`. Throughput is the gated speed metric: in a closed loop
/// it is the caller count over the mean latency, and it spreads less from
/// run to run than the median on this workload mix.
const END_TO_END: [(&str, &str); 2] = [("setup_s", "s"), ("requests_per_s", "1/s")];

/// Further end-to-end figures: printed in the report where the workload
/// defines them, not part of the JSON result line.
const REPORTED: [(&str, &str); 11] = [
    ("request_p50_ms", "ms"),
    ("request_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("signoff_s", "s"),
    ("addition_gain_ps", "ps"),
    ("elimination_gain_ps", "ps"),
    ("whatif_p50_ms", "ms"),
    ("whatif_p90_ms", "ms"),
    ("commit_p50_ms", "ms"),
    ("failed_frac", "ratio"),
    ("fingerprint_mismatches", "count"),
];

/// Metrics of the traced run. A metric a workload cannot observe reads 0.
const PER_LAYER: [(&str, &str); 46] = [
    ("netlist.parse_ms", "ms"),
    ("noise.fixpoint_ms", "ms"),
    ("noise.iterations", "count"),
    ("enumeration.generated", "count"),
    ("enumeration.bound_culled", "count"),
    ("enumeration.materialized", "count"),
    ("enumeration.cull_ratio", "ratio"),
    ("enumeration.peak_list_width", "count"),
    ("enumeration.candidates_per_busy_s", "1/s"),
    ("sched.busy_ms", "ms"),
    ("sched.tasks", "count"),
    ("sched.steals", "count"),
    ("sched.imbalance", "ratio"),
    ("sched.tail_task_share", "ratio"),
    ("sched.arena_bytes_reused", "bytes"),
    ("select.ms", "ms"),
    ("session.fork_ms", "ms"),
    ("session.apply_ms", "ms"),
    ("session.recomputed_victims", "count"),
    ("session.structural_dirty_victims", "count"),
    ("session.proven_clean_victims", "count"),
    ("session.resweep_ratio", "ratio"),
    ("session.proof_yield", "ratio"),
    ("persist.commit_ms", "ms"),
    ("persist.delta_bytes", "bytes"),
    ("persist.checkpoint_bytes", "bytes"),
    ("persist.delta_fraction", "ratio"),
    ("persist.save_ms", "ms"),
    ("persist.resume_ms", "ms"),
    ("serve.scenario_ms", "ms"),
    ("serve.batch_ms", "ms"),
    ("serve.query_ms", "ms"),
    ("serve.commit_ms", "ms"),
    ("serve.requests", "count"),
    ("serve.coalesced", "count"),
    ("serve.spills", "count"),
    ("serve.reloads", "count"),
    ("serve.reload_fallbacks", "count"),
    ("serve.overloaded", "count"),
    ("serve.reload_ratio", "ratio"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.bytes", "bytes"),
    ("trace.request_p50_ms", "ms"),
    ("trace.untraced_request_p50_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <signoff-i5|eco-session-i3|serve-tenants-i1|all> \
         --seed <n> --seconds <s> --trace <0|1> [--tiny] [--plant-mismatch]"
    );
    std::process::exit(2);
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        plant_mismatch: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => opts.workload = value(),
            "--seed" => opts.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                opts.seconds = value().parse().unwrap_or_else(|_| usage("bad --seconds"));
            }
            "--trace" => {
                opts.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--tiny" => opts.tiny = true,
            "--plant-mismatch" => opts.plant_mismatch = true,
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    if !opts.seconds.is_finite() || opts.seconds <= 0.0 {
        usage("--seconds must be a positive number");
    }
    opts
}

const WORKLOADS: [&str; 3] = ["signoff-i5", "eco-session-i3", "serve-tenants-i1"];

fn main() {
    let opts = parse_args();
    let workloads: Vec<&str> = match opts.workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        "" => usage("--workload is required"),
        w if WORKLOADS.contains(&w) => vec![w],
        other => usage(&format!("unknown workload `{other}`")),
    };
    let mut correct = true;
    for workload in workloads {
        correct &= run(&opts, workload);
    }
    if !correct {
        std::process::exit(1);
    }
}

/// Runs one workload, prints its report and result line; returns whether
/// every operation succeeded and matched its reference.
fn run(opts: &Opts, workload: &str) -> bool {
    let mut sheet = Sheet::default();
    match workload {
        "signoff-i5" => signoff::run(opts, &mut sheet),
        "eco-session-i3" => eco::run(opts, &mut sheet),
        _ => tenants::run(opts, &mut sheet),
    }
    if sheet.attempted == 0 {
        sheet.attempted = 1;
        sheet.fail("no operation completed inside the timed window");
    }
    let failed_frac = sheet.failed as f64 / sheet.attempted as f64;
    sheet.put("failed_frac", failed_frac, "ratio", format!("{}/{}", sheet.failed, sheet.attempted));
    sheet.put("fingerprint_mismatches", sheet.mismatches as f64, "count", String::new());
    if opts.trace {
        let traced = sheet.get("trace.request_p50_ms").unwrap_or(0.0);
        let untraced = sheet.get("request_p50_ms").unwrap_or(0.0);
        sheet.put(
            "trace.untraced_request_p50_ms",
            untraced,
            "ms",
            "same run, untraced half".into(),
        );
        sheet.derived(
            "trace.overhead_ratio",
            common::ratio(traced - untraced, untraced),
            "ratio",
            "traced p50 / untraced p50 - 1".into(),
        );
    }
    let correct = sheet.failed == 0;

    let (listed, label) =
        if opts.trace { (&PER_LAYER[..], "per-layer") } else { (&END_TO_END[..], "end-to-end") };
    println!(
        "perfbench {} seed {} ({:.1} s window, host nproc {})",
        workload,
        opts.seed,
        opts.seconds,
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
    let line =
        |name: &str, unit: &str, kind: &str| match sheet.metrics.iter().find(|m| m.name == name) {
            Some(m) => {
                assert_eq!(m.unit, unit, "{name} is declared in {unit}");
                println!(
                    "  {kind:<10} {name:<36} {:>14.4} {unit:<6} {}{}",
                    m.value,
                    if m.derived { "(derived) " } else { "" },
                    m.note
                );
            }
            None => println!(
                "  {kind:<10} {name:<36} {:>14} {unit:<6} not measured on this workload",
                0
            ),
        };
    for (name, unit) in listed {
        line(name, unit, label);
    }
    for (name, unit) in REPORTED {
        if sheet.get(name).is_some() && !listed.iter().any(|g| g.0 == name) {
            line(name, unit, "reported");
        }
    }

    let metrics: Vec<String> = listed
        .iter()
        .map(|(name, unit)| {
            let v = sheet.get(name).unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("{}:{{\"value\":{},\"unit\":{}}}", json::quote(name), v, json::quote(unit))
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        sheet.attempted,
        sheet.failed,
        metrics.join(",")
    );
    correct
}
