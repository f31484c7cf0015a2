//! `signoff-i5`: one caller runs full one-shot sweeps. Each pass builds a
//! fresh `TopKAnalysis` (`threads: 2`) and runs `addition_set(10)` then
//! `elimination_set(10)`. Every result is bit-compared against the
//! serial reference (`threads: 1`), computed once before any timing.

use std::time::{Duration, Instant};

use dna_netlist::Circuit;
use dna_noise::NoiseAnalysis;
use dna_topk::{TopKAnalysis, TopKConfig, TopKResult};

use crate::common::{circuit_text, median, median_setup, ms, parse_timed, ratio, sub_seed};
use crate::common::{Samples, Sheet};
use crate::Opts;

const K: usize = 10;
/// Circuits per run: every round makes one pass on each, so a run
/// averages over several i5 circuits rather than riding on one.
const CIRCUITS: usize = 4;

fn config(threads: usize) -> TopKConfig {
    TopKConfig { threads, ..TopKConfig::default() }
}

/// One addition + elimination pass on a fresh engine.
fn pass(circuit: &Circuit, threads: usize) -> Result<(TopKResult, TopKResult), String> {
    let analysis = TopKAnalysis::new(circuit, config(threads));
    let add = analysis.addition_set(K).map_err(|e| format!("addition_set: {e}"))?;
    let elim = analysis.elimination_set(K).map_err(|e| format!("elimination_set: {e}"))?;
    Ok((add, elim))
}

/// Per-layer counters summed over one pass's two results.
#[derive(Default)]
struct PassTrace {
    generated: f64,
    culled: f64,
    materialized: f64,
    peak_width: f64,
    busy_ms: f64,
    busiest_ms: f64,
    runtime_ms: f64,
    tasks: f64,
    steals: f64,
    imbalance: f64,
    tail_share: f64,
    arena_bytes: f64,
}

impl PassTrace {
    fn of(results: [&TopKResult; 2]) -> Self {
        let mut t = PassTrace::default();
        for r in results {
            let (sweep, sched) = (r.sweep_stats(), r.scheduler_stats());
            t.generated += r.generated_candidates() as f64;
            t.culled += sweep.bound_culled as f64;
            t.materialized += sweep.materialized as f64;
            t.peak_width = t.peak_width.max(r.peak_list_width() as f64);
            t.busy_ms += sched.busy_ns() as f64 / 1e6;
            t.busiest_ms += sched.max_busy_ns() as f64 / 1e6;
            t.runtime_ms += ms(r.runtime());
            t.tasks += sched.tasks() as f64;
            t.steals += sched.steals() as f64;
            let max = sched.max_busy_ns() as f64;
            t.imbalance += ratio(max - sched.min_busy_ns() as f64, max) / 2.0;
            t.tail_share += sched.tail_task_share() / 2.0;
            t.arena_bytes += sched.arena_bytes_reused() as f64;
        }
        t
    }
}

pub fn run(opts: &Opts, sheet: &mut Sheet) {
    let (name, circuits) = if opts.tiny { ("i1", 1) } else { ("i5", CIRCUITS) };
    let texts: Vec<String> =
        (0..circuits).map(|j| circuit_text(name, sub_seed(opts.seed, j as u64))).collect();

    // Set-up: parse every circuit's text and build its engine.
    let mut parse_ms = Vec::new();
    let (setup_s, _) = median_setup(if opts.tiny { 3 } else { 25 }, || {
        let t = Instant::now();
        for text in &texts {
            let (circuit, parse) = parse_timed(text);
            parse_ms.push(ms(parse));
            std::hint::black_box(TopKAnalysis::new(&circuit, config(2)));
        }
        t.elapsed()
    });
    let parsed: Vec<Circuit> = texts.iter().map(|t| parse_timed(t).0).collect();

    // Serial reference fingerprints, outside set-up and every timed window.
    let reference = crate::common::par_map(&texts, |text| {
        let (circuit, _) = parse_timed(text);
        pass(&circuit, 1).map(|(a, e)| (a.identity_fingerprint(), e.identity_fingerprint()))
    });

    let mut lat = Samples::default();
    let mut traced_lat = Samples::default();
    let mut add_gain = Vec::new();
    let mut elim_gain = Vec::new();
    let mut traces = Vec::new();
    let budget = Duration::from_secs_f64(opts.seconds);
    let phases: &[bool] = if opts.trace { &[false, true] } else { &[false] };
    let mut window = Duration::ZERO;
    for &traced in phases {
        let phase_budget = budget / phases.len() as u32;
        let start = Instant::now();
        // Whole rounds, one pass per circuit, so every run weighs its
        // circuits equally. After the first, a round starts only if the
        // last one's length says it ends inside the window.
        let (mut rounds, mut round) = (0, Duration::ZERO);
        while rounds == 0 || start.elapsed() + round <= phase_budget {
            let round_start = Instant::now();
            for (j, circuit) in parsed.iter().enumerate() {
                sheet.attempted += 1;
                let t = Instant::now();
                let outcome = pass(circuit, 2);
                let dt = ms(t.elapsed());
                let (add, elim) = match outcome {
                    Ok(pair) => pair,
                    Err(e) => {
                        sheet.fail(&e);
                        continue;
                    }
                };
                if traced {
                    traced_lat.push(dt);
                    traces.push(PassTrace::of([&add, &elim]));
                } else {
                    lat.push(dt);
                }
                add_gain.push(add.delay_with() - add.delay_without());
                elim_gain.push(elim.delay_before() - elim.delay_after());
                if add.is_degraded() || elim.is_degraded() {
                    sheet.fail(&format!("circuit {j}: degraded result"));
                }
                match &reference[j] {
                    Ok((ra, re)) => {
                        let plant = u64::from(opts.plant_mismatch);
                        sheet.check_fp("addition", add.identity_fingerprint() ^ plant, *ra);
                        sheet.check_fp("elimination", elim.identity_fingerprint(), *re);
                    }
                    Err(e) => sheet.fail(&format!("serial reference: {e}")),
                }
            }
            rounds += 1;
            round = round_start.elapsed();
        }
        window += start.elapsed();
    }
    let rss = crate::common::peak_rss_mb();

    sheet.put("setup_s", setup_s, "s", format!("median of set-ups, {circuits} circuit(s) each"));
    sheet.put("request_p50_ms", lat.p50(), "ms", format!("one pass, {}", lat.note_p50()));
    sheet.put("request_p90_ms", lat.p90(), "ms", lat.note_p90());
    sheet.put(
        "requests_per_s",
        ratio((lat.len() + traced_lat.len()) as f64, window.as_secs_f64()),
        "1/s",
        "passes per second, one closed-loop caller".into(),
    );
    sheet.put("peak_rss_mb", rss, "MB", "VmHWM after the timed window".into());
    sheet.put("signoff_s", lat.p50() / 1e3, "s", lat.note_p50());
    sheet.put("addition_gain_ps", median(&add_gain), "ps", "delay_with - delay_without".into());
    sheet.put("elimination_gain_ps", median(&elim_gain), "ps", "delay_before - delay_after".into());

    if !opts.trace {
        return;
    }
    let fixpoints: Vec<(f64, usize)> = parsed
        .iter()
        .map(|c| {
            let t = Instant::now();
            let report = NoiseAnalysis::new(c, config(2).noise).run().expect("noise fixpoint");
            (ms(t.elapsed()), report.iterations())
        })
        .collect();
    let fixpoint_ms = median(&fixpoints.iter().map(|f| f.0).collect::<Vec<_>>());
    let per = |f: fn(&PassTrace) -> f64| median(&traces.iter().map(f).collect::<Vec<_>>());
    let total = |f: fn(&PassTrace) -> f64| traces.iter().map(f).sum::<f64>();
    sheet.put("netlist.parse_ms", median(&parse_ms), "ms", "per circuit".into());
    sheet.put("noise.fixpoint_ms", fixpoint_ms, "ms", "separate NoiseAnalysis::run".into());
    sheet.put(
        "noise.iterations",
        median(&fixpoints.iter().map(|f| f.1 as f64).collect::<Vec<_>>()),
        "count",
        String::new(),
    );
    sheet.put("enumeration.generated", per(|t| t.generated), "count", "per pass".into());
    sheet.put("enumeration.bound_culled", per(|t| t.culled), "count", "per pass".into());
    sheet.put("enumeration.materialized", per(|t| t.materialized), "count", "per pass".into());
    sheet.derived(
        "enumeration.cull_ratio",
        ratio(total(|t| t.culled), total(|t| t.generated)),
        "ratio",
        "culled / generated".into(),
    );
    sheet.put("enumeration.peak_list_width", per(|t| t.peak_width), "count", String::new());
    sheet.derived(
        "enumeration.candidates_per_busy_s",
        ratio(total(|t| t.generated), total(|t| t.busy_ms) / 1e3),
        "1/s",
        "generated / sched busy time".into(),
    );
    sheet.put("sched.busy_ms", per(|t| t.busy_ms), "ms", "all workers, per pass".into());
    sheet.put("sched.tasks", per(|t| t.tasks), "count", "per pass".into());
    sheet.put("sched.steals", per(|t| t.steals), "count", "per pass".into());
    sheet.derived(
        "sched.imbalance",
        per(|t| t.imbalance),
        "ratio",
        "(max_busy - min_busy) / max_busy".into(),
    );
    sheet.put("sched.tail_task_share", per(|t| t.tail_share), "ratio", String::new());
    sheet.put("sched.arena_bytes_reused", per(|t| t.arena_bytes), "bytes", "per pass".into());
    sheet.derived(
        "select.ms",
        per(|t| t.runtime_ms - t.busiest_ms) - 2.0 * fixpoint_ms,
        "ms",
        "runtime - busiest worker - noise.fixpoint_ms, per pass".into(),
    );
    sheet.put("trace.request_p50_ms", traced_lat.p50(), "ms", traced_lat.note_p50());
}
