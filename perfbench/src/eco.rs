//! `eco-session-i3`: one client drives hot addition-mode
//! `WhatIfSession`s (k = 10, `threads: 2`) on twelve i3 circuits, round
//! robin, with a seeded stream of small mask deltas. Reads are `fork` +
//! `apply` scenarios; about one operation in five is a write: `apply` on
//! the base session, then `commit_chain` into the run's temp dir (delta
//! append + fsync). After the timed window every answer is replayed
//! against independent serial sessions that mirror the commits.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use dna_netlist::{Circuit, CouplingId};
use dna_noise::NoiseAnalysis;
use dna_topk::{
    commit_chain, CommitOptions, MaskDelta, Mode, SaveKind, TopKAnalysis, TopKConfig,
    WhatIfOutcome, WhatIfSession,
};

use crate::common::{
    circuit_text, median, median_setup, mismatch, ms, parse_timed, ratio, sub_seed,
};
use crate::common::{Rng, Samples, Sheet, TempDir};
use crate::Opts;

const K: usize = 10;
/// Hot sessions per run, each on its own i3 circuit; the client
/// round-robins its operations over them so one run averages over
/// several circuits.
const SESSIONS: usize = 12;

fn config(threads: usize) -> TopKConfig {
    TopKConfig { threads, ..TopKConfig::default() }
}

/// A delta of 1–3 coupling flips: removals of current top-k members,
/// removals of random couplings, and restores of removed ones.
pub fn draw(
    rng: &mut Rng,
    couplings: usize,
    top: &[CouplingId],
    enabled: impl Fn(CouplingId) -> bool,
) -> MaskDelta {
    let disabled: Vec<CouplingId> =
        (0..couplings as u32).map(CouplingId::new).filter(|&c| !enabled(c)).collect();
    let (mut remove, mut add) = (Vec::new(), Vec::new());
    for _ in 0..1 + rng.below(3) {
        let r = rng.unit();
        let id = if r < 0.4 && !top.is_empty() {
            top[rng.below(top.len())]
        } else if r < 0.8 || disabled.is_empty() {
            CouplingId::new(rng.below(couplings) as u32)
        } else {
            disabled[rng.below(disabled.len())]
        };
        if remove.contains(&id) || add.contains(&id) {
            continue;
        }
        if enabled(id) {
            remove.push(id);
        } else {
            add.push(id);
        }
    }
    MaskDelta::new(&remove, &add)
}

struct Op {
    session: usize,
    commit: bool,
    delta: MaskDelta,
    fingerprint: u64,
}

/// Counters read from one apply in the traced half.
struct ApplyTrace {
    fork_ms: f64,
    apply_ms: f64,
    recomputed: f64,
    structural: f64,
    proven_clean: f64,
    total: f64,
    generated: f64,
    culled: f64,
    materialized: f64,
    peak_width: f64,
    busy_ms: f64,
    tasks: f64,
    steals: f64,
    imbalance: f64,
    tail_share: f64,
    arena_bytes: f64,
}

impl ApplyTrace {
    fn of(fork_ms: f64, apply_ms: f64, o: &WhatIfOutcome) -> Self {
        let r = o.result();
        let (sweep, sched) = (r.sweep_stats(), r.scheduler_stats());
        let max = sched.max_busy_ns() as f64;
        ApplyTrace {
            fork_ms,
            apply_ms,
            recomputed: o.recomputed_victims() as f64,
            structural: o.structural_dirty_victims() as f64,
            proven_clean: o.proven_clean_victims() as f64,
            total: o.total_victims() as f64,
            generated: (sweep.bound_culled + sweep.materialized) as f64,
            culled: sweep.bound_culled as f64,
            materialized: sweep.materialized as f64,
            peak_width: r.peak_list_width() as f64,
            busy_ms: sched.busy_ns() as f64 / 1e6,
            tasks: sched.tasks() as f64,
            steals: sched.steals() as f64,
            imbalance: ratio(max - sched.min_busy_ns() as f64, max),
            tail_share: sched.tail_task_share(),
            arena_bytes: sched.arena_bytes_reused() as f64,
        }
    }
}

pub fn run(opts: &Opts, sheet: &mut Sheet) {
    let (name, sessions) = if opts.tiny { ("i1", 2) } else { ("i3", SESSIONS) };
    let texts: Vec<String> =
        (0..sessions).map(|j| circuit_text(name, sub_seed(opts.seed, 100 + j as u64))).collect();
    let mut rng = Rng::new(sub_seed(opts.seed, 99));
    let tmp = TempDir::new("eco", opts.seed);
    let chains: Vec<PathBuf> =
        (0..sessions).map(|j| tmp.path().join(format!("eco{j}.dnawifa"))).collect();

    // Set-up: parse, build the engines, start the hot sessions. The last
    // attempt is the one the loop uses.
    let mut parse_ms = Vec::new();
    let setups = if opts.tiny { 2 } else { 3 };
    let (_, mut setup_all) = median_setup(setups - 1, || {
        let t = Instant::now();
        for text in &texts {
            let (circuit, parse) = parse_timed(text);
            parse_ms.push(ms(parse));
            let analysis = TopKAnalysis::new(&circuit, config(2));
            std::hint::black_box(WhatIfSession::start(&analysis, Mode::Addition, K).ok());
        }
        t.elapsed()
    });
    let t = Instant::now();
    let circuits: Vec<Circuit> = texts
        .iter()
        .map(|text| {
            let (circuit, parse) = parse_timed(text);
            parse_ms.push(ms(parse));
            circuit
        })
        .collect();
    let analyses: Vec<TopKAnalysis> =
        circuits.iter().map(|c| TopKAnalysis::new(c, config(2))).collect();
    let mut bases = Vec::new();
    for analysis in &analyses {
        match WhatIfSession::start(analysis, Mode::Addition, K) {
            Ok(s) => bases.push(s),
            Err(e) => return sheet.fail(&format!("session start: {e}")),
        }
    }
    setup_all.push(t.elapsed().as_secs_f64());
    let base_fps: Vec<u64> = bases.iter().map(|b| b.result().identity_fingerprint()).collect();

    let mut log = Vec::new();
    let (mut lat, mut traced_lat) = (Samples::default(), Samples::default());
    let (mut whatif, mut commits) = (Samples::default(), Samples::default());
    let mut commit_chain_ms = Vec::new();
    let (mut delta_bytes, mut checkpoint_bytes) = (Vec::new(), Vec::new());
    let mut traces = Vec::new();
    let budget = Duration::from_secs_f64(opts.seconds);
    let phases: &[bool] = if opts.trace { &[false, true] } else { &[false] };
    let mut window = Duration::ZERO;
    for &traced in phases {
        let phase_budget = budget / phases.len() as u32;
        let start = Instant::now();
        while start.elapsed() < phase_budget {
            let session = sheet.attempted as usize % sessions;
            sheet.attempted += 1;
            let (base, chain) = (&mut bases[session], &chains[session]);
            let commit = rng.below(5) == 0;
            let top = base.result().couplings();
            let delta = draw(&mut rng, circuits[session].num_couplings(), top, |id| {
                base.mask().is_enabled(id)
            });
            let t = Instant::now();
            let (outcome, fork_ms) = if commit {
                let outcome = base.apply(&delta);
                let c = Instant::now();
                let saved = outcome
                    .as_ref()
                    .ok()
                    .map(|_| commit_chain(base, chain, &CommitOptions::default()));
                commit_chain_ms.push(ms(c.elapsed()));
                match saved {
                    Some(Ok(report)) => match report.kind {
                        SaveKind::Delta(_) => delta_bytes.push(report.bytes_written as f64),
                        SaveKind::Checkpoint => checkpoint_bytes.push(report.bytes_written as f64),
                        SaveKind::Unchanged => {}
                    },
                    Some(Err(e)) => sheet.fail(&format!("commit_chain: {e}")),
                    None => {}
                }
                (outcome, 0.0)
            } else if traced {
                let mut fork = base.fork();
                let fork_ms = ms(t.elapsed());
                (fork.apply(&delta), fork_ms)
            } else {
                (base.fork().apply(&delta), 0.0)
            };
            let dt = ms(t.elapsed());
            let outcome = match outcome {
                Ok(o) => o,
                Err(e) => {
                    sheet.fail(&format!("apply: {e}"));
                    continue;
                }
            };
            if traced {
                traced_lat.push(dt);
                if !commit {
                    traces.push(ApplyTrace::of(fork_ms, dt - fork_ms, &outcome));
                }
            } else {
                lat.push(dt);
                if commit { &mut commits } else { &mut whatif }.push(dt);
            }
            if outcome.result().is_degraded() || !outcome.faults().is_empty() {
                sheet.fail("degraded what-if result");
            }
            let plant = u64::from(opts.plant_mismatch && log.is_empty());
            let fingerprint = outcome.result().identity_fingerprint() ^ plant;
            log.push(Op { session, commit, delta, fingerprint });
        }
        window += start.elapsed();
    }
    let rss = crate::common::peak_rss_mb();

    // End of run: snapshot each base and resume its chain tip; both must
    // reproduce the base session bit for bit.
    let (mut save_ms, mut resume_ms) = (Vec::new(), Vec::new());
    for ((base, chain), analysis) in bases.iter().zip(&chains).zip(&analyses) {
        let t = Instant::now();
        std::hint::black_box(base.save_artifact());
        save_ms.push(ms(t.elapsed()));
        let Ok(bytes) = std::fs::read(chain) else { continue };
        let t = Instant::now();
        let resumed = WhatIfSession::resume(analysis, &bytes);
        resume_ms.push(ms(t.elapsed()));
        match resumed {
            Ok(s) => sheet.check_fp(
                "chain-tip resume",
                s.result().identity_fingerprint(),
                base.result().identity_fingerprint(),
            ),
            Err(e) => sheet.fail(&format!("resume: {e}")),
        }
    }

    let t = Instant::now();
    replay(&texts, &base_fps, &log, sheet);
    eprintln!("perfbench: replayed {} operations in {:.1} s", log.len(), t.elapsed().as_secs_f64());

    sheet.put("setup_s", median(&setup_all), "s", format!("median of {} set-ups", setup_all.len()));
    sheet.put("request_p50_ms", lat.p50(), "ms", format!("all ops, {}", lat.note_p50()));
    sheet.put("request_p90_ms", lat.p90(), "ms", lat.note_p90());
    sheet.put(
        "requests_per_s",
        ratio(log.len() as f64, window.as_secs_f64()),
        "1/s",
        "operations per second, one closed-loop client".into(),
    );
    sheet.put("peak_rss_mb", rss, "MB", "VmHWM after the timed window".into());
    sheet.put("whatif_p50_ms", whatif.p50(), "ms", format!("fork + apply, {}", whatif.note_p50()));
    sheet.put("whatif_p90_ms", whatif.p90(), "ms", whatif.note_p90());
    sheet.put(
        "commit_p50_ms",
        commits.p50(),
        "ms",
        format!("apply + commit, {}", commits.note_p50()),
    );
    if !opts.trace {
        return;
    }

    let fixpoints: Vec<(f64, usize)> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let r =
                NoiseAnalysis::new(&circuits[0], config(2).noise).run().expect("noise fixpoint");
            (ms(t.elapsed()), r.iterations())
        })
        .collect();
    let per = |f: fn(&ApplyTrace) -> f64| median(&traces.iter().map(f).collect::<Vec<_>>());
    let total = |f: fn(&ApplyTrace) -> f64| traces.iter().map(f).sum::<f64>();
    sheet.put("netlist.parse_ms", median(&parse_ms), "ms", String::new());
    sheet.put(
        "noise.fixpoint_ms",
        median(&fixpoints.iter().map(|f| f.0).collect::<Vec<_>>()),
        "ms",
        "separate NoiseAnalysis::run".into(),
    );
    sheet.put("noise.iterations", fixpoints[0].1 as f64, "count", String::new());
    let note = || "per scenario apply, re-swept victims only".to_string();
    sheet.put("enumeration.generated", per(|t| t.generated), "count", note());
    sheet.put("enumeration.bound_culled", per(|t| t.culled), "count", note());
    sheet.put("enumeration.materialized", per(|t| t.materialized), "count", note());
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
    sheet.put("sched.busy_ms", per(|t| t.busy_ms), "ms", "per scenario apply".into());
    sheet.put("sched.tasks", per(|t| t.tasks), "count", String::new());
    sheet.put("sched.steals", per(|t| t.steals), "count", String::new());
    sheet.derived("sched.imbalance", per(|t| t.imbalance), "ratio", String::new());
    sheet.put("sched.tail_task_share", per(|t| t.tail_share), "ratio", String::new());
    sheet.put("sched.arena_bytes_reused", per(|t| t.arena_bytes), "bytes", String::new());
    sheet.put("session.fork_ms", per(|t| t.fork_ms), "ms", String::new());
    sheet.put("session.apply_ms", per(|t| t.apply_ms), "ms", String::new());
    sheet.put("session.recomputed_victims", per(|t| t.recomputed), "count", String::new());
    sheet.put("session.structural_dirty_victims", per(|t| t.structural), "count", String::new());
    sheet.put("session.proven_clean_victims", per(|t| t.proven_clean), "count", String::new());
    sheet.derived(
        "session.resweep_ratio",
        ratio(total(|t| t.recomputed), total(|t| t.total)),
        "ratio",
        "recomputed / total victims".into(),
    );
    sheet.derived(
        "session.proof_yield",
        ratio(total(|t| t.proven_clean), total(|t| t.structural)),
        "ratio",
        "proven clean / structurally dirty".into(),
    );
    let mean = |v: &[f64]| ratio(v.iter().sum(), v.len() as f64);
    sheet.put("persist.commit_ms", median(&commit_chain_ms), "ms", "commit_chain only".into());
    sheet.put("persist.delta_bytes", mean(&delta_bytes), "bytes", "per delta append".into());
    sheet.put("persist.checkpoint_bytes", mean(&checkpoint_bytes), "bytes", String::new());
    sheet.derived(
        "persist.delta_fraction",
        ratio(mean(&delta_bytes), mean(&checkpoint_bytes)),
        "ratio",
        "delta bytes / checkpoint bytes".into(),
    );
    sheet.put("persist.save_ms", median(&save_ms), "ms", "save_artifact of the base".into());
    sheet.put("persist.resume_ms", median(&resume_ms), "ms", "resume of the chain tip".into());
    sheet.put("trace.request_p50_ms", traced_lat.p50(), "ms", traced_lat.note_p50());
}

/// Replays every answered operation against independent serial
/// sessions (own parse, own engine, `threads: 1`) that mirror the
/// commits, bit-comparing each fingerprint.
fn replay(texts: &[String], base_fps: &[u64], log: &[Op], sheet: &mut Sheet) {
    let indices: Vec<usize> = (0..texts.len()).collect();
    let failures = crate::common::par_map(&indices, |&j| {
        let mut failures = Vec::new();
        let tag = format!("session {j}");
        let (circuit, _) = parse_timed(&texts[j]);
        let analysis = TopKAnalysis::new(&circuit, config(1));
        let mut mirror = match WhatIfSession::start(&analysis, Mode::Addition, K) {
            Ok(s) => s,
            Err(e) => return vec![format!("session {j} mirror start: {e}")],
        };
        failures.extend(mismatch(
            &tag,
            "base",
            base_fps[j],
            mirror.result().identity_fingerprint(),
        ));
        for op in log.iter().filter(|op| op.session == j) {
            let outcome =
                if op.commit { mirror.apply(&op.delta) } else { mirror.fork().apply(&op.delta) };
            match outcome {
                Ok(o) => failures.extend(mismatch(
                    &tag,
                    "replay",
                    op.fingerprint,
                    o.result().identity_fingerprint(),
                )),
                Err(e) => failures.push(format!("{tag} mirror apply: {e}")),
            }
        }
        failures
    });
    for f in failures.into_iter().flatten() {
        sheet.mismatches += 1;
        sheet.fail(&f);
    }
}
