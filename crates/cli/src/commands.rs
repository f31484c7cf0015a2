//! Subcommand implementations.

use std::fs;

use dna_lint::{
    lint_chain, lint_circuit, lint_config, lint_dirty_closure, lint_divergence, lint_result,
    lint_timing, Diagnostics,
};
use dna_netlist::generator::{generate, GeneratorConfig};
use dna_netlist::{format, suite, Circuit, CouplingId};
use dna_noise::{glitch, CouplingMask, NoiseAnalysis, NoiseConfig};
use dna_sta::{critical_path, top_k_paths, LinearDelayModel, StaConfig, TimingReport};
use dna_topk::CouplingSet;
use dna_topk::{
    chain_summary_checked, commit_chain, BatchOutcome, ChainFault, CommitOptions, Damping,
    MaskDelta, Mode, Oracle, RecordKind, SaveKind, TopKAnalysis, TopKConfig, TopKResult,
    WhatIfBatch, WhatIfOutcome, WhatIfSession,
};

use crate::opts::Opts;

const USAGE: &str = "\
usage: dna <command> [options]

commands:
  generate  --gates N --couplings N [--seed S] [--bench i1..i10] [-o file]
  analyze   <file.ckt>                    iterative noise analysis report
  topk      <file.ckt> --mode add|del -k N [--peel]
            [--threads N] [--victim-budget N] [--global-budget N]
            [--deadline-ms MS]
                                          budgets degrade soundly: the
                                          result is marked a lower bound;
                                          --peel commits k/5 couplings per
                                          round and re-runs (elimination);
                                          --threads 0 (default) resolves
                                          to host parallelism — any value
                                          is bit-identical
  whatif    <file.ckt> [--mode add|del] [-k N] [--audit] [--threads N]
            [--damping structural|semantic]
            [--save FILE] [--load FILE]   fix-loop: run, remove the worst
            [--compact] [--history [GEN]] set, re-verify incrementally;
            [--batch FILE] [--fingerprint] --damping semantic (default)
                                          skips victims the damping
                                          prover proves clean, never
                                          changing an output bit; --audit
                                          diffs every victim against a
                                          serial from-scratch run; sessions
                                          persist to crash-safe generation
                                          chains: --save after --load
                                          appends a delta record of only
                                          the dirty victims, --compact
                                          rewrites the chain as a single
                                          checkpoint, --history lists the
                                          chain (with GEN: replays that
                                          generation bit-exactly); corrupt
                                          chains fall back to a full
                                          sweep; --batch evaluates
                                          one scenario per line of FILE
                                          (tokens -ID / +ID remove or
                                          restore coupling ID, # starts a
                                          comment) sharing closure and
                                          sweep work across scenarios
  paths     <file.ckt> [-k N]             top-k critical paths
  glitch    <file.ckt> [--margin 0.4]     functional noise check
  lint      <file.ckt> [--json] [--deep]  verify IR and analysis invariants
  serve     [--port N] [--capacity N] [--max-queue N]
            [--victim-budget-cap N] [--global-budget-cap N]
            [--deadline-cap-ms MS]        loopback what-if daemon: holds hot
            [--dir DIR] [--recover]       sessions per circuit (LRU-spilled
                                          to artifacts past --capacity),
                                          coalesces queued scenarios into
                                          shared batch sweeps, quarantines
                                          poisoned tenants; --port 0 picks
                                          an ephemeral port and announces
                                          it on stdout; line-delimited JSON
                                          (ops: open scenario batch commit
                                          query evict stats shutdown);
                                          --dir makes tenants durable
                                          (generation chains + a tenant
                                          registry under DIR, flushed on
                                          SIGINT/SIGTERM/shutdown);
                                          --recover replays the registry
                                          at startup, repairing torn
                                          chains and quarantining
                                          unrecoverable tenants
  client    --port N [--no-retry]        send JSON request lines to a
            [REQUEST...]                  running daemon (or pipe them on
                                          stdin) and print the responses;
                                          connects with bounded
                                          exponential-backoff retry unless
                                          --no-retry
  help                                    this message

A one-letter option is spelled -x or --x; an argument a command does not
read is an error.";

/// A subcommand's entry point.
type Command = fn(&Opts) -> Result<(), String>;

/// Routes the parsed command line to a subcommand.
///
/// # Errors
///
/// Returns a human-readable message for unknown commands, bad flags, I/O
/// failures and analysis errors.
pub fn dispatch(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args);
    // Each command with the positionals (after its name) and the flags it
    // reads; anything else on the line is rejected before it runs.
    let (run, positionals, flags): (Command, Option<usize>, &[&str]) = match opts.positional(0) {
        Some("generate") => (cmd_generate, Some(0), &["gates", "couplings", "seed", "bench", "o"]),
        Some("analyze") => (cmd_analyze, Some(1), &[]),
        Some("topk") => (
            cmd_topk,
            Some(1),
            &["mode", "k", "peel", "threads", "victim-budget", "global-budget", "deadline-ms"],
        ),
        Some("whatif") => (
            cmd_whatif,
            Some(1),
            &[
                "mode",
                "k",
                "audit",
                "threads",
                "damping",
                "save",
                "load",
                "compact",
                "history",
                "batch",
                "fingerprint",
            ],
        ),
        Some("paths") => (cmd_paths, Some(1), &["k"]),
        Some("glitch") => (cmd_glitch, Some(1), &["margin"]),
        Some("lint") => (cmd_lint, Some(1), &["json", "deep"]),
        Some("serve") => (
            crate::serve_cmd::cmd_serve,
            Some(0),
            &[
                "port",
                "capacity",
                "max-queue",
                "victim-budget-cap",
                "global-budget-cap",
                "deadline-cap-ms",
                "dir",
                "recover",
            ],
        ),
        Some("client") => (crate::serve_cmd::cmd_client, None, &["port", "no-retry"]),
        Some("help") | None => {
            println!("{USAGE}");
            return Ok(());
        }
        Some(other) => return Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    opts.reject_unknown(positionals, flags)?;
    run(&opts)
}

fn load_circuit(opts: &Opts) -> Result<Circuit, String> {
    let path = opts.positional(1).ok_or_else(|| "expected a .ckt file argument".to_owned())?;
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    format::parse(&text).map_err(|e| format!("cannot parse `{path}`: {e}"))
}

fn cmd_generate(opts: &Opts) -> Result<(), String> {
    let seed: u64 = opts.num("seed", 42)?;
    let circuit = if let Some(bench) = opts.flag("bench") {
        suite::benchmark(bench, seed).map_err(|e| e.to_string())?
    } else {
        let gates: usize = opts.num("gates", 100)?;
        let couplings: usize = opts.num("couplings", 3 * gates)?;
        generate(&GeneratorConfig::new(gates, couplings).with_seed(seed))
            .map_err(|e| e.to_string())?
    };
    let text = format::write(&circuit);
    match opts.flag("o") {
        Some(path) => {
            fs::write(path, &text).map_err(|e| format!("cannot write `{path}`: {e}"))?;
            eprintln!("wrote {} ({})", path, circuit.stats());
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn cmd_analyze(opts: &Opts) -> Result<(), String> {
    let circuit = load_circuit(opts)?;
    let engine = NoiseAnalysis::new(&circuit, NoiseConfig::default());
    let report = engine.run().map_err(|e| e.to_string())?;
    let quiet = engine.run_with_mask(&CouplingMask::none(&circuit)).map_err(|e| e.to_string())?;

    println!("design: {}", circuit.stats());
    println!(
        "delay: {:.3} ns noisy / {:.3} ns noiseless ({:+.1} ps crosstalk, {} iterations{})",
        report.circuit_delay() / 1000.0,
        quiet.circuit_delay() / 1000.0,
        report.total_delay_noise(),
        report.iterations(),
        if report.converged() { "" } else { ", NOT converged" },
    );

    let mut victims: Vec<_> =
        circuit.net_ids().map(|n| (n, report.delay_noise(n))).filter(|&(_, d)| d > 0.0).collect();
    victims.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite noise"));
    println!("worst victims:");
    for (net, dn) in victims.iter().take(10) {
        println!("  {:>12}  +{dn:7.1} ps", circuit.net(*net).name());
    }
    let path = critical_path(&circuit, report.noisy_timing());
    println!(
        "noisy critical path: {} nets ending at {}",
        path.len(),
        circuit.net(path.endpoint()).name()
    );
    Ok(())
}

/// Optional numeric flag: absent stays `None`, a bad value is an error.
pub(crate) fn opt_num<T: std::str::FromStr>(opts: &Opts, name: &str) -> Result<Option<T>, String> {
    match opts.flag(name) {
        None => Ok(None),
        Some(v) => v.parse().map(Some).map_err(|_| format!("invalid value for --{name}: `{v}`")),
    }
}

/// Builds a [`TopKConfig`] carrying the enumeration budget flags and the
/// worker-thread override (`--threads 0`, the default, resolves to the
/// host's available parallelism).
fn budget_config(opts: &Opts) -> Result<TopKConfig, String> {
    Ok(TopKConfig {
        threads: opt_num(opts, "threads")?.unwrap_or(0),
        victim_candidate_budget: opt_num(opts, "victim-budget")?,
        global_candidate_budget: opt_num(opts, "global-budget")?,
        deadline: opt_num::<f64>(opts, "deadline-ms")?
            .map(|ms| std::time::Duration::from_secs_f64(ms.max(0.0) / 1e3)),
        ..TopKConfig::default()
    })
}

/// Surfaces the scheduler's counters — including the
/// *resolved* worker count, so `--threads 0` reports the host parallelism
/// it actually ran with instead of echoing the configured zero.
fn report_scheduler(config: &TopKConfig, result: &TopKResult) {
    let s = result.scheduler_stats();
    if s.tasks() == 0 {
        return;
    }
    println!(
        "scheduler: {} worker(s) (resolved from --threads {}), {} task(s), \
         longest task {:.0}% of busy time, arena {} buffer(s) reused ({} bytes)",
        s.threads(),
        config.threads,
        s.tasks(),
        s.tail_task_share() * 100.0,
        s.arena_reused(),
        s.arena_bytes_reused(),
    );
}

/// Surfaces the enumeration effort. Unlike the scheduler line these
/// numbers are bit-identical at any `--threads` value, so scripted
/// fingerprints may keep this line.
fn report_enumeration(result: &TopKResult) {
    let generated = result.generated_candidates();
    if generated == 0 {
        return;
    }
    println!(
        "enumeration: {generated} candidate(s) generated, peak list width {}",
        result.peak_list_width()
    );
}

/// Surfaces fault quarantines and budget degradation on stdout so a
/// curtailed or partially failed run is never mistaken for an exact one.
fn report_resilience(circuit: &Circuit, result: &TopKResult) {
    for f in result.faults().iter() {
        println!(
            "  quarantined victim {} ({} phase): {}",
            circuit.net(f.victim()).name(),
            f.phase(),
            f.cause()
        );
    }
    if result.is_degraded() {
        let s = result.sweep_stats();
        println!(
            "NOTE: result is a sound lower bound (degraded): {} victim(s) truncated, \
             {} skipped, {} quarantined",
            s.truncated_victims, s.skipped_victims, s.quarantined_victims
        );
    }
}

fn cmd_topk(opts: &Opts) -> Result<(), String> {
    let circuit = load_circuit(opts)?;
    let k: usize = opts.num("k", 10)?;
    let mode = match opts.flag("mode") {
        Some("add") | None => Mode::Addition,
        Some("del") | Some("elim") => Mode::Elimination,
        Some(other) => return Err(format!("unknown --mode `{other}` (use add|del)")),
    };
    let engine = TopKAnalysis::new(&circuit, budget_config(opts)?);
    let peel_step = (k / 5).max(1);
    let result = match (mode, opts.has("peel")) {
        (Mode::Addition, _) => engine.addition_set(k),
        (Mode::Elimination, false) => engine.elimination_set(k),
        (Mode::Elimination, true) => engine.elimination_set_peeled(k, peel_step),
    }
    .map_err(|e| e.to_string())?;

    println!("top-{k} {} set on {}:", mode.name(), circuit.stats());
    for &cc in result.couplings() {
        let c = circuit.coupling(cc);
        println!(
            "  {cc}: {} -- {} ({:.2} fF)",
            circuit.net(c.a()).name(),
            circuit.net(c.b()).name(),
            c.cap()
        );
    }
    println!(
        "delay {:.3} -> {:.3} ns ({:+.1} ps) in {:.2?}",
        result.delay_before() / 1000.0,
        result.delay_after() / 1000.0,
        result.delay_after() - result.delay_before(),
        result.runtime()
    );
    report_enumeration(&result);
    report_scheduler(engine.config(), &result);
    report_resilience(&circuit, &result);
    Ok(())
}

/// The designer's fix loop, one command: run the full analysis, pretend
/// the reported worst set has been fixed (shielded / rerouted, i.e. its
/// couplings masked out), and re-verify **incrementally** through a
/// [`WhatIfSession`] — only the dirty fanout cone of the touched couplings
/// is re-swept, the rest of the circuit is served from the session cache.
fn cmd_whatif(opts: &Opts) -> Result<(), String> {
    let circuit = load_circuit(opts)?;
    let k: usize = opts.num("k", 10)?;
    let mode = match opts.flag("mode") {
        Some("del") | Some("elim") | None => Mode::Elimination,
        Some("add") => Mode::Addition,
        Some(other) => return Err(format!("unknown --mode `{other}` (use add|del)")),
    };
    let damping = match opts.flag("damping") {
        Some("semantic") | None => Damping::Semantic,
        Some("structural") => Damping::Structural,
        Some(other) => {
            return Err(format!("unknown --damping `{other}` (use structural|semantic)"))
        }
    };
    let engine = TopKAnalysis::new(
        &circuit,
        TopKConfig {
            damping,
            threads: opt_num(opts, "threads")?.unwrap_or(0),
            ..TopKConfig::default()
        },
    );

    // --history inspects or replays the generation chain instead of
    // running the fix loop: bare, it lists every committed record plus
    // any classified integrity fault (the same classes the L07x lint
    // rules report); with GEN it rebuilds that exact generation and
    // prints its fingerprint, bit-identical to a session that had
    // stopped there.
    if let Some(gen) = opts.flag("history") {
        let path = opts
            .flag("load")
            .ok_or_else(|| "--history needs --load FILE (the chain to inspect)".to_owned())?;
        let bytes = fs::read(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        return if gen == "true" {
            whatif_history_list(&engine, path, &bytes)
        } else {
            let generation: u64 =
                gen.parse().map_err(|_| format!("invalid value for --history: `{gen}`"))?;
            whatif_history_at(&engine, path, &bytes, generation)
        };
    }

    // --load resumes from a crash-safe generation chain, replaying the
    // checkpointed base and every delta record to the tip; anything
    // wrong with the bytes (truncation, bit rot, version skew, broken
    // links, different circuit) is reported and the command falls back
    // to a from-scratch sweep. A bad chain can cost the cache, never
    // the answer.
    let full_start = std::time::Instant::now();
    let mut session = match opts.flag("load") {
        Some(path) => {
            let bytes = fs::read(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
            match WhatIfSession::resume(&engine, &bytes) {
                Ok(s) => {
                    if s.mode() != mode || s.k() != k {
                        eprintln!(
                            "note: `{path}` stores a {} k={} session; \
                             command-line --mode/-k are ignored",
                            s.mode().name(),
                            s.k()
                        );
                    }
                    println!("resumed session from `{path}` ({} bytes)", bytes.len());
                    s
                }
                Err(e) => {
                    // Typed classification: a stale artifact (version
                    // skew, fingerprint mismatch) warrants regenerating
                    // the cache; a corrupt or truncated one points at
                    // storage problems. Same classes the serve daemon
                    // reports after a failed spill-reload.
                    match &e {
                        dna_topk::TopKError::Artifact(a) => {
                            eprintln!("cannot resume from `{path}` [{}]: {a}", a.class());
                        }
                        other => eprintln!("cannot resume from `{path}`: {other}"),
                    }
                    eprintln!("falling back to a from-scratch sweep");
                    WhatIfSession::start(&engine, mode, k).map_err(|e| e.to_string())?
                }
            }
        }
        None => WhatIfSession::start(&engine, mode, k).map_err(|e| e.to_string())?,
    };
    let full_ms = full_start.elapsed().as_secs_f64() * 1e3;
    let (mode, k) = (session.mode(), session.k());
    let base = session.result().clone();

    // --batch evaluates a menu of independent scenarios against the
    // session snapshot instead of committing the default fix loop; the
    // snapshot itself stays untouched, so --save here never grows the
    // chain (a session resumed from the same file commits as Unchanged).
    if let Some(batch_path) = opts.flag("batch") {
        if let Some(path) = opts.flag("save") {
            save_session(&mut session, path, opts.has("compact"))?;
        }
        return whatif_batch(&circuit, &engine, &session, batch_path, opts);
    }

    println!("top-{k} {} set on {}:", mode.name(), circuit.stats());
    for &cc in base.couplings() {
        let c = circuit.coupling(cc);
        println!(
            "  {cc}: {} -- {} ({:.2} fF)",
            circuit.net(c.a()).name(),
            circuit.net(c.b()).name(),
            c.cap()
        );
    }

    let fix: Vec<_> = base.couplings().to_vec();
    let delta = MaskDelta::remove(&fix);
    let pre_mask = session.mask().clone();
    let inc_start = std::time::Instant::now();
    let outcome = session.apply(&delta).map_err(|e| e.to_string())?;
    let inc_ms = inc_start.elapsed().as_secs_f64() * 1e3;

    // --save commits the *touched* session to its chain: resumed from
    // the same file, the fix just applied becomes one appended delta
    // record — O(dirty victims) bytes, not a full rewrite; a fresh
    // session writes a full checkpoint; --compact forces the checkpoint
    // arm, folding the chain back into a single record.
    if let Some(path) = opts.flag("save") {
        save_session(&mut session, path, opts.has("compact"))?;
    }

    let fixed = outcome.result();
    println!(
        "what-if fix of {} coupling(s): delay {:.3} -> {:.3} ns ({:+.1} ps recovered)",
        fix.len(),
        base.delay_after() / 1000.0,
        fixed.delay_after() / 1000.0,
        base.delay_after() - fixed.delay_after(),
    );
    println!(
        "incremental re-verify: {}/{} victims re-swept ({} of {} structurally dirty \
         proven clean, {} served from cache) in {inc_ms:.1} ms (initial full run took \
         {full_ms:.1} ms)",
        outcome.recomputed_victims(),
        outcome.total_victims(),
        outcome.proven_clean_victims(),
        outcome.structural_dirty_victims(),
        outcome.cached_victims(),
    );
    if opts.has("fingerprint") {
        println!("  fingerprint: {:016x}", fixed.identity_fingerprint());
    }
    report_enumeration(fixed);
    report_scheduler(engine.config(), fixed);
    report_resilience(&circuit, fixed);

    // --audit diffs the session against the serial from-scratch oracle
    // under its mask (the result and every victim's cached lists and
    // counters, so an unsound proven-clean skip is caught even though
    // nothing re-swept its victim), re-sweeps the oracle's world in
    // parallel against it, and checks the dirty set against L035.
    if opts.has("audit") {
        let oracle = Oracle::new(&engine, mode, k, session.mask()).map_err(|e| e.to_string())?;
        let threads = engine.config().effective_threads();
        let mut diags =
            lint_divergence(&circuit, "incremental session", oracle.check_session(&session));
        diags.merge(lint_divergence(&circuit, "parallel sweep", oracle.check_parallel(threads)));
        diags.merge(audit_dirty_set(&circuit, &pre_mask, session.mask(), &outcome));
        if diags.has_errors() {
            return Err(format!("audit failed\n{}", diags.render_text()));
        }
        println!(
            "audit: incremental == from-scratch (bit-identical, all {} victim(s)), dirty \
             closure coherent, {} proven-clean victim(s) audited, parallel sweep == serial \
             reference",
            circuit.num_nets(),
            outcome.proven_clean().len(),
        );
    }
    Ok(())
}

/// Checks that `dirty ∪ proven-clean` of a what-if step `before → after`
/// is a closed structural closure (the mask-aware L035 rule). Whether
/// each proven-clean skip was sound is the oracle's call (L061).
fn audit_dirty_set(
    circuit: &Circuit,
    before: &CouplingMask,
    after: &CouplingMask,
    outcome: &WhatIfOutcome,
) -> Diagnostics {
    let mut covered = outcome.dirty_flags().to_vec();
    for v in outcome.proven_clean() {
        covered[v.index()] = true;
    }
    lint_dirty_closure(circuit, before, after, &covered)
}

/// Re-evaluates `deltas` against `session` in reversed submission order
/// and checks every scenario, in both orders, against the from-scratch
/// oracle of its own mask (L061) — both orders equal the reference, so
/// the batch is also order-independent — and each forward scenario's
/// dirty set against L035.
fn audit_batch(
    engine: &TopKAnalysis<'_>,
    session: &WhatIfSession<'_, '_>,
    deltas: &[MaskDelta],
    forward: &BatchOutcome,
) -> Result<Diagnostics, String> {
    let reversed = session
        .apply_batch(&WhatIfBatch::from_deltas(deltas.iter().rev().cloned().collect()))
        .map_err(|e| format!("reversed batch what-if failed: {e}"))?;
    let mut diags = Diagnostics::new();
    for (i, delta) in deltas.iter().enumerate() {
        let mask = session.mask().clone().without(delta.removed()).with(delta.added());
        let oracle = Oracle::new(engine, session.mode(), session.k(), &mask)
            .map_err(|e| format!("cannot run the from-scratch reference: {e}"))?;
        let twins = [(forward, i, ""), (&reversed, deltas.len() - 1 - i, " (reversed)")];
        for (out, j, order) in twins {
            let verdict = oracle.check_result(out.scenarios()[j].result());
            diags.merge(lint_divergence(
                engine.circuit(),
                &format!("scenario {i}{order}"),
                verdict,
            ));
        }
        diags.merge(audit_dirty_set(
            engine.circuit(),
            session.mask(),
            &mask,
            &forward.scenarios()[i],
        ));
    }
    Ok(diags)
}

/// Commits the session to the chain file at `path` — delta append when
/// the session was resumed from that same chain and touched, full
/// checkpoint otherwise (or when `--compact` forces it) — and logs what
/// was physically written either way.
fn save_session(
    session: &mut WhatIfSession<'_, '_>,
    path: &str,
    compact: bool,
) -> Result<(), String> {
    let commit = CommitOptions { force_checkpoint: compact, ..CommitOptions::default() };
    let report = commit_chain(session, std::path::Path::new(path), &commit)
        .map_err(|e| format!("cannot save session to `{path}`: {e}"))?;
    match report.kind {
        SaveKind::Unchanged => eprintln!(
            "session unchanged since resume; kept {path} as is ({} bytes)",
            report.file_bytes
        ),
        SaveKind::Checkpoint => eprintln!(
            "saved checkpoint to {path} (generation {}, {} bytes)",
            report.generation, report.bytes_written
        ),
        SaveKind::Delta(n) => eprintln!(
            "appended {n} delta record(s) to {path} (generation {}, {} bytes written, \
             chain now {} bytes)",
            report.generation, report.bytes_written, report.file_bytes
        ),
    }
    Ok(())
}

/// One-line rendering of a typed chain-integrity defect.
fn describe_fault(fault: &ChainFault) -> String {
    match fault {
        ChainFault::OutOfOrder { generation, what } => {
            format!("records out of order at generation {generation}: {what}")
        }
        ChainFault::LinkBroken { generation } => {
            format!("broken predecessor link at generation {generation}")
        }
        ChainFault::Corrupt { error } => format!("corrupt record: {error}"),
        ChainFault::MaskDivergence { generation } => {
            format!("replayed mask diverges from its recorded digest at generation {generation}")
        }
        ChainFault::TornTail { bytes } => {
            format!("torn tail: {bytes} uncommitted byte(s) past the last record")
        }
        ChainFault::ReplayRejected { error } => format!("replay rejected: {error}"),
    }
}

/// The bare `--history` listing: every committed record of the chain,
/// the replayable generation span, and any classified integrity fault.
/// A chain with faults lists what it can and then fails, so scripting
/// `--history` doubles as an integrity check.
fn whatif_history_list(engine: &TopKAnalysis<'_>, path: &str, bytes: &[u8]) -> Result<(), String> {
    let summary = chain_summary_checked(engine, bytes)
        .map_err(|e| format!("cannot read chain `{path}` [{}]: {e}", e.class()))?;
    println!(
        "chain `{path}`: {} committed record(s), {} bytes",
        summary.records.len(),
        bytes.len()
    );
    for r in &summary.records {
        println!(
            "  generation {:>4}  {:<10}  {:>9} payload byte(s) at offset {}",
            r.generation,
            match r.kind {
                RecordKind::Checkpoint => "checkpoint",
                RecordKind::Delta => "delta",
            },
            r.payload_bytes,
            r.offset,
        );
    }
    match (summary.base_generation(), summary.tip_generation()) {
        (Some(base), Some(tip)) => println!("replayable generations: {base}..={tip}"),
        _ => println!("chain holds no committed records"),
    }
    for fault in &summary.faults {
        println!("fault: {}", describe_fault(fault));
    }
    if summary.faults.is_empty() {
        Ok(())
    } else {
        Err(format!("chain `{path}` has {} integrity fault(s)", summary.faults.len()))
    }
}

/// `--history GEN`: rebuilds the session exactly as it was at
/// `generation` and prints that point's result fingerprint — bit-exact
/// replay is what makes the chain an audit substrate, so the digest
/// printed here must equal the one the live run printed back then.
fn whatif_history_at(
    engine: &TopKAnalysis<'_>,
    path: &str,
    bytes: &[u8],
    generation: u64,
) -> Result<(), String> {
    let session = WhatIfSession::resume_at(engine, bytes, generation)
        .map_err(|e| format!("cannot replay `{path}` at generation {generation}: {e}"))?;
    let r = session.result();
    println!(
        "generation {generation} of `{path}`: top-{} {} set, delay {:.3} -> {:.3} ns",
        session.k(),
        session.mode().name(),
        r.delay_before() / 1000.0,
        r.delay_after() / 1000.0,
    );
    println!("  fingerprint: {:016x}", r.identity_fingerprint());
    Ok(())
}

/// Parses a batch scenario file: one scenario per non-empty line, tokens
/// `-ID` (disable coupling ID) and `+ID` (re-enable it), `#` to end of
/// line is a comment.
fn parse_batch_file(text: &str, circuit: &Circuit) -> Result<WhatIfBatch, String> {
    let mut batch = WhatIfBatch::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut removed: Vec<CouplingId> = Vec::new();
        let mut added: Vec<CouplingId> = Vec::new();
        for tok in line.split_whitespace() {
            let (sign, rest) = tok.split_at(1);
            let idx: u32 = rest
                .parse()
                .map_err(|_| format!("line {}: expected -ID or +ID, got `{tok}`", lineno + 1))?;
            if idx as usize >= circuit.num_couplings() {
                return Err(format!(
                    "line {}: coupling {idx} out of range (circuit has {})",
                    lineno + 1,
                    circuit.num_couplings()
                ));
            }
            match sign {
                "-" => removed.push(CouplingId::new(idx)),
                "+" => added.push(CouplingId::new(idx)),
                _ => return Err(format!("line {}: expected -ID or +ID, got `{tok}`", lineno + 1)),
            }
        }
        batch.push(MaskDelta::new(&removed, &added));
    }
    if batch.is_empty() {
        return Err("batch file holds no scenarios".into());
    }
    Ok(batch)
}

/// The `whatif --batch` path: evaluate every scenario of the file against
/// the session snapshot through one shared batch run, and (with --audit)
/// check each scenario, in both submission orders, against the
/// from-scratch oracle of its mask and its dirty set against L035.
fn whatif_batch(
    circuit: &Circuit,
    engine: &TopKAnalysis<'_>,
    session: &WhatIfSession<'_, '_>,
    batch_path: &str,
    opts: &Opts,
) -> Result<(), String> {
    let text =
        fs::read_to_string(batch_path).map_err(|e| format!("cannot read `{batch_path}`: {e}"))?;
    let batch = parse_batch_file(&text, circuit)?;
    let (mode, k) = (session.mode(), session.k());
    let base_delay = session.result().delay_after();

    let start = std::time::Instant::now();
    let out = session.apply_batch(&batch).map_err(|e| e.to_string())?;
    let batch_ms = start.elapsed().as_secs_f64() * 1e3;

    println!(
        "batch what-if: {} scenario(s) ({} distinct) on top-{k} {} session, {batch_ms:.1} ms",
        out.stats().scenarios(),
        out.stats().distinct_scenarios(),
        mode.name()
    );
    for (i, sc) in out.scenarios().iter().enumerate() {
        let r = sc.result();
        println!(
            "  #{:<3} {:>2} flipped  {:>5}/{} re-swept ({} proven clean)  delay {:.3} ns \
             ({:+.1} ps vs session)",
            i,
            sc.changed_couplings().len(),
            sc.recomputed_victims(),
            sc.total_victims(),
            sc.proven_clean_victims(),
            r.delay_after() / 1000.0,
            r.delay_after() - base_delay,
        );
        // --fingerprint prints the identity digest per scenario so a
        // daemon response (which carries the same digest) can be
        // bit-compared against this local replay from a shell.
        if opts.has("fingerprint") {
            println!("  fingerprint #{i}: {:016x}", r.identity_fingerprint());
        }
    }
    println!(
        "closure sharing: {} trie frame(s) built, {} reused; {} dirty victim(s) total \
         ({} under mask-oblivious adjacency, {} proven clean by the damping prover)",
        out.stats().closure_frames_built(),
        out.stats().closure_frames_shared(),
        out.stats().dirty_victims(),
        out.stats().unmasked_dirty_victims(),
        out.stats().proven_clean_victims(),
    );
    let gen_total: usize =
        out.scenarios().iter().map(|sc| sc.result().generated_candidates()).sum();
    if gen_total > 0 {
        println!("enumeration: {gen_total} candidate(s) generated across scenarios");
    }
    let sched = *out.stats().sched();
    if sched.tasks() > 0 {
        println!(
            "scheduler: {} worker(s), {} (scenario, victim) task(s), \
             longest task {:.0}% of busy time",
            sched.threads(),
            sched.tasks(),
            sched.tail_task_share() * 100.0
        );
    }

    if opts.has("audit") {
        let diags = audit_batch(engine, session, batch.deltas(), &out)?;
        if diags.has_errors() {
            return Err(format!("audit failed\n{}", diags.render_text()));
        }
        println!(
            "audit: all {} scenario(s) == from-scratch (bit-identical, both submission \
             orders), dirty closures coherent, {} proven-clean victim(s) audited",
            out.stats().scenarios(),
            out.scenarios().iter().map(WhatIfOutcome::proven_clean_victims).sum::<usize>(),
        );
    }
    Ok(())
}

fn cmd_paths(opts: &Opts) -> Result<(), String> {
    let circuit = load_circuit(opts)?;
    let k: usize = opts.num("k", 5)?;
    let model = LinearDelayModel::new();
    let cfg = StaConfig::default();
    let timing = TimingReport::run(&circuit, &model, &cfg).map_err(|e| e.to_string())?;
    println!("circuit delay: {:.3} ns", timing.circuit_delay() / 1000.0);
    for (i, p) in top_k_paths(&circuit, &model, &cfg, k).iter().enumerate() {
        let names: Vec<&str> = p.nets().iter().map(|&n| circuit.net(n).name()).collect();
        println!("#{:<2} {:.3} ns  {}", i + 1, p.arrival() / 1000.0, names.join(" -> "));
    }
    Ok(())
}

fn cmd_glitch(opts: &Opts) -> Result<(), String> {
    let circuit = load_circuit(opts)?;
    let margin: f64 = opts.num("margin", 0.4)?;
    let timing = TimingReport::run(&circuit, &LinearDelayModel::new(), &StaConfig::default())
        .map_err(|e| e.to_string())?;
    let reports = glitch::check(
        &circuit,
        &NoiseConfig::default(),
        timing.timings(),
        &CouplingMask::all(&circuit),
        glitch::NoiseMargin { low: margin, high: margin },
    );
    let violations = reports.iter().filter(|r| r.violated()).count();
    println!(
        "glitch check (margin {margin:.2}): {} nets checked, {} violations",
        reports.len(),
        violations
    );
    for r in reports.iter().take(10) {
        println!(
            "  {:>12}  peak {:.3}  slack {:+.3}{}",
            circuit.net(r.net).name(),
            r.peak,
            r.slack(),
            if r.violated() { "  VIOLATED" } else { "" }
        );
    }
    Ok(())
}

fn cmd_lint(opts: &Opts) -> Result<(), String> {
    let circuit = load_circuit(opts)?;

    let mut diags = lint_circuit(&circuit);
    diags.merge(lint_config(&TopKConfig::default()));

    // The static timing windows every downstream analysis consumes.
    match TimingReport::run(&circuit, &LinearDelayModel::new(), &StaConfig::default()) {
        Ok(timing) => diags.merge(lint_timing(&circuit, timing.timings())),
        Err(e) => return Err(format!("cannot derive timing windows: {e}")),
    }

    if opts.has("deep") {
        diags.merge(deep_lint(&TopKAnalysis::new(&circuit, TopKConfig::default()))?);
    }

    diags.sort();
    render_lint(&diags, opts.has("json"));
    if diags.has_errors() {
        Err(format!("lint failed with {} error(s)", diags.error_count()))
    } else {
        Ok(())
    }
}

/// `lint --deep`: runs a small top-k analysis on `engine` end to end and
/// verifies its answer, then exercises an incremental what-if session and
/// checks its dirty-set bookkeeping against the L035
/// session-cache-coherence rule. The session, a batch menu in both orders
/// and a parallel re-sweep are diffed against the from-scratch oracle
/// (L061) — so an unsound proven-clean skip, e.g. one forced by an engine
/// built with the `force_clean_victim` fault hook, fails the lint where
/// it changes an answer — and the batch scenarios' dirty sets are linted
/// too.
fn deep_lint(engine: &TopKAnalysis<'_>) -> Result<Diagnostics, String> {
    let circuit = engine.circuit();
    let result = engine.addition_set(2).map_err(|e| e.to_string())?;
    let mut diags = lint_result(circuit, &result, &CouplingSet::new());

    let mut session = WhatIfSession::start(engine, Mode::Elimination, 2)
        .map_err(|e| format!("deep lint: cannot start what-if session: {e}"))?;
    let worst: Vec<_> = session.result().couplings().to_vec();
    let pre_mask = session.mask().clone();
    let outcome = session
        .apply(&MaskDelta::remove(&worst))
        .map_err(|e| format!("deep lint: what-if apply failed: {e}"))?;
    diags.merge(audit_dirty_set(circuit, &pre_mask, session.mask(), &outcome));

    // Reference identity (L061): the session's cached state, a small
    // batch menu in both submission orders, and a parallel re-sweep of
    // the addition run must all equal the serial from-scratch oracle.
    let reference = |mode, mask: &CouplingMask| {
        Oracle::new(engine, mode, 2, mask)
            .map_err(|e| format!("deep lint: cannot run the from-scratch reference: {e}"))
    };
    let verdict = reference(Mode::Elimination, session.mask())?.check_session(&session);
    diags.merge(lint_divergence(circuit, "what-if session", verdict));
    let ids: Vec<CouplingId> = circuit.coupling_ids().take(2).collect();
    if !ids.is_empty() {
        let mut deltas: Vec<MaskDelta> = ids.iter().map(|&c| MaskDelta::remove(&[c])).collect();
        deltas.push(MaskDelta::remove(&ids));
        let forward = session
            .apply_batch(&WhatIfBatch::from_deltas(deltas.clone()))
            .map_err(|e| format!("deep lint: batch what-if failed: {e}"))?;
        diags.merge(
            audit_batch(engine, &session, &deltas, &forward)
                .map_err(|e| format!("deep lint: {e}"))?,
        );
    }
    let oracle = reference(Mode::Addition, &CouplingMask::all(circuit))?;
    diags.merge(lint_divergence(circuit, "addition run", oracle.check_result(&result)));
    let threads = engine.config().effective_threads();
    diags.merge(lint_divergence(circuit, "parallel sweep", oracle.check_parallel(threads)));

    // Chain integrity (L07x): round-trip the touched session through
    // a scratch generation chain — checkpoint base plus one appended
    // delta — and verify the file's record order, links and replay
    // against the chain rules. One scratch file per process and thread,
    // so concurrent deep lints never share a chain.
    let dir = std::env::temp_dir().join("dna_lint_deep_chain");
    fs::create_dir_all(&dir).map_err(|e| format!("deep lint: cannot create {dir:?}: {e}"))?;
    let thread = std::thread::current().id();
    let chain = dir.join(format!("lint-{}-{thread:?}.dnawifa", std::process::id()));
    commit_chain(&mut session, &chain, &CommitOptions::default())
        .map_err(|e| format!("deep lint: cannot commit scratch chain: {e}"))?;
    session
        .apply(&MaskDelta::new(&[], &worst))
        .map_err(|e| format!("deep lint: what-if restore failed: {e}"))?;
    commit_chain(&mut session, &chain, &CommitOptions::default())
        .map_err(|e| format!("deep lint: cannot append to scratch chain: {e}"))?;
    let bytes =
        fs::read(&chain).map_err(|e| format!("deep lint: cannot read scratch chain: {e}"))?;
    let _ = fs::remove_file(&chain);
    let summary = chain_summary_checked(engine, &bytes)
        .map_err(|e| format!("deep lint: scratch chain unreadable: {e}"))?;
    diags.merge(lint_chain(&summary));
    Ok(diags)
}

fn render_lint(diags: &Diagnostics, json: bool) {
    if json {
        println!("{}", diags.render_json());
    } else {
        println!("{}", diags.render_text());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn unknown_command_errors() {
        assert!(dispatch(&argv(&["frobnicate"])).is_err());
        // The timing harness is perfbench; `dna bench` is not a command.
        assert!(dispatch(&argv(&["bench"])).unwrap_err().starts_with("unknown command `bench`"));
    }

    #[test]
    fn help_and_empty_succeed() {
        assert!(dispatch(&argv(&["help"])).is_ok());
        assert!(dispatch(&argv(&[])).is_ok());
    }

    #[test]
    fn generate_analyze_topk_round_trip() {
        let dir = std::env::temp_dir().join("dna_cli_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.ckt");
        let path_s = path.to_str().unwrap().to_owned();

        dispatch(&argv(&[
            "generate",
            "--gates",
            "15",
            "--couplings",
            "12",
            "--seed",
            "3",
            "--o",
            &path_s,
        ]))
        .unwrap();
        assert!(path.exists());

        dispatch(&argv(&["analyze", &path_s])).unwrap();
        dispatch(&argv(&["topk", &path_s, "--mode", "add", "--k", "2"])).unwrap();
        dispatch(&argv(&["topk", &path_s, "--mode", "del", "--k", "2", "--peel"])).unwrap();
        dispatch(&argv(&["paths", &path_s, "--k", "3"])).unwrap();
        dispatch(&argv(&["glitch", &path_s])).unwrap();
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn whatif_runs_and_audits() {
        let dir = std::env::temp_dir().join("dna_cli_test_whatif");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.ckt");
        let path_s = path.to_str().unwrap().to_owned();
        dispatch(&argv(&[
            "generate",
            "--gates",
            "18",
            "--couplings",
            "14",
            "--seed",
            "7",
            "--o",
            &path_s,
        ]))
        .unwrap();
        dispatch(&argv(&["whatif", &path_s, "--k", "2", "--audit"])).unwrap();
        dispatch(&argv(&["whatif", &path_s, "--mode", "add", "--k", "2", "--audit"])).unwrap();
        // Structural damping skips the prover but must pass the same audit.
        dispatch(&argv(&["whatif", &path_s, "--k", "2", "--damping", "structural", "--audit"]))
            .unwrap();
        let e = dispatch(&argv(&["whatif", &path_s, "--mode", "sideways"])).unwrap_err();
        assert!(e.contains("unknown --mode"));
        let e = dispatch(&argv(&["whatif", &path_s, "--damping", "cosmetic"])).unwrap_err();
        assert!(e.contains("unknown --damping"));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn deep_lint_names_a_forced_clean_victim() {
        use dna_lint::{Location, Rule};
        use dna_topk::faultsim::Faults;

        let dir = std::env::temp_dir().join("dna_cli_test_faultsim");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.ckt");
        let path_s = path.to_str().unwrap().to_owned();
        dispatch(&argv(&[
            "generate",
            "--gates",
            "20",
            "--couplings",
            "15",
            "--seed",
            "11",
            "-o",
            &path_s,
        ]))
        .unwrap();

        // Replay the session deep lint runs and aim the hook at an
        // endpoint of a coupling it removes: that victim's candidate
        // lists lose the coupling, so skipping it changes an answer.
        let text = fs::read_to_string(&path).unwrap();
        let circuit = format::parse(&text).unwrap();
        let engine = TopKAnalysis::new(&circuit, TopKConfig::default());
        let session = WhatIfSession::start(&engine, Mode::Elimination, 2).unwrap();
        let removed = circuit.coupling(session.result().couplings()[0]);
        let victim = removed.a();

        // On an engine with the prover hook armed, the session serves
        // that victim stale; the oracle audit of `lint --deep` must name
        // it under L061.
        let faults = Faults { force_clean_victim: Some(victim.index()), ..Faults::default() };
        let forging = TopKAnalysis::with_faults(&circuit, TopKConfig::default(), faults);
        let diags = deep_lint(&forging).unwrap();
        assert!(
            diags.iter().any(|d| d.rule == Rule::ReferenceDivergence
                && matches!(d.location, Location::Net { id, .. } if id == victim.index())),
            "L061 must name victim {}:\n{}",
            victim.index(),
            diags.render_text()
        );

        // On a default engine, the same pass is clean again.
        assert!(!deep_lint(&engine).unwrap().has_errors());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn lint_passes_on_generated_circuit() {
        let dir = std::env::temp_dir().join("dna_cli_test_lint");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.ckt");
        let path_s = path.to_str().unwrap().to_owned();
        dispatch(&argv(&[
            "generate",
            "--gates",
            "20",
            "--couplings",
            "15",
            "--seed",
            "11",
            "--o",
            &path_s,
        ]))
        .unwrap();
        dispatch(&argv(&["lint", &path_s])).unwrap();
        dispatch(&argv(&["lint", &path_s, "--json", "--deep"])).unwrap();
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn topk_budget_flags_degrade_soundly() {
        let dir = std::env::temp_dir().join("dna_cli_test_budget");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.ckt");
        let path_s = path.to_str().unwrap().to_owned();
        dispatch(&argv(&[
            "generate",
            "--gates",
            "16",
            "--couplings",
            "12",
            "--seed",
            "5",
            "--o",
            &path_s,
        ]))
        .unwrap();
        // A brutal budget still succeeds: the result is degraded, not an error.
        dispatch(&argv(&["topk", &path_s, "--mode", "del", "--k", "3", "--victim-budget", "1"]))
            .unwrap();
        dispatch(&argv(&["topk", &path_s, "--mode", "add", "--k", "2", "--global-budget", "0"]))
            .unwrap();
        dispatch(&argv(&["topk", &path_s, "--k", "2", "--deadline-ms", "0"])).unwrap();
        let e = dispatch(&argv(&["topk", &path_s, "--victim-budget", "lots"])).unwrap_err();
        assert!(e.contains("--victim-budget"));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn whatif_save_load_round_trip_and_corrupt_fallback() {
        let dir = std::env::temp_dir().join("dna_cli_test_artifact");
        fs::create_dir_all(&dir).unwrap();
        let ckt = dir.join("t.ckt");
        let ckt_s = ckt.to_str().unwrap().to_owned();
        let art = dir.join("t.dna");
        let art_s = art.to_str().unwrap().to_owned();
        dispatch(&argv(&[
            "generate",
            "--gates",
            "18",
            "--couplings",
            "14",
            "--seed",
            "9",
            "--o",
            &ckt_s,
        ]))
        .unwrap();

        dispatch(&argv(&["whatif", &ckt_s, "--k", "2", "--save", &art_s])).unwrap();
        assert!(art.exists());
        // Clean artifact resumes and still passes the bit-identity audit.
        dispatch(&argv(&["whatif", &ckt_s, "--k", "2", "--load", &art_s, "--audit"])).unwrap();

        // Truncate the artifact: the loader must detect it and the command
        // must still succeed via the from-scratch fallback.
        let bytes = fs::read(&art).unwrap();
        fs::write(&art, &bytes[..bytes.len() / 2]).unwrap();
        dispatch(&argv(&["whatif", &ckt_s, "--k", "2", "--load", &art_s, "--audit"])).unwrap();

        // Flip one payload byte: CRC mismatch, same graceful fallback.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        fs::write(&art, &flipped).unwrap();
        dispatch(&argv(&["whatif", &ckt_s, "--k", "2", "--load", &art_s, "--audit"])).unwrap();

        fs::remove_file(&ckt).unwrap();
        fs::remove_file(&art).unwrap();
    }

    #[test]
    fn whatif_batch_runs_audits_and_rejects_bad_tokens() {
        let dir = std::env::temp_dir().join("dna_cli_test_batch");
        fs::create_dir_all(&dir).unwrap();
        let ckt = dir.join("t.ckt");
        let ckt_s = ckt.to_str().unwrap().to_owned();
        let bat = dir.join("t.batch");
        let bat_s = bat.to_str().unwrap().to_owned();
        dispatch(&argv(&[
            "generate",
            "--gates",
            "18",
            "--couplings",
            "14",
            "--seed",
            "7",
            "--o",
            &ckt_s,
        ]))
        .unwrap();

        fs::write(&bat, "# scenario menu\n-0\n-1 -2\n-0  # duplicate of scenario 1\n+3\n").unwrap();
        dispatch(&argv(&["whatif", &ckt_s, "--k", "2", "--batch", &bat_s, "--audit"])).unwrap();

        fs::write(&bat, "-0 oops\n").unwrap();
        let e = dispatch(&argv(&["whatif", &ckt_s, "--k", "2", "--batch", &bat_s])).unwrap_err();
        assert!(e.contains("expected -ID or +ID"), "{e}");
        fs::write(&bat, "-99999\n").unwrap();
        let e = dispatch(&argv(&["whatif", &ckt_s, "--k", "2", "--batch", &bat_s])).unwrap_err();
        assert!(e.contains("out of range"), "{e}");
        fs::write(&bat, "# only comments\n").unwrap();
        let e = dispatch(&argv(&["whatif", &ckt_s, "--k", "2", "--batch", &bat_s])).unwrap_err();
        assert!(e.contains("no scenarios"), "{e}");

        fs::remove_file(&ckt).unwrap();
        fs::remove_file(&bat).unwrap();
    }

    #[test]
    fn whatif_save_after_load_appends_a_delta_record() {
        let dir = std::env::temp_dir().join("dna_cli_test_save_delta");
        fs::create_dir_all(&dir).unwrap();
        let ckt = dir.join("t.ckt");
        let ckt_s = ckt.to_str().unwrap().to_owned();
        let art = dir.join("t.dna");
        let art_s = art.to_str().unwrap().to_owned();
        dispatch(&argv(&[
            "generate",
            "--gates",
            "16",
            "--couplings",
            "12",
            "--seed",
            "13",
            "--o",
            &ckt_s,
        ]))
        .unwrap();

        // A fresh session writes a full checkpoint.
        dispatch(&argv(&["whatif", &ckt_s, "--k", "2", "--save", &art_s])).unwrap();
        let checkpoint = fs::read(&art).unwrap();
        let summary = dna_topk::chain_summary(&checkpoint).unwrap();
        assert_eq!(summary.records.len(), 1);
        assert_eq!(summary.records[0].kind, RecordKind::Checkpoint);

        // Resume + fix + save: the touched session appends one delta
        // record onto the chain; the committed prefix is not rewritten.
        dispatch(&argv(&["whatif", &ckt_s, "--k", "2", "--load", &art_s, "--save", &art_s]))
            .unwrap();
        let grown = fs::read(&art).unwrap();
        assert!(grown.len() > checkpoint.len(), "delta save must grow the chain");
        assert_eq!(
            &grown[..checkpoint.len()],
            &checkpoint[..],
            "delta save must not rewrite the committed prefix"
        );
        let summary = dna_topk::chain_summary(&grown).unwrap();
        assert!(summary.faults.is_empty(), "{:?}", summary.faults);
        let kinds: Vec<RecordKind> = summary.records.iter().map(|r| r.kind).collect();
        assert_eq!(kinds, vec![RecordKind::Checkpoint, RecordKind::Delta]);

        // The delta tail replays: the next resume lands on the tip and
        // still passes the bit-identity audit.
        dispatch(&argv(&["whatif", &ckt_s, "--k", "2", "--load", &art_s, "--audit"])).unwrap();

        // --compact folds the chain back into a single checkpoint.
        dispatch(&argv(&[
            "whatif",
            &ckt_s,
            "--k",
            "2",
            "--load",
            &art_s,
            "--save",
            &art_s,
            "--compact",
        ]))
        .unwrap();
        let compacted = fs::read(&art).unwrap();
        let summary = dna_topk::chain_summary(&compacted).unwrap();
        assert_eq!(summary.records.len(), 1);
        assert_eq!(summary.records[0].kind, RecordKind::Checkpoint);

        fs::remove_file(&ckt).unwrap();
        fs::remove_file(&art).unwrap();
    }

    #[test]
    fn whatif_history_lists_and_replays_generations() {
        let dir = std::env::temp_dir().join("dna_cli_test_history");
        fs::create_dir_all(&dir).unwrap();
        let ckt = dir.join("t.ckt");
        let ckt_s = ckt.to_str().unwrap().to_owned();
        let art = dir.join("t.dna");
        let art_s = art.to_str().unwrap().to_owned();
        dispatch(&argv(&[
            "generate",
            "--gates",
            "16",
            "--couplings",
            "12",
            "--seed",
            "21",
            "--o",
            &ckt_s,
        ]))
        .unwrap();

        // Grow a two-generation chain: checkpoint, then one delta.
        dispatch(&argv(&["whatif", &ckt_s, "--k", "2", "--save", &art_s])).unwrap();
        dispatch(&argv(&["whatif", &ckt_s, "--k", "2", "--load", &art_s, "--save", &art_s]))
            .unwrap();
        let summary = dna_topk::chain_summary(&fs::read(&art).unwrap()).unwrap();
        let base = summary.base_generation().unwrap();
        let tip = summary.tip_generation().unwrap();
        assert!(tip > base, "the chain must span more than one generation");

        // Bare --history lists; --history GEN replays any committed
        // generation, including ones behind the tip.
        dispatch(&argv(&["whatif", &ckt_s, "--load", &art_s, "--history"])).unwrap();
        for generation in [base, tip] {
            dispatch(&argv(&[
                "whatif",
                &ckt_s,
                "--load",
                &art_s,
                "--history",
                &generation.to_string(),
            ]))
            .unwrap();
        }

        // Past the tip is a typed refusal, not a crash or a guess.
        let e = dispatch(&argv(&[
            "whatif",
            &ckt_s,
            "--load",
            &art_s,
            "--history",
            &(tip + 7).to_string(),
        ]))
        .unwrap_err();
        assert!(e.contains("generation"), "{e}");

        // --history without a chain to inspect is an error up front.
        let e = dispatch(&argv(&["whatif", &ckt_s, "--history"])).unwrap_err();
        assert!(e.contains("--history needs --load"), "{e}");

        fs::remove_file(&ckt).unwrap();
        fs::remove_file(&art).unwrap();
    }

    #[test]
    fn missing_file_reports_error() {
        let e = dispatch(&argv(&["analyze", "/nonexistent/x.ckt"])).unwrap_err();
        assert!(e.contains("cannot read"));
    }

    #[test]
    fn bad_mode_reports_error() {
        let dir = std::env::temp_dir().join("dna_cli_test2");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.ckt");
        let path_s = path.to_str().unwrap().to_owned();
        dispatch(&argv(&["generate", "--gates", "8", "--couplings", "4", "--o", &path_s])).unwrap();
        let e = dispatch(&argv(&["topk", &path_s, "--mode", "sideways"])).unwrap_err();
        assert!(e.contains("unknown --mode"));
        fs::remove_file(&path).unwrap();
    }
}
