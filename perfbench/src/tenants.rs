//! `serve-tenants-i1`: an in-process durable `SessionManager` (LRU
//! capacity 3) serving 6 i1 tenants of mixed modes to 2 closed-loop
//! client threads. Every request travels as a `serve::wire` line in both
//! directions. After the timed window every answer is replayed against
//! independent serial sessions that mirror each tenant's commits.
//!
//! Clients hold a per-tenant read lock around reads (scenario, batch,
//! query) and the write lock around commits, so concurrent reads of one
//! tenant may still coalesce while every read has one well-defined base
//! generation to replay against.

use std::path::{Path, PathBuf};
use std::sync::{Mutex, RwLock};
use std::time::{Duration, Instant};

use dna_netlist::CouplingId;
use dna_noise::NoiseAnalysis;
use dna_topk::serve::wire::{self, Request};
use dna_topk::serve::{Response, ServeConfig, ServeStats, SessionManager};
use dna_topk::{MaskDelta, Mode, TopKAnalysis, TopKConfig, WhatIfSession};

use crate::common::{circuit_text, median, mismatch, ms, parse_timed, ratio, sub_seed};
use crate::common::{Rng, Samples, Sheet, TempDir};
use crate::json::{self, Json};
use crate::Opts;

const K: usize = 10;
const CAPACITY: usize = 3;
const CLIENTS: usize = 2;
/// Tenant popularity by rank (a skewed, fixed distribution; the seed
/// picks each tenant's circuit and the request stream) and each rank's
/// mode, so the addition/elimination mix is the same for every seed.
const WEIGHTS: [f64; 6] = [0.28, 0.24, 0.20, 0.16, 0.07, 0.05];
const MODES: [Mode; 6] = [
    Mode::Addition,
    Mode::Addition,
    Mode::Addition,
    Mode::Addition,
    Mode::Elimination,
    Mode::Elimination,
];

fn config() -> TopKConfig {
    TopKConfig { threads: 1, ..TopKConfig::default() }
}

struct Tenant {
    name: String,
    text: String,
    source: PathBuf,
    mode: Mode,
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Scenario,
    Batch,
    Query,
    Commit,
}

/// One answered request, with the base generation it ran against.
struct Rec {
    tenant: usize,
    epoch: u64,
    kind: Kind,
    deltas: Vec<MaskDelta>,
    fingerprints: Vec<u64>,
    items: Vec<usize>,
}

/// What the clients know about a tenant's base session.
struct View {
    epoch: u64,
    enabled: Vec<bool>,
    top: Vec<CouplingId>,
}

#[derive(Default)]
struct ClientLog {
    recs: Vec<Rec>,
    lat: Samples,
    by_kind: [Vec<f64>; 4],
    encode_us: Vec<f64>,
    decode_us: Vec<f64>,
    bytes: Vec<f64>,
    failures: Vec<String>,
    overloaded: u64,
    attempted: u64,
}

fn open_all(
    tenants: &[Tenant],
    dir: &Path,
    parse_ms: &mut Vec<f64>,
) -> Result<(SessionManager, Vec<u64>), String> {
    let serve = ServeConfig { capacity: CAPACITY, ..ServeConfig::default() };
    let manager = SessionManager::new_durable(serve, dir).map_err(|e| e.to_string())?;
    let mut fps = Vec::new();
    for t in tenants {
        let (circuit, parse) = parse_timed(&t.text);
        parse_ms.push(ms(parse));
        let source = t.source.to_string_lossy();
        match manager.open_with_source(&t.name, circuit, Some(&source), t.mode, K, config()) {
            Response::Opened { fingerprint, .. } => fps.push(fingerprint),
            other => return Err(format!("open {}: {other:?}", t.name)),
        }
    }
    Ok((manager, fps))
}

fn stats(manager: &SessionManager) -> ServeStats {
    match manager.stats() {
        Response::Stats(s) => s,
        _ => ServeStats::default(),
    }
}

/// The server half of one request: decode the line, call the manager,
/// encode the response. Returns the response line, the decode and
/// encode times, and the time inside the manager.
fn serve_line(manager: &SessionManager, line: &str) -> (String, Duration, Duration, Duration) {
    let t = Instant::now();
    let request = wire::decode_request(line);
    let decode = t.elapsed();
    let t = Instant::now();
    let response = match request {
        Ok(Request::Scenario { tenant, delta }) => manager.scenario(&tenant, delta),
        Ok(Request::Batch { tenant, deltas }) => manager.batch(&tenant, deltas),
        Ok(Request::Commit { tenant, delta }) => manager.commit(&tenant, delta),
        Ok(Request::Query { tenant, start_after, limit }) => {
            manager.query(&tenant, start_after, limit)
        }
        Ok(other) => panic!("the benchmark clients never send {other:?}"),
        Err(e) => panic!("the benchmark encoded an undecodable request: {e}"),
    };
    let inside = t.elapsed();
    let t = Instant::now();
    let out = wire::encode_response(&response);
    (out, decode, t.elapsed(), inside)
}

fn pick_tenant(rng: &mut Rng) -> usize {
    let mut r = rng.unit();
    for (i, w) in WEIGHTS.iter().enumerate() {
        if r < *w {
            return i;
        }
        r -= w;
    }
    WEIGHTS.len() - 1
}

fn pick_kind(rng: &mut Rng) -> Kind {
    match rng.below(10) {
        0..=5 => Kind::Scenario,
        6 => Kind::Batch,
        7 | 8 => Kind::Query,
        _ => Kind::Commit,
    }
}

fn ids(v: &Json) -> Vec<usize> {
    v.as_array().iter().filter_map(Json::as_f64).map(|n| n as usize).collect()
}

/// Checks one scenario summary; returns its fingerprint.
fn summary_fp(s: &Json, log: &mut ClientLog) -> u64 {
    if s.get("degraded").and_then(Json::as_bool) != Some(false)
        || s.get("faults").and_then(Json::as_f64) != Some(0.0)
    {
        log.failures.push("degraded or quarantined scenario result".into());
    }
    s.fingerprint().unwrap_or_else(|| {
        log.failures.push("summary without a fingerprint".into());
        0
    })
}

#[allow(clippy::too_many_arguments)]
fn client(
    c: usize,
    opts: &Opts,
    manager: &SessionManager,
    tenants: &[Tenant],
    views: &[RwLock<View>],
    couplings: &[usize],
    until: Instant,
    traced: bool,
) -> ClientLog {
    let mut rng = Rng::new(sub_seed(opts.seed, 300 + c as u64 + if traced { 10 } else { 0 }));
    let mut log = ClientLog::default();
    let mut planted = false;
    while Instant::now() < until {
        let ti = pick_tenant(&mut rng);
        let kind = pick_kind(&mut rng);
        let name = &tenants[ti].name;
        log.attempted += 1;
        // Commits hold the tenant's write lock, reads a read lock.
        let (mut writer, reader) = if kind == Kind::Commit {
            (Some(views[ti].write().expect("view lock")), None)
        } else {
            (None, Some(views[ti].read().expect("view lock")))
        };
        let view: &View = writer.as_deref().or(reader.as_deref()).expect("one lock is held");
        let enabled = |id: CouplingId| view.enabled[id.index()];
        let draw = |rng: &mut Rng| crate::eco::draw(rng, couplings[ti], &view.top, enabled);
        let deltas: Vec<MaskDelta> = match kind {
            Kind::Scenario | Kind::Commit => vec![draw(&mut rng)],
            Kind::Batch => (0..2 + rng.below(3)).map(|_| draw(&mut rng)).collect(),
            Kind::Query => Vec::new(),
        };
        let epoch = view.epoch;

        let t0 = Instant::now();
        let line = match kind {
            Kind::Scenario => json::single_request("scenario", name, &deltas[0]),
            Kind::Commit => json::single_request("commit", name, &deltas[0]),
            Kind::Batch => json::batch_request(name, &deltas),
            Kind::Query => json::query_request(name, 64),
        };
        let encode = t0.elapsed();
        let (reply, sdecode, sencode, inside) = serve_line(manager, &line);
        let t1 = Instant::now();
        let parsed = json::parse(&reply);
        let decode = t1.elapsed();
        let dt = ms(t0.elapsed());
        if traced {
            log.encode_us.push((encode + sencode).as_secs_f64() * 1e6);
            log.decode_us.push((sdecode + decode).as_secs_f64() * 1e6);
            log.bytes.push((line.len() + reply.len()) as f64);
            log.by_kind[kind as usize].push(ms(inside));
        }
        log.lat.push(dt);

        let v = match parsed {
            Ok(v) => v,
            Err(e) => {
                log.failures.push(format!("undecodable response: {e}"));
                continue;
            }
        };
        if v.get("ok").and_then(Json::as_bool) != Some(true) {
            let code = v.get("code").and_then(Json::as_str).unwrap_or("?");
            if code == "overloaded" {
                log.overloaded += 1;
            }
            log.failures.push(format!("{name}: error response {reply}"));
            continue;
        }
        let mut rec =
            Rec { tenant: ti, epoch, kind, deltas, fingerprints: Vec::new(), items: Vec::new() };
        match kind {
            Kind::Scenario | Kind::Commit => {
                let s = v.get("summary").cloned().unwrap_or(Json::Null);
                rec.fingerprints.push(summary_fp(&s, &mut log));
                if let (Some(w), Some(set)) = (writer.as_deref_mut(), s.get("set")) {
                    w.epoch += 1;
                    for id in rec.deltas[0].removed() {
                        w.enabled[id.index()] = false;
                    }
                    for id in rec.deltas[0].added() {
                        w.enabled[id.index()] = true;
                    }
                    w.top = ids(set).into_iter().map(|i| CouplingId::new(i as u32)).collect();
                }
            }
            Kind::Batch => {
                let summaries = v.get("summaries").map_or(&[][..], Json::as_array);
                if summaries.len() != rec.deltas.len() {
                    log.failures
                        .push(format!("{name}: batch answered {} scenarios", summaries.len()));
                }
                for s in summaries {
                    rec.fingerprints.push(summary_fp(s, &mut log));
                }
            }
            Kind::Query => rec.items = v.get("items").map_or_else(Vec::new, ids),
        }
        if opts.plant_mismatch && c == 0 && !planted {
            if let Some(fp) = rec.fingerprints.first_mut() {
                *fp ^= 1;
                planted = true;
            }
        }
        if !rec.fingerprints.is_empty() || kind == Kind::Query {
            log.recs.push(rec);
        }
    }
    log
}

pub fn run(opts: &Opts, sheet: &mut Sheet) {
    let tmp = TempDir::new("serve", opts.seed);
    let tenants: Vec<Tenant> = (0..WEIGHTS.len())
        .map(|i| {
            let name = format!("t{i}");
            let text = circuit_text("i1", sub_seed(opts.seed, 200 + i as u64));
            let source = tmp.path().join(format!("{name}.ckt"));
            std::fs::write(&source, &text).expect("write tenant circuit");
            Tenant { name, text, source, mode: MODES[i] }
        })
        .collect();

    // Set-up: a fresh durable manager opening all six tenants (the LRU
    // already spills three of them). The last attempt is kept.
    let setups = if opts.tiny { 1 } else { 3 };
    let mut parse_ms = Vec::new();
    let mut setup_all = Vec::new();
    let mut kept = None;
    for i in 0..setups {
        let dir = tmp.path().join(format!("state{i}"));
        let t = Instant::now();
        let opened = open_all(&tenants, &dir, &mut parse_ms);
        setup_all.push(t.elapsed().as_secs_f64());
        match opened {
            Ok((manager, fps)) if i + 1 == setups => kept = Some((manager, fps, dir)),
            Ok((manager, _)) => {
                manager.shutdown();
            }
            Err(e) => return sheet.fail(&e),
        }
    }
    let (manager, open_fps, state_dir) = kept.expect("at least one set-up");

    let couplings: Vec<usize> =
        tenants.iter().map(|t| parse_timed(&t.text).0.num_couplings()).collect();
    let views: Vec<RwLock<View>> = couplings
        .iter()
        .map(|&n| RwLock::new(View { epoch: 0, enabled: vec![true; n], top: Vec::new() }))
        .collect();

    let phases: &[bool] = if opts.trace { &[false, true] } else { &[false] };
    let budget = Duration::from_secs_f64(opts.seconds) / phases.len() as u32;
    let mut logs: Vec<(bool, ClientLog)> = Vec::new();
    let mut window = Duration::ZERO;
    let mut traced_stats = (ServeStats::default(), ServeStats::default());
    for &traced in phases {
        let start = Instant::now();
        let s0 = stats(&manager);
        let until = start + budget;
        let out = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for c in 0..CLIENTS {
                let (manager, tenants, views, couplings, out) =
                    (&manager, &tenants, &views, &couplings, &out);
                s.spawn(move || {
                    let log = client(c, opts, manager, tenants, views, couplings, until, traced);
                    out.lock().expect("client logs").push((traced, log));
                });
            }
        });
        window += start.elapsed();
        logs.extend(out.into_inner().expect("client logs"));
        if traced {
            traced_stats = (s0, stats(&manager));
        }
    }
    let after = stats(&manager);
    let rss = crate::common::peak_rss_mb();
    manager.shutdown();

    let mut lat = Samples::default();
    let mut traced_lat = Samples::default();
    let mut recs = Vec::new();
    for (traced, log) in &mut logs {
        sheet.attempted += log.attempted;
        for f in &log.failures {
            sheet.fail(f);
        }
        if *traced { &mut traced_lat } else { &mut lat }.0.extend(&log.lat.0);
        recs.append(&mut log.recs);
    }
    if after.quarantined > 0 {
        sheet.fail(&format!("{} tenant(s) quarantined", after.quarantined));
    }

    let t = Instant::now();
    let (save_ms, resume_ms) = replay(&tenants, &open_fps, &recs, &state_dir, sheet);
    eprintln!("perfbench: replayed {} requests in {:.1} s", recs.len(), t.elapsed().as_secs_f64());

    sheet.put(
        "setup_s",
        median(&setup_all),
        "s",
        format!("median of {setups} set-ups, 6 tenants each"),
    );
    sheet.put("request_p50_ms", lat.p50(), "ms", format!("all ops, {}", lat.note_p50()));
    sheet.put("request_p90_ms", lat.p90(), "ms", lat.note_p90());
    let requests = (lat.len() + traced_lat.len()) as f64;
    sheet.put(
        "requests_per_s",
        ratio(requests, window.as_secs_f64()),
        "1/s",
        format!("{CLIENTS} closed-loop clients"),
    );
    sheet.put("peak_rss_mb", rss, "MB", "VmHWM after the timed window".into());
    if !opts.trace {
        return;
    }

    let traced_logs: Vec<&ClientLog> = logs.iter().filter(|l| l.0).map(|l| &l.1).collect();
    let all = |f: fn(&ClientLog) -> &Vec<f64>| -> Vec<f64> {
        traced_logs.iter().flat_map(|l| f(l).iter().copied()).collect()
    };
    let kind = |k: Kind| -> Vec<f64> {
        traced_logs.iter().flat_map(|l| l.by_kind[k as usize].iter().copied()).collect()
    };
    let (s0, s1) = traced_stats;
    let served = traced_logs.iter().map(|l| l.attempted).sum::<u64>() as f64;
    let (circuit, _) = parse_timed(&tenants[0].text);
    let fixpoints: Vec<(f64, usize)> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let r = NoiseAnalysis::new(&circuit, config().noise).run().expect("noise fixpoint");
            (ms(t.elapsed()), r.iterations())
        })
        .collect();
    sheet.put("netlist.parse_ms", median(&parse_ms), "ms", "per tenant circuit".into());
    sheet.put(
        "noise.fixpoint_ms",
        median(&fixpoints.iter().map(|f| f.0).collect::<Vec<_>>()),
        "ms",
        "separate NoiseAnalysis::run, tenant t0".into(),
    );
    sheet.put("noise.iterations", fixpoints[0].1 as f64, "count", String::new());
    sheet.put("persist.save_ms", median(&save_ms), "ms", "save_artifact, mirror sessions".into());
    sheet.put("persist.resume_ms", median(&resume_ms), "ms", "resume of each chain tip".into());
    sheet.put(
        "serve.scenario_ms",
        median(&kind(Kind::Scenario)),
        "ms",
        "inside the manager".into(),
    );
    sheet.put("serve.batch_ms", median(&kind(Kind::Batch)), "ms", String::new());
    sheet.put("serve.query_ms", median(&kind(Kind::Query)), "ms", String::new());
    sheet.put("serve.commit_ms", median(&kind(Kind::Commit)), "ms", String::new());
    sheet.put("serve.requests", served, "count", "sent in the traced window".into());
    sheet.put("serve.coalesced", (s1.coalesced - s0.coalesced) as f64, "count", String::new());
    sheet.put("serve.spills", (s1.spills - s0.spills) as f64, "count", String::new());
    sheet.put("serve.reloads", (s1.reloads - s0.reloads) as f64, "count", String::new());
    sheet.put(
        "serve.reload_fallbacks",
        (s1.reload_fallbacks - s0.reload_fallbacks) as f64,
        "count",
        String::new(),
    );
    sheet.put(
        "serve.overloaded",
        traced_logs.iter().map(|l| l.overloaded).sum::<u64>() as f64,
        "count",
        String::new(),
    );
    sheet.derived(
        "serve.reload_ratio",
        ratio((s1.reloads - s0.reloads) as f64, served),
        "ratio",
        "reloads / served".into(),
    );
    sheet.put("wire.encode_us", median(&all(|l| &l.encode_us)), "us", "request + response".into());
    sheet.put("wire.decode_us", median(&all(|l| &l.decode_us)), "us", "request + response".into());
    sheet.put("wire.bytes", median(&all(|l| &l.bytes)), "bytes", "request + response".into());
    sheet.put("trace.request_p50_ms", traced_lat.p50(), "ms", traced_lat.note_p50());
}

/// Replays every answered request, tenant by tenant, against an
/// independent serial session that mirrors the tenant's commits, then
/// resumes each tenant's on-disk chain tip and checks it against the
/// mirror. Returns the mirror `save_artifact` and chain `resume` times.
fn replay(
    tenants: &[Tenant],
    open_fps: &[u64],
    recs: &[Rec],
    state_dir: &Path,
    sheet: &mut Sheet,
) -> (Vec<f64>, Vec<f64>) {
    let indices: Vec<usize> = (0..tenants.len()).collect();
    let outcomes = crate::common::par_map(&indices, |&ti| {
        let mut failures = Vec::new();
        let tag = format!("t{ti}");
        let t = &tenants[ti];
        let (circuit, _) = parse_timed(&t.text);
        let analysis = TopKAnalysis::new(&circuit, config());
        let mut mirror = match WhatIfSession::start(&analysis, t.mode, K) {
            Ok(s) => s,
            Err(e) => return (vec![format!("t{ti} mirror start: {e}")], None, None),
        };
        failures.extend(mismatch(
            &tag,
            "open",
            open_fps[ti],
            mirror.result().identity_fingerprint(),
        ));
        let mut mine: Vec<&Rec> = recs.iter().filter(|r| r.tenant == ti).collect();
        mine.sort_by_key(|r| (r.epoch, r.kind == Kind::Commit));
        for r in mine {
            match r.kind {
                Kind::Query => {
                    let want: Vec<usize> =
                        mirror.result().couplings().iter().map(|c| c.index()).collect();
                    if r.items != want {
                        failures.push(format!("{tag} query: {:?} != mirror {want:?}", r.items));
                    }
                }
                Kind::Commit => match mirror.apply(&r.deltas[0]) {
                    Ok(o) => failures.extend(mismatch(
                        &tag,
                        "commit",
                        r.fingerprints[0],
                        o.result().identity_fingerprint(),
                    )),
                    Err(e) => failures.push(format!("{tag} mirror commit: {e}")),
                },
                Kind::Scenario | Kind::Batch => {
                    for (d, fp) in r.deltas.iter().zip(&r.fingerprints) {
                        match mirror.fork().apply(d) {
                            Ok(o) => failures.extend(mismatch(
                                &tag,
                                "scenario",
                                *fp,
                                o.result().identity_fingerprint(),
                            )),
                            Err(e) => failures.push(format!("{tag} mirror apply: {e}")),
                        }
                    }
                }
            }
        }
        let t0 = Instant::now();
        std::hint::black_box(mirror.save_artifact());
        let save = ms(t0.elapsed());
        let chain =
            chain_file(state_dir, &t.name).and_then(|p| std::fs::read(p).ok()).unwrap_or_default();
        let t0 = Instant::now();
        let resumed = WhatIfSession::resume(&analysis, &chain);
        let resume = ms(t0.elapsed());
        match resumed {
            Ok(s) => failures.extend(mismatch(
                &tag,
                "chain-tip resume",
                s.result().identity_fingerprint(),
                mirror.result().identity_fingerprint(),
            )),
            Err(e) => failures.push(format!("{tag} resume: {e}")),
        }
        (failures, Some(save), Some(resume))
    });
    let (mut save, mut resume) = (Vec::new(), Vec::new());
    for (failures, s, r) in outcomes {
        for f in failures {
            sheet.mismatches += 1;
            sheet.fail(&f);
        }
        save.extend(s);
        resume.extend(r);
    }
    (save, resume)
}

/// The tenant's chain file in the manager's state directory.
fn chain_file(dir: &Path, tenant: &str) -> Option<PathBuf> {
    let prefix = format!("{tenant}-");
    std::fs::read_dir(dir).ok()?.filter_map(Result::ok).map(|e| e.path()).find(|p| {
        p.file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with(&prefix) && n.ends_with(".dnawifa"))
    })
}
