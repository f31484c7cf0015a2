//! `dna serve` / `dna client`: the loopback what-if daemon front end.
//!
//! The daemon binds a TCP listener on `127.0.0.1` (never a routable
//! address), announces the resolved port on stdout (`--port 0` asks the
//! OS for an ephemeral one), and then speaks the line-delimited JSON
//! protocol of [`dna_topk::serve::wire`]: one request object per line,
//! one response object per line. All session state lives in the
//! [`SessionManager`]; this module only moves bytes and loads circuit
//! files for `open` requests.
//!
//! With `--dir STATE_DIR` the daemon is *durable*: every tenant's
//! session is committed to an artifact chain in that directory (delta
//! appends on `commit`, full flush on shutdown) and recorded in the
//! `tenants.dnareg` manifest. `--recover` replays the manifest at boot
//! — resuming every tenant from its last committed generation,
//! repairing torn chains in place, quarantining what cannot be salvaged
//! — and is safe to pass unconditionally (an empty directory recovers
//! nothing). SIGINT/SIGTERM trigger the same graceful flush as a wire
//! `shutdown` request.

use std::fs;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dna_netlist::{format, Circuit};
use dna_topk::serve::wire::{self, Request};
use dna_topk::serve::{ErrorCode, RecoverOutcome, Response, ServeConfig, SessionManager};
use dna_topk::TopKConfig;

use crate::opts::Opts;

/// Process-global graceful-termination flag, set by SIGINT/SIGTERM so
/// the accept loop can flush every tenant before exiting. The handler
/// does nothing but store to an atomic — async-signal-safe by
/// construction.
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERMINATION: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        TERMINATION.store(true, Ordering::SeqCst);
    }

    /// Installs the SIGINT/SIGTERM handlers (no-op off unix). Uses the
    /// libc `signal` entry point std already links — the workspace
    /// stays dependency-free.
    #[cfg(unix)]
    pub fn install() {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        let handler = on_signal as extern "C" fn(i32) as usize;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }

    #[cfg(not(unix))]
    pub fn install() {}

    /// Whether a termination signal has arrived.
    pub fn requested() -> bool {
        TERMINATION.load(Ordering::SeqCst)
    }
}

/// Resolves an `open` request's circuit source: read the netlist file
/// and parse it. Also the recovery pass's resolver, so a tenant's
/// circuit is re-read from the same path it was opened from.
fn load_circuit(source: &str) -> Result<Circuit, String> {
    let text = fs::read_to_string(source).map_err(|e| format!("cannot read: {e}"))?;
    format::parse(&text).map_err(|e| format!("cannot parse: {e}"))
}

/// `dna serve`: run the daemon until a client sends `{"op":"shutdown"}`
/// or the process receives SIGINT/SIGTERM; either path flushes every
/// hot tenant (durably, with `--dir`) before exiting.
pub fn cmd_serve(opts: &Opts) -> Result<(), String> {
    let port: u16 = opts.num("port", 0)?;
    let config = ServeConfig {
        capacity: opts.num("capacity", 4)?,
        max_queue: opts.num("max-queue", 64)?,
        victim_budget_cap: crate::commands::opt_num(opts, "victim-budget-cap")?,
        global_budget_cap: crate::commands::opt_num(opts, "global-budget-cap")?,
        deadline_cap: crate::commands::opt_num::<u64>(opts, "deadline-cap-ms")?
            .map(Duration::from_millis),
    };
    let state_dir = opts.flag("dir").map(PathBuf::from);
    if opts.has("recover") && state_dir.is_none() {
        return Err("--recover needs --dir (the daemon state directory)".into());
    }
    let manager = match &state_dir {
        Some(dir) => Arc::new(
            SessionManager::new_durable(config, dir)
                .map_err(|e| format!("cannot open state directory `{}`: {e}", dir.display()))?,
        ),
        None => Arc::new(SessionManager::new(config)),
    };
    if opts.has("recover") {
        report_recovery(&manager);
    }
    signals::install();
    let listener = TcpListener::bind(("127.0.0.1", port))
        .map_err(|e| format!("cannot bind 127.0.0.1:{port}: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    println!("dna serve: listening on {addr}");
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    run_server_with(&listener, &manager)
}

/// Runs the recovery pass and narrates it, one line per tenant.
fn report_recovery(manager: &SessionManager) {
    let report = manager.recover(&load_circuit);
    if let Some(damage) = &report.registry.damage {
        println!(
            "dna serve: manifest repaired ({} bytes truncated): {damage}",
            report.registry.truncated_bytes
        );
    }
    if report.stale_temp_files > 0 {
        println!("dna serve: removed {} stale checkpoint temp file(s)", report.stale_temp_files);
    }
    let mut resumed = 0usize;
    let mut quarantined = 0usize;
    for t in &report.tenants {
        match &t.outcome {
            RecoverOutcome::Resumed { generation, fingerprint, repaired_bytes, damage } => {
                resumed += 1;
                println!(
                    "dna serve: recovered tenant `{}` at generation {generation} \
                     (fingerprint {fingerprint:016x})",
                    t.tenant
                );
                if let Some(damage) = damage {
                    println!(
                        "dna serve: tenant `{}` chain repaired ({repaired_bytes} bytes \
                         truncated): {damage}",
                        t.tenant
                    );
                } else if *repaired_bytes > 0 {
                    println!(
                        "dna serve: tenant `{}` chain repaired ({repaired_bytes} bytes truncated)",
                        t.tenant
                    );
                }
            }
            RecoverOutcome::Quarantined { reason } => {
                quarantined += 1;
                println!("dna serve: quarantined tenant `{}`: {reason}", t.tenant);
            }
        }
    }
    println!("dna serve: recovery complete ({resumed} resumed, {quarantined} quarantined)");
}

/// Accept loop over a non-blocking listener with a fresh in-memory
/// manager — the test harness's entry point; `cmd_serve` goes through
/// [`run_server_with`] so the durable manager can be shared.
#[cfg(test)]
pub(crate) fn run_server(listener: &TcpListener, config: ServeConfig) -> Result<(), String> {
    run_server_with(listener, &Arc::new(SessionManager::new(config)))
}

fn run_server_with(listener: &TcpListener, manager: &Arc<SessionManager>) -> Result<(), String> {
    let stop = Arc::new(AtomicBool::new(false));
    listener.set_nonblocking(true).map_err(|e| format!("cannot poll listener: {e}"))?;
    let mut handlers = Vec::new();
    loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        if signals::requested() {
            eprintln!("dna serve: termination signal received; flushing tenants");
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                // Handlers poll the stop flag between lines, so a
                // lingering idle client cannot block shutdown forever.
                let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
                let manager = manager.clone();
                let stop = stop.clone();
                handlers.push(std::thread::spawn(move || {
                    if handle_connection(&stream, &manager, &stop) {
                        stop.store(true, Ordering::SeqCst);
                    }
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => return Err(format!("accept failed: {e}")),
        }
    }
    stop.store(true, Ordering::SeqCst);
    for h in handlers {
        let _ = h.join();
    }
    manager.shutdown();
    eprintln!("dna serve: all tenants flushed; exiting");
    Ok(())
}

/// Serves one client connection; returns `true` when the client asked
/// the daemon to shut down. Read timeouts are polls: the handler keeps
/// waiting unless the server-wide stop flag is up, and the bytes of a
/// line split by a pause stay buffered until its newline arrives. A line
/// longer than [`wire::MAX_LINE_BYTES`] is answered with `bad_request`
/// and closes the connection.
fn handle_connection(stream: &TcpStream, manager: &SessionManager, stop: &AtomicBool) -> bool {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return false,
    };
    let mut reader = BufReader::new(stream);
    let mut line: Vec<u8> = Vec::new();
    loop {
        // Read at most one byte past the cap, so an over-long line is
        // detected without buffering more of it.
        let room = (wire::MAX_LINE_BYTES + 1 - line.len()) as u64;
        match (&mut reader).take(room).read_until(b'\n', &mut line) {
            Ok(0) if line.is_empty() => return false,
            // A complete line, or the unterminated tail before EOF.
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if stop.load(Ordering::SeqCst) {
                    return false;
                }
                continue;
            }
            Err(_) => return false,
        }
        if line.len() > wire::MAX_LINE_BYTES && !line.ends_with(b"\n") {
            let message = format!("request line exceeds {} bytes", wire::MAX_LINE_BYTES);
            let _ = respond(&mut writer, &bad_request(message));
            return false;
        }
        let (response, bye) = match std::str::from_utf8(&line) {
            Ok(text) if text.trim().is_empty() => {
                line.clear();
                continue;
            }
            Ok(text) => match wire::decode_request(text) {
                Ok(request) => {
                    let bye = matches!(request, Request::Shutdown);
                    (handle_request(request, manager), bye)
                }
                Err(message) => (bad_request(message), false),
            },
            Err(e) => (bad_request(format!("request line is not UTF-8: {e}")), false),
        };
        line.clear();
        if !respond(&mut writer, &response) {
            return false;
        }
        if bye {
            return true;
        }
    }
}

/// A typed `bad_request` error response.
fn bad_request(message: String) -> Response {
    Response::Error(dna_topk::serve::ServeError { code: ErrorCode::BadRequest, message })
}

/// Writes one response line; `false` when the client is gone.
fn respond(writer: &mut TcpStream, response: &Response) -> bool {
    let mut encoded = wire::encode_response(response);
    encoded.push('\n');
    writer.write_all(encoded.as_bytes()).is_ok() && writer.flush().is_ok()
}

/// Routes one decoded request into the manager. `open` loads and parses
/// the circuit file here — a bad path or netlist is a `bad_request`,
/// never a dead daemon — and hands the manager the *path* as the
/// tenant's circuit source, which is what the durable manifest records
/// and the recovery pass re-resolves.
fn handle_request(request: Request, manager: &SessionManager) -> Response {
    match request {
        Request::Open { tenant, circuit, mode, k, victim_budget, global_budget, deadline_ms } => {
            let parsed = match load_circuit(&circuit) {
                Ok(c) => c,
                Err(e) => return bad_request(format!("`{circuit}`: {e}")),
            };
            let config = TopKConfig {
                victim_candidate_budget: victim_budget,
                global_candidate_budget: global_budget,
                deadline: deadline_ms.map(Duration::from_millis),
                ..TopKConfig::default()
            };
            manager.open_with_source(&tenant, parsed, Some(&circuit), mode, k, config)
        }
        Request::Scenario { tenant, delta } => manager.scenario(&tenant, delta),
        Request::Batch { tenant, deltas } => manager.batch(&tenant, deltas),
        Request::Commit { tenant, delta } => manager.commit(&tenant, delta),
        Request::Query { tenant, start_after, limit } => manager.query(&tenant, start_after, limit),
        Request::Evict { tenant } => manager.evict(&tenant),
        Request::Stats => manager.stats(),
        Request::Shutdown => manager.shutdown(),
    }
}

/// Connection errors worth retrying: the daemon is restarting (refused)
/// or went away mid-handshake (reset/aborted). Anything else — e.g. an
/// unroutable address — fails immediately.
fn transient(kind: std::io::ErrorKind) -> bool {
    matches!(
        kind,
        std::io::ErrorKind::ConnectionRefused
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
    )
}

/// Connects with a bounded exponential backoff (5 attempts: 50 ms, 100,
/// 200, 400 between them) unless `--no-retry` asked for exactly one.
fn connect_with_retry(port: u16, no_retry: bool) -> Result<TcpStream, String> {
    let attempts = if no_retry { 1 } else { 5 };
    let mut delay = Duration::from_millis(50);
    for attempt in 1..=attempts {
        match TcpStream::connect(("127.0.0.1", port)) {
            Ok(stream) => return Ok(stream),
            Err(e) if attempt < attempts && transient(e.kind()) => {
                eprintln!(
                    "dna client: connect to 127.0.0.1:{port} failed ({e}); \
                     retry {attempt}/{} in {delay:?}",
                    attempts - 1
                );
                std::thread::sleep(delay);
                delay *= 2;
            }
            Err(e) => {
                return Err(format!(
                    "cannot connect to 127.0.0.1:{port} after {attempt} attempt(s): {e}"
                ))
            }
        }
    }
    unreachable!("the loop returns on its last attempt")
}

/// `dna client`: send request lines to a running daemon and print the
/// response lines. Requests come from the positional arguments (one
/// JSON object each) or, with none, from stdin. Transient connect
/// failures are retried with exponential backoff; `--no-retry` makes
/// the first failure final.
pub fn cmd_client(opts: &Opts) -> Result<(), String> {
    let port: u16 = match opts.flag("port") {
        Some(v) => v.parse().map_err(|_| format!("invalid value for --port: `{v}`"))?,
        None => return Err("client needs --port (the port `dna serve` announced)".into()),
    };
    let mut requests: Vec<String> = Vec::new();
    let mut i = 1;
    while let Some(p) = opts.positional(i) {
        requests.push(p.to_owned());
        i += 1;
    }
    if requests.is_empty() {
        for line in std::io::stdin().lock().lines() {
            let line = line.map_err(|e| format!("cannot read stdin: {e}"))?;
            if !line.trim().is_empty() {
                requests.push(line);
            }
        }
    }
    if requests.is_empty() {
        return Err("no requests: pass JSON objects as arguments or on stdin".into());
    }
    let stream = connect_with_retry(port, opts.has("no-retry"))?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    for request in requests {
        writer
            .write_all(format!("{request}\n").as_bytes())
            .and_then(|()| writer.flush())
            .map_err(|e| format!("cannot send request: {e}"))?;
        let mut response = String::new();
        let n =
            reader.read_line(&mut response).map_err(|e| format!("cannot read response: {e}"))?;
        if n == 0 {
            return Err("daemon closed the connection".into());
        }
        print!("{response}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dna_netlist::generator::{generate, GeneratorConfig};

    fn write_circuit(dir: &std::path::Path, seed: u64) -> String {
        let circuit = generate(&GeneratorConfig::new(24, 18).with_seed(seed)).unwrap();
        let path = dir.join(format!("serve_{seed}.ckt"));
        fs::write(&path, format::write(&circuit)).unwrap();
        path.to_str().unwrap().to_owned()
    }

    /// A daemon on an ephemeral port, its address and the join handle.
    fn spawn_daemon() -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let server =
            std::thread::spawn(move || run_server(&listener, ServeConfig::default()).unwrap());
        (addr, server)
    }

    /// A connected client: the write half and a line reader.
    fn connect(addr: std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(addr).unwrap();
        (stream.try_clone().unwrap(), BufReader::new(stream))
    }

    fn send(writer: &mut TcpStream, bytes: &[u8]) {
        writer.write_all(bytes).unwrap();
        writer.flush().unwrap();
    }

    fn recv(reader: &mut BufReader<TcpStream>) -> String {
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        response
    }

    /// One end-to-end pass over the TCP loop: open, scenario, query,
    /// stats, a typed error, shutdown.
    #[test]
    fn daemon_answers_over_tcp_and_shuts_down() {
        let dir = std::env::temp_dir().join("dna_cli_test_serve");
        fs::create_dir_all(&dir).unwrap();
        let ckt = write_circuit(&dir, 21);

        let (addr, server) = spawn_daemon();
        let (mut writer, mut reader) = connect(addr);
        let mut ask = |line: String| -> String {
            send(&mut writer, format!("{line}\n").as_bytes());
            recv(&mut reader)
        };

        let r =
            ask(format!(r#"{{"op":"open","tenant":"a","circuit":"{ckt}","mode":"elim","k":2}}"#));
        assert!(r.contains("\"kind\":\"opened\""), "{r}");
        let r = ask(r#"{"op":"scenario","tenant":"a","remove":[0]}"#.into());
        assert!(r.contains("\"kind\":\"scenario\""), "{r}");
        assert!(r.contains("\"fingerprint\":\""), "{r}");
        let r = ask(r#"{"op":"query","tenant":"a","limit":8}"#.into());
        assert!(r.contains("\"kind\":\"page\""), "{r}");
        let r = ask(r#"{"op":"scenario","tenant":"ghost","remove":[0]}"#.into());
        assert!(r.contains("\"code\":\"unknown_tenant\""), "{r}");
        let r = ask("definitely not json".into());
        assert!(r.contains("\"code\":\"bad_request\""), "{r}");
        let r = ask(r#"{"op":"stats"}"#.into());
        assert!(r.contains("\"tenants\":1"), "{r}");
        let r = ask(r#"{"op":"shutdown"}"#.into());
        assert!(r.contains("\"kind\":\"bye\""), "{r}");
        server.join().unwrap();
        let _ = fs::remove_file(&ckt);
    }

    #[test]
    fn open_with_a_bad_circuit_path_is_a_typed_error_not_a_dead_daemon() {
        let (addr, server) = spawn_daemon();
        let (mut writer, mut reader) = connect(addr);
        let mut ask = |line: &str| -> String {
            send(&mut writer, format!("{line}\n").as_bytes());
            recv(&mut reader)
        };
        let r =
            ask(r#"{"op":"open","tenant":"a","circuit":"/nonexistent.ckt","mode":"add","k":2}"#);
        assert!(r.contains("\"code\":\"bad_request\""), "{r}");
        // The daemon is still alive and answers.
        let r = ask(r#"{"op":"stats"}"#);
        assert!(r.contains("\"kind\":\"stats\""), "{r}");
        let r = ask(r#"{"op":"shutdown"}"#);
        assert!(r.contains("\"kind\":\"bye\""), "{r}");
        server.join().unwrap();
    }

    #[test]
    fn request_split_by_a_pause_is_answered_whole() {
        let (addr, server) = spawn_daemon();
        let (mut a, mut a_in) = connect(addr);
        let (mut b, mut b_in) = connect(addr);
        // The pause outlasts the handler's 200 ms read timeout, so the
        // first half sits in the line buffer across a timed-out read.
        send(&mut a, br#"{"op":"st"#);
        for _ in 0..3 {
            std::thread::sleep(Duration::from_millis(100));
            send(&mut b, b"{\"op\":\"stats\"}\n");
            let r = recv(&mut b_in);
            assert!(r.contains("\"kind\":\"stats\""), "{r}");
        }
        send(&mut a, b"ats\"}\n");
        let r = recv(&mut a_in);
        assert!(r.contains("\"kind\":\"stats\""), "{r}");
        // The connection keeps serving whole lines afterwards.
        send(&mut a, b"{\"op\":\"shutdown\"}\n");
        let r = recv(&mut a_in);
        assert!(r.contains("\"kind\":\"bye\""), "{r}");
        server.join().unwrap();
    }

    #[test]
    fn over_long_line_is_a_typed_error_and_closes_the_connection() {
        let (addr, server) = spawn_daemon();
        let (mut a, mut a_in) = connect(addr);
        let (mut b, mut b_in) = connect(addr);
        send(&mut a, &vec![b' '; wire::MAX_LINE_BYTES + 1]);
        let r = recv(&mut a_in);
        assert!(r.contains("\"code\":\"bad_request\""), "{r}");
        assert!(r.contains("exceeds"), "{r}");
        assert_eq!(recv(&mut a_in), "", "the over-long connection is closed");
        // Other clients are unaffected.
        send(&mut b, b"{\"op\":\"stats\"}\n");
        let r = recv(&mut b_in);
        assert!(r.contains("\"kind\":\"stats\""), "{r}");
        send(&mut b, b"{\"op\":\"shutdown\"}\n");
        let r = recv(&mut b_in);
        assert!(r.contains("\"kind\":\"bye\""), "{r}");
        server.join().unwrap();
    }

    #[test]
    fn client_without_port_or_requests_errors() {
        let opts = Opts::parse(&["client".to_owned()]);
        let e = cmd_client(&opts).unwrap_err();
        assert!(e.contains("--port"), "{e}");
    }

    #[test]
    fn client_retry_is_bounded_and_no_retry_fails_fast() {
        // Nothing listens on this port: bind-then-drop frees one.
        let port = {
            let l = TcpListener::bind(("127.0.0.1", 0)).unwrap();
            l.local_addr().unwrap().port()
        };
        let start = std::time::Instant::now();
        let e = connect_with_retry(port, true).unwrap_err();
        assert!(e.contains("after 1 attempt"), "{e}");
        assert!(start.elapsed() < Duration::from_millis(500), "--no-retry does not back off");

        let start = std::time::Instant::now();
        let e = connect_with_retry(port, false).unwrap_err();
        assert!(e.contains("after 5 attempt"), "{e}");
        // 50 + 100 + 200 + 400 ms of backoff happened in between.
        assert!(start.elapsed() >= Duration::from_millis(700), "backoff is exponential");
    }

    #[test]
    fn recover_flag_requires_a_state_dir() {
        let opts = Opts::parse(&["serve".to_owned(), "--recover".to_owned()]);
        let e = cmd_serve(&opts).unwrap_err();
        assert!(e.contains("--dir"), "{e}");
    }
}
