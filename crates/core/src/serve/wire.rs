//! Loopback wire protocol of `dna serve`: one JSON object per line.
//!
//! Requests name an `"op"` and its arguments; every response is a
//! single object with `"ok"` plus either a `"kind"` payload or a typed
//! `"code"`/`"message"` error. Fingerprints travel as 16-digit hex
//! strings so clients can bit-compare daemon responses against a local
//! replay without pushing `f64`s through decimal formatting. The
//! encoder/decoder is hand-rolled (std only, no serde), matching the
//! bench report's JSON conventions.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use dna_netlist::CouplingId;

use crate::serve::{Response, ScenarioSummary, ServeStats};
use crate::MaskDelta;

/// One decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Open a tenant around a circuit file.
    Open {
        /// Tenant name.
        tenant: String,
        /// Path to the circuit netlist (resolved by the server process).
        circuit: String,
        /// `"addition"`/`"add"` or `"elimination"`/`"elim"`.
        mode: crate::Mode,
        /// Requested set size.
        k: usize,
        /// Requested per-victim candidate budget.
        victim_budget: Option<usize>,
        /// Requested global candidate budget.
        global_budget: Option<usize>,
        /// Requested sweep deadline in milliseconds.
        deadline_ms: Option<u64>,
    },
    /// Evaluate one scenario against the tenant's base session.
    Scenario {
        /// Tenant name.
        tenant: String,
        /// The scenario's mask delta.
        delta: MaskDelta,
    },
    /// Evaluate a batch of scenarios against the tenant's base session.
    Batch {
        /// Tenant name.
        tenant: String,
        /// The scenarios' mask deltas, in order.
        deltas: Vec<MaskDelta>,
    },
    /// Durably apply a delta to the tenant's base session.
    Commit {
        /// Tenant name.
        tenant: String,
        /// The delta to commit.
        delta: MaskDelta,
    },
    /// Page through the tenant's current top-k couplings.
    Query {
        /// Tenant name.
        tenant: String,
        /// Exclusive cursor: return couplings with index greater than
        /// this.
        start_after: Option<usize>,
        /// Page size.
        limit: usize,
    },
    /// Spill the tenant to its artifact now.
    Evict {
        /// Tenant name.
        tenant: String,
    },
    /// Daemon counters.
    Stats,
    /// Stop the daemon.
    Shutdown,
}

/// Decodes one request line. Errors are human-readable and become
/// `bad_request` responses.
pub fn decode_request(line: &str) -> Result<Request, String> {
    let value = parse(line)?;
    let obj = value.object("request")?;
    let op = get(obj, "op")?.string("op")?;
    match op {
        "open" => Ok(Request::Open {
            tenant: get(obj, "tenant")?.string("tenant")?.to_owned(),
            circuit: get(obj, "circuit")?.string("circuit")?.to_owned(),
            mode: match get(obj, "mode")?.string("mode")? {
                "addition" | "add" => crate::Mode::Addition,
                "elimination" | "elim" => crate::Mode::Elimination,
                other => return Err(format!("unknown mode `{other}`")),
            },
            k: get(obj, "k")?.unsigned("k")?,
            victim_budget: opt_unsigned(obj, "victim_budget")?,
            global_budget: opt_unsigned(obj, "global_budget")?,
            deadline_ms: opt_unsigned(obj, "deadline_ms")?.map(|n: usize| n as u64),
        }),
        "scenario" => Ok(Request::Scenario {
            tenant: get(obj, "tenant")?.string("tenant")?.to_owned(),
            delta: delta_of(obj)?,
        }),
        "batch" => {
            let scenarios = get(obj, "scenarios")?.array("scenarios")?;
            let deltas = scenarios
                .iter()
                .map(|s| delta_of(s.object("scenario")?))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Request::Batch { tenant: get(obj, "tenant")?.string("tenant")?.to_owned(), deltas })
        }
        "commit" => Ok(Request::Commit {
            tenant: get(obj, "tenant")?.string("tenant")?.to_owned(),
            delta: delta_of(obj)?,
        }),
        "query" => Ok(Request::Query {
            tenant: get(obj, "tenant")?.string("tenant")?.to_owned(),
            start_after: opt_unsigned(obj, "start_after")?,
            limit: opt_unsigned(obj, "limit")?.unwrap_or(64),
        }),
        "evict" => Ok(Request::Evict { tenant: get(obj, "tenant")?.string("tenant")?.to_owned() }),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown op `{other}`")),
    }
}

/// Reads the optional `remove`/`add` id arrays of a scenario object.
fn delta_of(obj: &BTreeMap<String, Json>) -> Result<MaskDelta, String> {
    let ids = |key: &str| -> Result<Vec<CouplingId>, String> {
        match obj.get(key) {
            None | Some(Json::Null) => Ok(Vec::new()),
            Some(v) => v
                .array(key)?
                .iter()
                .map(|n| n.unsigned(key).map(|i: usize| CouplingId::new(i as u32)))
                .collect(),
        }
    };
    Ok(MaskDelta::new(&ids("remove")?, &ids("add")?))
}

/// Encodes one response as a single JSON line (no trailing newline).
#[must_use]
pub fn encode_response(response: &Response) -> String {
    let mut s = String::new();
    match response {
        Response::Opened { tenant, nets, couplings, fingerprint } => {
            s.push_str("{\"ok\":true,\"kind\":\"opened\",\"tenant\":");
            push_string(&mut s, tenant);
            let _ = write!(
                s,
                ",\"nets\":{nets},\"couplings\":{couplings},\"fingerprint\":\"{fingerprint:016x}\"}}"
            );
        }
        Response::Scenario { tenant, summary, coalesced, note } => {
            s.push_str("{\"ok\":true,\"kind\":\"scenario\",\"tenant\":");
            push_string(&mut s, tenant);
            let _ = write!(s, ",\"coalesced\":{coalesced},\"summary\":");
            push_summary(&mut s, summary);
            push_note(&mut s, note.as_deref());
            s.push('}');
        }
        Response::Batch { tenant, summaries, coalesced, note } => {
            s.push_str("{\"ok\":true,\"kind\":\"batch\",\"tenant\":");
            push_string(&mut s, tenant);
            let _ = write!(s, ",\"coalesced\":{coalesced},\"summaries\":[");
            for (i, summary) in summaries.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                push_summary(&mut s, summary);
            }
            s.push(']');
            push_note(&mut s, note.as_deref());
            s.push('}');
        }
        Response::Committed { tenant, summary, note } => {
            s.push_str("{\"ok\":true,\"kind\":\"committed\",\"tenant\":");
            push_string(&mut s, tenant);
            s.push_str(",\"summary\":");
            push_summary(&mut s, summary);
            push_note(&mut s, note.as_deref());
            s.push('}');
        }
        Response::Page { tenant, items, next, note } => {
            s.push_str("{\"ok\":true,\"kind\":\"page\",\"tenant\":");
            push_string(&mut s, tenant);
            s.push_str(",\"items\":[");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{item}");
            }
            s.push_str("],\"next\":");
            match next {
                Some(n) => {
                    let _ = write!(s, "{n}");
                }
                None => s.push_str("null"),
            }
            push_note(&mut s, note.as_deref());
            s.push('}');
        }
        Response::Evicted { tenant, artifact_bytes } => {
            s.push_str("{\"ok\":true,\"kind\":\"evicted\",\"tenant\":");
            push_string(&mut s, tenant);
            let _ = write!(s, ",\"artifact_bytes\":{artifact_bytes}}}");
        }
        Response::Stats(stats) => push_stats(&mut s, stats),
        Response::Bye => s.push_str("{\"ok\":true,\"kind\":\"bye\"}"),
        Response::Error(e) => {
            let _ = write!(s, "{{\"ok\":false,\"code\":\"{}\",\"message\":", e.code.as_str());
            push_string(&mut s, &e.message);
            s.push('}');
        }
    }
    s
}

fn push_stats(s: &mut String, stats: &ServeStats) {
    let _ = write!(
        s,
        "{{\"ok\":true,\"kind\":\"stats\",\"tenants\":{},\"hot\":{},\"spilled\":{},\
         \"durable\":{},\"quarantined\":{},\"served\":{},\"coalesced\":{},\"spills\":{},\
         \"reloads\":{},\"reload_fallbacks\":{}}}",
        stats.tenants,
        stats.hot,
        stats.spilled,
        stats.durable,
        stats.quarantined,
        stats.served,
        stats.coalesced,
        stats.spills,
        stats.reloads,
        stats.reload_fallbacks
    );
}

fn push_summary(s: &mut String, summary: &ScenarioSummary) {
    let _ = write!(s, "{{\"degraded\":{},\"faults\":{}", summary.degraded, summary.faults);
    if let Some(cause) = &summary.first_fault {
        s.push_str(",\"first_fault\":");
        push_string(s, cause);
    }
    s.push_str(",\"set\":[");
    for (i, id) in summary.set.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{id}");
    }
    let _ = write!(s, "],\"sink\":{},\"delay_before\":", summary.sink);
    push_f64(s, summary.delay_before);
    s.push_str(",\"delay_after\":");
    push_f64(s, summary.delay_after);
    s.push_str(",\"predicted_delay\":");
    push_f64(s, summary.predicted_delay);
    let _ = write!(
        s,
        ",\"peak_list_width\":{},\"generated\":{},\"recomputed\":{},\"proven_clean\":{},\
         \"fingerprint\":\"{:016x}\"}}",
        summary.peak_list_width,
        summary.generated,
        summary.recomputed_victims,
        summary.proven_clean_victims,
        summary.fingerprint
    );
}

fn push_note(s: &mut String, note: Option<&str>) {
    if let Some(note) = note {
        s.push_str(",\"note\":");
        push_string(s, note);
    }
}

/// JSON has no NaN/Infinity; the identity fingerprint carries the exact
/// bits, so non-finite display values degrade to `null`.
fn push_f64(s: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(s, "{v}");
        if v.fract() == 0.0 && v.abs() < 1e15 {
            s.push_str(".0");
        }
    } else {
        s.push_str("null");
    }
}

fn push_string(s: &mut String, text: &str) {
    s.push('"');
    for c in text.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
}

// ---------------------------------------------------------------------
// Minimal JSON value + parser (subset: enough for the request grammar).

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(BTreeMap<String, Json>),
}

impl Json {
    fn object(&self, what: &str) -> Result<&BTreeMap<String, Json>, String> {
        match self {
            Json::Object(map) => Ok(map),
            _ => Err(format!("{what} must be an object")),
        }
    }

    fn array(&self, what: &str) -> Result<&[Json], String> {
        match self {
            Json::Array(items) => Ok(items),
            _ => Err(format!("{what} must be an array")),
        }
    }

    fn string(&self, what: &str) -> Result<&str, String> {
        match self {
            Json::String(text) => Ok(text),
            _ => Err(format!("{what} must be a string")),
        }
    }

    fn unsigned(&self, what: &str) -> Result<usize, String> {
        match self {
            Json::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Ok(*n as usize)
            }
            _ => Err(format!("{what} must be a non-negative integer")),
        }
    }
}

fn get<'a>(obj: &'a BTreeMap<String, Json>, key: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

fn opt_unsigned(obj: &BTreeMap<String, Json>, key: &str) -> Result<Option<usize>, String> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v.unsigned(key).map(Some),
    }
}

/// Deepest container nesting a wire line may use. Requests nest at most
/// 4 deep (a `batch`: object, scenario array, scenario object, id array)
/// and responses no deeper; the cap bounds the parser's recursion, so a
/// hostile line cannot overflow the connection thread's stack — an abort
/// no `catch_unwind` could contain.
const MAX_DEPTH: usize = 32;

/// Longest request line a connection may send, newline included. A
/// scenario naming every coupling of the largest suite circuit (i10,
/// 18,318 couplings) takes about 110 KB, so a `batch` of dozens of them
/// still fits; the cap only stops a client that never sends a newline
/// from growing the connection's line buffer without bound.
pub const MAX_LINE_BYTES: usize = 8 << 20;

fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, expected: u8) -> Result<(), String> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at offset {}", expected as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!("nesting deeper than {MAX_DEPTH} at offset {}", self.pos));
                }
                self.depth += 1;
                let value = if open == b'{' { self.object_value() } else { self.array_value() };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(Json::String(self.string_value()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number_value(),
            _ => Err(format!("unexpected byte at offset {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn object_value(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string_value()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                _ => return Err(format!("expected `,` or `}}` at offset {}", self.pos)),
            }
        }
    }

    fn array_value(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected `,` or `]` at offset {}", self.pos)),
            }
        }
    }

    fn string_value(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| "truncated \\u escape".to_owned())?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "bad \\u escape".to_owned())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_owned())?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| "bad \\u code point".to_owned())?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar; the input is a &str so
                    // boundaries are valid.
                    let rest = &self.bytes[self.pos..];
                    let text = std::str::from_utf8(rest)
                        .map_err(|_| "invalid UTF-8 in string".to_owned())?;
                    let c = text.chars().next().ok_or_else(|| "empty string tail".to_owned())?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err("unterminated string".to_owned()),
            }
        }
    }

    fn number_value(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "bad number".to_owned())?;
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| format!("bad number `{text}` at offset {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{ErrorCode, ServeError};

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // A 1 MB line of `[`s on a 2 MB stack: unbounded recursion would
        // abort the whole process here.
        let line = "[".repeat(1 << 20);
        let decoded = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || decode_request(&line))
            .unwrap()
            .join()
            .unwrap();
        let err = decoded.unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        // The deepest legal request still decodes.
        decode_request(r#"{"op":"batch","tenant":"a","scenarios":[{"remove":[1]}]}"#).unwrap();
    }

    #[test]
    fn requests_round_trip_the_grammar() {
        let r = decode_request(
            r#"{"op":"open","tenant":"a","circuit":"c.ckt","mode":"elim","k":3,"deadline_ms":250}"#,
        )
        .unwrap();
        assert_eq!(
            r,
            Request::Open {
                tenant: "a".into(),
                circuit: "c.ckt".into(),
                mode: crate::Mode::Elimination,
                k: 3,
                victim_budget: None,
                global_budget: None,
                deadline_ms: Some(250),
            }
        );

        let r =
            decode_request(r#"{"op":"scenario","tenant":"a","remove":[0,2],"add":[5]}"#).unwrap();
        let Request::Scenario { delta, .. } = r else { panic!("wrong op") };
        assert_eq!(delta.removed(), &[CouplingId::new(0), CouplingId::new(2)]);
        assert_eq!(delta.added(), &[CouplingId::new(5)]);

        let r = decode_request(
            r#"{"op":"batch","tenant":"a","scenarios":[{"remove":[1]},{"add":[2]}]}"#,
        )
        .unwrap();
        let Request::Batch { deltas, .. } = r else { panic!("wrong op") };
        assert_eq!(deltas.len(), 2);
        assert!(deltas[0].added().is_empty());
        assert_eq!(deltas[1].added(), &[CouplingId::new(2)]);

        let r = decode_request(r#"{"op":"query","tenant":"a","start_after":7,"limit":2}"#).unwrap();
        assert_eq!(r, Request::Query { tenant: "a".into(), start_after: Some(7), limit: 2 });

        assert_eq!(decode_request(r#"{"op":"stats"}"#).unwrap(), Request::Stats);
        assert_eq!(decode_request(r#"{"op":"shutdown"}"#).unwrap(), Request::Shutdown);
    }

    #[test]
    fn malformed_requests_are_described() {
        for (line, needle) in [
            ("not json", "bad literal"),
            ("?", "unexpected byte"),
            (r#"{"op":"warp"}"#, "unknown op"),
            (r#"{"tenant":"a"}"#, "missing field `op`"),
            (r#"{"op":"open","tenant":"a","circuit":"c","mode":"sideways","k":1}"#, "unknown mode"),
            (r#"{"op":"scenario","tenant":"a","remove":[-1]}"#, "non-negative"),
            (r#"{"op":"query","tenant":"a","limit":"lots"}"#, "non-negative integer"),
            (r#"{"op":"stats"} trailing"#, "trailing bytes"),
        ] {
            let err = decode_request(line).expect_err(line);
            assert!(err.contains(needle), "`{line}` -> `{err}` (wanted `{needle}`)");
        }
    }

    #[test]
    fn responses_encode_as_single_json_lines() {
        let opened = Response::Opened {
            tenant: "a".into(),
            nets: 40,
            couplings: 31,
            fingerprint: 0xdead_beef,
        };
        let line = encode_response(&opened);
        assert_eq!(
            line,
            "{\"ok\":true,\"kind\":\"opened\",\"tenant\":\"a\",\"nets\":40,\
             \"couplings\":31,\"fingerprint\":\"00000000deadbeef\"}"
        );
        assert!(!line.contains('\n'));

        let err = Response::Error(ServeError {
            code: ErrorCode::Quarantined,
            message: "worker \"died\"\nbadly".into(),
        });
        let line = encode_response(&err);
        assert_eq!(
            line,
            "{\"ok\":false,\"code\":\"quarantined\",\"message\":\"worker \\\"died\\\"\\nbadly\"}"
        );
        // Encoded errors re-parse as objects.
        let value = parse(&line).unwrap();
        let obj = value.object("response").unwrap();
        assert_eq!(obj.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            obj.get("message").unwrap().string("message").unwrap(),
            "worker \"died\"\nbadly"
        );
    }

    #[test]
    fn summaries_carry_hex_fingerprints_and_finite_floats() {
        let summary = ScenarioSummary {
            degraded: true,
            faults: 1,
            first_fault: Some("victim 5: boom".into()),
            set: vec![1, 4],
            sink: 9,
            delay_before: 120.5,
            delay_after: 110.0,
            predicted_delay: f64::NAN,
            peak_list_width: 3,
            generated: 17,
            recomputed_victims: 2,
            proven_clean_victims: 6,
            fingerprint: 0x0123_4567_89ab_cdef,
        };
        let line = encode_response(&Response::Scenario {
            tenant: "a".into(),
            summary,
            coalesced: 3,
            note: Some("artifact rejected (corrupt): boom".into()),
        });
        assert!(line.contains("\"fingerprint\":\"0123456789abcdef\""));
        assert!(line.contains("\"delay_after\":110.0"), "{line}");
        assert!(line.contains("\"predicted_delay\":null"));
        assert!(line.contains("\"coalesced\":3"));
        assert!(line.contains("\"note\":\"artifact rejected (corrupt): boom\""));
        assert!(parse(&line).is_ok(), "scenario responses re-parse: {line}");
    }

    #[test]
    fn stats_and_page_encode() {
        let line = encode_response(&Response::Stats(ServeStats {
            tenants: 2,
            hot: 1,
            spilled: 1,
            ..ServeStats::default()
        }));
        assert!(line.contains("\"kind\":\"stats\""));
        assert!(line.contains("\"spilled\":1"));

        let line = encode_response(&Response::Page {
            tenant: "a".into(),
            items: vec![3, 8],
            next: Some(8),
            note: None,
        });
        assert!(line.contains("\"items\":[3,8]"));
        assert!(line.contains("\"next\":8"));
        let line = encode_response(&Response::Page {
            tenant: "a".into(),
            items: vec![],
            next: None,
            note: None,
        });
        assert!(line.contains("\"items\":[],\"next\":null"));
    }
}
