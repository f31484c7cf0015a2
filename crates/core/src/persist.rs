//! Crash-safe, versioned persistence of [`WhatIfSession`] state: the
//! `DNAWIFA` v2 **generation chain**.
//!
//! A what-if session's value is its cache: per-victim irredundant lists,
//! enumeration counters, fault quarantines, the current mask and the last
//! result. Version 1 of this module serialized all of it into one
//! monolithic artifact — i10 weighs ~84 MB, and every save rewrote every
//! byte even when one apply had dirtied a handful of victims. Version 2
//! turns the artifact into an append-only *chain of generations*:
//!
//! * the file starts with a **base checkpoint** record (a full session
//!   snapshot, the v1 payload) at some generation `g`;
//! * every [`WhatIfSession::apply`] that flips at least one coupling
//!   advances the session's generation and buffers a replayable
//!   [`PendingDelta`]; [`commit_chain`] appends those as **delta
//!   records** — only the flipped couplings, the post-apply result/fault
//!   state, and the dirty victims' lists — so a small `MaskDelta` costs a
//!   small write;
//! * when the delta tail grows past
//!   [`CommitOptions::max_delta_records`] (or on `--compact`), the chain
//!   is rewritten as a single checkpoint at the tip generation.
//!
//! Loading replays the chain: decode the checkpoint, patch one delta at a
//! time. Because each delta stores the *post-apply* state of exactly the
//! victims the sweep recomputed (every other victim is untouched by
//! construction of the dirty closure), replay is pure state patching — no
//! engine run — and reproduces every generation f64-bit-exactly.
//! [`WhatIfSession::resume_at`] stops the replay early, which is what
//! `dna whatif --history GEN` uses to reproduce any past generation.
//!
//! # Record framing
//!
//! ```text
//! file   := magic (8) | version u32 (4) | record*
//! record := tag u8 | generation u64 | prev_hash u64 | payload_len u64
//!         | crc u32 | payload
//! ```
//!
//! The CRC-32 covers the header fields (tag through `payload_len`) *and*
//! the payload, so any single flipped bit anywhere in a record is
//! detected. `prev_hash` is the FNV-1a hash of the predecessor's 29
//! header bytes (0 for the base), chaining the records: a record spliced
//! in from another chain — even one with a valid checksum — breaks the
//! link and is rejected. Link hashes are computed from headers only, so
//! verifying that a file's tip matches a session's
//! [`ChainAnchor`] before appending costs header-sized reads and seeks,
//! not an 84 MB scan.
//!
//! # Commit protocol
//!
//! * **Delta append**: serialize the pending records, append, `fsync`.
//!   A crash mid-append leaves a torn tail after a fully-committed
//!   prefix; recovery truncates the tail.
//! * **Checkpoint / compaction**: write the whole chain to a sibling
//!   `*.tmp` file, `fsync` it, atomically rename over the target, then
//!   `fsync` the directory. A crash before the rename leaves the old
//!   chain untouched; after it, the new chain is fully in place.
//!
//! [`faultsim::maybe_crash`](crate::faultsim) points (`pre-append`,
//! `mid-append`, `pre-sync`, `pre-temp`, `mid-temp`, `pre-rename`) sit at
//! every irreversible step so tests can `kill -9` the process at each one
//! and prove recovery lands on the last committed generation.
//!
//! # Trust model
//!
//! The loader trusts **nothing** it cannot validate. Defenses, outermost
//! first:
//!
//! 1. magic + format version (not ours / wrong era → typed rejection),
//! 2. per-record framing: declared length vs. bytes present (torn tail),
//!    CRC-32 over header + payload (bit rot, tampering),
//! 3. chain integrity: base is a checkpoint, generations contiguous,
//!    every `prev_hash` links (splicing),
//! 4. circuit fingerprint (net/gate/coupling counts + a 64-bit FNV-1a
//!    hash of the circuit's canonical text form) and a configuration
//!    hash (with `threads` and `damping` normalized — neither changes
//!    results),
//! 5. semantic validation while decoding: every id in range, every
//!    envelope curve well-formed, every cached delay noise finite, and
//!    every delta's replayed mask hashing to its recorded digest.
//!
//! Every failure is a typed [`ArtifactError`]. Strict loading
//! ([`WhatIfSession::resume`]) rejects the whole chain on any failure;
//! lenient loading ([`WhatIfSession::resume_lenient`], the daemon's
//! recovery pass) salvages the longest committed prefix and reports what
//! was dropped. A damaged chain can cost the *uncommitted* tail, never
//! correctness.

use std::fs::{self, File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::Path;

use dna_netlist::{Circuit, CouplingId, NetId};
use dna_noise::CouplingMask;
use dna_waveform::{Envelope, Pwl};

use crate::engine::{Curtailment, NetLists, VictimCounters};
use crate::result::{Fault, FaultPhase, FaultReport, SweepStats};
use crate::sched::SchedStats;
use crate::session::{PendingDelta, WhatIfSession};
use crate::{
    faultsim, ArtifactError, Candidate, CouplingSet, Mode, TopKAnalysis, TopKConfig, TopKError,
    TopKResult,
};

/// Format version this build reads and writes. Bump on any layout change;
/// the loader rejects every other version. v3 added two enumeration
/// counter slots (culled / materialized) to every per-victim counter
/// record and to sweep stats; they now always hold `0` and the generated
/// count — v1/v2 artifacts are rejected as version skew (regenerate the
/// cache; it is only a cache).
pub const ARTIFACT_VERSION: u32 = 3;

/// Leading magic: "DNA What-If Artifact".
const MAGIC: &[u8; 8] = b"DNAWIFA\0";

/// File header: magic (8) + version (4).
const FILE_HEADER_LEN: usize = 12;

/// Record header: tag (1) + generation (8) + prev_hash (8) +
/// payload_len (8) + CRC-32 (4).
const RECORD_HEADER_LEN: usize = 29;

/// How many record-header bytes the CRC covers (everything before the CRC
/// field itself).
const CRC_COVERED_HEADER: usize = RECORD_HEADER_LEN - 4;

const TAG_CHECKPOINT: u8 = 0;
const TAG_DELTA: u8 = 1;

// Stable phrases for `ChainBroken::what`, matched by `chain_summary` to
// classify faults for the L07x lint rules.
const BROKEN_FIRST: &str = "first record is not a checkpoint";
const BROKEN_BASE_PREV: &str = "base checkpoint has a non-zero predecessor hash";
const BROKEN_MID_CHECKPOINT: &str = "checkpoint record after the base";
const BROKEN_LINK: &str = "predecessor link hash mismatch";
const BROKEN_GENERATION: &str = "generation discontinuity";
const BROKEN_DIGEST: &str = "replayed mask digest does not match the recorded one";

// ---------------------------------------------------------------------
// Checksums and fingerprints
// ---------------------------------------------------------------------

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB8_8320`), the checksum
/// of zip/png. Table built at compile time; no external crates.
const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// One CRC over the concatenation of `parts` without materializing it.
pub(crate) fn crc32_multi(parts: &[&[u8]]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for part in parts {
        for &b in *part {
            c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
    }
    !c
}

#[cfg(test)]
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    crc32_multi(&[bytes])
}

/// FNV-1a 64-bit — a cheap, dependency-free content fingerprint for the
/// circuit text and config debug forms, and the chain's link hashes
/// (collision resistance far beyond what an accident needs; this is
/// corruption detection, not crypto).
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Config fingerprint with `threads` and `damping` normalized out: both
/// knobs are guaranteed (and tested) not to change results — thread count
/// only shifts scheduling, and the damping prover only removes proven
/// re-sweep work — so an artifact saved at `threads = 8` under semantic
/// damping loads fine at `threads = 1` under structural damping.
fn config_hash(config: &TopKConfig) -> u64 {
    let normalized = TopKConfig { threads: 0, damping: crate::Damping::Structural, ..*config };
    fnv1a64(format!("{normalized:?}").as_bytes())
}

/// FNV-1a digest of the full mask (one byte per coupling, id order).
/// Recorded in every delta record so replay can prove it patched its way
/// to the same world the writer was in (lint rule L072).
pub(crate) fn mask_digest(circuit: &Circuit, mask: &CouplingMask) -> u64 {
    let mut bits = Vec::with_capacity(circuit.num_couplings());
    for id in circuit.coupling_ids() {
        bits.push(u8::from(mask.is_enabled(id)));
    }
    fnv1a64(&bits)
}

// ---------------------------------------------------------------------
// Byte-stream primitives
// ---------------------------------------------------------------------

pub(crate) struct Writer {
    pub(crate) buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn new() -> Self {
        Self { buf: Vec::new() }
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub(crate) fn f64_bits(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
}

pub(crate) struct Reader<'b> {
    buf: &'b [u8],
    pos: usize,
}

impl<'b> Reader<'b> {
    pub(crate) fn new(buf: &'b [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    pub(crate) fn bytes(&mut self, n: usize, what: &str) -> Result<&'b [u8], ArtifactError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len()).ok_or_else(|| {
            ArtifactError::Malformed { what: format!("{what}: payload ends mid-field") }
        })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub(crate) fn u8(&mut self, what: &str) -> Result<u8, ArtifactError> {
        Ok(self.bytes(1, what)?[0])
    }

    pub(crate) fn u32(&mut self, what: &str) -> Result<u32, ArtifactError> {
        let b = self.bytes(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self, what: &str) -> Result<u64, ArtifactError> {
        let b = self.bytes(8, what)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    pub(crate) fn usize(&mut self, what: &str) -> Result<usize, ArtifactError> {
        let v = self.u64(what)?;
        usize::try_from(v)
            .map_err(|_| ArtifactError::Malformed { what: format!("{what}: length {v} overflows") })
    }

    /// A length that will be used to pre-allocate or index: bounded by the
    /// remaining payload so a corrupted (but checksum-colliding) length
    /// cannot trigger a huge allocation.
    pub(crate) fn len(&mut self, what: &str) -> Result<usize, ArtifactError> {
        let v = self.usize(what)?;
        if v > self.buf.len() - self.pos {
            return Err(ArtifactError::Malformed {
                what: format!("{what}: count {v} exceeds remaining payload"),
            });
        }
        Ok(v)
    }

    pub(crate) fn f64_bits(&mut self, what: &str) -> Result<f64, ArtifactError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    pub(crate) fn str(&mut self, what: &str) -> Result<String, ArtifactError> {
        let n = self.len(what)?;
        let raw = self.bytes(n, what)?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| ArtifactError::Malformed { what: format!("{what}: invalid utf-8") })
    }

    pub(crate) fn done(&self) -> Result<(), ArtifactError> {
        if self.pos != self.buf.len() {
            return Err(ArtifactError::Malformed {
                what: format!("{} trailing bytes after payload", self.buf.len() - self.pos),
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Field codecs
// ---------------------------------------------------------------------

pub(crate) fn mode_to_u8(mode: Mode) -> u8 {
    match mode {
        Mode::Addition => 0,
        Mode::Elimination => 1,
    }
}

pub(crate) fn mode_from_u8(v: u8) -> Result<Mode, ArtifactError> {
    match v {
        0 => Ok(Mode::Addition),
        1 => Ok(Mode::Elimination),
        other => Err(ArtifactError::Malformed { what: format!("unknown mode tag {other}") }),
    }
}

fn phase_to_u8(phase: FaultPhase) -> u8 {
    match phase {
        FaultPhase::Prepare => 0,
        FaultPhase::Enumeration => 1,
        FaultPhase::Selection => 2,
    }
}

fn phase_from_u8(v: u8) -> Result<FaultPhase, ArtifactError> {
    match v {
        0 => Ok(FaultPhase::Prepare),
        1 => Ok(FaultPhase::Enumeration),
        2 => Ok(FaultPhase::Selection),
        other => Err(ArtifactError::Malformed { what: format!("unknown fault phase tag {other}") }),
    }
}

fn curtailment_to_u8(c: Curtailment) -> u8 {
    match c {
        Curtailment::None => 0,
        Curtailment::Truncated => 1,
        Curtailment::Skipped => 2,
    }
}

fn curtailment_from_u8(v: u8) -> Result<Curtailment, ArtifactError> {
    match v {
        0 => Ok(Curtailment::None),
        1 => Ok(Curtailment::Truncated),
        2 => Ok(Curtailment::Skipped),
        other => Err(ArtifactError::Malformed { what: format!("unknown curtailment tag {other}") }),
    }
}

/// The two retired per-victim counter slots bound-first culling used to
/// fill (culled, materialized). Nothing is culled on a bound now, so they
/// are written as `0` and `generated` ...
fn encode_retired_cull_slots(w: &mut Writer, generated: usize) {
    w.usize(0);
    w.usize(generated);
}

/// ... and read back only to be discarded, so artifacts that recorded
/// culls still decode.
fn skip_retired_cull_slots(r: &mut Reader<'_>) -> Result<(), ArtifactError> {
    r.usize("retired culled counter")?;
    r.usize("retired materialized counter")?;
    Ok(())
}

fn encode_set(w: &mut Writer, set: &CouplingSet) {
    w.usize(set.len());
    for id in set.ids() {
        w.u32(id.index() as u32);
    }
}

fn decode_set(r: &mut Reader<'_>, num_couplings: usize) -> Result<CouplingSet, ArtifactError> {
    let n = r.len("coupling set")?;
    let mut ids = Vec::with_capacity(n);
    for _ in 0..n {
        let raw = r.u32("coupling id")?;
        if raw as usize >= num_couplings {
            return Err(ArtifactError::Malformed {
                what: format!("coupling id {raw} out of range (< {num_couplings})"),
            });
        }
        ids.push(CouplingId::new(raw));
    }
    Ok(CouplingSet::from_iter(ids))
}

fn encode_envelope(w: &mut Writer, env: &Envelope) {
    let pts = env.as_pwl().points();
    w.usize(pts.len());
    for &(t, v) in pts {
        w.f64_bits(t);
        w.f64_bits(v);
    }
}

fn decode_envelope(r: &mut Reader<'_>) -> Result<Envelope, ArtifactError> {
    let n = r.len("envelope points")?;
    let mut pts = Vec::with_capacity(n);
    for _ in 0..n {
        let t = r.f64_bits("envelope t")?;
        let v = r.f64_bits("envelope v")?;
        pts.push((t, v));
    }
    let curve = Pwl::from_points_unchecked(pts);
    if let Err(e) = curve.is_well_formed() {
        return Err(ArtifactError::Malformed { what: format!("envelope curve: {e}") });
    }
    // `from_pwl_unchecked` recomputes the cached bounds from the curve —
    // the same deterministic scan every engine envelope went through, so
    // the loaded envelope is bit-identical to the saved one.
    Ok(Envelope::from_pwl_unchecked(curve))
}

fn encode_fault(w: &mut Writer, f: &Fault) {
    w.u32(f.victim().index() as u32);
    w.u8(phase_to_u8(f.phase()));
    w.str(f.cause());
}

fn decode_fault(r: &mut Reader<'_>, num_nets: usize) -> Result<Fault, ArtifactError> {
    let raw = r.u32("fault victim")?;
    if raw as usize >= num_nets {
        return Err(ArtifactError::Malformed {
            what: format!("fault victim {raw} out of range (< {num_nets})"),
        });
    }
    let phase = phase_from_u8(r.u8("fault phase")?)?;
    let cause = r.str("fault cause")?;
    Ok(Fault::new(NetId::new(raw), phase, cause))
}

fn encode_result(w: &mut Writer, res: &TopKResult) {
    w.u8(mode_to_u8(res.mode));
    w.usize(res.requested_k);
    encode_set(w, &res.set);
    w.u32(res.sink.index() as u32);
    w.f64_bits(res.delay_before);
    w.f64_bits(res.delay_after);
    w.f64_bits(res.predicted_delay);
    w.usize(res.peak_list_width);
    w.usize(res.generated_candidates);
    w.u64(u64::try_from(res.runtime.as_nanos()).unwrap_or(u64::MAX));
    w.usize(res.faults.len());
    for f in res.faults.iter() {
        encode_fault(w, f);
    }
    w.usize(res.stats.truncated_victims);
    w.usize(res.stats.skipped_victims);
    w.usize(res.stats.quarantined_victims);
    encode_retired_cull_slots(w, res.generated_candidates);
}

fn decode_result(
    r: &mut Reader<'_>,
    num_nets: usize,
    num_couplings: usize,
) -> Result<TopKResult, ArtifactError> {
    let mode = mode_from_u8(r.u8("result mode")?)?;
    let requested_k = r.usize("result k")?;
    let set = decode_set(r, num_couplings)?;
    let sink_raw = r.u32("result sink")?;
    if sink_raw as usize >= num_nets {
        return Err(ArtifactError::Malformed {
            what: format!("result sink {sink_raw} out of range (< {num_nets})"),
        });
    }
    let delay_before = r.f64_bits("delay before")?;
    let delay_after = r.f64_bits("delay after")?;
    let predicted_delay = r.f64_bits("predicted delay")?;
    for (name, v) in [
        ("delay before", delay_before),
        ("delay after", delay_after),
        ("predicted", predicted_delay),
    ] {
        if !v.is_finite() {
            return Err(ArtifactError::Malformed { what: format!("{name} is not finite ({v})") });
        }
    }
    let peak_list_width = r.usize("peak list width")?;
    let generated_candidates = r.usize("generated candidates")?;
    let runtime = std::time::Duration::from_nanos(r.u64("runtime")?);
    let n_faults = r.len("result faults")?;
    let mut faults = Vec::with_capacity(n_faults);
    for _ in 0..n_faults {
        faults.push(decode_fault(r, num_nets)?);
    }
    let stats = SweepStats {
        truncated_victims: r.usize("truncated victims")?,
        skipped_victims: r.usize("skipped victims")?,
        quarantined_victims: r.usize("quarantined victims")?,
        bound_culled: 0,
        materialized: generated_candidates,
    };
    skip_retired_cull_slots(r)?;
    Ok(TopKResult {
        mode,
        requested_k,
        set,
        sink: NetId::new(sink_raw),
        delay_before,
        delay_after,
        predicted_delay,
        peak_list_width,
        generated_candidates,
        runtime,
        faults: FaultReport::new(faults),
        stats,
        // Scheduler counters are diagnostic, run-local state: they are
        // deliberately not persisted, so a decoded result reports the
        // default (empty) stats.
        sched: SchedStats::default(),
    })
}

/// One victim's per-cardinality irredundant lists.
fn encode_victim_lists(w: &mut Writer, per_card: &[Vec<Candidate>]) {
    w.usize(per_card.len());
    for list in per_card {
        w.usize(list.len());
        for cand in list {
            encode_set(w, cand.set());
            w.f64_bits(cand.delay_noise());
            encode_envelope(w, cand.envelope());
        }
    }
}

fn decode_victim_lists(
    r: &mut Reader<'_>,
    num_couplings: usize,
) -> Result<Vec<Vec<Candidate>>, ArtifactError> {
    let n_lists = r.len("list count")?;
    let mut per_card = Vec::with_capacity(n_lists);
    for _ in 0..n_lists {
        let n_cands = r.len("candidate count")?;
        let mut cands = Vec::with_capacity(n_cands);
        for _ in 0..n_cands {
            let set = decode_set(r, num_couplings)?;
            let dn = r.f64_bits("candidate delay noise")?;
            let env = decode_envelope(r)?;
            let cand = Candidate::try_new(set, env, dn)
                .map_err(|e| ArtifactError::Malformed { what: format!("candidate: {e}") })?;
            cands.push(cand);
        }
        per_card.push(cands);
    }
    Ok(per_card)
}

fn decode_id_list(
    r: &mut Reader<'_>,
    num_couplings: usize,
    what: &str,
) -> Result<Vec<CouplingId>, ArtifactError> {
    let n = r.len(what)?;
    let mut ids = Vec::with_capacity(n);
    for _ in 0..n {
        let raw = r.u32(what)?;
        if raw as usize >= num_couplings {
            return Err(ArtifactError::Malformed {
                what: format!("{what} {raw} out of range (< {num_couplings})"),
            });
        }
        ids.push(CouplingId::new(raw));
    }
    Ok(ids)
}

// ---------------------------------------------------------------------
// Record framing
// ---------------------------------------------------------------------

/// Serializes one record (header + payload) into `out`; returns the
/// record's link hash (FNV-1a of its finished header bytes), which the
/// *next* record stores as `prev_hash`.
fn append_record(
    out: &mut Vec<u8>,
    tag: u8,
    generation: u64,
    prev_hash: u64,
    payload: &[u8],
) -> u64 {
    let mut head = [0u8; RECORD_HEADER_LEN];
    head[0] = tag;
    head[1..9].copy_from_slice(&generation.to_le_bytes());
    head[9..17].copy_from_slice(&prev_hash.to_le_bytes());
    head[17..25].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    let crc = crc32_multi(&[&head[..CRC_COVERED_HEADER], payload]);
    head[25..29].copy_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(&head);
    out.extend_from_slice(payload);
    fnv1a64(&head)
}

/// The known tip of an on-disk chain: what a session remembers at
/// load/save time so a later save can prove the file still ends where it
/// left it and append deltas instead of rewriting everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainAnchor {
    /// Generation of the tip record.
    pub generation: u64,
    /// Link hash (header FNV-1a) of the tip record.
    pub tip_hash: u64,
    /// Total committed chain length in bytes.
    pub file_len: u64,
    /// Delta records after the base checkpoint (compaction pressure).
    pub delta_records: usize,
}

/// One parsed-and-verified record, borrowing its payload from the chain
/// bytes.
struct RawRecord<'b> {
    tag: u8,
    generation: u64,
    link_hash: u64,
    offset: usize,
    payload: &'b [u8],
}

/// The longest valid prefix of a chain plus what stopped the scan.
struct ChainScanOutcome<'b> {
    records: Vec<RawRecord<'b>>,
    /// Bytes covered by `records` (including the file header).
    valid_len: usize,
    /// Why scanning stopped before the end of `bytes`, if it did.
    damage: Option<ArtifactError>,
}

fn check_file_header(bytes: &[u8]) -> Result<(), ArtifactError> {
    if bytes.len() < FILE_HEADER_LEN {
        return Err(if bytes.get(..MAGIC.len()).is_some_and(|m| m == MAGIC) {
            ArtifactError::Truncated { needed: FILE_HEADER_LEN, have: bytes.len() }
        } else {
            ArtifactError::BadMagic
        });
    }
    if &bytes[..8] != MAGIC {
        return Err(ArtifactError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 header bytes"));
    if version != ARTIFACT_VERSION {
        return Err(ArtifactError::UnsupportedVersion {
            found: version,
            supported: ARTIFACT_VERSION,
        });
    }
    Ok(())
}

/// Walks the records of `bytes`, verifying framing (length, CRC) and
/// chain integrity (base is a checkpoint, links, generation contiguity)
/// record by record. Returns the valid prefix; the first failure is
/// reported as `damage` and stops the walk. Only file-header problems
/// (not ours, wrong version) are outright errors.
fn scan_chain(bytes: &[u8]) -> Result<ChainScanOutcome<'_>, ArtifactError> {
    check_file_header(bytes)?;
    let mut records: Vec<RawRecord<'_>> = Vec::new();
    let mut pos = FILE_HEADER_LEN;
    let mut prev_hash = 0u64;
    let mut prev_gen = 0u64;
    let mut damage = None;
    while pos < bytes.len() {
        let parsed = parse_record(bytes, pos, records.is_empty(), prev_hash, prev_gen);
        match parsed {
            Ok(rec) => {
                prev_hash = rec.link_hash;
                prev_gen = rec.generation;
                pos = rec.offset + RECORD_HEADER_LEN + rec.payload.len();
                records.push(rec);
            }
            Err(e) => {
                damage = Some(e);
                break;
            }
        }
    }
    Ok(ChainScanOutcome { records, valid_len: pos, damage })
}

fn parse_record(
    bytes: &[u8],
    pos: usize,
    is_first: bool,
    prev_hash: u64,
    prev_gen: u64,
) -> Result<RawRecord<'_>, ArtifactError> {
    if bytes.len() - pos < RECORD_HEADER_LEN {
        return Err(ArtifactError::Truncated {
            needed: pos + RECORD_HEADER_LEN,
            have: bytes.len(),
        });
    }
    let head: &[u8; RECORD_HEADER_LEN] =
        bytes[pos..pos + RECORD_HEADER_LEN].try_into().expect("record header slice");
    let tag = head[0];
    let generation = u64::from_le_bytes(head[1..9].try_into().expect("8 bytes"));
    let rec_prev = u64::from_le_bytes(head[9..17].try_into().expect("8 bytes"));
    let payload_len_u64 = u64::from_le_bytes(head[17..25].try_into().expect("8 bytes"));
    let stored_crc = u32::from_le_bytes(head[25..29].try_into().expect("4 bytes"));
    if tag != TAG_CHECKPOINT && tag != TAG_DELTA {
        return Err(ArtifactError::Malformed { what: format!("unknown record tag {tag}") });
    }
    let payload_len = usize::try_from(payload_len_u64)
        .map_err(|_| ArtifactError::Malformed { what: "record payload length overflows".into() })?;
    let start = pos + RECORD_HEADER_LEN;
    let end = start.checked_add(payload_len).filter(|&e| e <= bytes.len()).ok_or(
        ArtifactError::Truncated { needed: start.saturating_add(payload_len), have: bytes.len() },
    )?;
    let payload = &bytes[start..end];
    let computed = crc32_multi(&[&head[..CRC_COVERED_HEADER], payload]);
    if computed != stored_crc {
        return Err(ArtifactError::ChecksumMismatch { stored: stored_crc, computed });
    }
    if is_first {
        if tag != TAG_CHECKPOINT {
            return Err(ArtifactError::ChainBroken { generation, what: BROKEN_FIRST.into() });
        }
        if rec_prev != 0 {
            return Err(ArtifactError::ChainBroken { generation, what: BROKEN_BASE_PREV.into() });
        }
    } else {
        if tag != TAG_DELTA {
            return Err(ArtifactError::ChainBroken {
                generation,
                what: format!("{BROKEN_MID_CHECKPOINT} (compaction rewrites the whole chain)"),
            });
        }
        if rec_prev != prev_hash {
            return Err(ArtifactError::ChainBroken {
                generation,
                what: format!("{BROKEN_LINK} (spliced or misdirected append)"),
            });
        }
        if generation != prev_gen.wrapping_add(1) {
            return Err(ArtifactError::ChainBroken {
                generation,
                what: format!("{BROKEN_GENERATION} ({prev_gen} then {generation})"),
            });
        }
    }
    Ok(RawRecord { tag, generation, link_hash: fnv1a64(head), offset: pos, payload })
}

fn anchor_of(records: &[RawRecord<'_>], valid_len: usize) -> Option<ChainAnchor> {
    let tip = records.last()?;
    Some(ChainAnchor {
        generation: tip.generation,
        tip_hash: tip.link_hash,
        file_len: valid_len as u64,
        delta_records: records.len() - 1,
    })
}

// ---------------------------------------------------------------------
// Checkpoint and delta payload codecs
// ---------------------------------------------------------------------

fn encode_checkpoint_payload(session: &WhatIfSession<'_, '_>) -> Vec<u8> {
    let circuit = session.analysis.circuit();
    let mut w = Writer::new();

    // Compatibility fingerprints.
    w.u32(circuit.num_nets() as u32);
    w.u32(circuit.num_gates() as u32);
    w.u32(circuit.num_couplings() as u32);
    w.u64(fnv1a64(dna_netlist::format::write(circuit).as_bytes()));
    w.u64(config_hash(session.analysis.config()));

    // Session identity.
    w.u8(mode_to_u8(session.mode));
    w.usize(session.k);
    for id in circuit.coupling_ids() {
        w.u8(u8::from(session.mask.is_enabled(id)));
    }

    // Last result.
    encode_result(&mut w, &session.result);

    // Quarantine cache.
    w.usize(session.faults.len());
    for f in &session.faults {
        encode_fault(&mut w, f);
    }

    // Per-victim counters.
    for c in &session.counters {
        w.usize(c.peak_list_width);
        w.usize(c.generated);
        encode_retired_cull_slots(&mut w, c.generated);
        w.u8(curtailment_to_u8(c.curtailment));
    }

    // Per-victim irredundant lists.
    for lists in &session.lists {
        encode_victim_lists(&mut w, lists);
    }
    w.buf
}

fn decode_checkpoint<'a, 'c>(
    analysis: &'a TopKAnalysis<'c>,
    payload: &[u8],
    generation: u64,
) -> Result<WhatIfSession<'a, 'c>, ArtifactError> {
    let circuit = analysis.circuit();

    // World fingerprints.
    let mut r = Reader::new(payload);
    let nets = r.u32("net count")? as usize;
    let gates = r.u32("gate count")? as usize;
    let couplings = r.u32("coupling count")? as usize;
    for (what, found, expected) in [
        ("net count", nets, circuit.num_nets()),
        ("gate count", gates, circuit.num_gates()),
        ("coupling count", couplings, circuit.num_couplings()),
    ] {
        if found != expected {
            return Err(ArtifactError::CircuitMismatch {
                what: format!("{what} {found} != {expected}"),
            });
        }
    }
    let circuit_hash = r.u64("circuit hash")?;
    let expected_hash = fnv1a64(dna_netlist::format::write(circuit).as_bytes());
    if circuit_hash != expected_hash {
        return Err(ArtifactError::CircuitMismatch { what: "content hash".into() });
    }
    if r.u64("config hash")? != config_hash(analysis.config()) {
        return Err(ArtifactError::ConfigMismatch);
    }

    // Semantic decode.
    let mode = mode_from_u8(r.u8("session mode")?)?;
    let k = r.usize("session k")?;
    if k == 0 {
        return Err(ArtifactError::Malformed { what: "session k is zero".into() });
    }
    let mut enabled = Vec::with_capacity(couplings);
    for i in 0..couplings {
        match r.u8("mask bit")? {
            0 => enabled.push(false),
            1 => enabled.push(true),
            other => {
                return Err(ArtifactError::Malformed {
                    what: format!("mask bit {i} has value {other}"),
                })
            }
        }
    }
    let ids: Vec<CouplingId> =
        (0..couplings as u32).map(CouplingId::new).filter(|id| enabled[id.index()]).collect();
    let mask = CouplingMask::none(circuit).with(&ids);

    let result = decode_result(&mut r, nets, couplings)?;
    if result.mode != mode {
        return Err(ArtifactError::Malformed {
            what: "result mode disagrees with session mode".into(),
        });
    }

    let n_faults = r.len("session faults")?;
    let mut faults = Vec::with_capacity(n_faults);
    for _ in 0..n_faults {
        faults.push(decode_fault(&mut r, nets)?);
    }

    let mut counters = Vec::with_capacity(nets);
    for _ in 0..nets {
        let peak_list_width = r.usize("counter peak")?;
        let generated = r.usize("counter generated")?;
        skip_retired_cull_slots(&mut r)?;
        let curtailment = curtailment_from_u8(r.u8("counter curtailment")?)?;
        counters.push(VictimCounters { peak_list_width, generated, curtailment });
    }

    let mut lists: Vec<NetLists> = Vec::with_capacity(nets);
    for _ in 0..nets {
        lists.push(std::sync::Arc::new(decode_victim_lists(&mut r, couplings)?));
    }
    r.done()?;

    Ok(WhatIfSession {
        analysis,
        mode,
        k,
        mask,
        lists,
        counters,
        faults,
        result,
        // Semantic digests are cheap to rebuild and tedious to version;
        // the first apply after a resume falls back to the structural
        // closure and re-captures them.
        semantic: None,
        generation,
        pending: Vec::new(),
        anchor: None,
    })
}

/// Whether two victim states would serialize to identical bytes — field
/// for field the set `encode_victim_lists` + the counters write, floats
/// compared by bits. A re-swept victim whose state is identical to the
/// previous generation's can be omitted from a delta record: replaying
/// the record patches the victim to bytes it already holds, so omission
/// is bit-exact by the same argument that makes patching so. This is
/// what keeps a small fix's delta O(changed victims) even when the
/// structural dirty closure saturates the circuit.
pub(crate) fn victim_state_identical(
    old_counters: &VictimCounters,
    old_lists: &[Vec<Candidate>],
    new_counters: &VictimCounters,
    new_lists: &[Vec<Candidate>],
) -> bool {
    if old_counters != new_counters || old_lists.len() != new_lists.len() {
        return false;
    }
    old_lists.iter().zip(new_lists).all(|(a, b)| {
        a.len() == b.len()
            && a.iter().zip(b).all(|(ca, cb)| {
                ca.delay_noise().to_bits() == cb.delay_noise().to_bits()
                    && ca.set().ids() == cb.set().ids()
                    && {
                        let (pa, pb) =
                            (ca.envelope().as_pwl().points(), cb.envelope().as_pwl().points());
                        pa.len() == pb.len()
                            && pa.iter().zip(pb).all(|(&(ta, va), &(tb, vb))| {
                                ta.to_bits() == tb.to_bits() && va.to_bits() == vb.to_bits()
                            })
                    }
            })
    })
}

fn encode_delta_payload(pd: &PendingDelta) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(pd.mask_digest);
    w.usize(pd.removed.len());
    for id in &pd.removed {
        w.u32(id.index() as u32);
    }
    w.usize(pd.added.len());
    for id in &pd.added {
        w.u32(id.index() as u32);
    }
    encode_result(&mut w, &pd.result);
    w.usize(pd.faults.len());
    for f in &pd.faults {
        encode_fault(&mut w, f);
    }
    w.usize(pd.dirty.len());
    for (vi, counters, lists) in &pd.dirty {
        w.u32(*vi);
        w.usize(counters.peak_list_width);
        w.usize(counters.generated);
        encode_retired_cull_slots(&mut w, counters.generated);
        w.u8(curtailment_to_u8(counters.curtailment));
        encode_victim_lists(&mut w, lists);
    }
    w.buf
}

/// Patches `session` from generation `g-1` to `g` by replaying one delta
/// record: flip the recorded couplings, verify the mask digest, adopt the
/// recorded result/faults, and overwrite exactly the dirty victims'
/// lists/counters. Pure state patching — bit-exact by construction.
fn apply_delta_record(
    session: &mut WhatIfSession<'_, '_>,
    generation: u64,
    payload: &[u8],
) -> Result<(), ArtifactError> {
    let circuit = session.analysis.circuit();
    let nets = circuit.num_nets();
    let couplings = circuit.num_couplings();
    let mut r = Reader::new(payload);
    let digest = r.u64("delta mask digest")?;
    let removed = decode_id_list(&mut r, couplings, "removed coupling")?;
    let added = decode_id_list(&mut r, couplings, "added coupling")?;
    let new_mask = session.mask.clone().without(&removed).with(&added);
    if mask_digest(circuit, &new_mask) != digest {
        return Err(ArtifactError::ChainBroken { generation, what: BROKEN_DIGEST.into() });
    }
    let result = decode_result(&mut r, nets, couplings)?;
    if result.mode != session.mode {
        return Err(ArtifactError::Malformed {
            what: "delta result mode disagrees with session mode".into(),
        });
    }
    let n_faults = r.len("delta faults")?;
    let mut faults = Vec::with_capacity(n_faults);
    for _ in 0..n_faults {
        faults.push(decode_fault(&mut r, nets)?);
    }
    let n_dirty = r.len("delta dirty victims")?;
    let mut patches = Vec::with_capacity(n_dirty);
    let mut last: Option<u32> = None;
    for _ in 0..n_dirty {
        let vi = r.u32("dirty victim index")?;
        if vi as usize >= nets {
            return Err(ArtifactError::Malformed {
                what: format!("dirty victim {vi} out of range (< {nets})"),
            });
        }
        if last.is_some_and(|p| p >= vi) {
            return Err(ArtifactError::Malformed {
                what: "dirty victim indices not strictly increasing".into(),
            });
        }
        last = Some(vi);
        let peak_list_width = r.usize("dirty counter peak")?;
        let generated = r.usize("dirty counter generated")?;
        skip_retired_cull_slots(&mut r)?;
        let curtailment = curtailment_from_u8(r.u8("dirty counter curtailment")?)?;
        let counters = VictimCounters { peak_list_width, generated, curtailment };
        let lists = decode_victim_lists(&mut r, couplings)?;
        patches.push((vi, counters, lists));
    }
    r.done()?;

    session.mask = new_mask;
    session.result = result;
    session.faults = faults;
    for (vi, counters, lists) in patches {
        session.counters[vi as usize] = counters;
        session.lists[vi as usize] = std::sync::Arc::new(lists);
    }
    session.generation = generation;
    session.semantic = None;
    Ok(())
}

fn replay<'a, 'c>(
    analysis: &'a TopKAnalysis<'c>,
    records: &[RawRecord<'_>],
    upto: Option<u64>,
) -> Result<WhatIfSession<'a, 'c>, ArtifactError> {
    let base = &records[0];
    let tip_gen = records.last().expect("replay needs records").generation;
    let target = upto.unwrap_or(tip_gen);
    if target < base.generation || target > tip_gen {
        return Err(ArtifactError::GenerationUnavailable {
            requested: target,
            base: base.generation,
            tip: tip_gen,
        });
    }
    let mut session = decode_checkpoint(analysis, base.payload, base.generation)?;
    for rec in &records[1..] {
        if rec.generation > target {
            break;
        }
        apply_delta_record(&mut session, rec.generation, rec.payload)?;
    }
    Ok(session)
}

// ---------------------------------------------------------------------
// Session-level load/save API
// ---------------------------------------------------------------------

/// What a lenient chain load salvaged and what it had to give up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainRecovery {
    /// Generation the recovered session landed on (the last committed
    /// one).
    pub generation: u64,
    /// Records successfully replayed.
    pub records: usize,
    /// CRC-valid records dropped because *replay* rejected them (e.g. a
    /// mask-digest mismatch) — distinct from the torn tail.
    pub dropped_records: usize,
    /// Bytes past the committed prefix (torn tail + dropped records).
    pub truncated_bytes: u64,
    /// Committed prefix length: truncating the file to this many bytes
    /// repairs it in place.
    pub valid_bytes: u64,
    /// Human-readable description of the damage, when any was found.
    pub damage: Option<String>,
}

impl<'a, 'c> WhatIfSession<'a, 'c> {
    /// Serializes the session's full cached state — mask, per-victim
    /// I-lists, counters, fault quarantines and the last result — as a
    /// single-checkpoint chain at the current generation, for
    /// [`resume`](Self::resume). Buffered pending deltas are *not*
    /// written separately: the checkpoint already holds their net effect.
    #[must_use]
    pub fn save_artifact(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&ARTIFACT_VERSION.to_le_bytes());
        let payload = encode_checkpoint_payload(self);
        append_record(&mut out, TAG_CHECKPOINT, self.generation, 0, &payload);
        out
    }

    /// Rebuilds a session from chain bytes against `analysis`, replaying
    /// the full chain to its tip, after which [`apply`](Self::apply)
    /// behaves bit-identically to a session that never stopped. Strict:
    /// any framing, chain-integrity or semantic failure anywhere in the
    /// bytes rejects the whole chain.
    ///
    /// # Errors
    ///
    /// Returns [`TopKError::Artifact`] when the bytes fail any validation
    /// layer — wrong magic, version skew, truncation, checksum mismatch,
    /// broken chain links, circuit/config mismatch, or a semantically
    /// malformed payload. The caller should fall back to
    /// [`start`](Self::start) (the CLI does) or to
    /// [`resume_lenient`](Self::resume_lenient) (the daemon's recovery
    /// pass does).
    pub fn resume(analysis: &'a TopKAnalysis<'c>, bytes: &[u8]) -> Result<Self, TopKError> {
        let scan = scan_chain(bytes)?;
        if let Some(damage) = scan.damage {
            return Err(damage.into());
        }
        if scan.records.is_empty() {
            return Err(ArtifactError::Malformed { what: "chain holds no records".into() }.into());
        }
        let mut session = replay(analysis, &scan.records, None)?;
        session.anchor = anchor_of(&scan.records, scan.valid_len);
        Ok(session)
    }

    /// Rebuilds the session exactly as it was at `generation` — the
    /// substrate of `dna whatif --history GEN`. Strict, like
    /// [`resume`](Self::resume). The returned session carries no
    /// [`ChainAnchor`]: saving it writes a fresh checkpoint instead of
    /// appending onto a chain whose tip it is *not* at (which would fork
    /// history).
    ///
    /// # Errors
    ///
    /// [`ArtifactError::GenerationUnavailable`] when `generation` is past
    /// the tip or below the base checkpoint (compaction discards history
    /// below the base), plus everything [`resume`](Self::resume) rejects.
    pub fn resume_at(
        analysis: &'a TopKAnalysis<'c>,
        bytes: &[u8],
        generation: u64,
    ) -> Result<Self, TopKError> {
        let scan = scan_chain(bytes)?;
        if let Some(damage) = scan.damage {
            return Err(damage.into());
        }
        if scan.records.is_empty() {
            return Err(ArtifactError::Malformed { what: "chain holds no records".into() }.into());
        }
        Ok(replay(analysis, &scan.records, Some(generation))?)
    }

    /// Fsck-style load: salvages the longest committed prefix of a
    /// damaged chain instead of rejecting it — the write-ahead-log
    /// discipline. A torn tail (partial append, `kill -9` mid-write) or a
    /// record that fails replay costs exactly the uncommitted suffix; the
    /// session lands on the last generation that was fully committed.
    ///
    /// # Errors
    ///
    /// Fails only when *nothing* is recoverable: the file header is not
    /// ours / wrong version, no record survives framing, or the base
    /// checkpoint itself is damaged or belongs to a different
    /// circuit/config.
    pub fn resume_lenient(
        analysis: &'a TopKAnalysis<'c>,
        bytes: &[u8],
    ) -> Result<(Self, ChainRecovery), TopKError> {
        let scan = scan_chain(bytes)?;
        let total = scan.records.len();
        if total == 0 {
            return Err(TopKError::from(
                scan.damage
                    .unwrap_or(ArtifactError::Malformed { what: "chain holds no records".into() }),
            ));
        }
        let mut upto = total;
        let mut replay_damage: Option<ArtifactError> = None;
        loop {
            match replay(analysis, &scan.records[..upto], None) {
                Ok(mut session) => {
                    let valid_len =
                        if upto == total { scan.valid_len } else { scan.records[upto].offset };
                    session.anchor = anchor_of(&scan.records[..upto], valid_len);
                    let damage = replay_damage
                        .as_ref()
                        .map(ToString::to_string)
                        .or_else(|| scan.damage.as_ref().map(ToString::to_string));
                    let recovery = ChainRecovery {
                        generation: session.generation,
                        records: upto,
                        dropped_records: total - upto,
                        truncated_bytes: (bytes.len() - valid_len) as u64,
                        valid_bytes: valid_len as u64,
                        damage,
                    };
                    return Ok((session, recovery));
                }
                Err(e) if upto > 1 => {
                    // A CRC-valid record that fails replay poisons only
                    // itself and everything after: retry on the shorter
                    // prefix (the base re-decodes each time — recovery is
                    // rare and correctness beats speed here).
                    replay_damage.get_or_insert(e);
                    upto -= 1;
                }
                Err(e) => return Err(e.into()),
            }
        }
    }
}

// ---------------------------------------------------------------------
// File-level commit protocol
// ---------------------------------------------------------------------

/// Knobs of [`commit_chain`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitOptions {
    /// Rewrite the chain as a single checkpoint even when a delta append
    /// would be possible (`dna whatif --compact`).
    pub force_checkpoint: bool,
    /// Compaction threshold: when appending would leave more than this
    /// many delta records after the base, the chain is rewritten as a
    /// checkpoint instead. Replay cost (and torn-tail exposure) stays
    /// bounded.
    pub max_delta_records: usize,
}

impl Default for CommitOptions {
    fn default() -> Self {
        Self { force_checkpoint: false, max_delta_records: 64 }
    }
}

/// How [`commit_chain`] wrote (or didn't write) the session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SaveKind {
    /// Nothing to write: the file already holds exactly this session's
    /// state (no pending deltas, anchor matches the file tip).
    Unchanged,
    /// Full checkpoint via write-temp + fsync + atomic rename (fresh
    /// save, compaction, anchor mismatch, or `force_checkpoint`).
    Checkpoint,
    /// Appended this many delta records (one per pending apply) + fsync.
    Delta(usize),
}

/// What one [`commit_chain`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaveReport {
    /// Which commit path ran.
    pub kind: SaveKind,
    /// Generation the chain tip is now at.
    pub generation: u64,
    /// Bytes physically written by this call (0 for `Unchanged`).
    pub bytes_written: u64,
    /// Total chain file size after the commit.
    pub file_bytes: u64,
}

/// Reads the chain tip of the file at `path` from record *headers* only
/// (seeking over payloads), verifying magic, version, tags, links and
/// generation contiguity — everything except payload CRCs, which the next
/// full load still enforces. `None` when the file is missing, not a
/// chain, or structurally damaged — in every such case the caller must
/// fall back to a full checkpoint rewrite.
fn file_tip(path: &Path) -> Option<ChainAnchor> {
    let mut f = File::open(path).ok()?;
    let file_len = f.metadata().ok()?.len();
    let mut header = [0u8; FILE_HEADER_LEN];
    f.read_exact(&mut header).ok()?;
    if &header[..8] != MAGIC {
        return None;
    }
    if u32::from_le_bytes(header[8..12].try_into().ok()?) != ARTIFACT_VERSION {
        return None;
    }
    let mut pos = FILE_HEADER_LEN as u64;
    let mut prev_hash = 0u64;
    let mut prev_gen = 0u64;
    let mut records = 0usize;
    let mut tip = None;
    while pos < file_len {
        if file_len - pos < RECORD_HEADER_LEN as u64 {
            return None;
        }
        let mut head = [0u8; RECORD_HEADER_LEN];
        f.read_exact(&mut head).ok()?;
        let tag = head[0];
        let generation = u64::from_le_bytes(head[1..9].try_into().ok()?);
        let rec_prev = u64::from_le_bytes(head[9..17].try_into().ok()?);
        let payload_len = u64::from_le_bytes(head[17..25].try_into().ok()?);
        let first = records == 0;
        let tag_ok = if first { tag == TAG_CHECKPOINT } else { tag == TAG_DELTA };
        let link_ok = if first { rec_prev == 0 } else { rec_prev == prev_hash };
        let gen_ok = first || generation == prev_gen.wrapping_add(1);
        if !tag_ok || !link_ok || !gen_ok {
            return None;
        }
        pos += RECORD_HEADER_LEN as u64;
        if file_len - pos < payload_len {
            return None;
        }
        f.seek(SeekFrom::Current(i64::try_from(payload_len).ok()?)).ok()?;
        pos += payload_len;
        prev_hash = fnv1a64(&head);
        prev_gen = generation;
        records += 1;
        tip = Some(ChainAnchor {
            generation,
            tip_hash: prev_hash,
            file_len: pos,
            delta_records: records - 1,
        });
    }
    tip
}

pub(crate) fn io_err(what: &str, path: &Path, e: &std::io::Error) -> TopKError {
    TopKError::from(ArtifactError::Io { what: format!("{what} `{}`: {e}", path.display()) })
}

/// Commits the session to the chain file at `path` under the crash-safe
/// protocol, choosing the cheapest sound write:
///
/// * **unchanged** — no pending deltas and the file tip still matches the
///   session's [`ChainAnchor`]: write nothing;
/// * **delta append** — pending deltas exist, the anchor matches the file
///   tip, and the delta tail stays within
///   [`CommitOptions::max_delta_records`]: append one CRC-framed record
///   per pending apply and `fsync` — O(dirty victims) bytes, the whole
///   point of the versioned store;
/// * **checkpoint** — everything else (fresh session, anchor mismatch or
///   missing, compaction threshold, `force_checkpoint`): write the full
///   chain to a sibling temp file, `fsync`, atomically rename over
///   `path`, `fsync` the directory.
///
/// On success the session's pending buffer is drained and its anchor
/// points at the new tip, so consecutive commits compose.
///
/// # Errors
///
/// [`ArtifactError::Io`] (wrapped in [`TopKError::Artifact`]) on any
/// filesystem failure; the session's pending buffer is left intact so the
/// caller can retry.
pub fn commit_chain(
    session: &mut WhatIfSession<'_, '_>,
    path: &Path,
    opts: &CommitOptions,
) -> Result<SaveReport, TopKError> {
    let disk = file_tip(path);
    let anchored = match (session.anchor, disk) {
        (Some(a), Some(d)) if a == d => Some(a),
        _ => None,
    };

    if let Some(a) = anchored {
        if session.pending.is_empty() && !opts.force_checkpoint {
            return Ok(SaveReport {
                kind: SaveKind::Unchanged,
                generation: session.generation,
                bytes_written: 0,
                file_bytes: a.file_len,
            });
        }
        let fits = a.delta_records + session.pending.len() <= opts.max_delta_records;
        if !session.pending.is_empty() && fits && !opts.force_checkpoint {
            return append_pending(session, path, a);
        }
    }
    write_checkpoint(session, path)
}

/// The delta-append arm of [`commit_chain`]: serialize every pending
/// apply as a record chained onto the file's current tip, append in one
/// write, `fsync`.
fn append_pending(
    session: &mut WhatIfSession<'_, '_>,
    path: &Path,
    anchor: ChainAnchor,
) -> Result<SaveReport, TopKError> {
    let mut buf = Vec::new();
    let mut prev = anchor.tip_hash;
    let mut tip_gen = anchor.generation;
    for pd in &session.pending {
        debug_assert_eq!(pd.generation, tip_gen + 1, "pending deltas must be contiguous");
        let payload = encode_delta_payload(pd);
        prev = append_record(&mut buf, TAG_DELTA, pd.generation, prev, &payload);
        tip_gen = pd.generation;
    }
    let records = session.pending.len();

    faultsim::maybe_crash("pre-append");
    let mut f = OpenOptions::new()
        .append(true)
        .open(path)
        .map_err(|e| io_err("cannot open chain", path, &e))?;
    let half = buf.len() / 2;
    f.write_all(&buf[..half]).map_err(|e| io_err("cannot append to chain", path, &e))?;
    faultsim::maybe_crash("mid-append");
    f.write_all(&buf[half..]).map_err(|e| io_err("cannot append to chain", path, &e))?;
    faultsim::maybe_crash("pre-sync");
    f.sync_all().map_err(|e| io_err("cannot fsync chain", path, &e))?;

    session.pending.clear();
    session.anchor = Some(ChainAnchor {
        generation: tip_gen,
        tip_hash: prev,
        file_len: anchor.file_len + buf.len() as u64,
        delta_records: anchor.delta_records + records,
    });
    Ok(SaveReport {
        kind: SaveKind::Delta(records),
        generation: tip_gen,
        bytes_written: buf.len() as u64,
        file_bytes: anchor.file_len + buf.len() as u64,
    })
}

/// The checkpoint arm of [`commit_chain`]: full chain bytes to a sibling
/// temp file, `fsync`, atomic rename, directory `fsync`.
fn write_checkpoint(
    session: &mut WhatIfSession<'_, '_>,
    path: &Path,
) -> Result<SaveReport, TopKError> {
    let bytes = session.save_artifact();
    let file_name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "chain".into());
    let tmp = path.with_file_name(format!("{file_name}.tmp"));

    faultsim::maybe_crash("pre-temp");
    let mut f = File::create(&tmp).map_err(|e| io_err("cannot create temp file", &tmp, &e))?;
    let half = bytes.len() / 2;
    f.write_all(&bytes[..half]).map_err(|e| io_err("cannot write temp file", &tmp, &e))?;
    faultsim::maybe_crash("mid-temp");
    f.write_all(&bytes[half..]).map_err(|e| io_err("cannot write temp file", &tmp, &e))?;
    f.sync_all().map_err(|e| io_err("cannot fsync temp file", &tmp, &e))?;
    drop(f);
    faultsim::maybe_crash("pre-rename");
    fs::rename(&tmp, path).map_err(|e| io_err("cannot rename temp file over", path, &e))?;
    // Make the rename itself durable. Failure to fsync the directory is
    // not worth failing the save over (the data file is synced; at worst
    // the rename replays from the journal), so this is best-effort.
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }

    session.pending.clear();
    session.anchor = chain_tip(&bytes);
    Ok(SaveReport {
        kind: SaveKind::Checkpoint,
        generation: session.generation,
        bytes_written: bytes.len() as u64,
        file_bytes: bytes.len() as u64,
    })
}

/// Truncates a damaged chain file to its committed prefix, in place —
/// the repair arm of the daemon's recovery pass. `valid_bytes` comes from
/// [`ChainRecovery::valid_bytes`]; truncation is idempotent, so a crash
/// mid-repair just repairs again on the next pass.
///
/// # Errors
///
/// [`ArtifactError::Io`] on filesystem failure.
pub fn truncate_chain_file(path: &Path, valid_bytes: u64) -> Result<(), TopKError> {
    let f = OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| io_err("cannot open chain for repair", path, &e))?;
    f.set_len(valid_bytes).map_err(|e| io_err("cannot truncate chain", path, &e))?;
    f.sync_all().map_err(|e| io_err("cannot fsync repaired chain", path, &e))?;
    Ok(())
}

// ---------------------------------------------------------------------
// Chain inspection (CLI `--history`, lint L07x)
// ---------------------------------------------------------------------

/// Reads the chain tip from in-memory bytes (header walk, no payload
/// CRCs). `None` when the bytes are not a structurally valid chain.
#[must_use]
pub fn chain_tip(bytes: &[u8]) -> Option<ChainAnchor> {
    let scan = scan_chain(bytes).ok()?;
    if scan.damage.is_some() || scan.valid_len != bytes.len() {
        return None;
    }
    anchor_of(&scan.records, scan.valid_len)
}

/// Which kind of record a [`RecordMeta`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// Full session snapshot (the chain base, or a compacted chain).
    Checkpoint,
    /// Incremental generation step.
    Delta,
}

/// One record of a chain, as reported by [`chain_summary`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordMeta {
    /// Checkpoint or delta.
    pub kind: RecordKind,
    /// Generation this record produces.
    pub generation: u64,
    /// Payload size in bytes (header excluded).
    pub payload_bytes: u64,
    /// Byte offset of the record header in the chain.
    pub offset: u64,
}

/// A typed chain-integrity defect, classified for the L07x lint rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainFault {
    /// Records out of order: the base is not a checkpoint, a checkpoint
    /// appears mid-chain, or generations are not contiguous (L070).
    OutOfOrder {
        /// Generation of the offending record.
        generation: u64,
        /// What exactly is out of order.
        what: String,
    },
    /// A record's `prev_hash` does not match its predecessor — splicing
    /// or a misdirected append (L071).
    LinkBroken {
        /// Generation of the unlinked record.
        generation: u64,
    },
    /// A record failed its framing CRC — bit rot or tampering (L071).
    Corrupt {
        /// The underlying checksum error.
        error: String,
    },
    /// A delta's replayed mask does not hash to its recorded digest
    /// (L072). Only reported by [`chain_summary_checked`], which replays.
    MaskDivergence {
        /// Generation of the diverging delta.
        generation: u64,
    },
    /// The chain ends mid-record — the torn tail of an interrupted
    /// append (L073; recoverable by design).
    TornTail {
        /// Bytes past the last committed record.
        bytes: u64,
    },
    /// Replay of a CRC-valid record failed semantic decoding (reported
    /// by [`chain_summary_checked`]).
    ReplayRejected {
        /// The underlying decode error.
        error: String,
    },
}

/// Everything `dna whatif --history` (bare) prints and `lint --deep`'s
/// L07x rules consume: the committed records plus every classified
/// defect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainSummary {
    /// The committed (valid-prefix) records, base first.
    pub records: Vec<RecordMeta>,
    /// Classified defects; empty for a healthy chain.
    pub faults: Vec<ChainFault>,
}

impl ChainSummary {
    /// Generation of the base checkpoint (the oldest reproducible one).
    #[must_use]
    pub fn base_generation(&self) -> Option<u64> {
        self.records.first().map(|r| r.generation)
    }

    /// Generation of the newest committed record.
    #[must_use]
    pub fn tip_generation(&self) -> Option<u64> {
        self.records.last().map(|r| r.generation)
    }
}

fn classify_damage(bytes_len: usize, valid_len: usize, damage: &ArtifactError) -> ChainFault {
    match damage {
        ArtifactError::Truncated { .. } => {
            ChainFault::TornTail { bytes: (bytes_len - valid_len) as u64 }
        }
        ArtifactError::ChecksumMismatch { .. } => ChainFault::Corrupt { error: damage.to_string() },
        ArtifactError::ChainBroken { generation, what } => {
            if what.starts_with(BROKEN_LINK) {
                ChainFault::LinkBroken { generation: *generation }
            } else if what.starts_with(BROKEN_DIGEST) {
                ChainFault::MaskDivergence { generation: *generation }
            } else {
                ChainFault::OutOfOrder { generation: *generation, what: what.clone() }
            }
        }
        other => ChainFault::Corrupt { error: other.to_string() },
    }
}

/// Structural summary of a chain: framing, links and generation order —
/// everything that can be checked without a circuit.
///
/// # Errors
///
/// Only file-header problems (wrong magic / version): there is no chain
/// to summarize.
pub fn chain_summary(bytes: &[u8]) -> Result<ChainSummary, ArtifactError> {
    let scan = scan_chain(bytes)?;
    let records = scan
        .records
        .iter()
        .map(|r| RecordMeta {
            kind: if r.tag == TAG_CHECKPOINT { RecordKind::Checkpoint } else { RecordKind::Delta },
            generation: r.generation,
            payload_bytes: r.payload.len() as u64,
            offset: r.offset as u64,
        })
        .collect();
    let faults = scan
        .damage
        .as_ref()
        .map(|d| classify_damage(bytes.len(), scan.valid_len, d))
        .into_iter()
        .collect();
    Ok(ChainSummary { records, faults })
}

/// Like [`chain_summary`], additionally replaying the committed prefix
/// against `analysis` so delta-level semantic defects — above all the
/// L072 mask-digest divergence — are surfaced too.
///
/// # Errors
///
/// Only file-header problems; replay failures are reported as faults, not
/// errors.
pub fn chain_summary_checked(
    analysis: &TopKAnalysis<'_>,
    bytes: &[u8],
) -> Result<ChainSummary, ArtifactError> {
    let mut summary = chain_summary(bytes)?;
    let scan = scan_chain(bytes)?;
    if !scan.records.is_empty() {
        if let Err(e) = replay(analysis, &scan.records, None) {
            let fault = match &e {
                ArtifactError::ChainBroken { generation, what }
                    if what.starts_with(BROKEN_DIGEST) =>
                {
                    ChainFault::MaskDivergence { generation: *generation }
                }
                other => ChainFault::ReplayRejected { error: other.to_string() },
            };
            summary.faults.push(fault);
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The IEEE check value: CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Streaming over parts equals one shot over the concatenation.
        assert_eq!(crc32_multi(&[b"1234", b"56789"]), 0xCBF4_3926);
    }

    #[test]
    fn fnv_separates_close_inputs() {
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
        assert_ne!(fnv1a64(b""), fnv1a64(b"\0"));
    }

    #[test]
    fn config_hash_ignores_threads_only() {
        let base = TopKConfig::default();
        assert_eq!(config_hash(&base), config_hash(&TopKConfig { threads: 7, ..base }));
        assert_eq!(
            config_hash(&base),
            config_hash(&TopKConfig { damping: crate::Damping::Structural, ..base })
        );
        assert_ne!(config_hash(&base), config_hash(&TopKConfig { validate: false, ..base }));
        assert_ne!(
            config_hash(&base),
            config_hash(&TopKConfig { victim_candidate_budget: Some(10), ..base })
        );
    }

    #[test]
    fn record_framing_round_trips_and_links() {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&ARTIFACT_VERSION.to_le_bytes());
        let l0 = append_record(&mut out, TAG_CHECKPOINT, 3, 0, b"base payload");
        let l1 = append_record(&mut out, TAG_DELTA, 4, l0, b"delta one");
        let _ = append_record(&mut out, TAG_DELTA, 5, l1, b"");
        let scan = scan_chain(&out).unwrap();
        assert!(scan.damage.is_none(), "{:?}", scan.damage);
        assert_eq!(scan.valid_len, out.len());
        assert_eq!(scan.records.iter().map(|r| r.generation).collect::<Vec<_>>(), vec![3, 4, 5]);
        let tip = chain_tip(&out).unwrap();
        assert_eq!(tip.generation, 5);
        assert_eq!(tip.delta_records, 2);
        assert_eq!(tip.file_len, out.len() as u64);
    }

    #[test]
    fn every_record_byte_is_covered_by_framing_checks() {
        let mut chain = Vec::new();
        chain.extend_from_slice(MAGIC);
        chain.extend_from_slice(&ARTIFACT_VERSION.to_le_bytes());
        let l0 = append_record(&mut chain, TAG_CHECKPOINT, 0, 0, b"payload bytes here");
        append_record(&mut chain, TAG_DELTA, 1, l0, b"and delta payload");
        for i in 0..chain.len() {
            let mut bad = chain.clone();
            bad[i] ^= 0x10;
            let scan = scan_chain(&bad);
            let detected = match scan {
                Err(_) => true, // file header flips
                Ok(s) => s.damage.is_some(),
            };
            assert!(detected, "flip at byte {i} went unnoticed");
        }
    }

    #[test]
    fn spliced_records_break_the_link() {
        // Two chains with identical payloads but different base
        // generations: grafting chain B's delta onto chain A must fail
        // the prev-hash link even though the record's own CRC is valid.
        let mut a = Vec::new();
        a.extend_from_slice(MAGIC);
        a.extend_from_slice(&ARTIFACT_VERSION.to_le_bytes());
        let la = append_record(&mut a, TAG_CHECKPOINT, 0, 0, b"base A");
        let mut b = Vec::new();
        b.extend_from_slice(MAGIC);
        b.extend_from_slice(&ARTIFACT_VERSION.to_le_bytes());
        let lb = append_record(&mut b, TAG_CHECKPOINT, 0, 0, b"base B");
        assert_ne!(la, lb);
        let b_delta_at = b.len();
        append_record(&mut b, TAG_DELTA, 1, lb, b"delta");
        let mut spliced = a.clone();
        spliced.extend_from_slice(&b[b_delta_at..]);
        let scan = scan_chain(&spliced).unwrap();
        assert_eq!(scan.records.len(), 1, "spliced delta must not be accepted");
        assert!(
            matches!(scan.damage, Some(ArtifactError::ChainBroken { generation: 1, .. })),
            "{:?}",
            scan.damage
        );
    }

    #[test]
    fn torn_tails_classify_as_torn_and_mid_chain_corruption_does_not() {
        let mut chain = Vec::new();
        chain.extend_from_slice(MAGIC);
        chain.extend_from_slice(&ARTIFACT_VERSION.to_le_bytes());
        let l0 = append_record(&mut chain, TAG_CHECKPOINT, 0, 0, b"the base payload");
        append_record(&mut chain, TAG_DELTA, 1, l0, b"the delta payload");

        // Chop mid-delta: torn tail.
        let torn = &chain[..chain.len() - 5];
        let summary = chain_summary(torn).unwrap();
        assert_eq!(summary.records.len(), 1);
        assert!(
            matches!(summary.faults[..], [ChainFault::TornTail { .. }]),
            "{:?}",
            summary.faults
        );

        // Flip a payload byte of the delta: corrupt, not torn.
        let mut rotten = chain.clone();
        let n = rotten.len();
        rotten[n - 3] ^= 0xFF;
        let summary = chain_summary(&rotten).unwrap();
        assert!(matches!(summary.faults[..], [ChainFault::Corrupt { .. }]), "{:?}", summary.faults);
    }
}
