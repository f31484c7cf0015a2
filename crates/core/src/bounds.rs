//! Corridor prover: sound envelope-bound abstract interpretation that
//! *damps* the structural dirty closure of what-if sessions.
//!
//! The structural closure ([`Circuit::dirty_closure_filtered`]) treats
//! every mask-enabled coupling-adjacency edge and every gate-fanout edge
//! as a difference carrier, so on densely coupled circuits one flipped
//! coupling transitively dirties almost every net — the "incremental"
//! re-sweep degenerates to a full run. This module replaces reachability
//! with a *semantic* proof built from three pieces:
//!
//! 1. **Per-net digests** ([`SemanticState`]): an FNV-1a hash over every
//!    `Prepared` input the per-victim enumeration reads about a net — its
//!    window timing, its primary aggressors (coupling, partner, pulse,
//!    partner window), its dominance/clip intervals, its shift bound and
//!    (in elimination mode) its converged delay noise. Two runs whose
//!    digests agree at net `n` feed the enumeration *bit-identical*
//!    per-net state at `n`.
//! 2. **A corridor abstract domain** ([`Corridor`]): piecewise-linear
//!    lower/upper envelope bounds (the cheap instance being a peak ×
//!    support box) with sound transfer functions for sum, clamped
//!    difference, window widening and clipping. The per-coupling
//!    **maximum envelope contribution** bound is the corridor of the
//!    primary's envelope widened by the largest shift bound either world
//!    allows, clipped to the victim's analysis window.
//! 3. **A dataflow fixpoint**: digest-changed nets seed a gate-fanout
//!    closure `W` (any net whose fanin cone holds a changed net can rank
//!    its wideners differently); a victim is *locally* dirty when its own
//!    digest changed or when one of its primaries has its aggressor in
//!    `W` and the corridor bound cannot refute the edge; local dirtiness
//!    then closes downstream over gate fanout (I-lists are consumed
//!    strictly along fanin). The final dirty set is the intersection with
//!    the structural closure — the prover only ever *removes* work.
//!
//! # Soundness argument (DESIGN.md §14 carries the full version)
//!
//! [`Envelope::from_window`] is pointwise monotone in the LAT bound:
//! widening the window extends the trapezoid's flat top rightward, so
//! `env(δ) ≤ env(cap)` pointwise for every `δ ≤ cap`. The enumeration
//! consults an aggressor's wideners only behind guards of the form
//! "skip this primary if its (maximally widened) clipped envelope is
//! zero" (addition) or "skip if the window carries no noise or the
//! clipped envelope is zero" (elimination). If the corridor bound at
//! `cap = max(shift bound old, shift bound new)` clips to zero, the
//! guard fires in *both* worlds for *every* reachable widening, so no
//! output — lists, counters, raw candidate counts — can depend on the
//! changed widener rankings, and the edge provably carries no
//! difference. Every surviving skip is recorded as a machine-checkable
//! [`CleanCertificate`]; `dna lint --deep` re-derives all of them from
//! scratch (rules L050–L052).

use dna_netlist::{Circuit, CouplingId, NetId};
use dna_waveform::{Pwl, TimeInterval, EPS};

use crate::engine::{Mode, Prepared, PrimaryInfo};

/// Which dirty-closure damping a what-if session applies on each apply.
///
/// Both settings produce f64-bit-identical results at any thread count;
/// they differ only in how much provably unnecessary re-enumeration they
/// skip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Damping {
    /// Structural reachability only: re-sweep the mask-aware dirty
    /// closure of the flipped couplings' endpoints.
    Structural,
    /// Corridor-prover damping (the default): additionally skip every
    /// structurally dirty victim whose cleanliness the envelope-bound
    /// abstract interpretation certifies, and attach a
    /// [`CleanCertificate`] per skip.
    #[default]
    Semantic,
}

impl Damping {
    /// Human-readable name (matches the CLI `--damping` values).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Damping::Structural => "structural",
            Damping::Semantic => "semantic",
        }
    }
}

// ---------------------------------------------------------------------
// Corridor abstract domain
// ---------------------------------------------------------------------

/// An abstract envelope: piecewise-linear lower and upper bounds with
/// the invariant `lower(t) ≤ exact(t) ≤ upper(t)` for every `t`.
///
/// The transfer functions are sound but deliberately coarse where
/// coarseness is cheap — [`widen`](Self::widen) falls back to a peak ×
/// support box over the widened range — because the prover uses
/// corridors as a *pre-filter*: a corridor that is
/// [`is_provably_zero`](Self::is_provably_zero) refutes an edge without
/// touching exact envelope algebra, and anything the corridor cannot
/// decide falls through to the exact (still conservative) envelope test.
#[derive(Debug, Clone, PartialEq)]
pub struct Corridor {
    lower: Pwl,
    upper: Pwl,
}

impl Corridor {
    /// The corridor `[exact, exact]` of a known curve.
    #[must_use]
    pub fn from_exact(curve: &Pwl) -> Self {
        Self { lower: curve.clone(), upper: curve.clone() }
    }

    /// The peak × support box: `0 ≤ exact ≤ peak · 1[support]`. The
    /// cheapest sound abstraction of any envelope with that peak and
    /// support.
    ///
    /// [`Pwl`] merges breakpoints closer than [`EPS`] and extends
    /// constantly past its endpoints, so the box edges are built as
    /// steeper-than-vertical ramps *outside* the support (the same
    /// `RAMP` idiom as [`Envelope::clipped`]) — the flat top covers the
    /// whole support exactly and the overshoot only widens the upper
    /// bound, which stays sound.
    #[must_use]
    pub fn box_bound(peak: f64, support: TimeInterval) -> Self {
        let peak = peak.max(0.0);
        let upper = if peak <= 0.0 {
            Pwl::zero()
        } else {
            Pwl::new(vec![
                (support.lo() - 2.0 * RAMP, 0.0),
                (support.lo() - RAMP, peak),
                (support.hi() + RAMP, peak),
                (support.hi() + 2.0 * RAMP, 0.0),
            ])
            .expect("box corners are ordered")
        };
        Self { lower: Pwl::zero(), upper }
    }

    /// A corridor from explicit bounds. The caller asserts `lower ≤
    /// upper` pointwise; [`is_well_formed`](Self::is_well_formed) checks
    /// it.
    #[must_use]
    pub fn from_bounds(lower: Pwl, upper: Pwl) -> Self {
        Self { lower, upper }
    }

    /// The lower bound curve.
    #[must_use]
    pub fn lower(&self) -> &Pwl {
        &self.lower
    }

    /// The upper bound curve.
    #[must_use]
    pub fn upper(&self) -> &Pwl {
        &self.upper
    }

    /// Whether `lower ≤ upper` holds over `interval` (within [`EPS`]).
    #[must_use]
    pub fn is_well_formed(&self, interval: TimeInterval) -> bool {
        self.upper.ge_over(&self.lower, interval, EPS)
    }

    /// Whether `curve` lies inside the corridor over `interval` (within
    /// [`EPS`]) — the containment invariant the proptests certify.
    #[must_use]
    pub fn contains(&self, curve: &Pwl, interval: TimeInterval) -> bool {
        self.upper.ge_over(curve, interval, EPS) && curve.ge_over(&self.lower, interval, EPS)
    }

    /// Transfer function of envelope superposition: if `a ∈ self` and
    /// `b ∈ other`, then `a + b ∈ self.add(other)`.
    #[must_use]
    pub fn add(&self, other: &Corridor) -> Corridor {
        Corridor {
            lower: self.lower.add_simplified(&other.lower, 0.0),
            upper: self.upper.add_simplified(&other.upper, 0.0),
        }
    }

    /// Transfer function of clamped difference: if `a ∈ self` and `b ∈
    /// other`, then `max(a − b, 0) ∈ self.sub_clamped(other)`.
    #[must_use]
    pub fn sub_clamped(&self, other: &Corridor) -> Corridor {
        Corridor {
            lower: self.lower.sub_clamped_simplified(&other.upper, 0.0),
            upper: self.upper.sub_clamped_simplified(&other.lower, 0.0),
        }
    }

    /// Transfer function of window widening by up to `delta ≥ 0`: the
    /// widened exact curve is the sliding maximum `t ↦ max_{s∈[0,δ]}
    /// exact(t−s)`, which is bounded above by the peak × support box over
    /// the `delta`-extended support (and below by the unwidened lower
    /// bound, since widening only adds mass).
    #[must_use]
    pub fn widen(&self, delta: f64) -> Corridor {
        if delta <= 0.0 {
            return self.clone();
        }
        let span = self.upper.span();
        let peak = self.upper.max_value().max(0.0);
        if peak <= 0.0 || span.width() + delta <= 0.0 {
            return self.clone();
        }
        let extended = Self::box_bound(peak, TimeInterval::new(span.lo(), span.hi() + delta)).upper;
        Corridor { lower: self.lower.clone(), upper: self.upper.pointwise_max(&extended) }
    }

    /// Transfer function of clipping to `interval` (zero outside).
    ///
    /// The upper bound keeps its interior values with ramped edges just
    /// outside the interval ([`Envelope::clipped`]'s geometry), so its
    /// in-interval peak is exact. The lower bound collapses to zero —
    /// envelope curves are non-negative, so zero is always a valid lower
    /// bound, and refutation only ever consults the upper side.
    #[must_use]
    pub fn clip(&self, interval: TimeInterval) -> Corridor {
        Corridor { lower: Pwl::zero(), upper: clip_upper(&self.upper, interval) }
    }

    /// Upper bound on the exact curve's peak.
    #[must_use]
    pub fn peak_bound(&self) -> f64 {
        self.upper.max_value().max(0.0)
    }

    /// Whether every curve in the corridor is zero (peak bound at most
    /// [`EPS`]) — a refutation: no envelope inside this corridor can move
    /// any victim crossing.
    #[must_use]
    pub fn is_provably_zero(&self) -> bool {
        self.peak_bound() <= EPS
    }
}

/// Width of the steeper-than-vertical edge ramps used where a true step
/// would be merged away by [`Pwl::new`] (same constant as
/// [`Envelope::clipped`]).
const RAMP: f64 = 1e-6;

/// Upper bound of `curve` zeroed outside `interval`: interior values are
/// preserved (clamped at zero from below) and the edges ramp down to
/// zero just *outside* the interval, so the result dominates the exactly
/// clipped curve pointwise and its in-interval peak equals
/// `curve.max_over(interval)`. Assumes envelope-shaped input (decays to
/// zero at its breakpoint extremes).
fn clip_upper(curve: &Pwl, interval: TimeInterval) -> Pwl {
    let span = curve.span();
    if span.lo() >= interval.lo() && span.hi() <= interval.hi() {
        return curve.clone();
    }
    if !span.overlaps(interval) {
        return Pwl::zero();
    }
    let mut pts: Vec<(f64, f64)> = Vec::with_capacity(curve.points().len() + 4);
    let v_lo = curve.eval(interval.lo()).max(0.0);
    if v_lo > 0.0 {
        pts.push((interval.lo() - RAMP, 0.0));
    }
    pts.push((interval.lo(), v_lo));
    for &(t, v) in curve.points() {
        if t > interval.lo() && t < interval.hi() {
            pts.push((t, v.max(0.0)));
        }
    }
    let v_hi = curve.eval(interval.hi()).max(0.0);
    pts.push((interval.hi(), v_hi));
    if v_hi > 0.0 {
        pts.push((interval.hi() + RAMP, 0.0));
    }
    Pwl::new(pts).expect("clip points are ordered")
}

// ---------------------------------------------------------------------
// Per-net digests
// ---------------------------------------------------------------------

/// Incremental FNV-1a over the f64 bit patterns and indices the
/// enumeration reads (same constants as the artifact codec's checksum).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The semantic fingerprint of one prepared run: a digest per net over
/// every per-net `Prepared` input the enumeration can read about it,
/// plus the raw shift bounds (the widening caps the corridor bound must
/// cover on the aggressor side of an edge).
#[derive(Debug, Clone)]
pub(crate) struct SemanticState {
    pub digests: Vec<u64>,
    pub shift_bounds: Vec<f64>,
}

impl SemanticState {
    /// Captures the per-net digests of `p`.
    ///
    /// The digest of net `n` covers: its window timing (EAT/LAT/slew —
    /// noisy in elimination mode, so converged-noise differences are
    /// observable), every primary aggressor (coupling id, partner id,
    /// pulse corners, partner window — so a flipped or re-timed partner
    /// changes this net's digest even though the partner is only
    /// coupling-adjacent), the dominance and clip intervals, the raw
    /// shift bound, and (elimination mode) the net's converged delay
    /// noise. Everything else the enumeration reads about `n` is either
    /// derived from the noiseless base timing (mask-independent) or
    /// arrives through fanin I-lists, which the dataflow fixpoint covers
    /// by closing dirtiness over gate fanout.
    pub fn capture(p: &Prepared<'_>) -> Self {
        let mut digests = Vec::with_capacity(p.circuit.num_nets());
        for v in p.circuit.net_ids() {
            let vi = v.index();
            let mut h = Fnv::new();
            let t = &p.window_timings[vi];
            h.f64(t.eat());
            h.f64(t.lat());
            h.f64(t.slew());
            h.usize(p.primaries[vi].len());
            for info in &p.primaries[vi] {
                h.usize(info.coupling.index());
                h.usize(info.aggressor.index());
                h.f64(info.pulse.start());
                h.f64(info.pulse.peak_time());
                h.f64(info.pulse.peak());
                h.f64(info.pulse.end());
                h.f64(info.eat);
                h.f64(info.lat);
            }
            h.f64(p.dominance_iv[vi].lo());
            h.f64(p.dominance_iv[vi].hi());
            h.f64(p.clip_iv[vi].lo());
            h.f64(p.clip_iv[vi].hi());
            h.f64(p.shift_bound[vi]);
            if let Some(noisy) = &p.noisy {
                h.f64(noisy.delay_noise(v));
            }
            digests.push(h.finish());
        }
        Self { digests, shift_bounds: p.shift_bound.clone() }
    }
}

// ---------------------------------------------------------------------
// Certificates
// ---------------------------------------------------------------------

/// The corridor bound that refuted one coupling-adjacency edge `(victim,
/// coupling, aggressor)` during damping: the justifying inequality is
/// `peak_bound ≤ EPS` (no mass of the maximally widened envelope reaches
/// the victim's clip window) — or, in elimination mode with `cap = 0`,
/// that the aggressor's window carries no noise to narrow, which the
/// lint re-derivation (L051) re-checks from scratch.
#[derive(Debug, Clone, PartialEq)]
pub struct CorridorBound {
    coupling: CouplingId,
    aggressor: NetId,
    cap: f64,
    peak_bound: f64,
    peak_at_zero: f64,
    support: TimeInterval,
    clip: TimeInterval,
}

impl CorridorBound {
    /// Builds a bound record — public so verifier harnesses can
    /// construct adversarial certificates for the lint rules.
    #[must_use]
    pub fn new(
        coupling: CouplingId,
        aggressor: NetId,
        cap: f64,
        peak_bound: f64,
        peak_at_zero: f64,
        support: TimeInterval,
        clip: TimeInterval,
    ) -> Self {
        Self { coupling, aggressor, cap, peak_bound, peak_at_zero, support, clip }
    }

    /// The coupling whose adjacency edge this bound refutes.
    #[must_use]
    pub fn coupling(&self) -> CouplingId {
        self.coupling
    }

    /// The aggressor-side endpoint (the net in the changed-fanout set).
    #[must_use]
    pub fn aggressor(&self) -> NetId {
        self.aggressor
    }

    /// The widening cap the bound covers: the larger of the aggressor's
    /// old and new shift bounds (addition mode), `0` in elimination mode.
    #[must_use]
    pub fn cap(&self) -> f64 {
        self.cap
    }

    /// Peak of the maximally widened envelope inside the clip window —
    /// the bound side of the justifying inequality.
    #[must_use]
    pub fn peak_bound(&self) -> f64 {
        self.peak_bound
    }

    /// Peak of the *unwidened* envelope inside the clip window. Widening
    /// is pointwise monotone, so `peak_at_zero ≤ peak_bound` must hold —
    /// rule L052 checks exactly this.
    #[must_use]
    pub fn peak_at_zero(&self) -> f64 {
        self.peak_at_zero
    }

    /// Support of the maximally widened (unclipped) envelope.
    #[must_use]
    pub fn support(&self) -> TimeInterval {
        self.support
    }

    /// The victim's clip window the bound was evaluated over.
    #[must_use]
    pub fn clip(&self) -> TimeInterval {
        self.clip
    }
}

/// The machine-checkable justification for serving one structurally
/// dirty victim from the session cache: its digest did not change and
/// every coupling-adjacency edge reaching it from the changed set was
/// refuted by a corridor bound. `dna lint --deep` re-derives both claims
/// from scratch (rules L050/L051) and checks each bound's internal
/// monotonicity (L052).
#[derive(Debug, Clone, PartialEq)]
pub struct CleanCertificate {
    victim: NetId,
    digest_old: u64,
    digest_new: u64,
    edges: Vec<CorridorBound>,
}

impl CleanCertificate {
    /// Builds a certificate — public so verifier harnesses can construct
    /// adversarial instances for the lint rules.
    #[must_use]
    pub fn new(victim: NetId, digest_old: u64, digest_new: u64, edges: Vec<CorridorBound>) -> Self {
        Self { victim, digest_old, digest_new, edges }
    }

    /// The victim this certificate proves clean.
    #[must_use]
    pub fn victim(&self) -> NetId {
        self.victim
    }

    /// The victim's digest under the old mask.
    #[must_use]
    pub fn digest_old(&self) -> u64 {
        self.digest_old
    }

    /// The victim's digest under the new mask (must equal
    /// [`digest_old`](Self::digest_old) — a changed digest can never be
    /// proven clean).
    #[must_use]
    pub fn digest_new(&self) -> u64 {
        self.digest_new
    }

    /// The refuted coupling-adjacency edges (one bound per primary whose
    /// aggressor lies in the changed-fanout set).
    #[must_use]
    pub fn edges(&self) -> &[CorridorBound] {
        &self.edges
    }
}

/// An independently re-derived damping result: what the prover concludes
/// when handed nothing but the circuit, the two masks and the mode. The
/// lint pass compares a session's claimed dirty set and certificates
/// against this.
#[derive(Debug, Clone)]
pub struct CleanWitness {
    dirty: Vec<bool>,
    certificates: Vec<CleanCertificate>,
}

impl CleanWitness {
    /// Builds a witness — public so verifier harnesses can construct
    /// adversarial instances for the lint rules.
    #[must_use]
    pub fn new(dirty: Vec<bool>, certificates: Vec<CleanCertificate>) -> Self {
        Self { dirty, certificates }
    }

    /// The re-derived final dirty flags (structural ∧ semantic).
    #[must_use]
    pub fn dirty(&self) -> &[bool] {
        &self.dirty
    }

    /// The re-derived certificates, one per proven-clean victim.
    #[must_use]
    pub fn certificates(&self) -> &[CleanCertificate] {
        &self.certificates
    }
}

// ---------------------------------------------------------------------
// The prover
// ---------------------------------------------------------------------

/// Output of one damping pass: the final dirty flags (always a subset of
/// the structural closure) plus one certificate per proven-clean victim.
pub(crate) struct Refinement {
    pub dirty: Vec<bool>,
    pub certificates: Vec<CleanCertificate>,
}

/// Reflexive gate-fanout closure of `seeds`.
fn fanout_closure(circuit: &Circuit, seeds: &[bool]) -> Vec<bool> {
    let mut out = seeds.to_vec();
    let mut stack: Vec<NetId> = circuit.net_ids().filter(|n| seeds[n.index()]).collect();
    while let Some(n) = stack.pop() {
        for &g in circuit.net(n).loads() {
            let o = circuit.gate(g).output();
            if !out[o.index()] {
                out[o.index()] = true;
                stack.push(o);
            }
        }
    }
    out
}

/// The per-coupling maximum envelope contribution bound of one
/// adjacency edge, and whether it refutes the edge.
///
/// Addition mode: the enumeration consults the aggressor's wideners only
/// behind `primary_envelope(v, info, max_delta).is_zero()` with
/// `max_delta ≤ shift_bound[aggressor]`; bounding the widening at `cap =
/// max(old, new shift bound)` covers every delta either world can reach,
/// so a zero clipped corridor at `cap` silences the primary's
/// higher-order variants in both worlds (pointwise monotonicity of
/// [`Envelope::from_window`] in LAT).
///
/// Elimination mode: the widener-dependent branch is guarded by `window
/// noise > 0 && !env(0).is_zero()`, and both guard inputs are part of
/// the victim's digest — an unchanged digest makes them equal across
/// worlds, so either failing guard refutes the edge with `cap = 0`.
fn refute_edge(
    p: &Prepared<'_>,
    v: NetId,
    info: &PrimaryInfo,
    old: &SemanticState,
) -> Option<CorridorBound> {
    let clip = p.clip_iv[v.index()];
    match p.mode {
        Mode::Addition => {
            let xi = info.aggressor.index();
            let cap = old.shift_bounds[xi].max(p.shift_bound[xi]);
            let wide = info.envelope(cap);
            // Cheap corridor box first; exact clipped envelope only when
            // the box cannot decide.
            let refuted =
                Corridor::box_bound(wide.peak(), wide.span()).clip(clip).is_provably_zero()
                    || p.primary_envelope(v, info, cap).is_zero();
            if !refuted {
                return None;
            }
            Some(CorridorBound {
                coupling: info.coupling,
                aggressor: info.aggressor,
                cap,
                peak_bound: wide.peak_over(clip),
                peak_at_zero: info.envelope(0.0).peak_over(clip),
                support: wide.span(),
                clip,
            })
        }
        Mode::Elimination => {
            let window_noise = info.lat - p.base.timing(info.aggressor).lat();
            let refuted = window_noise <= 0.0 || p.primary_envelope(v, info, 0.0).is_zero();
            if !refuted {
                return None;
            }
            let env0 = info.envelope(0.0);
            let peak = env0.peak_over(clip);
            Some(CorridorBound {
                coupling: info.coupling,
                aggressor: info.aggressor,
                cap: 0.0,
                peak_bound: peak,
                peak_at_zero: peak,
                support: env0.span(),
                clip,
            })
        }
    }
}

/// Runs the damping pass: given the *new* world's prepared state, the
/// old world's semantic fingerprint and the structural dirty closure,
/// returns the refined dirty set (with certificates for every victim it
/// removed) and the new world's fingerprint for the session to adopt.
///
/// `forced_clean` deliberately (and unsoundly) forces one victim clean —
/// the fault-injection hook the lint/audit tests use; production callers
/// pass the disarmed hook, which is `None`.
pub(crate) fn refine(
    p: &Prepared<'_>,
    old: &SemanticState,
    structural: &[bool],
    forced_clean: Option<usize>,
) -> (Refinement, SemanticState) {
    let new = SemanticState::capture(p);
    let circuit = p.circuit;
    let n = circuit.num_nets();
    debug_assert_eq!(old.digests.len(), n);
    debug_assert_eq!(structural.len(), n);

    // C: digest-changed nets; W: their reflexive gate-fanout closure
    // (any net whose fanin cone holds a changed net may rank its
    // wideners differently).
    let changed: Vec<bool> = (0..n).map(|i| old.digests[i] != new.digests[i]).collect();
    let w = fanout_closure(circuit, &changed);

    // Locally dirty: digest changed, or an adjacency edge from W that
    // the corridor bound cannot refute. Nets outside the structural
    // closure need no work — the semantic set is provably a subset.
    let mut local = changed;
    let mut edges: Vec<Vec<CorridorBound>> = vec![Vec::new(); n];
    for v in circuit.net_ids() {
        let vi = v.index();
        if local[vi] || !structural[vi] {
            continue;
        }
        for info in &p.primaries[vi] {
            if !w[info.aggressor.index()] {
                continue;
            }
            match refute_edge(p, v, info, old) {
                Some(bound) => edges[vi].push(bound),
                None => {
                    local[vi] = true;
                    edges[vi].clear();
                    break;
                }
            }
        }
    }

    // Downstream closure: I-lists are consumed strictly along fanin, so
    // a dirty victim's consumers are exactly its gate fanout. The
    // intersection keeps `structural` an upper bound by construction —
    // damping only ever *removes* re-sweep work.
    let semantic = fanout_closure(circuit, &local);
    let mut dirty: Vec<bool> = (0..n).map(|i| structural[i] && semantic[i]).collect();
    let mut certificates: Vec<CleanCertificate> = Vec::new();
    for vi in 0..n {
        if structural[vi] && !dirty[vi] {
            certificates.push(CleanCertificate {
                victim: NetId::new(vi as u32),
                digest_old: old.digests[vi],
                digest_new: new.digests[vi],
                edges: std::mem::take(&mut edges[vi]),
            });
        }
    }

    // Fault injection: force one victim clean with a fabricated
    // certificate (digests lied equal, no refuted edges). The lint
    // re-derivation and the clean-victim audit must both catch this.
    if let Some(idx) = forced_clean {
        if idx < n && dirty[idx] {
            dirty[idx] = false;
            certificates.push(CleanCertificate {
                victim: NetId::new(idx as u32),
                digest_old: new.digests[idx],
                digest_new: new.digests[idx],
                edges: Vec::new(),
            });
            certificates.sort_by_key(|c| c.victim.index());
        }
    }

    (Refinement { dirty, certificates }, new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TopKAnalysis, TopKConfig};
    use dna_netlist::{CellKind, Circuit, CircuitBuilder, Library};
    use dna_noise::CouplingMask;
    use dna_waveform::NoisePulse;

    /// Minimal deterministic PRNG (xorshift64*) — no external deps.
    struct Rng(u64);

    impl Rng {
        fn new(seed: u64) -> Self {
            Self(seed.max(1))
        }

        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
            let unit = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
            lo + unit * (hi - lo)
        }
    }

    fn random_pulse(rng: &mut Rng) -> NoisePulse {
        let start = rng.f64_in(-5.0, 5.0);
        let rise = rng.f64_in(0.1, 10.0);
        let fall = rng.f64_in(0.1, 10.0);
        let peak = rng.f64_in(0.0, 0.8);
        NoisePulse::new(start, start + rise, peak, start + rise + fall)
    }

    fn random_window(rng: &mut Rng) -> (f64, f64) {
        let eat = rng.f64_in(0.0, 100.0);
        let lat = eat + rng.f64_in(0.0, 50.0);
        (eat, lat)
    }

    fn hull(curves: &[&Pwl]) -> TimeInterval {
        let mut iv = TimeInterval::new(-1.0, 1.0);
        for c in curves {
            iv = iv.hull(c.span());
        }
        TimeInterval::new(iv.lo() - 10.0, iv.hi() + 10.0)
    }

    #[test]
    fn box_bound_contains_its_envelope() {
        let mut rng = Rng::new(7);
        for _ in 0..200 {
            let pulse = random_pulse(&mut rng);
            let (eat, lat) = random_window(&mut rng);
            let env = dna_waveform::Envelope::from_window(&pulse, eat, lat);
            let c = Corridor::box_bound(env.peak(), env.span());
            let iv = hull(&[env.as_pwl()]);
            assert!(c.is_well_formed(iv));
            assert!(c.contains(env.as_pwl(), iv), "box must contain its envelope");
        }
    }

    #[test]
    fn add_transfer_contains_exact_sum() {
        let mut rng = Rng::new(11);
        for _ in 0..200 {
            let a = dna_waveform::Envelope::from_window(&random_pulse(&mut rng), 10.0, 30.0);
            let b = {
                let (eat, lat) = random_window(&mut rng);
                dna_waveform::Envelope::from_window(&random_pulse(&mut rng), eat, lat)
            };
            let exact = a.as_pwl().add_simplified(b.as_pwl(), 0.0);
            let ca = Corridor::box_bound(a.peak(), a.span());
            let cb = Corridor::from_exact(b.as_pwl());
            let sum = ca.add(&cb);
            let iv = hull(&[&exact]);
            assert!(sum.contains(&exact, iv), "lower <= exact sum <= upper must hold");
        }
    }

    #[test]
    fn sub_clamped_transfer_contains_exact_difference() {
        let mut rng = Rng::new(13);
        for _ in 0..200 {
            let a = dna_waveform::Envelope::from_window(&random_pulse(&mut rng), 5.0, 25.0);
            let b = dna_waveform::Envelope::from_window(&random_pulse(&mut rng), 8.0, 20.0);
            let exact = a.as_pwl().sub_clamped_simplified(b.as_pwl(), 0.0);
            let ca = Corridor::box_bound(a.peak(), a.span());
            let cb = Corridor::box_bound(b.peak(), b.span());
            let diff = ca.sub_clamped(&cb);
            let iv = hull(&[&exact]);
            assert!(diff.contains(&exact, iv), "corridor difference must contain exact");
        }
    }

    #[test]
    fn widen_transfer_contains_widened_envelope() {
        let mut rng = Rng::new(17);
        for _ in 0..200 {
            let pulse = random_pulse(&mut rng);
            let (eat, lat) = random_window(&mut rng);
            let delta = rng.f64_in(0.0, 40.0);
            let base = dna_waveform::Envelope::from_window(&pulse, eat, lat);
            let widened = dna_waveform::Envelope::from_window(&pulse, eat, lat + delta);
            let c = Corridor::from_exact(base.as_pwl()).widen(delta);
            let iv = hull(&[widened.as_pwl()]);
            assert!(
                c.contains(widened.as_pwl(), iv),
                "widened envelope escaped widen({delta}) corridor"
            );
        }
    }

    #[test]
    fn clip_transfer_contains_clipped_envelope() {
        let mut rng = Rng::new(19);
        for _ in 0..200 {
            let pulse = random_pulse(&mut rng);
            let (eat, lat) = random_window(&mut rng);
            let env = dna_waveform::Envelope::from_window(&pulse, eat, lat);
            let lo = rng.f64_in(-20.0, 120.0);
            let clip = TimeInterval::new(lo, lo + rng.f64_in(1.0, 80.0));
            let clipped = env.clipped(clip);
            let c = Corridor::from_exact(env.as_pwl()).clip(clip);
            let iv = hull(&[clipped.as_pwl()]);
            assert!(
                c.contains(clipped.as_pwl(), iv),
                "engine-clipped envelope escaped clip corridor"
            );
            // And the corridor's zero-refutation agrees with the engine's.
            if c.is_provably_zero() {
                assert!(clipped.is_zero(), "corridor refuted a non-zero clipped envelope");
            }
        }
    }

    #[test]
    fn provably_zero_is_conservative() {
        let c = Corridor::box_bound(0.5, TimeInterval::new(0.0, 10.0));
        assert!(!c.is_provably_zero());
        assert!(c.clip(TimeInterval::new(20.0, 30.0)).is_provably_zero());
        assert!(Corridor::box_bound(0.0, TimeInterval::new(0.0, 10.0)).is_provably_zero());
    }

    // -- prover ------------------------------------------------------

    fn two_cones() -> Circuit {
        let mut b = CircuitBuilder::new(Library::cmos013());
        let a = b.input("a");
        let x = b.input("x");
        let p = b.input("p");
        let q = b.input("q");
        let v = b.gate(CellKind::Buf, "v", &[a]).unwrap();
        let g = b.gate(CellKind::Buf, "g", &[x]).unwrap();
        let w = b.gate(CellKind::Inv, "w", &[v]).unwrap();
        let r = b.gate(CellKind::Buf, "r", &[p]).unwrap();
        let s = b.gate(CellKind::Buf, "s", &[q]).unwrap();
        let t = b.gate(CellKind::Inv, "t", &[r]).unwrap();
        b.output(w);
        b.output(g);
        b.output(t);
        b.output(s);
        b.coupling(v, g, 8.0).unwrap();
        b.coupling(w, g, 4.0).unwrap();
        b.coupling(r, s, 8.0).unwrap();
        b.coupling(t, s, 4.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn digests_are_deterministic_and_mask_sensitive() {
        let c = two_cones();
        let config = TopKConfig::default();
        let engine = TopKAnalysis::new(&c, config);
        let full = CouplingMask::all(&c);
        let p1 = Prepared::build(&engine, Mode::Addition, full.clone()).unwrap();
        let p2 = Prepared::build(&engine, Mode::Addition, full.clone()).unwrap();
        let s1 = SemanticState::capture(&p1);
        let s2 = SemanticState::capture(&p2);
        assert_eq!(s1.digests, s2.digests, "capture must be deterministic");

        let masked = full.clone().without(&[CouplingId::new(0)]);
        let p3 = Prepared::build(&engine, Mode::Addition, masked).unwrap();
        let s3 = SemanticState::capture(&p3);
        let cc = c.coupling(CouplingId::new(0));
        assert_ne!(
            s1.digests[cc.a().index()],
            s3.digests[cc.a().index()],
            "flipping a coupling must change its endpoints' digests"
        );
        // The untouched cone keeps its digests bit-for-bit.
        for name in ["p", "q", "r", "s", "t"] {
            let n = c.net_by_name(name).unwrap();
            assert_eq!(s1.digests[n.index()], s3.digests[n.index()], "{name} digest moved");
        }
    }

    #[test]
    fn refine_proves_disjoint_cone_clean_and_stays_inside_structural() {
        let c = two_cones();
        let config = TopKConfig::default();
        let engine = TopKAnalysis::new(&c, config);
        let full = CouplingMask::all(&c);
        for mode in [Mode::Addition, Mode::Elimination] {
            let p_old = Prepared::build(&engine, mode, full.clone()).unwrap();
            let old = SemanticState::capture(&p_old);
            let masked = full.clone().without(&[CouplingId::new(0)]);
            let p_new = Prepared::build(&engine, mode, masked).unwrap();
            let structural = vec![true; c.num_nets()]; // worst-case closure
            let (refined, _) = refine(&p_new, &old, &structural, None);
            for name in ["p", "q", "r", "s", "t"] {
                let n = c.net_by_name(name).unwrap();
                assert!(
                    !refined.dirty[n.index()],
                    "{}: disjoint-cone net {name} must be proven clean",
                    mode.name()
                );
            }
            // Endpoints of the flipped coupling stay dirty.
            let cc = c.coupling(CouplingId::new(0));
            assert!(refined.dirty[cc.a().index()]);
            assert!(refined.dirty[cc.b().index()]);
            // Every removed victim carries a certificate with equal digests.
            let clean: Vec<usize> = (0..c.num_nets()).filter(|&i| !refined.dirty[i]).collect();
            assert_eq!(clean.len(), refined.certificates.len());
            for cert in &refined.certificates {
                assert_eq!(cert.digest_old(), cert.digest_new());
                assert!(!refined.dirty[cert.victim().index()]);
            }
        }
    }

    #[test]
    fn refine_respects_structural_intersection() {
        let c = two_cones();
        let config = TopKConfig::default();
        let engine = TopKAnalysis::new(&c, config);
        let full = CouplingMask::all(&c);
        let p_old = Prepared::build(&engine, Mode::Addition, full.clone()).unwrap();
        let old = SemanticState::capture(&p_old);
        let masked = full.clone().without(&[CouplingId::new(0)]);
        let p_new = Prepared::build(&engine, Mode::Addition, masked).unwrap();
        let structural = vec![false; c.num_nets()];
        let (refined, _) = refine(&p_new, &old, &structural, None);
        assert!(refined.dirty.iter().all(|&d| !d), "dirty must be within structural");
        assert!(refined.certificates.is_empty(), "no structural holes, no certificates");
    }

    #[test]
    fn forced_clean_fabricates_a_certificate() {
        let c = two_cones();
        let config = TopKConfig::default();
        let engine = TopKAnalysis::new(&c, config);
        let full = CouplingMask::all(&c);
        let p_old = Prepared::build(&engine, Mode::Addition, full.clone()).unwrap();
        let old = SemanticState::capture(&p_old);
        let masked = full.clone().without(&[CouplingId::new(0)]);
        let p_new = Prepared::build(&engine, Mode::Addition, masked).unwrap();
        let structural = vec![true; c.num_nets()];
        let honest = refine(&p_new, &old, &structural, None).0;
        let victim = c.coupling(CouplingId::new(0)).a();
        assert!(honest.dirty[victim.index()], "flipped endpoint must be honestly dirty");
        let forced = refine(&p_new, &old, &structural, Some(victim.index())).0;
        assert!(!forced.dirty[victim.index()], "hook must force the victim clean");
        let cert = forced
            .certificates
            .iter()
            .find(|cert| cert.victim() == victim)
            .expect("forced victim must carry a fabricated certificate");
        assert_eq!(cert.digest_old(), cert.digest_new(), "fabricated digests lie equal");
        assert!(cert.edges().is_empty());
    }
}
