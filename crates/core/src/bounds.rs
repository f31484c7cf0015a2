//! Damping prover: a semantic proof that *damps* the structural dirty
//! closure of what-if sessions.
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
//! 2. **An exact per-edge refutation** (`refute_edge`): the primary's
//!    envelope widened by the largest shift bound either world allows,
//!    clipped to the victim's analysis window, is tested for zero with
//!    the same [`Prepared::primary_envelope`] the enumeration's own guard
//!    uses.
//! 3. **A dataflow fixpoint**: digest-changed nets seed a gate-fanout
//!    closure `W` (any net whose fanin cone holds a changed net can rank
//!    its wideners differently); a victim is *locally* dirty when its own
//!    digest changed or when one of its primaries has its aggressor in
//!    `W` and the edge cannot be refuted; local dirtiness then closes
//!    downstream over gate fanout (I-lists are consumed strictly along
//!    fanin). The final dirty set is the intersection with the structural
//!    closure — the prover only ever *removes* work.
//!
//! # Soundness argument (DESIGN.md §14 carries the full version)
//!
//! [`Envelope::from_window`](dna_waveform::Envelope::from_window) is
//! pointwise monotone in the LAT bound: widening the window extends the
//! trapezoid's flat top rightward, so `env(δ) ≤ env(cap)` pointwise for
//! every `δ ≤ cap`. The enumeration consults an aggressor's wideners only
//! behind guards of the form "skip this primary if its (maximally
//! widened) clipped envelope is zero" (addition) or "skip if the window
//! carries no noise or the clipped envelope is zero" (elimination). If
//! the clipped envelope at `cap = max(shift bound old, shift bound new)`
//! is zero, the guard fires in *both* worlds for *every* reachable
//! widening, so no output — lists, counters, raw candidate counts — can
//! depend on the changed widener rankings, and the edge provably carries
//! no difference. The proof is audited by the one reference: the
//! [`Oracle`](crate::Oracle) diffs every victim of a damped session,
//! proven-clean ones included, against a from-scratch run.

use dna_netlist::{Circuit, NetId};

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
    /// Prover damping (the default): additionally skip every
    /// structurally dirty victim the damping prover proves clean.
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
/// plus the raw shift bounds (the widening caps the edge refutation must
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
// The prover
// ---------------------------------------------------------------------

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

/// Whether the adjacency edge from `info`'s aggressor into victim `v`
/// provably carries no difference between the old and the new world.
///
/// Addition mode: the enumeration consults the aggressor's wideners only
/// behind `primary_envelope(v, info, max_delta).is_zero()` with
/// `max_delta ≤ shift_bound[aggressor]`; testing the clipped envelope at
/// `cap = max(old, new shift bound)` covers every delta either world can
/// reach, so a zero envelope at `cap` silences the primary's
/// higher-order variants in both worlds (pointwise monotonicity of
/// [`Envelope::from_window`](dna_waveform::Envelope::from_window) in LAT).
///
/// Elimination mode: the widener-dependent branch is guarded by `window
/// noise > 0 && !env(0).is_zero()`, and both guard inputs are part of
/// the victim's digest — an unchanged digest makes them equal across
/// worlds, so either failing guard refutes the edge.
fn refute_edge(p: &Prepared<'_>, v: NetId, info: &PrimaryInfo, old: &SemanticState) -> bool {
    match p.mode {
        Mode::Addition => {
            let xi = info.aggressor.index();
            let cap = old.shift_bounds[xi].max(p.shift_bound[xi]);
            p.primary_envelope(v, info, cap).is_zero()
        }
        Mode::Elimination => {
            let window_noise = info.lat - p.base.timing(info.aggressor).lat();
            window_noise <= 0.0 || p.primary_envelope(v, info, 0.0).is_zero()
        }
    }
}

/// Runs the damping pass: given the *new* world's prepared state, the
/// old world's semantic fingerprint and the structural dirty closure,
/// returns the refined dirty set (always a subset of `structural`) and
/// the new world's fingerprint for the session to adopt.
///
/// `forced_clean` deliberately (and unsoundly) forces one victim clean —
/// the fault-injection hook the audit tests use; production callers pass
/// the disarmed hook, which is `None`.
pub(crate) fn refine(
    p: &Prepared<'_>,
    old: &SemanticState,
    structural: &[bool],
    forced_clean: Option<usize>,
) -> (Vec<bool>, SemanticState) {
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
    // cannot be refuted. Nets outside the structural closure need no
    // work — the semantic set is provably a subset.
    let mut local = changed;
    for v in circuit.net_ids() {
        let vi = v.index();
        if local[vi] || !structural[vi] {
            continue;
        }
        local[vi] = p.primaries[vi]
            .iter()
            .any(|info| w[info.aggressor.index()] && !refute_edge(p, v, info, old));
    }

    // Downstream closure: I-lists are consumed strictly along fanin, so
    // a dirty victim's consumers are exactly its gate fanout. The
    // intersection keeps `structural` an upper bound by construction —
    // damping only ever *removes* re-sweep work.
    let semantic = fanout_closure(circuit, &local);
    let mut dirty: Vec<bool> = (0..n).map(|i| structural[i] && semantic[i]).collect();

    // Fault injection: force one dirty victim clean without a proof.
    // The oracle's audit of the session must name it.
    if let Some(idx) = forced_clean {
        if idx < n {
            dirty[idx] = false;
        }
    }

    (dirty, new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TopKAnalysis, TopKConfig};
    use dna_netlist::{CellKind, Circuit, CircuitBuilder, CouplingId, Library};
    use dna_noise::CouplingMask;

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
            let (dirty, _) = refine(&p_new, &old, &structural, None);
            for name in ["p", "q", "r", "s", "t"] {
                let n = c.net_by_name(name).unwrap();
                assert!(
                    !dirty[n.index()],
                    "{}: disjoint-cone net {name} must be proven clean",
                    mode.name()
                );
            }
            // Endpoints of the flipped coupling stay dirty.
            let cc = c.coupling(CouplingId::new(0));
            assert!(dirty[cc.a().index()]);
            assert!(dirty[cc.b().index()]);
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
        let (dirty, _) = refine(&p_new, &old, &structural, None);
        assert!(dirty.iter().all(|&d| !d), "dirty must be within structural");
    }

    #[test]
    fn forced_clean_skips_an_honestly_dirty_victim() {
        let c = two_cones();
        let config = TopKConfig::default();
        let engine = TopKAnalysis::new(&c, config);
        let full = CouplingMask::all(&c);
        let p_old = Prepared::build(&engine, Mode::Addition, full.clone()).unwrap();
        let old = SemanticState::capture(&p_old);
        let masked = full.clone().without(&[CouplingId::new(0)]);
        let p_new = Prepared::build(&engine, Mode::Addition, masked).unwrap();
        let structural = vec![true; c.num_nets()];
        let (honest, _) = refine(&p_new, &old, &structural, None);
        let victim = c.coupling(CouplingId::new(0)).a();
        assert!(honest[victim.index()], "flipped endpoint must be honestly dirty");
        let (forced, _) = refine(&p_new, &old, &structural, Some(victim.index()));
        let mut expected = honest;
        expected[victim.index()] = false;
        assert_eq!(forced, expected, "the hook forces exactly that victim clean");
    }
}
