//! Engine passes: irredundant candidate lists and top-k results.

use std::collections::HashSet;

use dna_netlist::Circuit;
use dna_noise::CouplingMask;
use dna_topk::dominance::{find_dominated_pair, DominanceDirection};
use dna_topk::{Candidate, CleanCertificate, CleanWitness, CouplingSet, SchedAudit, TopKResult};
use dna_waveform::TimeInterval;

use crate::{lint_envelope, Diagnostics, Location, Rule};

/// Checks a pruned candidate list — the paper's irredundant I-list
/// (`L020`–`L023`, `L030`–`L033`).
///
/// After dominance pruning, no candidate may be dominated by a
/// better-ranked one over `dominance_interval` — the list is assumed
/// ranked best-first, as [`irredundant`](dna_topk::dominance::irredundant)
/// produces it (Theorem 1 guarantees dropping dominated sets is lossless
/// only if every survivor earns its slot). The list must also carry no
/// duplicate coupling set, must respect the beam cap `max_width`, and every
/// candidate must have a finite, non-negative delay noise and a well-formed
/// envelope.
#[must_use]
pub fn lint_ilist(
    candidates: &[Candidate],
    dominance_interval: TimeInterval,
    direction: DominanceDirection,
    max_width: Option<usize>,
) -> Diagnostics {
    let mut diags = Diagnostics::new();

    if let Some(cap) = max_width {
        if candidates.len() > cap {
            diags.report(
                Rule::OverCapacity,
                Location::Global,
                format!("list holds {} candidates, beam cap is {cap}", candidates.len()),
            );
        }
    }

    let mut seen: HashSet<&CouplingSet> = HashSet::with_capacity(candidates.len());
    for (i, cand) in candidates.iter().enumerate() {
        if !seen.insert(cand.set()) {
            diags.report(
                Rule::DuplicateCandidateSet,
                Location::Candidate { index: i },
                format!("coupling set {:?} appears more than once", cand.set().ids()),
            );
        }
        let dn = cand.delay_noise();
        if !dn.is_finite() || dn < 0.0 {
            diags.report(
                Rule::BadDelayNoise,
                Location::Candidate { index: i },
                format!("cached delay noise {dn} ps is not finite and non-negative"),
            );
        }
        let env = lint_envelope(cand.envelope());
        if !env.is_empty() {
            diags.report(
                Rule::EnvelopeMalformed,
                Location::Candidate { index: i },
                format!("candidate envelope is malformed: {}", summarize(&env)),
            );
        }
    }

    if let Some((winner, loser)) = find_dominated_pair(candidates, dominance_interval, direction) {
        diags.report(
            Rule::DominatedCandidate,
            Location::Candidate { index: loser },
            format!(
                "dominated by candidate {winner} (set {:?}) over {:?}",
                candidates[winner].set().ids(),
                dominance_interval
            ),
        );
    }

    diags.sort();
    diags
}

/// Checks a finished top-k analysis result against the circuit it came
/// from (`L006`, `L008`, `L032`–`L034`).
///
/// `false_aggressors` lists couplings a logic-correlation pass excluded;
/// the reported worst set must be disjoint from it (paper §6: false
/// aggressor sets only shrink the search space, they must never leak back
/// into an answer). Pass an empty set when no exclusions apply.
#[must_use]
pub fn lint_result(
    circuit: &Circuit,
    result: &TopKResult,
    false_aggressors: &CouplingSet,
) -> Diagnostics {
    let mut diags = Diagnostics::new();

    if result.set().len() > result.requested_k() {
        diags.report(
            Rule::OverCapacity,
            Location::Global,
            format!(
                "worst set has {} couplings, only k = {} were requested",
                result.set().len(),
                result.requested_k()
            ),
        );
    }

    for &id in result.set().ids() {
        if id.index() >= circuit.num_couplings() {
            diags.report(
                Rule::CouplingUnresolved,
                Location::Coupling { id: id.index() },
                "worst set references a nonexistent coupling",
            );
        }
        if false_aggressors.contains(id) {
            diags.report(
                Rule::FalseAggressorInSet,
                Location::Coupling { id: id.index() },
                "worst set contains a coupling excluded as a false aggressor",
            );
        }
    }

    let sink = result.sink();
    if sink.index() >= circuit.num_nets() {
        diags.report(
            Rule::OutputListCorrupt,
            Location::Net { id: sink.index(), name: String::new() },
            "result sink is not a net of this circuit",
        );
    } else if !circuit.net(sink).is_output {
        diags.report(
            Rule::OutputListCorrupt,
            Location::Net { id: sink.index(), name: circuit.net(sink).name().to_string() },
            "result sink is not a primary output",
        );
    }

    for (label, delay) in [
        ("quiet delay", result.delay_before()),
        ("noisy delay", result.delay_after()),
        ("predicted delay", result.predicted_delay()),
    ] {
        if !delay.is_finite() || delay < 0.0 {
            diags.report(
                Rule::BadDelayNoise,
                Location::Global,
                format!("{label} {delay} ps is not finite and non-negative"),
            );
        }
    }

    diags.sort();
    diags
}

/// Checks a what-if session's dirty set against the mask delta it was
/// derived from (`L035`).
///
/// A [`WhatIfSession`](dna_topk::WhatIfSession) serves every net whose
/// `dirty` flag is false straight from its cache, so the flags must be a
/// **sound over-approximation** of the nets the mask change can affect:
///
/// 1. the flag vector covers every net of the circuit;
/// 2. both endpoints of every coupling whose enable bit differs between
///    `before` and `after` are dirty (they are the seeds of the change);
/// 3. the dirty set is closed under the two propagation edge kinds —
///    gate fanout (a dirty net's arrival feeds its load gates' outputs)
///    and **mask-aware** coupling adjacency (a dirty net injects noise
///    into every net coupled to it through a coupling enabled in `before`
///    *or* `after`; a coupling disabled in both worlds injects nothing in
///    either, so its edge cannot carry a difference and is exempt).
///
/// Any violation names a net that would be served stale from the session
/// cache. Extra dirty nets are *not* reported: over-approximation costs
/// recompute time, never correctness.
#[must_use]
pub fn lint_dirty_closure(
    circuit: &Circuit,
    before: &CouplingMask,
    after: &CouplingMask,
    dirty: &[bool],
) -> Diagnostics {
    let mut diags = Diagnostics::new();

    if dirty.len() != circuit.num_nets() {
        diags.report(
            Rule::SessionCacheIncoherent,
            Location::Global,
            format!("dirty vector covers {} nets, circuit has {}", dirty.len(), circuit.num_nets()),
        );
        diags.sort();
        return diags;
    }
    let is_dirty = |i: usize| dirty.get(i).copied().unwrap_or(false);

    // Seeds: every endpoint of a coupling the delta flipped.
    for cc in circuit.coupling_ids() {
        if before.is_enabled(cc) == after.is_enabled(cc) {
            continue;
        }
        let c = circuit.coupling(cc);
        for end in [c.a(), c.b()] {
            if !is_dirty(end.index()) {
                diags.report(
                    Rule::SessionCacheIncoherent,
                    Location::Net { id: end.index(), name: circuit.net(end).name().to_string() },
                    format!("endpoint of flipped coupling {} is not dirty", cc.index()),
                );
            }
        }
    }

    // Closure under gate-fanout and coupling-adjacency edges.
    for n in circuit.net_ids() {
        if !is_dirty(n.index()) {
            continue;
        }
        for &g in circuit.net(n).loads() {
            let out = circuit.gate(g).output();
            if !is_dirty(out.index()) {
                diags.report(
                    Rule::SessionCacheIncoherent,
                    Location::Net { id: out.index(), name: circuit.net(out).name().to_string() },
                    format!(
                        "in the fanout of dirty net {} ({}) but not dirty",
                        n.index(),
                        circuit.net(n).name()
                    ),
                );
            }
        }
        for &cc in circuit.couplings_on(n) {
            if !before.is_enabled(cc) && !after.is_enabled(cc) {
                // Disabled in both worlds: zero noise injected either way,
                // so this edge cannot propagate a state difference.
                continue;
            }
            let Some(other) = circuit.coupling(cc).other(n) else { continue };
            if !is_dirty(other.index()) {
                diags.report(
                    Rule::SessionCacheIncoherent,
                    Location::Net {
                        id: other.index(),
                        name: circuit.net(other).name().to_string(),
                    },
                    format!(
                        "coupled to dirty net {} ({}) through coupling {} but not dirty",
                        n.index(),
                        circuit.net(n).name(),
                        cc.index()
                    ),
                );
            }
        }
    }

    diags.sort();
    diags
}

/// Checks a semantically damped dirty set and its clean certificates
/// against an independently re-derived prover verdict
/// (`L035`, `L050`–`L052`).
///
/// Under [`Damping::Semantic`](dna_topk::Damping::Semantic) a session's
/// `dirty` flags are the structural closure *minus* the victims the
/// corridor prover certified clean, so the bare [`lint_dirty_closure`]
/// coherence check no longer applies verbatim: a certified victim sits
/// inside the structural closure without being flagged. This pass checks
/// the damped state end to end:
///
/// 1. **Bound argument (extended `L035`).** `dirty ∪ certified` must be a
///    sound structural closure of the mask delta — every net the bare
///    rule would demand dirty is either re-swept or carries a
///    certificate. A net that is neither is served stale with *no* proof.
/// 2. **Certificate validity (`L050`).** Each certificate must cover an
///    in-range victim exactly once, must not cover a victim the session
///    re-swept anyway, must record an unchanged semantic digest, and the
///    re-derived witness — produced from scratch by
///    [`derive_clean_witness`](dna_topk::TopKAnalysis::derive_clean_witness),
///    which never consults fault-injection hooks — must agree the victim
///    is clean.
/// 3. **Cache freshness (`L051`).** Every emitted certificate must
///    bitwise equal its re-derived counterpart (same digests, same
///    refuted edges with the same bound values); a missing or differing
///    counterpart means the session's cached corridor state has drifted.
/// 4. **Bound monotonicity (`L052`).** Within each refuting edge, the
///    envelope contribution at zero shift can never exceed the claimed
///    bound over the whole shift corridor (the corridor is a pointwise
///    upper bound, so widening the shift freedom only grows it).
#[must_use]
pub fn lint_dirty_closure_certified(
    circuit: &Circuit,
    before: &CouplingMask,
    after: &CouplingMask,
    dirty: &[bool],
    certificates: &[CleanCertificate],
    witness: &CleanWitness,
) -> Diagnostics {
    let mut diags = Diagnostics::new();

    let nets = circuit.num_nets();
    if dirty.len() != nets {
        diags.report(
            Rule::SessionCacheIncoherent,
            Location::Global,
            format!("dirty vector covers {} nets, circuit has {nets}", dirty.len()),
        );
        diags.sort();
        return diags;
    }
    if witness.dirty().len() != nets {
        diags.report(
            Rule::CorridorCacheStale,
            Location::Global,
            format!("witness covers {} nets, circuit has {nets}", witness.dirty().len()),
        );
        diags.sort();
        return diags;
    }

    let net_loc = |vi: usize| Location::Net {
        id: vi,
        name: circuit.net(dna_netlist::NetId::new(vi as u32)).name().to_string(),
    };

    let mut certified = vec![false; nets];
    for cert in certificates {
        let vi = cert.victim().index();
        if vi >= nets {
            diags.report(
                Rule::CleanCertificateInvalid,
                Location::Global,
                format!("certificate victim {vi} is not a net of this circuit"),
            );
            continue;
        }
        if certified[vi] {
            diags.report(
                Rule::CleanCertificateInvalid,
                net_loc(vi),
                "victim carries more than one clean certificate",
            );
        }
        certified[vi] = true;
        if dirty[vi] {
            diags.report(
                Rule::CleanCertificateInvalid,
                net_loc(vi),
                "certificate covers a victim the session re-swept anyway",
            );
        }
        if cert.digest_old() != cert.digest_new() {
            diags.report(
                Rule::CleanCertificateInvalid,
                net_loc(vi),
                format!(
                    "semantic digest changed ({:#018x} -> {:#018x}) under a clean claim",
                    cert.digest_old(),
                    cert.digest_new()
                ),
            );
        }
        if witness.dirty()[vi] {
            diags.report(
                Rule::CleanCertificateInvalid,
                net_loc(vi),
                "re-derived prover verdict marks this victim dirty — the clean claim is unsound",
            );
        }
        match witness.certificates().iter().find(|w| w.victim() == cert.victim()) {
            None => diags.report(
                Rule::CorridorCacheStale,
                net_loc(vi),
                "no re-derived certificate exists for this victim",
            ),
            Some(rederived) if rederived != cert => diags.report(
                Rule::CorridorCacheStale,
                net_loc(vi),
                "certificate does not bitwise match its re-derivation",
            ),
            Some(_) => {}
        }
        for (e, edge) in cert.edges().iter().enumerate() {
            if edge.peak_at_zero() > edge.peak_bound() + 1e-12 {
                diags.report(
                    Rule::BoundNotMonotone,
                    net_loc(vi),
                    format!(
                        "edge {e} (coupling {}): contribution at zero shift {} exceeds \
                         corridor bound {}",
                        edge.coupling().index(),
                        edge.peak_at_zero(),
                        edge.peak_bound()
                    ),
                );
            }
        }
    }

    // Extended L035: certified victims count as covered — the closure
    // must hold for `dirty ∪ certified`, so every skip is either re-swept
    // or certified.
    let effective: Vec<bool> = dirty.iter().zip(&certified).map(|(&d, &c)| d || c).collect();
    diags.merge(lint_dirty_closure(circuit, before, after, &effective));

    diags.sort();
    diags
}

/// Checks that batch what-if evaluation is submission-order independent
/// (`L043`).
///
/// `forward` and `reordered` must hold results for the **same scenarios in
/// the same index space** — the caller evaluates the batch twice (once as
/// submitted, once under a permutation, mapped back to submission order)
/// and hands both here. Scenarios are independent queries against one
/// session snapshot, so every observable field must be f64-bit-identical;
/// any divergence means scenario evaluation leaked state between
/// scenarios.
#[must_use]
pub fn lint_batch_order(forward: &[TopKResult], reordered: &[TopKResult]) -> Diagnostics {
    let mut diags = Diagnostics::new();

    if forward.len() != reordered.len() {
        diags.report(
            Rule::BatchOrderDependent,
            Location::Global,
            format!(
                "batch evaluated {} scenarios forward but {} reordered",
                forward.len(),
                reordered.len()
            ),
        );
        diags.sort();
        return diags;
    }

    for (i, (a, b)) in forward.iter().zip(reordered).enumerate() {
        let mismatch = if a.couplings() != b.couplings() {
            Some("worst coupling set")
        } else if a.sink() != b.sink() {
            Some("sink output")
        } else if a.delay_before().to_bits() != b.delay_before().to_bits()
            || a.delay_after().to_bits() != b.delay_after().to_bits()
            || a.predicted_delay().to_bits() != b.predicted_delay().to_bits()
        {
            Some("delay (bitwise)")
        } else if a.peak_list_width() != b.peak_list_width()
            || a.generated_candidates() != b.generated_candidates()
        {
            Some("sweep counters")
        } else {
            None
        };
        if let Some(field) = mismatch {
            diags.report(
                Rule::BatchOrderDependent,
                Location::Global,
                format!("scenario {i}: {field} differs under batch reordering"),
            );
        }
    }

    diags.sort();
    diags
}

/// Checks a scheduler determinism audit (`L060`).
///
/// The caller runs [`TopKAnalysis::sched_audit`](dna_topk::TopKAnalysis::sched_audit),
/// which replays the work-stealing sweep on the serial reference
/// schedule and compares every victim's published result slot (I-lists
/// and counters, f64-bit-exact) plus its pre-partitioned budget share
/// against the parallel run. Any surviving entry here means steal order
/// or thread count leaked into the output — the determinism contract
/// every identity test builds on is broken.
#[must_use]
pub fn lint_sched_replay(audit: &SchedAudit) -> Diagnostics {
    let mut diags = Diagnostics::new();

    for &i in &audit.mismatched_slots {
        diags.report(
            Rule::SchedulerResultSlotMismatch,
            Location::Net { id: i, name: String::new() },
            "published I-lists or counters differ between the parallel sweep and its serial replay",
        );
    }
    for &i in &audit.share_violations {
        diags.report(
            Rule::SchedulerResultSlotMismatch,
            Location::Net { id: i, name: String::new() },
            "skip decision contradicts the victim's pre-partitioned budget share",
        );
    }

    diags.sort();
    diags
}

fn summarize(diags: &Diagnostics) -> String {
    diags.iter().map(|d| d.message.clone()).collect::<Vec<_>>().join("; ")
}
