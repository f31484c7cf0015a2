//! Engine passes: irredundant candidate lists and top-k results.

use std::collections::HashSet;

use dna_netlist::Circuit;
use dna_noise::CouplingMask;
use dna_topk::dominance::{find_dominated_pair, DominanceDirection};
use dna_topk::{Candidate, CouplingSet, Divergence, TopKResult};
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
///
/// A semantically damped session re-sweeps less than this closure: pass
/// `dirty ∪ proven-clean` (the victims in
/// [`WhatIfOutcome::proven_clean`](dna_topk::WhatIfOutcome::proven_clean))
/// so every skip is accounted for here, and audit the proven-clean
/// victims themselves against the [`Oracle`](dna_topk::Oracle) (`L061`).
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

/// Renders the verdict of a [`dna_topk::Oracle`] check on `variant` (a
/// parallel sweep, a what-if session, a batch scenario) as `L061`: no
/// diagnostic for `Ok`, one at the divergent victim (or global, for a
/// result field) for a [`Divergence`].
#[must_use]
pub fn lint_divergence(
    circuit: &Circuit,
    variant: &str,
    verdict: Result<(), Divergence>,
) -> Diagnostics {
    let mut diags = Diagnostics::new();
    if let Err(divergence) = verdict {
        let location = match divergence.victim {
            Some(v) => Location::Net { id: v.index(), name: circuit.net(v).name().to_string() },
            None => Location::Global,
        };
        diags.report(
            Rule::ReferenceDivergence,
            location,
            format!(
                "{variant}: {} differs from the serial from-scratch reference",
                divergence.field
            ),
        );
    }
    diags
}

fn summarize(diags: &Diagnostics) -> String {
    diags.iter().map(|d| d.message.clone()).collect::<Vec<_>>().join("; ")
}
