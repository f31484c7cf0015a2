//! One fixture per rule: build a valid artifact, corrupt it through the
//! raw-parts escape hatches, and check the verifier names the violation.

use dna_lint::{
    lint_circuit, lint_config, lint_dirty_closure, lint_envelope, lint_ilist, lint_pwl,
    lint_timing, Rule, Severity,
};
use dna_netlist::generator::{generate, GeneratorConfig};
use dna_netlist::{CellKind, CircuitBuilder, CouplingId, GateId, Library, NetId, NetSource};
use dna_noise::CouplingMask;
use dna_sta::NetTiming;
use dna_topk::dominance::DominanceDirection;
use dna_topk::{Candidate, CouplingSet, MaskDelta, Mode, TopKAnalysis, TopKConfig, WhatIfSession};
use dna_waveform::{Envelope, NoisePulse, Pwl, TimeInterval};

/// A small valid circuit: two inverters in series plus a coupled side net,
/// enough structure for every corruption below.
fn valid() -> dna_netlist::Circuit {
    let mut b = CircuitBuilder::new(Library::cmos013());
    let a = b.input("a");
    let s = b.input("s");
    let m = b.gate(CellKind::Inv, "u1", &[a]).unwrap();
    let y = b.gate(CellKind::Inv, "u2", &[m]).unwrap();
    let t = b.gate(CellKind::Buf, "u3", &[s]).unwrap();
    b.output(y);
    b.output(t);
    b.coupling(m, t, 2.5).unwrap();
    b.build().unwrap()
}

/// Applies `corrupt` to the raw parts of the valid circuit and lints the
/// reassembled wreck.
fn lint_corrupted(corrupt: impl FnOnce(&mut dna_netlist::CircuitParts)) -> dna_lint::Diagnostics {
    let mut parts = valid().into_parts();
    corrupt(&mut parts);
    lint_circuit(&dna_netlist::Circuit::from_parts_unchecked(parts))
}

#[test]
fn valid_circuit_is_clean() {
    let diags = lint_circuit(&valid());
    assert!(diags.is_empty(), "{}", diags.render_text());
}

#[test]
fn l001_gate_input_unresolved() {
    let diags = lint_corrupted(|p| p.gates[2].inputs[0] = NetId::new(99));
    assert!(diags.has(Rule::GateInputUnresolved), "{}", diags.render_text());
}

#[test]
fn l002_gate_output_unresolved() {
    let diags = lint_corrupted(|p| p.gates[2].output = NetId::new(99));
    assert!(diags.has(Rule::GateOutputUnresolved), "{}", diags.render_text());
}

#[test]
fn l003_dangling_driver() {
    let diags = lint_corrupted(|p| {
        for net in &mut p.nets {
            if net.source == NetSource::Gate(GateId::new(2)) {
                net.source = NetSource::Gate(GateId::new(77));
            }
        }
    });
    assert!(diags.has(Rule::DanglingDriver), "{}", diags.render_text());
}

#[test]
fn l004_driver_output_mismatch() {
    let diags = lint_corrupted(|p| {
        // Point u3's output net at u1 instead; u1 drives a different net.
        for net in &mut p.nets {
            if net.source == NetSource::Gate(GateId::new(2)) {
                net.source = NetSource::Gate(GateId::new(0));
            }
        }
    });
    assert!(diags.has(Rule::DriverOutputMismatch), "{}", diags.render_text());
}

#[test]
fn l005_load_list_mismatch_both_directions() {
    // A net lists a load gate with no matching input pin…
    let diags = lint_corrupted(|p| {
        let extra = GateId::new(2); // u3 reads `s`, not this net
        for net in &mut p.nets {
            if net.name == "a" {
                net.loads.push(extra);
            }
        }
    });
    assert!(diags.has(Rule::LoadListMismatch), "{}", diags.render_text());

    // …and the reverse: a gate reads a net whose load list omits it.
    let diags = lint_corrupted(|p| {
        for net in &mut p.nets {
            if net.name == "a" {
                net.loads.clear();
            }
        }
    });
    assert!(diags.has(Rule::LoadListMismatch), "{}", diags.render_text());
}

#[test]
fn l006_coupling_unresolved() {
    let diags = lint_corrupted(|p| p.couplings[0].a = NetId::new(42));
    assert!(diags.has(Rule::CouplingUnresolved), "{}", diags.render_text());

    // Self-coupling is equally meaningless.
    let diags = lint_corrupted(|p| p.couplings[0].a = p.couplings[0].b);
    assert!(diags.has(Rule::CouplingUnresolved), "{}", diags.render_text());
}

#[test]
fn l007_coupling_index_corrupt() {
    // The per-net index omits an incident coupling.
    let diags = lint_corrupted(|p| {
        for list in &mut p.couplings_by_net {
            list.clear();
        }
    });
    assert!(diags.has(Rule::CouplingIndexCorrupt), "{}", diags.render_text());

    // The index lists a coupling on a net it does not touch.
    let diags = lint_corrupted(|p| p.couplings_by_net[0].push(CouplingId::new(0)));
    assert!(diags.has(Rule::CouplingIndexCorrupt), "{}", diags.render_text());
}

#[test]
fn l008_output_list_corrupt() {
    let diags = lint_corrupted(|p| {
        let first = p.outputs[0];
        p.nets[first.index()].is_output = false;
    });
    assert!(diags.has(Rule::OutputListCorrupt), "{}", diags.render_text());

    let diags = lint_corrupted(|p| p.outputs.clear());
    assert!(diags.has(Rule::OutputListCorrupt), "{}", diags.render_text());
}

#[test]
fn l009_floating_net_is_a_warning() {
    let diags = lint_corrupted(|p| {
        // Detach u1's output from its only load and from the output list:
        // a driven net that goes nowhere.
        let m = p.gates[0].output;
        p.nets[m.index()].loads.clear();
        p.gates[1].inputs.clear();
    });
    assert!(diags.has(Rule::FloatingNet), "{}", diags.render_text());
    let floating = diags.iter().find(|d| d.rule == Rule::FloatingNet).expect("reported above");
    assert_eq!(floating.severity, Severity::Warning);
    assert!(!diags.has_errors(), "{}", diags.render_text());
}

#[test]
fn l010_topo_not_permutation() {
    let diags = lint_corrupted(|p| {
        let first = p.gate_topo[0];
        p.gate_topo.push(first);
    });
    assert!(diags.has(Rule::TopoNotPermutation), "{}", diags.render_text());
}

#[test]
fn l011_topo_order_violation() {
    let diags = lint_corrupted(|p| {
        // u2 consumes u1's output; listing u2 first breaks the order.
        let pos1 = p.gate_topo.iter().position(|g| g.index() == 0).unwrap();
        let pos2 = p.gate_topo.iter().position(|g| g.index() == 1).unwrap();
        p.gate_topo.swap(pos1, pos2);
    });
    assert!(diags.has(Rule::TopoOrderViolation), "{}", diags.render_text());
}

#[test]
fn l012_net_topo_corrupt() {
    let diags = lint_corrupted(|p| p.net_topo.reverse());
    assert!(diags.has(Rule::NetTopoCorrupt), "{}", diags.render_text());
}

#[test]
fn l013_cycle_diagnostic_names_the_loop() {
    let diags = lint_corrupted(|p| {
        // Feed u2's output back into u1's input: u1 -> u2 -> u1.
        let y = p.gates[1].output;
        let a = p.gates[0].inputs[0];
        p.gates[0].inputs[0] = y;
        p.nets[y.index()].loads.push(GateId::new(0));
        p.nets[a.index()].loads.clear();
    });
    assert!(diags.has(Rule::CombinationalCycle), "{}", diags.render_text());
    let cycle = diags.iter().find(|d| d.rule == Rule::CombinationalCycle).expect("reported above");
    // The message walks the whole loop, naming every member.
    assert!(cycle.message.contains("`u1`"), "{}", cycle.message);
    assert!(cycle.message.contains("`u2`"), "{}", cycle.message);
    assert!(cycle.message.contains("->"), "{}", cycle.message);
}

#[test]
fn l020_l021_pwl_rules() {
    let diags = lint_pwl(&Pwl::from_points_unchecked(vec![(0.0, 0.0), (1.0, f64::NAN)]));
    assert!(diags.has(Rule::PwlNonFinite), "{}", diags.render_text());

    let diags = lint_pwl(&Pwl::from_points_unchecked(vec![(0.0, 0.0), (0.0, 1.0)]));
    assert!(diags.has(Rule::PwlNonMonotone), "{}", diags.render_text());

    let diags = lint_pwl(&Pwl::new(vec![(0.0, 0.0), (1.0, 0.5)]).unwrap());
    assert!(diags.is_empty(), "{}", diags.render_text());
}

#[test]
fn l022_l024_timing_rules() {
    let circuit = valid();
    let good: Vec<NetTiming> =
        (0..circuit.num_nets()).map(|_| NetTiming::new(0.0, 10.0, 20.0)).collect();
    assert!(lint_timing(&circuit, &good).is_empty());

    let mut inverted = good.clone();
    inverted[0] = NetTiming::from_raw_unchecked(10.0, 0.0, 20.0);
    let diags = lint_timing(&circuit, &inverted);
    assert!(diags.has(Rule::WindowInverted), "{}", diags.render_text());

    let mut nonfinite = good.clone();
    nonfinite[1] = NetTiming::from_raw_unchecked(0.0, f64::INFINITY, 20.0);
    assert!(lint_timing(&circuit, &nonfinite).has(Rule::TimingNonFinite));

    let mut bad_slew = good;
    bad_slew[2] = NetTiming::from_raw_unchecked(0.0, 10.0, -1.0);
    assert!(lint_timing(&circuit, &bad_slew).has(Rule::TimingNonFinite));

    // A short table cannot be indexed by net id.
    assert!(lint_timing(&circuit, &[]).has(Rule::TimingNonFinite));
}

#[test]
fn l023_envelope_malformed() {
    // Negative values.
    let diags = lint_envelope(&Envelope::from_pwl_unchecked(
        Pwl::new(vec![(0.0, 0.0), (1.0, -0.5), (2.0, 0.0)]).unwrap(),
    ));
    assert!(diags.has(Rule::EnvelopeMalformed), "{}", diags.render_text());

    // Non-zero trailing tail.
    let diags = lint_envelope(&Envelope::from_pwl_unchecked(
        Pwl::new(vec![(0.0, 0.0), (1.0, 0.5)]).unwrap(),
    ));
    assert!(diags.has(Rule::EnvelopeMalformed), "{}", diags.render_text());

    let good = Envelope::from_pulse(&NoisePulse::symmetric(5.0, 0.3, 4.0));
    assert!(lint_envelope(&good).is_empty());
}

#[test]
fn l025_envelope_cache_stale() {
    let honest = Envelope::from_pulse(&NoisePulse::symmetric(5.0, 0.3, 4.0));
    assert!(lint_envelope(&honest).is_empty());

    // A lying peak: the dominance prefilter would wrongly reject pairs.
    let stale_peak = Envelope::with_cached_bounds_unchecked(
        honest.as_pwl().clone(),
        honest.peak() * 2.0,
        honest.peak_time(),
        honest.support_lo(),
    );
    let diags = lint_envelope(&stale_peak);
    assert!(diags.has(Rule::EnvelopeCacheStale), "{}", diags.render_text());

    // A lying support lower bound (the upper bound and the release time
    // are always derived from the curve).
    let stale_support = Envelope::with_cached_bounds_unchecked(
        honest.as_pwl().clone(),
        honest.peak(),
        honest.peak_time(),
        honest.support_lo() + 100.0,
    );
    let diags = lint_envelope(&stale_support);
    assert!(diags.has(Rule::EnvelopeCacheStale), "{}", diags.render_text());

    // Honest bounds rebuilt through the unchecked constructor stay clean.
    let copied = Envelope::with_cached_bounds_unchecked(
        honest.as_pwl().clone(),
        honest.peak(),
        honest.peak_time(),
        honest.support_lo(),
    );
    assert!(lint_envelope(&copied).is_empty());
}

fn candidate(ids: &[u32], peak: f64, width: f64, dn: f64) -> Candidate {
    let set: CouplingSet = ids.iter().map(|&i| CouplingId::new(i)).collect();
    let env = Envelope::from_window(&NoisePulse::symmetric(0.0, peak, 4.0), 0.0, width);
    Candidate::new(set, env, dn)
}

#[test]
fn l030_dominated_candidate() {
    let iv = TimeInterval::new(-5.0, 40.0);
    // Ranked best-first, and the first envelope encapsulates the second.
    let list = vec![candidate(&[1], 0.4, 10.0, 3.0), candidate(&[2], 0.2, 5.0, 1.0)];
    let diags = lint_ilist(&list, iv, DominanceDirection::BiggerIsBetter, None);
    assert!(diags.has(Rule::DominatedCandidate), "{}", diags.render_text());

    // Disjoint supports: mutually non-dominated, clean.
    let a = Candidate::new(
        CouplingSet::singleton(CouplingId::new(1)),
        Envelope::from_pulse(&NoisePulse::symmetric(0.0, 0.3, 4.0)),
        1.0,
    );
    let b = Candidate::new(
        CouplingSet::singleton(CouplingId::new(2)),
        Envelope::from_pulse(&NoisePulse::symmetric(20.0, 0.3, 4.0)),
        1.0,
    );
    let diags = lint_ilist(&[a, b], iv, DominanceDirection::BiggerIsBetter, None);
    assert!(diags.is_empty(), "{}", diags.render_text());
}

#[test]
fn l031_duplicate_candidate_set() {
    let iv = TimeInterval::new(-5.0, 40.0);
    let list = vec![candidate(&[1, 2], 0.3, 6.0, 2.0), candidate(&[2, 1], 0.3, 6.0, 2.0)];
    let diags = lint_ilist(&list, iv, DominanceDirection::BiggerIsBetter, None);
    assert!(diags.has(Rule::DuplicateCandidateSet), "{}", diags.render_text());
}

#[test]
fn l032_over_capacity() {
    let iv = TimeInterval::new(-5.0, 200.0);
    let list: Vec<Candidate> = (0..3)
        .map(|i| {
            Candidate::new(
                CouplingSet::singleton(CouplingId::new(i)),
                Envelope::from_pulse(&NoisePulse::symmetric(f64::from(i) * 50.0, 0.3, 4.0)),
                f64::from(i),
            )
        })
        .collect();
    let diags = lint_ilist(&list, iv, DominanceDirection::BiggerIsBetter, Some(2));
    assert!(diags.has(Rule::OverCapacity), "{}", diags.render_text());
    assert!(
        !lint_ilist(&list, iv, DominanceDirection::BiggerIsBetter, Some(3)).has(Rule::OverCapacity)
    );
}

#[test]
fn l033_bad_delay_noise() {
    let iv = TimeInterval::new(-5.0, 40.0);
    let c = candidate(&[1], 0.3, 6.0, 1.0);
    let c = Candidate::from_raw_unchecked(c.set().clone(), c.envelope().clone(), f64::NAN);
    let diags = lint_ilist(&[c], iv, DominanceDirection::BiggerIsBetter, None);
    assert!(diags.has(Rule::BadDelayNoise), "{}", diags.render_text());
}

#[test]
fn l035_session_cache_incoherent() {
    // valid(): coupling 0 joins m (u1's output, loading u2 -> y) and t.
    let circuit = valid();
    let flipped = CouplingId::new(0);
    let before = CouplingMask::all(&circuit);
    let after = before.clone().without(&[flipped]);
    let c = circuit.coupling(flipped);
    let seeds = [c.a(), c.b()];

    // The engine's own closure of the flipped endpoints is sound.
    let dirty = circuit.dirty_closure(&seeds);
    let diags = lint_dirty_closure(&circuit, &before, &after, &dirty);
    assert!(diags.is_empty(), "{}", diags.render_text());

    // Over-approximation is fine: everything dirty is still coherent.
    let all = vec![true; circuit.num_nets()];
    assert!(lint_dirty_closure(&circuit, &before, &after, &all).is_empty());

    // A truncated vector cannot cover the circuit.
    let diags = lint_dirty_closure(&circuit, &before, &after, &dirty[..2]);
    assert!(diags.has(Rule::SessionCacheIncoherent), "{}", diags.render_text());

    // An all-clean vector misses the flipped coupling's endpoints.
    let none = vec![false; circuit.num_nets()];
    let diags = lint_dirty_closure(&circuit, &before, &after, &none);
    assert!(diags.has(Rule::SessionCacheIncoherent), "{}", diags.render_text());

    // Seeds without their fanout: m is dirty but u2's output y is not.
    let mut seeds_only = vec![false; circuit.num_nets()];
    for s in seeds {
        seeds_only[s.index()] = true;
    }
    let diags = lint_dirty_closure(&circuit, &before, &after, &seeds_only);
    assert!(diags.has(Rule::SessionCacheIncoherent), "{}", diags.render_text());

    // No delta, no dirt: a clean vector is coherent when masks agree.
    assert!(lint_dirty_closure(&circuit, &before, &before, &none).is_empty());
}

/// Under semantic damping, `dirty ∪ proven-clean` must still be a sound
/// structural closure: a proven-clean victim that is dropped from the
/// account is served stale with no proof.
#[test]
fn l035_damped_closure_counts_proven_clean_victims() {
    let circuit = generate(&GeneratorConfig::new(30, 40).with_seed(3)).expect("generator succeeds");
    let config = TopKConfig { validate: false, ..TopKConfig::default() };
    let engine = TopKAnalysis::new(&circuit, config);
    let mut session = WhatIfSession::start(&engine, Mode::Elimination, 2).unwrap();
    let before = session.mask().clone();
    let outcome = session.apply(&MaskDelta::remove(&[CouplingId::new(0)])).unwrap();
    let after = session.mask().clone();
    assert_eq!(outcome.proven_clean().len(), outcome.proven_clean_victims());

    let mut covered = outcome.dirty_flags().to_vec();
    for v in outcome.proven_clean() {
        covered[v.index()] = true;
    }
    let diags = lint_dirty_closure(&circuit, &before, &after, &covered);
    assert!(diags.is_empty(), "{}", diags.render_text());

    if let Some(first) = outcome.proven_clean().first() {
        covered[first.index()] = false;
        let diags = lint_dirty_closure(&circuit, &before, &after, &covered);
        assert!(diags.has(Rule::SessionCacheIncoherent), "{}", diags.render_text());
    }
}

#[test]
fn l042_bad_config() {
    assert!(lint_config(&TopKConfig::default()).is_empty());

    let mut c = TopKConfig::default();
    c.noise.tolerance = -1.0;
    assert!(lint_config(&c).has(Rule::BadConfig));

    let mut c = TopKConfig::default();
    c.noise.max_iterations = 0;
    assert!(lint_config(&c).has(Rule::BadConfig));

    let c = TopKConfig { max_list_width: Some(0), ..TopKConfig::default() };
    assert!(lint_config(&c).has(Rule::BadConfig));

    let c = TopKConfig { validation_pool: 0, ..TopKConfig::default() };
    assert!(lint_config(&c).has(Rule::BadConfig));
}

#[test]
fn l040_l041_library_and_capacitance() {
    let diags = lint_corrupted(|p| {
        p.nets[0].wire_cap = -3.0;
        p.couplings[0].cap = f64::NAN;
    });
    assert!(diags.has(Rule::BadCapacitance), "{}", diags.render_text());
    assert_eq!(
        diags.iter().filter(|d| d.rule == Rule::BadCapacitance).count(),
        2,
        "{}",
        diags.render_text()
    );
    // L040 needs a corrupted library; Cell fields are public, so build one.
    let mut cells: Vec<_> = Library::cmos013().cells().cloned().collect();
    cells[0].drive_resistance = 0.0;
    let mut parts = valid().into_parts();
    parts.library = Library::new("broken", cells);
    let diags = lint_circuit(&dna_netlist::Circuit::from_parts_unchecked(parts));
    assert!(diags.has(Rule::CellNotMonotone), "{}", diags.render_text());
}
