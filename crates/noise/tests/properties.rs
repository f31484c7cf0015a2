//! Property tests for the noise-analysis substrate, centred on the
//! envelope abstraction's bounding guarantees.

use dna_netlist::generator::{generate, GeneratorConfig};
use dna_netlist::Circuit;
use dna_noise::alignment::worst_alignment;
use dna_noise::{
    ChargeSharingModel, CouplingContext, CouplingMask, CouplingModel, NoiseAnalysis, NoiseConfig,
    StartAssumption,
};
use dna_waveform::{superposition, Edge, Envelope, TimeInterval, Transition};
use proptest::prelude::*;

fn circuit_strategy() -> impl Strategy<Value = Circuit> {
    (0u64..300, 6usize..25, 3usize..20).prop_map(|(seed, gates, couplings)| {
        generate(&GeneratorConfig::new(gates, couplings).with_seed(seed))
            .expect("generator succeeds")
    })
}

/// Circuits large enough for the fixpoint to take several iterations.
fn iterating_circuit_strategy() -> impl Strategy<Value = Circuit> {
    (0u64..300, 20usize..50, 30usize..120).prop_map(|(seed, gates, couplings)| {
        generate(&GeneratorConfig::new(gates, couplings).with_seed(seed))
            .expect("generator succeeds")
    })
}

fn context_strategy() -> impl Strategy<Value = CouplingContext> {
    (0.5f64..20.0, 1.0f64..40.0, 0.2f64..6.0, 2.0f64..80.0).prop_map(
        |(coupling_cap, victim_ground_cap, victim_resistance, aggressor_slew)| CouplingContext {
            coupling_cap,
            victim_ground_cap,
            victim_resistance,
            aggressor_slew,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The paper's central bounding claim (Fig. 2): the trapezoidal
    /// envelope's delay noise upper-bounds the worst single alignment of
    /// the pulse within the window.
    #[test]
    fn envelope_bounds_worst_alignment(
        ctx in context_strategy(),
        victim_slew in 4.0f64..40.0,
        window_lo in -50.0f64..50.0,
        window_width in 0.0f64..60.0,
    ) {
        let model = ChargeSharingModel::new();
        let pulse = model.noise_pulse(&ctx);
        let victim = Transition::new(0.0, victim_slew, Edge::Rising);
        let window = TimeInterval::new(window_lo, window_lo + window_width);
        let envelope = Envelope::from_window(&pulse, window.lo(), window.hi());
        let env_noise = superposition::delay_noise(&victim, &envelope);
        let best = worst_alignment(&victim, &pulse, window);
        prop_assert!(
            env_noise + 1e-6 >= best.delay_noise,
            "envelope {} < worst alignment {}",
            env_noise,
            best.delay_noise
        );
    }

    /// Coupling model sanity: pulses are physical (peak in (0, 1),
    /// positive width) for any plausible context.
    #[test]
    fn pulses_are_physical(ctx in context_strategy()) {
        let pulse = ChargeSharingModel::new().noise_pulse(&ctx);
        prop_assert!(pulse.peak() > 0.0 && pulse.peak() <= 0.95);
        prop_assert!(pulse.width() > 0.0);
        prop_assert!(pulse.start() <= pulse.peak_time());
        prop_assert!(pulse.peak_time() <= pulse.end());
    }

    /// Masking any single coupling never increases the circuit delay.
    #[test]
    fn removing_a_coupling_never_hurts(circuit in circuit_strategy(), pick in 0usize..64) {
        if circuit.num_couplings() == 0 {
            return Ok(());
        }
        let engine = NoiseAnalysis::new(&circuit, NoiseConfig::default());
        let full = engine.run().unwrap().circuit_delay();
        let id = dna_netlist::CouplingId::new((pick % circuit.num_couplings()) as u32);
        let masked = engine
            .run_with_mask(&CouplingMask::all(&circuit).without(&[id]))
            .unwrap()
            .circuit_delay();
        prop_assert!(masked <= full + 1e-9, "removing {id} increased {full} -> {masked}");
    }

    /// The upper bound from infinite windows dominates the converged noise
    /// at every net (paper §3.2's dominance-interval construction).
    #[test]
    fn infinite_window_bound_holds(circuit in circuit_strategy()) {
        let engine = NoiseAnalysis::new(&circuit, NoiseConfig::default());
        let mask = CouplingMask::all(&circuit);
        let report = engine.run().unwrap();
        for net in circuit.net_ids() {
            let ub = engine.delay_noise_upper_bound(
                net, report.noisy_timing().timings(), &mask);
            prop_assert!(
                ub + 1e-6 >= report.delay_noise(net),
                "net {net}: bound {ub} < converged {}",
                report.delay_noise(net)
            );
        }
    }

    /// Each delay `run_with_mask_until` reports is a lower bound of the
    /// ascending fixpoint: the bounds never decrease, the finished run's
    /// delay is at or above all of them, one is reported after every
    /// iteration but the last, and a run never told to stop is exactly
    /// `run_with_mask`. A descending run reports nothing.
    #[test]
    fn iterate_delays_bound_the_final_delay(
        circuit in iterating_circuit_strategy(),
        enabled in prop::collection::vec(prop::bool::ANY, 1..8),
    ) {
        let off: Vec<_> =
            circuit.coupling_ids().filter(|id| !enabled[id.index() % enabled.len()]).collect();
        let mask = CouplingMask::all(&circuit).without(&off);
        let engine = NoiseAnalysis::new(&circuit, NoiseConfig::default());
        let mut bounds = Vec::new();
        let report = engine
            .run_with_mask_until(&mask, |bound| {
                bounds.push(bound);
                false
            })
            .unwrap()
            .expect("a run never told to stop finishes");
        prop_assert!(bounds.windows(2).all(|w| w[0] <= w[1]), "bounds decreased: {bounds:?}");
        let last = report.circuit_delay();
        prop_assert!(bounds.iter().all(|&b| b <= last), "bound above final {last}: {bounds:?}");
        prop_assert_eq!(bounds.len(), report.iterations().saturating_sub(1));
        let plain = engine.run_with_mask(&mask).unwrap();
        prop_assert_eq!(format!("{report:?}"), format!("{plain:?}"));
        if !bounds.is_empty() {
            prop_assert!(engine.run_with_mask_until(&mask, |_| true).unwrap().is_none());
        }

        let descending = NoiseAnalysis::new(
            &circuit,
            NoiseConfig { start: StartAssumption::AllOverlap, ..NoiseConfig::default() },
        );
        let mut consulted = false;
        let finished = descending
            .run_with_mask_until(&mask, |_| {
                consulted = true;
                true
            })
            .unwrap();
        prop_assert!(!consulted, "a descending run consulted its stop predicate");
        prop_assert!(finished.is_some());
    }
}
