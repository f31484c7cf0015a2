//! Cross-crate property tests on randomly generated circuits.

use proptest::prelude::*;
use topk_aggressors::netlist::generator::{generate, GeneratorConfig};
use topk_aggressors::netlist::{format, CouplingId};
use topk_aggressors::noise::{CouplingMask, NoiseAnalysis, NoiseConfig};
use topk_aggressors::sta::{LinearDelayModel, StaConfig, TimingReport};
use topk_aggressors::topk::{TopKAnalysis, TopKConfig};

fn tiny_circuit() -> impl Strategy<Value = topk_aggressors::netlist::Circuit> {
    (0u64..200, 6usize..20, 4usize..16).prop_map(|(seed, gates, couplings)| {
        generate(&GeneratorConfig::new(gates, couplings).with_seed(seed))
            .expect("generator succeeds")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Enabling more couplings never speeds the circuit up.
    #[test]
    fn coupling_monotonicity(circuit in tiny_circuit(), split in 0.0f64..1.0) {
        let engine = NoiseAnalysis::new(&circuit, NoiseConfig::default());
        let cut = (circuit.num_couplings() as f64 * split) as u32;
        let subset: Vec<CouplingId> = (0..cut).map(CouplingId::new).collect();
        let small = engine
            .run_with_mask(&CouplingMask::none(&circuit).with(&subset))
            .unwrap()
            .circuit_delay();
        let full = engine.run().unwrap().circuit_delay();
        prop_assert!(full + 1e-9 >= small,
            "full set {full} faster than subset {small}");
    }

    /// Noise analysis converges and never reports negative noise.
    #[test]
    fn noise_analysis_well_formed(circuit in tiny_circuit()) {
        let report = NoiseAnalysis::new(&circuit, NoiseConfig::default()).run().unwrap();
        prop_assert!(report.converged());
        prop_assert!(report.noise().iter().all(|&n| n >= 0.0 && n.is_finite()));
        prop_assert!(report.circuit_delay() >= report.noiseless_delay() - 1e-9);
    }

    /// Windows always contain their noiseless counterpart: EAT unchanged,
    /// LAT only grows.
    #[test]
    fn windows_only_widen(circuit in tiny_circuit()) {
        let clean = TimingReport::run(
            &circuit, &LinearDelayModel::new(), &StaConfig::default()).unwrap();
        let noisy = NoiseAnalysis::new(&circuit, NoiseConfig::default()).run().unwrap();
        for net in circuit.net_ids() {
            let c = clean.timing(net);
            let n = noisy.noisy_timing().timing(net);
            prop_assert!((n.eat() - c.eat()).abs() < 1e-9);
            prop_assert!(n.lat() + 1e-9 >= c.lat());
        }
    }

    /// Top-k results are internally consistent: the reported delays can be
    /// reproduced with the reported coupling set.
    #[test]
    fn topk_results_reproducible(circuit in tiny_circuit(), k in 1usize..4) {
        let engine = TopKAnalysis::new(&circuit, TopKConfig::default());
        let noise = NoiseAnalysis::new(&circuit, NoiseConfig::default());

        let add = engine.addition_set(k).unwrap();
        let m = CouplingMask::none(&circuit).with(add.couplings());
        let measured = noise.run_with_mask(&m).unwrap().circuit_delay();
        prop_assert!((measured - add.delay_after()).abs() < 1e-9);
        prop_assert!(add.delay_after() + 1e-9 >= add.delay_before());

        let del = engine.elimination_set(k).unwrap();
        let m = CouplingMask::all(&circuit).without(del.couplings());
        let measured = noise.run_with_mask(&m).unwrap().circuit_delay();
        prop_assert!((measured - del.delay_after()).abs() < 1e-9);
        prop_assert!(del.delay_after() <= del.delay_before() + 1e-9);
    }

    /// The text format round-trips every generated circuit.
    #[test]
    fn format_round_trip(circuit in tiny_circuit()) {
        let text = format::write(&circuit);
        let back = format::parse(&text).unwrap();
        prop_assert_eq!(back.num_gates(), circuit.num_gates());
        prop_assert_eq!(back.num_nets(), circuit.num_nets());
        prop_assert_eq!(back.num_couplings(), circuit.num_couplings());
        // Same noiseless timing after the round trip.
        let a = TimingReport::run(
            &circuit, &LinearDelayModel::new(), &StaConfig::default()).unwrap();
        let b = TimingReport::run(
            &back, &LinearDelayModel::new(), &StaConfig::default()).unwrap();
        prop_assert!((a.circuit_delay() - b.circuit_delay()).abs() < 1e-9);
    }
}
