//! The retired enumeration counter slots and the scratch arena.
//!
//! `SweepStats::{bound_culled, materialized}` are retired slots: no
//! candidate is culled on a bound, and envelopes are built only for the
//! candidates that survive ranking, so neither field measures anything.
//! They stay pinned to `0` and `generated` because readers derive the
//! generated count from their sum and the session artifact stores both.
//! The arena recycles the survivors' envelope buffers across rounds.

use dna_netlist::suite;
use dna_topk::{TopKAnalysis, TopKConfig};

#[test]
fn retired_counter_slots_hold_zero_and_generated_and_arena_buffers_reused() {
    let circuit = suite::benchmark("i1", 42).unwrap();
    let engine = TopKAnalysis::new(&circuit, TopKConfig { threads: 1, ..TopKConfig::default() });
    let result = engine.addition_set(4).unwrap();
    let stats = result.sweep_stats();
    assert_eq!(stats.bound_culled, 0, "the retired cull slot is pinned to 0");
    assert_eq!(
        stats.materialized,
        result.generated_candidates(),
        "the retired materialized slot is pinned to the generated count"
    );
    // Past warm-up, survivors' envelopes are written into reused
    // allocations instead of fresh ones.
    assert!(result.scheduler_stats().arena_reused() > 0, "arena never reused a buffer");
}
