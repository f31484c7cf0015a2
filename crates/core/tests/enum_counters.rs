//! The retired enumeration and scheduler counter slots.
//!
//! `SweepStats::{bound_culled, materialized}` are retired slots: no
//! candidate is culled on a bound, and envelopes are built only for the
//! candidates that survive ranking, so neither field measures anything.
//! They stay pinned to `0` and `generated` because readers derive the
//! generated count from their sum and the session artifact stores both.
//! `SchedStats::arena_bytes_reused` is retired too: materialized
//! envelopes are plain allocations, with no scratch arena to recycle
//! them, so it reads 0.

use dna_netlist::suite;
use dna_topk::{TopKAnalysis, TopKConfig};

#[test]
fn retired_counter_slots_hold_their_pinned_values() {
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
    let arena_bytes = result.scheduler_stats().arena_bytes_reused();
    assert_eq!(arena_bytes, 0, "the retired arena slot is pinned to 0");
}
