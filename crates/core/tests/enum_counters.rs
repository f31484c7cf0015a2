//! Enumeration counters and the scratch arena: every generated candidate
//! is materialized (dominance is the only pruning rule), and the arena
//! recycles envelope buffers across candidates.

use dna_netlist::suite;
use dna_topk::{TopKAnalysis, TopKConfig};

#[test]
fn every_candidate_is_materialized_and_arena_buffers_reused() {
    let circuit = suite::benchmark("i1", 42).unwrap();
    let engine = TopKAnalysis::new(&circuit, TopKConfig { threads: 1, ..TopKConfig::default() });
    let result = engine.addition_set(4).unwrap();
    let stats = result.sweep_stats();
    assert_eq!(stats.bound_culled, 0, "no candidate is admitted on a bound alone");
    assert_eq!(
        stats.materialized,
        result.generated_candidates(),
        "every generated candidate is materialized"
    );
    // Past warm-up, sum kernels write into reused allocations instead of
    // fresh ones.
    assert!(result.scheduler_stats().arena_reused() > 0, "arena never reused a buffer");
}
