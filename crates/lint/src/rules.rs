//! The rule catalog: every invariant the verifier checks, with a stable id.

use std::fmt;

use crate::Severity;

/// One lint rule.
///
/// Codes are **stable**: a rule keeps its `L0xx` code forever (new rules
/// take fresh codes, retired codes are never reused), so scripts and test
/// corpora can match on them. The hundreds digit groups rules by pass:
///
/// * `L00x` — referential integrity of the circuit IR,
/// * `L01x` — topology (orders, cycles),
/// * `L02x` — waveform well-formedness,
/// * `L03x` — engine invariants (irredundant lists, results),
/// * `L04x` — library / configuration sanity,
/// * `L06x` — reference identity (any fast configuration against the
///   serial from-scratch [`dna_topk::Oracle`]),
/// * `L07x` — artifact chain integrity (the crash-safe versioned
///   store's generation chain).
///
/// Retired codes are never reused: `L080` (lazy-enumeration admission)
/// left with bound-first culling; `L043` (batch order dependence) and
/// `L060` (scheduler slot mismatch) were folded into `L061`, since both
/// submission orders and every thread count must equal the reference;
/// `L050`–`L052` (clean-certificate checks) left with the certificates,
/// since `L061` audits every victim of a damped session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Rule {
    /// A gate input references a net id out of range.
    GateInputUnresolved,
    /// A gate output references a net id out of range.
    GateOutputUnresolved,
    /// A net claims a driver gate that does not exist.
    DanglingDriver,
    /// A net's driver gate does not actually drive that net.
    DriverOutputMismatch,
    /// Gate inputs and net load lists disagree (one side is missing).
    LoadListMismatch,
    /// A coupling endpoint is out of range, or both endpoints coincide.
    CouplingUnresolved,
    /// The per-net coupling index disagrees with the coupling list.
    CouplingIndexCorrupt,
    /// The primary-output list is corrupt (bad id, flag mismatch, empty).
    OutputListCorrupt,
    /// A gate-driven net has no loads and is not a primary output.
    FloatingNet,
    /// The cached gate order is not a permutation of all gates.
    TopoNotPermutation,
    /// The cached gate order lists a gate before one of its drivers.
    TopoOrderViolation,
    /// The cached net order is corrupt (not a permutation, or a net
    /// precedes its driver's inputs).
    NetTopoCorrupt,
    /// The gate graph contains a combinational cycle.
    CombinationalCycle,
    /// A piecewise-linear curve has no points or a non-finite coordinate.
    PwlNonFinite,
    /// A piecewise-linear curve's breakpoint times do not increase.
    PwlNonMonotone,
    /// A timing window has its bounds inverted (EAT after LAT).
    WindowInverted,
    /// A noise envelope violates its invariants (negative values or
    /// non-zero tails).
    EnvelopeMalformed,
    /// Timing data carries a non-finite bound or a non-positive slew.
    TimingNonFinite,
    /// An envelope's cached peak/support bounds disagree with its curve.
    EnvelopeCacheStale,
    /// An irredundant list contains a dominated candidate.
    DominatedCandidate,
    /// Two candidates in one list carry the same coupling set.
    DuplicateCandidateSet,
    /// A candidate list or result set exceeds its configured capacity.
    OverCapacity,
    /// A cached delay noise or result delay is non-finite or negative.
    BadDelayNoise,
    /// A result set contains a coupling declared a false aggressor.
    FalseAggressorInSet,
    /// A what-if session's dirty set is not a sound closure of its mask
    /// delta: a net the delta can affect would be served stale from the
    /// session cache.
    SessionCacheIncoherent,
    /// A library cell's linear model is not monotone in load.
    CellNotMonotone,
    /// A wire or coupling capacitance is negative or non-finite.
    BadCapacitance,
    /// An analysis configuration field is out of its sane range.
    BadConfig,
    /// A fast configuration diverges from the serial from-scratch
    /// reference ([`dna_topk::Oracle`]): a parallel sweep's result slot
    /// or budget share, an incremental or batch what-if result, or a
    /// session's cached per-victim state differs from what one worker
    /// computes from an empty cache.
    ReferenceDivergence,
    /// An artifact chain's records are out of order: the base is not a
    /// checkpoint, a checkpoint appears mid-chain, or generations are
    /// not contiguous.
    ChainOutOfOrder,
    /// A chain record is corrupt or unlinked: its framing CRC fails,
    /// its predecessor hash does not match the record before it, or a
    /// CRC-valid record is rejected by replay — splicing, bit rot or a
    /// misdirected append.
    ChainRecordCorrupt,
    /// A delta record's replayed mask does not hash to its recorded
    /// digest: the chain's history no longer reproduces the states it
    /// claims to have committed.
    ChainMaskDivergence,
    /// The chain ends mid-record — the torn tail of an append that was
    /// interrupted (`kill -9`, power loss). Recoverable by design:
    /// truncating to the committed prefix repairs the file, so this is
    /// a warning, not an error.
    ChainTornTail,
}

impl Rule {
    /// The stable diagnostic code.
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            Rule::GateInputUnresolved => "L001",
            Rule::GateOutputUnresolved => "L002",
            Rule::DanglingDriver => "L003",
            Rule::DriverOutputMismatch => "L004",
            Rule::LoadListMismatch => "L005",
            Rule::CouplingUnresolved => "L006",
            Rule::CouplingIndexCorrupt => "L007",
            Rule::OutputListCorrupt => "L008",
            Rule::FloatingNet => "L009",
            Rule::TopoNotPermutation => "L010",
            Rule::TopoOrderViolation => "L011",
            Rule::NetTopoCorrupt => "L012",
            Rule::CombinationalCycle => "L013",
            Rule::PwlNonFinite => "L020",
            Rule::PwlNonMonotone => "L021",
            Rule::WindowInverted => "L022",
            Rule::EnvelopeMalformed => "L023",
            Rule::TimingNonFinite => "L024",
            Rule::EnvelopeCacheStale => "L025",
            Rule::DominatedCandidate => "L030",
            Rule::DuplicateCandidateSet => "L031",
            Rule::OverCapacity => "L032",
            Rule::BadDelayNoise => "L033",
            Rule::FalseAggressorInSet => "L034",
            Rule::SessionCacheIncoherent => "L035",
            Rule::CellNotMonotone => "L040",
            Rule::BadCapacitance => "L041",
            Rule::BadConfig => "L042",
            Rule::ReferenceDivergence => "L061",
            Rule::ChainOutOfOrder => "L070",
            Rule::ChainRecordCorrupt => "L071",
            Rule::ChainMaskDivergence => "L072",
            Rule::ChainTornTail => "L073",
        }
    }

    /// Default severity of violations of this rule.
    #[must_use]
    pub fn severity(self) -> Severity {
        match self {
            Rule::FloatingNet | Rule::ChainTornTail => Severity::Warning,
            _ => Severity::Error,
        }
    }

    /// Short human-readable rule title.
    #[must_use]
    pub fn title(self) -> &'static str {
        match self {
            Rule::GateInputUnresolved => "gate input unresolved",
            Rule::GateOutputUnresolved => "gate output unresolved",
            Rule::DanglingDriver => "dangling driver",
            Rule::DriverOutputMismatch => "driver/output mismatch",
            Rule::LoadListMismatch => "load list mismatch",
            Rule::CouplingUnresolved => "coupling unresolved",
            Rule::CouplingIndexCorrupt => "coupling index corrupt",
            Rule::OutputListCorrupt => "output list corrupt",
            Rule::FloatingNet => "floating net",
            Rule::TopoNotPermutation => "topological order not a permutation",
            Rule::TopoOrderViolation => "topological order violation",
            Rule::NetTopoCorrupt => "net order corrupt",
            Rule::CombinationalCycle => "combinational cycle",
            Rule::PwlNonFinite => "non-finite curve",
            Rule::PwlNonMonotone => "non-monotone curve",
            Rule::WindowInverted => "inverted timing window",
            Rule::EnvelopeMalformed => "malformed envelope",
            Rule::TimingNonFinite => "non-finite timing",
            Rule::EnvelopeCacheStale => "stale envelope cache",
            Rule::DominatedCandidate => "dominated candidate",
            Rule::DuplicateCandidateSet => "duplicate candidate set",
            Rule::OverCapacity => "over capacity",
            Rule::BadDelayNoise => "bad delay noise",
            Rule::FalseAggressorInSet => "false aggressor in set",
            Rule::SessionCacheIncoherent => "session cache incoherent",
            Rule::CellNotMonotone => "cell model not monotone",
            Rule::BadCapacitance => "bad capacitance",
            Rule::BadConfig => "bad configuration",
            Rule::ReferenceDivergence => "diverges from reference",
            Rule::ChainOutOfOrder => "chain records out of order",
            Rule::ChainRecordCorrupt => "chain record corrupt or unlinked",
            Rule::ChainMaskDivergence => "chain mask digest divergence",
            Rule::ChainTornTail => "chain torn tail",
        }
    }

    /// Every rule, ordered by code.
    #[must_use]
    pub fn all() -> &'static [Rule] {
        &[
            Rule::GateInputUnresolved,
            Rule::GateOutputUnresolved,
            Rule::DanglingDriver,
            Rule::DriverOutputMismatch,
            Rule::LoadListMismatch,
            Rule::CouplingUnresolved,
            Rule::CouplingIndexCorrupt,
            Rule::OutputListCorrupt,
            Rule::FloatingNet,
            Rule::TopoNotPermutation,
            Rule::TopoOrderViolation,
            Rule::NetTopoCorrupt,
            Rule::CombinationalCycle,
            Rule::PwlNonFinite,
            Rule::PwlNonMonotone,
            Rule::WindowInverted,
            Rule::EnvelopeMalformed,
            Rule::TimingNonFinite,
            Rule::EnvelopeCacheStale,
            Rule::DominatedCandidate,
            Rule::DuplicateCandidateSet,
            Rule::OverCapacity,
            Rule::BadDelayNoise,
            Rule::FalseAggressorInSet,
            Rule::SessionCacheIncoherent,
            Rule::CellNotMonotone,
            Rule::BadCapacitance,
            Rule::BadConfig,
            Rule::ReferenceDivergence,
            Rule::ChainOutOfOrder,
            Rule::ChainRecordCorrupt,
            Rule::ChainMaskDivergence,
            Rule::ChainTornTail,
        ]
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.code(), self.title())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_sorted() {
        let codes: Vec<&str> = Rule::all().iter().map(|r| r.code()).collect();
        let mut sorted = codes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(codes, sorted, "codes must be unique and listed in order");
    }

    #[test]
    fn display_mentions_code_and_title() {
        let s = Rule::CombinationalCycle.to_string();
        assert!(s.contains("L013"));
        assert!(s.contains("cycle"));
    }
}
