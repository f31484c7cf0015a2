//! Top-k engine errors.

use std::error::Error;
use std::fmt;

use dna_sta::StaError;

use crate::result::FaultPhase;

/// Error produced by the top-k analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum TopKError {
    /// `k == 0` was requested; an empty aggressor set is trivially the
    /// answer and almost certainly a caller bug.
    ZeroK,
    /// A candidate was constructed with a delay noise that is not a
    /// finite, non-negative number (typically the result of a degenerate
    /// envelope — e.g. a `0.0 / 0.0` somewhere in the crossing search).
    NonFiniteDelayNoise {
        /// The offending cached delay noise.
        delay_noise: f64,
    },
    /// The circuit carries a value the analysis substrate cannot process
    /// soundly — e.g. a NaN or infinite coupling capacitance smuggled in
    /// through an `*_unchecked` constructor. Caught by an up-front scan so
    /// the poison never reaches timing arithmetic.
    CorruptCircuit {
        /// What exactly is corrupt.
        what: String,
    },
    /// A panic escaped a phase of the engine that cannot be isolated to a
    /// single victim (timing preparation, sink selection, or the sweep
    /// harness itself). The panic was contained at the phase boundary and
    /// converted into this error; no partial result is produced.
    EnginePanic {
        /// The engine phase the panic was caught in.
        phase: FaultPhase,
        /// The panic payload, when it carried a message.
        cause: String,
    },
    /// An internal invariant did not hold — a bug guard surfacing as a
    /// typed error instead of a panic.
    Internal {
        /// The violated invariant.
        what: String,
    },
    /// A scheduler sweep invariant did not hold for one victim's
    /// result or fanin slot — a dependency edge was missing or a task's
    /// result was never published. In a long-lived process this must
    /// quarantine the affected victim (a `Degraded` result) instead of
    /// aborting; [`Oracle::check_parallel`](crate::Oracle::check_parallel)
    /// remains the loud path that pinpoints the divergence.
    SchedulerInvariant {
        /// Net index of the victim whose slot was missing.
        victim: usize,
        /// Which invariant broke.
        detail: String,
    },
    /// A serialized session artifact failed validation (see
    /// [`ArtifactError`]).
    Artifact(ArtifactError),
    /// The underlying timing/noise analysis failed.
    Sta(StaError),
}

impl fmt::Display for TopKError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopKError::ZeroK => write!(f, "k must be at least 1"),
            TopKError::NonFiniteDelayNoise { delay_noise } => {
                write!(f, "candidate delay noise {delay_noise} is not finite and non-negative")
            }
            TopKError::CorruptCircuit { what } => write!(f, "corrupt circuit: {what}"),
            TopKError::EnginePanic { phase, cause } => {
                write!(f, "panic during {phase}: {cause}")
            }
            TopKError::Internal { what } => write!(f, "internal invariant violated: {what}"),
            TopKError::SchedulerInvariant { victim, detail } => {
                write!(f, "scheduler invariant violated at victim {victim}: {detail}")
            }
            TopKError::Artifact(e) => write!(f, "session artifact rejected: {e}"),
            TopKError::Sta(e) => write!(f, "timing analysis failed: {e}"),
        }
    }
}

impl Error for TopKError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TopKError::ZeroK
            | TopKError::NonFiniteDelayNoise { .. }
            | TopKError::CorruptCircuit { .. }
            | TopKError::EnginePanic { .. }
            | TopKError::Internal { .. }
            | TopKError::SchedulerInvariant { .. } => None,
            TopKError::Artifact(e) => Some(e),
            TopKError::Sta(e) => Some(e),
        }
    }
}

impl From<StaError> for TopKError {
    fn from(e: StaError) -> Self {
        TopKError::Sta(e)
    }
}

impl From<ArtifactError> for TopKError {
    fn from(e: ArtifactError) -> Self {
        TopKError::Artifact(e)
    }
}

/// Why a serialized [`WhatIfSession`](crate::WhatIfSession) artifact was
/// rejected.
///
/// Every variant is a *detected* corruption or mismatch: the loader never
/// trusts an artifact it cannot fully validate, and callers are expected to
/// fall back to a from-scratch analysis (the CLI does so automatically).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactError {
    /// The leading magic bytes are wrong — not a session artifact at all.
    BadMagic,
    /// The artifact was written by an incompatible format version.
    UnsupportedVersion {
        /// Version found in the artifact header.
        found: u32,
        /// Version this build reads and writes.
        supported: u32,
    },
    /// The byte stream ends before the declared payload does.
    Truncated {
        /// Bytes the header promised.
        needed: usize,
        /// Bytes actually present.
        have: usize,
    },
    /// The payload does not hash to the stored CRC-32 — bit rot, a partial
    /// write, or tampering.
    ChecksumMismatch {
        /// Checksum stored in the header.
        stored: u32,
        /// Checksum computed over the payload.
        computed: u32,
    },
    /// The artifact was saved against a different circuit.
    CircuitMismatch {
        /// Which fingerprint component disagreed.
        what: String,
    },
    /// The artifact was saved under a different engine configuration, so
    /// its cached lists are not the lists this engine would compute.
    ConfigMismatch,
    /// The payload decoded to semantically invalid data (despite a valid
    /// checksum) — e.g. a coupling id beyond the circuit, or a malformed
    /// envelope curve.
    Malformed {
        /// What failed to decode.
        what: String,
    },
    /// A generation-chain invariant broke at a specific record: a link
    /// hash that does not match the predecessor, a non-contiguous
    /// generation number, or a delta whose replayed mask digest disagrees
    /// with the recorded one. Unlike [`Malformed`](Self::Malformed), the
    /// record itself passed its checksum — the *chain* is inconsistent,
    /// which points at splicing or a misdirected append.
    ChainBroken {
        /// Generation of the record where the chain broke.
        generation: u64,
        /// Which chain invariant failed.
        what: String,
    },
    /// A filesystem operation of the chain commit protocol failed —
    /// open/write/fsync/rename, not a validation failure. The session's
    /// in-memory state (including its pending deltas) is intact; the
    /// commit can be retried.
    Io {
        /// The failed operation and the OS error.
        what: String,
    },
    /// `--history GEN` (or a replay API) asked for a generation the chain
    /// does not hold: past the tip, or below the base checkpoint (history
    /// before the base is discarded by compaction).
    GenerationUnavailable {
        /// The generation that was requested.
        requested: u64,
        /// First generation the chain can reproduce.
        base: u64,
        /// Last (newest) generation in the chain.
        tip: u64,
    },
}

impl ArtifactError {
    /// Coarse operator-facing classification of the rejection: a stale
    /// cache (`version skew`, `fingerprint mismatch`) warrants a rebuild
    /// of the artifact, a `corrupt` or `truncated` one points at storage
    /// problems. Surfaced verbatim by `dna whatif --load` and by the
    /// serve daemon's spill-reload responses.
    #[must_use]
    pub fn class(&self) -> &'static str {
        match self {
            ArtifactError::BadMagic | ArtifactError::ChecksumMismatch { .. } => "corrupt",
            ArtifactError::Malformed { .. } => "corrupt (decodes invalid)",
            ArtifactError::Truncated { .. } => "truncated",
            ArtifactError::UnsupportedVersion { .. } => "version skew",
            ArtifactError::CircuitMismatch { .. } | ArtifactError::ConfigMismatch => {
                "fingerprint mismatch"
            }
            ArtifactError::ChainBroken { .. } => "chain broken",
            ArtifactError::Io { .. } => "io",
            ArtifactError::GenerationUnavailable { .. } => "generation unavailable",
        }
    }
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::BadMagic => write!(f, "bad magic (not a what-if session artifact)"),
            ArtifactError::UnsupportedVersion { found, supported } => {
                write!(f, "unsupported artifact version {found} (this build reads v{supported})")
            }
            ArtifactError::Truncated { needed, have } => {
                write!(f, "truncated artifact: need {needed} bytes, have {have}")
            }
            ArtifactError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: stored {stored:#010x}, computed {computed:#010x} (corrupt artifact)"
            ),
            ArtifactError::CircuitMismatch { what } => {
                write!(f, "artifact belongs to a different circuit ({what})")
            }
            ArtifactError::ConfigMismatch => {
                write!(f, "artifact was saved under a different engine configuration")
            }
            ArtifactError::Malformed { what } => write!(f, "malformed payload: {what}"),
            ArtifactError::ChainBroken { generation, what } => {
                write!(f, "generation chain broken at generation {generation}: {what}")
            }
            ArtifactError::Io { what } => write!(f, "chain i/o failed: {what}"),
            ArtifactError::GenerationUnavailable { requested, base, tip } => write!(
                f,
                "generation {requested} is not in the chain (holds {base}..={tip}; \
                 history below the base was compacted away)"
            ),
        }
    }
}

impl Error for ArtifactError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        assert!(TopKError::ZeroK.to_string().contains("k"));
        let wrapped = TopKError::from(StaError::NoOutputs);
        assert!(wrapped.to_string().contains("timing"));
        assert!(wrapped.source().is_some());
    }

    #[test]
    fn artifact_errors_name_the_corruption() {
        let e = TopKError::from(ArtifactError::ChecksumMismatch { stored: 1, computed: 2 });
        assert!(e.to_string().contains("checksum mismatch"));
        assert!(e.source().is_some());
        assert!(ArtifactError::BadMagic.to_string().contains("magic"));
        assert!(ArtifactError::Truncated { needed: 10, have: 3 }.to_string().contains("10"));
        assert!(ArtifactError::UnsupportedVersion { found: 9, supported: 1 }
            .to_string()
            .contains("v1"));
    }

    #[test]
    fn artifact_classes_separate_stale_from_corrupt() {
        assert_eq!(ArtifactError::BadMagic.class(), "corrupt");
        assert_eq!(ArtifactError::ChecksumMismatch { stored: 1, computed: 2 }.class(), "corrupt");
        assert_eq!(ArtifactError::Truncated { needed: 10, have: 3 }.class(), "truncated");
        assert_eq!(
            ArtifactError::UnsupportedVersion { found: 9, supported: 1 }.class(),
            "version skew"
        );
        assert_eq!(
            ArtifactError::CircuitMismatch { what: "nets".into() }.class(),
            "fingerprint mismatch"
        );
        assert_eq!(ArtifactError::ConfigMismatch.class(), "fingerprint mismatch");
    }

    #[test]
    fn scheduler_invariant_names_the_victim() {
        let e = TopKError::SchedulerInvariant { victim: 7, detail: "slot hole".into() };
        assert!(e.to_string().contains("victim 7"));
        assert!(e.to_string().contains("slot hole"));
        assert!(e.source().is_none());
    }

    #[test]
    fn engine_panic_names_the_phase() {
        let e = TopKError::EnginePanic { phase: FaultPhase::Prepare, cause: "boom".into() };
        assert!(e.to_string().contains("prepare"));
        assert!(e.to_string().contains("boom"));
    }
}
