//! Static analyzer and invariant verifier for the delay-noise toolkit,
//! modeled on a compiler's IR verifier.
//!
//! The other crates of this workspace maintain their invariants through
//! validated constructors: [`CircuitBuilder`](dna_netlist::CircuitBuilder)
//! rejects cycles and dangling references, [`Pwl::new`](dna_waveform::Pwl::new)
//! rejects non-finite and non-monotone breakpoints, and so on. This crate is
//! the second line of defense — it *re-derives* those invariants from the
//! data, so that corruption introduced by raw-parts escape hatches, future
//! deserializers, or plain bugs in IR-producing code is caught and named
//! instead of silently producing wrong analysis results.
//!
//! The design follows a compiler diagnostics pipeline:
//!
//! * every invariant is a [`Rule`] with a **stable code** (`L001`…) that
//!   scripts and corpora can match on, grouped by pass
//!   (`L00x` referential integrity, `L01x` topology, `L02x` waveforms,
//!   `L03x` engine state, `L04x` library/config, `L05x` semantic damping
//!   certificates, `L06x` scheduler determinism, `L07x` artifact chain
//!   integrity);
//! * every finding is a [`Diagnostic`] with a severity and a span-like
//!   [`Location`];
//! * passes report into a [`Diagnostics`] collector that renders as
//!   plain text or JSON.
//!
//! Entry points, one per artifact kind:
//!
//! * [`lint_circuit`] — referential integrity, topology, capacitance and
//!   library sanity of a [`Circuit`](dna_netlist::Circuit);
//! * [`lint_pwl`] / [`lint_envelope`] — waveform well-formedness;
//! * [`lint_timing`] — arrival windows and slews of a timing table;
//! * [`lint_ilist`] — pairwise non-dominance and capacity of a pruned
//!   candidate list (the paper's irredundant I-list);
//! * [`lint_result`] — a finished top-k answer against its circuit;
//! * [`lint_dirty_closure`] — a what-if session's dirty set against the
//!   mask delta it claims to cover;
//! * [`lint_dirty_closure_certified`] — a semantically damped dirty set
//!   plus its clean certificates against an independently re-derived
//!   prover verdict;
//! * [`lint_sched_replay`] — a work-stealing sweep's result slots and
//!   budget shares against their serial replay;
//! * [`lint_chain`] — a session artifact chain's record ordering, links
//!   and replayability (the crash-safe versioned store);
//! * [`lint_config`] — sanity ranges on analysis knobs.
//!
//! # Example
//!
//! ```
//! use dna_netlist::{CellKind, CircuitBuilder, Library};
//! use dna_lint::lint_circuit;
//!
//! let mut b = CircuitBuilder::new(Library::cmos013());
//! let a = b.input("a");
//! let y = b.gate(CellKind::Inv, "u1", &[a])?;
//! b.output(y);
//! let circuit = b.build()?;
//!
//! let diags = lint_circuit(&circuit);
//! assert!(diags.is_empty(), "{}", diags.render_text());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// Accepted `clippy::pedantic` baseline. The CI_FULL pedantic triage in
// `ci.sh` is non-gating; this allowlist keeps its output limited to new
// findings. Numeric casts between index/size types are pervasive and
// intentional here, exact float comparison is the point of the
// bit-identity contracts, and short or similar names mirror the paper's
// notation.
#![allow(
    clippy::cast_lossless,
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_precision_loss,
    clippy::cast_sign_loss,
    clippy::doc_markdown,
    clippy::float_cmp,
    clippy::items_after_statements,
    clippy::many_single_char_names,
    clippy::missing_panics_doc,
    clippy::similar_names,
    clippy::too_many_lines
)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chain;
mod circuit;
mod config;
mod diag;
mod engine;
mod rules;
mod waveform;

pub use chain::lint_chain;
pub use circuit::lint_circuit;
pub use config::lint_config;
pub use diag::{Diagnostic, Diagnostics, Location, Severity};
pub use engine::{
    lint_batch_order, lint_dirty_closure, lint_dirty_closure_certified, lint_ilist, lint_result,
    lint_sched_replay,
};
pub use rules::Rule;
pub use waveform::{lint_envelope, lint_pwl, lint_timing};
