//! A minimal property-testing harness with a `proptest`-compatible API
//! subset.
//!
//! The workspace builds fully offline, so the real [`proptest`] crate is
//! unavailable. This crate reimplements exactly the surface the
//! workspace's property tests use — the [`proptest!`] macro (including
//! `#![proptest_config(..)]`), range and tuple [`Strategy`]s,
//! [`Strategy::prop_map`], `prop::collection::vec`, `prop::bool::ANY`,
//! [`prop_assert!`], [`prop_assert_eq!`] and [`prop_assume!`] — and is
//! wired in through Cargo dependency renaming
//! (`proptest = { package = "dna-proptest", … }`).
//!
//! Differences from the real crate, by design:
//!
//! * cases are generated from a **fixed deterministic seed** (reproducible
//!   failures, no `PROPTEST_CASES` env handling),
//! * **no shrinking** — the failing case's seed and inputs are reported
//!   as-is,
//! * only the strategies listed above exist.
//!
//! [`proptest`]: https://crates.io/crates/proptest

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

use std::fmt;
use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-test configuration (mirror of `proptest::test_runner::Config`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Configuration running `cases` random cases.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

/// Why a single generated case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// `prop_assume!` rejected the inputs; the case is skipped.
    Reject,
    /// An assertion failed with the given message.
    Fail(String),
}

/// Result type the bodies of [`proptest!`] tests evaluate to.
pub type TestCaseResult = Result<(), TestCaseError>;

/// A recipe for generating random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// A strategy applying `f` to every generated value.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, U, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;

    fn generate(&self, rng: &mut StdRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// A strategy always yielding clones of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

macro_rules! range_strategy {
    ($($ty:ty),*) => {$(
        impl Strategy for Range<$ty> {
            type Value = $ty;
            fn generate(&self, rng: &mut StdRng) -> $ty {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

range_strategy!(f64, u64, u32, usize, i64, i32);

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

tuple_strategy!(A);
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);
tuple_strategy!(A, B, C, D, E, G);

/// Built-in strategy namespaces (mirror of the `proptest::prop` aliases).
pub mod prop {
    /// Boolean strategies.
    pub mod bool {
        use super::super::Strategy;
        use rand::{rngs::StdRng, Rng};

        /// Strategy for an unbiased random boolean.
        #[derive(Debug, Clone, Copy)]
        pub struct Any;

        /// Uniformly random booleans.
        pub const ANY: Any = Any;

        impl Strategy for Any {
            type Value = bool;

            fn generate(&self, rng: &mut StdRng) -> bool {
                rng.gen::<f64>() < 0.5
            }
        }
    }

    /// Collection strategies.
    pub mod collection {
        use super::super::{SizeRange, Strategy};
        use rand::{rngs::StdRng, Rng};

        /// Strategy for `Vec`s with element strategy `element` and a size
        /// drawn from `size` (a fixed `usize` or a `Range<usize>`).
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy { element, size: size.into() }
        }

        /// Strategy returned by [`vec()`].
        #[derive(Debug, Clone)]
        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;

            fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
                let n = if self.size.lo >= self.size.hi {
                    self.size.lo
                } else {
                    rng.gen_range(self.size.lo..self.size.hi)
                };
                (0..n).map(|_| self.element.generate(rng)).collect()
            }
        }
    }
}

/// Size specification for collection strategies.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    /// Exclusive upper bound; `lo == hi` means exactly `lo`.
    hi: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        Self { lo: n, hi: n }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        Self { lo: r.start, hi: r.end }
    }
}

/// Everything a property test file needs, in one import.
pub mod prelude {
    pub use crate::{
        prop, prop_assert, prop_assert_eq, prop_assume, proptest, Just, ProptestConfig, Strategy,
        TestCaseError, TestCaseResult,
    };
}

/// Runs one property: `cases` random cases with deterministic seeding.
///
/// Not called directly — the [`proptest!`] macro expands to calls of this
/// function. Panics (failing the `#[test]`) on the first failing case,
/// reporting the case number so it can be reproduced.
pub fn run_property<F>(name: &str, config: &ProptestConfig, mut body: F)
where
    F: FnMut(&mut StdRng) -> TestCaseResult,
{
    // Deterministic per-test seed: stable hash of the test name.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    let mut rejected = 0u32;
    let mut case = 0u64;
    let mut passed = 0u32;
    while passed < config.cases {
        let mut rng = StdRng::seed_from_u64(h ^ case);
        match body(&mut rng) {
            Ok(()) => passed += 1,
            Err(TestCaseError::Reject) => {
                rejected += 1;
                assert!(
                    rejected < config.cases * 16,
                    "property `{name}`: too many prop_assume! rejections \
                     ({rejected} rejects for {passed} passes)"
                );
            }
            Err(TestCaseError::Fail(msg)) => {
                panic!("property `{name}` failed at case #{case}: {msg}")
            }
        }
        case += 1;
    }
}

/// Formats an assertion failure message (macro plumbing).
#[doc(hidden)]
#[must_use]
pub fn fail_msg(args: fmt::Arguments<'_>) -> TestCaseError {
    TestCaseError::Fail(args.to_string())
}

/// Property-test entry point: a block of `#[test]` functions whose
/// arguments are drawn from strategies.
///
/// ```
/// use dna_proptest::prelude::*;
///
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(16))]
///
///     #[test]
///     fn addition_commutes(a in 0.0..1e6, b in 0.0..1e6) {
///         prop_assert!((a + b - (b + a)).abs() < 1e-12);
///     }
/// }
/// ```
// The `#[test]` in the example is consumed by the macro expansion — it is
// the real call-site idiom, not an attempt to nest a unit test.
#[allow(clippy::test_attr_in_doctest)]
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items!(($cfg); $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items!(($crate::ProptestConfig::default()); $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr);) => {};
    (($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let config = $cfg;
            $crate::run_property(stringify!($name), &config, |__rng| {
                $(let $arg = $crate::Strategy::generate(&$strat, __rng);)+
                $body
                Ok(())
            });
        }
        $crate::__proptest_items!(($cfg); $($rest)*);
    };
}

/// `assert!` that fails the current case instead of panicking directly.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::fail_msg(format_args!(
                "assertion failed: {}", stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err($crate::fail_msg(format_args!($($fmt)+)));
        }
    };
}

/// `assert_eq!` flavour of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if !(a == b) {
            return Err($crate::fail_msg(format_args!("assertion failed: `{:?}` != `{:?}`", a, b)));
        }
    }};
}

/// Skips the current case when its generated inputs are unsuitable.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respect_bounds(x in 1.0..5.0f64, n in 3usize..10) {
            prop_assert!((1.0..5.0).contains(&x));
            prop_assert!((3..10).contains(&n));
        }

        #[test]
        fn map_and_tuples_compose(v in (0u64..10, 0.0..1.0f64).prop_map(|(a, b)| a as f64 + b)) {
            prop_assert!((0.0..11.0).contains(&v));
        }

        #[test]
        fn collections_and_assume(xs in prop::collection::vec(0.0..1.0f64, 1..8),
                                  flag in prop::bool::ANY) {
            prop_assume!(!xs.is_empty());
            prop_assert!(xs.iter().all(|x| (0.0..1.0).contains(x)));
            prop_assert_eq!(flag, flag);
        }

        #[test]
        fn fixed_size_vec(xs in prop::collection::vec(0.0..1.0f64, 5)) {
            prop_assert_eq!(xs.len(), 5);
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failures_report_case_number() {
        crate::run_property("always_fails", &ProptestConfig::with_cases(4), |_rng| {
            prop_assert!(1 == 2, "impossible");
            Ok(())
        });
    }
}
