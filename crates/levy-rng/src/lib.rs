//! Randomness substrate for the reproduction of *Search via Parallel Lévy
//! Walks on Z²* (PODC 2021).
//!
//! Provides, from scratch:
//!
//! * [`riemann_zeta`] and tail/partial sums — the normalization behind the
//!   paper's jump law;
//! * [`JumpLengthDistribution`] — Eq. (3): `P(d=0) = 1/2`,
//!   `P(d=i) = c_α / i^α`, sampled exactly via a hybrid alias-table /
//!   Devroye scheme ([`JumpTable`] head, [`sample_zeta_above`] tail) with
//!   the pure rejection sampler ([`sample_zeta`]) and a table-inversion
//!   cross-check ([`ZetaTable`]) retained as baselines;
//! * [`ScalarPhases`] — per-phase jump geometry (length plus destination
//!   ring index) with per-trial bulk tallying, the RNG front end of the
//!   phase engine;
//! * [`ExponentStrategy`] — the exponent-selection rules the paper studies,
//!   including the headline `α ~ Uniform(2,3)` strategy of Theorem 1.6 and
//!   the scale-aware optimum of Theorem 1.5 ([`optimal_exponent`]);
//! * [`SeedStream`] — deterministic hierarchical seeding so that parallel
//!   experiments are exactly reproducible.
//!
//! # Example
//!
//! ```
//! use levy_rng::{ExponentStrategy, JumpLengthDistribution, SeedStream};
//!
//! let mut rng = SeedStream::new(2021).child(0).rng();
//! let alpha = ExponentStrategy::UniformSuperdiffusive.draw(&mut rng);
//! let jumps = JumpLengthDistribution::new(alpha).expect("α in (2,3) is valid");
//! let _length = jumps.sample(&mut rng);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod exponent;
mod hybrid;
pub mod obs;
mod power_law;
mod seeds;
mod zeta;

pub use exponent::{ideal_exponent, optimal_exponent, ExponentStrategy};
pub use hybrid::{cutoff_for, sample_zeta_above, JumpTable, MAX_TABLE_CUTOFF, TARGET_TAIL_MASS};
pub use obs::flush_draw_stats;
pub use power_law::{
    sample_zeta, InvalidExponentError, JumpLengthDistribution, ScalarPhases, ZetaTable, MAX_JUMP,
    MIN_EXPONENT,
};
pub use seeds::{splitmix64, SeedStream};
pub use zeta::{riemann_zeta, zeta_partial_sum, zeta_tail};
