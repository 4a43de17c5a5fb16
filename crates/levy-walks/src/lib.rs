//! Core library of the reproduction of *Search via Parallel Lévy Walks on
//! Z²* (Clementi, d'Amore, Giakkoupis, Natale — PODC 2021).
//!
//! This crate implements the paper's processes and its headline object of
//! study:
//!
//! * [`LevyFlight`] — Definition 3.3, the jump-endpoint Markov chain
//!   (monotone radial, Lemma 3.9);
//! * [`LevyWalk`] — Definition 3.4, the step-granular walk that travels
//!   along direct paths and can detect a target *en route*;
//! * [`levy_walk_hitting_time`] — exact, O(1)-per-phase hitting-time
//!   simulation (Definition 3.7), with a step-level reference
//!   implementation used for validation;
//! * [`parallel_hitting_time`] — the parallel hitting time of `k`
//!   independent walks, driven by any
//!   [`ExponentStrategy`](levy_rng::ExponentStrategy), including the
//!   paper's randomized `α ~ Uniform(2,3)` strategy (Theorem 1.6).
//!
//! Every walk hitting-time simulation runs on one phase engine: a single
//! per-phase loop with Lemma 3.1 corridor early-rejection, shared by
//! single-walk trials and the lanes of lockstep `k`-walk advancement.
//!
//! # Quick example: the paper's randomized strategy
//!
//! ```
//! use levy_rng::ExponentStrategy;
//! use levy_walks::parallel_hitting_time;
//! use levy_grid::Point;
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//!
//! let mut rng = SmallRng::seed_from_u64(2021);
//! let target = Point::new(20, 15); // distance ℓ = 35
//! let hit = parallel_hitting_time(
//!     32,                                      // k walks
//!     &ExponentStrategy::UniformSuperdiffusive, // α_j ~ U(2,3), iid
//!     Point::ORIGIN,
//!     target,
//!     200_000,
//!     &mut rng,
//! );
//! assert!(hit.found(), "k=32 random-exponent walks find a close target w.h.p.");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod flight;
mod hitting;
pub mod observe;
mod parallel;
mod process;
mod statistics;
pub mod theory;
mod walk;

pub use flight::{sample_jump, LevyFlight};
pub use hitting::{
    hitting_time_from_origin, levy_flight_hitting_time, levy_flight_hitting_time_ball,
    levy_walk_hitting_time, levy_walk_hitting_time_ball, levy_walk_hitting_time_capped,
    levy_walk_hitting_time_exact,
};
pub use observe::{flush_walk_stats, TrialObserver};
pub use parallel::{parallel_hitting_time, parallel_hitting_time_common, ParallelHit};
pub use process::JumpProcess;
pub use statistics::{
    flight_visits_to, msd_exponent, walk_max_displacement, walk_positions_at, walk_visit_map,
};
pub use walk::LevyWalk;
