//! Experiment engine for the reproduction of *Search via Parallel Lévy
//! Walks on Z²* (PODC 2021).
//!
//! * [`run_trials`] — deterministic multi-threaded trial execution
//!   (bit-identical results regardless of thread count);
//! * [`measure_single_walk`] / [`measure_parallel_common`] /
//!   [`measure_parallel_strategy`] / [`measure_search_strategy`] — the
//!   hitting-time measurements behind every experiment (E1–E10);
//! * [`TextTable`] / [`write_json`] — paper-style tables and persisted
//!   results;
//! * sweep helpers ([`linspace`], [`geomspace`], ...).
//!
//! # Example
//!
//! ```
//! use levy_sim::{measure_parallel_common, MeasurementConfig};
//!
//! // P(τ^k ≤ budget) for k = 4 walks with α = 2.5 and ℓ = 8.
//! let config = MeasurementConfig::new(8, 2_000, 200, 7);
//! let summary = measure_parallel_common(2.5, 4, &config);
//! assert_eq!(summary.trials(), 200);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adaptive;
mod experiment;
mod json;
pub mod obs;
mod plot;
pub mod progress;
mod report;
mod runner;
mod sweep;

pub use adaptive::{
    estimate_probability, estimate_probability_cancellable, estimate_probability_observed,
    AdaptiveEstimate, BatchProgress, Precision,
};
pub use experiment::{
    measure_parallel_common, measure_parallel_common_cancellable, measure_parallel_strategy,
    measure_parallel_strategy_cancellable, measure_search_strategy,
    measure_search_strategy_cancellable, measure_single_flight, measure_single_flight_cancellable,
    measure_single_walk, measure_single_walk_cancellable, MeasurementConfig, TargetPlacement,
};
pub use json::{Json, JsonParseError};
pub use plot::AsciiPlot;
pub use progress::ProgressReporter;
pub use report::{write_json, TextTable};
pub use runner::{
    count_trials, count_trials_offset, count_trials_offset_cancellable, default_threads,
    run_trials, run_trials_cancellable, CancelToken,
};
pub use sweep::{geom_integers, geomspace, linspace, pow2_range};
