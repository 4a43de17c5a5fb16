//! Executes a validated [`Query`] into a deterministic JSON result body.
//!
//! The body is a pure function of the canonical query: simulation is
//! seeded (`SeedStream`), the runner is bit-identical across thread
//! counts, and the JSON writer is deterministic — so the bytes produced
//! here are exactly the bytes a cache hit replays. Anything
//! non-deterministic (wall-clock, cache tier, queue position) travels in
//! HTTP headers and logs, never in the body.

use levy_grid::Point;
use levy_obs::{SpanContext, TraceStore};
use levy_rng::{JumpLengthDistribution, SeedStream};
use levy_search::{
    BallisticSearch, LevySearch, MixtureSearch, RandomWalkSearch, SearchProblem, SearchStrategy,
};
use levy_sim::{
    estimate_probability_observed, measure_parallel_common_cancellable,
    measure_parallel_strategy_cancellable, measure_search_strategy_cancellable,
    measure_single_flight_cancellable, measure_single_walk_cancellable, AdaptiveEstimate,
    BatchProgress, CancelToken, Json, Precision,
};
use levy_walks::{levy_flight_hitting_time, levy_walk_hitting_time, parallel_hitting_time};

use crate::request::{Estimator, ExponentSpec, Query, QueryKind, SearchSpec};

/// Runs `query` with `sim_threads` runner threads.
///
/// Returns `None` if `cancel` fires before the simulation completes (the
/// job was abandoned by every waiter); otherwise the deterministic
/// response body.
pub fn execute(query: &Query, sim_threads: usize, cancel: &CancelToken) -> Option<Json> {
    execute_traced(query, sim_threads, cancel, None)
}

/// [`execute`] joined to a distributed trace: a `simulate` span covering
/// the estimator run is recorded into `trace`'s store, parented to the
/// given context (the worker's `worker_exec` span in `levyd`).
///
/// Tracing observes wall time only — the returned body is byte-identical
/// with `trace` present or `None`.
pub fn execute_traced(
    query: &Query,
    sim_threads: usize,
    cancel: &CancelToken,
    trace: Option<(&TraceStore, SpanContext)>,
) -> Option<Json> {
    execute_observed(query, sim_threads, cancel, trace, &mut |_| {})
}

/// [`execute_traced`] with a per-batch observer: adaptive-estimator
/// queries report each completed batch via `observer` (the seam the
/// streaming response path taps). Fixed-trials queries never call it.
///
/// The observer sees running totals only and never touches an RNG
/// stream, so the returned body is byte-identical with or without one —
/// the invariant behind "streaming and non-streaming final bodies match".
pub fn execute_observed(
    query: &Query,
    sim_threads: usize,
    cancel: &CancelToken,
    trace: Option<(&TraceStore, SpanContext)>,
    observer: &mut dyn FnMut(BatchProgress),
) -> Option<Json> {
    // Timing guard only: records wall time into the global-registry
    // histogram `levy_served_engine_execute_duration_us` (and a JSONL
    // event under LEVY_TRACE) without touching any RNG stream.
    let _span = levy_obs::Span::enter("levy_served_engine_execute");
    let simulate_span = trace.map(|(store, parent)| {
        let mut span = store.span(parent, "simulate");
        span.tag(
            "mode",
            match &query.estimator {
                Estimator::Trials(_) => "summary",
                Estimator::Adaptive(_) => "adaptive",
            },
        );
        span
    });
    let result = match &query.estimator {
        Estimator::Trials(_) => summary_result(query, sim_threads, cancel)?,
        Estimator::Adaptive(precision) => {
            adaptive_result(query, *precision, sim_threads, cancel, observer)?
        }
    };
    if let Some(span) = simulate_span {
        span.finish();
    }
    Some(Json::obj([
        ("schema", Json::from("levy-served/result-v1")),
        ("key", Json::from(query.cache_key())),
        ("query", query.canonical()),
        ("result", result),
    ]))
}

/// Fixed-trials execution: the full censored summary.
fn summary_result(query: &Query, sim_threads: usize, cancel: &CancelToken) -> Option<Json> {
    let config = query.measurement_config(sim_threads);
    let summary = match (query.kind, &query.search) {
        (QueryKind::SingleWalk, _) => {
            let ExponentSpec::Fixed(alpha) = query.exponent else {
                unreachable!("validation forces fixed alpha for single_walk");
            };
            measure_single_walk_cancellable(alpha, &config, cancel)?
        }
        (QueryKind::SingleFlight, _) => {
            let ExponentSpec::Fixed(alpha) = query.exponent else {
                unreachable!("validation forces fixed alpha for single_flight");
            };
            measure_single_flight_cancellable(alpha, &config, cancel)?
        }
        (QueryKind::Parallel, _) => match query.exponent {
            ExponentSpec::Fixed(alpha) => {
                measure_parallel_common_cancellable(alpha, query.k as usize, &config, cancel)?
            }
            _ => {
                let strategy = query.exponent.strategy(query.k, query.ell);
                measure_parallel_strategy_cancellable(strategy, query.k as usize, &config, cancel)?
            }
        },
        (QueryKind::Search, Some(spec)) => {
            let k = query.k as usize;
            match spec {
                SearchSpec::Levy(exp) => {
                    let strategy = LevySearch::new(exp.strategy(query.k, query.ell));
                    measure_search_strategy_cancellable(&strategy, k, &config, cancel)?
                }
                SearchSpec::Ballistic => measure_search_strategy_cancellable(
                    &BallisticSearch::new(),
                    k,
                    &config,
                    cancel,
                )?,
                SearchSpec::RandomWalk => measure_search_strategy_cancellable(
                    &RandomWalkSearch::new(),
                    k,
                    &config,
                    cancel,
                )?,
                SearchSpec::Mixture(n) => measure_search_strategy_cancellable(
                    &MixtureSearch::grid(*n as usize),
                    k,
                    &config,
                    cancel,
                )?,
            }
        }
        (QueryKind::Search, None) => unreachable!("validation attaches a search spec"),
    };
    let ci = summary.hit_rate_ci95();
    Some(Json::obj([
        ("mode", Json::from("summary")),
        ("trials", Json::from(summary.trials())),
        ("hits", Json::from(summary.hits)),
        ("censored", Json::from(summary.censored)),
        ("budget", Json::from(summary.budget)),
        ("hit_rate", Json::from(summary.hit_rate())),
        ("hit_rate_ci95", Json::arr([ci.0, ci.1])),
        ("conditional_mean", Json::from(summary.conditional_mean())),
        (
            "conditional_median",
            Json::from(summary.conditional_median()),
        ),
        ("mean_lower_bound", Json::from(summary.mean_lower_bound())),
    ]))
}

/// Adaptive execution: Wilson-interval stopping, reporting the spend.
fn adaptive_result(
    query: &Query,
    precision: Precision,
    sim_threads: usize,
    cancel: &CancelToken,
    observer: &mut dyn FnMut(BatchProgress),
) -> Option<Json> {
    let est = run_adaptive(query, precision, sim_threads, cancel, observer)?;
    Some(Json::obj([
        ("mode", Json::from("adaptive")),
        ("p", Json::from(est.p)),
        ("ci95", Json::arr([est.ci.0, est.ci.1])),
        ("trials_used", Json::from(est.trials)),
        ("successes", Json::from(est.successes)),
        ("batches", Json::from(est.batches)),
        ("converged", Json::from(est.converged)),
        ("max_trials", Json::from(precision.max_trials)),
    ]))
}

fn run_adaptive(
    query: &Query,
    precision: Precision,
    sim_threads: usize,
    cancel: &CancelToken,
    observer: &mut dyn FnMut(BatchProgress),
) -> Option<AdaptiveEstimate> {
    let seeds = SeedStream::new(query.seed);
    let threads = sim_threads.max(1);
    let (ell, budget, placement, k) = (query.ell, query.budget, query.placement, query.k);
    match (query.kind, &query.search) {
        (QueryKind::SingleWalk, _) | (QueryKind::SingleFlight, _) => {
            let ExponentSpec::Fixed(alpha) = query.exponent else {
                unreachable!("validation forces fixed alpha for single_*");
            };
            let jumps = JumpLengthDistribution::new(alpha).expect("validated exponent");
            let flight = query.kind == QueryKind::SingleFlight;
            estimate_probability_observed(
                seeds,
                threads,
                precision,
                cancel,
                observer,
                move |_i, rng| {
                    let target = placement.place(ell, rng);
                    if flight {
                        levy_flight_hitting_time(&jumps, Point::ORIGIN, target, budget, rng)
                            .is_some()
                    } else {
                        levy_walk_hitting_time(&jumps, Point::ORIGIN, target, budget, rng).is_some()
                    }
                },
            )
        }
        (QueryKind::Parallel, _) => {
            let strategy = query.exponent.strategy(k, ell);
            estimate_probability_observed(
                seeds,
                threads,
                precision,
                cancel,
                observer,
                move |_i, rng| {
                    parallel_hitting_time(
                        k as usize,
                        &strategy,
                        Point::ORIGIN,
                        placement.place(ell, rng),
                        budget,
                        rng,
                    )
                    .time
                    .is_some()
                },
            )
        }
        (QueryKind::Search, Some(spec)) => {
            let strategy: Box<dyn SearchStrategy + Sync> = match spec {
                SearchSpec::Levy(exp) => Box::new(LevySearch::new(exp.strategy(k, ell))),
                SearchSpec::Ballistic => Box::new(BallisticSearch::new()),
                SearchSpec::RandomWalk => Box::new(RandomWalkSearch::new()),
                SearchSpec::Mixture(n) => Box::new(MixtureSearch::grid(*n as usize)),
            };
            estimate_probability_observed(
                seeds,
                threads,
                precision,
                cancel,
                observer,
                move |_i, rng| {
                    let mut problem = SearchProblem::at_distance(ell, k as usize, budget);
                    problem.target = placement.place(ell, rng);
                    strategy.run(&problem, rng).is_some()
                },
            )
        }
        (QueryKind::Search, None) => unreachable!("validation attaches a search spec"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query(body: &str) -> Query {
        Query::from_json(&Json::parse(body).expect("valid JSON")).expect("valid query")
    }

    #[test]
    fn bodies_are_byte_identical_across_thread_counts() {
        let q = query(
            r#"{"kind":"parallel","alpha":2.5,"k":4,"ell":8,"budget":400,
                "trials":150,"seed":11}"#,
        );
        let token = CancelToken::new();
        let one = execute(&q, 1, &token).unwrap().to_string_pretty();
        let four = execute(&q, 4, &token).unwrap().to_string_pretty();
        assert_eq!(one, four);
    }

    #[test]
    fn every_kind_executes() {
        let bodies = [
            r#"{"kind":"single_walk","alpha":2.5,"ell":4,"budget":200,"trials":60}"#,
            r#"{"kind":"single_flight","alpha":2.5,"ell":4,"budget":200,"trials":60}"#,
            r#"{"kind":"parallel","strategy":"uniform","k":4,"ell":4,"budget":200,"trials":60}"#,
            r#"{"kind":"parallel","strategy":"optimal","k":4,"ell":4,"budget":200,"trials":60}"#,
            r#"{"kind":"search","strategy":"ballistic","k":4,"ell":4,"budget":400,"trials":60}"#,
            r#"{"kind":"search","strategy":"mixture:4","k":4,"ell":4,"budget":400,"trials":60}"#,
            r#"{"kind":"search","strategy":"random_walk","k":4,"ell":4,"budget":400,"trials":60}"#,
            r#"{"kind":"search","alpha":2.2,"k":4,"ell":4,"budget":400,"trials":60}"#,
        ];
        for body in bodies {
            let q = query(body);
            let out = execute(&q, 2, &CancelToken::new()).unwrap();
            let result = out.get("result").expect("result object");
            assert_eq!(result.get("mode").unwrap().as_str(), Some("summary"));
            assert_eq!(result.get("trials").unwrap().as_u64(), Some(60), "{body}");
            assert_eq!(
                out.get("key").unwrap().as_str(),
                Some(q.cache_key().as_str())
            );
        }
    }

    #[test]
    fn adaptive_mode_reports_spend() {
        let q = query(
            r#"{"kind":"single_walk","alpha":2.2,"ell":3,"budget":300,
                "precision":{"absolute":0.05,"relative":0.5,"max_trials":4096},"seed":3}"#,
        );
        let out = execute(&q, 2, &CancelToken::new()).unwrap();
        let result = out.get("result").unwrap();
        assert_eq!(result.get("mode").unwrap().as_str(), Some("adaptive"));
        let trials_used = result.get("trials_used").unwrap().as_u64().unwrap();
        assert!(trials_used >= 256, "at least one batch: {trials_used}");
        assert!(result.get("batches").unwrap().as_u64().unwrap() >= 1);
        assert!(result.get("converged").unwrap().as_bool().is_some());
        // Deterministic too.
        let again = execute(&q, 4, &CancelToken::new()).unwrap();
        assert_eq!(out.to_string_pretty(), again.to_string_pretty());
    }

    #[test]
    fn bodies_are_byte_identical_with_tracing_enabled() {
        let q = query(
            r#"{"kind":"parallel","alpha":2.5,"k":4,"ell":8,"budget":400,
                "trials":150,"seed":11}"#,
        );
        let quiet = execute(&q, 2, &CancelToken::new())
            .unwrap()
            .to_string_pretty();
        levy_obs::set_trace_enabled(true);
        let traced = execute(&q, 2, &CancelToken::new())
            .unwrap()
            .to_string_pretty();
        levy_obs::set_trace_enabled(false);
        assert_eq!(quiet, traced, "tracing must never perturb seeded results");
    }

    #[test]
    fn cancelled_execution_returns_none() {
        let q = query(
            r#"{"kind":"parallel","alpha":2.5,"k":8,"ell":64,"budget":100000,
                "trials":100000}"#,
        );
        let token = CancelToken::new();
        token.cancel();
        assert!(execute(&q, 2, &token).is_none());
    }
}
