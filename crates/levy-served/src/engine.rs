//! Executes a validated [`Query`] into a deterministic JSON result body.
//!
//! The simulators fill a typed [`ResultBody`]; [`render_envelope`] turns
//! it into the `levy-served/result-v1` JSON document, for fresh bodies
//! here and for bodies transcoded from the binary wire.
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
use levy_wire::{Exponent, QueryKind, ResultBody, Search};

use crate::request::Query;

/// Schema tag of every result envelope.
pub const RESULT_SCHEMA: &str = "levy-served/result-v1";

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
    let precision = query.precision();
    let simulate_span = trace.map(|(store, parent)| {
        let mut span = store.span(parent, "simulate");
        span.tag(
            "mode",
            if precision.is_some() {
                "adaptive"
            } else {
                "summary"
            },
        );
        span
    });
    let body = match precision {
        None => summary_result(query, sim_threads, cancel)?,
        Some(precision) => adaptive_result(query, precision, sim_threads, cancel, observer)?,
    };
    if let Some(span) = simulate_span {
        span.finish();
    }
    Some(render_envelope(query, &query.cache_key(), &body))
}

/// Renders a `levy-served/result-v1` envelope: the schema tag, the cache
/// key, the canonical query and the measurement. This is the one place
/// the envelope's field names are written; the engine's fresh bodies and
/// the wire decoder's transcoded ones both come from here, which is why
/// they agree byte for byte. `key` must be `query.cache_key()`.
pub fn render_envelope(query: &Query, key: &str, body: &ResultBody) -> Json {
    let result = match *body {
        ResultBody::Summary {
            trials,
            hits,
            censored,
            budget,
            hit_rate,
            ci,
            conditional_mean,
            conditional_median,
            mean_lower_bound,
        } => Json::obj([
            ("mode", Json::from("summary")),
            ("trials", Json::from(trials)),
            ("hits", Json::from(hits)),
            ("censored", Json::from(censored)),
            ("budget", Json::from(budget)),
            ("hit_rate", Json::from(hit_rate)),
            ("hit_rate_ci95", Json::arr([ci.0, ci.1])),
            ("conditional_mean", Json::from(conditional_mean)),
            ("conditional_median", Json::from(conditional_median)),
            ("mean_lower_bound", Json::from(mean_lower_bound)),
        ]),
        ResultBody::Adaptive {
            p,
            ci,
            trials_used,
            successes,
            batches,
            converged,
            max_trials,
        } => Json::obj([
            ("mode", Json::from("adaptive")),
            ("p", Json::from(p)),
            ("ci95", Json::arr([ci.0, ci.1])),
            ("trials_used", Json::from(trials_used)),
            ("successes", Json::from(successes)),
            ("batches", Json::from(batches)),
            ("converged", Json::from(converged)),
            ("max_trials", Json::from(max_trials)),
        ]),
    };
    Json::obj([
        ("schema", Json::from(RESULT_SCHEMA)),
        ("key", Json::from(key)),
        ("query", query.canonical()),
        ("result", result),
    ])
}

/// Fixed-trials execution: the full censored summary.
fn summary_result(query: &Query, sim_threads: usize, cancel: &CancelToken) -> Option<ResultBody> {
    let config = query.measurement_config(sim_threads);
    let k = query.k as usize;
    let summary = match (query.kind, &query.search) {
        (QueryKind::SingleWalk, _) => {
            measure_single_walk_cancellable(fixed_alpha(query), &config, cancel)?
        }
        (QueryKind::SingleFlight, _) => {
            measure_single_flight_cancellable(fixed_alpha(query), &config, cancel)?
        }
        (QueryKind::Parallel, _) => match query.exponent {
            Exponent::Fixed(alpha) => {
                measure_parallel_common_cancellable(alpha, k, &config, cancel)?
            }
            _ => measure_parallel_strategy_cancellable(
                query.exponent_strategy(),
                k,
                &config,
                cancel,
            )?,
        },
        (QueryKind::Search, Some(search)) => measure_search_strategy_cancellable(
            &*search_strategy(query, search),
            k,
            &config,
            cancel,
        )?,
        (QueryKind::Search, None) => unreachable!("validation attaches a search spec"),
    };
    Some(ResultBody::Summary {
        trials: summary.trials(),
        hits: summary.hits,
        censored: summary.censored,
        budget: summary.budget,
        hit_rate: summary.hit_rate(),
        ci: summary.hit_rate_ci95(),
        conditional_mean: summary.conditional_mean().unwrap_or(f64::NAN),
        conditional_median: summary.conditional_median().unwrap_or(f64::NAN),
        mean_lower_bound: summary.mean_lower_bound(),
    })
}

/// Adaptive execution: Wilson-interval stopping, reporting the spend.
fn adaptive_result(
    query: &Query,
    precision: Precision,
    sim_threads: usize,
    cancel: &CancelToken,
    observer: &mut dyn FnMut(BatchProgress),
) -> Option<ResultBody> {
    let est = run_adaptive(query, precision, sim_threads, cancel, observer)?;
    Some(ResultBody::Adaptive {
        p: est.p,
        ci: est.ci,
        trials_used: est.trials,
        successes: est.successes,
        batches: est.batches,
        converged: est.converged,
        max_trials: precision.max_trials,
    })
}

/// The fixed exponent of a `single_*` query.
fn fixed_alpha(query: &Query) -> f64 {
    let Exponent::Fixed(alpha) = query.exponent else {
        unreachable!("validation forces fixed alpha for single_*");
    };
    alpha
}

/// The `levy_search` strategy a `search` query names.
fn search_strategy(query: &Query, search: &Search) -> Box<dyn SearchStrategy + Sync> {
    match *search {
        Search::Levy(_) => Box::new(LevySearch::new(query.exponent_strategy())),
        Search::Ballistic => Box::new(BallisticSearch::new()),
        Search::RandomWalk => Box::new(RandomWalkSearch::new()),
        Search::Mixture(n) => Box::new(MixtureSearch::grid(n as usize)),
    }
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
    let (ell, budget, k) = (query.ell, query.budget, query.k);
    let placement = query.target_placement();
    match (query.kind, &query.search) {
        (QueryKind::SingleWalk, _) | (QueryKind::SingleFlight, _) => {
            let jumps =
                JumpLengthDistribution::new(fixed_alpha(query)).expect("validated exponent");
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
            let strategy = query.exponent_strategy();
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
        (QueryKind::Search, Some(search)) => {
            let strategy = search_strategy(query, search);
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
