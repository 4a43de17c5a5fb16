//! End-to-end determinism of walk trials on the multi-threaded runner.
//!
//! Work-stealing scheduling must never leak into results: full
//! [`ParallelHit`] vectors are byte-identical across thread counts.

use levy_grid::Point;
use levy_rng::{ExponentStrategy, SeedStream};
use levy_sim::run_trials;
use levy_walks::{levy_walk_hitting_time_ball, parallel_hitting_time, ParallelHit};

fn parallel_trials(threads: usize) -> Vec<ParallelHit> {
    run_trials(96, SeedStream::new(0xC0DE), threads, |_, rng| {
        parallel_hitting_time(
            8,
            &ExponentStrategy::UniformSuperdiffusive,
            Point::ORIGIN,
            Point::new(12, 5),
            50_000,
            rng,
        )
    })
}

#[test]
fn parallel_hit_vectors_are_identical_across_thread_counts() {
    let single = parallel_trials(1);
    for threads in [2, 4] {
        assert_eq!(
            single,
            parallel_trials(threads),
            "thread count {threads} changed a seeded ParallelHit"
        );
    }
}

#[test]
fn ball_trials_are_identical_across_thread_counts() {
    let jumps = levy_rng::JumpLengthDistribution::new(2.3).unwrap();
    let run = |threads: usize| {
        run_trials(256, SeedStream::new(0xBA11), threads, |_, rng| {
            levy_walk_hitting_time_ball(&jumps, Point::ORIGIN, Point::new(20, 0), 2, 10_000, rng)
        })
    };
    let single = run(1);
    assert_eq!(single, run(4));
}
