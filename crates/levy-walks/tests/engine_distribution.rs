//! Distribution-equality of the phase engine against the paper's process.
//!
//! The engine's results match the O(d) step-level reference walk
//! ([`levy_walk_hitting_time_exact`]) under a two-sample
//! Kolmogorov–Smirnov test, for point, capped, and ball targets —
//! certifying the corridor early-rejection and the marginal phase
//! algorithm against the paper's Definition 3.4 process — and for the
//! lockstep `k`-walk, whose parallel hitting time must be distributed as
//! the minimum of `k` independent exact walks.
//!
//! Byte-level stability of seeded outcomes across refactors is pinned
//! separately, by the golden digests in `levy-served`.

use levy_grid::Point;
use levy_rng::JumpLengthDistribution;
use levy_walks::{
    levy_walk_hitting_time, levy_walk_hitting_time_ball, levy_walk_hitting_time_capped,
    levy_walk_hitting_time_exact, parallel_hitting_time_common,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Two-sample Kolmogorov–Smirnov statistic over censored hitting times
/// (`None`, a miss, sorts after every hit as `u64::MAX`; both samples are
/// censored at the same budget, so the comparison stays apples-to-apples).
fn ks_statistic(a: &[Option<u64>], b: &[Option<u64>]) -> f64 {
    let order = |sample: &[Option<u64>]| {
        let mut v: Vec<u64> = sample.iter().map(|t| t.unwrap_or(u64::MAX)).collect();
        v.sort_unstable();
        v
    };
    let (a, b) = (order(a), order(b));
    let (mut i, mut j, mut d) = (0usize, 0usize, 0.0f64);
    while i < a.len() && j < b.len() {
        let x = a[i].min(b[j]);
        while i < a.len() && a[i] <= x {
            i += 1;
        }
        while j < b.len() && b[j] <= x {
            j += 1;
        }
        let gap = (i as f64 / a.len() as f64 - j as f64 / b.len() as f64).abs();
        d = d.max(gap);
    }
    d
}

/// KS acceptance threshold for two samples of size `n` at a comfortable
/// significance level (c(0.001) ≈ 1.95): seeded, so not flaky — a failure
/// means a real distributional discrepancy, not bad luck.
fn ks_threshold(n: usize) -> f64 {
    1.95 * (2.0 / n as f64).sqrt()
}

fn sample(
    n: usize,
    seed: u64,
    mut trial: impl FnMut(&mut SmallRng) -> Option<u64>,
) -> Vec<Option<u64>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| trial(&mut rng)).collect()
}

#[test]
fn engine_matches_exact_walk_distribution_point_target() {
    let jumps = JumpLengthDistribution::new(2.4).unwrap();
    let (target, budget, n) = (Point::new(5, 2), 400, 4_000);
    let engine = sample(n, 0xE6_01, |rng| {
        levy_walk_hitting_time(&jumps, Point::ORIGIN, target, budget, rng)
    });
    let exact = sample(n, 0xE6_02, |rng| {
        levy_walk_hitting_time_exact(&jumps, Point::ORIGIN, target, budget, rng)
    });
    let d = ks_statistic(&engine, &exact);
    assert!(
        d < ks_threshold(n),
        "KS statistic {d} exceeds threshold {} for the point target",
        ks_threshold(n)
    );
}

#[test]
fn engine_matches_exact_walk_distribution_generous_cap() {
    // A cap no in-budget jump can reach conditions on nothing, so the
    // capped engine must match the uncapped exact walk in distribution.
    let jumps = JumpLengthDistribution::new(2.2).unwrap();
    let (target, budget, n) = (Point::new(4, 0), 300, 4_000);
    let engine = sample(n, 0xE6_03, |rng| {
        levy_walk_hitting_time_capped(&jumps, u64::MAX, Point::ORIGIN, target, budget, rng)
    });
    let exact = sample(n, 0xE6_04, |rng| {
        levy_walk_hitting_time_exact(&jumps, Point::ORIGIN, target, budget, rng)
    });
    let d = ks_statistic(&engine, &exact);
    assert!(
        d < ks_threshold(n),
        "KS statistic {d} exceeds threshold {} for the capped walk",
        ks_threshold(n)
    );
}

#[test]
fn engine_matches_exact_walk_distribution_radius_zero_ball() {
    // B_0(center) is the unit target, so the ball engine must match the
    // exact point-target walk in distribution.
    let jumps = JumpLengthDistribution::new(2.6).unwrap();
    let (target, budget, n) = (Point::new(6, 1), 500, 4_000);
    let engine = sample(n, 0xE6_05, |rng| {
        levy_walk_hitting_time_ball(&jumps, Point::ORIGIN, target, 0, budget, rng)
    });
    let exact = sample(n, 0xE6_06, |rng| {
        levy_walk_hitting_time_exact(&jumps, Point::ORIGIN, target, budget, rng)
    });
    let d = ks_statistic(&engine, &exact);
    assert!(
        d < ks_threshold(n),
        "KS statistic {d} exceeds threshold {} for the radius-0 ball",
        ks_threshold(n)
    );
}

#[test]
fn lockstep_parallel_matches_minimum_of_exact_walks() {
    // The budget spans several lockstep slices, so lanes are cut and
    // resumed at slice boundaries and retired at the running best.
    let jumps = JumpLengthDistribution::new(2.5).unwrap();
    let (k, target, budget, n) = (4, Point::new(8, 3), 1_500, 3_000);
    let engine = sample(n, 0xE6_07, |rng| {
        parallel_hitting_time_common(k, &jumps, Point::ORIGIN, target, budget, rng)
    });
    // The minimum of k independent exact walks, each censored at the best
    // time found so far (a later walk can only lower the minimum).
    let exact = sample(n, 0xE6_08, |rng| {
        (0..k).fold(None, |best: Option<u64>, _| {
            let horizon = best.unwrap_or(budget);
            levy_walk_hitting_time_exact(&jumps, Point::ORIGIN, target, horizon, rng).or(best)
        })
    });
    let d = ks_statistic(&engine, &exact);
    assert!(
        d < ks_threshold(n),
        "KS statistic {d} exceeds threshold {} for the lockstep 4-walk",
        ks_threshold(n)
    );
}
