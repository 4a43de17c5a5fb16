//! Hitting times (Definition 3.7) of single Lévy walks and flights.
//!
//! The workhorse here is [`levy_walk_hitting_time`], a phase-level
//! simulation that is *exactly* distributed as the step-level walk's hitting
//! time but costs O(1) per jump phase instead of O(d):
//!
//! a jump phase of length `d` starting at `u` walks through one node of each
//! ring `R_1(u), ..., R_d(u)`, so it can visit the target `v` only at path
//! position `i = ||u - v||_1`, and only if `i <= d`. The marginal law of the
//! `i`-th node of a uniform direct path is available in closed form
//! ([`levy_grid::direct_path_node_at`]), so one draw decides the phase. The
//! step-level reference implementation is kept for cross-validation (see
//! [`levy_walk_hitting_time_exact`] and the distribution-equality test).
//!
//! All walk variants run on the phase engine ([`crate::engine`]): each
//! trial draws one word from the caller's RNG, splits it into a geometry
//! and an auxiliary stream, and skips marginal draws for phases the
//! Lemma 3.1 corridor proves cannot hit.

use levy_grid::Point;
use levy_rng::JumpLengthDistribution;
use rand::Rng;

use crate::engine::{hitting_time_engine, BallTarget, PointTarget};
use crate::flight::sample_jump;
use crate::process::JumpProcess;
use crate::walk::LevyWalk;

/// Simulates a Lévy walk from `start` and returns the hitting time of
/// `target` if it occurs within `budget` time steps (lattice steps), using
/// the O(1)-per-phase algorithm described in the module docs.
///
/// The returned value is the number of steps at the moment the target is
/// first visited (`Some(0)` if `start == target`).
///
/// # Examples
///
/// ```
/// use levy_rng::JumpLengthDistribution;
/// use levy_walks::levy_walk_hitting_time;
/// use levy_grid::Point;
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
///
/// let jumps = JumpLengthDistribution::new(2.0)?;
/// let mut rng = SmallRng::seed_from_u64(11);
/// let hit = levy_walk_hitting_time(&jumps, Point::ORIGIN, Point::new(3, 4), 100_000, &mut rng);
/// if let Some(t) = hit {
///     assert!(t >= 7, "target at distance 7 needs at least 7 steps");
/// }
/// # Ok::<(), levy_rng::InvalidExponentError>(())
/// ```
pub fn levy_walk_hitting_time<R: Rng + ?Sized>(
    jumps: &JumpLengthDistribution,
    start: Point,
    target: Point,
    budget: u64,
    rng: &mut R,
) -> Option<u64> {
    hitting_time_engine(jumps, None, PointTarget { target }, start, budget, rng)
}

/// Hitting time of a Lévy walk whose jump lengths are *capped* at `cap`
/// (conditioned on `d <= cap` by rejection).
///
/// This mirrors the event `E_t` of Lemma 4.5 — "each of the first `t` jumps
/// has length less than `(t log t)^{1/(α-1)}`" — under which the paper
/// derives its flight hitting-time lower bounds. The truncation ablation
/// (experiment A1) uses it to show the cap barely affects the hitting
/// probability at the relevant time scales.
///
/// Feeds the same [`crate::observe::TrialObserver`] telemetry as the
/// uncapped walk (displacement checkpoints and hitting-time histograms).
pub fn levy_walk_hitting_time_capped<R: Rng + ?Sized>(
    jumps: &JumpLengthDistribution,
    cap: u64,
    start: Point,
    target: Point,
    budget: u64,
    rng: &mut R,
) -> Option<u64> {
    hitting_time_engine(jumps, Some(cap), PointTarget { target }, start, budget, rng)
}

/// Step-level reference implementation of the walk hitting time.
///
/// Distribution-identical to [`levy_walk_hitting_time`] but O(d) per phase;
/// used by tests and the validation experiments to certify the fast path.
pub fn levy_walk_hitting_time_exact<R: Rng>(
    jumps: &JumpLengthDistribution,
    start: Point,
    target: Point,
    budget: u64,
    rng: &mut R,
) -> Option<u64> {
    let mut walk = LevyWalk::with_distribution(jumps.clone(), start);
    walk.run_until_hit(target, budget, rng)
}

/// Hitting time of a Lévy *flight* for `target`, in **jumps**, with the
/// flight only able to detect the target at jump endpoints.
///
/// This is the "intermittent" searcher the paper contrasts with the walk
/// (footnote 3 and the discussion of \[18\]); the flight-vs-walk ablation
/// experiment quantifies the difference.
pub fn levy_flight_hitting_time<R: Rng + ?Sized>(
    jumps: &JumpLengthDistribution,
    start: Point,
    target: Point,
    max_jumps: u64,
    rng: &mut R,
) -> Option<u64> {
    if start == target {
        return Some(0);
    }
    // The flight's time axis is jumps, not steps; checkpoints and hit
    // times are recorded in jumps accordingly.
    let mut observer = crate::observe::TrialObserver::begin(jumps.alpha(), start);
    let mut pos = start;
    for jump in 1..=max_jumps {
        let (_, v) = sample_jump(jumps, pos, rng);
        if v == target {
            if let Some(observer) = &observer {
                observer.on_hit(jump);
            }
            return Some(jump);
        }
        pos = v;
        if let Some(observer) = &mut observer {
            observer.on_phase_end(jump, pos);
        }
    }
    None
}

/// Hitting time of a Lévy walk for an **extended target**: the L1 ball
/// `B_radius(center)` (the "target of diameter D" setting of the
/// intermittent-search model the paper contrasts itself with in Section 2;
/// `radius = 0` recovers the unit target).
///
/// The phase-level algorithm generalizes the point-target one: a phase of
/// length `d` starting at `u` can first enter `B_r(center)` only at path
/// positions `i ∈ [dist − r, min(d, dist + r)]` with `dist = ‖u−center‖₁`,
/// so at most `2r + 1` marginal draws decide the phase (consecutive
/// non-tie positions are deterministic, so the joint check is exact), and
/// the Lemma 3.1 corridor skips positions whose entire marginal support
/// lies outside the ball without drawing at all.
///
/// Feeds the same [`crate::observe::TrialObserver`] telemetry as the
/// point-target walk.
pub fn levy_walk_hitting_time_ball<R: Rng + ?Sized>(
    jumps: &JumpLengthDistribution,
    start: Point,
    center: Point,
    radius: u64,
    budget: u64,
    rng: &mut R,
) -> Option<u64> {
    hitting_time_engine(
        jumps,
        None,
        BallTarget { center, radius },
        start,
        budget,
        rng,
    )
}

/// Hitting time of a Lévy *flight* for the extended target `B_radius(center)`
/// (endpoint-only detection), in jumps.
pub fn levy_flight_hitting_time_ball<R: Rng + ?Sized>(
    jumps: &JumpLengthDistribution,
    start: Point,
    center: Point,
    radius: u64,
    max_jumps: u64,
    rng: &mut R,
) -> Option<u64> {
    if start.l1_distance(center) <= radius {
        return Some(0);
    }
    let mut pos = start;
    for jump in 1..=max_jumps {
        let (_, v) = sample_jump(jumps, pos, rng);
        if v.l1_distance(center) <= radius {
            return Some(jump);
        }
        pos = v;
    }
    None
}

/// Convenience: hitting time of a walk with exponent `alpha` from the
/// origin for a target at the conventional position `(ell, 0)`.
///
/// # Errors
///
/// Returns an error for exponents outside `(1, ∞)`.
pub fn hitting_time_from_origin<R: Rng + ?Sized>(
    alpha: f64,
    ell: u64,
    budget: u64,
    rng: &mut R,
) -> Result<Option<u64>, levy_rng::InvalidExponentError> {
    let jumps = JumpLengthDistribution::new(alpha)?;
    Ok(levy_walk_hitting_time(
        &jumps,
        Point::ORIGIN,
        Point::new(ell as i64, 0),
        budget,
        rng,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn start_equals_target_hits_at_zero() {
        let jumps = JumpLengthDistribution::new(2.5).unwrap();
        let mut rng = SmallRng::seed_from_u64(0);
        let p = Point::new(2, 2);
        assert_eq!(levy_walk_hitting_time(&jumps, p, p, 10, &mut rng), Some(0));
        assert_eq!(
            levy_flight_hitting_time(&jumps, p, p, 10, &mut rng),
            Some(0)
        );
    }

    #[test]
    fn hit_time_is_at_least_the_distance() {
        let jumps = JumpLengthDistribution::new(2.0).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        let target = Point::new(5, 3);
        for _ in 0..500 {
            if let Some(t) = levy_walk_hitting_time(&jumps, Point::ORIGIN, target, 10_000, &mut rng)
            {
                assert!(t >= 8, "hit at {t} < distance 8");
            }
        }
    }

    #[test]
    fn budget_zero_never_hits_distinct_target() {
        let jumps = JumpLengthDistribution::new(2.5).unwrap();
        let mut rng = SmallRng::seed_from_u64(2);
        assert_eq!(
            levy_walk_hitting_time(&jumps, Point::ORIGIN, Point::new(1, 0), 0, &mut rng),
            None
        );
    }

    #[test]
    fn hit_probability_increases_with_budget() {
        let jumps = JumpLengthDistribution::new(2.5).unwrap();
        let target = Point::new(8, 0);
        let trials = 3000;
        let mut hits_small = 0;
        let mut hits_large = 0;
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..trials {
            if levy_walk_hitting_time(&jumps, Point::ORIGIN, target, 30, &mut rng).is_some() {
                hits_small += 1;
            }
            if levy_walk_hitting_time(&jumps, Point::ORIGIN, target, 3_000, &mut rng).is_some() {
                hits_large += 1;
            }
        }
        assert!(
            hits_large > hits_small,
            "budget monotonicity violated: {hits_small} vs {hits_large}"
        );
    }

    #[test]
    fn fast_and_exact_hitting_distributions_agree() {
        // The central correctness property: the O(1)-per-phase simulation
        // must produce the same hit-probability (within statistical noise)
        // as the step-level walk, at several budgets.
        let jumps = JumpLengthDistribution::new(2.3).unwrap();
        let target = Point::new(4, 2);
        let trials = 6_000u32;
        for budget in [20u64, 200] {
            let mut fast_hits = 0u32;
            let mut exact_hits = 0u32;
            let mut rng = SmallRng::seed_from_u64(1000 + budget);
            for _ in 0..trials {
                if levy_walk_hitting_time(&jumps, Point::ORIGIN, target, budget, &mut rng).is_some()
                {
                    fast_hits += 1;
                }
                if levy_walk_hitting_time_exact(&jumps, Point::ORIGIN, target, budget, &mut rng)
                    .is_some()
                {
                    exact_hits += 1;
                }
            }
            let pf = fast_hits as f64 / trials as f64;
            let pe = exact_hits as f64 / trials as f64;
            let sigma = (pf.max(pe) * (1.0 - pf.min(pe)) / trials as f64).sqrt();
            assert!(
                (pf - pe).abs() < 5.0 * sigma + 0.01,
                "budget {budget}: fast {pf} vs exact {pe}"
            );
        }
    }

    #[test]
    fn fast_and_exact_hitting_times_have_same_mean_conditioned_on_hit() {
        let jumps = JumpLengthDistribution::new(2.0).unwrap();
        let target = Point::new(3, 0);
        let budget = 500u64;
        let trials = 4_000;
        let mut rng = SmallRng::seed_from_u64(55);
        let collect = |exact: bool, rng: &mut SmallRng| -> Vec<u64> {
            (0..trials)
                .filter_map(|_| {
                    if exact {
                        levy_walk_hitting_time_exact(&jumps, Point::ORIGIN, target, budget, rng)
                    } else {
                        levy_walk_hitting_time(&jumps, Point::ORIGIN, target, budget, rng)
                    }
                })
                .collect()
        };
        let fast = collect(false, &mut rng);
        let exact = collect(true, &mut rng);
        let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;
        let (mf, me) = (mean(&fast), mean(&exact));
        // Generous tolerance: both are noisy conditional means.
        assert!(
            (mf - me).abs() / me.max(1.0) < 0.25,
            "conditional means diverge: fast {mf} vs exact {me}"
        );
    }

    #[test]
    fn flight_misses_en_route_targets_more_often_than_walk() {
        // The walk detects en route; the flight only at endpoints. For a
        // near target and α = 2 the walk must hit substantially more often
        // within comparable effort.
        let jumps = JumpLengthDistribution::new(2.0).unwrap();
        let target = Point::new(6, 0);
        let trials = 4_000;
        let mut rng = SmallRng::seed_from_u64(6);
        let mut walk_hits = 0;
        let mut flight_hits = 0;
        for _ in 0..trials {
            if levy_walk_hitting_time(&jumps, Point::ORIGIN, target, 600, &mut rng).is_some() {
                walk_hits += 1;
            }
            if levy_flight_hitting_time(&jumps, Point::ORIGIN, target, 600, &mut rng).is_some() {
                flight_hits += 1;
            }
        }
        assert!(
            walk_hits > flight_hits,
            "walk {walk_hits} should beat flight {flight_hits}"
        );
    }

    #[test]
    fn ball_target_with_radius_zero_matches_point_target() {
        let jumps = JumpLengthDistribution::new(2.4).unwrap();
        let target = Point::new(7, 0);
        let budget = 400u64;
        let trials = 5_000;
        let mut rng = SmallRng::seed_from_u64(101);
        let point_hits = (0..trials)
            .filter(|_| {
                levy_walk_hitting_time(&jumps, Point::ORIGIN, target, budget, &mut rng).is_some()
            })
            .count() as f64;
        let ball_hits = (0..trials)
            .filter(|_| {
                levy_walk_hitting_time_ball(&jumps, Point::ORIGIN, target, 0, budget, &mut rng)
                    .is_some()
            })
            .count() as f64;
        assert!(
            (point_hits - ball_hits).abs() / trials as f64 <= 0.02,
            "point {point_hits} vs radius-0 ball {ball_hits}"
        );
    }

    #[test]
    fn larger_targets_are_hit_more_often() {
        let jumps = JumpLengthDistribution::new(2.2).unwrap();
        let center = Point::new(20, 0);
        let budget = 300u64;
        let trials = 3_000;
        let mut rng = SmallRng::seed_from_u64(102);
        let mut prev = -1.0;
        for radius in [0u64, 2, 6] {
            let hits = (0..trials)
                .filter(|_| {
                    levy_walk_hitting_time_ball(
                        &jumps,
                        Point::ORIGIN,
                        center,
                        radius,
                        budget,
                        &mut rng,
                    )
                    .is_some()
                })
                .count() as f64;
            assert!(
                hits >= prev,
                "radius {radius}: hits {hits} < previous {prev}"
            );
            prev = hits;
        }
    }

    #[test]
    fn ball_hit_time_respects_reduced_distance() {
        let jumps = JumpLengthDistribution::new(2.5).unwrap();
        let center = Point::new(10, 0);
        let radius = 3u64;
        let mut rng = SmallRng::seed_from_u64(103);
        for _ in 0..300 {
            if let Some(t) =
                levy_walk_hitting_time_ball(&jumps, Point::ORIGIN, center, radius, 2_000, &mut rng)
            {
                assert!(t >= 10 - radius, "hit at {t} < {}", 10 - radius);
            }
        }
    }

    #[test]
    fn start_inside_ball_hits_immediately() {
        let jumps = JumpLengthDistribution::new(2.0).unwrap();
        let mut rng = SmallRng::seed_from_u64(104);
        assert_eq!(
            levy_walk_hitting_time_ball(&jumps, Point::new(1, 1), Point::ORIGIN, 2, 10, &mut rng),
            Some(0)
        );
        assert_eq!(
            levy_flight_hitting_time_ball(&jumps, Point::new(1, 1), Point::ORIGIN, 2, 10, &mut rng),
            Some(0)
        );
    }

    #[test]
    fn capped_walk_respects_cap_and_still_hits() {
        let jumps = JumpLengthDistribution::new(2.2).unwrap();
        let target = Point::new(5, 0);
        let mut rng = SmallRng::seed_from_u64(77);
        let mut hits = 0;
        for _ in 0..2_000 {
            if levy_walk_hitting_time_capped(&jumps, 50, Point::ORIGIN, target, 1_000, &mut rng)
                .is_some()
            {
                hits += 1;
            }
        }
        assert!(hits > 0, "capped walk should still hit sometimes");
    }

    #[test]
    fn generous_cap_matches_uncapped_distribution() {
        // With a cap far above any jump the walk can make within budget,
        // hit rates must agree statistically.
        let jumps = JumpLengthDistribution::new(2.5).unwrap();
        let target = Point::new(6, 0);
        let budget = 400u64;
        let trials = 4_000;
        let mut rng = SmallRng::seed_from_u64(88);
        let capped = (0..trials)
            .filter(|_| {
                levy_walk_hitting_time_capped(
                    &jumps,
                    u64::MAX,
                    Point::ORIGIN,
                    target,
                    budget,
                    &mut rng,
                )
                .is_some()
            })
            .count();
        let uncapped = (0..trials)
            .filter(|_| {
                levy_walk_hitting_time(&jumps, Point::ORIGIN, target, budget, &mut rng).is_some()
            })
            .count();
        let (pc, pu) = (
            capped as f64 / trials as f64,
            uncapped as f64 / trials as f64,
        );
        assert!((pc - pu).abs() < 0.05, "capped {pc} vs uncapped {pu}");
    }

    #[test]
    fn observers_do_not_perturb_seeded_trajectories() {
        let jumps = JumpLengthDistribution::new(2.2).unwrap();
        let target = Point::new(9, 4);
        let run = || {
            let mut rng = SmallRng::seed_from_u64(2021);
            (0..300)
                .map(|_| levy_walk_hitting_time(&jumps, Point::ORIGIN, target, 5_000, &mut rng))
                .collect::<Vec<_>>()
        };
        levy_obs::set_observers_enabled(false);
        let off = run();
        levy_obs::set_observers_enabled(true);
        let on = run();
        levy_obs::set_observers_enabled(false);
        assert_eq!(off, on, "observer seam must never touch the RNG stream");
    }

    #[test]
    fn origin_convenience_wrapper_works() {
        let mut rng = SmallRng::seed_from_u64(12);
        let res = hitting_time_from_origin(2.5, 4, 10_000, &mut rng).unwrap();
        if let Some(t) = res {
            assert!(t >= 4);
        }
        assert!(hitting_time_from_origin(0.5, 4, 10, &mut rng).is_err());
    }
}
