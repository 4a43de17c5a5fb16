//! Golden digests of seeded outputs: the "same bytes" net under engine
//! refactors.
//!
//! Every engine entry point runs a fixed batch of seeded trials and the
//! `Debug` rendering of the outcomes is hashed (FNV-1a 64); every query
//! kind is executed through [`levy_served::engine::execute`] and its pretty
//! body is hashed the same way. The digests below are committed constants:
//! a refactor that changes any seeded outcome, any consumed RNG word or any
//! body byte changes a digest and fails here. A deliberate change to the
//! RNG stream (which also needs an engine-version bump in the cache key)
//! updates them in the same commit.

use levy_grid::Point;
use levy_rng::{ExponentStrategy, JumpLengthDistribution};
use levy_served::engine::execute;
use levy_served::Query;
use levy_sim::{CancelToken, Json};
use levy_walks::{
    levy_walk_hitting_time, levy_walk_hitting_time_ball, levy_walk_hitting_time_capped,
    parallel_hitting_time, parallel_hitting_time_common,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs `trials` seeded calls of `trial` on one RNG and hashes the
/// `Debug` rendering of the outcome list.
fn digest<T: std::fmt::Debug>(
    seed: u64,
    trials: usize,
    mut trial: impl FnMut(&mut SmallRng) -> T,
) -> u64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    let outcomes: Vec<T> = (0..trials).map(|_| trial(&mut rng)).collect();
    fnv1a(format!("{outcomes:?}").as_bytes())
}

fn check(name: &str, actual: u64, expected: u64) -> Option<String> {
    (actual != expected).then(|| format!("{name}: digest {actual:#018x}, pinned {expected:#018x}"))
}

#[test]
fn engine_entry_points_match_pinned_digests() {
    let jumps = JumpLengthDistribution::new(2.5).unwrap();
    let heavy = JumpLengthDistribution::new(2.2).unwrap();
    let near = Point::new(7, 3);
    // A far target with a long budget: lockstep lanes run many slices.
    let far = Point::new(40, 25);
    let parallel = |strategy: ExponentStrategy, k: usize, target: Point, budget: u64| {
        move |rng: &mut SmallRng| {
            parallel_hitting_time(k, &strategy, Point::ORIGIN, target, budget, rng)
        }
    };
    let failures: Vec<String> = [
        check(
            "levy_walk_hitting_time",
            digest(0x601D01, 400, |rng| {
                levy_walk_hitting_time(&jumps, Point::ORIGIN, near, 2_000, rng)
            }),
            0xf98a_65b5_3c45_4fca,
        ),
        check(
            "levy_walk_hitting_time (far, heavy tail)",
            digest(0x601D02, 200, |rng| {
                levy_walk_hitting_time(&heavy, Point::ORIGIN, far, 30_000, rng)
            }),
            0xbf41_ab07_d8e5_41a8,
        ),
        check(
            "levy_walk_hitting_time_capped",
            digest(0x601D03, 400, |rng| {
                levy_walk_hitting_time_capped(&jumps, 30, Point::ORIGIN, near, 2_000, rng)
            }),
            0x95a1_8f19_98ff_f9d0,
        ),
        check(
            "levy_walk_hitting_time_ball",
            digest(0x601D04, 400, |rng| {
                levy_walk_hitting_time_ball(&jumps, Point::ORIGIN, Point::new(15, 0), 3, 2_000, rng)
            }),
            0x16eb_84fb_0994_fa71,
        ),
        check(
            "parallel_hitting_time Fixed",
            digest(
                0x601D05,
                120,
                parallel(ExponentStrategy::Fixed(2.5), 6, far, 20_000),
            ),
            0x9a8a_4667_3a2d_d31a,
        ),
        check(
            "parallel_hitting_time UniformSuperdiffusive",
            digest(
                0x601D06,
                120,
                parallel(ExponentStrategy::UniformSuperdiffusive, 6, far, 20_000),
            ),
            0x2699_6789_fcd0_102b,
        ),
        check(
            "parallel_hitting_time OptimalForScale",
            digest(
                0x601D07,
                120,
                parallel(
                    ExponentStrategy::OptimalForScale { k: 6, ell: 13 },
                    6,
                    near,
                    5_000,
                ),
            ),
            0xd316_539b_5d92_2eab,
        ),
        check(
            "parallel_hitting_time_common",
            digest(0x601D08, 120, |rng| {
                parallel_hitting_time_common(5, &heavy, Point::ORIGIN, far, 20_000, rng)
            }),
            0xf6da_9803_ecca_735e,
        ),
    ]
    .into_iter()
    .flatten()
    .collect();
    assert!(
        failures.is_empty(),
        "seeded outcomes changed:\n{}",
        failures.join("\n")
    );
}

#[test]
fn served_bodies_match_pinned_digests() {
    let cases: [(&str, u64); 6] = [
        (
            r#"{"kind":"single_walk","alpha":2.4,"ell":6,"budget":3000,"trials":200,"seed":7}"#,
            0x016c_051d_b3db_5ab2,
        ),
        (
            r#"{"kind":"single_flight","alpha":2.4,"ell":6,"budget":400,"trials":200,"seed":7}"#,
            0x292c_da18_f3f0_43d3,
        ),
        (
            r#"{"kind":"parallel","strategy":"uniform","k":6,"ell":12,"budget":4000,"trials":120,"seed":42}"#,
            0xcff3_f9c6_faea_00f1,
        ),
        (
            r#"{"kind":"parallel","alpha":2.5,"k":4,"ell":10,"budget":4000,"trials":120,"seed":11}"#,
            0x156f_7e12_0fde_538f,
        ),
        (
            r#"{"kind":"search","strategy":"optimal","k":4,"ell":8,"budget":2000,"trials":120,"seed":5}"#,
            0x460d_7a3d_0790_1711,
        ),
        (
            r#"{"kind":"single_walk","alpha":2.2,"ell":3,"budget":300,"precision":{"absolute":0.05,"relative":0.5,"max_trials":4096},"seed":3}"#,
            0x9b56_db0f_058f_e6fc,
        ),
    ];
    let failures: Vec<String> = cases
        .iter()
        .filter_map(|(body, expected)| {
            let query = Query::from_json(&Json::parse(body).unwrap()).unwrap();
            let out = execute(&query, 2, &CancelToken::new()).unwrap();
            check(body, fnv1a(out.to_string_pretty().as_bytes()), *expected)
        })
        .collect();
    assert!(
        failures.is_empty(),
        "served bodies changed:\n{}",
        failures.join("\n")
    );
}
