//! Golden digests of seeded outputs: the "same bytes" net under engine
//! refactors.
//!
//! Every engine entry point runs a fixed batch of seeded trials and the
//! `Debug` rendering of the outcomes is hashed (FNV-1a 64); every query
//! kind is executed through [`levy_served::engine::execute`] and its pretty
//! body is hashed the same way, as are the LW1 frames
//! `levy_served::wirecodec` encodes for the query and for its result.
//! The digests below are committed constants: a refactor that changes
//! any seeded outcome, any consumed RNG word, any body byte or any frame
//! byte changes a digest and fails here. A deliberate change to the
//! RNG stream (which also needs an engine-version bump in the cache key)
//! updates them in the same commit.

use levy_grid::Point;
use levy_rng::{ExponentStrategy, JumpLengthDistribution};
use levy_served::engine::execute;
use levy_served::{wirecodec, Query};
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

/// Digests of one served query: its pretty JSON body, its LW1 query
/// frame (`wirecodec::encode_query`) and its LW1 result frame
/// (`wirecodec::encode_result`).
struct Served {
    body: u64,
    query_frame: u64,
    result_frame: u64,
}

#[test]
fn served_bodies_match_pinned_digests() {
    let cases: [(&str, Served); 13] = [
        (
            r#"{"kind":"single_walk","alpha":2.4,"ell":6,"budget":3000,"trials":200,"seed":7}"#,
            Served {
                body: 0x016c_051d_b3db_5ab2,
                query_frame: 0xf0e8_f907_0f93_e021,
                result_frame: 0xe36b_cbef_5882_9039,
            },
        ),
        (
            r#"{"kind":"single_flight","alpha":2.4,"ell":6,"budget":400,"trials":200,"seed":7}"#,
            Served {
                body: 0x292c_da18_f3f0_43d3,
                query_frame: 0xc87d_ee2a_f4f8_ee49,
                result_frame: 0x047c_7d97_b765_7562,
            },
        ),
        (
            r#"{"kind":"parallel","strategy":"uniform","k":6,"ell":12,"budget":4000,"trials":120,"seed":42}"#,
            Served {
                body: 0xcff3_f9c6_faea_00f1,
                query_frame: 0x018e_ff23_3f38_f2a9,
                result_frame: 0xa5c3_0b8b_1f96_702f,
            },
        ),
        (
            r#"{"kind":"parallel","alpha":2.5,"k":4,"ell":10,"budget":4000,"trials":120,"seed":11}"#,
            Served {
                body: 0x156f_7e12_0fde_538f,
                query_frame: 0x80f2_06e8_0a5c_e114,
                result_frame: 0xf829_3c0b_307e_2ffd,
            },
        ),
        (
            r#"{"kind":"search","strategy":"optimal","k":4,"ell":8,"budget":2000,"trials":120,"seed":5}"#,
            Served {
                body: 0x460d_7a3d_0790_1711,
                query_frame: 0x3b6e_46de_4f10_1b74,
                result_frame: 0xaa6c_696e_c943_b1aa,
            },
        ),
        (
            r#"{"kind":"single_walk","alpha":2.2,"ell":3,"budget":300,"precision":{"absolute":0.05,"relative":0.5,"max_trials":4096},"seed":3}"#,
            Served {
                body: 0x9b56_db0f_058f_e6fc,
                query_frame: 0xca72_2fff_4495_9467,
                result_frame: 0xd70e_aaa6_108b_5bbf,
            },
        ),
        (
            r#"{"kind":"search","strategy":"ballistic","k":4,"ell":6,"budget":400,"trials":80,"seed":13}"#,
            Served {
                body: 0x7040_a236_9e54_2611,
                query_frame: 0x4af5_fd09_7c70_dd45,
                result_frame: 0xdcba_5feb_0666_db13,
            },
        ),
        (
            r#"{"kind":"search","strategy":"random_walk","k":4,"ell":4,"budget":400,"trials":80,"seed":14}"#,
            Served {
                body: 0xb484_8e44_478c_c4d3,
                query_frame: 0xa2cf_a925_f8f3_22c7,
                result_frame: 0x76df_ae35_9361_799f,
            },
        ),
        (
            r#"{"kind":"search","strategy":"mixture:4","k":4,"ell":6,"budget":1000,"trials":80,"seed":15}"#,
            Served {
                body: 0xdbda_581e_f751_2a3c,
                query_frame: 0x2f4b_d73e_e4b4_9b4c,
                result_frame: 0x8aaa_a6c8_5ed4_a6b4,
            },
        ),
        (
            r#"{"kind":"search","alpha":2.3,"k":4,"ell":6,"budget":1000,"trials":80,"seed":16}"#,
            Served {
                body: 0xe04a_f0b0_cab9_8a94,
                query_frame: 0xfb03_94fa_5f9a_d829,
                result_frame: 0xd166_5543_f6d2_802c,
            },
        ),
        (
            r#"{"kind":"parallel","strategy":"uniform:2.1:2.9","k":4,"ell":8,"budget":2000,"trials":80,"seed":17}"#,
            Served {
                body: 0x8db6_7e1f_eac9_0cee,
                query_frame: 0x788c_061d_11c3_c16b,
                result_frame: 0xfe30_2993_27ce_34ee,
            },
        ),
        (
            r#"{"kind":"parallel","strategy":"optimal","k":6,"ell":10,"budget":2000,"trials":80,"seed":18}"#,
            Served {
                body: 0xb818_aaed_2730_b8a6,
                query_frame: 0x64ad_080c_4057_70c1,
                result_frame: 0xa91d_5ba4_3b3c_8ac6,
            },
        ),
        (
            r#"{"kind":"parallel","alpha":2.6,"k":3,"ell":7,"budget":1500,"trials":80,"seed":19,"placement":"east"}"#,
            Served {
                body: 0x67c5_016a_fc06_bfaa,
                query_frame: 0xa8e1_b883_2d6f_2dab,
                result_frame: 0xf652_40a4_0ff1_03b1,
            },
        ),
    ];
    let failures: Vec<String> = cases
        .iter()
        .flat_map(|(body, expected)| {
            let query = Query::from_json(&Json::parse(body).unwrap()).unwrap();
            let out = execute(&query, 2, &CancelToken::new()).unwrap();
            let result_frame = wirecodec::encode_result(&out).unwrap();
            [
                check(
                    body,
                    fnv1a(out.to_string_pretty().as_bytes()),
                    expected.body,
                ),
                check(
                    &format!("{body} (LW1 query frame)"),
                    fnv1a(&wirecodec::encode_query(&query)),
                    expected.query_frame,
                ),
                check(
                    &format!("{body} (LW1 result frame)"),
                    fnv1a(&result_frame),
                    expected.result_frame,
                ),
            ]
        })
        .flatten()
        .collect();
    assert!(
        failures.is_empty(),
        "served bodies changed:\n{}",
        failures.join("\n")
    );
}
