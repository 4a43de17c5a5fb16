//! The benchmark's declared surface: workloads and every metric with its
//! unit, direction and regression bound. `--list` prints it, and a test
//! holds `BENCHMARK.json` to it so the two cannot drift apart.

/// One metric as declared.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decl {
    /// Metric name as printed and as keyed in the result JSON.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`: which direction is an improvement.
    pub better: &'static str,
    /// End-to-end only: the share of the baseline median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Decl {
    Decl {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Decl {
    Decl {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Seconds one run measures by default (the `--seconds` a run gets).
pub const RUN_SECONDS: u64 = 15;

/// Workload names and why each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "sweep",
        "library-only E1/E6 sweep cells on 2 threads: sampler, phase engine and trial runner with no serving layer",
    ),
    (
        "cold_mix",
        "one node, every query a fresh seed over four E1/E6/E7/E8 shapes: the engine and the job queue do the work",
    ),
    (
        "warm_zipf",
        "one node, Zipf replays of 1024 pre-warmed cheap keys over an 8x smaller memory tier, half JSON half LW1 wire",
    ),
    (
        "cluster_mix",
        "three-node ring: Zipf replays warmed at their homes plus 20% cold keys, entered at a seeded node (peek, forward)",
    ),
];

/// What a user of the system sees; reported by every workload.
pub const END_TO_END: &[Decl] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("p50_ms", "ms", "lower", 0.25),
    e2e("p90_ms", "ms", "lower", 0.25),
    e2e("capacity_rps", "1/s", "higher", 0.25),
    e2e("rss_peak_mb", "MB", "lower", 0.1),
];

/// Single-layer numbers, reported by every workload's traced run: each
/// times a public function of one layer from outside, on fixed seeded
/// inputs, so every run of every workload measures all of them. The
/// span-derived numbers of a traced run (self times, latency shares, hit
/// ratios, tracing overhead) are report lines of the serving workloads
/// that enter those layers, not metrics.
pub const PER_LAYER: &[Decl] = &[
    layer("levy_rng.sample_ns", "ns", "lower"),
    layer("levy_rng.untabled_sample_ns", "ns", "lower"),
    layer("levy_walks.walk_trial_us", "us", "lower"),
    layer("levy_walks.parallel_trial_us", "us", "lower"),
    layer("levy_walks.censored_ratio", "ratio", "lower"),
    layer("levy_sim.trials_per_s_1t", "1/s", "higher"),
    layer("levy_sim.scaling_2t", "x", "higher"),
    layer("levy_served.engine.execute_ms", "ms", "lower"),
    layer("levy_cluster.home_ns", "ns", "lower"),
    layer("levy_served.request.parse_json_us", "us", "lower"),
    layer("levy_served.request.parse_wire_us", "us", "lower"),
    layer("levy_served.cache.get_mem_us", "us", "lower"),
    layer("levy_served.cache.get_disk_us", "us", "lower"),
    layer("levy_served.cache.put_us", "us", "lower"),
    layer("levy_served.wirecodec.encode_result_us", "us", "lower"),
    layer("levy_served.wirecodec.decode_result_us", "us", "lower"),
    layer("levy_served.http.exchange_us", "us", "lower"),
    layer("levy_obs.trace_finish_us", "us", "lower"),
];

/// The declaration of `name`, end-to-end or per-layer.
pub fn decl(name: &str) -> Option<&'static Decl> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use levy_sim::Json;

    use super::*;

    fn text(json: &Json, key: &str) -> String {
        json.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{key} is a string"))
            .to_owned()
    }

    fn check(declared: &[Decl], listed: &[Json], bounded: bool) {
        assert_eq!(declared.len(), listed.len(), "metric count");
        for (decl, json) in declared.iter().zip(listed) {
            assert_eq!(text(json, "name"), decl.name);
            assert_eq!(text(json, "unit"), decl.unit, "{}", decl.name);
            assert_eq!(text(json, "better"), decl.better, "{}", decl.name);
            let bound = json.get("bound").and_then(Json::as_f64);
            assert_eq!(bound, decl.bound, "{}", decl.name);
            assert_eq!(bound.is_some(), bounded, "{}", decl.name);
        }
    }

    #[test]
    fn benchmark_json_matches_the_declared_surface() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text_of = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let spec = Json::parse(&text_of).expect("BENCHMARK.json parses");
        let array = |key: &str| {
            spec.get(key)
                .and_then(Json::as_array)
                .unwrap_or_else(|| panic!("{key} is an array"))
                .to_vec()
        };
        let workloads = array("workloads");
        let names: Vec<String> = workloads.iter().map(|w| text(w, "name")).collect();
        let declared: Vec<&str> = WORKLOADS.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, declared);
        for (json, (_, why)) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(text(json, "why"), *why);
        }
        check(END_TO_END, &array("end_to_end"), true);
        check(PER_LAYER, &array("per_layer"), false);
        assert_eq!(
            spec.get("run_seconds").and_then(Json::as_u64),
            Some(RUN_SECONDS)
        );
        let setup = decl("setup_s").expect("setup_s is declared");
        let largest = END_TO_END
            .iter()
            .filter_map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "setup_s carries the largest bound"
        );
    }
}
