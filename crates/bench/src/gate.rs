//! Benchmark regression gate: diffs a fresh snapshot against the
//! committed `BENCH_*.json` files and reports per-check verdicts.
//!
//! The gate only compares quantities that are *host- and
//! scale-independent ratios* (engine-vs-scalar trial throughput, sampler
//! speedup, cache speedup, wire-vs-JSON replay speedup and compression,
//! dedup efficiency normalized by client count) plus three hard
//! invariants (cross-thread determinism, byte-identical cache replay,
//! exact wire-to-JSON transcode).
//! Absolute throughputs (trials/sec, req/sec) vary with the CI host and
//! are recorded in the snapshots but never gated on.
//!
//! The comparison itself is pure ([`gate_snapshots`]) so the failure
//! path is unit-testable without re-running any benchmark.

use std::fmt::Write as _;

use levy_sim::Json;

/// Relative regression allowed on ratio checks: a fresh ratio may be up
/// to 30% below the committed one before the gate fails.
pub const DEFAULT_TOLERANCE: f64 = 0.30;

/// The three snapshot documents, committed or fresh.
pub struct Snapshots {
    /// `BENCH_runner.json`.
    pub runner: Json,
    /// `BENCH_sampler.json`.
    pub sampler: Json,
    /// `BENCH_server.json`.
    pub server: Json,
}

/// One gated comparison.
pub struct Check {
    /// What was compared.
    pub name: String,
    /// Committed (baseline) value.
    pub committed: f64,
    /// Freshly measured value.
    pub fresh: f64,
    /// Smallest acceptable `fresh / committed`.
    pub min_ratio: f64,
    /// Verdict.
    pub passed: bool,
}

impl Check {
    fn ratio(&self) -> f64 {
        if self.committed.abs() < 1e-12 {
            return if self.fresh.abs() < 1e-12 {
                1.0
            } else {
                f64::INFINITY
            };
        }
        self.fresh / self.committed
    }
}

/// The gate's full verdict: ratio checks plus structural errors (missing
/// or malformed snapshot fields), which always fail the gate.
#[derive(Default)]
pub struct GateReport {
    /// Individual comparisons, in evaluation order.
    pub checks: Vec<Check>,
    /// Snapshot-shape problems (missing fields, wrong types).
    pub errors: Vec<String>,
}

impl GateReport {
    /// Whether every check passed and no structural error occurred.
    pub fn passed(&self) -> bool {
        self.errors.is_empty() && self.checks.iter().all(|c| c.passed)
    }

    /// Human-readable multi-line report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let name_width = self
            .checks
            .iter()
            .map(|c| c.name.len())
            .max()
            .unwrap_or(0)
            .max(5);
        for check in &self.checks {
            let verdict = if check.passed { "PASS" } else { "FAIL" };
            let _ = writeln!(
                out,
                "{verdict}  {:<name_width$}  committed {:>9.3}  fresh {:>9.3}  ratio {:>6.2} (min {:.2})",
                check.name,
                check.committed,
                check.fresh,
                check.ratio(),
                check.min_ratio,
            );
        }
        for error in &self.errors {
            let _ = writeln!(out, "ERROR {error}");
        }
        let _ = writeln!(
            out,
            "bench gate: {}",
            if self.passed() {
                "PASS (no regression beyond tolerance)"
            } else {
                "FAIL"
            }
        );
        out
    }

    fn ratio_check(&mut self, name: &str, committed: f64, fresh: f64, tolerance: f64) {
        let min_ratio = 1.0 - tolerance;
        let passed = committed.abs() < 1e-12 || fresh / committed >= min_ratio;
        self.checks.push(Check {
            name: name.to_owned(),
            committed,
            fresh,
            min_ratio,
            passed,
        });
    }

    fn invariant(&mut self, name: &str, holds: bool) {
        self.checks.push(Check {
            name: name.to_owned(),
            committed: 1.0,
            fresh: f64::from(u8::from(holds)),
            min_ratio: 1.0,
            passed: holds,
        });
    }
}

/// Walks a dotted path of object keys, returning the number at the end.
fn num(doc: &Json, path: &str, errors: &mut Vec<String>) -> Option<f64> {
    let mut node = doc;
    for key in path.split('.') {
        match node.get(key) {
            Some(next) => node = next,
            None => {
                errors.push(format!("missing snapshot field {path}"));
                return None;
            }
        }
    }
    match node.as_f64() {
        Some(v) => Some(v),
        None => {
            errors.push(format!("snapshot field {path} is not a number"));
            None
        }
    }
}

fn boolean(doc: &Json, path: &str, errors: &mut Vec<String>) -> Option<bool> {
    let mut node = doc;
    for key in path.split('.') {
        match node.get(key) {
            Some(next) => node = next,
            None => {
                errors.push(format!("missing snapshot field {path}"));
                return None;
            }
        }
    }
    match node.as_bool() {
        Some(v) => Some(v),
        None => {
            errors.push(format!("snapshot field {path} is not a bool"));
            None
        }
    }
}

/// Sampler speedup per α, as `(alpha, speedup)` rows.
fn sampler_speedups(doc: &Json, errors: &mut Vec<String>) -> Vec<(f64, f64)> {
    let Some(Json::Arr(rows)) = doc.get("per_alpha") else {
        errors.push("missing snapshot field per_alpha".to_owned());
        return Vec::new();
    };
    rows.iter()
        .filter_map(|row| {
            let alpha = row.get("alpha")?.as_f64()?;
            let speedup = row.get("speedup")?.as_f64()?;
            Some((alpha, speedup))
        })
        .collect()
}

/// Compares `fresh` against `committed`, allowing ratio checks to
/// regress by `tolerance` (e.g. `0.30` = 30%).
pub fn gate_snapshots(committed: &Snapshots, fresh: &Snapshots, tolerance: f64) -> GateReport {
    let mut report = GateReport::default();
    let mut errors = Vec::new();

    // Hard invariants on the fresh run: determinism and exact replay.
    if let Some(det) = boolean(&fresh.runner, "deterministic_across_threads", &mut errors) {
        report.invariant("runner determinism across threads", det);
    }
    if let Some(identical) = boolean(
        &fresh.server,
        "cached.bodies_byte_identical_to_cold",
        &mut errors,
    ) {
        report.invariant("cache replays byte-identical bodies", identical);
    }

    // Trial throughput: phase-engine-vs-step-exact speedup on the E1
    // α-sweep — a same-host ratio, so comparable across profiles.
    if let (Some(c), Some(f)) = (
        num(&committed.runner, "trial_throughput.speedup", &mut errors),
        num(&fresh.runner, "trial_throughput.speedup", &mut errors),
    ) {
        report.ratio_check("runner trial throughput speedup", c, f, tolerance);
    }

    // Sampler: hybrid-vs-Devroye speedup per α.
    let committed_rows = sampler_speedups(&committed.sampler, &mut errors);
    let fresh_rows = sampler_speedups(&fresh.sampler, &mut errors);
    for (alpha, c) in &committed_rows {
        match fresh_rows.iter().find(|(a, _)| a == alpha) {
            Some((_, f)) => {
                report.ratio_check(&format!("sampler speedup alpha={alpha}"), *c, *f, tolerance);
            }
            None => errors.push(format!("fresh sampler snapshot lacks alpha={alpha}")),
        }
    }

    // Server: cached-vs-cold throughput ratio, plus the wire-vs-JSON
    // representation ratios on the same cached path. Only comparable
    // when the per-query workload matches the committed one (the gate
    // profile keeps trials_per_query at committed scale for exactly
    // this — the encoded body sizes depend on it too).
    match (
        num(&committed.server, "workload.trials_per_query", &mut errors),
        num(&fresh.server, "workload.trials_per_query", &mut errors),
    ) {
        (Some(c), Some(f)) if c != f => {
            errors.push(format!(
                "server workloads are not comparable: committed trials_per_query {c}, fresh {f}"
            ));
        }
        _ => {
            if let (Some(c), Some(f)) = (
                num(&committed.server, "cache_speedup", &mut errors),
                num(&fresh.server, "cache_speedup", &mut errors),
            ) {
                report.ratio_check("server cache speedup", c, f, tolerance);
            }
            if let (Some(c), Some(f)) = (
                num(&committed.server, "wire.speedup", &mut errors),
                num(&fresh.server, "wire.speedup", &mut errors),
            ) {
                report.ratio_check("server wire speedup", c, f, tolerance);
            }
            if let (Some(c), Some(f)) = (
                num(&committed.server, "wire.compression", &mut errors),
                num(&fresh.server, "wire.compression", &mut errors),
            ) {
                report.ratio_check("server wire compression", c, f, tolerance);
            }
        }
    }

    // The binary representation must transcode back to the JSON bytes
    // exactly — the wire form is a re-encoding, not an approximation.
    if let Some(identical) = boolean(&fresh.server, "wire.transcode_identical", &mut errors) {
        report.invariant("wire transcode reproduces JSON bytes", identical);
    }

    // Dedup efficiency, normalized by each run's own client count so a
    // profile with fewer racing clients is not read as a regression.
    if let (Some(cf), Some(cc), Some(ff), Some(fc)) = (
        num(&committed.server, "dedup.factor", &mut errors),
        num(&committed.server, "dedup.concurrent_clients", &mut errors),
        num(&fresh.server, "dedup.factor", &mut errors),
        num(&fresh.server, "dedup.concurrent_clients", &mut errors),
    ) {
        report.ratio_check(
            "dedup efficiency (factor/clients)",
            cf / cc.max(1.0),
            ff / fc.max(1.0),
            tolerance,
        );
    }

    report.errors = errors;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshots(sampler_speedup: f64, cache_speedup: f64) -> Snapshots {
        let runner = Json::parse(
            r#"{"deterministic_across_threads": true,
                "trial_throughput": {"speedup": 2.0}}"#,
        )
        .unwrap();
        let sampler = Json::parse(&format!(
            r#"{{"per_alpha": [
                  {{"alpha": 2.2, "speedup": {sampler_speedup}}},
                  {{"alpha": 2.5, "speedup": {sampler_speedup}}}
                ]}}"#
        ))
        .unwrap();
        let server = Json::parse(&format!(
            r#"{{"workload": {{"trials_per_query": 300}},
                 "cached": {{"bodies_byte_identical_to_cold": true}},
                 "cache_speedup": {cache_speedup},
                 "wire": {{"speedup": 1.4, "compression": 3.0, "transcode_identical": true}},
                 "dedup": {{"concurrent_clients": 8, "simulations": 1, "factor": 8.0}}}}"#
        ))
        .unwrap();
        Snapshots {
            runner,
            sampler,
            server,
        }
    }

    #[test]
    fn identical_snapshots_pass() {
        let committed = snapshots(9.0, 60.0);
        let fresh = snapshots(9.0, 60.0);
        let report = gate_snapshots(&committed, &fresh, DEFAULT_TOLERANCE);
        assert!(report.passed(), "report:\n{}", report.render());
        assert!(report.render().contains("PASS"));
    }

    #[test]
    fn small_noise_within_tolerance_passes() {
        let committed = snapshots(9.0, 60.0);
        let fresh = snapshots(7.5, 45.0); // 20-25% down, under 30%
        assert!(gate_snapshots(&committed, &fresh, DEFAULT_TOLERANCE).passed());
    }

    #[test]
    fn injected_synthetic_regression_fails() {
        let committed = snapshots(9.0, 60.0);
        let fresh = snapshots(9.0, 30.0); // cache speedup halved
        let report = gate_snapshots(&committed, &fresh, DEFAULT_TOLERANCE);
        assert!(!report.passed());
        let rendered = report.render();
        assert!(
            rendered.contains("FAIL  server cache speedup"),
            "report names the regressed check:\n{rendered}"
        );
        assert!(rendered.contains("bench gate: FAIL"));
    }

    #[test]
    fn improvements_never_fail() {
        let committed = snapshots(9.0, 60.0);
        let fresh = snapshots(20.0, 120.0);
        assert!(gate_snapshots(&committed, &fresh, DEFAULT_TOLERANCE).passed());
    }

    #[test]
    fn broken_determinism_is_a_hard_failure() {
        let committed = snapshots(9.0, 60.0);
        let mut fresh = snapshots(9.0, 60.0);
        fresh.runner = Json::parse(
            r#"{"deterministic_across_threads": false,
                "trial_throughput": {"speedup": 99.0}}"#,
        )
        .unwrap();
        let report = gate_snapshots(&committed, &fresh, DEFAULT_TOLERANCE);
        assert!(!report.passed());
        assert!(report.render().contains("FAIL  runner determinism"));
    }

    #[test]
    fn trial_throughput_regression_fails() {
        let committed = snapshots(9.0, 60.0);
        let mut fresh = snapshots(9.0, 60.0);
        fresh.runner = Json::parse(
            r#"{"deterministic_across_threads": true,
                "trial_throughput": {"speedup": 0.5}}"#,
        )
        .unwrap();
        let report = gate_snapshots(&committed, &fresh, DEFAULT_TOLERANCE);
        assert!(!report.passed());
        assert!(report
            .render()
            .contains("FAIL  runner trial throughput speedup"));
    }

    #[test]
    fn missing_fields_are_structural_errors() {
        let committed = snapshots(9.0, 60.0);
        let mut fresh = snapshots(9.0, 60.0);
        fresh.server = Json::parse(r#"{"workload": {}}"#).unwrap();
        let report = gate_snapshots(&committed, &fresh, DEFAULT_TOLERANCE);
        assert!(!report.passed());
        assert!(!report.errors.is_empty());
        assert!(report.render().contains("ERROR"));
    }

    #[test]
    fn wire_regression_and_transcode_mismatch_fail() {
        let committed = snapshots(9.0, 60.0);
        // Wire replay speedup halved: a >30% ratio regression.
        let mut fresh = snapshots(9.0, 60.0);
        fresh.server = Json::parse(
            r#"{"workload": {"trials_per_query": 300},
                "cached": {"bodies_byte_identical_to_cold": true},
                "cache_speedup": 60.0,
                "wire": {"speedup": 0.6, "compression": 3.0, "transcode_identical": true},
                "dedup": {"concurrent_clients": 8, "simulations": 1, "factor": 8.0}}"#,
        )
        .unwrap();
        let report = gate_snapshots(&committed, &fresh, DEFAULT_TOLERANCE);
        assert!(!report.passed());
        assert!(report.render().contains("FAIL  server wire speedup"));

        // A lossy transcode is a hard failure regardless of ratios.
        let mut fresh = snapshots(9.0, 60.0);
        fresh.server = Json::parse(
            r#"{"workload": {"trials_per_query": 300},
                "cached": {"bodies_byte_identical_to_cold": true},
                "cache_speedup": 60.0,
                "wire": {"speedup": 9.9, "compression": 9.9, "transcode_identical": false},
                "dedup": {"concurrent_clients": 8, "simulations": 1, "factor": 8.0}}"#,
        )
        .unwrap();
        let report = gate_snapshots(&committed, &fresh, DEFAULT_TOLERANCE);
        assert!(!report.passed());
        assert!(report
            .render()
            .contains("FAIL  wire transcode reproduces JSON bytes"));
    }

    #[test]
    fn mismatched_server_workloads_refuse_to_compare() {
        let committed = snapshots(9.0, 60.0);
        let mut fresh = snapshots(9.0, 25.0);
        if let Json::Obj(pairs) = &mut fresh.server {
            for (k, v) in pairs.iter_mut() {
                if k == "workload" {
                    *v = Json::parse(r#"{"trials_per_query": 100}"#).unwrap();
                }
            }
        }
        let report = gate_snapshots(&committed, &fresh, DEFAULT_TOLERANCE);
        assert!(!report.passed());
        assert!(report.errors.iter().any(|e| e.contains("not comparable")));
    }
}
