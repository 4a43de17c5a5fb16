//! What one workload run measured, and how it is printed: human-readable
//! `workload metric value unit` lines, then the one-line JSON result.

use std::path::PathBuf;

use levy_sim::Json;

use crate::metrics::{decl, END_TO_END, PER_LAYER};

/// Failed checks printed one per line; the rest are counted.
const MAX_FAILURE_LINES: usize = 20;

/// How one workload run is parameterized.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Seconds the run measures.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Where spans and temporary cache directories go.
    pub out_dir: PathBuf,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests or library calls, every phase).
    pub attempted: u64,
    /// Operations that failed, were refused, or returned wrong bytes.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    metrics: Vec<(&'static str, f64)>,
    /// Free-form detail lines (sample counts, p99, generator lateness).
    pub notes: Vec<String>,
    /// Ranked "where the time goes" tables: title, (layer, share) rows.
    pub ranks: Vec<(String, Vec<(String, f64)>)>,
}

impl Outcome {
    /// Records a declared metric.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        assert!(decl(name).is_some(), "undeclared metric {name}");
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    /// A recorded metric.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Fails the run for every metric it should report but did not
    /// measure: a missing number is never reported as zero.
    pub fn require_reported(&mut self, trace: bool) {
        let declared = if trace { PER_LAYER } else { END_TO_END };
        for d in declared {
            if self.value(d.name).is_none() {
                self.fail(format!("metric {} was not measured", d.name));
            }
        }
    }

    /// Counts one failed operation and says why.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// Adds a detail line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Adds a ranked table, sorting rows by descending share.
    pub fn rank(&mut self, title: &str, mut rows: Vec<(String, f64)>) {
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        self.ranks.push((title.to_owned(), rows));
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    /// The metrics this run reports: every end-to-end metric, or with
    /// `trace` every per-layer metric, in declaration order.
    pub fn reported(&self, trace: bool) -> Vec<(&'static str, &'static str, f64)> {
        let declared = if trace { PER_LAYER } else { END_TO_END };
        declared
            .iter()
            .filter_map(|d| Some((d.name, d.unit, self.value(d.name)?)))
            .collect()
    }

    /// The human-readable report: failures, notes, ranked tables, then
    /// one `workload metric value unit` line per reported metric.
    pub fn human(&self, workload: &str, trace: bool) -> String {
        let mut out = String::new();
        for failure in self.failures.iter().take(MAX_FAILURE_LINES) {
            out.push_str(&format!("{workload} FAILED {failure}\n"));
        }
        if self.failures.len() > MAX_FAILURE_LINES {
            out.push_str(&format!(
                "{workload} FAILED ... and {} more\n",
                self.failures.len() - MAX_FAILURE_LINES
            ));
        }
        for note in &self.notes {
            out.push_str(&format!("{workload} note {note}\n"));
        }
        for (title, rows) in &self.ranks {
            out.push_str(&format!("{workload} where the time goes: {title}\n"));
            for (i, (layer, share)) in rows.iter().enumerate() {
                out.push_str(&format!(
                    "{workload}   {:>2}. {:>6.2}%  {layer}\n",
                    i + 1,
                    share * 100.0
                ));
            }
        }
        for (name, unit, value) in self.reported(trace) {
            out.push_str(&format!("{workload} {name} {value} {unit}\n"));
        }
        out
    }

    /// The one-line result object the benchmark ends its output with.
    pub fn result_json(&self, trace: bool) -> Json {
        let metrics = self.reported(trace).into_iter().map(|(name, unit, value)| {
            (
                name,
                Json::obj([("value", Json::from(value)), ("unit", Json::from(unit))]),
            )
        });
        Json::obj([
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.attempted.max(1))),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
