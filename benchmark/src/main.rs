//! `benchmark`: the end-to-end and per-layer benchmark of the levy-served
//! query path.
//!
//! ```text
//! benchmark [--seed N] [--seconds S] [--layers] [--repeat N] [--json PATH]
//! benchmark --workload NAME --seed N --seconds S --trace 0|1
//! benchmark --list
//! ```
//!
//! Without `--workload` every workload runs, each in a fresh child process
//! of this binary (so peak RSS and caches never leak between workloads),
//! and `--repeat N` prints the median and interquartile range of every
//! metric over N runs. With `--workload` one workload runs in this process
//! and the last line of standard output is its JSON result. `--trace 1`
//! (or `--layers`) reports per-layer metrics and a ranked "where the time
//! goes" table instead of the end-to-end metrics. Spans and temporary
//! cache directories go under `target/benchmark/`. The exit code is
//! non-zero when any correctness check fails.

mod layers;
mod loadgen;
mod metrics;
mod report;
mod serving;
mod spans;
mod stats;
mod sweep;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use levy_sim::Json;

use crate::metrics::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use crate::report::{Outcome, RunConfig};

/// Where spans and temporary cache directories are written.
const OUT_DIR: &str = "target/benchmark";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    list: bool,
    json: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        repeat: 1,
        list: false,
        json: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?.clone();
                if !WORKLOADS.iter().any(|(w, _)| *w == name) {
                    return Err(format!("unknown workload {name:?}"));
                }
                args.workload = Some(name);
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(args.seconds >= 1.0 && args.seconds <= 600.0) {
                    return Err("--seconds must lie in [1, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--layers" => args.trace = true,
            "--repeat" => {
                args.repeat = value()?.parse().map_err(|_| "--repeat takes an integer")?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--list" => args.list = true,
            "--json" => args.json = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        print!("{}", listing());
        return ExitCode::SUCCESS;
    }
    let passed = match &args.workload {
        Some(workload) => run_one(&args, workload),
        None => run_all(&args),
    };
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload and metric with its unit (and bound, end to end).
fn listing() -> String {
    let mut out = String::new();
    for (name, why) in WORKLOADS {
        out.push_str(&format!("workload {name}: {why}\n"));
    }
    for d in END_TO_END {
        let bound = d.bound.expect("end-to-end metrics carry a bound");
        out.push_str(&format!(
            "end_to_end {} {} better={} bound={bound}\n",
            d.name, d.unit, d.better
        ));
    }
    for d in PER_LAYER {
        out.push_str(&format!(
            "per_layer {} {} better={}\n",
            d.name, d.unit, d.better
        ));
    }
    out
}

/// Runs one workload in this process; prints the report, then the JSON
/// result as the last line. Returns whether every check passed.
fn run_one(args: &Args, workload: &str) -> bool {
    let config = RunConfig {
        workload: workload.to_owned(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        out_dir: PathBuf::from(OUT_DIR),
    };
    let mut out = Outcome::default();
    if config.trace {
        layers::measure(config.seed, &config.out_dir.join("tmp"), &mut out);
    }
    match workload {
        "sweep" => sweep::run(&config, &mut out),
        _ => serving::run_named(&config, &mut out),
    }
    out.require_reported(config.trace);
    let result = out.result_json(config.trace);
    if let Some(path) = &args.json {
        write_json(path, &result);
    }
    print!("{}", out.human(workload, config.trace));
    println!("{}", result.to_string_compact());
    out.correct()
}

fn write_json(path: &Path, json: &Json) {
    if let Err(e) = std::fs::write(path, json.to_string_pretty()) {
        eprintln!("benchmark: cannot write {}: {e}", path.display());
    }
}

/// Runs every workload `repeat` times, each in a child process, and
/// prints per-metric medians and spreads. Returns whether every run
/// passed its checks.
fn run_all(args: &Args) -> bool {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut passed = true;
    let mut runs = Vec::new();
    // (workload, metric) -> (unit, values over repeats)
    let mut values: BTreeMap<(usize, String), (String, Vec<f64>)> = BTreeMap::new();
    for rep in 0..args.repeat {
        for (index, (workload, _)) in WORKLOADS.iter().enumerate() {
            let output = Command::new(&exe)
                .args(["--workload", workload])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .output()
                .expect("spawn a workload child process");
            let stdout = String::from_utf8_lossy(&output.stdout);
            let mut lines: Vec<&str> = stdout.lines().collect();
            let result = lines.pop().and_then(|line| Json::parse(line).ok());
            for line in lines {
                println!("{line}");
            }
            let Some(result) = result.filter(|_| output.status.success()) else {
                eprintln!("benchmark: workload {workload} failed ({})", output.status);
                passed = false;
                continue;
            };
            if let Some(metrics) = result.get("metrics").and_then(Json::as_object) {
                for (name, metric) in metrics {
                    let value = metric.get("value").and_then(Json::as_f64).unwrap_or(0.0);
                    let unit = metric.get("unit").and_then(Json::as_str).unwrap_or("");
                    values
                        .entry((index, name.clone()))
                        .or_insert_with(|| (unit.to_owned(), Vec::new()))
                        .1
                        .push(value);
                }
            }
            runs.push(Json::obj([
                ("workload", Json::from(*workload)),
                ("rep", Json::from(rep)),
                ("result", result),
            ]));
        }
    }
    let mut summary: Vec<(String, Json)> = Vec::new();
    if args.repeat > 1 {
        println!(
            "summary over {} runs: workload metric median iqr/median unit",
            args.repeat
        );
    }
    for ((index, name), (unit, vals)) in &values {
        let workload = WORKLOADS[*index].0;
        let median = stats::median(vals);
        let spread =
            stats::quartiles(vals).map(|q| (q[2] - q[0]) / median.abs().max(f64::MIN_POSITIVE));
        if args.repeat > 1 {
            let spread_text = spread.map_or("n/a".to_owned(), |s| format!("{:.2}%", s * 100.0));
            println!("{workload} {name} {median} {spread_text} {unit}");
        }
        summary.push((
            format!("{workload}/{name}"),
            Json::obj([
                ("median", Json::from(median)),
                ("iqr_over_median", spread.map_or(Json::Null, Json::from)),
                ("unit", Json::from(unit.clone())),
                ("values", Json::arr(vals.iter().copied())),
            ]),
        ));
    }
    if let Some(path) = &args.json {
        write_json(
            path,
            &Json::obj([
                ("schema", Json::from("levy-benchmark/results-v1")),
                ("seed", Json::from(args.seed)),
                ("seconds", Json::from(args.seconds)),
                ("trace", Json::from(args.trace)),
                ("runs", Json::arr(runs)),
                ("summary", Json::Obj(summary)),
            ]),
        );
    }
    passed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_a_single_workload_run() {
        let args = parse_args(&argv(&[
            "--workload",
            "warm_zipf",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]))
        .expect("valid arguments");
        assert_eq!(args.workload.as_deref(), Some("warm_zipf"));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 12.0, true));
    }

    #[test]
    fn rejects_unknown_workloads_and_flags() {
        assert!(parse_args(&argv(&["--workload", "nope"])).is_err());
        assert!(parse_args(&argv(&["--frobnicate"])).is_err());
        assert!(parse_args(&argv(&["--trace", "2"])).is_err());
        assert!(parse_args(&argv(&["--seed"])).is_err());
    }

    #[test]
    fn listing_names_every_metric_with_its_unit() {
        let text = listing();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                text.lines()
                    .any(|l| l.contains(&format!(" {} {} ", d.name, d.unit))),
                "{} missing from --list",
                d.name
            );
        }
    }
}
