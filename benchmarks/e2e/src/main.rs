//! The repository's end-to-end benchmark.
//!
//! ```text
//! ptolemy-e2e-bench run [--workload W] [--seed N] [--seconds S]
//!                       [--trace 0|1 | --traced] [--smoke] [--out FILE]
//! ptolemy-e2e-bench compare A.json B.json [--bounds BENCHMARK.json]
//! ```
//!
//! `run --workload W` measures one workload in this process and prints, as
//! its last line, the result object `BENCHMARK.json`'s contract describes.
//! `run` without `--workload` runs every workload (each pass in its own child
//! process), prints every metric and writes one result file.  See the README.

mod compare;
mod fixture;
mod json;
mod layers;
mod openloop;
mod oracle;
mod report;
mod run;
mod sampler;
mod spans;
mod stats;
mod workloads;

use std::process::{Command, ExitCode};

use run::{MIN_SEGMENTS, OUT_DIR};

/// Result alias: errors come from every product crate, so they are boxed.
pub type BenchResult<T> = Result<T, Box<dyn std::error::Error>>;

/// Default `--seed`.
const DEFAULT_SEED: u64 = 0x5EED;

/// Default `--seconds` (`run_seconds` in `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;

/// Full set-ups per untraced run; `setup_s` is the fastest.
const SETUPS: usize = 3;

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    out: Option<String>,
}

fn parse_seed(text: &str) -> Result<u64, String> {
    let parsed = match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.map_err(|_| format!("bad --seed {text}"))
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        smoke: false,
        out: None,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.to_string()),
            "--seed" => parsed.seed = parse_seed(value()?)?,
            "--seconds" => {
                parsed.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("bad --seconds")?;
            }
            "--trace" => {
                parsed.traced = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace {other}")),
                }
            }
            "--traced" => parsed.traced = true,
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = Some(value()?.to_string()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// Measures one workload in this process.
fn run_one(args: &RunArgs, name: &str) -> BenchResult<bool> {
    let workload = workloads::find(name).ok_or_else(|| {
        let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })?;
    let options = run::Options {
        workload,
        seed: args.seed,
        // A smoke run is one short segment after a single set-up.
        seconds: if args.smoke { 1.0 } else { args.seconds },
        traced: args.traced,
        // Otherwise one segment per second of `--seconds`.
        segments: if args.smoke {
            1
        } else {
            (args.seconds.round() as usize).max(MIN_SEGMENTS)
        },
        setups: if args.smoke || args.traced { 1 } else { SETUPS },
    };
    let outcome = run::run(&options)?;
    report::print_human(workload.name, &outcome);
    if let Some(path) = &args.out {
        // The parent of an all-workloads run reads both groups from here.
        let per_layer = if args.traced {
            report::per_layer_json(&outcome)?
        } else {
            "{}".into()
        };
        std::fs::write(
            path,
            format!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"checksum\": \"{:016x}\", \
                 \"end_to_end\": {}, \"per_layer\": {per_layer}}}\n",
                outcome.correct,
                outcome.attempted,
                outcome.failed,
                outcome.checksum,
                report::end_to_end_json(&outcome)?,
            ),
        )?;
    }
    println!("{}", report::result_line(&outcome, args.traced)?);
    Ok(outcome.correct)
}

/// Runs every workload, each pass in its own child process, and writes one
/// result file.  Returns whether every served verdict was right.
fn run_all(args: &RunArgs) -> BenchResult<bool> {
    let exe = std::env::current_exe()?;
    std::fs::create_dir_all(OUT_DIR)?;
    let mut all_correct = true;
    let mut sections = Vec::new();
    for workload in &workloads::WORKLOADS {
        // A smoke run is the untraced pass only; otherwise the end-to-end
        // metrics come from the untraced pass and the per-layer ones from the
        // traced pass.
        let passes: &[bool] = if args.smoke { &[false] } else { &[false, true] };
        let mut files = Vec::new();
        for &traced in passes {
            let file = format!(
                "{OUT_DIR}/{}_{}.json",
                workload.name,
                if traced { "traced" } else { "untraced" }
            );
            let mut child = Command::new(&exe);
            child
                .args(["run", "--workload", workload.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .args(["--out", &file]);
            if args.smoke {
                child.arg("--smoke");
            }
            let status = child.status()?;
            all_correct &= status.success();
            files.push(std::fs::read_to_string(&file).map_err(|e| format!("{file}: {e}"))?);
        }
        // End-to-end metrics and counts from the untraced pass, per-layer
        // metrics from the traced one, `correct` only if both were.
        let passes: Vec<json::Value> = files
            .iter()
            .map(|text| json::parse(text))
            .collect::<Result<_, _>>()?;
        let (untraced, traced) = (&passes[0], &passes[passes.len() - 1]);
        let field = |pass: &json::Value, key: &str| -> BenchResult<(String, json::Value)> {
            let value = pass
                .get(key)
                .ok_or_else(|| format!("child result has no {key}"))?;
            Ok((key.to_string(), value.clone()))
        };
        let correct = passes
            .iter()
            .all(|pass| pass.get("correct") == Some(&json::Value::Bool(true)));
        sections.push((
            workload.name.to_string(),
            json::Value::Object(vec![
                ("correct".to_string(), json::Value::Bool(correct)),
                field(untraced, "attempted")?,
                field(untraced, "failed")?,
                field(untraced, "checksum")?,
                field(untraced, "end_to_end")?,
                field(traced, "per_layer")?,
            ]),
        ));
    }
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| format!("{OUT_DIR}/result.json"));
    std::fs::write(
        &out,
        format!(
            "{}\n",
            json::Value::Object(vec![
                ("seed".to_string(), json::Value::Number(args.seed as f64)),
                ("seconds".to_string(), json::Value::Number(args.seconds)),
                ("workloads".to_string(), json::Value::Object(sections)),
            ])
        ),
    )?;
    println!("results written to {out}");
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome: BenchResult<bool> =
        match args.first().map(String::as_str) {
            Some("run") => parse_run_args(&args[1..])
                .map_err(Into::into)
                .and_then(|parsed| match parsed.workload.clone() {
                    Some(name) => run_one(&parsed, &name),
                    None => run_all(&parsed),
                }),
            Some("compare") if args.len() >= 3 => {
                let bounds = match args.get(3).map(String::as_str) {
                    Some("--bounds") => args.get(4).cloned(),
                    _ => None,
                };
                compare::compare(
                    &args[1],
                    &args[2],
                    bounds.as_deref().unwrap_or("BENCHMARK.json"),
                )
                .map(|regressed| regressed == 0)
            }
            _ => Err(
                "usage: run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--traced] \
                  [--smoke] [--out FILE] | compare A.json B.json [--bounds BENCHMARK.json]"
                    .into(),
            ),
        };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
