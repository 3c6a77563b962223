//! The repo benchmark. See `benchmark/README.md` for the workloads, the
//! metrics, how they interact and how to use them for a performance
//! claim.
//!
//! Two ways in, one binary:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` measures one
//!   workload in this process and prints one JSON result as the last
//!   line of standard output (the acceptance driver's protocol);
//! * without `--trace`, every workload (or the one named) is measured in
//!   a child process of its own — so peak RSS and allocator state are
//!   that workload's — first untraced, then traced, and all metrics are
//!   printed by name; `--repeatability` does the whole set twice and
//!   compares.

mod layers;
mod metrics;
mod run;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use lazyctrl::obs::json::{parse, Value};

use crate::layers::host;
use crate::metrics::{Class, METRICS};
use crate::workloads::Workload;

/// `run_seconds` of `BENCHMARK.json`, the default for `--seconds`.
const DEFAULT_SECONDS: f64 = 10.0;
/// The seed used when none is given.
const DEFAULT_SEED: u64 = 7;

const USAGE: &str = "usage: lazyctrl-benchmark [--workload W] [--seed N] [--seconds S] \
[--trace 0|1] [--out FILE] [--out-dir DIR] [--repeatability]";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    out: Option<PathBuf>,
    out_dir: PathBuf,
    repeatability: bool,
}

fn parse_args() -> Result<Args, String> {
    // Build products live under the target directory; so do ours.
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        out: None,
        out_dir: target.join("benchmark"),
        repeatability: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--out" => args.out = Some(value()?.into()),
            "--out-dir" => args.out_dir = value()?.into(),
            "--repeatability" => args.repeatability = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.trace.is_some() && args.workload.is_none() {
        return Err("--trace needs --workload".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (args.trace, args.workload) {
        (Some(traced), Some(workload)) => measure_here(&args, workload, traced),
        _ => measure_in_children(&args),
    }
}

// ---- one workload, this process -------------------------------------

fn measure_here(args: &Args, workload: Workload, traced: bool) -> ExitCode {
    let opts = run::Options {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        traced,
        out_dir: args.out_dir.clone(),
    };
    println!(
        "workload {} seed {} trace {} — closed loop, one run at a time, one thread",
        workload.name(),
        args.seed,
        u8::from(traced)
    );
    println!("why {}", workload.why());
    println!("host {}", host::describe());
    let mut outcome = run::run(&opts);

    let metrics = match outcome.bag.to_json(workload, traced) {
        Ok(m) => m,
        Err(e) => {
            outcome.failed += 1;
            outcome.problems.push(e);
            Value::Obj(Vec::new())
        }
    };
    if let Value::Obj(pairs) = &metrics {
        for (name, m) in pairs {
            let value = m.get("value").and_then(Value::as_f64).unwrap_or(0.0);
            let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
            println!("{name:<44} {value:>18.6} {unit}");
        }
    }
    for (name, s) in &outcome.samples {
        println!(
            "  {name}: n={} min {:.6} q1 {:.6} median {:.6} q3 {:.6} max {:.6} (spread {:.2}%)",
            s.n,
            s.min,
            s.q1,
            s.median,
            s.q3,
            s.max,
            100.0 * s.spread()
        );
    }
    if let Some(fp) = outcome.report_fingerprint {
        println!("report_fingerprint {fp:#018x}");
    }
    if traced {
        println!(
            "spans {}",
            run::spans_path(&opts.out_dir, workload).display()
        );
    }
    for p in &outcome.problems {
        println!("FAILED CHECK: {p}");
    }
    println!(
        "checks: {} runs attempted, {} failed",
        outcome.attempted, outcome.failed
    );
    let correct = outcome.failed == 0;
    let result = Value::obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(outcome.attempted.max(1) as f64)),
        ("failed", Value::Num(outcome.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", result.to_json());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---- every workload, a child process each ---------------------------

/// What one workload's two child runs (untraced, traced) reported.
struct Row {
    workload: Workload,
    correct: bool,
    attempted: f64,
    failed: f64,
    fingerprint: Option<String>,
    /// Declared metric name → value, both runs merged.
    values: Vec<(String, f64)>,
}

impl Row {
    fn value(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// Measures `workload` in a child process and returns what its result
/// line said, echoing the rest of its output.
fn child(args: &Args, workload: Workload, traced: bool, row: &mut Row) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&args.out_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().ok_or("child printed nothing")?;
    for line in &lines {
        println!("{line}");
        if let Some(fp) = line.strip_prefix("report_fingerprint ") {
            row.fingerprint = Some(fp.to_owned());
        }
    }
    let result = parse(last).map_err(|e| format!("child's last line is not JSON ({e}): {last}"))?;
    row.correct &= output.status.success() && result.get("correct") == Some(&Value::Bool(true));
    row.attempted += result
        .get("attempted")
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    row.failed += result.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
    if let Some(Value::Obj(pairs)) = result.get("metrics") {
        for (name, m) in pairs {
            let v = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or("metric without a value")?;
            row.values.push((name.clone(), v));
        }
    }
    Ok(())
}

fn measure_set(args: &Args) -> Result<Vec<Row>, String> {
    let selected: Vec<Workload> = match args.workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let mut rows = Vec::new();
    for workload in selected {
        let mut row = Row {
            workload,
            correct: true,
            attempted: 0.0,
            failed: 0.0,
            fingerprint: None,
            values: Vec::new(),
        };
        for traced in [false, true] {
            child(args, workload, traced, &mut row)?;
            println!();
        }
        rows.push(row);
    }
    Ok(rows)
}

fn rows_json(args: &Args, rows: &[Row]) -> Value {
    let workloads = rows
        .iter()
        .map(|r| {
            let section = |end_to_end: bool| {
                Value::Obj(
                    METRICS
                        .iter()
                        .filter(|m| m.is_end_to_end() == end_to_end)
                        .filter_map(|m| Some((m.name.to_owned(), Value::Num(r.value(m.name)?))))
                        .collect(),
                )
            };
            Value::obj(vec![
                ("name", Value::Str(r.workload.name().to_owned())),
                ("correct", Value::Bool(r.correct)),
                ("attempted", Value::Num(r.attempted)),
                ("failed", Value::Num(r.failed)),
                (
                    "report_fingerprint",
                    r.fingerprint.clone().map_or(Value::Null, Value::Str),
                ),
                ("end_to_end", section(true)),
                ("per_layer", section(false)),
            ])
        })
        .collect();
    Value::obj(vec![
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        ("host", Value::Str(host::describe())),
        ("workloads", Value::Arr(workloads)),
    ])
}

/// Prints, per workload and metric, the two sets' values, their relative
/// gap and a verdict: end-to-end metrics against their own bound,
/// simulated statistics and exact counts for identity; host-time layer
/// metrics are shown, not judged. Returns the number of failures.
fn compare_sets(first: &[Row], second: &[Row]) -> usize {
    let mut failures = 0;
    for (a, b) in first.iter().zip(second) {
        println!("== repeatability: {}", a.workload.name());
        if a.fingerprint != b.fingerprint {
            println!(
                "report_fingerprint {:?} vs {:?} FAIL",
                a.fingerprint, b.fingerprint
            );
            failures += 1;
        }
        for m in METRICS.iter().filter(|m| m.applies_to(a.workload)) {
            let (Some(x), Some(y)) = (a.value(m.name), b.value(m.name)) else {
                println!("{:<44} missing FAIL", m.name);
                failures += 1;
                continue;
            };
            let scale = x.abs().max(y.abs());
            let gap = if scale > 0.0 {
                (x - y).abs() / scale
            } else {
                0.0
            };
            let verdict = match m.class {
                Class::EndToEnd { bound } if gap <= bound => "PASS",
                Class::Exact if x == y => "PASS",
                Class::Layer => "-",
                _ => {
                    failures += 1;
                    "FAIL"
                }
            };
            println!(
                "{:<44} {x:>16.6} {y:>16.6} {:<6} gap {:>6.2}% {verdict}",
                m.name,
                m.unit,
                100.0 * gap
            );
        }
    }
    failures
}

fn measure_in_children(args: &Args) -> ExitCode {
    let sets = if args.repeatability { 2 } else { 1 };
    let mut measured = Vec::new();
    for _ in 0..sets {
        match measure_set(args) {
            Ok(rows) => measured.push(rows),
            Err(e) => {
                eprintln!("benchmark failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut failures = measured.iter().flatten().filter(|r| !r.correct).count();
    if let [first, second] = &measured[..] {
        failures += compare_sets(first, second);
    }
    if let Some(path) = &args.out {
        let doc = rows_json(args, measured.last().expect("at least one set"));
        if let Err(e) = std::fs::write(path, doc.to_json_pretty()) {
            eprintln!("cannot write {}: {e}", path.display());
            failures += 1;
        }
    }
    for r in measured.iter().flatten() {
        println!(
            "{:<20} {} ({} runs attempted, {} failed)",
            r.workload.name(),
            if r.correct { "correct" } else { "INCORRECT" },
            r.attempted,
            r.failed
        );
    }
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{failures} failure(s)");
        ExitCode::FAILURE
    }
}
