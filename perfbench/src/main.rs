//! The reference benchmark: decisions per second of a durable
//! multi-height ledger end to end, attributed layer by layer. README.md
//! in this directory has the workloads, the metrics and how to read them.
//!
//! `--workload NAME` runs one workload in this process and prints its
//! result line — that is what `BENCHMARK.json`'s command does. Without
//! it, the command re-executes itself once per workload and mode, one
//! child at a time, so peak memory and allocator state are per workload.

mod hand;
mod json;
mod metrics;
mod rng;
mod sharded;
mod solo;
mod span;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use json::Json;
use metrics::{Outcome, END_TO_END, EXACT, WORKLOADS};

/// The contract this benchmark is held to; the bounds `--repeat` checks
/// against are read from here.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

const USAGE: &str = "usage: perfbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--smoke] [--repeat N]";

pub struct Args {
    workload: Option<String>,
    pub seed: u64,
    /// How long one run measures.
    pub seconds: f64,
    pub trace: bool,
    /// The minimum that still exercises every span: one instance, no
    /// time budget.
    pub smoke: bool,
    repeat: usize,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let run_seconds = Json::parse(BENCHMARK_JSON)?
            .get("run_seconds")
            .and_then(Json::num)
            .ok_or("BENCHMARK.json has no run_seconds")?;
        let mut args = Args {
            workload: None,
            seed: 1,
            seconds: run_seconds,
            trace: false,
            smoke: false,
            repeat: 1,
        };
        while let Some(flag) = argv.next() {
            let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
            let bad = |v: String| format!("bad value `{v}` for {flag}");
            match flag.as_str() {
                "--workload" => {
                    let w = value()?;
                    if !WORKLOADS.contains(&w.as_str()) {
                        return Err(format!("unknown workload `{w}`; one of {WORKLOADS:?}"));
                    }
                    args.workload = Some(w);
                }
                "--seed" => args.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
                "--seconds" => {
                    args.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(bad(v.into())),
                    }
                }
                "--repeat" => {
                    args.repeat = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                    if args.repeat == 0 {
                        return Err("--repeat must be at least 1".into());
                    }
                }
                "--smoke" => args.smoke = true,
                _ => return Err(format!("unknown argument `{flag}`")),
            }
        }
        Ok(args)
    }

    pub fn budget(&self) -> Duration {
        if self.smoke {
            Duration::ZERO
        } else {
            Duration::from_secs_f64(self.seconds)
        }
    }
}

/// A divergence or a broken environment: the numbers would be
/// meaningless, so no result line is printed.
pub fn die(why: &str) -> ! {
    eprintln!("perfbench: {why}");
    std::process::exit(1)
}

/// `VmHWM` of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        });
    match kb {
        Some(kb) => kb / 1024.0,
        None => die("cannot read VmHWM from /proc/self/status"),
    }
}

/// How often set-up is repeated; `setup_s` is the median.
const SETUP_REPS: usize = 31;

/// `setup_s`: `set_up` builds everything the first tick of the first
/// instance needs and runs that tick — where whatever is set up lazily
/// gets set up. Every repetition is thrown away; the timed loop builds
/// its instances itself, as a client running one after another would.
pub fn median_setup_s(mut set_up: impl FnMut()) -> f64 {
    let seconds: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t0 = Instant::now();
            set_up();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&seconds)
}

/// Instances back to back — closed loop, one client — until `budget` has
/// passed and `floor` of them are done. Also returns `VmHWM` as it stood
/// when the floor was reached: the same work on any machine, and before
/// the samples this benchmark keeps of the later instances weigh in.
pub fn back_to_back<T>(
    budget: Duration,
    floor: usize,
    mut run: impl FnMut(usize) -> T,
) -> (Vec<T>, f64) {
    let started = Instant::now();
    let mut runs = Vec::new();
    let mut peak_rss = 0.0;
    while runs.len() < floor || started.elapsed() < budget {
        runs.push(run(runs.len()));
        if runs.len() == floor {
            peak_rss = peak_rss_mb();
        }
    }
    (runs, peak_rss)
}

/// Where the traced run leaves its spans — inside this package's build
/// directory, which `.gitignore` names.
pub fn trace_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target/trace")
        .join(format!("trace_{workload}.json"))
}

/// Runs one workload in this process.
fn run_workload(workload: &str, args: &Args) -> Outcome {
    match workload {
        "ledger_bounded" => solo::run(workload, || workloads::ledger_bounded(false), args),
        "ledger_faithful" => solo::run(workload, workloads::ledger_faithful, args),
        "ledger_crash" => solo::run(workload, || workloads::ledger_bounded(true), args),
        "fabric_teig" => solo::run(workload, workloads::fabric_teig, args),
        "sharded_adverse" => sharded::run(args),
        _ => die(&format!("unknown workload `{workload}`")),
    }
}

/// What a child's result line said.
struct ChildResult {
    attempted: f64,
    failed: f64,
    metrics: Vec<(String, f64, String)>,
    /// The `decisions_digest` line, if the workload prints one.
    digest: Option<String>,
    /// Where the child says it wrote its spans.
    spans: Option<String>,
}

/// Re-executes this program for one workload and mode and waits for it.
fn run_child(workload: &str, trace: bool, args: &Args) -> ChildResult {
    let exe = std::env::current_exe().unwrap_or_else(|e| die(&format!("no current_exe: {e}")));
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .unwrap_or_else(|e| die(&format!("cannot run the {workload} child: {e}")));
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        die(&format!("{workload} (trace {trace}) failed:\n{stdout}"));
    }
    let parsed = stdout.lines().last().map(Json::parse);
    let Some(Ok(line)) = parsed else {
        die(&format!("{workload}: no result line in:\n{stdout}"));
    };
    let num = |key: &str| line.get(key).and_then(Json::num).unwrap_or(f64::NAN);
    let metrics = line.get("metrics").map_or(&[][..], Json::fields);
    ChildResult {
        attempted: num("attempted"),
        failed: num("failed"),
        metrics: metrics
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Json::num).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(Json::str).unwrap_or("");
                (name.clone(), value, unit.to_string())
            })
            .collect(),
        digest: stdout
            .lines()
            .find_map(|l| l.split("decisions_digest ").nth(1))
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_string),
        spans: stdout
            .lines()
            .find_map(|l| l.split("spans written to ").nth(1))
            .map(str::to_string),
    }
}

/// One table: a row per metric, a column per workload.
fn print_table(title: &str, results: &[ChildResult]) {
    println!("\n== {title} ==");
    print!("{:<38}{:<7}", "metric", "unit");
    for w in WORKLOADS {
        print!("{w:>17}");
    }
    println!();
    for (i, (name, _, unit)) in results[0].metrics.iter().enumerate() {
        print!("{name:<38}{unit:<7}");
        for r in results {
            print!("{:>17.6}", r.metrics[i].1);
        }
        println!();
    }
    print!("{:<38}{:<7}", "failed_share", "ratio");
    for r in results {
        print!("{:>17.6}", r.failed / r.attempted);
    }
    println!();
}

/// One set: every workload end to end. `ledger_crash` must decide —
/// value and round — exactly as `ledger_bounded` under the same seed.
fn run_set(trace: bool, args: &Args) -> Vec<ChildResult> {
    let results: Vec<ChildResult> = WORKLOADS
        .iter()
        .map(|w| run_child(w, trace, args))
        .collect();
    if !trace {
        let digest = |w: &str| {
            let i = WORKLOADS.iter().position(|x| *x == w).expect("a workload");
            results[i].digest.clone()
        };
        let (bounded, crash) = (digest("ledger_bounded"), digest("ledger_crash"));
        if bounded.is_none() || bounded != crash {
            die(&format!(
                "ledger_crash decided differently from ledger_bounded: {crash:?} vs {bounded:?}"
            ));
        }
    }
    results
}

/// The bound `BENCHMARK.json` gives each end-to-end metric, in
/// `END_TO_END`'s order.
fn bounds() -> Vec<f64> {
    let contract = Json::parse(BENCHMARK_JSON).unwrap_or_else(|e| die(&e));
    let specs = contract.get("end_to_end").map_or(&[][..], Json::items);
    END_TO_END
        .iter()
        .map(|(metric, _)| {
            specs
                .iter()
                .find(|m| m.get("name").and_then(Json::str) == Some(metric))
                .and_then(|m| m.get("bound"))
                .and_then(Json::num)
                .unwrap_or_else(|| die(&format!("BENCHMARK.json gives no bound for {metric}")))
        })
        .collect()
}

/// `--repeat N`: the whole end-to-end set N times. Prints per metric the
/// median, the quartiles and their spread, and fails if the first and the
/// second half of the sets disagree by more than the metric's bound —
/// exact metrics must be identical in every set.
fn repeat(args: &Args) {
    let sets: Vec<Vec<ChildResult>> = (0..args.repeat)
        .map(|i| {
            println!("set {} of {}", i + 1, args.repeat);
            run_set(false, args)
        })
        .collect();
    let bounds = bounds();
    let mut disagreements = 0;
    println!(
        "\n{:<17}{:<22}{:>17}{:>17}{:>17}{:>9}  verdict",
        "workload", "metric", "q1", "median", "q3", "spread"
    );
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for (m, (metric, _)) in END_TO_END.iter().enumerate() {
            let values: Vec<f64> = sets.iter().map(|s| s[w].metrics[m].1).collect();
            let (first, second) = values.split_at(values.len() / 2);
            let (a, b) = (stats::median(first), stats::median(second));
            let apart = (a - b).abs() / a.abs().min(b.abs());
            let ok = if EXACT.contains(metric) {
                values.iter().all(|v| *v == values[0])
            } else {
                apart <= bounds[m]
            };
            disagreements += usize::from(!ok);
            let [q1, q2, q3] = stats::quartiles(&values);
            println!(
                "{workload:<17}{metric:<22}{q1:>17.6}{q2:>17.6}{q3:>17.6}{:>9.4}  {}",
                stats::spread(&values),
                if ok { "ok" } else { "DISAGREES" }
            );
        }
    }
    if disagreements > 0 {
        die(&format!(
            "{disagreements} metrics disagree between the sets"
        ));
    }
}

fn main() {
    let args =
        Args::parse(std::env::args().skip(1)).unwrap_or_else(|e| die(&format!("{e}\n{USAGE}")));
    if let Some(workload) = &args.workload {
        let outcome = run_workload(workload, &args);
        for (name, unit, value) in outcome.metrics() {
            println!("{workload}: {name} = {value} {unit}");
        }
        println!("{}", outcome.result_line());
    } else if args.repeat > 1 {
        repeat(&args);
    } else {
        let end_to_end = run_set(false, &args);
        let per_layer = run_set(true, &args);
        print_table(
            &format!(
                "end to end (seed {}, {} s per run)",
                args.seed, args.seconds
            ),
            &end_to_end,
        );
        print_table("per layer (traced run)", &per_layer);
        for path in per_layer.iter().filter_map(|r| r.spans.as_ref()) {
            println!("spans: {path}");
        }
        let failed: f64 = end_to_end.iter().chain(&per_layer).map(|r| r.failed).sum();
        if failed > 0.0 {
            die(&format!("{failed} instances failed"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_ok(names: &[&str]) {
        for name in names {
            assert!(!name.is_empty() && name.len() <= 64, "{name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name} must match [A-Za-z0-9_.-]+"
            );
        }
    }

    fn contract_names(contract: &Json, key: &str) -> Vec<String> {
        contract
            .get(key)
            .expect(key)
            .items()
            .iter()
            .map(|m| m.get("name").and_then(Json::str).expect("name").to_string())
            .collect()
    }

    /// A `--smoke` pass per workload and mode: the printed workload and
    /// metric names and units are exactly those of `BENCHMARK.json`.
    #[test]
    fn smoke_prints_exactly_the_contracts_names() {
        let contract = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        assert_eq!(contract_names(&contract, "workloads"), WORKLOADS);
        names_ok(&WORKLOADS);
        for workload in WORKLOADS {
            for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
                let args = Args {
                    workload: Some(workload.to_string()),
                    seed: 3,
                    seconds: 1.0,
                    trace,
                    smoke: true,
                    repeat: 1,
                };
                let outcome = run_workload(workload, &args);
                assert_eq!(outcome.failed, 0, "{workload}");
                let line = Json::parse(&outcome.result_line()).expect("result");
                let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                let printed = line.get("metrics").expect("metrics").fields();
                let names: Vec<&str> = printed.iter().map(|(k, _)| k.as_str()).collect();
                names_ok(&names);
                assert_eq!(names, contract_names(&contract, key), "{workload} {key}");
                for ((name, m), spec) in printed.iter().zip(contract.get(key).unwrap().items()) {
                    assert_eq!(m.get("unit"), spec.get("unit"), "{name}");
                    let v = m.get("value").and_then(Json::num).expect("a number");
                    assert!(v.is_finite(), "{workload} {name}");
                    assert!(trace || v > 0.0, "{workload} {name} must never be 0");
                }
            }
        }
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let a = parse("--workload fabric_teig --seed 7 --seconds 2.5 --trace 1").unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (7, 2.5, true));
        assert_eq!(a.workload.as_deref(), Some("fabric_teig"));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--seed").is_err());
    }
}
