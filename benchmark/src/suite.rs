//! `--all`: the whole set from one command. Each workload runs in its
//! own child process (so `peak_rss_mb` is that workload's alone and no
//! allocator state leaks between them); the parent collects the result
//! lines, prints one table, writes a result file with host metadata and,
//! under `--repeat`, compares the runs against the benchmark's own
//! bounds.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};

use crate::host;
use crate::json::{self, Json};
use crate::run::out_dir;
use crate::spec;
use crate::stats::{breaches, worsening};
use crate::workloads::{Scale, NAMES};

#[derive(Debug, Clone)]
pub struct SuiteOptions {
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
    pub trace: bool,
    pub repeat: u32,
}

/// One child run, parsed back.
#[derive(Debug, Clone)]
pub struct ChildRun {
    pub workload: String,
    pub result: Json,
    pub info: Json,
}

impl ChildRun {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.result
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_f64()
    }

    pub fn digest(&self) -> Option<&str> {
        self.info.get("virt_digest")?.as_str()
    }
}

/// Splits a child's standard output into its info object and its result
/// line (the last line).
///
/// # Errors
///
/// A message when either line is missing or malformed.
pub fn parse_child_output(stdout: &str) -> Result<(Json, Json), String> {
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("no output")?;
    let result = json::parse(last).map_err(|e| format!("result line: {e}"))?;
    for key in ["correct", "attempted", "failed", "metrics"] {
        result
            .get(key)
            .ok_or_else(|| format!("result line lacks `{key}`"))?;
    }
    let info = stdout
        .lines()
        .find_map(|l| l.strip_prefix("INFO "))
        .ok_or("no INFO line")
        .and_then(|text| json::parse(text).map_err(|_| "INFO line is not JSON"))?;
    Ok((info, result))
}

fn run_child(workload: &str, opts: &SuiteOptions, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if opts.scale == Scale::Smoke {
        command.arg("--smoke");
    }
    // `output` waits for the child: no process outlives this call.
    let output = command
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    // Echo the child's report, not its machine-readable tail.
    for line in stdout
        .lines()
        .filter(|l| !l.starts_with("INFO ") && !l.starts_with('{'))
    {
        println!("{line}");
    }
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    let (info, result) = parse_child_output(&stdout).map_err(|e| format!("{workload}: {e}"))?;
    Ok(ChildRun {
        workload: workload.to_owned(),
        result,
        info,
    })
}

/// One difference between two runs of the same code that exceeds the
/// benchmark's own bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Breach {
    pub workload: String,
    pub what: String,
}

/// Compares two end-to-end runs of the same code and seed: every
/// `virt_*` metric and the digest must be identical, every host metric
/// within its bound in either direction (`setup_s` with its absolute
/// floor). Returns the comparison table and the breaches.
pub fn compare(first: &[ChildRun], second: &[ChildRun]) -> (String, Vec<Breach>) {
    let mut table = format!(
        "  {:<16} {:<16} {:>16} {:>16} {:>9} {:>7}  verdict\n",
        "workload", "metric", "run 1", "run 2", "diff", "bound"
    );
    let mut found = Vec::new();
    for (a, b) in first.iter().zip(second) {
        for def in &spec::END_TO_END {
            let (Some(x), Some(y)) = (a.metric(def.name), b.metric(def.name)) else {
                found.push(Breach {
                    workload: a.workload.clone(),
                    what: format!("{} missing", def.name),
                });
                continue;
            };
            let exact = def.name.starts_with("virt_");
            let diff = worsening(x, y, def.better).abs();
            let floor = if def.name == "setup_s" {
                spec::SETUP_FLOOR_S
            } else {
                0.0
            };
            let breached = if exact {
                x != y
            } else {
                breaches(x, y, def.better, def.bound, floor)
                    || breaches(y, x, def.better, def.bound, floor)
            };
            let _ = writeln!(
                table,
                "  {:<16} {:<16} {:>16.6} {:>16.6} {:>8.2}% {:>7}  {}",
                a.workload,
                def.name,
                x,
                y,
                diff * 100.0,
                if exact {
                    "exact".to_owned()
                } else {
                    format!("{:.0}%", def.bound * 100.0)
                },
                if breached { "BREACH" } else { "ok" }
            );
            if breached {
                found.push(Breach {
                    workload: a.workload.clone(),
                    what: format!("{} {x} vs {y}", def.name),
                });
            }
        }
        let same = a.digest().is_some() && a.digest() == b.digest();
        let _ = writeln!(
            table,
            "  {:<16} {:<16} {:>16} {:>16} {:>9} {:>7}  {}",
            a.workload,
            "virt_digest",
            a.digest().unwrap_or("-"),
            b.digest().unwrap_or("-"),
            "",
            "equal",
            if same { "ok" } else { "BREACH" }
        );
        if !same {
            found.push(Breach {
                workload: a.workload.clone(),
                what: "virt_digest differs".to_owned(),
            });
        }
    }
    (table, found)
}

fn summary(runs: &[ChildRun]) -> String {
    let mut out = format!("  {:<16}", "metric");
    for run in runs {
        let _ = write!(out, " {:>16}", run.workload);
    }
    out.push_str("  unit   bound\n");
    for def in &spec::END_TO_END {
        let _ = write!(out, "  {:<16}", def.name);
        for run in runs {
            let _ = write!(out, " {:>16.6}", run.metric(def.name).unwrap_or(f64::NAN));
        }
        let _ = writeln!(out, "  {:<6} {:.0}%", def.unit, def.bound * 100.0);
    }
    let _ = write!(out, "  {:<16}", "virt_digest");
    for run in runs {
        let _ = write!(out, " {:>16}", run.digest().unwrap_or("-"));
    }
    out.push_str("  (info) equal\n");
    out
}

/// The result file of one repetition: host metadata, seed, scale, and
/// per workload the metrics, op counts and info of each pass.
pub fn result_file(opts: &SuiteOptions, end_to_end: &[ChildRun], per_layer: &[ChildRun]) -> Json {
    let section = |runs: &[ChildRun]| {
        Json::Arr(
            runs.iter()
                .map(|r| {
                    Json::obj([
                        ("workload", Json::str(r.workload.clone())),
                        ("info", r.info.clone()),
                        ("result", r.result.clone()),
                    ])
                })
                .collect(),
        )
    };
    Json::obj([
        ("host", host::metadata()),
        ("seed", Json::from(opts.seed)),
        (
            "scale",
            Json::str(format!("{:?}", opts.scale).to_lowercase()),
        ),
        ("seconds_per_workload", Json::Num(opts.seconds)),
        ("end_to_end", section(end_to_end)),
        ("per_layer", section(per_layer)),
    ])
}

/// Runs the whole set `repeat` times; returns the process exit code.
pub fn run_all(opts: &SuiteOptions) -> i32 {
    let mut repetitions: Vec<Vec<ChildRun>> = Vec::new();
    let mut incorrect = Vec::new();
    for repetition in 0..opts.repeat.max(1) {
        println!(
            "#### repetition {} of {} (seed {})",
            repetition + 1,
            opts.repeat.max(1),
            opts.seed
        );
        let (mut end_to_end, mut per_layer) = (Vec::new(), Vec::new());
        for workload in NAMES {
            for trace in [false, true] {
                if trace && !opts.trace {
                    continue;
                }
                match run_child(workload, opts, trace) {
                    Ok(run) => {
                        if run.result.get("correct").and_then(Json::as_bool) != Some(true) {
                            incorrect.push(format!("{workload}: an output check failed"));
                        }
                        if trace {
                            &mut per_layer
                        } else {
                            &mut end_to_end
                        }
                        .push(run);
                    }
                    Err(e) => {
                        eprintln!("error: {e}");
                        return 1;
                    }
                }
            }
        }
        println!("#### summary of repetition {}", repetition + 1);
        print!("{}", summary(&end_to_end));
        let path: PathBuf = out_dir().join(format!(
            "result-seed{}-{}-{}.json",
            opts.seed,
            format!("{:?}", opts.scale).to_lowercase(),
            repetition + 1
        ));
        let file = result_file(opts, &end_to_end, &per_layer);
        match std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, file.pretty()))
        {
            Ok(()) => println!("  result file: {}", path.display()),
            Err(e) => {
                eprintln!("error: writing {}: {e}", path.display());
                return 1;
            }
        }
        repetitions.push(end_to_end);
    }

    let mut code = 0;
    for later in repetitions.iter().skip(1) {
        println!("#### repeat check: same code, same seed, against the benchmark's own bounds");
        let (table, found) = compare(&repetitions[0], later);
        print!("{table}");
        for breach in &found {
            println!("  BREACH {}: {}", breach.workload, breach.what);
        }
        if !found.is_empty() {
            code = 1;
        }
    }
    for line in &incorrect {
        println!("  INCORRECT {line}");
        code = 1;
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake(workload: &str, ops: f64, p50: f64, digest: &str) -> ChildRun {
        let metric =
            |v: f64, unit: &str| Json::obj([("value", Json::Num(v)), ("unit", Json::str(unit))]);
        ChildRun {
            workload: workload.to_owned(),
            result: Json::obj([
                ("correct", Json::Bool(true)),
                ("attempted", Json::from(10u64)),
                ("failed", Json::from(0u64)),
                (
                    "metrics",
                    Json::obj([
                        ("setup_s", metric(0.050, "s")),
                        ("ops_per_s", metric(ops, "ops/s")),
                        ("cpu_us_per_op", metric(5.0, "us")),
                        ("peak_rss_mb", metric(100.0, "MB")),
                        ("virt_ms_p50", metric(p50, "ms")),
                        ("virt_ms_p99", metric(9.0, "ms")),
                        ("virt_ops_per_s", metric(30.0, "ops/s")),
                    ]),
                ),
            ]),
            info: Json::obj([("virt_digest", Json::str(digest))]),
        }
    }

    #[test]
    fn repeat_check_accepts_noise_and_rejects_drift() {
        let base = [fake("hose_bulk", 180.0, 38.7, "abc")];
        let (_, none) = compare(&base, &[fake("hose_bulk", 160.0, 38.7, "abc")]);
        assert!(
            none.is_empty(),
            "11 % host noise is within the 25 % bound: {none:?}"
        );
        let (_, slow) = compare(&base, &[fake("hose_bulk", 126.0, 38.7, "abc")]);
        assert_eq!(slow.len(), 1, "-30 % ops/s breaches");
        let (_, fast) = compare(&base, &[fake("hose_bulk", 250.0, 38.7, "abc")]);
        assert_eq!(fast.len(), 1, "same code must agree in both directions");
        let (_, virt) = compare(&base, &[fake("hose_bulk", 180.0, 38.700001, "abc")]);
        assert_eq!(virt.len(), 1, "virtual metrics compare exactly");
        let (_, digest) = compare(&base, &[fake("hose_bulk", 180.0, 38.7, "abd")]);
        assert_eq!(
            digest,
            vec![Breach {
                workload: "hose_bulk".into(),
                what: "virt_digest differs".into()
            }]
        );
    }

    #[test]
    fn child_output_parses_into_info_and_result() {
        let run = fake("edge_resize", 290.0, 49.0, "0123456789abcdef");
        let stdout = format!("== report ==\n  text\nINFO {}\n{}\n", run.info, run.result);
        let (info, result) = parse_child_output(&stdout).unwrap();
        assert_eq!(info, run.info);
        assert_eq!(result, run.result);
        assert!(parse_child_output("no json here\n").is_err());
        assert!(parse_child_output("{\"correct\": true}\n").is_err());
    }

    #[test]
    fn result_file_is_well_formed_and_names_the_host() {
        let opts = SuiteOptions {
            seed: 3,
            seconds: 1.0,
            scale: Scale::Smoke,
            trace: false,
            repeat: 1,
        };
        let file = result_file(&opts, &[fake("hose_small", 4e5, 0.018, "ff")], &[]);
        let parsed = json::parse(&file.pretty()).unwrap();
        assert_eq!(parsed, file);
        assert!(parsed
            .get("host")
            .and_then(|h| h.get("logical_cores"))
            .is_some());
        assert_eq!(parsed.get("scale").and_then(Json::as_str), Some("smoke"));
    }
}
