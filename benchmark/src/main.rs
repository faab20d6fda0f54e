//! Command line of the benchmark.
//!
//! ```text
//! # one workload, one pass, in this process (what the driver runs):
//! roadrunner-benchmark --workload hose_bulk --seed 1 --seconds 10 --trace 0
//! # the whole set, each workload in its own child process:
//! roadrunner-benchmark --all [--seed N] [--seconds S] [--trace] [--repeat K] [--smoke]
//! # the contract the tables in src/spec.rs generate:
//! roadrunner-benchmark --print-spec
//! ```

use std::process::ExitCode;

use roadrunner_benchmark::run::{self, Options};
use roadrunner_benchmark::spec;
use roadrunner_benchmark::suite::{self, SuiteOptions};
use roadrunner_benchmark::workloads::Scale;

const USAGE: &str = "usage: roadrunner-benchmark (--workload NAME | --all | --print-spec) \
[--seed N] [--seconds S] [--trace [0|1]] [--repeat K] [--smoke]";

struct Args {
    workload: Option<String>,
    all: bool,
    print_spec: bool,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    repeat: u32,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        all: false,
        print_spec: false,
        seed: 1,
        seconds: None,
        trace: false,
        repeat: 1,
        smoke: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("--workload")?),
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                parsed.seconds = Some(seconds);
            }
            "--repeat" => {
                parsed.repeat = value("--repeat")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if !(1..=10).contains(&parsed.repeat) {
                    return Err("--repeat must be 1 to 10".to_owned());
                }
            }
            // `--trace` alone means on; the driver passes `--trace 0|1`.
            "--trace" => {
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--all" => parsed.all = true,
            "--smoke" => parsed.smoke = true,
            "--print-spec" => parsed.print_spec = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.print_spec {
        print!("{}", spec::benchmark_json().pretty());
        return ExitCode::SUCCESS;
    }
    let scale = if args.smoke {
        Scale::Smoke
    } else {
        Scale::Full
    };
    // A smoke run is five workloads in under five seconds.
    let seconds = args.seconds.unwrap_or(if args.smoke {
        0.2
    } else {
        spec::RUN_SECONDS as f64
    });

    if args.all {
        let opts = SuiteOptions {
            seed: args.seed,
            seconds,
            scale,
            trace: args.trace,
            repeat: args.repeat,
        };
        return ExitCode::from(suite::run_all(&opts) as u8);
    }
    let Some(workload) = args.workload else {
        eprintln!("error: name a workload or pass --all\n{USAGE}");
        return ExitCode::from(2);
    };
    let opts = Options {
        workload,
        seed: args.seed,
        seconds,
        scale,
    };
    let outcome = if args.trace {
        run::per_layer(&opts)
    } else {
        run::end_to_end(&opts)
    };
    match outcome {
        Ok(outcome) => {
            print!("{}", outcome.report);
            println!("INFO {}", outcome.info);
            // The driver reads the last line of standard output.
            println!("{}", outcome.result);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
