//! `--smoke` end to end, in process: every workload verifies its outputs,
//! and the virtual digest is a function of the seed alone.

use roadrunner_benchmark::json::Json;
use roadrunner_benchmark::run::{end_to_end, Options, Outcome};
use roadrunner_benchmark::spec;
use roadrunner_benchmark::workloads::{Scale, NAMES};

fn smoke(workload: &str, seed: u64) -> Outcome {
    let opts = Options {
        workload: workload.to_owned(),
        seed,
        seconds: 0.05,
        scale: Scale::Smoke,
    };
    end_to_end(&opts).expect("known workload")
}

fn digest(outcome: &Outcome) -> String {
    outcome
        .info
        .get("virt_digest")
        .and_then(Json::as_str)
        .expect("digest in info")
        .to_owned()
}

fn virt_metrics(outcome: &Outcome) -> Vec<f64> {
    ["virt_ms_p50", "virt_ms_p99", "virt_ops_per_s"]
        .iter()
        .map(|m| {
            outcome
                .result
                .get("metrics")
                .unwrap()
                .get(m)
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64()
                .unwrap()
        })
        .collect()
}

#[test]
fn smoke_runs_verify_and_virtual_outputs_depend_on_the_seed_alone() {
    for workload in NAMES {
        let runs = [
            smoke(workload, 1),
            smoke(workload, 1),
            smoke(workload, 2),
            smoke(workload, 2),
        ];
        for run in &runs {
            assert!(
                run.correct(),
                "{workload}: output checks pass\n{}",
                run.report
            );
            assert_eq!(run.result.get("failed").and_then(Json::as_f64), Some(0.0));
        }
        assert_eq!(
            digest(&runs[0]),
            digest(&runs[1]),
            "{workload}: seed 1 repeats"
        );
        assert_eq!(
            digest(&runs[2]),
            digest(&runs[3]),
            "{workload}: seed 2 repeats"
        );
        assert_eq!(
            virt_metrics(&runs[0]),
            virt_metrics(&runs[1]),
            "{workload}: virt metrics repeat"
        );
        assert_ne!(
            digest(&runs[0]),
            digest(&runs[2]),
            "{workload}: the seed reaches the inputs"
        );
    }
}

#[test]
fn result_line_carries_exactly_the_end_to_end_metrics() {
    let outcome = smoke("hose_small", 3);
    let line = roadrunner_benchmark::json::parse(&outcome.result.to_string()).expect("well-formed");
    let keys: Vec<&str> = line.entries().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let names: Vec<&str> = line
        .get("metrics")
        .unwrap()
        .entries()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        names,
        spec::END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
    );
    for (name, metric) in line.get("metrics").unwrap().entries() {
        let value = metric
            .get("value")
            .and_then(Json::as_f64)
            .expect("numeric value");
        assert!(
            value.is_finite() && value > 0.0,
            "{name} = {value} must be a positive number"
        );
        let unit = metric.get("unit").and_then(Json::as_str).expect("unit");
        assert_eq!(unit, spec::end_to_end(name).unwrap().unit);
    }
    assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
}

#[test]
fn unknown_workload_is_an_error() {
    let opts = Options {
        workload: "nope".into(),
        seed: 1,
        seconds: 0.05,
        scale: Scale::Smoke,
    };
    assert!(end_to_end(&opts).is_err());
}
