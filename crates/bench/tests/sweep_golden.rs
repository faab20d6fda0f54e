//! The sweep worker pool's byte-identity contract, in `cargo test`: every
//! load figure (fig12–fig16) is run **in-process** on one worker (the
//! in-order serial loop) and on four, and the complete JSON documents
//! must match byte for byte. A determinism regression in the pool
//! therefore fails tier-1, not a separate gate run.
//!
//! fig14–fig16 also match their pinned `--quick` references. fig15's and
//! fig16's one-worker halves are their in-crate smoke tests
//! (`quick_sweep_passes_every_gate`), which pin the same reference, so
//! each matrix runs twice in all.

use roadrunner_bench::fig12::{fig12_json, Fig12Options};
use roadrunner_bench::fig13::{fig13_json, Fig13Options};
use roadrunner_bench::fig14::{fig14_json, Fig14Options};
use roadrunner_bench::fig15::{fig15_json, Fig15Options};
use roadrunner_bench::fig16::{fig16_json, Fig16Options};

/// Asserts the four-worker rendering of `figure` is `want` byte for
/// byte, printing both when it is not.
fn assert_identical(figure: &str, want: &str, four_workers: &str) {
    assert!(
        want == four_workers,
        "{figure} JSON on four workers diverged:\n--- want ---\n{want}\n--- four workers ---\n{four_workers}"
    );
    assert!(want.contains(&format!("\"figure\": \"{figure}\"")));
}

/// `json` as the binary prints it: the document plus a newline.
fn stdout(json: &str) -> String {
    format!("{json}\n")
}

#[test]
fn fig12_parallel_output_is_byte_identical_to_serial() {
    let json = |workers| {
        fig12_json(&Fig12Options {
            quick: true,
            golden: true,
            workers,
        })
    };
    assert_identical("fig12_load", &json(1), &json(4));
}

#[test]
fn fig13_parallel_output_is_byte_identical_to_serial() {
    let json = |workers| {
        fig13_json(&Fig13Options {
            quick: true,
            golden: true,
            workers,
        })
    };
    assert_identical("fig13_elastic", &json(1), &json(4));
}

#[test]
fn fig14_parallel_output_is_byte_identical_to_serial() {
    let json = |workers| {
        fig14_json(&Fig14Options {
            quick: true,
            workers,
        })
    };
    let serial = json(1);
    assert_identical("fig14_failures", &serial, &json(4));
    assert_eq!(
        stdout(&serial),
        include_str!("../reference/fig14_quick.json")
    );
}

#[test]
fn fig15_parallel_output_is_the_pinned_quick_reference() {
    let parallel = fig15_json(&Fig15Options {
        quick: true,
        workers: 4,
    });
    let reference = include_str!("../reference/fig15_quick.json");
    assert_identical("fig15_coldstart", reference, &stdout(&parallel));
}

#[test]
fn fig16_parallel_output_is_the_pinned_quick_reference() {
    let parallel = fig16_json(&Fig16Options {
        quick: true,
        workers: 4,
    });
    let reference = include_str!("../reference/fig16_quick.json");
    assert_identical("fig16_overload", reference, &stdout(&parallel));
}
