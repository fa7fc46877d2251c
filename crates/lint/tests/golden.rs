//! Golden-file tests: the JSON and SARIF reports for the fixture corpus
//! must be byte-identical to the committed goldens, and byte-identical
//! across repeated runs. Any schema drift or nondeterminism (unordered
//! findings, timestamps, absolute paths) shows up as a diff here.

use std::path::Path;

use gage_lint::{lint_workspace, report_json, report_sarif};

const GOLDEN_JSON: &str = include_str!("../fixtures/golden/bad_ws.json");
const GOLDEN_SARIF: &str = include_str!("../fixtures/golden/bad_ws.sarif");

fn bad_ws() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/bad_ws")
}

#[test]
fn json_report_matches_golden_byte_for_byte() {
    let findings = lint_workspace(&bad_ws()).expect("fixture tree is readable");
    assert_eq!(
        report_json(&findings),
        GOLDEN_JSON,
        "gage-lint-v2 JSON drifted from fixtures/golden/bad_ws.json; if the \
         change is intentional, regenerate with `cargo run -p gage-lint -- \
         --json crates/lint/fixtures/bad_ws`"
    );
}

#[test]
fn sarif_report_matches_golden_byte_for_byte() {
    let findings = lint_workspace(&bad_ws()).expect("fixture tree is readable");
    assert_eq!(
        report_sarif(&findings),
        GOLDEN_SARIF,
        "SARIF output drifted from fixtures/golden/bad_ws.sarif; if the \
         change is intentional, regenerate with `cargo run -p gage-lint -- \
         --sarif crates/lint/fixtures/bad_ws`"
    );
}

#[test]
fn reports_are_deterministic_across_runs() {
    // Two independent walks of the same tree (fresh lex, parse, analyses)
    // must serialize to the same bytes: no iteration-order leaks anywhere
    // between the filesystem walk and the emitters.
    let a = lint_workspace(&bad_ws()).expect("fixture tree is readable");
    let b = lint_workspace(&bad_ws()).expect("fixture tree is readable");
    assert_eq!(a, b, "findings differ between runs");
    assert_eq!(report_json(&a), report_json(&b));
    assert_eq!(report_sarif(&a), report_sarif(&b));
}

#[test]
fn reports_contain_no_absolute_paths() {
    for golden in [GOLDEN_JSON, GOLDEN_SARIF] {
        assert!(
            !golden.contains("/root/") && !golden.contains("file://"),
            "golden report leaks absolute paths"
        );
    }
}
