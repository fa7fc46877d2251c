//! Proves `trace-kind-coverage` is live, not vacuously passing: build a
//! minimal workspace in a scratch directory, lint it fully covered, then
//! orphan one `TraceEvent` variant (drop its emit site, then its consumer
//! arm) and watch the analysis fire at the variant's line.

use std::fs;
use std::path::{Path, PathBuf};

use gage_lint::lint_workspace;

fn write(root: &Path, rel: &str, body: &str) {
    let path = root.join(rel);
    fs::create_dir_all(path.parent().expect("has parent")).expect("mkdir");
    fs::write(path, body).expect("write fixture file");
}

/// Lays out a two-crate workspace where `TraceEvent::Served` is emitted in
/// gage-cluster and consumed in the gage-obs reconstructor.
fn scaffold(name: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    if root.exists() {
        fs::remove_dir_all(&root).expect("clear stale scratch tree");
    }
    write(
        &root,
        "Cargo.toml",
        "[workspace]\nmembers = [\"crates/*\"]\n",
    );
    write(
        &root,
        "crates/obs/Cargo.toml",
        "[package]\nname = \"gage-obs\"\nversion = \"0.0.0\"\n",
    );
    write(
        &root,
        "crates/cluster/Cargo.toml",
        "[package]\nname = \"gage-cluster\"\nversion = \"0.0.0\"\n",
    );
    write(
        &root,
        "crates/obs/src/kinds.rs",
        "//! Scratch fixture.\n\npub enum TraceEvent {\n    Served,\n}\n",
    );
    write(
        &root,
        "crates/obs/src/spans.rs",
        "//! Scratch fixture.\n\npub fn consume(event: TraceEvent) -> u32 {\n    match event {\n        TraceEvent::Served => 1,\n    }\n}\n",
    );
    write(
        &root,
        "crates/cluster/src/emit.rs",
        "//! Scratch fixture.\n\npub fn emit(t: &Tracer) {\n    t.emit(TraceEvent::Served);\n}\n",
    );
    root
}

fn coverage_findings_at(root: &Path) -> Vec<(usize, String)> {
    lint_workspace(root)
        .expect("scratch tree is readable")
        .into_iter()
        .filter(|f| f.rule == "trace-kind-coverage")
        .map(|f| (f.line, f.message))
        .collect()
}

#[test]
fn orphaning_a_variant_fires_and_restoring_it_clears() {
    let root = scaffold("coverage_live_orphan");
    assert!(
        coverage_findings_at(&root).is_empty(),
        "fully covered tree starts clean"
    );

    // Drop the emit site: the variant still exists and is still consumed,
    // but no component constructs it any more — dead schema.
    write(
        &root,
        "crates/cluster/src/emit.rs",
        "//! Scratch fixture.\n\npub fn emit(_t: &Tracer) {}\n",
    );
    let orphaned = coverage_findings_at(&root);
    assert_eq!(
        orphaned.len(),
        1,
        "exactly the orphaned variant: {orphaned:?}"
    );
    assert_eq!(orphaned[0].0, 4, "finding points at TraceEvent::Served");
    assert!(
        orphaned[0]
            .1
            .contains("`TraceEvent::Served` has no emit site"),
        "message names the missing emit: {}",
        orphaned[0].1
    );

    // Restore the emit, drop the consumer arm instead: records of the
    // kind would silently vanish from reconstructed timelines.
    write(
        &root,
        "crates/cluster/src/emit.rs",
        "//! Scratch fixture.\n\npub fn emit(t: &Tracer) {\n    t.emit(TraceEvent::Served);\n}\n",
    );
    write(
        &root,
        "crates/obs/src/spans.rs",
        "//! Scratch fixture.\n\npub fn consume(_event: TraceEvent) -> u32 {\n    0\n}\n",
    );
    let unconsumed = coverage_findings_at(&root);
    assert_eq!(
        unconsumed.len(),
        1,
        "exactly the unconsumed variant: {unconsumed:?}"
    );
    assert_eq!(unconsumed[0].0, 4);
    assert!(
        unconsumed[0].1.contains("no consumer arm"),
        "message names the missing consumer: {}",
        unconsumed[0].1
    );

    // Restore full coverage: the findings clear again.
    write(
        &root,
        "crates/obs/src/spans.rs",
        "//! Scratch fixture.\n\npub fn consume(event: TraceEvent) -> u32 {\n    match event {\n        TraceEvent::Served => 1,\n    }\n}\n",
    );
    assert!(
        coverage_findings_at(&root).is_empty(),
        "restored tree is clean again"
    );
}

#[test]
fn a_new_variant_must_arrive_with_emit_and_consumer() {
    let root = scaffold("coverage_live_new_variant");

    // Add a variant to the enum without touching emitters or the
    // reconstructor — the shape of a half-finished instrumentation PR.
    write(
        &root,
        "crates/obs/src/kinds.rs",
        "//! Scratch fixture.\n\npub enum TraceEvent {\n    Served,\n    Retried,\n}\n",
    );
    let findings = coverage_findings_at(&root);
    assert_eq!(
        findings.len(),
        2,
        "new variant is flagged on both sides: {findings:?}"
    );
    assert!(findings.iter().all(|(line, _)| *line == 5));
    assert!(findings.iter().any(|(_, m)| m.contains("emit site")));
    assert!(findings.iter().any(|(_, m)| m.contains("consumer arm")));
}
