//! The tier-1 gate: the real workspace must be lint-clean. This is the
//! `#[test]` form of `cargo run -p gage-lint` so `cargo test` enforces the
//! invariants on every change.

use std::path::Path;

fn workspace_root() -> &'static Path {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels below the workspace root");
    assert!(
        root.join("Cargo.toml").is_file() && root.join("ROADMAP.md").is_file(),
        "resolved the wrong root: {}",
        root.display()
    );
    root
}

#[test]
fn workspace_is_lint_clean() {
    let findings = gage_lint::lint_workspace(workspace_root()).expect("workspace tree is readable");
    assert!(
        findings.is_empty(),
        "workspace has lint findings (fix them, or add `// lint:allow(<rule>)` \
         with a justification):\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
