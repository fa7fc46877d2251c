//! The simulator is `crates/cluster/src/sim.rs` plus role modules under
//! `sim/`, and the module-scoped rules key on file stems. Plants the same
//! violations in `sim.rs`, in each role module and in an unrelated module,
//! and checks each role module is reported exactly like `sim.rs`. Also
//! checks the RPN page cache (`cache.rs`) is in the ordered-tree scope.

use std::fs;
use std::path::Path;

use gage_lint::rules::SIM_MODULES;

/// A file tripping every stem-scoped rule that covers the simulator: an
/// ordered tree and ad-hoc output.
const PLANTED: &str = "//! Scratch fixture.\n\
    \n\
    pub fn f() {\n\
    \x20   let _m: BTreeMap<u32, u32> = BTreeMap::new();\n\
    \x20   print!(\"x\");\n\
    \x20   println!(\"x\");\n\
    }\n";

/// Lints a one-file `gage-cluster` holding `body` at `rel` and returns its
/// (rule, line) findings.
fn findings_for(rel: &str, body: &str) -> Vec<(&'static str, usize)> {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("sim_scope")
        .join(rel.replace('/', "_"));
    if root.exists() {
        fs::remove_dir_all(&root).expect("clear stale scratch tree");
    }
    let files = [
        (
            "Cargo.toml".to_string(),
            "[workspace]\nmembers = [\"crates/*\"]\n",
        ),
        (
            "crates/cluster/Cargo.toml".to_string(),
            "[package]\nname = \"gage-cluster\"\nversion = \"0.0.0\"\n",
        ),
        (format!("crates/cluster/src/{rel}"), body),
    ];
    for (path, body) in files {
        let path = root.join(path);
        fs::create_dir_all(path.parent().expect("has parent")).expect("mkdir");
        fs::write(path, body).expect("write fixture file");
    }
    let mut found: Vec<_> = gage_lint::lint_workspace(&root)
        .expect("scratch tree is readable")
        .into_iter()
        .map(|f| (f.rule, f.line))
        .collect();
    found.sort();
    found
}

#[test]
fn role_modules_are_linted_like_sim_rs() {
    let sim = findings_for("sim.rs", PLANTED);
    let rules: Vec<&str> = sim.iter().map(|(rule, _)| *rule).collect();
    assert_eq!(
        rules,
        [
            "hot-path-btree",
            "hot-path-btree",
            "no-print",
            "obs-no-adhoc-print"
        ],
        "sim.rs scope"
    );
    for role in ["client", "front", "rpn", "shard"] {
        assert_eq!(
            findings_for(&format!("sim/{role}.rs"), PLANTED),
            sim,
            "sim/{role}.rs"
        );
    }
    // Outside the simulator the same file is judged differently, so the
    // comparison above is not vacuous.
    assert_ne!(findings_for("other.rs", PLANTED), sim);
}

/// The page cache is probed on every request, so an ordered tree in it is
/// a finding; the one in its `#[cfg(test)]` reference model is masked.
#[test]
fn page_cache_rejects_ordered_trees_outside_tests() {
    const CACHE: &str = "//! Page-cache fixture.\n\
        \n\
        pub struct Lru { entries: BTreeMap<String, u64> }\n\
        \n\
        #[cfg(test)]\n\
        mod tests {\n\
        \x20   struct Reference { entries: BTreeMap<String, (u64, u64)> }\n\
        }\n";
    assert_eq!(findings_for("cache.rs", CACHE), [("hot-path-btree", 3)]);
    // Fixture trees are keyed by path, so this must not reuse `other.rs`.
    assert_eq!(findings_for("pages.rs", CACHE), []);
}

#[test]
fn every_role_module_on_disk_is_in_scope() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../cluster/src/sim");
    for entry in fs::read_dir(&dir).expect("the simulator has role modules") {
        let path = entry.expect("readable directory entry").path();
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
        assert!(
            SIM_MODULES.contains(&stem),
            "{} is not in gage_lint::rules::SIM_MODULES",
            path.display()
        );
    }
}
