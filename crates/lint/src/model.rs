//! The workspace model: crate → file → item graph with cross-file indexes.
//!
//! [`load`] walks every `Cargo.toml` under the lint root, lexes and parses
//! each package's `src/` tree, and captures the `lint:allow` escapes from
//! the raw text (allows live in comments, which the lexer consumes). The
//! cross-file analyses — RNG stream discipline, trace and fault coverage,
//! panic reachability — all run against this model rather than re-reading
//! files.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::lexer::{self, Tok};
use crate::parse::{self, Item};

/// The line-allow marker, spelled in two halves so the lint's own sources
/// never register as escapes when the workspace lints itself.
pub const LINE_MARKER: &str = concat!("lint:", "allow(");
/// The file-allow marker (same two-half spelling, same reason).
pub const FILE_MARKER: &str = concat!("lint:", "allow-file(");

/// Directory names never descended into.
pub const SKIP_DIRS: &[&str] = &[
    "target",
    "vendor",
    "fixtures",
    ".git",
    ".claude",
    "related",
    "node_modules",
];

/// One source file, fully lexed and parsed.
#[derive(Debug)]
pub struct FileModel {
    /// Path relative to the lint root, with `/` separators.
    pub rel: String,
    /// File stem (`scheduler` for `src/scheduler.rs`).
    pub stem: String,
    /// Binary source (`src/bin/`, `main.rs`): print rules don't apply.
    pub is_bin: bool,
    /// Whether this is the crate's `src/lib.rs`.
    pub is_lib_root: bool,
    /// Full source text.
    pub src: String,
    /// Raw lines (for snippets and allow parsing).
    pub lines: Vec<String>,
    /// Token stream.
    pub toks: Vec<Tok>,
    /// Recovered items.
    pub items: Vec<Item>,
    /// Per-token `#[cfg(test)]` mask.
    pub test_mask: Vec<bool>,
    /// Line-level `lint:allow` escapes: line → allowed rules.
    pub line_allows: BTreeMap<usize, Vec<String>>,
    /// File-level `lint:allow-file` escapes from the first ten lines.
    pub file_allows: Vec<String>,
}

impl FileModel {
    /// The trimmed source line (1-based), for finding snippets.
    pub fn snippet(&self, line: usize) -> String {
        self.lines
            .get(line.saturating_sub(1))
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }
}

/// One workspace package.
#[derive(Debug)]
pub struct CrateModel {
    /// Package name from `[package] name = …`.
    pub package: String,
    /// Manifest path relative to the lint root.
    pub manifest_rel: String,
    /// Raw manifest text (for the manifest rules).
    pub manifest_text: String,
    /// Names of `[dependencies]` this package declares (workspace-internal
    /// edges are resolved against other packages in the model).
    pub deps: Vec<String>,
    /// All `.rs` files under the package's `src/`, sorted by path.
    pub files: Vec<FileModel>,
}

/// The whole linted tree.
#[derive(Debug)]
pub struct Workspace {
    /// Packages, sorted by manifest path.
    pub crates: Vec<CrateModel>,
    /// Manifests with no `[package]` section (virtual workspace roots),
    /// kept for the manifest rules: (rel path, text).
    pub virtual_manifests: Vec<(String, String)>,
}

impl Workspace {
    /// Package names reachable from `package` through workspace-internal
    /// `[dependencies]` edges, including `package` itself.
    pub fn dep_closure(&self, package: &str) -> BTreeSet<String> {
        let by_name: BTreeMap<&str, &CrateModel> = self
            .crates
            .iter()
            .map(|c| (c.package.as_str(), c))
            .collect();
        let mut seen = BTreeSet::new();
        let mut stack = vec![package.to_string()];
        while let Some(p) = stack.pop() {
            if !seen.insert(p.clone()) {
                continue;
            }
            if let Some(c) = by_name.get(p.as_str()) {
                for d in &c.deps {
                    if by_name.contains_key(d.as_str()) && !seen.contains(d) {
                        stack.push(d.clone());
                    }
                }
            }
        }
        seen
    }
}

/// Loads the workspace model rooted at `root`.
///
/// # Errors
///
/// Propagates filesystem errors; fails with `NotFound` when no `Cargo.toml`
/// exists under `root` (a mistyped root would otherwise lint nothing and
/// report success).
pub fn load(root: &Path) -> io::Result<Workspace> {
    let mut manifests = Vec::new();
    find_manifests(root, &mut manifests)?;
    if manifests.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("no Cargo.toml found under {}", root.display()),
        ));
    }
    let mut crates = Vec::new();
    let mut virtual_manifests = Vec::new();
    for manifest in manifests {
        let Ok(text) = fs::read_to_string(&manifest) else {
            continue;
        };
        let rel_manifest = rel(root, &manifest);
        let Some(package) = package_name(&text) else {
            virtual_manifests.push((rel_manifest, text));
            continue;
        };
        let deps = dependency_names(&text);
        let mut files = Vec::new();
        if let Some(dir) = manifest.parent() {
            let src = dir.join("src");
            if src.is_dir() {
                let mut paths = Vec::new();
                collect_rs(&src, &mut paths)?;
                paths.sort();
                for path in paths {
                    let Ok(text) = fs::read_to_string(&path) else {
                        continue;
                    };
                    files.push(load_file(root, &path, text));
                }
            }
        }
        crates.push(CrateModel {
            package,
            manifest_rel: rel_manifest,
            manifest_text: text,
            deps,
            files,
        });
    }
    Ok(Workspace {
        crates,
        virtual_manifests,
    })
}

fn load_file(root: &Path, path: &Path, src: String) -> FileModel {
    let rel_path = rel(root, path);
    let is_bin = rel_path.contains("/bin/") || rel_path.ends_with("main.rs");
    let is_lib_root = path.ends_with("src/lib.rs");
    let stem = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default();
    let lines: Vec<String> = src.lines().map(str::to_string).collect();
    let toks = lexer::lex(&src);
    let parsed = parse::parse_items(&src, &toks);

    let mut line_allows = BTreeMap::new();
    for (idx, l) in lines.iter().enumerate() {
        let allows = parse_allows(l, LINE_MARKER);
        if !allows.is_empty() {
            line_allows.insert(idx + 1, allows);
        }
    }
    let file_allows: Vec<String> = lines
        .iter()
        .take(10)
        .flat_map(|l| parse_allows(l, FILE_MARKER))
        .collect();

    FileModel {
        rel: rel_path,
        stem,
        is_bin,
        is_lib_root,
        lines,
        toks,
        items: parsed.items,
        test_mask: parsed.test_mask,
        line_allows,
        file_allows,
        src,
    }
}

/// Parses the allow escapes ([`LINE_MARKER`] / [`FILE_MARKER`], each
/// followed by comma-separated rule names and a closing paren) out of one
/// raw line. Escapes live in comments, so the token stream never sees them.
pub fn parse_allows(raw: &str, marker: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = raw[from..].find(marker) {
        let start = from + pos + marker.len();
        if let Some(close) = raw[start..].find(')') {
            for rule in raw[start..start + close].split(',') {
                out.push(rule.trim().to_string());
            }
            from = start + close;
        } else {
            break;
        }
    }
    out
}

fn rel(root: &Path, p: &Path) -> String {
    p.strip_prefix(root)
        .unwrap_or(p)
        .to_string_lossy()
        .replace('\\', "/")
}

fn find_manifests(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let manifest = dir.join("Cargo.toml");
    if manifest.is_file() {
        out.push(manifest);
    }
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return Ok(()),
    };
    let mut subdirs: Vec<PathBuf> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| !SKIP_DIRS.contains(&n) && !n.starts_with('.'))
        })
        .collect();
    subdirs.sort();
    for sub in subdirs {
        find_manifests(&sub, out)?;
    }
    Ok(())
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)?.flatten() {
        let p = entry.path();
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

fn package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for line in manifest.lines() {
        let t = line.trim();
        if t.starts_with('[') {
            in_package = t == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = t.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(rest) = rest.strip_prefix('=') {
                    return Some(rest.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}

/// Dependency names from every `[…dependencies…]` table in the manifest.
fn dependency_names(manifest: &str) -> Vec<String> {
    let mut deps = Vec::new();
    let mut in_deps = false;
    for line in manifest.lines() {
        let t = line.trim();
        if t.starts_with('[') {
            let section = t.trim_matches(['[', ']']);
            in_deps = section.ends_with("dependencies");
            continue;
        }
        if !in_deps || t.is_empty() || t.starts_with('#') {
            continue;
        }
        if let Some((dep, _)) = t.split_once('=') {
            let name = dep.trim().trim_matches('"');
            // `gage-des.workspace = true` spells the dep as `gage-des.workspace`.
            let name = name.split('.').next().unwrap_or(name);
            if !name.is_empty() {
                deps.push(name.to_string());
            }
        }
    }
    deps.sort();
    deps.dedup();
    deps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_parsing() {
        assert_eq!(
            parse_allows(&format!("x // {LINE_MARKER}no-print)"), LINE_MARKER),
            vec!["no-print"]
        );
        assert_eq!(
            parse_allows(&format!("x // {LINE_MARKER}a, b)"), LINE_MARKER),
            vec!["a", "b"]
        );
        assert!(parse_allows(&format!("x // {FILE_MARKER}a)"), LINE_MARKER).is_empty());
    }

    #[test]
    fn dependency_name_extraction() {
        let toml = r#"
[package]
name = "demo"

[dependencies]
gage-des = { workspace = true }
gage-core.workspace = true
rand = { path = "../vendor/rand" }

[dev-dependencies]
gage-json = { workspace = true }
"#;
        let deps = dependency_names(toml);
        assert_eq!(deps, vec!["gage-core", "gage-des", "gage-json", "rand"]);
    }

    #[test]
    fn package_name_extraction() {
        assert_eq!(
            package_name("[package]\nname = \"gage-core\"\n"),
            Some("gage-core".to_string())
        );
        assert_eq!(package_name("[workspace]\nmembers = []\n"), None);
    }
}
