//! `lane-shared-state`: interior mutability and process-global storage
//! reachable from the state a future parallel lane would own.
//!
//! ROADMAP item 2 wants deterministic parallel lanes: N independent
//! `ClusterSim` instances stepped on worker threads. That only stays
//! deterministic if everything a lane touches is exclusively owned by it.
//! This analysis walks the struct graph from the lane root types
//! (`ClusterSim`, `EventQueue`, `RequestScheduler`) through field types,
//! bounded by the workspace dependency closure, and flags any field whose
//! type smuggles in interior mutability (`Cell`, `RefCell`, `Mutex`,
//! `RwLock`, `Atomic*`, `UnsafeCell`, …). It also flags `static mut`,
//! interior-mutable `static`s and `thread_local!` storage anywhere in a
//! lane-reachable crate — those are process-global no matter who holds them.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::TokKind;
use crate::model::{FileModel, Workspace};
use crate::parse::{Item, ItemKind};
use crate::rules::Sink;

/// Struct types that anchor a lane: each parallel lane owns one of these.
pub const LANE_ROOTS: &[&str] = &["ClusterSim", "EventQueue", "RequestScheduler"];

/// Whether a type identifier is an interior-mutability wrapper.
fn is_interior_mut(ident: &str) -> bool {
    matches!(
        ident,
        "Cell"
            | "RefCell"
            | "Mutex"
            | "RwLock"
            | "UnsafeCell"
            | "OnceCell"
            | "LazyCell"
            | "OnceLock"
            | "LazyLock"
    ) || ident.starts_with("Atomic")
}

/// Capitalised identifiers referenced by a type string
/// (`Option<Arc<Mutex<Front>>>` → `Option`, `Arc`, `Mutex`, `Front`).
fn type_idents(ty: &str) -> Vec<&str> {
    let mut out = Vec::new();
    for piece in ty.split(|c: char| !c.is_alphanumeric() && c != '_') {
        if piece.chars().next().is_some_and(char::is_uppercase) {
            out.push(piece);
        }
    }
    out
}

/// Runs the lane-shared-state analysis over the whole workspace.
pub fn run(ws: &Workspace, sink: &mut Sink) {
    // (struct name) → every definition site, across crates.
    let mut index: BTreeMap<&str, Vec<(&str, &FileModel, &Item)>> = BTreeMap::new();
    for krate in &ws.crates {
        for file in &krate.files {
            for item in &file.items {
                if item.kind == ItemKind::Struct && !item.is_test {
                    index.entry(item.name.as_str()).or_default().push((
                        krate.package.as_str(),
                        file,
                        item,
                    ));
                }
            }
        }
    }

    // Deduplicated hits: the first root (in LANE_ROOTS order) to reach a
    // field owns the finding, keyed by location so output stays stable.
    let mut hits: BTreeMap<(String, usize, usize), (&FileModel, String)> = BTreeMap::new();
    let mut lane_crates: BTreeSet<String> = BTreeSet::new();

    for root in LANE_ROOTS {
        let Some(defs) = index.get(root) else {
            continue;
        };
        for (pkg, file, item) in defs.clone() {
            let closure = ws.dep_closure(pkg);
            lane_crates.extend(closure.iter().cloned());
            walk(root, file, item, pkg, &closure, &index, &mut hits);
        }
    }

    for ((_, line, col), (file, message)) in hits {
        sink.emit(file, "lane-shared-state", line, col, message);
    }

    for krate in &ws.crates {
        if !lane_crates.contains(&krate.package) {
            continue;
        }
        for file in &krate.files {
            scan_globals(file, sink);
        }
    }
}

/// BFS through field types from one lane root definition.
fn walk<'ws>(
    root: &str,
    root_file: &'ws FileModel,
    root_item: &'ws Item,
    root_pkg: &str,
    closure: &BTreeSet<String>,
    index: &BTreeMap<&str, Vec<(&str, &'ws FileModel, &'ws Item)>>,
    hits: &mut BTreeMap<(String, usize, usize), (&'ws FileModel, String)>,
) {
    let mut visited: BTreeSet<(String, String)> = BTreeSet::new();
    visited.insert((root_pkg.to_string(), root.to_string()));
    let mut stack: Vec<(&'ws FileModel, &'ws Item, Vec<String>)> =
        vec![(root_file, root_item, vec![root.to_string()])];

    while let Some((file, item, path)) = stack.pop() {
        for field in &item.fields {
            let idents = type_idents(&field.ty);
            if let Some(marker) = idents.iter().find(|t| is_interior_mut(t)) {
                let key = (file.rel.clone(), field.line, field.col);
                hits.entry(key).or_insert_with(|| {
                    (
                        file,
                        format!(
                            "field `{}: {}` holds `{marker}` interior-mutable state \
                             reachable from lane root `{root}` ({}); deterministic \
                             parallel lanes require exclusively-owned per-lane state",
                            field.name,
                            field.ty,
                            path.join(" -> "),
                        ),
                    )
                });
                continue;
            }
            for t in idents {
                let Some(defs) = index.get(t) else { continue };
                for (pkg, next_file, next) in defs {
                    if !closure.contains(*pkg) {
                        continue;
                    }
                    if visited.insert(((*pkg).to_string(), t.to_string())) {
                        let mut p = path.clone();
                        p.push(t.to_string());
                        stack.push((next_file, next, p));
                    }
                }
            }
        }
    }
}

/// Flags `static mut`, interior-mutable `static`s and `thread_local!` in a
/// lane-reachable crate. These are process-global: every lane in the
/// process shares them regardless of ownership.
fn scan_globals(file: &FileModel, sink: &mut Sink) {
    for i in 0..file.toks.len() {
        if file.test_mask[i] || file.toks[i].kind != TokKind::Ident {
            continue;
        }
        let tok = file.toks[i];
        let text = tok.text(&file.src);
        let nxt = |k: usize| {
            file.toks
                .get(i + k)
                .map(|t| t.text(&file.src))
                .unwrap_or_default()
        };

        if text == "thread_local" && nxt(1) == "!" {
            sink.emit(
                file,
                "lane-shared-state",
                tok.line,
                tok.col,
                "`thread_local!` storage in a lane-reachable crate; lanes migrate across \
                 worker threads, so per-lane state must live in the lane, not in TLS"
                    .to_string(),
            );
            continue;
        }

        if text != "static" {
            continue;
        }
        if nxt(1) == "mut" {
            let name = nxt(2);
            sink.emit(
                file,
                "lane-shared-state",
                tok.line,
                tok.col,
                format!(
                    "`static mut {name}` is shared mutable process state; every lane in the \
                     process races on it"
                ),
            );
            continue;
        }
        // `static NAME: <type idents…> = …;` — flag interior-mutable types.
        let mut j = i + 1;
        let mut saw_colon = false;
        let mut marker: Option<String> = None;
        while j < file.toks.len() && j < i + 64 {
            let t = file.toks[j].text(&file.src);
            if t == ";" || t == "=" {
                break;
            }
            if t == ":" {
                saw_colon = true;
            } else if saw_colon && file.toks[j].kind == TokKind::Ident && is_interior_mut(t) {
                marker = Some(t.to_string());
                break;
            }
            j += 1;
        }
        if let Some(marker) = marker {
            let name = nxt(1);
            sink.emit(
                file,
                "lane-shared-state",
                tok.line,
                tok.col,
                format!(
                    "`static {name}` holds `{marker}` interior-mutable process-global state; \
                     every lane in the process shares it"
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interior_mut_markers() {
        assert!(is_interior_mut("Cell"));
        assert!(is_interior_mut("AtomicU64"));
        assert!(is_interior_mut("OnceLock"));
        assert!(!is_interior_mut("Vec"));
        assert!(!is_interior_mut("Arc"));
    }

    #[test]
    fn type_ident_extraction() {
        assert_eq!(
            type_idents("Option<Arc<Mutex<Front>>>"),
            vec!["Option", "Arc", "Mutex", "Front"]
        );
        assert_eq!(type_idents("u64"), Vec::<&str>::new());
        assert_eq!(
            type_idents("BTreeMap<String, Vec<PendingRequest>>"),
            vec!["BTreeMap", "String", "Vec", "PendingRequest"]
        );
    }
}
