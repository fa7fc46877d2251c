//! `trace-kind-coverage`: every `TraceEvent` variant needs an emit site and
//! a consumer arm.
//!
//! The trace schema is load-bearing in two places: components emit
//! `TraceEvent::<V>` records, and the reconstructors (`spans.rs`) fold
//! them back into timelines by matching `TraceEvent::<V>`. A variant with
//! no emit site is dead schema (or instrumentation that got dropped in a
//! refactor); a variant with no consumer arm means real records silently
//! vanish from every reconstructed timeline. The compiler checks neither —
//! the emit side is open-ended and the consumer side only has to be
//! exhaustive over the enum, not over intent. This pass closes the loop:
//! it finds the `TraceEvent` enum, collects `TraceEvent::<V>` paths inside
//! the reconstructor modules (consumer arms) and everywhere else outside
//! the defining file (emit sites), and flags any variant missing either.

use std::collections::BTreeSet;

use crate::lexer::TokKind;
use crate::model::{FileModel, Workspace};
use crate::parse::ItemKind;
use crate::rules::{self, Sink};

/// Runs the trace coverage analysis over the whole workspace.
pub fn run(ws: &Workspace, sink: &mut Sink) {
    // Locate the TraceEvent enum definition (file + variants).
    let mut def: Option<(&FileModel, Vec<(String, usize)>)> = None;
    for krate in &ws.crates {
        for file in &krate.files {
            for item in &file.items {
                if item.kind == ItemKind::Enum && item.name == "TraceEvent" && !item.is_test {
                    let vars = item
                        .variants
                        .iter()
                        .map(|v| (v.name.clone(), v.line))
                        .collect();
                    def = Some((file, vars));
                }
            }
        }
    }
    let Some((def_file, variants)) = def else {
        return; // no trace schema in this tree; nothing to check
    };

    let mut emitted: BTreeSet<String> = BTreeSet::new();
    let mut consumed: BTreeSet<String> = BTreeSet::new();

    for krate in &ws.crates {
        let pkg = krate.package.as_str();
        for file in &krate.files {
            let consumer = rules::in_scope(rules::TRACE_EXHAUSTIVE_MODULES, pkg, &file.stem);
            let defining = std::ptr::eq(file, def_file);
            for i in 0..file.toks.len() {
                if file.test_mask[i] || file.toks[i].kind != TokKind::Ident {
                    continue;
                }
                if file.toks[i].text(&file.src) != "TraceEvent" || txt(file, i + 1) != "::" {
                    continue;
                }
                let variant = txt(file, i + 2);
                if consumer {
                    consumed.insert(variant.to_string());
                } else if !defining {
                    emitted.insert(variant.to_string());
                }
            }
        }
    }

    for (variant, line) in variants {
        if !emitted.contains(&variant) {
            sink.emit(
                def_file,
                "trace-kind-coverage",
                line,
                1,
                format!(
                    "`TraceEvent::{variant}` has no emit site; \
                     a kind no component emits is dead schema (or its instrumentation \
                     was dropped in a refactor)"
                ),
            );
        }
        if !consumed.contains(&variant) {
            sink.emit(
                def_file,
                "trace-kind-coverage",
                line,
                1,
                format!(
                    "`TraceEvent::{variant}` has no consumer arm in a trace reconstructor; \
                     records of this kind silently vanish from reconstructed timelines"
                ),
            );
        }
    }
}

fn txt(file: &FileModel, i: usize) -> &str {
    file.toks
        .get(i)
        .map(|t| t.text(&file.src))
        .unwrap_or_default()
}
