//! `fault-kind-coverage`: every `FaultEvent` variant needs an apply site
//! and a matching trace kind.
//!
//! A `FaultPlan` is a script: builders construct `FaultEvent` variants in
//! the defining module, and the simulator applies them by matching
//! `FaultEvent::<V>` somewhere else. Both halves are open-ended, so the
//! compiler accepts a variant that is never applied — a scripted fault
//! that silently never happens, the worst kind of passing chaos test. The
//! causal record has the same gap: every injected fault must land in the
//! trace as some `TraceEvent` variant, or `gage-audit` reconstructs a
//! timeline where degradation has no cause. This pass finds the
//! `FaultEvent` enum, collects `FaultEvent::<V>` paths outside the
//! defining file (the apply sites), and checks each variant both ways:
//! missing apply site, and no `TraceEvent` variant whose name contains the
//! fault variant's name (`Crash` is covered by `RpnCrash`, `RdnCrash` by
//! itself).

use std::collections::BTreeSet;

use crate::lexer::TokKind;
use crate::model::{FileModel, Workspace};
use crate::parse::ItemKind;
use crate::rules::Sink;

/// Runs the fault coverage analysis over the whole workspace.
pub fn run(ws: &Workspace, sink: &mut Sink) {
    // Locate the FaultEvent enum definition (file + variants).
    let mut def: Option<(&FileModel, Vec<(String, usize)>)> = None;
    let mut kinds: Vec<String> = Vec::new();
    for krate in &ws.crates {
        for file in &krate.files {
            for item in &file.items {
                if item.kind != ItemKind::Enum || item.is_test {
                    continue;
                }
                if item.name == "FaultEvent" {
                    let vars = item
                        .variants
                        .iter()
                        .map(|v| (v.name.clone(), v.line))
                        .collect();
                    def = Some((file, vars));
                } else if item.name == "TraceEvent" {
                    kinds = item.variants.iter().map(|v| v.name.clone()).collect();
                }
            }
        }
    }
    let Some((def_file, variants)) = def else {
        return; // no fault schema in this tree; nothing to check
    };

    let mut applied: BTreeSet<String> = BTreeSet::new();
    for krate in &ws.crates {
        for file in &krate.files {
            if std::ptr::eq(file, def_file) {
                continue; // builders constructing the script don't count
            }
            for i in 0..file.toks.len() {
                if file.test_mask[i] || file.toks[i].kind != TokKind::Ident {
                    continue;
                }
                if file.toks[i].text(&file.src) != "FaultEvent" {
                    continue;
                }
                if txt(file, i + 1) != "::" {
                    continue;
                }
                applied.insert(txt(file, i + 2).to_string());
            }
        }
    }

    for (variant, line) in variants {
        if !applied.contains(&variant) {
            sink.emit(
                def_file,
                "fault-kind-coverage",
                line,
                1,
                format!(
                    "`FaultEvent::{variant}` has no apply site outside its defining \
                     module; a scripted fault nothing applies silently never happens \
                     — the chaos run passes without testing anything"
                ),
            );
        }
        if !kinds.iter().any(|k| k.contains(&variant)) {
            sink.emit(
                def_file,
                "fault-kind-coverage",
                line,
                1,
                format!(
                    "`FaultEvent::{variant}` has no matching `TraceEvent` variant; an \
                     injected fault that leaves no trace record gives `gage-audit` a \
                     timeline where degradation has no cause"
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
