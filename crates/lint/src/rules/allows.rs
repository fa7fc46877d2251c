//! `unused-allow`: audit of the `lint:allow` escape hatches.
//!
//! An allow that no longer suppresses anything is worse than dead code: it
//! silently licenses a future regression at that exact spot. After every
//! other rule has run, this meta-rule compares each declared escape against
//! the set the [`Sink`] actually consumed and flags the leftovers. Escapes
//! naming a rule that doesn't exist (typos, renamed rules) are flagged too
//! — they never suppressed anything to begin with.

use crate::model::{Workspace, FILE_MARKER, LINE_MARKER};
use crate::rules::{Sink, RULES};

/// Runs the unused-allow audit. Must run after every other rule, so the
/// sink's used-allow sets are complete.
pub fn run(ws: &Workspace, sink: &mut Sink) {
    let known = |rule: &str| RULES.iter().any(|r| r.id == rule);
    // Drain the usage sets up front; emitting below mutates the sink.
    let used_line = sink.used_line_allows.clone();
    let used_file = sink.used_file_allows.clone();

    for krate in &ws.crates {
        for file in &krate.files {
            for (line, rules) in &file.line_allows {
                for rule in rules {
                    if !known(rule) {
                        sink.emit(
                            file,
                            "unused-allow",
                            *line,
                            1,
                            format!(
                                "`{LINE_MARKER}{rule})` names an unknown rule; it has \
                                 never suppressed anything (typo, or the rule was renamed)"
                            ),
                        );
                    } else if !used_line.contains(&(file.rel.clone(), *line, rule.clone())) {
                        sink.emit(
                            file,
                            "unused-allow",
                            *line,
                            1,
                            format!(
                                "unused `{LINE_MARKER}{rule})`: the rule no longer fires \
                                 on this line — delete the escape (stale allows silently \
                                 license future regressions)"
                            ),
                        );
                    }
                }
            }
            for rule in &file.file_allows {
                if !known(rule) {
                    sink.emit(
                        file,
                        "unused-allow",
                        1,
                        1,
                        format!(
                            "`{FILE_MARKER}{rule})` names an unknown rule; it has \
                             never suppressed anything (typo, or the rule was renamed)"
                        ),
                    );
                } else if !used_file.contains(&(file.rel.clone(), rule.clone())) {
                    sink.emit(
                        file,
                        "unused-allow",
                        1,
                        1,
                        format!(
                            "unused `{FILE_MARKER}{rule})`: the rule no longer fires \
                             anywhere in this file — delete the escape"
                        ),
                    );
                }
            }
        }
    }
}
