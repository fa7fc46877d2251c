//! The per-file rules, ported from v1's line scans onto the token stream.
//!
//! Running on tokens eliminates the v1 false-positive class wholesale: a
//! `HashMap` in rustdoc prose, an `Instant` inside a string literal or a
//! `panic!` in a block comment simply never appear in the stream. Test
//! tokens (inside `#[cfg(test)]` items) are masked by the parser.

use crate::lexer::TokKind;
use crate::model::{CrateModel, FileModel};
use crate::rules::{self, Sink};

/// Runs every per-file rule over one crate.
pub fn run(krate: &CrateModel, sink: &mut Sink) {
    for file in &krate.files {
        check_crate_attrs(krate, file, sink);
        check_tokens(krate, file, sink);
    }
}

fn check_crate_attrs(krate: &CrateModel, file: &FileModel, sink: &mut Sink) {
    if !file.is_lib_root {
        return;
    }
    for (attr, inner) in [
        ("#![forbid(unsafe_code)]", ["forbid", "unsafe_code"]),
        ("#![warn(missing_docs)]", ["warn", "missing_docs"]),
    ] {
        if !has_inner_attr(file, inner[0], inner[1]) {
            sink.emit(
                file,
                "crate-attrs",
                1,
                1,
                format!("library crate `{}` is missing `{attr}`", krate.package),
            );
        }
    }
}

/// Matches `# ! [ <head> ( <arg> ) ]` anywhere in the stream.
fn has_inner_attr(file: &FileModel, head: &str, arg: &str) -> bool {
    let t = &file.toks;
    for i in 0..t.len() {
        if txt(file, i) == "#"
            && txt(file, i + 1) == "!"
            && txt(file, i + 2) == "["
            && txt(file, i + 3) == head
            && txt(file, i + 4) == "("
            && txt(file, i + 5) == arg
        {
            return true;
        }
    }
    false
}

/// Token text at `i`, or `""` past the end.
fn txt(file: &FileModel, i: usize) -> &str {
    file.toks
        .get(i)
        .map(|t| t.text(&file.src))
        .unwrap_or_default()
}

fn kind_at(file: &FileModel, i: usize) -> Option<TokKind> {
    file.toks.get(i).map(|t| t.kind)
}

#[allow(clippy::too_many_lines)]
fn check_tokens(krate: &CrateModel, file: &FileModel, sink: &mut Sink) {
    let pkg = krate.package.as_str();
    let deterministic = rules::DETERMINISM_CRATES.contains(&pkg);
    let hot = rules::in_scope(rules::HOT_PATH_MODULES, pkg, &file.stem);
    let btree_hot = rules::in_scope(rules::HOT_PATH_BTREE_MODULES, pkg, &file.stem);
    let obs = rules::in_scope(rules::OBS_MODULES, pkg, &file.stem);
    let reconstructor = rules::in_scope(rules::TRACE_EXHAUSTIVE_MODULES, pkg, &file.stem);
    let float_crate = pkg == "gage-core";

    for i in 0..file.toks.len() {
        if file.test_mask[i] {
            continue;
        }
        let tok = file.toks[i];
        let text = tok.text(&file.src);
        let at = |sink: &mut Sink, rule, msg: String| {
            sink.emit(file, rule, tok.line, tok.col, msg);
        };

        if tok.kind == TokKind::Ident {
            if deterministic {
                match text {
                    "Instant" | "SystemTime" => at(
                        sink,
                        "determinism-clock",
                        format!("`{text}` is a wall clock; simulated components must use SimTime"),
                    ),
                    "thread_rng" => at(
                        sink,
                        "determinism-rng",
                        "`thread_rng` is unseeded; draw from an explicitly seeded StdRng"
                            .to_string(),
                    ),
                    "rand" if txt(file, i + 1) == "::" && txt(file, i + 2) == "random" => at(
                        sink,
                        "determinism-rng",
                        "`rand::random` is unseeded; draw from an explicitly seeded StdRng"
                            .to_string(),
                    ),
                    "HashMap" | "HashSet" => at(
                        sink,
                        "determinism-hash-order",
                        format!(
                            "`{text}` iteration order varies per process; use BTreeMap/BTreeSet"
                        ),
                    ),
                    _ => {}
                }
            }

            if btree_hot && (text == "BTreeMap" || text == "BTreeSet") {
                at(
                    sink,
                    "hot-path-btree",
                    format!(
                        "`{text}` puts an O(log n) walk on the per-packet path; \
                         use gage_collections::DetMap or Slab"
                    ),
                );
            }

            if hot {
                let bang = txt(file, i + 1) == "!";
                match text {
                    "panic" | "todo" | "unimplemented" if bang => at(
                        sink,
                        "hot-path-panic",
                        format!("`{text}!` can panic mid-connection; handle the None/Err case"),
                    ),
                    _ => {}
                }
            }

            if !file.is_bin {
                let bang = txt(file, i + 1) == "!";
                if bang && matches!(text, "println" | "eprintln" | "dbg") {
                    at(
                        sink,
                        "no-print",
                        format!("`{text}!` in library code; return data or use the caller's sink"),
                    );
                }
                if obs {
                    let adhoc_macro = bang && matches!(text, "print" | "eprint");
                    let adhoc_handle = matches!(text, "stdout" | "stderr")
                        && txt(file, i + 1) == "("
                        && txt(file, i + 2) == ")";
                    if adhoc_macro || adhoc_handle {
                        at(
                            sink,
                            "obs-no-adhoc-print",
                            "ad-hoc process output in an instrumented module; \
                             emit a TraceEvent or Registry metric instead"
                                .to_string(),
                        );
                    }
                }
            }

            if reconstructor && text == "_" && txt(file, i + 1) == "=>" {
                at(
                    sink,
                    "trace-kind-exhaustive",
                    "wildcard `_ =>` arm in a trace reconstructor; match every TraceEvent \
                     variant explicitly so new kinds fail to compile instead of silently \
                     vanishing from timelines"
                        .to_string(),
                );
            }
        }

        if tok.kind == TokKind::Punct && text == "." {
            let name = txt(file, i + 1);
            let open = txt(file, i + 2) == "(";
            if hot && open && name == "unwrap" && txt(file, i + 3) == ")" {
                at(
                    sink,
                    "hot-path-panic",
                    "`unwrap` can panic mid-connection; handle the None/Err case".to_string(),
                );
            }
            if hot && open && name == "expect" {
                at(
                    sink,
                    "hot-path-panic",
                    "`expect` can panic mid-connection; handle the None/Err case".to_string(),
                );
            }
        }

        // `ident[4]` / `)[0]` / `][1]`: indexing by integer literal.
        if hot && tok.kind == TokKind::Punct && text == "[" && i > 0 {
            let prev = txt(file, i - 1);
            let prev_ok = kind_at(file, i - 1) == Some(TokKind::Ident) && !is_keyword(prev)
                || prev == ")"
                || prev == "]";
            if prev_ok && kind_at(file, i + 1) == Some(TokKind::Int) && txt(file, i + 2) == "]" {
                at(
                    sink,
                    "hot-path-index",
                    "indexing by literal can panic on short input; use get() or check length"
                        .to_string(),
                );
            }
        }

        // Exact float equality.
        if float_crate && tok.kind == TokKind::Punct && (text == "==" || text == "!=") {
            let left_float = i > 0 && operand_is_floaty(file, i - 1);
            let right = if txt(file, i + 1) == "-" {
                i + 2
            } else {
                i + 1
            };
            let right_float = operand_is_floaty(file, right);
            if left_float || right_float {
                at(
                    sink,
                    "float-eq",
                    "exact float equality in resource/credit math; compare with a tolerance"
                        .to_string(),
                );
            }
        }
    }
}

fn is_keyword(t: &str) -> bool {
    matches!(
        t,
        "if" | "while" | "match" | "for" | "return" | "in" | "let" | "else" | "loop" | "as"
    )
}

/// Whether the operand token at `i` is a float literal or a known
/// float-carrying field/binding name (`credit`, `self.balance`,
/// `v.cpu_us`, `total_credit`).
fn operand_is_floaty(file: &FileModel, i: usize) -> bool {
    let Some(kind) = kind_at(file, i) else {
        return false;
    };
    match kind {
        TokKind::Float => true,
        TokKind::Ident => {
            let t = txt(file, i);
            rules::FLOAT_FIELDS
                .iter()
                .any(|f| t == *f || t.ends_with(&format!("_{f}")))
        }
        _ => false,
    }
}
