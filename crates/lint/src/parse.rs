//! A lightweight item parser over the token stream.
//!
//! Recovers just enough structure for cross-file analysis: item spans
//! (`fn`/`struct`/`enum`/`impl`/`mod`/`static`), enum variants, the `impl`
//! type each method belongs to, and which tokens sit inside
//! `#[cfg(test)]`-gated items. It is not a Rust parser — it tracks brace
//! structure and a handful of keywords, and anything unrecognized is
//! skipped token-by-token, which is the right degradation for a linter.

use crate::lexer::{Tok, TokKind};

/// What kind of item a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// A function or method (`impl_type` names the surrounding impl).
    Fn,
    /// A struct definition.
    Struct,
    /// An enum definition (variant names captured).
    Enum,
    /// A `static` item — shared mutable state candidate.
    Static,
}

/// One enum variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Variant {
    /// Variant name.
    pub name: String,
    /// 1-based line of the variant name.
    pub line: usize,
}

/// One recovered item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Item {
    /// Item class.
    pub kind: ItemKind,
    /// Item name (`run_cycle_into`, `ClusterSim`, …).
    pub name: String,
    /// Surrounding `impl` type for methods (`EventQueue` for
    /// `impl<E> EventQueue<E> { fn pop… }`), `None` for free items.
    pub impl_type: Option<String>,
    /// 1-based line where the item's defining keyword appears.
    pub line: usize,
    /// Token index range of the item's body (inside its braces); empty for
    /// braceless items (`static X: T = …;`).
    pub body: std::ops::Range<usize>,
    /// Whether the item (or an enclosing item) is `#[cfg(test)]`-gated.
    pub is_test: bool,
    /// Enum variants (enums only).
    pub variants: Vec<Variant>,
}

/// Parse result: items plus a per-token test mask.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// All recovered items, in source order.
    pub items: Vec<Item>,
    /// `mask[i]` is true when token `i` is inside a `#[cfg(test)]` item.
    pub test_mask: Vec<bool>,
}

/// Parses the token stream of one file.
pub fn parse_items(src: &str, toks: &[Tok]) -> ParsedFile {
    let mut p = Parser {
        src,
        toks,
        items: Vec::new(),
        test_mask: vec![false; toks.len()],
    };
    p.scan(0, toks.len(), false, None);
    ParsedFile {
        items: p.items,
        test_mask: p.test_mask,
    }
}

struct Parser<'a> {
    src: &'a str,
    toks: &'a [Tok],
    items: Vec<Item>,
    test_mask: Vec<bool>,
}

impl Parser<'_> {
    fn text(&self, i: usize) -> &str {
        self.toks[i].text(self.src)
    }

    fn is_punct(&self, i: usize, p: &str) -> bool {
        i < self.toks.len() && self.toks[i].kind == TokKind::Punct && self.text(i) == p
    }

    fn is_ident(&self, i: usize, id: &str) -> bool {
        i < self.toks.len() && self.toks[i].kind == TokKind::Ident && self.text(i) == id
    }

    /// Index just past the delimiter-balanced region starting at `open`
    /// (which must be `(`, `[`, `{` or `<`). Clamped to `end`.
    fn skip_balanced(&self, open: usize, end: usize) -> usize {
        let (o, c) = match self.text(open) {
            "(" => ("(", ")"),
            "[" => ("[", "]"),
            "{" => ("{", "}"),
            "<" => ("<", ">"),
            _ => return open + 1,
        };
        let mut depth = 0usize;
        let mut i = open;
        while i < end {
            if self.toks[i].kind == TokKind::Punct {
                let t = self.text(i);
                if t == o {
                    depth += 1;
                } else if t == c {
                    depth -= 1;
                    if depth == 0 {
                        return i + 1;
                    }
                } else if o == "<" && (t == "->" || t == ";") {
                    // Bail out of a generics scan that was actually a
                    // comparison; callers treat this as "no generics".
                    return open + 1;
                }
            }
            i += 1;
        }
        end
    }

    /// Scans `[from, end)` at item level, attributing items to `in_test` /
    /// `impl_ctx`.
    fn scan(&mut self, from: usize, end: usize, in_test: bool, impl_ctx: Option<&str>) {
        let mut i = from;
        while i < end {
            // Attributes: `#[…]` (outer) or `#![…]` (inner). Detect
            // cfg(test) on outer attributes and remember it for the item
            // that follows.
            let mut item_test = in_test;
            while self.is_punct(i, "#") {
                let mut j = i + 1;
                if self.is_punct(j, "!") {
                    j += 1;
                }
                if !self.is_punct(j, "[") {
                    break;
                }
                let close = self.skip_balanced(j, end);
                if self.attr_is_cfg_test(j, close) {
                    item_test = true;
                }
                i = close;
            }
            if i >= end {
                break;
            }
            if self.toks[i].kind != TokKind::Ident {
                // Delimiters: descend into stray braces so nested items
                // (e.g. inside macro invocations) are still seen.
                if self.is_punct(i, "{") {
                    let close = self.skip_balanced(i, end);
                    self.scan(i + 1, close.saturating_sub(1), item_test, impl_ctx);
                    i = close;
                } else {
                    i += 1;
                }
                continue;
            }
            match self.text(i) {
                "fn" => i = self.item_fn(i, end, item_test, impl_ctx),
                "struct" => i = self.item_struct(i, end, item_test),
                "enum" => i = self.item_enum(i, end, item_test),
                "impl" => i = self.item_impl(i, end, item_test),
                "mod" => i = self.item_mod(i, end, item_test),
                "static" => i = self.item_static(i, end, item_test),
                "trait" => i = self.item_braced_opaque(i, end, item_test),
                _ => i += 1,
            }
        }
    }

    fn attr_is_cfg_test(&self, open_bracket: usize, close: usize) -> bool {
        // Matches `cfg ( … test … )` inside the attribute brackets, which
        // covers `#[cfg(test)]` and `#[cfg(all(test, …))]`.
        let mut saw_cfg = false;
        for i in open_bracket..close {
            if self.toks[i].kind == TokKind::Ident {
                match self.text(i) {
                    "cfg" => saw_cfg = true,
                    "test" if saw_cfg => return true,
                    _ => {}
                }
            }
        }
        false
    }

    fn mark_test(&mut self, range: std::ops::Range<usize>) {
        for i in range {
            self.test_mask[i] = true;
        }
    }

    /// Finds the body braces of an item whose header starts at `kw` and
    /// returns `(body_range, next)`. Stops at `;` (braceless item).
    fn find_body(&self, kw: usize, end: usize) -> (std::ops::Range<usize>, usize) {
        let mut i = kw;
        while i < end {
            if self.is_punct(i, "{") {
                let close = self.skip_balanced(i, end);
                return (i + 1..close.saturating_sub(1), close);
            }
            if self.is_punct(i, ";") {
                return (i..i, i + 1);
            }
            if self.is_punct(i, "(") || self.is_punct(i, "[") {
                i = self.skip_balanced(i, end);
                continue;
            }
            i += 1;
        }
        (end..end, end)
    }

    fn item_fn(&mut self, kw: usize, end: usize, is_test: bool, impl_ctx: Option<&str>) -> usize {
        let name_idx = kw + 1;
        if name_idx >= end || self.toks[name_idx].kind != TokKind::Ident {
            return kw + 1;
        }
        let name = self.text(name_idx).to_string();
        let (body, next) = self.find_body(name_idx, end);
        if is_test {
            self.mark_test(kw..next);
        }
        self.items.push(Item {
            kind: ItemKind::Fn,
            name,
            impl_type: impl_ctx.map(str::to_string),
            line: self.toks[kw].line,
            body: body.clone(),
            is_test,
            variants: Vec::new(),
        });
        // Nested fns / statics inside the body.
        self.scan(body.start, body.end, is_test, None);
        next
    }

    fn item_struct(&mut self, kw: usize, end: usize, is_test: bool) -> usize {
        let name_idx = kw + 1;
        if name_idx >= end || self.toks[name_idx].kind != TokKind::Ident {
            return kw + 1;
        }
        let name = self.text(name_idx).to_string();
        let (body, next) = self.find_body(name_idx, end);
        if is_test {
            self.mark_test(kw..next);
        }
        self.items.push(Item {
            kind: ItemKind::Struct,
            name,
            impl_type: None,
            line: self.toks[kw].line,
            body,
            is_test,
            variants: Vec::new(),
        });
        next
    }

    fn item_enum(&mut self, kw: usize, end: usize, is_test: bool) -> usize {
        let name_idx = kw + 1;
        if name_idx >= end || self.toks[name_idx].kind != TokKind::Ident {
            return kw + 1;
        }
        let name = self.text(name_idx).to_string();
        let (body, next) = self.find_body(name_idx, end);
        let mut variants = Vec::new();
        let mut i = body.start;
        let mut expect_variant = true;
        while i < body.end {
            while self.is_punct(i, "#") && self.is_punct(i + 1, "[") {
                i = self.skip_balanced(i + 1, body.end);
            }
            if i >= body.end {
                break;
            }
            if expect_variant && self.toks[i].kind == TokKind::Ident {
                variants.push(Variant {
                    name: self.text(i).to_string(),
                    line: self.toks[i].line,
                });
                expect_variant = false;
                i += 1;
            } else if self.is_punct(i, "(") || self.is_punct(i, "{") {
                i = self.skip_balanced(i, body.end);
            } else if self.is_punct(i, ",") {
                expect_variant = true;
                i += 1;
            } else {
                i += 1;
            }
        }
        if is_test {
            self.mark_test(kw..next);
        }
        self.items.push(Item {
            kind: ItemKind::Enum,
            name,
            impl_type: None,
            line: self.toks[kw].line,
            body,
            is_test,
            variants,
        });
        next
    }

    fn item_impl(&mut self, kw: usize, end: usize, is_test: bool) -> usize {
        // `impl<G> Type<G> {`, `impl Trait for Type {`. The impl type is
        // the last path segment before the body (after `for`, if any).
        let mut i = kw + 1;
        if self.is_punct(i, "<") {
            i = self.skip_balanced(i, end);
        }
        let mut ty: Option<String> = None;
        let mut after_for = false;
        while i < end && !self.is_punct(i, "{") && !self.is_punct(i, ";") {
            if self.is_ident(i, "for") {
                after_for = true;
                ty = None;
                i += 1;
                continue;
            }
            if self.is_ident(i, "where") {
                break;
            }
            if self.toks[i].kind == TokKind::Ident {
                ty = Some(self.text(i).to_string());
                i += 1;
                if self.is_punct(i, "<") {
                    i = self.skip_balanced(i, end);
                }
                continue;
            }
            i += 1;
        }
        let _ = after_for;
        let (body, next) = self.find_body(i, end);
        if is_test {
            self.mark_test(kw..next);
        }
        let ty_owned = ty.unwrap_or_default();
        self.scan(
            body.start,
            body.end,
            is_test,
            if ty_owned.is_empty() {
                None
            } else {
                Some(&ty_owned)
            },
        );
        next
    }

    fn item_mod(&mut self, kw: usize, end: usize, is_test: bool) -> usize {
        let (body, next) = self.find_body(kw + 1, end);
        if is_test {
            self.mark_test(kw..next);
        }
        self.scan(body.start, body.end, is_test, None);
        next
    }

    fn item_static(&mut self, kw: usize, end: usize, is_test: bool) -> usize {
        // `static NAME: T = …;` (possibly `static mut`).
        let mut i = kw + 1;
        if self.is_ident(i, "mut") {
            i += 1;
        }
        if i >= end || self.toks[i].kind != TokKind::Ident {
            return kw + 1;
        }
        let name = self.text(i).to_string();
        let mut j = i;
        while j < end && !self.is_punct(j, ";") {
            if self.is_punct(j, "{") || self.is_punct(j, "(") || self.is_punct(j, "[") {
                j = self.skip_balanced(j, end);
                continue;
            }
            j += 1;
        }
        let next = (j + 1).min(end);
        if is_test {
            self.mark_test(kw..next);
        }
        self.items.push(Item {
            kind: ItemKind::Static,
            name,
            impl_type: None,
            line: self.toks[kw].line,
            body: kw..kw,
            is_test,
            variants: Vec::new(),
        });
        next
    }

    /// Traits (and other braced items we don't model): record nothing but
    /// still propagate the test mask and descend for nested bodies.
    fn item_braced_opaque(&mut self, kw: usize, end: usize, is_test: bool) -> usize {
        let (body, next) = self.find_body(kw + 1, end);
        if is_test {
            self.mark_test(kw..next);
        }
        self.scan(body.start, body.end, is_test, None);
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> ParsedFile {
        parse_items(src, &lex(src))
    }

    #[test]
    fn fns_and_impl_types() {
        let p = parse(
            "fn free() {}\nimpl<E> EventQueue<E> { pub fn pop(&mut self) -> u32 { 1 } }\n\
             impl Display for Foo { fn fmt(&self) {} }",
        );
        let fns: Vec<(&str, Option<&str>)> = p
            .items
            .iter()
            .filter(|i| i.kind == ItemKind::Fn)
            .map(|i| (i.name.as_str(), i.impl_type.as_deref()))
            .collect();
        assert_eq!(
            fns,
            vec![
                ("free", None),
                ("pop", Some("EventQueue")),
                ("fmt", Some("Foo"))
            ]
        );
    }

    #[test]
    fn enum_variants_with_payloads() {
        let p = parse(
            "pub enum TraceEvent {\n    SchedCycle { cycle: u64 },\n    Drop { sub: u32 },\n    \
             Plain,\n}",
        );
        let e = &p.items[0];
        let names: Vec<&str> = e.variants.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names, vec!["SchedCycle", "Drop", "Plain"]);
        assert_eq!(e.variants[2].line, 4);
    }

    #[test]
    fn cfg_test_marks_tokens() {
        let src = "fn real() { a(); }\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn after() {}";
        let toks = lex(src);
        let p = parse_items(src, &toks);
        let unwrap_idx = toks
            .iter()
            .position(|t| t.text(src) == "unwrap")
            .expect("unwrap token");
        assert!(p.test_mask[unwrap_idx]);
        let after_idx = toks
            .iter()
            .position(|t| t.text(src) == "after")
            .expect("after token");
        assert!(!p.test_mask[after_idx]);
    }

    #[test]
    fn cfg_test_on_single_fn() {
        let src = "#[cfg(test)]\nfn helper() { y.unwrap(); }\nfn live() {}";
        let toks = lex(src);
        let p = parse_items(src, &toks);
        let unwrap_idx = toks.iter().position(|t| t.text(src) == "unwrap").unwrap();
        assert!(p.test_mask[unwrap_idx]);
        let live = p.items.iter().find(|i| i.name == "live").unwrap();
        assert!(!live.is_test);
    }

    #[test]
    fn statics_are_recorded() {
        let p = parse("static GLOBAL: u64 = 0;\nfn f() { static INNER: u8 = 1; }");
        let statics: Vec<&str> = p
            .items
            .iter()
            .filter(|i| i.kind == ItemKind::Static)
            .map(|i| i.name.as_str())
            .collect();
        assert!(statics.contains(&"GLOBAL") && statics.contains(&"INNER"));
        assert_eq!(statics.len(), 2);
    }
}
