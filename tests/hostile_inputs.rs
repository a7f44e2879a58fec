//! Fuzz suites for the parsers that read bytes a client or a file controls:
//! the JSON request parser, the CSV loader and the basket loader.  Every
//! input must end in `Ok` or `Err` — never a panic.
//!
//! Each suite feeds two kinds of text.  Arbitrary strings mix the format's
//! syntax fragments (quotes, escapes, separators, numbers at the edges of
//! their types, line breaks) with arbitrary Unicode scalar values.  Mutated
//! documents start from a well-formed JSON value or CSV table and then have
//! pieces deleted, inserted, duplicated or cut off, so the parser gets deep
//! into a document before it meets the damage.

use proptest::prelude::*;
use sigrule_repro::data::discretize::DiscretizeMethod;
use sigrule_repro::prelude::*;
use sigrule_repro::server::json::Json;

/// Syntax fragments shared by the three formats.
const COMMON: &[&str] = &[
    " ",
    "\t",
    "\n",
    "\r\n",
    "\r",
    ",",
    ";",
    "\"",
    "\"\"",
    "'",
    "\\",
    "#",
    "?",
    "-",
    "+",
    ".",
    "0",
    "1",
    "7",
    "e",
    "E",
    "a",
    "b",
    "x",
    "é",
    "😀",
    "\u{0}",
    "\u{7f}",
    "\u{feff}",
    "18446744073709551615",
    "18446744073709551616",
    "-9223372036854775809",
    "1e308",
    "1e999",
    "-0",
    "NaN",
    "inf",
    "0.5",
    "1.5e-320",
];

/// JSON fragments: structure, literals and escapes, including broken ones.
const JSON: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ":",
    "\"cmd\"",
    "\"id\"",
    "true",
    "false",
    "null",
    "tru",
    "nul",
    "\\u",
    "\\u00",
    "\\u0041",
    "\\ud83d",
    "\\ude00",
    "\\ud83d\\ude00",
    "\\n",
    "\\\"",
    "\\x",
    "[[[[[[[[",
    "]]]]]]]]",
    "{\"a\":",
    "{\"a\":1}",
    "00",
    "0x10",
    ".5",
    "5.",
    "1e",
    "1e+",
];

/// CSV fragments: header words, class values and quoted fields.
const CSV: &[&str] = &[
    "a,b,cls\n",
    "x,y,pos\n",
    "1,2,neg\n",
    "\"a,b\"",
    "\"a\"\"b\"",
    "\"unterminated",
    ",,,",
    "cls",
    "pos",
    "neg",
    "3.25",
    "-1e5",
    "\n\n",
];

/// Basket fragments: items, label tokens and comments.
const BASKET: &[&str] = &[
    "label:",
    "label:pos",
    "label:neg",
    "label:label:",
    "milk",
    "bread",
    "milk milk",
    "# comment\n",
    "\n",
    "  ",
    "label:pos label:neg",
    "item:1",
    ":",
];

/// Arbitrary strings: each piece is a fragment from `fragments` or
/// [`COMMON`], or an arbitrary Unicode scalar value.
fn text(fragments: &'static [&'static str]) -> impl Strategy<Value = String> {
    prop::collection::vec((0u32..4, 0u32..0x11_0000), 0..80).prop_map(move |pieces| {
        let mut out = String::new();
        for (kind, n) in pieces {
            match kind {
                0 => out.push_str(fragments[n as usize % fragments.len()]),
                1 => out.push_str(COMMON[n as usize % COMMON.len()]),
                2 => out.push(char::from_u32(n).unwrap_or('\u{fffd}')),
                _ => out.push(char::from_u32(n % 0x80).expect("ASCII")),
            }
        }
        out
    })
}

/// Draws bounded choices from a pre-drawn word list (the stand-in proptest
/// has no recursive strategies); past the end every draw is 0.
struct Draw {
    words: Vec<u32>,
    at: usize,
}

impl Draw {
    fn below(&mut self, n: usize) -> usize {
        let word = self.words.get(self.at).copied().unwrap_or(0);
        self.at += 1;
        word as usize % n.max(1)
    }

    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.below(from.len())]
    }
}

/// Appends a well-formed JSON value of nesting depth at most 4.
fn json_value(d: &mut Draw, depth: usize, out: &mut String) {
    const NUMBERS: &[&str] = &[
        "0",
        "-0",
        "17",
        "-3",
        "0.25",
        "1e3",
        "2.5E-7",
        "18446744073709551615",
        "18446744073709551616",
        "-9223372036854775808",
        "1e308",
        "1e999",
        "9007199254740993",
    ];
    const STRINGS: &[&str] = &[
        "",
        "cmd",
        "correct",
        "a b",
        "\\\"",
        "\\\\",
        "\\/",
        "\\n",
        "\\t",
        "\\u0041",
        "\\u00e9",
        "\\ud83d\\ude00",
        "é",
        "😀",
        "\u{7f}",
    ];
    match d.below(if depth >= 4 { 4 } else { 6 }) {
        0 => out.push_str(d.pick(&["true", "false", "null"])),
        1 => out.push_str(d.pick(NUMBERS)),
        2 | 3 => {
            out.push('"');
            for _ in 0..d.below(4) {
                out.push_str(d.pick(STRINGS));
            }
            out.push('"');
        }
        4 => {
            out.push('[');
            for i in 0..d.below(4) {
                if i > 0 {
                    out.push(',');
                }
                json_value(d, depth + 1, out);
            }
            out.push(']');
        }
        _ => {
            out.push('{');
            for i in 0..d.below(4) {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(d.pick(&["\"cmd\"", "\"id\"", "\"min_sup\"", "\"\"", "\"a\""]));
                out.push(':');
                json_value(d, depth + 1, out);
            }
            out.push('}');
        }
    }
}

/// Appends a CSV table: a header and rows of mostly the header's width,
/// with numeric, nominal, missing and quoted fields.
fn csv_table(d: &mut Draw, out: &mut String) {
    const FIELDS: &[&str] = &[
        "1",
        "2.5",
        "-7",
        "1e3",
        "NaN",
        "x",
        "y",
        "?",
        "",
        "\"q,r\"",
        "\"a\"\"b\"",
        "\"line\nbreak\"",
        " pad ",
        "é",
    ];
    let width = 2 + d.below(3);
    let header: Vec<String> = (0..width).map(|i| format!("c{i}")).collect();
    out.push_str(&header.join(","));
    out.push('\n');
    for _ in 0..d.below(12) {
        let fields = match d.below(24) {
            0 => width + 1,
            1 => width.saturating_sub(1),
            _ => width,
        };
        let row: Vec<&str> = (0..fields).map(|_| d.pick(FIELDS)).collect();
        out.push_str(&row.join(","));
        out.push_str(d.pick(&["\n", "\n", "\r\n", ""]));
    }
}

/// Damages `doc` a few times: deletes a span, inserts a fragment,
/// duplicates a span, or cuts the document off.  Spans lie on character
/// boundaries, so the result is still a `String`.
fn mutate(d: &mut Draw, doc: String, fragments: &[&str]) -> String {
    let mut chars: Vec<char> = doc.chars().collect();
    for _ in 0..d.below(4) {
        let at = d.below(chars.len() + 1);
        let len = d.below(6).min(chars.len() - at);
        match d.below(4) {
            0 => {
                chars.drain(at..at + len);
            }
            1 => {
                let fragment = d.pick(fragments);
                chars.splice(at..at, fragment.chars());
            }
            2 => {
                let span: Vec<char> = chars[at..at + len].to_vec();
                chars.splice(at..at, span);
            }
            _ => chars.truncate(at),
        }
    }
    chars.into_iter().collect()
}

/// A well-formed document from `build`, then damaged by [`mutate`].
fn mutated(
    build: fn(&mut Draw, &mut String),
    fragments: &'static [&'static str],
) -> impl Strategy<Value = String> {
    prop::collection::vec(0u32..u32::MAX, 0..120).prop_map(move |words| {
        let mut d = Draw { words, at: 0 };
        let mut doc = String::new();
        build(&mut d, &mut doc);
        mutate(&mut d, doc, fragments)
    })
}

fn json_document(d: &mut Draw, out: &mut String) {
    json_value(d, 0, out)
}

/// The CSV loader options a case runs under.
fn csv_options(variant: u32) -> LoadOptions {
    let mut options = LoadOptions::default();
    match variant {
        0 => {}
        1 => options.has_header = false,
        2 => options.separator = ';',
        3 => options.class_column = Some(0),
        4 => options.class_column_name = Some("c1".to_string()),
        5 => options.discretize = DiscretizeMethod::EqualWidth(3),
        _ => {
            options.quote = None;
            options.discretize = DiscretizeMethod::EqualFrequency(3);
        }
    }
    options
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn json_parse_never_panics(line in text(JSON), doc in mutated(json_document, JSON)) {
        // Ok or Err both pass; a panic fails the test.
        let _ = Json::parse(&line);
        let _ = Json::parse(&doc);
        // The same texts as a value inside a request object.
        let _ = Json::parse(&format!("{{\"cmd\":\"load\",\"path\":{line}}}"));
        let _ = Json::parse(&format!("{{\"cmd\":\"load\",\"path\":{doc}}}"));
    }

    #[test]
    fn csv_loader_never_panics(
        body in text(CSV),
        table in mutated(csv_table, CSV),
        variant in 0u32..7,
    ) {
        let options = csv_options(variant);
        let _ = load_csv_str(&body, &options);
        let _ = load_csv_str(&table, &options);
        // Behind a well-formed header, so the arbitrary rows get parsed.
        let _ = load_csv_str(&format!("c0,c1,c2\n{body}"), &options);
    }

    #[test]
    fn basket_loader_never_panics(body in text(BASKET), labelled in 0u32..2) {
        let mut options = BasketOptions::default();
        if labelled == 1 {
            options.default_class = Some("none".to_string());
        }
        let _ = load_baskets_str(&body, &options);
        let _ = load_baskets_str(&format!("milk bread label:pos\n{body}"), &options);
    }
}
