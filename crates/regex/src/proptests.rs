//! Property tests: the engine is checked against a tiny reference
//! implementation (naive backtracking over the same AST) on small inputs,
//! plus structural invariants on arbitrary patterns.

use crate::ast::{Ast, ClassItem};
use crate::{parser, Regex};
use proptest::prelude::*;

/// A reference matcher: straightforward exponential backtracking over the
/// AST. Only used on tiny inputs where its cost is irrelevant. Returns
/// whether the whole string can be matched.
fn reference_full_match(ast: &Ast, input: &[char]) -> bool {
    fn go(ast: &Ast, input: &[char], i: usize, k: &mut dyn FnMut(usize) -> bool) -> bool {
        match ast {
            Ast::Empty => k(i),
            Ast::Literal(c) => i < input.len() && input[i] == *c && k(i + 1),
            Ast::Dot => i < input.len() && input[i] != '\n' && k(i + 1),
            Ast::Class { items, negated } => {
                i < input.len()
                    && (items.iter().any(|it| it.contains(input[i])) != *negated)
                    && k(i + 1)
            }
            Ast::Concat(parts) => {
                fn chain(
                    parts: &[Ast],
                    input: &[char],
                    i: usize,
                    k: &mut dyn FnMut(usize) -> bool,
                ) -> bool {
                    match parts.split_first() {
                        None => k(i),
                        Some((head, rest)) => {
                            go(head, input, i, &mut |j| chain(rest, input, j, k))
                        }
                    }
                }
                chain(parts, input, i, k)
            }
            Ast::Alternate(branches) => branches.iter().any(|b| go(b, input, i, k)),
            Ast::Repeat { inner, min, max, .. } => {
                fn rep(
                    inner: &Ast,
                    input: &[char],
                    i: usize,
                    done: u32,
                    min: u32,
                    max: Option<u32>,
                    k: &mut dyn FnMut(usize) -> bool,
                ) -> bool {
                    if done >= min && k(i) {
                        return true;
                    }
                    if max.is_some_and(|m| done >= m) {
                        return false;
                    }
                    // Bound runaway empty-iteration loops.
                    if done > input.len() as u32 + 2 {
                        return false;
                    }
                    go(inner, input, i, &mut |j| {
                        rep(inner, input, j, done + 1, min, max, k)
                    })
                }
                rep(inner, input, i, 0, *min, *max, k)
            }
            Ast::Group { inner, .. } | Ast::NonCapturing(inner) => go(inner, input, i, k),
            Ast::AnchorStart => i == 0 && k(i),
            Ast::AnchorEnd => i == input.len() && k(i),
        }
    }
    go(ast, input, 0, &mut |i| i == input.len())
}

/// Strategy: small patterns over a 3-letter alphabet, exercising every
/// construct the engine supports.
fn arb_pattern() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        Just("a".to_owned()),
        Just("b".to_owned()),
        Just("c".to_owned()),
        Just(".".to_owned()),
        Just("[ab]".to_owned()),
        Just("[^a]".to_owned()),
        Just("[a-c]".to_owned()),
    ];
    // Depth is kept small: the *reference* matcher is an exponential
    // backtracker, and nested counted repeats at depth 3 occasionally
    // generate patterns it cannot decide within minutes.
    leaf.prop_recursive(2, 10, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("{a}{b}")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("(?:{a}|{b})")),
            inner.clone().prop_map(|a| format!("(?:{a})*")),
            inner.clone().prop_map(|a| format!("(?:{a})+")),
            inner.clone().prop_map(|a| format!("(?:{a})?")),
            inner.clone().prop_map(|a| format!("(?:{a}){{1,2}}")),
            inner.prop_map(|a| format!("({a})")),
        ]
    })
}

fn arb_input() -> impl Strategy<Value = String> {
    proptest::collection::vec(prop_oneof![Just('a'), Just('b'), Just('c'), Just('d')], 0..7)
        .prop_map(|cs| cs.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The Pike VM agrees with the naive backtracker on full-match
    /// existence for every generated (pattern, input) pair.
    #[test]
    fn vm_agrees_with_reference(p in arb_pattern(), input in arb_input()) {
        let ast = parser::parse(&p).unwrap();
        let chars: Vec<char> = input.chars().collect();
        let expected = reference_full_match(&ast, &chars);
        let got = Regex::new(&p).unwrap().is_full_match(&input);
        prop_assert_eq!(got, expected, "pattern {} on {:?}", p, input);
    }

    /// `find` results are consistent: the reported range actually matches
    /// when re-checked in full-match mode, and lies within the haystack.
    #[test]
    fn find_reports_a_real_match(p in arb_pattern(), input in arb_input()) {
        let r = Regex::new(&p).unwrap();
        if let Some(m) = r.find(&input) {
            prop_assert!(m.start <= m.end && m.end <= input.len());
            prop_assert!(input.is_char_boundary(m.start) && input.is_char_boundary(m.end));
            prop_assert!(r.is_full_match(&input[m.start..m.end]),
                "reported range {:?} of {:?} does not full-match {}", (m.start, m.end), input, p);
        }
    }

    /// is_match is implied by is_full_match, and find is consistent with
    /// is_match.
    #[test]
    fn match_predicates_are_consistent(p in arb_pattern(), input in arb_input()) {
        let r = Regex::new(&p).unwrap();
        if r.is_full_match(&input) {
            prop_assert!(r.is_match(&input));
        }
        prop_assert_eq!(r.is_match(&input), r.find(&input).is_some());
    }

    /// Parsing never panics on arbitrary byte soup.
    #[test]
    fn parser_never_panics(p in "\\PC{0,24}") {
        let _ = Regex::new(&p);
    }

    /// find_iter terminates and yields non-overlapping, ordered matches.
    #[test]
    fn find_iter_is_ordered(p in arb_pattern(), input in arb_input()) {
        let r = Regex::new(&p).unwrap();
        let ms: Vec<_> = r.find_iter(&input).take(64).collect();
        for w in ms.windows(2) {
            prop_assert!(w[1].start >= w[0].end || (w[0].start == w[0].end && w[1].start > w[0].start));
        }
    }

    /// The pooled engine is byte-for-byte compatible with the original
    /// char VM: identical `Match` (offsets *and*
    /// capture groups) at every start offset, in both search modes.
    #[test]
    fn generic_engine_agrees_with_classic_vm(p in arb_pattern(), input in arb_input()) {
        let r = Regex::new(&p).unwrap();
        for full in [false, true] {
            for start in 0..=input.len() {
                if !input.is_char_boundary(start) {
                    continue;
                }
                let classic = crate::vm::classic_search(&r.program, &input, start, full);
                let generic = crate::vm::search(&r.program, &input, start, full);
                prop_assert_eq!(
                    &generic, &classic,
                    "pattern {} on {:?} (start {}, full {})", p, input, start, full
                );
            }
        }
    }
}

#[test]
fn class_item_range_contains_is_transitive_sanity() {
    // Spot check that ClassItem agrees with char ordering.
    assert!(ClassItem::Range('a', 'z').contains('m'));
    assert!(!ClassItem::Range('a', 'z').contains('A'));
}
