//! Literal-prefix analysis — the query optimizer's hook.
//!
//! Code filters are overwhelmingly of the shapes `T90` (exact) and `K.*`
//! (prefix): the inverted index can answer those with a B-tree range scan
//! over the code vocabulary instead of testing every distinct code against
//! the automaton. This module extracts the guaranteed literal prefix of a
//! pattern (and whether the pattern is *exactly* that literal), computed
//! once at compile time.

use crate::ast::Ast;

/// The literal-prefix facts about a pattern.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PrefixInfo {
    /// Characters every full match must start with (may be empty).
    pub prefix: String,
    /// True when the pattern matches exactly the prefix string and nothing
    /// else (so index lookup degenerates to an equality probe).
    pub exact: bool,
}

/// Compute the prefix facts of a parsed pattern.
pub fn analyze(ast: &Ast) -> PrefixInfo {
    let (prefix, total) = walk(ast, true);
    PrefixInfo { exact: total, prefix }
}

/// Returns `(literal prefix, whole-node-is-exactly-that-literal)` for a
/// node that starts the haystack (`at_start`) or follows other text.
fn walk(ast: &Ast, at_start: bool) -> (String, bool) {
    match ast {
        Ast::Empty => (String::new(), true),
        Ast::Literal(c) => (c.to_string(), true),
        // `^` matches "" at the front and nothing after text: `K74^` is
        // no literal.
        Ast::AnchorStart => (String::new(), at_start),
        Ast::Concat(parts) => {
            let mut prefix = String::new();
            for p in parts {
                let (sub, total) = walk(p, at_start && prefix.is_empty());
                prefix.push_str(&sub);
                if !total {
                    return (prefix, false);
                }
            }
            (prefix, true)
        }
        Ast::Group { inner, .. } | Ast::NonCapturing(inner) => walk(inner, at_start),
        Ast::Alternate(branches) => {
            // Common prefix of all branches; exact only if every branch is
            // the same exact literal (pathological, treat as not exact).
            let mut iter = branches.iter().map(|b| walk(b, at_start));
            let Some((mut common, _)) = iter.next() else {
                return (String::new(), false);
            };
            for (sub, _) in iter {
                let shared = common
                    .chars()
                    .zip(sub.chars())
                    .take_while(|(a, b)| a == b)
                    .count();
                common = common.chars().take(shared).collect();
                if common.is_empty() {
                    break;
                }
            }
            (common, false)
        }
        Ast::Repeat { inner, min, .. } => {
            if *min == 0 {
                return (String::new(), false);
            }
            // One mandatory copy contributes its prefix.
            let (sub, _) = walk(inner, at_start);
            (sub, false)
        }
        // Classes, dot, end anchors contribute nothing certain.
        _ => (String::new(), false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn info(p: &str) -> PrefixInfo {
        analyze(&parse(p).unwrap())
    }

    #[test]
    fn exact_literals() {
        assert_eq!(info("T90"), PrefixInfo { prefix: "T90".into(), exact: true });
        assert_eq!(info(""), PrefixInfo { prefix: String::new(), exact: true });
        assert_eq!(info("^T90"), PrefixInfo { prefix: "T90".into(), exact: true });
        assert!(info("^(^T)90").exact);
    }

    #[test]
    fn a_start_anchor_after_text_is_no_literal() {
        for p in ["K74^", "K7^4", "(K74)^", "K(^)74"] {
            assert!(!info(p).exact, "{p}");
        }
    }

    #[test]
    fn prefix_patterns() {
        assert_eq!(info("K.*"), PrefixInfo { prefix: "K".into(), exact: false });
        assert_eq!(info("E1[014].*"), PrefixInfo { prefix: "E1".into(), exact: false });
        assert_eq!(info("C07AB.."), PrefixInfo { prefix: "C07AB".into(), exact: false });
    }

    #[test]
    fn alternation_takes_the_common_prefix() {
        assert_eq!(info("T90|T89").prefix, "T");
        assert_eq!(info("F.*|H.*").prefix, "");
        assert_eq!(info("K74|K77|K86").prefix, "K");
        assert!(!info("T90|T89").exact);
    }

    #[test]
    fn repeats_and_groups() {
        assert_eq!(info("(T9)0").prefix, "T90");
        assert!(info("(T9)0").exact);
        assert_eq!(info("a+b").prefix, "a");
        assert_eq!(info("a*b").prefix, "");
        assert_eq!(info("a{2,3}").prefix, "a");
        assert_eq!(info("(?:ab)+").prefix, "ab");
    }

    #[test]
    fn uncertain_heads_yield_empty_prefix() {
        for p in [".*", "[AB]1", "\\d+", "$"] {
            assert_eq!(info(p).prefix, "", "{p}");
            assert!(!info(p).exact, "{p}");
        }
    }
}
