//! Property tests for the lint engine's totality guarantees.
//!
//! The linter runs in CI over every workspace file, so the one invariant
//! that matters above all others is: **the lexer and rule engine never
//! panic**, no matter what bytes they are fed. These properties throw
//! arbitrary byte soup (lossy-decoded, exactly as `check_path` does),
//! arbitrary printable source, and quote/comment-delimiter-heavy strings
//! at the full pipeline and assert structural invariants of the token
//! stream on top.

use crate::lexer::lex;
use crate::rules::check_file;
use crate::workspace::analyze_sources;
use proptest::collection::vec;
use proptest::prelude::*;

/// Strings biased toward the characters that drive lexer state machines:
/// quotes, slashes, stars, hashes, backslashes, and the `r`/`b`/`c`
/// prefixes, mixed with plain printables and some multi-byte UTF-8.
fn tricky_source() -> impl Strategy<Value = String> {
    vec(
        prop_oneof![
            Just("\"".to_owned()),
            Just("'".to_owned()),
            Just("//".to_owned()),
            Just("/*".to_owned()),
            Just("*/".to_owned()),
            Just("r#".to_owned()),
            Just("r\"".to_owned()),
            Just("br#\"".to_owned()),
            Just("c\"".to_owned()),
            Just("\\".to_owned()),
            Just("#".to_owned()),
            Just("\n".to_owned()),
            Just("æ—¥".to_owned()),
            "[ -~]{0,6}".prop_map(|s| s),
        ],
        0..60,
    )
    .prop_map(|parts| parts.concat())
}

proptest! {
    #[test]
    fn lexer_total_on_byte_soup(bytes in vec(any::<u8>(), 0..400)) {
        // `check_path` lossy-decodes unreadable bytes the same way.
        let src = String::from_utf8_lossy(&bytes).into_owned();
        let tokens = lex(&src);
        for t in &tokens {
            prop_assert!(t.start <= t.end, "span order");
            prop_assert!(t.end <= src.len(), "span in bounds");
            prop_assert!(src.is_char_boundary(t.start), "start on char boundary");
            prop_assert!(src.is_char_boundary(t.end), "end on char boundary");
            prop_assert!(t.line >= 1 && t.col >= 1, "1-based positions");
        }
    }

    #[test]
    fn lexer_total_on_tricky_source(src in tricky_source()) {
        let tokens = lex(&src);
        // Tokens must be non-overlapping and in order: each token starts
        // at or after the previous one ended.
        for w in tokens.windows(2) {
            prop_assert!(w[0].end <= w[1].start, "tokens ordered and disjoint");
        }
    }

    #[test]
    fn check_file_total_on_byte_soup(bytes in vec(any::<u8>(), 0..400)) {
        let src = String::from_utf8_lossy(&bytes).into_owned();
        // The hot-path crate scoping maximizes the number of rules that
        // run, so totality is exercised across the whole engine.
        for path in ["crates/serve/src/soup.rs", "crates/model/src/soup.rs", "x.rs"] {
            let findings = check_file(path, &src);
            for f in &findings {
                prop_assert!(f.line >= 1 && f.col >= 1, "1-based findings");
                prop_assert_eq!(f.path.as_str(), path);
            }
        }
    }

    #[test]
    fn full_pipeline_total_on_byte_soup(bytes in vec(any::<u8>(), 0..300)) {
        let src = String::from_utf8_lossy(&bytes).into_owned();
        let findings = analyze_sources(&[("crates/core/src/soup.rs".to_owned(), src)]);
        for f in &findings {
            prop_assert!(f.line >= 1 && f.col >= 1, "1-based findings");
        }
    }

    #[test]
    fn check_file_total_on_tricky_source(src in tricky_source()) {
        let findings = check_file("crates/serve/src/tricky.rs", &src);
        // Rendering must also be total: one `file:line:col: [rule]` line.
        for f in &findings {
            let text = f.render();
            prop_assert!(text.starts_with("crates/serve/src/tricky.rs:"));
            prop_assert!(text.contains(&format!("[{}]", f.rule)));
        }
    }
}
