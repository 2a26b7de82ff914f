//! A from-scratch regular-expression engine for the PAsTAs workbench.
//!
//! The paper uses regular expressions as its *lingua franca* for selecting
//! subsets of code hierarchies ("to specify diagnoses concerning the eye (F)
//! or ear (H) one may specify `F.*|H.*`"), for NSEPter's node merging, and
//! for extracting structure from free text. The original relied on
//! `java.util.regex`; we build the engine ourselves so that
//!
//! * the workspace stays dependency-light, and
//! * matching is **guaranteed linear time** in the input (Thompson/Pike VM,
//!   no backtracking), which matters for interactive filters over 168,000
//!   histories.
//!
//! Supported syntax: literals, `.`, escapes (`\d \D \w \W \s \S \n \t \r`
//! and punctuation escapes), character classes `[a-z0-9_]` / `[^…]`,
//! alternation `|`, grouping `(…)` and `(?:…)`, repetition `* + ?` and
//! counted `{m}`, `{m,}`, `{m,n}` (greedy and lazy `*? +? ?? {m,n}?`), and
//! anchors `^ $`. Capturing groups are supported and used by the free-text
//! extractors in `pastas-ingest`.
//!
//! ```
//! use pastas_regex::Regex;
//! let eye_or_ear = Regex::new("F.*|H.*").unwrap();
//! assert!(eye_or_ear.is_full_match("F83"));   // eye diagnosis
//! assert!(eye_or_ear.is_full_match("H71"));   // ear diagnosis
//! assert!(!eye_or_ear.is_full_match("T90"));  // diabetes
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod ast;
mod compile;
mod engine;
mod parser;
mod prefix;
mod vm;

pub use ast::{Ast, ClassItem};
pub use parser::{ParseError, ParseErrorKind};
pub use prefix::PrefixInfo;

use compile::CharPred;
use engine::Program;

/// A compiled regular expression.
///
/// Construction parses and compiles to an NFA program once; matching runs
/// the Pike VM in `O(input · program)` time with no backtracking.
#[derive(Debug, Clone)]
pub struct Regex {
    pattern: String,
    program: Program<CharPred>,
    /// Number of capturing groups (excluding group 0, the whole match).
    group_count: usize,
    /// Literal-prefix facts for index acceleration.
    prefix: PrefixInfo,
}

/// A successful match: byte offsets into the haystack plus capture groups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Match {
    /// Start byte offset of the whole match.
    pub start: usize,
    /// End byte offset (exclusive) of the whole match.
    pub end: usize,
    /// Byte ranges for each capturing group (index 0 = whole match);
    /// `None` when the group did not participate.
    pub groups: Vec<Option<(usize, usize)>>,
}

impl Match {
    /// The matched text of capture group `i` within `haystack`.
    pub fn group<'h>(&self, i: usize, haystack: &'h str) -> Option<&'h str> {
        let (s, e) = (*self.groups.get(i)?)?;
        haystack.get(s..e)
    }
}

impl Regex {
    /// Parse and compile `pattern`.
    pub fn new(pattern: &str) -> Result<Regex, ParseError> {
        Self::with_options(pattern, false)
    }

    /// Parse and compile `pattern`, optionally case-insensitive (ASCII
    /// folding — clinical codes are ASCII; full Unicode folding is out of
    /// scope).
    pub fn with_options(pattern: &str, case_insensitive: bool) -> Result<Regex, ParseError> {
        let ast = parser::parse(pattern)?;
        let group_count = ast.count_groups();
        // Case folding invalidates the literal prefix; fall back to the
        // conservative empty prefix.
        let prefix = if case_insensitive { PrefixInfo::default() } else { prefix::analyze(&ast) };
        let program = compile::compile(&ast, case_insensitive);
        Ok(Regex { pattern: pattern.to_owned(), program, group_count, prefix })
    }

    /// Literal-prefix facts (every full match starts with
    /// `prefix_info().prefix`; if `exact`, the pattern IS that literal).
    /// Index implementations use this to replace vocabulary scans with
    /// B-tree range probes.
    pub fn prefix_info(&self) -> &PrefixInfo {
        &self.prefix
    }

    /// The original pattern string.
    pub fn pattern(&self) -> &str {
        &self.pattern
    }

    /// Number of capturing groups (excluding the implicit whole-match group).
    pub fn group_count(&self) -> usize {
        self.group_count
    }

    /// True if the pattern matches anywhere in `haystack`.
    pub fn is_match(&self, haystack: &str) -> bool {
        vm::search(&self.program, haystack, 0, false).is_some()
    }

    /// True if the pattern matches the *entire* `haystack`.
    ///
    /// This is the semantics used for code predicates: `F.*` selects every
    /// code in ICPC chapter F, but must not select `XF1`.
    pub fn is_full_match(&self, haystack: &str) -> bool {
        match vm::search(&self.program, haystack, 0, true) {
            Some(m) => m.start == 0 && m.end == haystack.len(),
            None => false,
        }
    }

    /// Leftmost match anywhere in `haystack`.
    pub fn find(&self, haystack: &str) -> Option<Match> {
        self.find_at(haystack, 0)
    }

    /// Leftmost match starting at or after byte offset `start`.
    pub fn find_at(&self, haystack: &str, start: usize) -> Option<Match> {
        vm::search(&self.program, haystack, start, false)
    }

    /// Iterator over non-overlapping matches, left to right.
    pub fn find_iter<'r, 'h>(&'r self, haystack: &'h str) -> Matches<'r, 'h> {
        Matches { re: self, haystack, at: 0 }
    }

    /// Convenience: the text of the first match.
    pub fn first<'h>(&self, haystack: &'h str) -> Option<&'h str> {
        let m = self.find(haystack)?;
        haystack.get(m.start..m.end)
    }
}

/// Iterator over non-overlapping matches. See [`Regex::find_iter`].
#[derive(Debug)]
pub struct Matches<'r, 'h> {
    re: &'r Regex,
    haystack: &'h str,
    at: usize,
}

impl Iterator for Matches<'_, '_> {
    type Item = Match;

    fn next(&mut self) -> Option<Match> {
        if self.at > self.haystack.len() {
            return None;
        }
        let m = self.re.find_at(self.haystack, self.at)?;
        // Advance past the match; for an empty match step one char so the
        // iterator always terminates.
        self.at = if m.end > m.start {
            m.end
        } else {
            next_char_boundary(self.haystack, m.end)
        };
        Some(m)
    }
}

fn next_char_boundary(s: &str, i: usize) -> usize {
    let mut j = i + 1;
    while j < s.len() && !s.is_char_boundary(j) {
        j += 1;
    }
    j
}

#[cfg(test)]
mod tests;
#[cfg(test)]
mod proptests;
