//! A textual query language — the scriptable face of the Fig. 4 builder.
//!
//! §IV.A: "While being a useful tool for computer scientists, general
//! practitioners cannot be expected to be acquainted with regular
//! expressions. This means that a graphical user interface is needed."
//! The GUI compiles to [`HistoryQuery`]; so does this little language, so
//! saved queries and scripted analyses have a readable, diffable form:
//!
//! ```text
//! has(T90|T89) and age(50..80) and count(diagnosis) >= 3
//! (has(K77) or has(I50.*)) and not lacks(C07.*) and sex(F)
//! ```
//!
//! Grammar (casual EBNF):
//!
//! ```text
//! query   := or
//! or      := and { "or" and }
//! and     := not { "and" not }
//! not     := "not" not | primary
//! primary := "(" or ")" | clause
//! clause  := "has" "(" regex ")"
//!          | "lacks" "(" regex ")"
//!          | "count" "(" counted ")" (">=" | "<=") integer
//!          | "age" "(" integer ".." integer ")"
//!          | "sex" "(" ("F" | "M") ")"
//!          | "seq" "(" step { "then" [ "[" days ".." days "]" ] step } ")"
//! counted := "diagnosis" | "medication" | "interval" | "any" | regex
//! step    := "diagnosis" | "medication" | "interval" | "any" | regex
//! days    := [ "-" ] integer "d"
//! ```
//!
//! Regexes run to the matching close-paren (nested parens balanced), so
//! `has(E1(0|1|4).*)` works. The `age` clause is evaluated at a reference
//! date supplied by the caller. `seq` builds a [`TemporalPattern`]:
//! `seq(T90 then[0d..90d] interval)` matches histories where an entry
//! coded `T90` is followed within 90 days by an interval entry; a bare
//! `then` allows any later time, and a negative minimum permits overlap.

use crate::predicate::EntryPredicate;
use crate::query::HistoryQuery;
use crate::temporal::{GapBound, TemporalPattern};
use pastas_model::Sex;
use pastas_time::{Date, Duration};
use std::fmt;

/// A query-language parse error with position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input.
    pub position: usize,
}

impl fmt::Display for QueryParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "query error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for QueryParseError {}

/// The deepest nesting of parentheses and `not`s a query may have. Each
/// level is a stack frame here and in every pass over the query after
/// it, so a request-sized query nested past this is refused rather than
/// overflowing a worker's stack.
const MAX_NESTING: usize = 64;

/// Parse a query. `age(..)` clauses evaluate at `reference_date`.
pub fn parse_query(text: &str, reference_date: Date) -> Result<HistoryQuery, QueryParseError> {
    let mut p = P { text, pos: 0, depth: 0, reference_date };
    p.ws();
    let q = p.or_expr()?;
    p.ws();
    if p.pos != p.text.len() {
        return Err(p.err("trailing input"));
    }
    Ok(q)
}

struct P<'a> {
    text: &'a str,
    pos: usize,
    /// Open parentheses and `not`s around `pos`.
    depth: usize,
    reference_date: Date,
}

impl P<'_> {
    fn err(&self, message: &str) -> QueryParseError {
        QueryParseError { message: message.to_owned(), position: self.pos }
    }

    fn rest(&self) -> &str {
        // lint:allow(no-panic-hot-path) pos advances by whole chars, stays <= len
        &self.text[self.pos..]
    }

    fn ws(&mut self) {
        while let Some(c) = self.rest().chars().next().filter(|c| c.is_whitespace()) {
            self.pos += c.len_utf8();
        }
    }

    /// Parse one level deeper with `parse`, refusing past [`MAX_NESTING`].
    fn nested(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<HistoryQuery, QueryParseError>,
    ) -> Result<HistoryQuery, QueryParseError> {
        if self.depth == MAX_NESTING {
            return Err(self.err(&format!("nested deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let q = parse(self);
        self.depth -= 1;
        q
    }

    /// Consume a keyword followed by a non-word boundary.
    fn keyword(&mut self, kw: &str) -> bool {
        let rest = self.rest();
        if let Some(tail) = rest.strip_prefix(kw) {
            let after = tail.chars().next();
            if !after.is_some_and(|c| c.is_alphanumeric() || c == '_') {
                self.pos += kw.len();
                self.ws();
                return true;
            }
        }
        false
    }

    fn eat(&mut self, token: &str) -> Result<(), QueryParseError> {
        if self.rest().starts_with(token) {
            self.pos += token.len();
            self.ws();
            Ok(())
        } else {
            Err(self.err(&format!("expected {token:?}")))
        }
    }

    fn or_expr(&mut self) -> Result<HistoryQuery, QueryParseError> {
        let mut branches = vec![self.and_expr()?];
        while self.keyword("or") {
            branches.push(self.and_expr()?);
        }
        Ok(if branches.len() == 1 {
            // lint:allow(no-panic-hot-path) len == 1 checked on the line above
            branches.pop().expect("one branch")
        } else {
            HistoryQuery::Or(branches)
        })
    }

    fn and_expr(&mut self) -> Result<HistoryQuery, QueryParseError> {
        let mut parts = vec![self.not_expr()?];
        while self.keyword("and") {
            parts.push(self.not_expr()?);
        }
        Ok(if parts.len() == 1 {
            // lint:allow(no-panic-hot-path) len == 1 checked on the line above
            parts.pop().expect("one part")
        } else {
            HistoryQuery::And(parts)
        })
    }

    fn not_expr(&mut self) -> Result<HistoryQuery, QueryParseError> {
        if self.keyword("not") {
            return Ok(HistoryQuery::Not(Box::new(self.nested(Self::not_expr)?)));
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<HistoryQuery, QueryParseError> {
        if self.rest().starts_with('(') {
            self.eat("(")?;
            let q = self.nested(Self::or_expr)?;
            self.eat(")")?;
            return Ok(q);
        }
        if self.keyword("has") {
            let re = self.paren_regex()?;
            return Ok(HistoryQuery::any(self.compile(&re)?));
        }
        if self.keyword("lacks") {
            let re = self.paren_regex()?;
            return Ok(HistoryQuery::none(self.compile(&re)?));
        }
        if self.keyword("count") {
            let inner = self.paren_regex()?;
            let pred = match inner.trim() {
                "diagnosis" => EntryPredicate::IsDiagnosis,
                "medication" => EntryPredicate::IsMedication,
                "interval" => EntryPredicate::IsInterval,
                "any" => EntryPredicate::Any,
                regex => self.compile(regex)?,
            };
            let at_least = if self.rest().starts_with(">=") {
                self.eat(">=")?;
                true
            } else if self.rest().starts_with("<=") {
                self.eat("<=")?;
                false
            } else {
                return Err(self.err("expected >= or <= after count(...)"));
            };
            let n = self.integer()?;
            return Ok(if at_least {
                HistoryQuery::CountAtLeast(pred, n as usize)
            } else {
                HistoryQuery::CountAtMost(pred, n as usize)
            });
        }
        if self.keyword("age") {
            self.eat("(")?;
            let min = self.integer()?;
            self.eat("..")?;
            let max = self.integer()?;
            self.eat(")")?;
            if max < min {
                return Err(self.err("age range is reversed"));
            }
            // Nobody is `i32::MAX` years old, so a larger bound saturates
            // without changing whom the range admits.
            return Ok(HistoryQuery::AgeBetween {
                at: self.reference_date,
                min: i32::try_from(min).unwrap_or(i32::MAX),
                max: i32::try_from(max).unwrap_or(i32::MAX),
            });
        }
        if self.keyword("sex") {
            self.eat("(")?;
            let sex = if self.keyword("F") {
                Sex::Female
            } else if self.keyword("M") {
                Sex::Male
            } else {
                return Err(self.err("expected F or M"));
            };
            self.eat(")")?;
            return Ok(HistoryQuery::SexIs(sex));
        }
        if self.keyword("seq") {
            self.eat("(")?;
            let mut pattern = TemporalPattern::starting_with(self.seq_step()?);
            while self.keyword("then") {
                let gap = if self.rest().starts_with('[') {
                    self.eat("[")?;
                    let min = self.signed_days()?;
                    self.eat("..")?;
                    let max = self.signed_days()?;
                    self.eat("]")?;
                    if max < min {
                        return Err(self.err("gap range is reversed"));
                    }
                    GapBound { min: Duration::days(min), max: Duration::days(max) }
                } else {
                    GapBound::any_later()
                };
                pattern = pattern.then(gap, self.seq_step()?);
            }
            self.eat(")")?;
            return Ok(HistoryQuery::Pattern(pattern));
        }
        Err(self.err("expected a clause: has/lacks/count/age/sex/seq, or a parenthesized query"))
    }

    /// Read one `seq` step — a predicate name or code regex — ending at
    /// the next top-level `then` connector or the closing `)`. Regex
    /// groups `(…)` and classes `[…]` nest freely inside a step.
    fn seq_step(&mut self) -> Result<EntryPredicate, QueryParseError> {
        let start = self.pos;
        let mut depth = 0usize;
        let mut end = None;
        let mut prev: Option<char> = None;
        for (i, c) in self.rest().char_indices() {
            let at = start + i;
            if depth == 0 {
                if c == ')' {
                    end = Some(at);
                    break;
                }
                // A top-level `then` at a word boundary ends the step.
                let boundary = !prev.is_some_and(|p| p.is_alphanumeric() || p == '_');
                // lint:allow(no-panic-hot-path) at is a char_indices offset into text
                if boundary && c == 't' && self.text[at..].starts_with("then") {
                    // lint:allow(no-panic-hot-path) "then" just matched at `at`
                    let after = self.text[at + 4..].chars().next();
                    if !after.is_some_and(|a| a.is_alphanumeric() || a == '_') {
                        end = Some(at);
                        break;
                    }
                }
            }
            match c {
                '(' | '[' => depth += 1,
                ')' | ']' => depth = depth.saturating_sub(1),
                _ => {}
            }
            prev = Some(c);
        }
        let Some(end) = end else {
            return Err(self.err("unclosed seq(...)"));
        };
        // lint:allow(no-panic-hot-path) start and end are char boundaries by construction
        let body = self.text[start..end].trim();
        if body.is_empty() {
            return Err(self.err("expected a step: diagnosis/medication/interval/any or a regex"));
        }
        self.pos = end;
        self.ws();
        Ok(match body {
            "diagnosis" => EntryPredicate::IsDiagnosis,
            "medication" => EntryPredicate::IsMedication,
            "interval" => EntryPredicate::IsInterval,
            "any" => EntryPredicate::Any,
            regex => self.compile(regex)?,
        })
    }

    /// A day count with mandatory `d` suffix, optionally negative:
    /// `90d`, `-5d`.
    fn signed_days(&mut self) -> Result<i64, QueryParseError> {
        let neg = self.rest().starts_with('-');
        if neg {
            self.eat("-")?;
        }
        let n = self.integer()?;
        self.eat("d")?;
        let n = i64::try_from(n).map_err(|_| self.err("day count out of range"))?;
        Ok(if neg { -n } else { n })
    }

    /// Read `( … )` with balanced nested parens; returns the inside.
    fn paren_regex(&mut self) -> Result<String, QueryParseError> {
        self.eat("(")?;
        let start = self.pos;
        let mut depth = 1usize;
        for (i, c) in self.rest().char_indices() {
            match c {
                '(' => depth += 1,
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        // lint:allow(no-panic-hot-path) i is a char_indices offset of rest()
                        let inner = self.text[start..start + i].to_owned();
                        self.pos = start + i + 1;
                        self.ws();
                        return Ok(inner);
                    }
                }
                _ => {}
            }
        }
        Err(self.err("unclosed '('"))
    }

    fn compile(&self, pattern: &str) -> Result<EntryPredicate, QueryParseError> {
        EntryPredicate::code_regex(pattern.trim()).map_err(|e| QueryParseError {
            message: format!("bad regex {pattern:?}: {e}"),
            position: self.pos,
        })
    }

    fn integer(&mut self) -> Result<u64, QueryParseError> {
        let digits: String = self.rest().chars().take_while(char::is_ascii_digit).collect();
        if digits.is_empty() {
            return Err(self.err("expected a number"));
        }
        self.pos += digits.len();
        self.ws();
        digits.parse().map_err(|_| self.err("number out of range"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pastas_codes::Code;
    use pastas_model::{Entry, History, Patient, PatientId, Payload, SourceKind};

    fn reference() -> Date {
        Date::new(2013, 1, 1).unwrap()
    }

    fn q(text: &str) -> HistoryQuery {
        parse_query(text, reference()).unwrap_or_else(|e| panic!("{text:?}: {e}"))
    }

    fn history(id: u64, birth_year: i32, codes: &[&str]) -> History {
        let mut h = History::new(Patient {
            id: PatientId(id),
            birth_date: Date::new(birth_year, 6, 1).unwrap(),
            sex: if id.is_multiple_of(2) { Sex::Female } else { Sex::Male },
        });
        for (i, code) in codes.iter().enumerate() {
            h.insert(Entry::event(
                Date::new(2013, 1 + (i as u32 % 12), 1).unwrap().at_midnight(),
                Payload::Diagnosis(Code::icpc(code)),
                SourceKind::PrimaryCare,
            ));
        }
        h
    }

    #[test]
    fn the_running_example() {
        let query = q("has(T90|T89) and age(50..80) and count(diagnosis) >= 3");
        let hit = history(2, 1950, &["T90", "A01", "K86"]);
        let too_few = history(4, 1950, &["T90"]);
        let too_young = history(6, 1990, &["T90", "A01", "K86"]);
        assert!(query.matches(&hit));
        assert!(!query.matches(&too_few));
        assert!(!query.matches(&too_young));
    }

    #[test]
    fn nested_regex_parens_balance() {
        let query = q("has(E1(0|1|4).*)");
        let mut h = History::new(Patient {
            id: PatientId(1),
            birth_date: Date::new(1950, 1, 1).unwrap(),
            sex: Sex::Male,
        });
        h.insert(Entry::event(
            Date::new(2013, 5, 1).unwrap().at_midnight(),
            Payload::Diagnosis(Code::icd10("E11.9")),
            SourceKind::Hospital,
        ));
        assert!(query.matches(&h));
    }

    #[test]
    fn boolean_structure_and_precedence() {
        // and binds tighter than or.
        let query = q("has(A01) or has(T90) and has(K86)");
        assert!(query.matches(&history(1, 1950, &["A01"])));
        assert!(query.matches(&history(1, 1950, &["T90", "K86"])));
        assert!(!query.matches(&history(1, 1950, &["T90"])));
        // Parens override.
        let query = q("(has(A01) or has(T90)) and has(K86)");
        assert!(!query.matches(&history(1, 1950, &["A01"])));
        assert!(query.matches(&history(1, 1950, &["A01", "K86"])));
    }

    #[test]
    fn not_and_lacks() {
        let no_dm = q("not has(T90)");
        assert!(no_dm.matches(&history(1, 1950, &["A01"])));
        assert!(!no_dm.matches(&history(1, 1950, &["T90"])));
        let lacks = q("lacks(T90)");
        assert!(lacks.matches(&history(1, 1950, &["A01"])));
        // Double negation.
        assert!(q("not not has(T90)").matches(&history(1, 1950, &["T90"])));
    }

    #[test]
    fn count_variants() {
        let at_most = q("count(T90) <= 1");
        assert!(at_most.matches(&history(1, 1950, &["T90"])));
        assert!(!at_most.matches(&history(1, 1950, &["T90", "T90"])));
        let regex_count = q("count(K.*) >= 2");
        assert!(regex_count.matches(&history(1, 1950, &["K86", "K74"])));
        assert!(!regex_count.matches(&history(1, 1950, &["K86"])));
    }

    /// Bounds beyond `i32` saturate; they used to wrap (`3000000000`
    /// became a negative age, `4294967296` zero).
    #[test]
    fn age_bounds_beyond_i32_saturate() {
        let bounds = |text| match q(text) {
            HistoryQuery::AgeBetween { min, max, .. } => (min, max),
            other => panic!("{text:?} parsed to {other:?}"),
        };
        assert_eq!(bounds("age(0..3000000000)"), (0, i32::MAX));
        assert_eq!(bounds("age(0..4294967296)"), (0, i32::MAX));
        assert_eq!(bounds("age(4294967350..4294967400)"), (i32::MAX, i32::MAX));
        let aged_62 = history(1, 1950, &[]);
        assert!(q("age(0..3000000000)").matches(&aged_62));
        assert!(q("age(0..4294967296)").matches(&aged_62));
        assert!(!q("age(4294967350..4294967400)").matches(&aged_62));
    }

    #[test]
    fn sex_clause() {
        assert!(q("sex(F)").matches(&history(2, 1950, &[])));
        assert!(!q("sex(F)").matches(&history(1, 1950, &[])));
        assert!(q("sex(M)").matches(&history(1, 1950, &[])));
    }

    #[test]
    fn whitespace_is_free() {
        let a = q("has(T90)and age(50..80)");
        let b = q("  has( T90 )  and\n  age( 50 .. 80 )  ");
        let h = history(2, 1950, &["T90"]);
        assert_eq!(a.matches(&h), b.matches(&h));
    }

    #[test]
    fn error_reporting() {
        for (bad, expect) in [
            ("", "expected a clause"),
            ("has(T90", "unclosed"),
            ("has(T90) extra", "trailing"),
            ("count(diagnosis) > 3", "expected >= or <="),
            ("age(80..50)", "reversed"),
            ("sex(X)", "expected F or M"),
            ("has(T90[)", "bad regex"),
            ("age(a..b)", "expected a number"),
        ] {
            let e = parse_query(bad, reference()).unwrap_err();
            assert!(
                e.message.contains(expect),
                "{bad:?} gave {:?}, wanted {expect:?}",
                e.message
            );
        }
    }

    /// Unicode whitespace is skipped a whole char at a time: stepping a
    /// byte at a time sliced inside it and panicked.
    #[test]
    fn unicode_whitespace_separates_tokens() {
        let plain = q("has(T90) and has(K74)").fingerprint();
        for text in [
            "has(T90) \u{2003}and has(K74)",
            "\u{3000}has(T90) and has(K74)",
            "has(T90) and has(K74)\u{a0}",
        ] {
            assert_eq!(q(text).fingerprint(), plain, "{text:?}");
        }
    }

    /// Parentheses and `not`s nested past `MAX_NESTING` are a typed
    /// error, also on a 2 MiB thread (the std default a server worker
    /// runs on), where 10,000 levels used to overflow the stack.
    #[test]
    fn nesting_is_capped_on_a_small_stack() {
        let worker = std::thread::Builder::new().stack_size(2 << 20).spawn(|| {
            for (open, close) in [("(", ")"), ("not ", "")] {
                let nest = |n: usize| format!("{}has(T90){}", open.repeat(n), close.repeat(n));
                assert!(parse_query(&nest(MAX_NESTING), reference()).is_ok());
                for n in [MAX_NESTING + 1, 10_000] {
                    let e = parse_query(&nest(n), reference()).unwrap_err();
                    assert!(e.message.contains("nested deeper"), "{open:?} x {n}: {e}");
                }
            }
        });
        worker.expect("spawn").join().expect("no panic, no overflow");
    }

    #[test]
    fn keywords_do_not_swallow_identifier_prefixes() {
        // "android" must not parse as "and".
        assert!(parse_query("has(T90) android", reference()).is_err());
        // A regex containing the word "or" is untouched inside parens.
        let query = q("has(T90|K74)");
        assert!(query.matches(&history(1, 1950, &["K74"])));
    }

    #[test]
    fn seq_clause_builds_a_temporal_pattern() {
        // T90 followed within ~3 months by any K-chapter code.
        let query = q("seq(T90 then[0d..90d] K.*)");
        let hit = history(1, 1950, &["T90", "K86"]); // one month apart
        let wrong_order = history(1, 1950, &["K86", "T90"]);
        let missing = history(1, 1950, &["T90", "A01"]);
        assert!(query.matches(&hit));
        assert!(!query.matches(&wrong_order));
        assert!(!query.matches(&missing));
        // Matches the builder exactly.
        let built = HistoryQuery::Pattern(
            TemporalPattern::starting_with(EntryPredicate::code_regex("T90").unwrap()).then(
                GapBound { min: Duration::ZERO, max: Duration::days(90) },
                EntryPredicate::code_regex("K.*").unwrap(),
            ),
        );
        for h in [
            history(1, 1950, &["T90", "K86"]),
            history(1, 1950, &["K86"]),
            history(1, 1950, &["T90"]),
        ] {
            assert_eq!(query.matches(&h), built.matches(&h));
        }
    }

    #[test]
    fn seq_steps_take_names_and_bare_then() {
        // Named step predicates, and `then` with no window = any later.
        let query = q("seq(diagnosis then any)");
        assert!(query.matches(&history(1, 1950, &["T90", "K86"])));
        assert!(!query.matches(&history(1, 1950, &["T90"])), "needs a later entry");
        // A three-step chain with grouped regex inside a step.
        let chained = q("seq(E1(0|1).* then[0d..365d] diagnosis then T90)");
        let _ = chained; // structural parse is the assertion
        // Negative minimum allows overlap.
        let overlap = q("seq(T90 then[-30d..60d] K.*)");
        assert!(overlap.matches(&history(1, 1950, &["T90", "K86"])));
    }

    #[test]
    fn seq_error_reporting() {
        for (bad, expect) in [
            ("seq()", "expected a step"),
            ("seq(T90", "unclosed seq"),
            ("seq(T90 then[90d..0d] K.*)", "reversed"),
            ("seq(T90 then[0..90d] K.*)", "expected \"d\""),
            ("seq(T90 then[0d..90d)", "expected \"]\""),
        ] {
            let e = parse_query(bad, reference()).unwrap_err();
            assert!(
                e.message.contains(expect),
                "{bad:?} gave {:?}, wanted {expect:?}",
                e.message
            );
        }
        // "then" embedded in a regex is not a connector.
        assert!(parse_query("seq(T90then)", reference()).is_ok(), "word-boundary check");
    }

    #[test]
    fn parsed_queries_agree_with_the_builder() {
        use crate::query::QueryBuilder;
        let parsed = q("has(T90|T89) and age(50..80)");
        let built = QueryBuilder::new()
            .has_code("T90|T89")
            .unwrap()
            .age_between(reference(), 50, 80)
            .build();
        for h in [
            history(2, 1950, &["T90"]),
            history(4, 1990, &["T90"]),
            history(6, 1950, &["A01"]),
        ] {
            assert_eq!(parsed.matches(&h), built.matches(&h));
        }
    }
}
