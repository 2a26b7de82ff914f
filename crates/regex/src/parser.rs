//! Recursive-descent pattern parser.

use crate::ast::{Ast, ClassItem};
use std::fmt;

/// Maximum counted-repetition bound; `{m,n}` is compiled by expansion, so an
/// adversarial `{100000}` must be rejected rather than allocated.
const MAX_COUNTED_REPEAT: u32 = 1_000;

/// The deepest group nesting a pattern may have. Parsing, compiling and
/// analysing the syntax tree each recurse once a level, so a pattern
/// nested past this is refused rather than overflowing the stack.
const MAX_NESTING: u32 = 64;

/// Why a pattern failed to parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// Pattern ended in the middle of a construct.
    UnexpectedEnd,
    /// `)` with no matching `(`.
    UnbalancedClose,
    /// `(` with no matching `)`.
    UnbalancedOpen,
    /// `[` with no matching `]`.
    UnclosedClass,
    /// Empty character class `[]`.
    EmptyClass,
    /// Class range with `hi < lo`, e.g. `[z-a]`.
    InvalidClassRange,
    /// Unknown escape like `\q`.
    InvalidEscape,
    /// `*`, `+`, `?` or `{…}` with nothing to repeat.
    NothingToRepeat,
    /// Malformed `{…}` quantifier.
    InvalidRepeat,
    /// Counted repetition above the compilation limit.
    RepeatTooLarge,
    /// Groups nested deeper than the parser allows.
    NestedTooDeep,
}

/// Pattern parse error with position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub kind: ParseErrorKind,
    /// Byte offset into the pattern where the error was detected.
    pub position: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match self.kind {
            ParseErrorKind::UnexpectedEnd => "pattern ended unexpectedly",
            ParseErrorKind::UnbalancedClose => "unmatched ')'",
            ParseErrorKind::UnbalancedOpen => "unmatched '('",
            ParseErrorKind::UnclosedClass => "unclosed character class",
            ParseErrorKind::EmptyClass => "empty character class",
            ParseErrorKind::InvalidClassRange => "invalid class range",
            ParseErrorKind::InvalidEscape => "invalid escape sequence",
            ParseErrorKind::NothingToRepeat => "quantifier with nothing to repeat",
            ParseErrorKind::InvalidRepeat => "malformed {m,n} quantifier",
            ParseErrorKind::RepeatTooLarge => "counted repetition too large",
            ParseErrorKind::NestedTooDeep => "groups nested too deeply",
        };
        write!(f, "{what} at byte {}", self.position)
    }
}

impl std::error::Error for ParseError {}

/// Parse a pattern into an [`Ast`].
pub fn parse(pattern: &str) -> Result<Ast, ParseError> {
    let mut p = Parser { chars: pattern.char_indices().collect(), pos: 0, next_group: 1 };
    let ast = p.parse_alternation(0)?;
    if p.pos < p.chars.len() {
        // Only a stray ')' can stop parse_alternation early at depth 0.
        return Err(p.error(ParseErrorKind::UnbalancedClose));
    }
    Ok(ast)
}

struct Parser {
    chars: Vec<(usize, char)>,
    pos: usize,
    next_group: u32,
}

impl Parser {
    fn error(&self, kind: ParseErrorKind) -> ParseError {
        let position = self
            .chars
            .get(self.pos)
            .map(|&(i, _)| i)
            .unwrap_or_else(|| self.chars.last().map(|&(i, c)| i + c.len_utf8()).unwrap_or(0));
        ParseError { kind, position }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).map(|&(_, c)| c)
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        Some(c)
    }

    fn eat(&mut self, want: char) -> bool {
        if self.peek() == Some(want) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn parse_alternation(&mut self, depth: u32) -> Result<Ast, ParseError> {
        let mut branches = vec![self.parse_concat(depth)?];
        while self.eat('|') {
            branches.push(self.parse_concat(depth)?);
        }
        Ok(if branches.len() == 1 { branches.pop().expect("one branch") } else {
            Ast::Alternate(branches)
        })
    }

    fn parse_concat(&mut self, depth: u32) -> Result<Ast, ParseError> {
        let mut parts = Vec::new();
        loop {
            match self.peek() {
                None | Some('|') | Some(')') => break,
                _ => {}
            }
            let atom = self.parse_atom(depth)?;
            let atom = self.parse_quantifier(atom)?;
            parts.push(atom);
        }
        Ok(match parts.len() {
            0 => Ast::Empty,
            1 => parts.pop().expect("one part"),
            _ => Ast::Concat(parts),
        })
    }

    fn parse_atom(&mut self, depth: u32) -> Result<Ast, ParseError> {
        match self.peek() {
            None => Err(self.error(ParseErrorKind::UnexpectedEnd)),
            Some('(') if depth == MAX_NESTING => Err(self.error(ParseErrorKind::NestedTooDeep)),
            Some('(') => {
                self.pos += 1;
                let capturing = if self.peek() == Some('?') {
                    // Only (?:...) is supported.
                    self.pos += 1;
                    if !self.eat(':') {
                        return Err(self.error(ParseErrorKind::InvalidEscape));
                    }
                    false
                } else {
                    true
                };
                let index = if capturing {
                    let i = self.next_group;
                    self.next_group += 1;
                    Some(i)
                } else {
                    None
                };
                let inner = self.parse_alternation(depth + 1)?;
                if !self.eat(')') {
                    return Err(self.error(ParseErrorKind::UnbalancedOpen));
                }
                Ok(match index {
                    Some(index) => Ast::Group { index, inner: Box::new(inner) },
                    None => Ast::NonCapturing(Box::new(inner)),
                })
            }
            Some('[') => self.parse_class(),
            Some('.') => {
                self.pos += 1;
                Ok(Ast::Dot)
            }
            Some('^') => {
                self.pos += 1;
                Ok(Ast::AnchorStart)
            }
            Some('$') => {
                self.pos += 1;
                Ok(Ast::AnchorEnd)
            }
            Some('\\') => {
                self.pos += 1;
                self.parse_escape()
            }
            Some('*') | Some('+') | Some('?') => Err(self.error(ParseErrorKind::NothingToRepeat)),
            Some('{') => {
                // A '{' that doesn't follow an atom: treat as literal only if
                // it is not a valid quantifier shape; keeping it strict is
                // simpler and errs on the loud side.
                Err(self.error(ParseErrorKind::NothingToRepeat))
            }
            Some(c) => {
                self.pos += 1;
                Ok(Ast::Literal(c))
            }
        }
    }

    fn parse_escape(&mut self) -> Result<Ast, ParseError> {
        let Some(c) = self.bump() else {
            return Err(self.error(ParseErrorKind::UnexpectedEnd));
        };
        let class = |items: Vec<ClassItem>, negated| Ast::Class { items, negated };
        Ok(match c {
            'd' => class(vec![ClassItem::Range('0', '9')], false),
            'D' => class(vec![ClassItem::Range('0', '9')], true),
            'w' => class(word_items(), false),
            'W' => class(word_items(), true),
            's' => class(space_items(), false),
            'S' => class(space_items(), true),
            'n' => Ast::Literal('\n'),
            't' => Ast::Literal('\t'),
            'r' => Ast::Literal('\r'),
            '\\' | '.' | '*' | '+' | '?' | '(' | ')' | '[' | ']' | '{' | '}' | '|' | '^'
            | '$' | '-' | '/' => Ast::Literal(c),
            _ => {
                self.pos -= 1;
                return Err(self.error(ParseErrorKind::InvalidEscape));
            }
        })
    }

    fn parse_class(&mut self) -> Result<Ast, ParseError> {
        debug_assert_eq!(self.peek(), Some('['));
        self.pos += 1;
        let negated = self.eat('^');
        let mut items = Vec::new();
        loop {
            let Some(c) = self.bump() else {
                return Err(self.error(ParseErrorKind::UnclosedClass));
            };
            let lo = match c {
                ']' => {
                    if items.is_empty() {
                        return Err(self.error(ParseErrorKind::EmptyClass));
                    }
                    return Ok(Ast::Class { items, negated });
                }
                '\\' => match self.bump() {
                    Some('d') => {
                        items.push(ClassItem::Range('0', '9'));
                        continue;
                    }
                    Some('w') => {
                        items.extend(word_items());
                        continue;
                    }
                    Some('s') => {
                        items.extend(space_items());
                        continue;
                    }
                    Some('n') => '\n',
                    Some('t') => '\t',
                    Some('r') => '\r',
                    Some(e @ ('\\' | ']' | '[' | '^' | '-' | '.')) => e,
                    Some(_) => {
                        self.pos -= 1;
                        return Err(self.error(ParseErrorKind::InvalidEscape));
                    }
                    None => return Err(self.error(ParseErrorKind::UnclosedClass)),
                },
                other => other,
            };
            // Range `lo-hi`? A '-' directly before ']' is a literal dash.
            if self.peek() == Some('-') && self.chars.get(self.pos + 1).map(|&(_, c)| c) != Some(']')
            {
                self.pos += 1; // consume '-'
                let Some(hi) = self.bump() else {
                    return Err(self.error(ParseErrorKind::UnclosedClass));
                };
                let hi = if hi == '\\' {
                    match self.bump() {
                        Some(e @ ('\\' | ']' | '[' | '^' | '-' | '.')) => e,
                        Some('n') => '\n',
                        Some('t') => '\t',
                        Some('r') => '\r',
                        _ => return Err(self.error(ParseErrorKind::InvalidEscape)),
                    }
                } else {
                    hi
                };
                if hi < lo {
                    return Err(self.error(ParseErrorKind::InvalidClassRange));
                }
                items.push(ClassItem::Range(lo, hi));
            } else {
                items.push(ClassItem::Char(lo));
            }
        }
    }

    fn parse_quantifier(&mut self, atom: Ast) -> Result<Ast, ParseError> {
        let (min, max) = match self.peek() {
            Some('*') => {
                self.pos += 1;
                (0, None)
            }
            Some('+') => {
                self.pos += 1;
                (1, None)
            }
            Some('?') => {
                self.pos += 1;
                (0, Some(1))
            }
            Some('{') => {
                let save = self.pos;
                self.pos += 1;
                match self.parse_counted() {
                    Ok(pair) => pair,
                    Err(e) => {
                        self.pos = save;
                        return Err(e);
                    }
                }
            }
            _ => return Ok(atom),
        };
        if matches!(atom, Ast::AnchorStart | Ast::AnchorEnd | Ast::Empty) {
            return Err(self.error(ParseErrorKind::NothingToRepeat));
        }
        let greedy = !self.eat('?');
        Ok(Ast::Repeat { inner: Box::new(atom), min, max, greedy })
    }

    fn parse_counted(&mut self) -> Result<(u32, Option<u32>), ParseError> {
        let min = self.parse_number()?;
        let max = if self.eat(',') {
            if self.peek() == Some('}') { None } else { Some(self.parse_number()?) }
        } else {
            Some(min)
        };
        if !self.eat('}') {
            return Err(self.error(ParseErrorKind::InvalidRepeat));
        }
        if let Some(max) = max {
            if max < min {
                return Err(self.error(ParseErrorKind::InvalidRepeat));
            }
            if max > MAX_COUNTED_REPEAT {
                return Err(self.error(ParseErrorKind::RepeatTooLarge));
            }
        }
        if min > MAX_COUNTED_REPEAT {
            return Err(self.error(ParseErrorKind::RepeatTooLarge));
        }
        Ok((min, max))
    }

    fn parse_number(&mut self) -> Result<u32, ParseError> {
        let mut digits = String::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() {
                digits.push(c);
                self.pos += 1;
            } else {
                break;
            }
        }
        digits.parse().map_err(|_| self.error(ParseErrorKind::InvalidRepeat))
    }
}

fn word_items() -> Vec<ClassItem> {
    vec![
        ClassItem::Range('a', 'z'),
        ClassItem::Range('A', 'Z'),
        ClassItem::Range('0', '9'),
        ClassItem::Char('_'),
    ]
}

fn space_items() -> Vec<ClassItem> {
    vec![
        ClassItem::Char(' '),
        ClassItem::Char('\t'),
        ClassItem::Char('\n'),
        ClassItem::Char('\r'),
        ClassItem::Char('\u{0b}'),
        ClassItem::Char('\u{0c}'),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kind(p: &str) -> ParseErrorKind {
        parse(p).unwrap_err().kind
    }

    #[test]
    fn parses_the_papers_example() {
        // "F.*|H.*" — diagnoses concerning the eye or the ear.
        let ast = parse("F.*|H.*").unwrap();
        let Ast::Alternate(branches) = ast else { panic!("expected alternation") };
        assert_eq!(branches.len(), 2);
    }

    #[test]
    fn literal_concat() {
        assert_eq!(
            parse("T90").unwrap(),
            Ast::Concat(vec![Ast::Literal('T'), Ast::Literal('9'), Ast::Literal('0')])
        );
    }

    #[test]
    fn quantifier_variants() {
        for (p, min, max, greedy) in [
            ("a*", 0, None, true),
            ("a+", 1, None, true),
            ("a?", 0, Some(1), true),
            ("a{3}", 3, Some(3), true),
            ("a{2,}", 2, None, true),
            ("a{2,5}", 2, Some(5), true),
            ("a*?", 0, None, false),
            ("a{2,5}?", 2, Some(5), false),
        ] {
            let Ast::Repeat { min: m, max: x, greedy: g, .. } = parse(p).unwrap() else {
                panic!("{p} did not parse to Repeat")
            };
            assert_eq!((m, x, g), (min, max, greedy), "pattern {p}");
        }
    }

    #[test]
    fn classes() {
        let Ast::Class { items, negated } = parse("[a-f0-9_]").unwrap() else {
            panic!("expected class")
        };
        assert!(!negated);
        assert_eq!(
            items,
            vec![
                ClassItem::Range('a', 'f'),
                ClassItem::Range('0', '9'),
                ClassItem::Char('_')
            ]
        );
        let Ast::Class { negated, .. } = parse("[^abc]").unwrap() else { panic!() };
        assert!(negated);
    }

    #[test]
    fn dash_at_class_end_is_literal() {
        let Ast::Class { items, .. } = parse("[a-]").unwrap() else { panic!() };
        assert_eq!(items, vec![ClassItem::Char('a'), ClassItem::Char('-')]);
    }

    #[test]
    fn groups_are_numbered_in_order() {
        let ast = parse("(a)(?:b)(c(d))").unwrap();
        assert_eq!(ast.count_groups(), 3);
    }

    #[test]
    fn anchors() {
        assert_eq!(
            parse("^K74$").unwrap(),
            Ast::Concat(vec![
                Ast::AnchorStart,
                Ast::Literal('K'),
                Ast::Literal('7'),
                Ast::Literal('4'),
                Ast::AnchorEnd
            ])
        );
    }

    #[test]
    fn error_kinds() {
        assert_eq!(kind("a)"), ParseErrorKind::UnbalancedClose);
        assert_eq!(kind("(a"), ParseErrorKind::UnbalancedOpen);
        assert_eq!(kind("[ab"), ParseErrorKind::UnclosedClass);
        assert_eq!(kind("[]"), ParseErrorKind::EmptyClass);
        assert_eq!(kind("[z-a]"), ParseErrorKind::InvalidClassRange);
        assert_eq!(kind("\\q"), ParseErrorKind::InvalidEscape);
        assert_eq!(kind("*a"), ParseErrorKind::NothingToRepeat);
        assert_eq!(kind("a{2,1}"), ParseErrorKind::InvalidRepeat);
        assert_eq!(kind("a{}"), ParseErrorKind::InvalidRepeat);
        assert_eq!(kind("a{999999}"), ParseErrorKind::RepeatTooLarge);
    }

    /// Groups nested past `MAX_NESTING` are a typed error, also on a
    /// 2 MiB thread (the std default a server worker runs on), where
    /// 4,000 levels used to overflow the stack.
    #[test]
    fn nesting_is_capped_on_a_small_stack() {
        let nest = |n: usize| format!("{}K{}", "(".repeat(n), ")".repeat(n));
        let deepest = MAX_NESTING as usize;
        let worker = std::thread::Builder::new().stack_size(2 << 20).spawn(move || {
            assert!(crate::Regex::new(&nest(deepest)).is_ok());
            for n in [deepest + 1, 4_000] {
                let e = crate::Regex::new(&nest(n)).unwrap_err();
                assert_eq!((e.kind, e.position), (ParseErrorKind::NestedTooDeep, deepest));
            }
        });
        worker.expect("spawn").join().expect("no panic, no overflow");
    }

    #[test]
    fn error_positions_point_at_offender() {
        assert_eq!(parse("ab\\q").unwrap_err().position, 3);
        assert_eq!(parse("abc)").unwrap_err().position, 3);
    }

    #[test]
    fn escaped_punctuation() {
        assert_eq!(
            parse("\\.\\*\\\\").unwrap(),
            Ast::Concat(vec![Ast::Literal('.'), Ast::Literal('*'), Ast::Literal('\\')])
        );
    }

    #[test]
    fn empty_pattern_is_empty_ast() {
        assert_eq!(parse("").unwrap(), Ast::Empty);
        assert_eq!(parse("a|").unwrap(), Ast::Alternate(vec![Ast::Literal('a'), Ast::Empty]));
    }
}
