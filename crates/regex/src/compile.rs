//! AST → NFA program compilation (Thompson construction).
//!
//! Emits [`engine`](crate::engine) instructions whose consuming
//! instructions test one `char` with a [`CharPred`].

use crate::ast::{Ast, ClassItem};
use crate::engine::{Inst, Program};
use std::sync::Arc;

/// A character predicate attached to a consuming instruction.
#[derive(Debug, Clone)]
pub(crate) enum CharPred {
    /// Exact character (pre-folded when case-insensitive).
    Literal { ch: char, folded: bool },
    /// `.` — anything but `\n`.
    Dot,
    /// Character class.
    Class { items: Arc<[ClassItem]>, negated: bool, folded: bool },
}

impl CharPred {
    pub(crate) fn matches(&self, c: char) -> bool {
        match self {
            CharPred::Literal { ch, folded: false } => c == *ch,
            CharPred::Literal { ch, folded: true } => c.to_ascii_lowercase() == *ch,
            CharPred::Dot => c != '\n',
            CharPred::Class { items, negated, folded } => {
                let mut hit = items.iter().any(|it| it.contains(c));
                if *folded && !hit {
                    // Try the opposite ASCII case as well.
                    let alt = if c.is_ascii_uppercase() {
                        c.to_ascii_lowercase()
                    } else {
                        c.to_ascii_uppercase()
                    };
                    if alt != c {
                        hit = items.iter().any(|it| it.contains(alt));
                    }
                }
                hit != *negated
            }
        }
    }
}

/// Compile `ast` to a program. Slot 0/1 bracket the whole match.
pub(crate) fn compile(ast: &Ast, case_insensitive: bool) -> Program<CharPred> {
    let mut c = Compiler { insts: Vec::new(), fold: case_insensitive };
    c.push(Inst::Save(0));
    c.emit(ast);
    c.push(Inst::Save(1));
    c.push(Inst::Match);
    Program { insts: c.insts, slots: 2 * (ast.count_groups() + 1) }
}

struct Compiler {
    insts: Vec<Inst<CharPred>>,
    fold: bool,
}

impl Compiler {
    fn push(&mut self, inst: Inst<CharPred>) -> usize {
        self.insts.push(inst);
        self.insts.len() - 1
    }

    fn here(&self) -> usize {
        self.insts.len()
    }

    fn patch_split_second(&mut self, at: usize, to: usize) {
        if let Inst::Split(_, b) = &mut self.insts[at] {
            *b = to;
        }
    }

    fn patch_split_first(&mut self, at: usize, to: usize) {
        if let Inst::Split(a, _) = &mut self.insts[at] {
            *a = to;
        }
    }

    fn patch_jmp(&mut self, at: usize, to: usize) {
        if let Inst::Jmp(t) = &mut self.insts[at] {
            *t = to;
        }
    }

    fn emit(&mut self, ast: &Ast) {
        match ast {
            Ast::Empty => {}
            Ast::Literal(ch) => {
                let (ch, folded) = if self.fold && ch.is_ascii_alphabetic() {
                    (ch.to_ascii_lowercase(), true)
                } else {
                    (*ch, false)
                };
                self.push(Inst::Token { guard: CharPred::Literal { ch, folded } });
            }
            Ast::Dot => {
                self.push(Inst::Token { guard: CharPred::Dot });
            }
            Ast::Class { items, negated } => {
                self.push(Inst::Token {
                    guard: CharPred::Class {
                        items: items.clone().into(),
                        negated: *negated,
                        folded: self.fold,
                    },
                });
            }
            Ast::Concat(parts) => {
                for p in parts {
                    self.emit(p);
                }
            }
            Ast::Alternate(branches) => self.emit_alternate(branches),
            Ast::Repeat { inner, min, max, greedy } => {
                self.emit_repeat(inner, *min, *max, *greedy)
            }
            Ast::Group { index, inner } => {
                self.push(Inst::Save(2 * (*index as usize)));
                self.emit(inner);
                self.push(Inst::Save(2 * (*index as usize) + 1));
            }
            Ast::NonCapturing(inner) => self.emit(inner),
            Ast::AnchorStart => {
                self.push(Inst::AssertStart);
            }
            Ast::AnchorEnd => {
                self.push(Inst::AssertEnd);
            }
        }
    }

    fn emit_alternate(&mut self, branches: &[Ast]) {
        // Chain of Splits: each branch ends with a Jmp to the common exit.
        let mut jmp_holes = Vec::new();
        for (i, branch) in branches.iter().enumerate() {
            if i + 1 < branches.len() {
                let split = self.push(Inst::Split(0, 0));
                let first = self.here();
                self.patch_split_first(split, first);
                self.emit(branch);
                jmp_holes.push(self.push(Inst::Jmp(0)));
                let next = self.here();
                self.patch_split_second(split, next);
            } else {
                self.emit(branch);
            }
        }
        let exit = self.here();
        for hole in jmp_holes {
            self.patch_jmp(hole, exit);
        }
    }

    fn emit_repeat(&mut self, inner: &Ast, min: u32, max: Option<u32>, greedy: bool) {
        // Mandatory prefix: `min` expanded copies.
        for _ in 0..min {
            self.emit(inner);
        }
        match max {
            None => {
                // Kleene tail: L: Split(body, out); body; Jmp(L)
                let loop_start = self.push(Inst::Split(0, 0));
                let body = self.here();
                self.emit(inner);
                self.push(Inst::Jmp(loop_start));
                let out = self.here();
                if greedy {
                    self.patch_split_first(loop_start, body);
                    self.patch_split_second(loop_start, out);
                } else {
                    self.patch_split_first(loop_start, out);
                    self.patch_split_second(loop_start, body);
                }
            }
            Some(max) => {
                // (max - min) nested optionals: each may bail to the exit.
                let mut holes = Vec::new();
                for _ in min..max {
                    let split = self.push(Inst::Split(0, 0));
                    let body = self.here();
                    if greedy {
                        self.patch_split_first(split, body);
                    } else {
                        self.patch_split_second(split, body);
                    }
                    holes.push(split);
                    self.emit(inner);
                }
                let out = self.here();
                for hole in holes {
                    if greedy {
                        self.patch_split_second(hole, out);
                    } else {
                        self.patch_split_first(hole, out);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn prog(p: &str) -> Program<CharPred> {
        compile(&parse(p).unwrap(), false)
    }

    #[test]
    fn literal_program_shape() {
        let p = prog("ab");
        // Save(0), Char(a), Char(b), Save(1), Match
        assert_eq!(p.insts.len(), 5);
        assert_eq!(p.slots, 2);
        assert!(matches!(p.insts[4], Inst::Match));
    }

    #[test]
    fn group_allocates_slots() {
        let p = prog("(a)(b)");
        assert_eq!(p.slots, 6);
    }

    #[test]
    fn counted_repeat_expands() {
        let three = prog("a{3}").insts.len();
        let one = prog("a").insts.len();
        assert_eq!(three, one + 2);
    }

    #[test]
    fn predicates() {
        assert!(CharPred::Dot.matches('x'));
        assert!(!CharPred::Dot.matches('\n'));
        let folded = CharPred::Literal { ch: 'k', folded: true };
        assert!(folded.matches('K'));
        assert!(folded.matches('k'));
        let class = CharPred::Class {
            items: vec![ClassItem::Range('a', 'f')].into(),
            negated: false,
            folded: true,
        };
        assert!(class.matches('C'));
        assert!(!class.matches('z'));
        let neg = CharPred::Class {
            items: vec![ClassItem::Char('x')].into(),
            negated: true,
            folded: false,
        };
        assert!(neg.matches('y'));
        assert!(!neg.matches('x'));
    }
}
