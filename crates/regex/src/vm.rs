//! The regex entry point into the Pike VM.
//!
//! [`search`] adapts a `&str` haystack into the `(pos, next_pos, char)`
//! token stream expected by [`engine::leftmost`] and rebuilds a
//! [`Match`] from the winning capture slots. Runs in
//! `O(|haystack| · |program|)` time regardless of the pattern — the
//! property that keeps interactive filtering predictable at cohort
//! scale. Semantics are leftmost-first (Perl-like): earlier starting
//! positions win, and within a position, higher-priority threads
//! (greedy vs lazy split order) win.
//!
//! The original char-specialized VM survives below as the test-only
//! [`classic_search`], the differential oracle proving the pooled
//! engine is byte-for-byte compatible on the proptest corpus.

use crate::compile::CharPred;
use crate::engine::{self, Bounds, Program, UNSET};
use crate::Match;

/// Search `haystack` for a match.
///
/// * `start` — byte offset at which the scan begins (must be a char
///   boundary).
/// * `full` — when true, the thread pool is seeded only at `start` and a
///   `Match` instruction only accepts at the end of the haystack; the caller
///   uses this for whole-string (code predicate) matching.
pub(crate) fn search(
    prog: &Program<CharPred>,
    haystack: &str,
    start: usize,
    full: bool,
) -> Option<Match> {
    if start > haystack.len() {
        return None;
    }
    let tokens = haystack[start..]
        .char_indices()
        .map(|(i, c)| (start + i, start + i + c.len_utf8(), c));
    let bounds = Bounds { begin: 0, end: haystack.len() };
    let saves = engine::leftmost(prog, tokens, bounds, full)?;
    Some(match_from_saves(&saves))
}

/// Rebuild a [`Match`] from a winning thread's capture slots.
fn match_from_saves(saves: &[usize]) -> Match {
    let groups = saves
        .chunks(2)
        .map(|w| if w[0] == UNSET || w[1] == UNSET { None } else { Some((w[0], w[1])) })
        .collect::<Vec<_>>();
    // slots 0/1 are written before any Accept, so a match always has them
    let (s, e) = groups[0].expect("whole-match slots always set");
    Match { start: s, end: e, groups }
}

/// The original char-specialized Pike VM, kept verbatim as the
/// differential oracle for [`search`].
#[cfg(test)]
pub(crate) fn classic_search(
    prog: &Program<CharPred>,
    haystack: &str,
    start: usize,
    full: bool,
) -> Option<Match> {
    use crate::engine::Inst;

    #[derive(Clone)]
    struct Thread {
        pc: usize,
        saves: Vec<usize>,
    }

    fn add_thread(
        prog: &Program<CharPred>,
        haystack: &str,
        pos: usize,
        t: Thread,
        list: &mut Vec<Thread>,
        seen: &mut [bool],
    ) {
        if seen[t.pc] {
            return;
        }
        seen[t.pc] = true;
        match &prog.insts[t.pc] {
            Inst::Jmp(to) => add_thread(prog, haystack, pos, Thread { pc: *to, ..t }, list, seen),
            Inst::Split(a, b) => {
                let (a, b) = (*a, *b);
                add_thread(
                    prog,
                    haystack,
                    pos,
                    Thread { pc: a, saves: t.saves.clone() },
                    list,
                    seen,
                );
                add_thread(prog, haystack, pos, Thread { pc: b, saves: t.saves }, list, seen);
            }
            Inst::Save(slot) => {
                let mut saves = t.saves;
                saves[*slot] = pos;
                add_thread(prog, haystack, pos, Thread { pc: t.pc + 1, saves }, list, seen);
            }
            Inst::AssertStart => {
                if pos == 0 {
                    add_thread(prog, haystack, pos, Thread { pc: t.pc + 1, ..t }, list, seen);
                }
            }
            Inst::AssertEnd => {
                if pos == haystack.len() {
                    add_thread(prog, haystack, pos, Thread { pc: t.pc + 1, ..t }, list, seen);
                }
            }
            Inst::Token { .. } | Inst::Match => list.push(t),
        }
    }

    if start > haystack.len() {
        return None;
    }
    let tail = &haystack[start..];

    let mut clist: Vec<Thread> = Vec::new();
    let mut nlist: Vec<Thread> = Vec::new();
    let mut cseen = vec![false; prog.insts.len()];
    let mut nseen = vec![false; prog.insts.len()];
    let mut best: Option<Vec<usize>> = None;

    let mut iter = tail.char_indices().map(|(i, c)| (start + i, Some(c)));
    let mut next_item = iter.next();

    loop {
        let (pos, cur) = match next_item {
            Some((i, ch)) => (i, ch),
            None => (haystack.len(), None),
        };

        let seed = best.is_none() && (!full || pos == start);
        if seed {
            let saves = vec![UNSET; prog.slots];
            add_thread(prog, haystack, pos, Thread { pc: 0, saves }, &mut clist, &mut cseen);
        }

        if clist.is_empty() && best.is_some() {
            break;
        }

        let mut i = 0;
        while i < clist.len() {
            let t = &clist[i];
            match &prog.insts[t.pc] {
                Inst::Token { guard, .. } => {
                    if let Some(ch) = cur {
                        if guard.matches(ch) {
                            let mut nt = clist[i].clone();
                            nt.pc += 1;
                            add_thread(
                                prog,
                                haystack,
                                pos + ch.len_utf8(),
                                nt,
                                &mut nlist,
                                &mut nseen,
                            );
                        }
                    }
                }
                Inst::Match => {
                    let accept = !full || cur.is_none();
                    if accept {
                        best = Some(clist[i].saves.clone());
                        clist.truncate(i + 1);
                        break;
                    }
                }
                _ => unreachable!("epsilon instruction in run list"),
            }
            i += 1;
        }

        if cur.is_none() {
            break;
        }
        std::mem::swap(&mut clist, &mut nlist);
        std::mem::swap(&mut cseen, &mut nseen);
        nlist.clear();
        nseen.iter_mut().for_each(|s| *s = false);
        next_item = iter.next();
        if clist.is_empty() && best.is_some() {
            break;
        }
    }

    best.map(|saves| match_from_saves(&saves))
}
