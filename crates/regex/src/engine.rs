//! The Pike VM that runs compiled regex programs.
//!
//! A Thompson NFA simulation with capture slots over a stream of
//! `char`s: each consuming instruction carries a [`CharPred`], and
//! [`leftmost`] runs the classical leftmost-first search with pooled
//! capture buffers. [`crate::vm::search`] adapts a `&str` haystack into
//! its token stream.

use crate::compile::CharPred;

/// Sentinel for an unwritten capture slot.
pub(crate) const UNSET: usize = usize::MAX;

/// One NFA instruction, generic over the consuming instruction's
/// predicate.
#[derive(Debug, Clone)]
pub(crate) enum Inst<G> {
    /// Consume one token the guard admits.
    Token {
        /// The predicate on the token.
        guard: G,
    },
    /// Fork: try the first target first (higher priority).
    Split(usize, usize),
    /// Unconditional jump.
    Jmp(usize),
    /// Record the current position into capture slot `n`.
    Save(usize),
    /// Succeed only at the beginning of the token stream.
    AssertStart,
    /// Succeed only at the end of the token stream.
    AssertEnd,
    /// Accept.
    Match,
}

/// A compiled NFA program.
#[derive(Debug, Clone)]
pub(crate) struct Program<G> {
    /// The instruction sequence.
    pub(crate) insts: Vec<Inst<G>>,
    /// Number of capture slots threads carry.
    pub(crate) slots: usize,
}

/// Stream boundaries for the anchor assertions: `AssertStart` holds at
/// `begin`, `AssertEnd` at `end`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Bounds {
    /// Position of the start of the stream (`^`).
    pub(crate) begin: usize,
    /// Position one past the last token (`$`).
    pub(crate) end: usize,
}

/// A live thread: program counter and capture slots.
struct Thread {
    pc: usize,
    saves: Vec<usize>,
}

/// Pull a slots buffer from the pool (or mint one) and fill it.
fn saves_from_pool(pool: &mut Vec<Vec<usize>>, init: &[usize]) -> Vec<usize> {
    let mut saves = pool.pop().unwrap_or_default();
    saves.clear();
    saves.extend_from_slice(init);
    saves
}

/// Pull a slots buffer from the pool (or mint one) reset to `UNSET`.
fn blank_saves(pool: &mut Vec<Vec<usize>>, slots: usize) -> Vec<usize> {
    let mut saves = pool.pop().unwrap_or_default();
    saves.clear();
    saves.resize(slots, UNSET);
    saves
}

/// Classical leftmost-first search over a token stream.
///
/// `tokens` yields `(pos, next_pos, char)` triples with strictly
/// increasing positions (byte offset and offset + UTF-8 length). When
/// `anchored`, the machine is seeded only at the first position and
/// `Match` accepts only at the end of the stream — full-match mode.
/// Returns the winning thread's capture slots.
///
/// Earlier seeds win, and within a step higher-priority threads win (a
/// `Match` cuts all lower-priority threads).
pub(crate) fn leftmost(
    prog: &Program<CharPred>,
    mut tokens: impl Iterator<Item = (usize, usize, char)>,
    bounds: Bounds,
    anchored: bool,
) -> Option<Vec<usize>> {
    let mut clist: Vec<Thread> = Vec::new();
    let mut nlist: Vec<Thread> = Vec::new();
    let mut cseen = vec![false; prog.insts.len()];
    let mut nseen = vec![false; prog.insts.len()];
    let mut pool: Vec<Vec<usize>> = Vec::new();
    let mut best: Option<Vec<usize>> = None;

    let mut next_item = tokens.next();
    let mut first = true;

    loop {
        let at_end = next_item.is_none();
        let pos = match &next_item {
            Some((p, _, _)) => *p,
            None => bounds.end,
        };

        // Seed a new start thread unless a match has been found
        // (leftmost) or we are in anchored mode past the start.
        if best.is_none() && (!anchored || first) {
            let saves = blank_saves(&mut pool, prog.slots);
            close(prog, bounds, pos, Thread { pc: 0, saves }, &mut clist, &mut cseen, &mut pool);
        }
        first = false;

        if clist.is_empty() && best.is_some() {
            break;
        }

        let mut i = 0;
        while i < clist.len() {
            let pc = clist[i].pc;
            match &prog.insts[pc] {
                Inst::Token { guard } => {
                    if let Some((_, tnext, ch)) = next_item {
                        if guard.matches(ch) {
                            let saves = saves_from_pool(&mut pool, &clist[i].saves);
                            let t = Thread { pc: pc + 1, saves };
                            close(prog, bounds, tnext, t, &mut nlist, &mut nseen, &mut pool);
                        }
                    }
                }
                Inst::Match => {
                    let accept = !anchored || at_end;
                    if accept {
                        best = Some(std::mem::take(&mut clist[i].saves));
                        // Cut lower-priority threads: they can only
                        // produce worse matches.
                        clist.truncate(i + 1);
                        break;
                    }
                }
                // Eps instructions were resolved by close().
                // close()'s epsilon closure never enqueues eps instructions
                _ => unreachable!("epsilon instruction in run list"),
            }
            i += 1;
        }

        if at_end {
            break;
        }
        std::mem::swap(&mut clist, &mut nlist);
        std::mem::swap(&mut cseen, &mut nseen);
        for t in nlist.drain(..) {
            pool.push(t.saves);
        }
        nseen.iter_mut().for_each(|s| *s = false);
        next_item = tokens.next();
        if clist.is_empty() && best.is_some() {
            break;
        }
    }

    best
}

/// Add a thread, transitively resolving epsilon instructions
/// (`Split`/`Jmp`/`Save`/asserts). `seen` deduplicates by pc — the
/// first (highest-priority) arrival wins, which is what gives
/// greedy/lazy splits their meaning.
fn close(
    prog: &Program<CharPred>,
    bounds: Bounds,
    pos: usize,
    t: Thread,
    list: &mut Vec<Thread>,
    seen: &mut [bool],
    pool: &mut Vec<Vec<usize>>,
) {
    if seen[t.pc] {
        pool.push(t.saves);
        return;
    }
    seen[t.pc] = true;
    match &prog.insts[t.pc] {
        Inst::Jmp(to) => close(prog, bounds, pos, Thread { pc: *to, ..t }, list, seen, pool),
        Inst::Split(a, b) => {
            let (a, b) = (*a, *b);
            let first = Thread { pc: a, saves: saves_from_pool(pool, &t.saves) };
            close(prog, bounds, pos, first, list, seen, pool);
            close(prog, bounds, pos, Thread { pc: b, ..t }, list, seen, pool);
        }
        Inst::Save(slot) => {
            let mut saves = t.saves;
            saves[*slot] = pos;
            close(prog, bounds, pos, Thread { pc: t.pc + 1, saves }, list, seen, pool);
        }
        Inst::AssertStart => {
            if pos == bounds.begin {
                close(prog, bounds, pos, Thread { pc: t.pc + 1, ..t }, list, seen, pool);
            } else {
                pool.push(t.saves);
            }
        }
        Inst::AssertEnd => {
            if pos == bounds.end {
                close(prog, bounds, pos, Thread { pc: t.pc + 1, ..t }, list, seen, pool);
            } else {
                pool.push(t.saves);
            }
        }
        Inst::Token { .. } | Inst::Match => list.push(t),
    }
}
