//! A Pike VM over an arbitrary token alphabet.
//!
//! The classic Pike VM (Thompson NFA simulation with capture slots)
//! consumes `char`s from a `&str`. Cohort queries need the same machine
//! over richer alphabets — clinical history entries with timestamps,
//! where a transition is admissible only if a *gap constraint* against
//! the previously consumed token holds. This module factors the VM out
//! over a generic token type `T` and a guard trait, so the byte regex
//! engine and the temporal-pattern engine share one simulation core.
//!
//! Two generalizations over the textbook VM:
//!
//! * **Guarded transitions.** A consuming instruction carries a
//!   [`TokenGuard`] instead of a character predicate. Guards see the
//!   token *and* per-thread state (e.g. the span of the previously
//!   matched event) and return a three-valued [`Outcome`]: advance,
//!   wait (stay parked at this instruction for the next token), or fail
//!   (kill the thread). `Wait` is what lets a temporal automaton skip
//!   interleaved non-matching events the way a `find`-based matcher
//!   would, while `Fail` lets it prune as soon as a sorted token stream
//!   passes the upper gap bound. A character guard never waits, which
//!   keeps byte-regex semantics exactly classical.
//! * **Per-thread state.** Threads carry `G::State` alongside capture
//!   slots; `Advance` produces the successor state observed by the next
//!   guard on that thread's lineage.
//!
//! Two drivers share the closure logic: [`leftmost`] reproduces the
//! classical leftmost-first search (used by the byte engine), and
//! [`run_every`] seeds an anchor thread at every token and streams every
//! accepting run to a callback (used by temporal pattern search, where
//! each anchor is an independent candidate match).

/// Sentinel for an unwritten capture slot.
pub const UNSET: usize = usize::MAX;

/// Verdict of a [`TokenGuard`] on one token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome<S> {
    /// Consume the token and advance past the instruction, carrying the
    /// successor state.
    Advance(S),
    /// Do not consume; keep the thread parked at this instruction for
    /// the next token. (A skip: the token is ignored by this thread.)
    Wait,
    /// Kill the thread: no later token can satisfy the guard either.
    Fail,
}

/// A transition guard over tokens of type `T`.
pub trait TokenGuard<T> {
    /// Per-thread state threaded through a lineage of `Advance`s.
    type State: Clone;
    /// Judge `token` given the thread's current state.
    fn admit(&self, token: &T, state: &Self::State) -> Outcome<Self::State>;
}

/// One NFA instruction, generic over the guard type.
#[derive(Debug, Clone)]
pub enum Inst<G> {
    /// Consume one token admitted by the guard. When `slot` is set, the
    /// consumed token's position is recorded there on `Advance`.
    Token {
        /// The transition guard.
        guard: G,
        /// Capture slot receiving the consumed token's position.
        slot: Option<usize>,
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

/// A compiled NFA program over guard type `G`.
#[derive(Debug, Clone)]
pub struct Program<G> {
    /// The instruction sequence.
    pub insts: Vec<Inst<G>>,
    /// Number of capture slots threads carry.
    pub slots: usize,
}

impl<G> Program<G> {
    /// True when every `Jmp`/`Split` target points strictly forward.
    ///
    /// Loop-free programs need no per-pc dedup during epsilon closure —
    /// the precondition for [`run_every`], whose threads carry distinct
    /// states and therefore cannot be deduplicated by pc alone.
    pub fn is_loop_free(&self) -> bool {
        self.insts.iter().enumerate().all(|(i, inst)| match inst {
            Inst::Jmp(t) => *t > i,
            Inst::Split(a, b) => *a > i && *b > i,
            _ => true,
        })
    }
}

/// Stream boundaries for the anchor assertions: `AssertStart` holds at
/// `begin`, `AssertEnd` at `end`.
#[derive(Debug, Clone, Copy)]
pub struct Bounds {
    /// Position of the start of the stream (`^`).
    pub begin: usize,
    /// Position one past the last token (`$`).
    pub end: usize,
}

/// A live thread: program counter, capture slots, guard state.
struct Thread<S> {
    pc: usize,
    saves: Vec<usize>,
    state: S,
}

/// Reusable buffers for [`run_every`], so repeated automaton runs (one
/// per candidate history) allocate nothing in steady state.
pub struct Scratch<S> {
    clist: Vec<Thread<S>>,
    nlist: Vec<Thread<S>>,
    pool: Vec<Vec<usize>>,
}

impl<S> Scratch<S> {
    /// Fresh, empty scratch space.
    pub fn new() -> Self {
        Scratch { clist: Vec::new(), nlist: Vec::new(), pool: Vec::new() }
    }
}

impl<S> Default for Scratch<S> {
    fn default() -> Self {
        Self::new()
    }
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
/// `tokens` yields `(pos, next_pos, token)` triples with strictly
/// increasing positions (for text, byte offset and offset + UTF-8
/// length). When `anchored`, the machine is seeded only at the first
/// position and `Match` accepts only at the end of the stream —
/// full-match mode. Returns the winning thread's capture slots.
///
/// Semantics are identical to the textbook byte VM: earlier seeds win,
/// and within a step higher-priority threads win (a `Match` cuts all
/// lower-priority threads). `Wait` outcomes park a thread for the next
/// token, deduplicated by pc like any other pending thread.
pub fn leftmost<T, G: TokenGuard<T>>(
    prog: &Program<G>,
    mut tokens: impl Iterator<Item = (usize, usize, T)>,
    bounds: Bounds,
    init: &G::State,
    anchored: bool,
) -> Option<Vec<usize>> {
    let mut clist: Vec<Thread<G::State>> = Vec::new();
    let mut nlist: Vec<Thread<G::State>> = Vec::new();
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
            let t = Thread { pc: 0, saves, state: init.clone() };
            close(prog, bounds, pos, t, &mut clist, &mut cseen, &mut pool);
        }
        first = false;

        if clist.is_empty() && best.is_some() {
            break;
        }

        let mut i = 0;
        while i < clist.len() {
            let pc = clist[i].pc;
            match &prog.insts[pc] {
                Inst::Token { guard, slot } => {
                    if let Some((tpos, tnext, tok)) = &next_item {
                        match guard.admit(tok, &clist[i].state) {
                            Outcome::Advance(state) => {
                                let mut saves = saves_from_pool(&mut pool, &clist[i].saves);
                                if let Some(k) = slot {
                                    saves[*k] = *tpos;
                                }
                                let t = Thread { pc: pc + 1, saves, state };
                                close(prog, bounds, *tnext, t, &mut nlist, &mut nseen, &mut pool);
                            }
                            Outcome::Wait => {
                                if !nseen[pc] {
                                    nseen[pc] = true;
                                    let saves = saves_from_pool(&mut pool, &clist[i].saves);
                                    nlist.push(Thread { pc, saves, state: clist[i].state.clone() });
                                }
                            }
                            Outcome::Fail => {}
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

/// Run the automaton with a fresh anchor thread seeded at *every* token
/// position, streaming each accepting run's capture slots to
/// `on_accept` as it completes. Returns the number of accepts
/// delivered; `on_accept` returning `false` aborts the whole run (the
/// short-circuit used by existence-only matching).
///
/// Unlike [`leftmost`], threads are *not* deduplicated by pc: each
/// anchor carries distinct guard state, so two threads at the same pc
/// are genuinely different candidates. That is only safe on loop-free
/// programs (`debug_assert`ed) — linear step chains, which is what
/// temporal patterns compile to. Accepts fire in completion order, not
/// anchor order; callers wanting anchor order sort on a captured slot.
pub fn run_every<T, G: TokenGuard<T>>(
    prog: &Program<G>,
    mut tokens: impl Iterator<Item = (usize, usize, T)>,
    bounds: Bounds,
    init: &G::State,
    scratch: &mut Scratch<G::State>,
    mut on_accept: impl FnMut(&[usize]) -> bool,
) -> usize {
    debug_assert!(prog.is_loop_free(), "run_every requires a loop-free program");
    let Scratch { clist, nlist, pool } = scratch;
    for t in clist.drain(..) {
        pool.push(t.saves);
    }
    for t in nlist.drain(..) {
        pool.push(t.saves);
    }

    let mut accepts = 0usize;
    let mut stop = false;
    let mut next_item = tokens.next();

    loop {
        let pos = match &next_item {
            Some((p, _, _)) => *p,
            None => bounds.end,
        };

        // Seed an anchor thread at this position.
        let saves = blank_saves(pool, prog.slots);
        let t = Thread { pc: 0, saves, state: init.clone() };
        close_acc(prog, bounds, pos, t, clist, pool, &mut on_accept, &mut stop, &mut accepts);
        if stop {
            break;
        }

        let Some((tpos, tnext, tok)) = &next_item else {
            // End of stream: parked Token threads can never advance.
            break;
        };

        let mut i = 0;
        while i < clist.len() {
            let pc = clist[i].pc;
            // close_acc() resolves eps instructions and consumes Match
            // immediately, so run lists hold only Token threads.
            match &prog.insts[pc] {
                Inst::Token { guard, slot } => match guard.admit(tok, &clist[i].state) {
                    Outcome::Advance(state) => {
                        let mut saves = std::mem::take(&mut clist[i].saves);
                        if let Some(k) = slot {
                            saves[*k] = *tpos;
                        }
                        let t = Thread { pc: pc + 1, saves, state };
                        close_acc(prog, bounds, *tnext, t, nlist, pool, &mut on_accept, &mut stop, &mut accepts);
                        if stop {
                            break;
                        }
                    }
                    Outcome::Wait => {
                        let saves = std::mem::take(&mut clist[i].saves);
                        nlist.push(Thread { pc, saves, state: clist[i].state.clone() });
                    }
                    Outcome::Fail => {
                        pool.push(std::mem::take(&mut clist[i].saves));
                    }
                },
                // close_acc never enqueues eps or Match instructions
                _ => unreachable!("non-token instruction in run list"),
            }
            i += 1;
        }
        if stop {
            break;
        }

        std::mem::swap(clist, nlist);
        for t in nlist.drain(..) {
            pool.push(t.saves);
        }
        next_item = tokens.next();
    }

    for t in clist.drain(..) {
        pool.push(t.saves);
    }
    for t in nlist.drain(..) {
        pool.push(t.saves);
    }
    accepts
}

/// Add a thread, transitively resolving epsilon instructions
/// (`Split`/`Jmp`/`Save`/asserts). `seen` deduplicates by pc — the
/// first (highest-priority) arrival wins, which is what gives
/// greedy/lazy splits their meaning.
fn close<G, S: Clone>(
    prog: &Program<G>,
    bounds: Bounds,
    pos: usize,
    t: Thread<S>,
    list: &mut Vec<Thread<S>>,
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
            let first = Thread { pc: a, saves: saves_from_pool(pool, &t.saves), state: t.state.clone() };
            close(prog, bounds, pos, first, list, seen, pool);
            close(prog, bounds, pos, Thread { pc: b, ..t }, list, seen, pool);
        }
        Inst::Save(slot) => {
            let mut saves = t.saves;
            saves[*slot] = pos;
            close(prog, bounds, pos, Thread { pc: t.pc + 1, saves, state: t.state }, list, seen, pool);
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

/// Epsilon closure for [`run_every`]: no pc dedup (threads carry
/// distinct states), and `Match` is consumed on the spot by handing the
/// capture slots to `on_accept` instead of parking the thread.
#[allow(clippy::too_many_arguments)]
fn close_acc<G, S: Clone>(
    prog: &Program<G>,
    bounds: Bounds,
    pos: usize,
    t: Thread<S>,
    list: &mut Vec<Thread<S>>,
    pool: &mut Vec<Vec<usize>>,
    on_accept: &mut impl FnMut(&[usize]) -> bool,
    stop: &mut bool,
    accepts: &mut usize,
) {
    if *stop {
        pool.push(t.saves);
        return;
    }
    match &prog.insts[t.pc] {
        Inst::Jmp(to) => {
            close_acc(prog, bounds, pos, Thread { pc: *to, ..t }, list, pool, on_accept, stop, accepts)
        }
        Inst::Split(a, b) => {
            let (a, b) = (*a, *b);
            let first = Thread { pc: a, saves: saves_from_pool(pool, &t.saves), state: t.state.clone() };
            close_acc(prog, bounds, pos, first, list, pool, on_accept, stop, accepts);
            close_acc(prog, bounds, pos, Thread { pc: b, ..t }, list, pool, on_accept, stop, accepts);
        }
        Inst::Save(slot) => {
            let mut saves = t.saves;
            saves[*slot] = pos;
            let t = Thread { pc: t.pc + 1, saves, state: t.state };
            close_acc(prog, bounds, pos, t, list, pool, on_accept, stop, accepts);
        }
        Inst::AssertStart => {
            if pos == bounds.begin {
                let t = Thread { pc: t.pc + 1, ..t };
                close_acc(prog, bounds, pos, t, list, pool, on_accept, stop, accepts);
            } else {
                pool.push(t.saves);
            }
        }
        Inst::AssertEnd => {
            if pos == bounds.end {
                let t = Thread { pc: t.pc + 1, ..t };
                close_acc(prog, bounds, pos, t, list, pool, on_accept, stop, accepts);
            } else {
                pool.push(t.saves);
            }
        }
        Inst::Match => {
            *accepts += 1;
            if !on_accept(&t.saves) {
                *stop = true;
            }
            pool.push(t.saves);
        }
        Inst::Token { .. } => list.push(t),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A guard over `u32` tokens: admit values in `lo..=hi`; values
    /// above `fail_above` kill the thread, anything else waits — except
    /// `strict` guards, which fail instead of waiting. Anchor (pc 0)
    /// guards must be strict so each [`run_every`] seed corresponds to
    /// exactly one candidate first token (a waiting seed would shadow
    /// its right neighbor and double-count accepts). State counts
    /// consumed tokens.
    struct RangeGuard {
        lo: u32,
        hi: u32,
        fail_above: u32,
        strict: bool,
    }

    impl RangeGuard {
        fn anchor(lo: u32, hi: u32) -> Self {
            RangeGuard { lo, hi, fail_above: u32::MAX, strict: true }
        }

        fn step(lo: u32, hi: u32, fail_above: u32) -> Self {
            RangeGuard { lo, hi, fail_above, strict: false }
        }
    }

    impl TokenGuard<u32> for RangeGuard {
        type State = u32;
        fn admit(&self, token: &u32, state: &u32) -> Outcome<u32> {
            if (self.lo..=self.hi).contains(token) {
                Outcome::Advance(state + 1)
            } else if self.strict || *token > self.fail_above {
                Outcome::Fail
            } else {
                Outcome::Wait
            }
        }
    }

    fn chain(guards: Vec<RangeGuard>) -> Program<RangeGuard> {
        let mut insts: Vec<Inst<RangeGuard>> = Vec::new();
        for (i, guard) in guards.into_iter().enumerate() {
            insts.push(Inst::Token { guard, slot: Some(i) });
        }
        let slots = insts.len();
        insts.push(Inst::Match);
        Program { insts, slots }
    }

    fn stream(tokens: &[u32]) -> impl Iterator<Item = (usize, usize, u32)> + '_ {
        tokens.iter().enumerate().map(|(i, &t)| (i, i + 1, t))
    }

    #[test]
    fn wait_skips_interleaved_tokens() {
        // 5 then 7, skipping anything else.
        let prog = chain(vec![RangeGuard::anchor(5, 5), RangeGuard::step(7, 7, 100)]);
        let tokens = [1, 5, 2, 3, 7, 9];
        let bounds = Bounds { begin: 0, end: tokens.len() };
        let mut scratch = Scratch::new();
        let mut hits = Vec::new();
        let n = run_every(&prog, stream(&tokens), bounds, &0, &mut scratch, |saves| {
            hits.push(saves.to_vec());
            true
        });
        assert_eq!(n, 1);
        assert_eq!(hits, vec![vec![1, 4]]);
    }

    #[test]
    fn fail_prunes_threads_early() {
        // A token above fail_above kills the parked thread before a
        // later admissible one appears.
        let prog = chain(vec![RangeGuard::anchor(5, 5), RangeGuard::step(7, 7, 50)]);
        let tokens = [5, 60, 7];
        let bounds = Bounds { begin: 0, end: tokens.len() };
        let mut scratch = Scratch::new();
        let n = run_every(&prog, stream(&tokens), bounds, &0, &mut scratch, |_| true);
        assert_eq!(n, 0);
    }

    #[test]
    fn every_anchor_is_tried() {
        // Two independent anchors both complete.
        let prog = chain(vec![RangeGuard::anchor(5, 9)]);
        let tokens = [5, 1, 9];
        let bounds = Bounds { begin: 0, end: tokens.len() };
        let mut scratch = Scratch::new();
        let mut hits = Vec::new();
        run_every(&prog, stream(&tokens), bounds, &0, &mut scratch, |saves| {
            hits.push(saves[0]);
            true
        });
        assert_eq!(hits, vec![0, 2]);
    }

    #[test]
    fn on_accept_false_short_circuits() {
        let prog = chain(vec![RangeGuard::anchor(0, 100)]);
        let tokens = [1, 2, 3, 4];
        let bounds = Bounds { begin: 0, end: tokens.len() };
        let mut scratch = Scratch::new();
        let mut calls = 0;
        let n = run_every(&prog, stream(&tokens), bounds, &0, &mut scratch, |_| {
            calls += 1;
            false
        });
        assert_eq!(n, 1);
        assert_eq!(calls, 1);
    }

    #[test]
    fn loop_freedom_is_detected() {
        let forward: Program<RangeGuard> =
            Program { insts: vec![Inst::Split(1, 2), Inst::Match, Inst::Match], slots: 0 };
        assert!(forward.is_loop_free());
        let backward: Program<RangeGuard> =
            Program { insts: vec![Inst::Match, Inst::Jmp(0)], slots: 0 };
        assert!(!backward.is_loop_free());
    }

    #[test]
    fn scratch_reuse_is_clean_across_runs() {
        let prog = chain(vec![RangeGuard::anchor(5, 5), RangeGuard::step(7, 7, 100)]);
        let mut scratch = Scratch::new();
        for _ in 0..3 {
            let tokens = [5, 7];
            let bounds = Bounds { begin: 0, end: tokens.len() };
            let n = run_every(&prog, stream(&tokens), bounds, &0, &mut scratch, |_| true);
            assert_eq!(n, 1);
            let empty: [u32; 0] = [];
            let bounds = Bounds { begin: 0, end: 0 };
            let n = run_every(&prog, stream(&empty), bounds, &0, &mut scratch, |_| true);
            assert_eq!(n, 0);
        }
    }
}
