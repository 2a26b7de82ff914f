//! Session history — Shneiderman's neglected tasks.
//!
//! §II.C.3: of the seven tasks in Shneiderman's taxonomy, "the three latter
//! (relationships, **history**, extraction) are more seldom" implemented,
//! yet "they are … important for the explorative aspects of interaction
//! and should be remembered when developing a prototype." This module
//! remembers them:
//!
//! * **history** — [`Session`] wraps a [`Workbench`] and records every view
//!   command with undo/redo, so an analyst can retrace an exploration;
//! * **extraction** — see [`crate::export`], reachable from here via
//!   [`Session::workbench`].
//!
//! Relationships between selections are the query language's own
//! `and`/`or`/`not`, answered by [`Workbench::select_positions`].

use crate::error::CoreError;
use crate::workbench::{ViewState, Workbench};
use pastas_query::{EntryPredicate, SortKey};

/// A view-changing command (replayable; parameters are owned strings so
/// the log can be serialized for session replay).
#[derive(Debug, Clone)]
pub enum ViewCommand {
    /// Re-sort the display order.
    Sort(SortKey),
    /// Align on the first code matching a regex.
    AlignOnCode(String),
    /// Back to calendar mode.
    ClearAlignment,
    /// Set or clear the event filter.
    SetFilter(Option<EntryPredicate>),
}

/// A workbench with command history.
pub struct Session {
    workbench: Workbench,
    undo: Vec<(ViewState, ViewCommand)>,
    redo: Vec<(ViewState, ViewCommand)>,
}

impl Session {
    /// Wrap a workbench.
    pub fn new(workbench: Workbench) -> Session {
        Session { workbench, undo: Vec::new(), redo: Vec::new() }
    }

    /// Read access to the underlying workbench.
    pub fn workbench(&self) -> &Workbench {
        &self.workbench
    }

    /// Apply a command, recording it for undo. Returns a [`CoreError`] for
    /// invalid parameters (e.g. a bad regex) without changing state.
    pub fn apply(&mut self, command: ViewCommand) -> Result<(), CoreError> {
        let before = self.workbench.view_state();
        self.workbench.apply_command(&command)?;
        self.undo.push((before, command));
        self.redo.clear();
        Ok(())
    }

    /// Undo the last command. Returns `false` if there was nothing to undo.
    pub fn undo(&mut self) -> bool {
        let Some((state, command)) = self.undo.pop() else {
            return false;
        };
        let current = self.workbench.view_state();
        self.workbench.restore_view_state(state);
        self.redo.push((current, command));
        true
    }

    /// Redo the last undone command.
    pub fn redo(&mut self) -> bool {
        let Some((state, command)) = self.redo.pop() else {
            return false;
        };
        let current = self.workbench.view_state();
        self.workbench.restore_view_state(state);
        self.undo.push((current, command));
        true
    }

    /// The command trail, oldest first (the replayable session log).
    pub fn history(&self) -> Vec<&ViewCommand> {
        self.undo.iter().map(|(_, c)| c).collect()
    }

    /// Depth of the undo stack.
    pub fn undo_depth(&self) -> usize {
        self.undo.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pastas_query::QueryBuilder;
    use pastas_synth::{generate_collection, SynthConfig};

    fn session() -> Session {
        Session::new(Workbench::from_collection(generate_collection(
            SynthConfig::with_patients(200),
            47,
        )))
    }

    #[test]
    fn undo_redo_round_trip() {
        let mut s = session();
        let initial = s.workbench().order().to_vec();
        s.apply(ViewCommand::Sort(SortKey::EntryCount)).unwrap();
        let sorted = s.workbench().order().to_vec();
        assert_ne!(initial, sorted);

        assert!(s.undo());
        assert_eq!(s.workbench().order(), initial.as_slice());
        assert!(s.redo());
        assert_eq!(s.workbench().order(), sorted.as_slice());
        assert!(!s.redo(), "nothing further to redo");
    }

    #[test]
    fn alignment_commands_are_undoable() {
        let mut s = session();
        assert!(!s.workbench().is_aligned());
        s.apply(ViewCommand::AlignOnCode("T90".to_owned())).unwrap();
        assert!(s.workbench().is_aligned());
        s.undo();
        assert!(!s.workbench().is_aligned());
    }

    #[test]
    fn failed_commands_leave_no_trace() {
        let mut s = session();
        let err = s.apply(ViewCommand::AlignOnCode("T90[".to_owned()));
        assert!(err.is_err());
        assert_eq!(s.undo_depth(), 0);
        assert!(!s.undo());
    }

    #[test]
    fn new_command_clears_the_redo_branch() {
        let mut s = session();
        s.apply(ViewCommand::Sort(SortKey::EntryCount)).unwrap();
        s.apply(ViewCommand::Sort(SortKey::FirstEntry)).unwrap();
        s.undo();
        s.apply(ViewCommand::Sort(SortKey::Span)).unwrap();
        assert!(!s.redo(), "redo branch discarded after divergence");
        assert_eq!(s.history().len(), 2);
    }

    #[test]
    fn history_is_the_replayable_trail() {
        let mut s = session();
        s.apply(ViewCommand::Sort(SortKey::EntryCount)).unwrap();
        s.apply(ViewCommand::AlignOnCode("K86".to_owned())).unwrap();
        s.apply(ViewCommand::ClearAlignment).unwrap();
        let trail: Vec<String> = s.history().iter().map(|c| format!("{c:?}")).collect();
        assert_eq!(trail.len(), 3);
        assert!(trail[1].contains("K86"));
    }

    #[test]
    fn from_query_goes_through_the_selection_cache() {
        let s = session();
        let q = QueryBuilder::new().has_code("T90").unwrap().build();
        let first = s.workbench().select_positions(&q);
        assert_eq!(s.workbench().selection_cache_len(), 1, "query memoized");
        assert_eq!(s.workbench().selection_cache_misses(), 1);
        let second = s.workbench().select_positions(&q);
        assert_eq!(first, second);
        assert_eq!(s.workbench().selection_cache_len(), 1, "no duplicate entry");
        assert!(s.workbench().selection_cache_hits() >= 1, "repeat was a hit");
        // The cache is shared with snapshots: a repeat through a snapshot
        // also hits, and a fresh query through the snapshot warms the
        // original.
        let snap = s.workbench().snapshot();
        let hits_before = snap.selection_cache_hits();
        let _ = snap.select_positions(&q);
        assert_eq!(snap.selection_cache_hits(), hits_before + 1);
        let q2 = QueryBuilder::new().has_code("K86").unwrap().build();
        let _ = snap.select_positions(&q2);
        assert_eq!(s.workbench().selection_cache_len(), 2);
    }
}
