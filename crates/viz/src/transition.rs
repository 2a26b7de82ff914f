//! Scene transitions — the change-blindness countermeasure.
//!
//! §II.C.2: "If the user blinks or changes focus, or if the screen briefly
//! goes blank, between two successive views, it is probable that the user
//! will be unable to detect the difference … the visualization should not
//! presume that a user is able to detect changes between views without a
//! way of highlighting the change, such as with animation."
//!
//! [`diff`] compares two scenes element-by-element (keyed by class +
//! tooltip, matching greedily within a class) and produces an
//! [`AnimationPlan`]: which elements enter (fade in), leave (fade out), or
//! move (interpolate), with a duration chosen per the magnitude of change
//! so large re-arrangements get more time to track.

use crate::scene::{Element, Primitive, Scene};

/// One element-level change between two scenes.
#[derive(Debug, Clone, PartialEq)]
pub enum Change {
    /// New element: fade in at this index of the new scene.
    Enter {
        /// Index into the new scene.
        new_index: usize,
    },
    /// Removed element: fade out from this index of the old scene.
    Exit {
        /// Index into the old scene.
        old_index: usize,
    },
    /// The element persisted but its geometry changed: interpolate.
    Move {
        /// Index into the old scene.
        old_index: usize,
        /// Index into the new scene.
        new_index: usize,
        /// Straight-line distance between bbox centres, px.
        distance: f64,
    },
}

/// The animation plan for one view change.
#[derive(Debug, Clone, Default)]
pub struct AnimationPlan {
    /// Element changes.
    pub changes: Vec<Change>,
    /// Recommended duration, ms.
    pub duration_ms: f64,
}

impl AnimationPlan {
    /// Count of entering elements.
    pub fn enters(&self) -> usize {
        self.changes.iter().filter(|c| matches!(c, Change::Enter { .. })).count()
    }

    /// Count of exiting elements.
    pub fn exits(&self) -> usize {
        self.changes.iter().filter(|c| matches!(c, Change::Exit { .. })).count()
    }

    /// Count of moving elements.
    pub fn moves(&self) -> usize {
        self.changes.iter().filter(|c| matches!(c, Change::Move { .. })).count()
    }
}

fn identity_key(e: &Element) -> (&str, Option<&str>) {
    (&e.class, e.tooltip.as_deref())
}

fn centre(p: &Primitive) -> (f64, f64) {
    let (x0, y0, x1, y1) = p.bbox();
    ((x0 + x1) / 2.0, (y0 + y1) / 2.0)
}

/// Diff two scenes and plan the transition.
///
/// Elements are matched by `(class, tooltip)` identity — the tooltip
/// carries the entry description, so an entry that merely moved (zoom,
/// alignment, re-sort) matches itself across views. Ambiguous matches
/// (identical keys) pair up greedily in order.
pub fn diff(old: &Scene, new: &Scene) -> AnimationPlan {
    use std::collections::HashMap;
    let mut new_by_key: HashMap<(&str, Option<&str>), Vec<usize>> = HashMap::new();
    for (i, e) in new.elements.iter().enumerate() {
        new_by_key.entry(identity_key(e)).or_default().push(i);
    }
    // Reverse so pop() takes elements in order.
    for v in new_by_key.values_mut() {
        v.reverse();
    }

    let mut changes = Vec::new();
    let mut max_distance = 0.0f64;
    let mut matched_new = vec![false; new.elements.len()];
    for (old_index, e) in old.elements.iter().enumerate() {
        match new_by_key.get_mut(&identity_key(e)).and_then(Vec::pop) {
            Some(new_index) => {
                matched_new[new_index] = true;
                let (ax, ay) = centre(&e.primitive);
                let (bx, by) = centre(&new.elements[new_index].primitive);
                let distance = ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt();
                if distance > 0.25 || e.primitive != new.elements[new_index].primitive {
                    max_distance = max_distance.max(distance);
                    changes.push(Change::Move { old_index, new_index, distance });
                }
            }
            None => changes.push(Change::Exit { old_index }),
        }
    }
    for (new_index, matched) in matched_new.iter().enumerate() {
        if !matched {
            changes.push(Change::Enter { new_index });
        }
    }

    // Duration heuristic: 200 ms floor (perceivable), growing with travel
    // distance, capped at 800 ms (don't block the interaction loop).
    let duration_ms = if changes.is_empty() {
        0.0
    } else {
        (200.0 + max_distance * 0.8).min(800.0)
    };
    AnimationPlan { changes, duration_ms }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color::GLYPH_INK;

    fn glyph(x: f64, tooltip: &str) -> Element {
        Element {
            primitive: Primitive::Circle { cx: x, cy: 10.0, r: 2.0, fill: GLYPH_INK },
            class: "viz:Glyph/circle".into(),
            tooltip: Some(tooltip.to_owned()),
        }
    }

    fn scene(elements: Vec<Element>) -> Scene {
        Scene { width: 100.0, height: 50.0, elements }
    }

    #[test]
    fn identical_scenes_need_no_animation() {
        let s = scene(vec![glyph(10.0, "a"), glyph(20.0, "b")]);
        let plan = diff(&s, &s);
        assert!(plan.changes.is_empty());
        assert_eq!(plan.duration_ms, 0.0);
    }

    #[test]
    fn moved_entries_are_tracked_not_replaced() {
        // The zoom case: same entries, new positions.
        let old = scene(vec![glyph(10.0, "a"), glyph(20.0, "b")]);
        let new = scene(vec![glyph(40.0, "a"), glyph(80.0, "b")]);
        let plan = diff(&old, &new);
        assert_eq!(plan.moves(), 2);
        assert_eq!(plan.enters(), 0);
        assert_eq!(plan.exits(), 0);
        assert!(plan.duration_ms >= 200.0);
    }

    #[test]
    fn filtering_produces_exits_and_unfiltering_enters() {
        let full = scene(vec![glyph(10.0, "a"), glyph(20.0, "b"), glyph(30.0, "c")]);
        let filtered = scene(vec![glyph(10.0, "a")]);
        let plan = diff(&full, &filtered);
        assert_eq!(plan.exits(), 2);
        assert_eq!(plan.enters(), 0);
        let back = diff(&filtered, &full);
        assert_eq!(back.enters(), 2);
        assert_eq!(back.exits(), 0);
    }

    #[test]
    fn duration_scales_with_travel_and_is_capped() {
        let old = scene(vec![glyph(0.0, "a")]);
        let near = scene(vec![glyph(10.0, "a")]);
        let far = scene(vec![glyph(5_000.0, "a")]);
        let d_near = diff(&old, &near).duration_ms;
        let d_far = diff(&old, &far).duration_ms;
        assert!(d_near < d_far);
        assert!(d_far <= 800.0, "capped at 800 ms");
    }

    #[test]
    fn duplicate_keys_pair_greedily() {
        // Two identical diagnoses on the same day: both must match, none
        // spuriously enter/exit.
        let old = scene(vec![glyph(10.0, "dup"), glyph(20.0, "dup")]);
        let new = scene(vec![glyph(12.0, "dup"), glyph(22.0, "dup")]);
        let plan = diff(&old, &new);
        assert_eq!(plan.moves(), 2);
        assert_eq!(plan.enters() + plan.exits(), 0);
    }

    #[test]
    fn class_change_is_exit_plus_enter() {
        let old = scene(vec![glyph(10.0, "a")]);
        let mut changed = glyph(10.0, "a");
        changed.class = "viz:Glyph/square".into();
        let new = scene(vec![changed]);
        let plan = diff(&old, &new);
        assert_eq!(plan.exits(), 1);
        assert_eq!(plan.enters(), 1);
    }
}
