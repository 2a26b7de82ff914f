//! The horizontal axis, in its two modes.
//!
//! §IV.B: "The horizontal axis has two modes: 1) When the diagram is not
//! aligned, the axis shows calendar time (the actual dates). 2) In an
//! aligned diagram, the axis shows the number of months before and after
//! the alignment point."

use pastas_query::Alignment;
use pastas_time::{DateTime, Duration};

/// Axis mode: calendar time or months-from-anchor.
#[derive(Debug, Clone)]
pub enum AxisMode {
    /// Calendar dates; ticks at month/quarter/year boundaries depending on
    /// the visible span.
    Calendar,
    /// Aligned mode: each history is shifted so its anchor sits at x = 0;
    /// ticks count months before/after the anchor.
    Aligned(Alignment),
}

/// One axis tick.
#[derive(Debug, Clone, PartialEq)]
pub struct Tick {
    /// Position in axis coordinates: seconds from the axis origin.
    pub at_seconds: i64,
    /// Label text (`"2014-03"` or `"-6 mo"`).
    pub label: String,
    /// Major ticks get labels and stronger rules.
    pub major: bool,
}

impl AxisMode {
    /// True if aligned.
    pub fn is_aligned(&self) -> bool {
        matches!(self, AxisMode::Aligned(_))
    }
}

/// Generate calendar ticks covering `[from, to]`, adapting granularity to
/// the span: ≤ 4 months → monthly ticks; ≤ 3 years → quarterly; else
/// yearly. Major ticks at year boundaries (or every tick when monthly).
pub fn calendar_ticks(from: DateTime, to: DateTime) -> Vec<Tick> {
    let days = (to - from).whole_days().max(1);
    let step_months: i32 = if days <= 124 {
        1
    } else if days <= 3 * 366 {
        3
    } else {
        12
    };
    let mut ticks = Vec::new();
    // First tick: the first step boundary at or after `from`.
    let d0 = from.date().first_of_month();
    let mut cursor = d0;
    // Snap to the step grid within the year.
    while (cursor.month() as i32 - 1) % step_months != 0 {
        cursor = cursor.add_months(1);
    }
    if cursor.at_midnight() < from {
        cursor = cursor.add_months(step_months);
    }
    let origin = from;
    while cursor.at_midnight() <= to {
        let t = cursor.at_midnight();
        let major = step_months == 1 || cursor.month() == 1;
        let label = if step_months >= 12 || cursor.month() == 1 {
            format!("{}", cursor.year())
        } else {
            format!("{:04}-{:02}", cursor.year(), cursor.month())
        };
        ticks.push(Tick { at_seconds: (t - origin).as_seconds(), label, major });
        cursor = cursor.add_months(step_months);
    }
    ticks
}

/// Generate aligned ticks for `months_before..=months_after` around the
/// anchor, stepping so that at most ~25 ticks appear. Month `k`'s offset
/// uses a nominal 30.44-day month so every history shares one scale.
pub fn aligned_ticks(months_before: i32, months_after: i32) -> Vec<Tick> {
    let total = (months_after + months_before).max(1);
    let step = ((total as f64 / 24.0).ceil() as i32).max(1);
    let mut ticks = Vec::new();
    let mut k = -months_before;
    // Snap to the step grid.
    while k.rem_euclid(step) != 0 {
        k += 1;
    }
    while k <= months_after {
        ticks.push(Tick {
            at_seconds: (k as f64 * NOMINAL_MONTH_SECS) as i64,
            label: if k == 0 { "0".to_owned() } else { format!("{k:+} mo") },
            major: k == 0 || k % 12 == 0,
        });
        k += step;
    }
    ticks
}

/// Seconds in a nominal month (30.44 days) — the aligned axis's unit.
pub const NOMINAL_MONTH_SECS: f64 = 30.44 * 86_400.0;

/// In aligned mode, an entry's axis position is its offset from the
/// history's anchor. Returns `None` if the history has no anchor (it drops
/// out of the aligned view).
pub fn aligned_offset(alignment: &Alignment, patient: pastas_model::PatientId, t: DateTime) -> Option<Duration> {
    Some(t - alignment.anchor(patient)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pastas_time::Date;

    fn t(y: i32, m: u32, d: u32) -> DateTime {
        Date::new(y, m, d).unwrap().at_midnight()
    }

    #[test]
    fn monthly_ticks_for_short_spans() {
        let ticks = calendar_ticks(t(2014, 1, 15), t(2014, 4, 20));
        let labels: Vec<_> = ticks.iter().map(|t| t.label.as_str()).collect();
        assert_eq!(labels, vec!["2014-02", "2014-03", "2014-04"]);
        assert!(ticks.iter().all(|t| t.major), "monthly ticks are all major");
    }

    #[test]
    fn quarterly_ticks_for_two_years() {
        let ticks = calendar_ticks(t(2013, 1, 1), t(2015, 1, 1));
        assert!(ticks.len() >= 8 && ticks.len() <= 10, "{} ticks", ticks.len());
        assert!(ticks.iter().any(|t| t.label == "2014"), "year boundary labelled as year");
        assert!(ticks.iter().any(|t| t.label == "2013-04"));
        // Ticks are ordered and within the span.
        for w in ticks.windows(2) {
            assert!(w[0].at_seconds < w[1].at_seconds);
        }
    }

    #[test]
    fn yearly_ticks_for_long_spans() {
        let ticks = calendar_ticks(t(2000, 1, 1), t(2010, 1, 1));
        assert_eq!(ticks.len(), 11);
        assert!(ticks.iter().all(|t| t.major));
        assert_eq!(ticks[0].label, "2000");
    }

    #[test]
    fn first_tick_is_at_or_after_from() {
        // ~3.5 months: monthly granularity; Jan 1 precedes `from`, so the
        // first tick is February.
        let ticks = calendar_ticks(t(2014, 1, 15), t(2014, 5, 1));
        assert!(ticks[0].at_seconds >= 0);
        assert_eq!(ticks[0].label, "2014-02");
        // ~4.5 months: quarterly granularity snaps to Apr 1.
        let ticks = calendar_ticks(t(2014, 1, 15), t(2014, 6, 1));
        assert_eq!(ticks[0].label, "2014-04");
    }

    #[test]
    fn aligned_ticks_bracket_zero() {
        let ticks = aligned_ticks(6, 18);
        assert!(ticks.iter().any(|t| t.label == "0"));
        assert!(ticks.iter().any(|t| t.label == "-6 mo"));
        assert!(ticks.iter().any(|t| t.label == "+18 mo"));
        let zero = ticks.iter().find(|t| t.label == "0").unwrap();
        assert_eq!(zero.at_seconds, 0);
        assert!(zero.major);
    }

    #[test]
    fn aligned_ticks_step_up_for_long_ranges() {
        let ticks = aligned_ticks(60, 60);
        assert!(ticks.len() <= 26, "{} ticks", ticks.len());
        // ±12-month ticks are major.
        assert!(ticks.iter().filter(|t| t.major).count() >= 3);
    }

    #[test]
    fn aligned_offsets() {
        use pastas_codes::Code;
        use pastas_model::*;
        use pastas_query::{align_on, EntryPredicate};

        let mut h = History::new(Patient {
            id: PatientId(1),
            birth_date: Date::new(1950, 1, 1).unwrap(),
            sex: Sex::Female,
        });
        h.insert(Entry::event(
            t(2013, 6, 1),
            Payload::Diagnosis(Code::icpc("T90")),
            SourceKind::PrimaryCare,
        ));
        let c = HistoryCollection::from_histories([h]);
        let a = align_on(&c, &EntryPredicate::code_regex("T90").unwrap());
        let off = aligned_offset(&a, PatientId(1), t(2013, 7, 1)).unwrap();
        assert_eq!(off.whole_days(), 30);
        assert!(aligned_offset(&a, PatientId(2), t(2013, 7, 1)).is_none());
    }
}
