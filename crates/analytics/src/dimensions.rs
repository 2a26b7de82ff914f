//! Bucket definitions for the cohort dimensions.
//!
//! Every dimension here is a *partition*: each patient lands in exactly
//! one bucket, so the bucket totals of every histogram sum to the cohort
//! size — the invariant the property tests in `crate::proptests` hold
//! the parallel pass to. Buckets are identified by small dense indices so
//! the aggregation pass is pure integer indexing into `u32` accumulator
//! arrays; the label functions here are only touched when a finished
//! profile is rendered.

use pastas_codes::icd10::CHAPTERS;
use pastas_codes::atc::LEVEL1_GROUPS;
use pastas_model::SourceKind;

/// Number of age-band buckets: decades `0–9` … `80–89`, then `90+`.
pub const AGE_BANDS: usize = 10;

/// Number of sex buckets (`Sex` is a two-variant enum).
pub const SEX_BANDS: usize = 2;

/// Number of dominant-source buckets: the five [`SourceKind`]s plus a
/// trailing `none` bucket for patients with an empty history.
pub const SOURCE_BANDS: usize = SourceKind::ALL.len() + 1;

/// Upper edges (exclusive) of the events-per-patient bands; the last band
/// is open-ended.
const ENTRY_EDGES: [usize; 7] = [1, 5, 10, 25, 50, 100, 250];

/// Number of events-per-patient buckets.
pub const ENTRY_BANDS: usize = ENTRY_EDGES.len() + 1;

/// Number of history-span buckets: five duration bands plus `none` for
/// empty histories.
pub const SPAN_BANDS: usize = 6;

/// Number of dominant-ICD-chapter buckets: the 22 ICD-10 chapters plus a
/// trailing `none` for patients with no ICD-10-coded entry.
pub const ICD_BANDS: usize = CHAPTERS.len() + 1;

/// Number of dominant-ATC-group buckets: the 14 anatomical main groups
/// plus a trailing `none` for patients with no prescription.
pub const ATC_BANDS: usize = LEVEL1_GROUPS.len() + 1;

/// How many calendar years of first-contact history get their own bucket.
pub const FIRST_CONTACT_YEARS: usize = 15;

/// Number of first-contact-year buckets: `earlier`, one per year in the
/// window `[reference − 14, reference]`, and a trailing `none`.
pub const FIRST_CONTACT_BANDS: usize = FIRST_CONTACT_YEARS + 2;

/// Bucket index for an age in whole years (negative ages clamp to the
/// first band, ages past 90 into the last).
pub fn age_bucket(age: i32) -> usize {
    (age.max(0) as usize / 10).min(AGE_BANDS - 1)
}

/// Label of age bucket `i`.
pub fn age_label(i: usize) -> String {
    if i + 1 == AGE_BANDS {
        format!("{}+", i * 10)
    } else {
        format!("{}-{}", i * 10, i * 10 + 9)
    }
}

/// Bucket index for an events-per-patient count.
pub fn entry_bucket(n: usize) -> usize {
    ENTRY_EDGES.iter().position(|&edge| n < edge).unwrap_or(ENTRY_BANDS - 1)
}

/// Label of events-per-patient bucket `i`.
pub fn entry_label(i: usize) -> String {
    let lo = if i == 0 { 0 } else { ENTRY_EDGES[i - 1] };
    match ENTRY_EDGES.get(i) {
        Some(&hi) if hi == lo + 1 => format!("{lo}"),
        Some(&hi) => format!("{lo}-{}", hi - 1),
        None => format!("{lo}+"),
    }
}

/// Upper edges (exclusive, in days) of the history-span bands.
const SPAN_EDGES: [f64; 4] = [365.25, 2.0 * 365.25, 5.0 * 365.25, 10.0 * 365.25];

/// Bucket index for an observed history span in days; `None` (an empty
/// history) lands in the trailing `none` bucket.
pub fn span_bucket(days: Option<f64>) -> usize {
    match days {
        None => SPAN_BANDS - 1,
        Some(d) => SPAN_EDGES.iter().position(|&edge| d < edge).unwrap_or(SPAN_BANDS - 2),
    }
}

/// Label of history-span bucket `i`.
pub fn span_label(i: usize) -> String {
    match i {
        0 => "<1y".to_owned(),
        1 => "1-2y".to_owned(),
        2 => "2-5y".to_owned(),
        3 => "5-10y".to_owned(),
        4 => "10y+".to_owned(),
        _ => "none".to_owned(),
    }
}

/// Label of dominant-source bucket `i`.
pub fn source_label(i: usize) -> String {
    SourceKind::ALL.get(i).map(|s| s.label().to_owned()).unwrap_or_else(|| "none".to_owned())
}

/// Label of dominant-ICD-chapter bucket `i` (the chapter's roman numeral;
/// titles are surfaced as tooltips by the viz layer).
pub fn icd_label(i: usize) -> String {
    CHAPTERS.get(i).map(|c| c.numeral.to_owned()).unwrap_or_else(|| "none".to_owned())
}

/// Label of dominant-ATC-group bucket `i` (the anatomical letter).
pub fn atc_label(i: usize) -> String {
    LEVEL1_GROUPS.get(i).map(|&(g, _)| g.to_string()).unwrap_or_else(|| "none".to_owned())
}

/// Bucket index for a first-contact calendar year relative to the
/// reference year. Years before the window land in `earlier` (bucket 0);
/// years after the reference clamp into the reference bucket (the data's
/// reference date is the collection's last event, so this only fires for
/// degenerate hand-built fixtures).
pub fn first_contact_bucket(reference_year: i32, year: i32) -> usize {
    let floor = reference_year - (FIRST_CONTACT_YEARS as i32 - 1);
    if year < floor {
        0
    } else {
        1 + (year - floor).min(FIRST_CONTACT_YEARS as i32 - 1) as usize
    }
}

/// The `none` bucket of the first-contact dimension (empty history).
pub const FIRST_CONTACT_NONE: usize = FIRST_CONTACT_BANDS - 1;

/// Label of first-contact bucket `i` for a given reference year.
pub fn first_contact_label(reference_year: i32, i: usize) -> String {
    let floor = reference_year - (FIRST_CONTACT_YEARS as i32 - 1);
    if i == 0 {
        format!("<{floor}")
    } else if i == FIRST_CONTACT_NONE {
        "none".to_owned()
    } else {
        format!("{}", floor + (i as i32 - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn age_buckets_partition() {
        assert_eq!(age_bucket(-3), 0);
        assert_eq!(age_bucket(0), 0);
        assert_eq!(age_bucket(9), 0);
        assert_eq!(age_bucket(10), 1);
        assert_eq!(age_bucket(89), 8);
        assert_eq!(age_bucket(90), 9);
        assert_eq!(age_bucket(140), 9);
        assert_eq!(age_label(9), "90+");
        assert_eq!(age_label(0), "0-9");
    }

    #[test]
    fn entry_buckets_partition() {
        assert_eq!(entry_bucket(0), 0);
        assert_eq!(entry_bucket(1), 1);
        assert_eq!(entry_bucket(4), 1);
        assert_eq!(entry_bucket(5), 2);
        assert_eq!(entry_bucket(249), 6);
        assert_eq!(entry_bucket(250), 7);
        assert_eq!(entry_label(0), "0");
        assert_eq!(entry_label(1), "1-4");
        assert_eq!(entry_label(7), "250+");
    }

    #[test]
    fn span_buckets_partition() {
        assert_eq!(span_bucket(None), SPAN_BANDS - 1);
        assert_eq!(span_bucket(Some(0.0)), 0);
        assert_eq!(span_bucket(Some(400.0)), 1);
        assert_eq!(span_bucket(Some(4000.0)), 4);
        assert_eq!(span_label(5), "none");
    }

    #[test]
    fn first_contact_buckets_partition() {
        assert_eq!(first_contact_bucket(2013, 1990), 0);
        assert_eq!(first_contact_bucket(2013, 1999), 1);
        assert_eq!(first_contact_bucket(2013, 2013), FIRST_CONTACT_YEARS);
        assert_eq!(first_contact_bucket(2013, 2020), FIRST_CONTACT_YEARS);
        assert_eq!(first_contact_label(2013, 0), "<1999");
        assert_eq!(first_contact_label(2013, 1), "1999");
        assert_eq!(first_contact_label(2013, FIRST_CONTACT_YEARS), "2013");
        assert_eq!(first_contact_label(2013, FIRST_CONTACT_NONE), "none");
    }

    #[test]
    fn band_counts_line_up_with_code_tables() {
        assert_eq!(ICD_BANDS, 23);
        assert_eq!(ATC_BANDS, 15);
        assert_eq!(SOURCE_BANDS, 6);
        assert_eq!(FIRST_CONTACT_BANDS, 17);
    }
}
