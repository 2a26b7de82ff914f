//! Civil datetimes, held as one linear second number.

use crate::{Date, Duration, SecondNumber};
use std::fmt;

const SECS_PER_DAY: i64 = 86_400;
const MIN_SECS: i64 = Date::MIN.day_number() * SECS_PER_DAY;
const MAX_SECS: i64 = Date::MAX.day_number() * SECS_PER_DAY + SECS_PER_DAY - 1;

/// A civil datetime: seconds since 1970-01-01T00:00:00, within
/// [`Date::MIN`]`T00:00:00 ..= `[`Date::MAX`]`T23:59:59`.
///
/// Order, equality, hashing and arithmetic are integer operations; the
/// civil fields ([`Self::date`], [`Self::hour`], …) are computed on
/// demand, which in the workbench means at parse and at render. The
/// `Default` is the epoch.
///
/// The workbench treats times as local civil time; the paper's sources all
/// report Norwegian civil timestamps and no cross-timezone reasoning is
/// needed, so there is deliberately no timezone machinery here.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DateTime(SecondNumber);

impl DateTime {
    /// Construct from a date and clock time. Returns `None` for out-of-range
    /// clock fields.
    pub fn new(date: Date, hour: u32, minute: u32, second: u32) -> Option<DateTime> {
        if hour >= 24 || minute >= 60 || second >= 60 {
            return None;
        }
        let second_of_day = i64::from(hour * 3_600 + minute * 60 + second);
        Some(DateTime(date.day_number() * SECS_PER_DAY + second_of_day))
    }

    /// Construct from seconds since the epoch 1970-01-01T00:00:00.
    pub fn from_second_number(secs: SecondNumber) -> Option<DateTime> {
        (MIN_SECS..=MAX_SECS).contains(&secs).then_some(DateTime(secs))
    }

    /// Seconds since the epoch 1970-01-01T00:00:00.
    pub fn second_number(self) -> SecondNumber {
        self.0
    }

    /// The calendar date.
    pub fn date(self) -> Date {
        Date::civil_from_days(self.0.div_euclid(SECS_PER_DAY))
    }

    fn second_of_day(self) -> u32 {
        self.0.rem_euclid(SECS_PER_DAY) as u32
    }

    /// Hour of day, 0–23.
    pub fn hour(self) -> u32 {
        self.second_of_day() / 3_600
    }

    /// Minute of hour, 0–59.
    pub fn minute(self) -> u32 {
        (self.second_of_day() % 3_600) / 60
    }

    /// Second of minute, 0–59.
    pub fn second(self) -> u32 {
        self.second_of_day() % 60
    }

    /// Add a (possibly negative) duration, saturating at the calendar bounds.
    /// Deliberately an inherent method, not `std::ops::Add`: operators
    /// should not silently saturate.
    #[expect(clippy::should_implement_trait, reason = "operators should not silently saturate")]
    pub fn add(self, d: Duration) -> DateTime {
        DateTime(self.0.saturating_add(d.as_seconds()).clamp(MIN_SECS, MAX_SECS))
    }

    /// Signed duration from `other` to `self`.
    pub fn since(self, other: DateTime) -> Duration {
        Duration::seconds(self.0 - other.0)
    }

    /// Parse ISO-8601: `YYYY-MM-DD`, `YYYY-MM-DDTHH:MM` or
    /// `YYYY-MM-DDTHH:MM:SS` (also accepts a space separator, which the
    /// registry CSV extracts use).
    pub fn parse_iso(s: &str) -> Result<DateTime, crate::ParseError> {
        crate::parse::parse_datetime(s)
    }
}

impl fmt::Display for DateTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}T{:02}:{:02}:{:02}",
            self.date(),
            self.hour(),
            self.minute(),
            self.second()
        )
    }
}

impl fmt::Debug for DateTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DateTime({self})")
    }
}

impl std::ops::Add<Duration> for DateTime {
    type Output = DateTime;
    fn add(self, rhs: Duration) -> DateTime {
        self.add(rhs)
    }
}

impl std::ops::Sub<DateTime> for DateTime {
    type Output = Duration;
    fn sub(self, rhs: DateTime) -> Duration {
        self.since(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(y: i32, m: u32, dd: u32) -> Date {
        Date::new(y, m, dd).unwrap()
    }

    #[test]
    fn epoch_round_trip() {
        let t = DateTime::new(d(1970, 1, 1), 0, 0, 0).unwrap();
        assert_eq!(t.second_number(), 0);
        assert_eq!(DateTime::from_second_number(0), Some(t));
    }

    #[test]
    fn known_second_number() {
        // 2016-05-16T12:00:00 UTC == 1463400000
        let t = DateTime::new(d(2016, 5, 16), 12, 0, 0).unwrap();
        assert_eq!(t.second_number(), 1_463_400_000);
    }

    #[test]
    fn clock_field_validation() {
        assert!(DateTime::new(d(2020, 1, 1), 24, 0, 0).is_none());
        assert!(DateTime::new(d(2020, 1, 1), 0, 60, 0).is_none());
        assert!(DateTime::new(d(2020, 1, 1), 0, 0, 60).is_none());
        assert!(DateTime::new(d(2020, 1, 1), 23, 59, 59).is_some());
    }

    #[test]
    fn accessors() {
        let t = DateTime::new(d(2020, 6, 1), 14, 35, 9).unwrap();
        assert_eq!(t.hour(), 14);
        assert_eq!(t.minute(), 35);
        assert_eq!(t.second(), 9);
        assert_eq!(t.date(), d(2020, 6, 1));
    }

    #[test]
    fn negative_epoch_seconds() {
        let t = DateTime::from_second_number(-1).unwrap();
        assert_eq!(t.date(), d(1969, 12, 31));
        assert_eq!((t.hour(), t.minute(), t.second()), (23, 59, 59));
    }

    #[test]
    fn arithmetic_crosses_midnight() {
        let t = DateTime::new(d(2020, 1, 1), 23, 30, 0).unwrap();
        let u = t + Duration::hours(1);
        assert_eq!(u.date(), d(2020, 1, 2));
        assert_eq!(u.hour(), 0);
        assert_eq!(u.minute(), 30);
        assert_eq!(u - t, Duration::hours(1));
    }

    #[test]
    fn display() {
        let t = DateTime::new(d(2016, 5, 4), 9, 5, 0).unwrap();
        assert_eq!(t.to_string(), "2016-05-04T09:05:00");
    }

    #[test]
    fn goldens_at_the_calendar_edges() {
        let leap = DateTime::new(d(2016, 2, 29), 23, 59, 59).unwrap();
        assert_eq!(leap.to_string(), "2016-02-29T23:59:59");
        assert_eq!(format!("{leap:?}"), "DateTime(2016-02-29T23:59:59)");
        assert_eq!(Date::MIN.at_midnight().to_string(), "-9999-01-01T00:00:00");
        assert_eq!(format!("{:?}", Date::MAX.at(23, 59, 59).unwrap()), "DateTime(9999-12-31T23:59:59)");
        assert_eq!(DateTime::from_second_number(Date::MIN.at_midnight().second_number() - 1), None);
    }
}
