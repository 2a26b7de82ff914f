//! Civil dates on the proleptic Gregorian calendar.

use crate::{DayNumber, Duration};
use std::fmt;

/// Days in 400 Gregorian years — the full leap cycle.
pub const DAYS_PER_400_YEARS: i64 = 146_097;

/// A day of the week. `Monday` is day 1, per ISO-8601.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[expect(missing_docs, reason = "the day names document themselves")]
pub enum Weekday {
    Monday = 1,
    Tuesday = 2,
    Wednesday = 3,
    Thursday = 4,
    Friday = 5,
    Saturday = 6,
    Sunday = 7,
}

impl Weekday {
    /// All weekdays, Monday first.
    pub const ALL: [Weekday; 7] = [
        Weekday::Monday,
        Weekday::Tuesday,
        Weekday::Wednesday,
        Weekday::Thursday,
        Weekday::Friday,
        Weekday::Saturday,
        Weekday::Sunday,
    ];

    /// ISO weekday number, 1 = Monday … 7 = Sunday.
    pub fn number(self) -> u8 {
        self as u8
    }

    /// True for Saturday and Sunday. Emergency-care synthesis uses this:
    /// out-of-hours GP contacts cluster on weekends.
    pub fn is_weekend(self) -> bool {
        matches!(self, Weekday::Saturday | Weekday::Sunday)
    }
}

/// A validated civil date (proleptic Gregorian calendar).
///
/// Internally a `(year, month, day)` triple; the year is bounded to
/// `[-9999, 9999]`, which comfortably covers clinical data and lets the
/// day-number arithmetic stay far away from `i64` overflow.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date {
    year: i16,
    month: u8,
    day: u8,
}

impl Date {
    /// The earliest representable date.
    pub const MIN: Date = Date { year: -9999, month: 1, day: 1 };
    /// The latest representable date.
    pub const MAX: Date = Date { year: 9999, month: 12, day: 31 };

    /// Construct a date, validating the calendar.
    ///
    /// Returns `None` for out-of-range years, bad months, or days that do
    /// not exist in the given month (e.g. 2001-02-29).
    pub fn new(year: i32, month: u32, day: u32) -> Option<Date> {
        if !(-9999..=9999).contains(&year) || !(1..=12).contains(&month) {
            return None;
        }
        let dim = days_in_month(year, month as u8);
        if day == 0 || day > u32::from(dim) {
            return None;
        }
        Some(Date { year: year as i16, month: month as u8, day: day as u8 })
    }

    /// Construct from a day number (days since 1970-01-01).
    ///
    /// Returns `None` if the result falls outside [`Date::MIN`]..=[`Date::MAX`].
    pub fn from_day_number(days: DayNumber) -> Option<Date> {
        const RANGE: std::ops::RangeInclusive<i64> = Date::MIN.day_number()..=Date::MAX.day_number();
        RANGE.contains(&days).then(|| Date::civil_from_days(days))
    }

    /// Hinnant's civil_from_days, shifted so the era starts 0000-03-01,
    /// for a day number already known to lie in `MIN..=MAX`.
    pub(crate) fn civil_from_days(days: DayNumber) -> Date {
        let z = days + 719_468;
        let era = z.div_euclid(DAYS_PER_400_YEARS);
        let doe = z.rem_euclid(DAYS_PER_400_YEARS); // [0, 146096]
        let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146_096) / 365; // [0, 399]
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
        let mp = (5 * doy + 2) / 153; // [0, 11]
        let d = doy - (153 * mp + 2) / 5 + 1; // [1, 31]
        let m = if mp < 10 { mp + 3 } else { mp - 9 }; // [1, 12]
        let year = y + i64::from(m <= 2);
        Date { year: year as i16, month: m as u8, day: d as u8 }
    }

    /// Days since 1970-01-01 (negative before the epoch).
    pub const fn day_number(self) -> DayNumber {
        // Hinnant's days_from_civil.
        let y = self.year as i64 - (self.month <= 2) as i64;
        let m = self.month as i64;
        let d = self.day as i64;
        let era = y.div_euclid(400);
        let yoe = y.rem_euclid(400); // [0, 399]
        let mp = if m > 2 { m - 3 } else { m + 9 };
        let doy = (153 * mp + 2) / 5 + d - 1; // [0, 365]
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
        era * DAYS_PER_400_YEARS + doe - 719_468
    }

    /// The calendar year.
    pub fn year(self) -> i32 {
        i32::from(self.year)
    }

    /// The month, 1–12.
    pub fn month(self) -> u32 {
        u32::from(self.month)
    }

    /// The day of month, 1–31.
    pub fn day(self) -> u32 {
        u32::from(self.day)
    }

    /// The day of week.
    pub fn weekday(self) -> Weekday {
        // 1970-01-01 was a Thursday (ISO 4).
        let w = (self.day_number() + 3).rem_euclid(7) + 1;
        match w {
            1 => Weekday::Monday,
            2 => Weekday::Tuesday,
            3 => Weekday::Wednesday,
            4 => Weekday::Thursday,
            5 => Weekday::Friday,
            6 => Weekday::Saturday,
            _ => Weekday::Sunday,
        }
    }

    /// ISO-8601 week date: `(week-year, week number 1–53)`.
    ///
    /// Utilization statistics are often reported per ISO week; the week
    /// belongs to the year containing its Thursday.
    pub fn iso_week(self) -> (i32, u32) {
        let thursday = self.add_days(i64::from(4 - i32::from(self.weekday().number())));
        let year = thursday.year();
        let jan1 = Date::new(year, 1, 1).expect("valid");
        let week = (thursday.days_since(jan1) / 7 + 1) as u32;
        (year, week)
    }

    /// Ordinal day within the year, 1-based (1..=365/366).
    pub fn ordinal(self) -> u32 {
        const CUM: [u32; 12] = [0, 31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334];
        let mut o = CUM[self.month as usize - 1] + u32::from(self.day);
        if self.month > 2 && is_leap_year(self.year()) {
            o += 1;
        }
        o
    }

    /// True if this date's year is a leap year.
    pub fn is_leap_year(self) -> bool {
        is_leap_year(self.year())
    }

    /// Number of days in this date's month.
    pub fn days_in_month(self) -> u32 {
        u32::from(days_in_month(self.year(), self.month))
    }

    /// Add (or subtract, if negative) a number of days, saturating at the
    /// representable bounds.
    pub fn add_days(self, days: i64) -> Date {
        match Date::from_day_number(self.day_number().saturating_add(days)) {
            Some(d) => d,
            None if days < 0 => Date::MIN,
            None => Date::MAX,
        }
    }

    /// Signed number of days from `other` to `self`.
    pub fn days_since(self, other: Date) -> i64 {
        self.day_number() - other.day_number()
    }

    /// Add a signed number of months, clamping the day to the target month's
    /// length (2020-01-31 + 1 month = 2020-02-29).
    ///
    /// This is the arithmetic behind the aligned axis: tick `k` sits at
    /// `anchor.add_months(k)`.
    pub fn add_months(self, months: i32) -> Date {
        let zero_based = i64::from(self.year) * 12 + i64::from(self.month) - 1;
        let total = zero_based + i64::from(months);
        let year = total.div_euclid(12);
        let month = (total.rem_euclid(12) + 1) as u32;
        if !(-9999..=9999).contains(&year) {
            return if months < 0 { Date::MIN } else { Date::MAX };
        }
        let year = year as i32;
        let day = u32::from(self.day).min(u32::from(days_in_month(year, month as u8)));
        // year range-checked above, month in 1..=12 by rem_euclid, day clamped to the month
        Date::new(year, month, day).expect("clamped day is always valid")
    }

    /// Whole months from `other` to `self`, with uniform **floor** semantics:
    /// the unique `k` such that
    /// `other.add_months(k) <= self < other.add_months(k + 1)`.
    ///
    /// This is the bucketing rule of the aligned axis: an event one day
    /// *before* the anchor falls in month bucket `-1`, one day after in
    /// bucket `0`.
    ///
    /// Closed form: `other.add_months(k)` for the calendar month count
    /// `k` lands in `self`'s month on `other`'s day clamped to that
    /// month, so it overshoots `self` exactly when the clamped day is
    /// later, and then `k - 1` is the floor. No month arithmetic runs: in
    /// the calendar's last month, where `other.add_months(k + 1)`
    /// saturates to [`Date::MAX`], this is still the month count.
    pub fn months_between(self, other: Date) -> i32 {
        let k = (i32::from(self.year) - i32::from(other.year)) * 12
            + (i32::from(self.month) - i32::from(other.month));
        let landed = other.day.min(days_in_month(self.year(), self.month));
        k - i32::from(landed > self.day)
    }

    /// First day of this date's month.
    pub fn first_of_month(self) -> Date {
        Date { day: 1, ..self }
    }

    /// Last day of this date's month.
    pub fn last_of_month(self) -> Date {
        Date { day: days_in_month(self.year(), self.month), ..self }
    }

    /// Midnight at the start of this date.
    pub fn at_midnight(self) -> crate::DateTime {
        // 00:00:00 is within range on every date
        crate::DateTime::new(self, 0, 0, 0).expect("midnight is always valid")
    }

    /// A specific time of day on this date.
    pub fn at(self, hour: u32, minute: u32, second: u32) -> Option<crate::DateTime> {
        crate::DateTime::new(self, hour, minute, second)
    }

    /// Parse an ISO-8601 calendar date (`YYYY-MM-DD`).
    pub fn parse_iso(s: &str) -> Result<Date, crate::ParseError> {
        crate::parse::parse_date(s)
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.year < 0 {
            write!(f, "-{:04}-{:02}-{:02}", -i32::from(self.year), self.month, self.day)
        } else {
            write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
        }
    }
}

impl fmt::Debug for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Date({self})")
    }
}

impl std::ops::Add<Duration> for Date {
    type Output = Date;
    fn add(self, rhs: Duration) -> Date {
        self.add_days(rhs.whole_days())
    }
}

impl std::ops::Sub<Date> for Date {
    type Output = Duration;
    fn sub(self, rhs: Date) -> Duration {
        Duration::days(self.days_since(rhs))
    }
}

/// True if `year` is a Gregorian leap year.
pub(crate) fn is_leap_year(year: i32) -> bool {
    year % 4 == 0 && (year % 100 != 0 || year % 400 == 0)
}

pub(crate) fn days_in_month(year: i32, month: u8) -> u8 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 if is_leap_year(year) => 29,
        2 => 28,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_day_zero() {
        let d = Date::new(1970, 1, 1).unwrap();
        assert_eq!(d.day_number(), 0);
        assert_eq!(Date::from_day_number(0), Some(d));
    }

    #[test]
    fn known_day_numbers() {
        // Reference values from Hinnant's paper and `date -d ... +%s`.
        assert_eq!(Date::new(2000, 1, 1).unwrap().day_number(), 10_957);
        assert_eq!(Date::new(2016, 5, 16).unwrap().day_number(), 16_937);
        assert_eq!(Date::new(1969, 12, 31).unwrap().day_number(), -1);
        assert_eq!(Date::new(1900, 1, 1).unwrap().day_number(), -25_567);
    }

    #[test]
    fn rejects_invalid_dates() {
        assert!(Date::new(2001, 2, 29).is_none());
        assert!(Date::new(2000, 2, 29).is_some()); // 400-divisible year
        assert!(Date::new(1900, 2, 29).is_none()); // 100- but not 400-divisible
        assert!(Date::new(2020, 13, 1).is_none());
        assert!(Date::new(2020, 0, 1).is_none());
        assert!(Date::new(2020, 4, 31).is_none());
        assert!(Date::new(2020, 4, 0).is_none());
        assert!(Date::new(10_000, 1, 1).is_none());
        assert!(Date::new(-10_000, 1, 1).is_none());
    }

    #[test]
    fn weekday_known_values() {
        assert_eq!(Date::new(1970, 1, 1).unwrap().weekday(), Weekday::Thursday);
        assert_eq!(Date::new(2016, 5, 16).unwrap().weekday(), Weekday::Monday); // ICDE 2016 opening
        assert_eq!(Date::new(2000, 1, 1).unwrap().weekday(), Weekday::Saturday);
        assert_eq!(Date::new(1969, 12, 28).unwrap().weekday(), Weekday::Sunday);
    }

    #[test]
    fn weekend_flag() {
        assert!(Weekday::Saturday.is_weekend());
        assert!(Weekday::Sunday.is_weekend());
        assert!(!Weekday::Wednesday.is_weekend());
    }

    #[test]
    fn iso_weeks_match_reference_values() {
        // Reference values from the ISO-8601 week calendar.
        assert_eq!(Date::new(2016, 1, 1).unwrap().iso_week(), (2015, 53), "Fri 2016-01-01");
        assert_eq!(Date::new(2016, 1, 4).unwrap().iso_week(), (2016, 1), "Mon starts W01");
        assert_eq!(Date::new(2015, 12, 31).unwrap().iso_week(), (2015, 53));
        assert_eq!(Date::new(2014, 12, 29).unwrap().iso_week(), (2015, 1), "Mon belongs to 2015");
        assert_eq!(Date::new(2013, 6, 15).unwrap().iso_week(), (2013, 24));
        assert_eq!(Date::new(2020, 12, 31).unwrap().iso_week(), (2020, 53), "2020 has 53 weeks");
        assert_eq!(Date::new(2021, 1, 1).unwrap().iso_week(), (2020, 53));
    }

    #[test]
    fn ordinal_day() {
        assert_eq!(Date::new(2020, 1, 1).unwrap().ordinal(), 1);
        assert_eq!(Date::new(2020, 12, 31).unwrap().ordinal(), 366);
        assert_eq!(Date::new(2019, 12, 31).unwrap().ordinal(), 365);
        assert_eq!(Date::new(2020, 3, 1).unwrap().ordinal(), 61);
        assert_eq!(Date::new(2019, 3, 1).unwrap().ordinal(), 60);
    }

    #[test]
    fn add_days_and_difference() {
        let d = Date::new(2015, 2, 27).unwrap();
        assert_eq!(d.add_days(2), Date::new(2015, 3, 1).unwrap());
        assert_eq!(d.add_days(-58), Date::new(2014, 12, 31).unwrap());
        assert_eq!(Date::new(2015, 3, 1).unwrap().days_since(d), 2);
    }

    #[test]
    fn add_days_saturates() {
        assert_eq!(Date::MAX.add_days(10), Date::MAX);
        assert_eq!(Date::MIN.add_days(-10), Date::MIN);
        assert_eq!(Date::MAX.add_days(i64::MAX), Date::MAX);
        assert_eq!(Date::MIN.add_days(i64::MIN), Date::MIN);
    }

    #[test]
    fn month_arithmetic_clamps() {
        let d = Date::new(2020, 1, 31).unwrap();
        assert_eq!(d.add_months(1), Date::new(2020, 2, 29).unwrap());
        assert_eq!(d.add_months(3), Date::new(2020, 4, 30).unwrap());
        assert_eq!(d.add_months(-2), Date::new(2019, 11, 30).unwrap());
        assert_eq!(d.add_months(12), Date::new(2021, 1, 31).unwrap());
    }

    #[test]
    fn month_arithmetic_crosses_years() {
        let d = Date::new(2020, 11, 15).unwrap();
        assert_eq!(d.add_months(2), Date::new(2021, 1, 15).unwrap());
        assert_eq!(d.add_months(-11), Date::new(2019, 12, 15).unwrap());
        assert_eq!(d.add_months(-23), Date::new(2018, 12, 15).unwrap());
    }

    #[test]
    fn months_between_floor_semantics() {
        let a = Date::new(2020, 1, 31).unwrap();
        // 2020-02-29 is not a "full month" after 2020-01-31 under add_months
        // (clamped), it *is* reached at k=1.
        assert_eq!(Date::new(2020, 2, 29).unwrap().months_between(a), 1);
        assert_eq!(Date::new(2020, 2, 28).unwrap().months_between(a), 0);
        assert_eq!(Date::new(2020, 3, 1).unwrap().months_between(a), 1);
        let b = Date::new(2020, 6, 15).unwrap();
        assert_eq!(Date::new(2020, 6, 14).unwrap().months_between(b), -1);
        assert_eq!(Date::new(2020, 5, 15).unwrap().months_between(b), -1);
        assert_eq!(Date::new(2020, 5, 16).unwrap().months_between(b), -1);
        assert_eq!(Date::new(2020, 5, 14).unwrap().months_between(b), -2);
        assert_eq!(Date::new(2020, 6, 16).unwrap().months_between(b), 0);
        assert_eq!(Date::new(2020, 7, 15).unwrap().months_between(b), 1);
        assert_eq!(b.months_between(b), 0);
    }

    #[test]
    fn months_between_at_the_calendar_ends() {
        let d = |y, m, day| Date::new(y, m, day).unwrap();
        let born = d(1950, 1, 1);
        assert_eq!(d(9999, 12, 30).months_between(born), 96_599);
        assert_eq!(Date::MAX.months_between(born), 96_599);
        assert_eq!(born.months_between(Date::MAX), -96_600);
        assert_eq!(Date::MAX.months_between(Date::MIN), 19_999 * 12 - 1);
        assert_eq!(Date::MIN.months_between(Date::MAX), -(19_999 * 12));
        assert_eq!(Date::MIN.months_between(Date::MIN), 0);
        assert_eq!(Date::MAX.months_between(Date::MAX), 0);
        assert_eq!(Date::MAX.months_between(d(9999, 11, 30)), 1);
        assert_eq!(d(9999, 12, 30).months_between(d(9999, 11, 30)), 1);
        assert_eq!(d(9999, 12, 29).months_between(d(9999, 11, 30)), 0);
        assert_eq!(d(-9999, 2, 1).months_between(Date::MIN), 1);
        assert_eq!(Date::MIN.months_between(d(-9999, 1, 2)), -1);
    }

    #[test]
    fn first_and_last_of_month() {
        let d = Date::new(2020, 2, 15).unwrap();
        assert_eq!(d.first_of_month(), Date::new(2020, 2, 1).unwrap());
        assert_eq!(d.last_of_month(), Date::new(2020, 2, 29).unwrap());
    }

    #[test]
    fn display_formatting() {
        assert_eq!(Date::new(2016, 5, 4).unwrap().to_string(), "2016-05-04");
        assert_eq!(Date::new(-44, 3, 15).unwrap().to_string(), "-0044-03-15");
    }

    #[test]
    fn operator_sugar() {
        let a = Date::new(2020, 1, 1).unwrap();
        let b = Date::new(2020, 1, 8).unwrap();
        assert_eq!(b - a, Duration::days(7));
        assert_eq!(a + Duration::days(7), b);
    }
}
