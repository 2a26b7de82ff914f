//! Civil (proleptic Gregorian) dates, datetimes and durations.
//!
//! The PAsTAs workbench timestamps every clinical entry. The paper's data
//! model distinguishes *point events* ("single day contacts, usually with a
//! recorded diagnosis") from *intervals* ("notions such as Hospital stay"),
//! and its aligned-axis mode measures time in **months before and after an
//! alignment point**. This crate provides exactly the calendar machinery
//! those features need, with no external dependencies:
//!
//! * [`Date`] — a validated civil date with day-number conversion
//!   (Hinnant-style algorithms), weekday, ordinal-day and leap-year support;
//! * [`DateTime`] — one linear second number; civil fields on demand;
//! * [`Duration`] — a signed span in seconds;
//! * month arithmetic with end-of-month clamping ([`Date::add_months`],
//!   [`Date::months_between`]) for the aligned axis;
//! * ISO-8601 parsing and formatting.
//!
//! All types are `Copy`, ordered, and hashable, so they can be used directly
//! as index keys in the query layer.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod date;
mod datetime;
mod duration;
mod parse;

pub use date::{Date, Weekday, DAYS_PER_400_YEARS};
pub use datetime::DateTime;
pub use duration::Duration;
pub use parse::ParseError;

/// Number of days since the civil epoch 1970-01-01 (negative before it).
///
/// This is the canonical machine representation of a date inside indexes and
/// the visualization viewport: pixel positions on the calendar axis are an
/// affine function of the day number.
pub type DayNumber = i64;

/// Seconds since 1970-01-01T00:00:00 (civil, no leap seconds).
pub type SecondNumber = i64;

#[cfg(test)]
mod proptests;
