//! Property-based tests for the calendar core.

use crate::{Date, DateTime, Duration};
use proptest::prelude::*;

fn arb_date() -> impl Strategy<Value = Date> {
    // Day numbers covering years ~1800..~2200, the clinically relevant span.
    (-62_000i64..84_000).prop_map(|n| Date::from_day_number(n).unwrap())
}

/// Every representable second, the calendar bounds included.
fn arb_second_number() -> impl Strategy<Value = i64> {
    let (min, max) = (Date::MIN.at_midnight(), Date::MAX.at(23, 59, 59).unwrap());
    min.second_number()..=max.second_number()
}

proptest! {
    #[test]
    fn day_number_round_trips(n in Date::MIN.day_number()..=Date::MAX.day_number()) {
        let d = Date::from_day_number(n).unwrap();
        prop_assert_eq!(d.day_number(), n);
    }

    #[test]
    fn ymd_round_trips(d in arb_date()) {
        let again = Date::new(d.year(), d.month(), d.day()).unwrap();
        prop_assert_eq!(again, d);
    }

    #[test]
    fn day_number_is_monotone(a in arb_date(), b in arb_date()) {
        prop_assert_eq!(a < b, a.day_number() < b.day_number());
    }

    #[test]
    fn add_days_is_invertible(d in arb_date(), k in -100_000i64..100_000) {
        prop_assert_eq!(d.add_days(k).add_days(-k), d);
    }

    #[test]
    fn weekday_advances_by_one(d in arb_date()) {
        let next = d.add_days(1);
        let w = d.weekday().number();
        let wn = next.weekday().number();
        prop_assert_eq!(wn, if w == 7 { 1 } else { w + 1 });
    }

    #[test]
    fn ordinal_matches_days_since_jan1(d in arb_date()) {
        let jan1 = Date::new(d.year(), 1, 1).unwrap();
        prop_assert_eq!(i64::from(d.ordinal()), d.days_since(jan1) + 1);
    }

    #[test]
    fn add_months_keeps_day_when_possible(d in arb_date(), k in -600i32..600) {
        let moved = d.add_months(k);
        if d.day() <= moved.days_in_month() {
            prop_assert_eq!(moved.day(), d.day());
        } else {
            prop_assert_eq!(moved.day(), moved.days_in_month());
        }
    }

    #[test]
    fn months_between_brackets_the_date(a in arb_date(), b in arb_date()) {
        let k = b.months_between(a);
        prop_assert!(a.add_months(k) <= b, "floor bound violated");
        prop_assert!(a.add_months(k + 1) > b, "tightness violated");
    }

    #[test]
    fn date_display_parse_round_trips(d in arb_date()) {
        prop_assert_eq!(Date::parse_iso(&d.to_string()).unwrap(), d);
    }

    #[test]
    fn datetime_second_number_round_trips(s in arb_second_number()) {
        let t = DateTime::from_second_number(s).unwrap();
        prop_assert_eq!(t.second_number(), s);
        let civil = DateTime::new(t.date(), t.hour(), t.minute(), t.second()).unwrap();
        prop_assert_eq!(civil, t);
    }

    #[test]
    fn datetime_order_is_the_field_wise_order(a in arb_second_number(), b in arb_second_number()) {
        let fields = |s| {
            let t = DateTime::from_second_number(s).unwrap();
            (t.date().year(), t.date().month(), t.date().day(), t.hour(), t.minute(), t.second())
        };
        let (ta, tb) = (DateTime::from_second_number(a).unwrap(), DateTime::from_second_number(b).unwrap());
        prop_assert_eq!(ta.cmp(&tb), fields(a).cmp(&fields(b)));
    }

    #[test]
    fn datetime_add_saturates_at_both_ends(s in arb_second_number(), delta in i64::MIN/2..i64::MAX/2) {
        let t = DateTime::from_second_number(s).unwrap();
        let expect = match DateTime::from_second_number(s.saturating_add(delta)) {
            Some(moved) => moved,
            None if delta < 0 => Date::MIN.at_midnight(),
            None => Date::MAX.at(23, 59, 59).unwrap(),
        };
        prop_assert_eq!(t + Duration::seconds(delta), expect);
    }

    #[test]
    fn datetime_display_parse_round_trips(s in -200_000_000_000i64..200_000_000_000) {
        let t = DateTime::from_second_number(s).unwrap();
        prop_assert_eq!(DateTime::parse_iso(&t.to_string()).unwrap(), t);
    }

    #[test]
    fn datetime_add_then_subtract(s in -1_000_000_000i64..1_000_000_000,
                                  delta in -10_000_000i64..10_000_000) {
        let t = DateTime::from_second_number(s).unwrap();
        let moved = t + Duration::seconds(delta);
        prop_assert_eq!(moved - t, Duration::seconds(delta));
    }

    #[test]
    fn duration_display_never_panics(secs in i64::MIN/2..i64::MAX/2) {
        let _ = Duration::seconds(secs).to_string();
    }
}
