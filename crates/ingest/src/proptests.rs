//! Robustness properties: the aggregation pipeline is total over arbitrary
//! byte soup, and its accounting always balances.

use crate::aggregate::{aggregate, SourceTexts};
use crate::csv::split_line;
use crate::json::{write_string, Json};
use proptest::prelude::*;

fn arb_text() -> impl Strategy<Value = String> {
    // Lines of printable junk mixed with plausible field separators.
    proptest::collection::vec("[ -~;|,\tæøå]{0,40}", 0..12)
        .prop_map(|lines| lines.join("\n"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Aggregation never panics on garbage and its report balances.
    #[test]
    fn aggregate_is_total_over_garbage(
        persons in arb_text(),
        claims in arb_text(),
        hospital in arb_text(),
        municipal in arb_text(),
        prescriptions in arb_text(),
    ) {
        let (collection, report) = aggregate(SourceTexts {
            persons: &persons,
            claims: &claims,
            hospital: &hospital,
            municipal: &municipal,
            prescriptions: &prescriptions,
        });
        // Accounting invariants.
        prop_assert!(report.parse_errors + report.unlinked_rows <= report.rows_read);
        prop_assert!(collection.stats().entries == report.entries_loaded);
        let y = report.yield_fraction();
        prop_assert!((0.0..=1.0).contains(&y) || report.rows_read == 0);
    }

    /// The CSV splitter is the left inverse of our own field quoting.
    #[test]
    fn csv_split_inverts_quoting(fields in proptest::collection::vec("[ -~]{0,12}", 1..6)) {
        let quoted: Vec<String> = fields
            .iter()
            .map(|f| {
                if f.contains(';') || f.contains('"') {
                    format!("\"{}\"", f.replace('"', "\"\""))
                } else {
                    f.clone()
                }
            })
            .collect();
        let line = quoted.join(";");
        let got = split_line(&line, ';');
        prop_assert_eq!(got, fields);
    }

    /// The JSON parser is total (never panics) over arbitrary input.
    #[test]
    fn json_parse_is_total(input in "\\PC{0,60}") {
        let _ = Json::parse(&input);
    }

    /// Parsed JSON documents re-parse from their own structure (sanity on
    /// simple generated objects).
    #[test]
    fn json_numbers_round_trip(n in -1.0e12f64..1.0e12) {
        let text = format!("{{\"v\": {n}}}");
        let v = Json::parse(&text).unwrap();
        let got = v.get("v").and_then(Json::as_f64).unwrap();
        prop_assert!((got - n).abs() <= n.abs() * 1e-12 + 1e-9);
    }

    /// Any string the escaper writes — quotes, backslashes, every control
    /// character, multi-byte scalars — parses back to itself.
    #[test]
    fn json_strings_round_trip_through_the_escaper(
        s in "[\u{0}-\u{1f} -~\u{7f}æ…中🦀]{0,40}",
    ) {
        let mut text = String::new();
        write_string(&mut text, &s);
        prop_assert_eq!(Json::parse(&text), Ok(Json::String(s)));
    }
}
