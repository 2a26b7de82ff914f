//! Fuzz-style properties for the HTTP parser. The contract under test:
//! **any** byte stream, delivered in **any** fragmentation, produces
//! either well-formed [`Request`]s or a typed [`HttpError`] — never a
//! panic, never an unbounded read.

use crate::http::{HttpError, Limits, Request, RequestReader};
use proptest::prelude::*;
use std::io::{self, Read};

/// Delivers `data` in caller-chosen fragment sizes (then EOF) — models a
/// peer whose TCP segments split anywhere, including mid-header.
struct Fragmented {
    data: Vec<u8>,
    sizes: Vec<usize>,
    pos: usize,
    turn: usize,
}

impl Read for Fragmented {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if self.pos >= self.data.len() || out.is_empty() {
            return Ok(0);
        }
        let want = self.sizes[self.turn % self.sizes.len()].max(1);
        self.turn += 1;
        let n = want.min(out.len()).min(self.data.len() - self.pos);
        out[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Drain a byte stream through the parser: requests until close or the
/// first error. Totality is the property — reaching the end *is* the test.
fn drain(bytes: Vec<u8>, sizes: Vec<usize>, limits: Limits) -> Vec<Result<Request, HttpError>> {
    let reader = Fragmented { data: bytes, sizes, pos: 0, turn: 0 };
    let mut reader = RequestReader::new(reader, limits);
    let mut out = Vec::new();
    loop {
        match reader.next_request() {
            Err(HttpError::ConnectionClosed) => break,
            result => {
                let stop = result.is_err();
                out.push(result);
                if stop {
                    break;
                }
            }
        }
    }
    out
}

/// Tight budgets so the generators actually reach them.
fn small_limits() -> Limits {
    Limits { max_head_bytes: 256, max_body_bytes: 128, max_headers: 8 }
}

/// Plausible-but-mutated request text: mostly valid pieces with junk mixed
/// in, which exercises far deeper parser states than uniform noise.
fn arb_requestish() -> impl Strategy<Value = Vec<u8>> {
    let method = prop_oneof![
        Just("GET".to_owned()),
        Just("POST".to_owned()),
        Just("get".to_owned()),
        Just("".to_owned()),
        "[A-Z%~]{1,6}".boxed(),
    ];
    let target = prop_oneof![
        Just("/select".to_owned()),
        Just("/cohort.svg?w=900&h=%zz".to_owned()),
        Just("no-slash".to_owned()),
        "[ -~]{0,20}".boxed().prop_map(|s| format!("/{s}")),
    ];
    let version = prop_oneof![
        Just("HTTP/1.1".to_owned()),
        Just("HTTP/1.0".to_owned()),
        Just("HTTP/2".to_owned()),
        Just("HTTP/1.1 junk".to_owned()),
        Just("".to_owned()),
    ];
    let headers = proptest::collection::vec(
        prop_oneof![
            Just("Host: x".to_owned()),
            Just("Connection: close".to_owned()),
            Just("Content-Length: 5".to_owned()),
            Just("Content-Length: nope".to_owned()),
            Just("Content-Length: 999999".to_owned()),
            Just("Transfer-Encoding: chunked".to_owned()),
            Just("no-colon-here".to_owned()),
            Just(": empty-name".to_owned()),
            "[ -~]{0,30}".boxed(),
        ],
        0..10,
    );
    let body = "[ -~]{0,40}".boxed();
    (method, target, version, headers, body).prop_map(|(m, t, v, hs, b)| {
        let mut text = format!("{m} {t} {v}\r\n");
        for h in hs {
            text.push_str(&h);
            text.push_str("\r\n");
        }
        text.push_str("\r\n");
        text.push_str(&b);
        text.into_bytes()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Uniform byte soup never panics the parser, under any fragmentation.
    #[test]
    fn parser_is_total_over_byte_soup(
        bytes in proptest::collection::vec(proptest::strategy::any::<u8>(), 0..400),
        sizes in proptest::collection::vec(1usize..17, 1..5),
    ) {
        let results = drain(bytes, sizes, small_limits());
        // At most one error, and only as the final element.
        for (i, r) in results.iter().enumerate() {
            prop_assert!(r.is_ok() || i == results.len() - 1);
        }
    }

    /// Mutated near-valid requests never panic and classify as parse or
    /// typed error, under any fragmentation.
    #[test]
    fn parser_is_total_over_requestish_input(
        bytes in arb_requestish(),
        sizes in proptest::collection::vec(1usize..33, 1..5),
    ) {
        let _ = drain(bytes, sizes, Limits::default());
    }

    /// Fragmentation never changes the outcome: byte-at-a-time parses
    /// exactly like one contiguous buffer.
    #[test]
    fn fragmentation_is_invisible(bytes in arb_requestish()) {
        let whole = drain(bytes.clone(), vec![usize::MAX >> 1], Limits::default());
        let trickled = drain(bytes, vec![1], Limits::default());
        prop_assert_eq!(whole, trickled);
    }

    /// Every proper prefix of a valid request is `Truncated` (or parses a
    /// complete earlier request) — never a panic, never a bogus success.
    #[test]
    fn truncation_yields_typed_errors(cut in 0usize..64) {
        let full: &[u8] = b"POST /select HTTP/1.1\r\nContent-Length: 8\r\n\r\nhas(T90)";
        let cut = cut.min(full.len() - 1);
        let results = drain(full[..cut].to_vec(), vec![3], Limits::default());
        match results.last() {
            None => prop_assert!(cut == 0),
            Some(Err(e)) => prop_assert_eq!(e, &HttpError::Truncated),
            Some(Ok(_)) => prop_assert!(false, "prefix of length {} parsed", cut),
        }
    }

    /// Oversized declared bodies are rejected by type without buffering.
    #[test]
    fn declared_body_budget_is_enforced(extra in 1u64..1_000_000) {
        let limits = small_limits();
        let declared = limits.max_body_bytes as u64 + extra;
        let head = format!("POST / HTTP/1.1\r\nContent-Length: {declared}\r\n\r\n");
        let results = drain(head.into_bytes(), vec![7], limits);
        prop_assert_eq!(results.last(), Some(&Err(HttpError::BodyTooLarge)));
    }
}
