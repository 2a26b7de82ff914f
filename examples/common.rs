//! Command-line helpers shared by the examples. Not an example itself:
//! each example includes it with `#[path = "common.rs"] mod common;`.
#![allow(dead_code)] // no example uses every helper

/// The value after `name`, if the flag was given one.
pub fn arg_str(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == name).and_then(|at| args.get(at + 1)).cloned()
}

/// `name <integer>`, or `default` when the flag is absent. A value that
/// is missing or does not parse prints the usage and exits with status 2
/// instead of silently running the default.
pub fn arg(name: &str, default: u64) -> u64 {
    if !flag(name) {
        return default;
    }
    let value = arg_str(name).unwrap_or_default();
    value.parse().unwrap_or_else(|_| {
        let program = std::env::args().next().unwrap_or_default();
        eprintln!("{name} takes a non-negative integer, got {value:?}");
        eprintln!("usage: {program} [{name} <integer>]   (default {default})");
        std::process::exit(2)
    })
}

/// True when the bare flag `name` was given.
pub fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// `part` as a percentage of `whole`; 0 of 0 is 0%, not NaN.
pub fn percent(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}
