//! The `pastas-lint` binary.
//!
//! ```text
//! pastas-lint --workspace              # lint every crates/*/src/**/*.rs
//! pastas-lint path/to/file.rs …        # lint specific files
//! pastas-lint --list-rules
//! ```
//!
//! Findings print as `file:line:col: [rule] message`, one a line.
//!
//! Exit status: 0 = clean, 1 = findings, 2 = usage or I/O error.

#![forbid(unsafe_code)]

use pastas_lint::rules::RULES;
use pastas_lint::workspace::{check_path, check_workspace, find_workspace_root};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workspace: bool,
    list_rules: bool,
    files: Vec<PathBuf>,
}

const USAGE: &str = "usage: pastas-lint [--workspace | FILE…] [--list-rules]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workspace: false, list_rules: false, files: Vec::new() };
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--workspace" => args.workspace = true,
            "--list-rules" => args.list_rules = true,
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other if other.starts_with("--") => {
                return Err(format!("unknown flag {other:?} (try --help)"));
            }
            file => args.files.push(PathBuf::from(file)),
        }
    }
    if !args.workspace && !args.list_rules && args.files.is_empty() {
        return Err("nothing to lint: pass --workspace or file paths (try --help)".to_owned());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("pastas-lint: {message}");
            return ExitCode::from(2);
        }
    };
    if args.list_rules {
        for (id, what) in RULES {
            println!("{id:36} {what}");
        }
        return ExitCode::SUCCESS;
    }

    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let findings = if args.workspace {
        let Some(root) = find_workspace_root(&cwd) else {
            eprintln!("pastas-lint: no [workspace] Cargo.toml above {}", cwd.display());
            return ExitCode::from(2);
        };
        check_workspace(&root)
    } else {
        let root = find_workspace_root(&cwd).unwrap_or_else(|| cwd.clone());
        let mut all = Vec::new();
        for file in &args.files {
            if !file.is_file() {
                eprintln!("pastas-lint: no such file {}", file.display());
                return ExitCode::from(2);
            }
            all.extend(check_path(&root, file));
        }
        all
    };

    for f in &findings {
        println!("{}", f.render());
    }
    if findings.is_empty() {
        eprintln!("pastas-lint: clean");
        ExitCode::SUCCESS
    } else {
        eprintln!("pastas-lint: {} finding(s)", findings.len());
        ExitCode::from(1)
    }
}
