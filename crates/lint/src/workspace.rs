//! Workspace discovery and the whole-tree analysis pipeline.
//!
//! `--workspace` walks every `crates/*/src/**/*.rs` file (vendor stubs
//! and `target/` excluded), then runs the per-file pass — lex, token
//! rules, parse, flow summaries — in parallel via `pastas_par`. The
//! interprocedural pass
//! ([`flow::interprocedural`](crate::flow::interprocedural)) runs over
//! the merged summaries and its findings are filtered through the
//! per-file suppression records before being merged, in path order, with
//! the token-level findings.

use crate::flow::{self, FnSummary};
use crate::parse;
use crate::rules::{check_file_ctx, CheckOptions, FileContext, Finding, SuppressionRecord};
use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Walk up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Recursively collect `.rs` files under `dir`, sorted by path.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// One file's complete per-file analysis.
#[derive(Debug, Clone)]
pub struct FileAnalysis {
    /// Workspace-relative path.
    pub path: String,
    /// Post-suppression token-level findings.
    pub findings: Vec<Finding>,
    /// Reasoned suppressions (applied to flow findings later).
    pub supps: Vec<SuppressionRecord>,
    /// Flow summaries for the interprocedural pass.
    pub summaries: Vec<FnSummary>,
}

/// Lex, token-check, parse, and summarize one file.
pub fn analyze_source(path: &str, src: &str, options: CheckOptions) -> FileAnalysis {
    let ctx = FileContext::new(path, src, options);
    let findings = check_file_ctx(&ctx);
    let ast = parse::parse_file(&ctx);
    let summaries = flow::summarize(&ctx, &ast);
    FileAnalysis {
        path: path.to_owned(),
        findings,
        supps: ctx.suppression_records(),
        summaries,
    }
}

/// Merge per-file analyses: run the interprocedural pass (when `flow_on`),
/// filter its findings through each file's suppressions, and sort.
pub fn merge_analyses(analyses: Vec<FileAnalysis>, flow_on: bool) -> Vec<Finding> {
    let mut findings: Vec<Finding> = Vec::new();
    if flow_on {
        let supp_by_file: HashMap<&str, &[SuppressionRecord]> = analyses
            .iter()
            .map(|a| (a.path.as_str(), a.supps.as_slice()))
            .collect();
        let all: Vec<FnSummary> =
            analyses.iter().flat_map(|a| a.summaries.iter().cloned()).collect();
        for f in flow::interprocedural(&all) {
            let suppressed = supp_by_file
                .get(f.path.as_str())
                .is_some_and(|s| s.iter().any(|r| r.covers(f.rule, f.line)));
            if !suppressed {
                findings.push(f);
            }
        }
    }
    for a in &analyses {
        findings.extend(a.findings.iter().cloned());
    }
    findings.sort_by(|a, b| {
        (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule))
    });
    findings
}

/// Analyze a set of in-memory sources — the pure-function core of the
/// pipeline, used by the golden and differential tests.
pub fn analyze_sources(
    inputs: &[(String, String, CheckOptions)],
    flow_on: bool,
) -> Vec<Finding> {
    let analyses =
        pastas_par::par_map(inputs, |(path, src, options)| analyze_source(path, src, *options));
    merge_analyses(analyses, flow_on)
}

/// Check one file on disk. `root` is the workspace root used to derive
/// the path shown in diagnostics and the crate scoping.
pub fn check_path(root: &Path, file: &Path, options: CheckOptions) -> Vec<Finding> {
    let rel = file
        .strip_prefix(root)
        .unwrap_or(file)
        .to_string_lossy()
        .replace('\\', "/");
    // Lossy decoding keeps the tool total on any byte soup; Rust sources
    // are UTF-8 so real files round-trip exactly.
    let Ok(bytes) = fs::read(file) else {
        return vec![Finding {
            path: rel,
            line: 1,
            col: 1,
            rule: "suppression-needs-reason",
            message: "unreadable file".to_owned(),
        }];
    };
    let src = String::from_utf8_lossy(&bytes);
    crate::rules::check_file(&rel, &src, options)
}

fn workspace_inputs(root: &Path) -> Vec<(String, String, CheckOptions)> {
    let crates_dir = root.join("crates");
    let Ok(entries) = fs::read_dir(&crates_dir) else { return Vec::new() };
    let mut crate_dirs: Vec<PathBuf> =
        entries.flatten().map(|e| e.path()).filter(|p| p.is_dir()).collect();
    crate_dirs.sort();
    let mut inputs = Vec::new();
    for crate_dir in crate_dirs {
        let src_dir = crate_dir.join("src");
        let options =
            CheckOptions { crate_has_proptests: src_dir.join("proptests.rs").is_file() };
        let mut files = Vec::new();
        rust_files(&src_dir, &mut files);
        for file in files {
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            let Ok(bytes) = fs::read(&file) else { continue };
            inputs.push((rel, String::from_utf8_lossy(&bytes).into_owned(), options));
        }
    }
    inputs
}

/// Check every `crates/*/src/**/*.rs` under `root`; `flow_on` adds the
/// interprocedural rules (the differential tests turn them off to compare
/// token-level behaviour). Findings come back in path order, then line
/// order.
pub fn check_workspace(root: &Path, flow_on: bool) -> Vec<Finding> {
    analyze_sources(&workspace_inputs(root), flow_on)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_this_workspace_root() {
        let here = std::env::current_dir().expect("cwd");
        let root = find_workspace_root(&here).expect("workspace root");
        assert!(root.join("crates").is_dir());
        assert!(root.join("Cargo.toml").is_file());
    }

    #[test]
    fn workspace_walk_sees_many_files() {
        let here = std::env::current_dir().expect("cwd");
        let root = find_workspace_root(&here).expect("workspace root");
        let mut files = Vec::new();
        rust_files(&root.join("crates"), &mut files);
        assert!(files.len() > 50, "found {} files", files.len());
        assert!(files.windows(2).all(|w| w[0] <= w[1]), "sorted walk");
    }

    #[test]
    fn analyze_sources_flow_toggle() {
        let src = "fn f(a: &Q, b: &Q) { let g = a.m.lock(); b.n.lock(); drop(g); }\n\
                   fn g(a: &Q, b: &Q) { let g = b.n.lock(); a.m.lock(); drop(g); }\n";
        let inputs =
            vec![("crates/core/src/t.rs".to_owned(), src.to_owned(), CheckOptions::default())];
        let with_flow = analyze_sources(&inputs, true);
        let without = analyze_sources(&inputs, false);
        assert!(with_flow.iter().any(|f| f.rule == "lock-order-cycle"));
        assert!(!without.iter().any(|f| f.rule == "lock-order-cycle"));
    }

    #[test]
    fn flow_findings_respect_suppressions() {
        let src = "fn f(a: &Q, b: &Q) {\n\
                   let g = a.m.lock();\n\
                   // lint:allow(lock-order-cycle) fixture: order is documented\n\
                   b.n.lock();\n\
                   drop(g);\n\
                   }\n\
                   fn g(a: &Q, b: &Q) {\n\
                   let g = b.n.lock();\n\
                   // lint:allow(lock-order-cycle) fixture: order is documented\n\
                   a.m.lock();\n\
                   drop(g);\n\
                   }\n";
        let inputs =
            vec![("crates/core/src/t.rs".to_owned(), src.to_owned(), CheckOptions::default())];
        let findings = analyze_sources(&inputs, true);
        assert!(
            !findings.iter().any(|f| f.rule == "lock-order-cycle"),
            "{findings:?}"
        );
    }
}
