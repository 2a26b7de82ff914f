//! Workspace discovery and the whole-tree pass.
//!
//! `--workspace` walks every `crates/*/src/**/*.rs` file (vendor stubs
//! and `target/` excluded), checks each in parallel via `pastas_par`, and
//! returns the findings in path order, then line order.

use crate::rules::{check_file, Finding};
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

/// Check a set of in-memory `(path, source)` pairs in parallel — the
/// pure-function core of the workspace pass. Findings come back sorted
/// by path, line, column and rule.
pub fn analyze_sources(inputs: &[(String, String)]) -> Vec<Finding> {
    let per_file = pastas_par::par_map(inputs, |(path, src)| check_file(path, src));
    let mut findings: Vec<Finding> = per_file.into_iter().flatten().collect();
    findings.sort_by(|a, b| {
        (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule))
    });
    findings
}

/// `file` relative to `root` with forward slashes: the path diagnostics
/// show and crate scoping reads.
fn relative(root: &Path, file: &Path) -> String {
    file.strip_prefix(root).unwrap_or(file).to_string_lossy().replace('\\', "/")
}

/// Check one file on disk. `root` is the workspace root used to derive
/// the path shown in diagnostics and the crate scoping.
pub fn check_path(root: &Path, file: &Path) -> Vec<Finding> {
    let rel = relative(root, file);
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
    check_file(&rel, &String::from_utf8_lossy(&bytes))
}

fn workspace_inputs(root: &Path) -> Vec<(String, String)> {
    let crates_dir = root.join("crates");
    let Ok(entries) = fs::read_dir(&crates_dir) else { return Vec::new() };
    let mut crate_dirs: Vec<PathBuf> =
        entries.flatten().map(|e| e.path()).filter(|p| p.is_dir()).collect();
    crate_dirs.sort();
    let mut inputs = Vec::new();
    for crate_dir in crate_dirs {
        let mut files = Vec::new();
        rust_files(&crate_dir.join("src"), &mut files);
        for file in files {
            let Ok(bytes) = fs::read(&file) else { continue };
            inputs.push((relative(root, &file), String::from_utf8_lossy(&bytes).into_owned()));
        }
    }
    inputs
}

/// Check every `crates/*/src/**/*.rs` under `root`.
pub fn check_workspace(root: &Path) -> Vec<Finding> {
    analyze_sources(&workspace_inputs(root))
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
}
