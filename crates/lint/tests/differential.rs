//! Differential tests pinning the AST migration.
//!
//! The flow upgrade bolted a parser and interprocedural pass onto the
//! token engine; these tests prove the bolt-on changed nothing it was
//! not supposed to: with flow off, the pipeline's findings are
//! byte-identical to plain `check_file` on every fixture and on the real
//! workspace.

use pastas_lint::rules::{check_file, CheckOptions};
use pastas_lint::workspace::{analyze_sources, check_workspace, find_workspace_root};
use std::fs;
use std::path::{Path, PathBuf};

fn fixtures() -> Vec<(String, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join("fixtures");
    let mut entries: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("fixture dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    entries.sort();
    entries
        .into_iter()
        .map(|p| {
            let source = fs::read_to_string(&p).expect("read fixture");
            let virtual_path = source
                .lines()
                .next()
                .and_then(|l| l.strip_prefix("// lint-fixture-path: "))
                .expect("fixture header")
                .trim()
                .to_owned();
            (virtual_path, source)
        })
        .collect()
}

#[test]
fn pipeline_without_flow_matches_check_file_on_every_fixture() {
    let fixtures = fixtures();
    assert!(fixtures.len() >= 14, "expected the full fixture corpus");
    for (virtual_path, source) in fixtures {
        let direct = check_file(&virtual_path, &source, CheckOptions::default());
        let piped = analyze_sources(
            &[(virtual_path.clone(), source, CheckOptions::default())],
            false,
        );
        assert_eq!(direct, piped, "token findings drifted for {virtual_path}");
    }
}

#[test]
fn pipeline_without_flow_matches_check_file_on_the_real_workspace() {
    let root = find_workspace_root(&std::env::current_dir().expect("cwd"))
        .expect("workspace root");
    let piped = check_workspace(&root, false);
    // Re-derive the same file set through check_file directly.
    let mut direct = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)
        .expect("crates dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for crate_dir in crate_dirs {
        let src_dir = crate_dir.join("src");
        let options =
            CheckOptions { crate_has_proptests: src_dir.join("proptests.rs").is_file() };
        let mut stack = vec![src_dir];
        let mut files = Vec::new();
        while let Some(dir) = stack.pop() {
            let Ok(entries) = fs::read_dir(&dir) else { continue };
            for entry in entries.flatten() {
                let path = entry.path();
                if path.is_dir() {
                    stack.push(path);
                } else if path.extension().is_some_and(|e| e == "rs") {
                    files.push(path);
                }
            }
        }
        files.sort();
        for file in files {
            let rel = file
                .strip_prefix(&root)
                .expect("under root")
                .to_string_lossy()
                .replace('\\', "/");
            let src = fs::read_to_string(&file).expect("read source");
            direct.extend(check_file(&rel, &src, options));
        }
    }
    direct.sort_by(|a, b| {
        (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule))
    });
    assert_eq!(direct, piped);
}
