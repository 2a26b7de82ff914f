//! End-to-end checks of the `pastas-lint` binary: exit codes, diagnostic
//! positions — and the acceptance property that this workspace itself
//! lints clean, which makes `cargo test` a lint gate in its own right.

use std::process::Command;

fn lint() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pastas-lint"))
}

#[test]
fn the_workspace_itself_is_lint_clean() {
    let out = lint().arg("--workspace").output().expect("run pastas-lint");
    assert!(
        out.status.success(),
        "the workspace has lint findings:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn list_rules_names_every_rule() {
    let out = lint().arg("--list-rules").output().expect("run pastas-lint");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for rule in [
        "no-panic-hot-path",
        "no-silent-truncation",
        "budget-enforced-alloc",
        "no-unwrap-on-lock",
        "suppression-needs-reason",
    ] {
        assert!(text.contains(rule), "--list-rules is missing {rule}:\n{text}");
    }
    assert_eq!(text.lines().count(), 5, "exactly the five kept rules:\n{text}");
}

#[test]
fn findings_exit_nonzero_with_exact_positions() {
    // A throwaway mini-workspace so crate scoping (`crates/serve/…`)
    // resolves exactly as it would in the real tree.
    let dir = std::env::temp_dir().join(format!("pastas-lint-cli-{}", std::process::id()));
    let src_dir = dir.join("crates").join("serve").join("src");
    std::fs::create_dir_all(&src_dir).expect("mkdir mini-workspace");
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\nmembers = []\n").expect("manifest");
    let bad = "pub fn f(v: &[u32]) -> u32 {\n    *v.first().unwrap()\n}\n";
    std::fs::write(src_dir.join("bad.rs"), bad).expect("write bad.rs");

    let out = lint()
        .current_dir(&dir)
        .arg("crates/serve/src/bad.rs")
        .output()
        .expect("run pastas-lint");
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout: {text}");
    assert!(
        text.contains("crates/serve/src/bad.rs:2:16: [no-panic-hot-path]"),
        "wrong position or rule in: {text}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn usage_errors_exit_two() {
    let out = lint().output().expect("run pastas-lint with no args");
    assert_eq!(out.status.code(), Some(2));
    for flag in ["--no-such-flag", "--no-flow"] {
        let out = lint().args(["--workspace", flag]).output().expect("run pastas-lint");
        assert_eq!(out.status.code(), Some(2), "{flag}");
    }
}
