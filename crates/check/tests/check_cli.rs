//! End-to-end behavior of the `treelocal-check` binary on certificate
//! files: a file that is not UTF-8 is a located `FAIL` line and counts as
//! a rejection (exit 1), a directory run keeps checking the files after
//! it, and usage errors still exit 2.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn exe() -> &'static str {
    env!("CARGO_BIN_EXE_treelocal-check")
}

fn golden(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../bench/tests/golden/quick_certs").join(name)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("check-cli-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A golden certificate with byte 30 (inside the `instance` line)
/// overwritten by `0xFF`, which no UTF-8 text contains; and a valid one
/// that sorts after it.
fn corrupted_dir(tag: &str) -> (PathBuf, PathBuf) {
    let dir = scratch(tag);
    let mut bytes = std::fs::read(golden("bmatching-greedy-caterpillar.cert")).unwrap();
    bytes[30] = 0xFF;
    let bad = dir.join("bmatching-greedy-caterpillar.cert");
    std::fs::write(&bad, bytes).unwrap();
    std::fs::copy(golden("mis-greedy-tree.cert"), dir.join("mis-greedy-tree.cert")).unwrap();
    (dir, bad)
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn non_utf8_file_is_a_located_rejection() {
    let (_, bad) = corrupted_dir("file");
    let out = Command::new(exe()).arg(&bad).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    let text = stdout(&out);
    assert!(text.starts_with("FAIL "), "{text}");
    assert!(text.contains("line 2: invalid UTF-8 at byte 30"), "{text}");
}

#[test]
fn directory_run_checks_every_file_past_a_non_utf8_one() {
    let (dir, _) = corrupted_dir("dir");
    let out = Command::new(exe()).arg(&dir).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let text = stdout(&out);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "{text}");
    assert!(lines[0].starts_with("FAIL ") && lines[0].contains("bmatching"), "{text}");
    assert!(lines[1].starts_with("OK ") && lines[1].contains("mis-greedy-tree"), "{text}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("1 of 2 certificates rejected"));
}

#[test]
fn valid_files_pass_and_usage_errors_exit_2() {
    let out = Command::new(exe()).arg(golden("mis-greedy-tree.cert")).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    let missing = scratch("missing").join("absent.cert");
    let out = Command::new(exe()).arg(&missing).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
    let out = Command::new(exe()).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}
