//! CLI error paths of the `repro` binary: unknown flags and unusable
//! export destinations must exit 2 with a clear message *before* any
//! simulation runs — not an hour into a sweep.

use std::fs;
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

/// A scratch path under the temp dir, removed on drop.
struct TempPath(PathBuf);

impl TempPath {
    fn new(name: &str) -> TempPath {
        let mut path = std::env::temp_dir();
        path.push(format!("dbshare-cli-errors-{}-{name}", std::process::id()));
        let _ = fs::remove_file(&path);
        TempPath(path)
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.0);
    }
}

/// Export destinations that cannot be written (here: paths under a
/// plain file) fail fast with exit 2, before the run starts: the
/// `--trace`/`--timeline` directories and the `--explain`/`--json`
/// files alike.
#[test]
fn unwritable_export_dir_exits_2_before_running() {
    let blocker = TempPath::new("blocker");
    fs::write(&blocker.0, b"plain file, not a directory").expect("scratch file");
    // A writable run file for the runs whose --json is not under test,
    // so none of them writes the default one into the package.
    let run_file = TempPath::new("run.jsonl");
    let run_path = run_file.0.to_str().expect("utf-8 path");
    for (flag, failure) in [
        ("--trace", "cannot create directory"),
        ("--timeline", "cannot create directory"),
        ("--explain", "cannot write"),
        ("--json", "cannot write"),
    ] {
        let bad = blocker.0.join("sub");
        let bad = bad.to_str().expect("utf-8 path");
        let mut args = vec![flag, bad];
        if flag != "--json" {
            args.extend(["--json", run_path]);
        }
        let started = Instant::now();
        let output = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(&args)
            .output()
            .expect("spawn repro");
        assert_eq!(
            output.status.code(),
            Some(2),
            "{flag}: expected exit 2, got {:?}",
            output.status
        );
        assert!(
            output.stdout.is_empty(),
            "{flag}: a figure ran before the error"
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(flag) && stderr.contains(failure),
            "{flag}: stderr must name the flag and the failure, got: {stderr}"
        );
        // Fail-fast means validation, not a completed sweep: the
        // default figure set takes minutes, this must abort in
        // moments.
        assert!(
            started.elapsed().as_secs() < 30,
            "{flag}: validation did not fail fast"
        );
    }
}

/// Removed flags — `--cores` (the engine thread count), `--compare`
/// (the artifact delta table) and `--alloc-stats` (folded into
/// `--profile`) — are unknown flags like any other: exit 2 before a
/// single figure runs, the flag named in the error, and no longer
/// offered in the list of valid flags.
#[test]
fn unknown_flag_exits_2_before_running() {
    for args in [
        &["--cores", "2"][..],
        &["--compare", "x"],
        &["--alloc-stats"],
    ] {
        let flag = args[0];
        let output = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .arg("fig41")
            .output()
            .expect("spawn repro");
        assert_eq!(
            output.status.code(),
            Some(2),
            "{flag}: expected exit 2, got {:?}",
            output.status
        );
        assert!(
            output.stdout.is_empty(),
            "{flag}: a figure ran before the error"
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(&format!("unknown flag \"{flag}\"")),
            "stderr must name the unknown flag, got: {stderr}"
        );
        let (_, hints) = stderr
            .split_once("(try")
            .unwrap_or_else(|| panic!("stderr must list the valid flags, got: {stderr}"));
        assert!(
            hints.contains("--jobs") && !hints.contains(flag),
            "flag hints must not offer {flag}, got: {stderr}"
        );
    }
}
