//! Build script embedding run provenance into the `repro` binary.
//!
//! Captures the git revision, the compiler version, and the build
//! profile at compile time so every store row `repro` writes records
//! exactly which build produced it. Everything degrades to `"unknown"` when
//! the information is unavailable (e.g. a source tarball without
//! `.git`), so the build never fails on provenance.

use std::path::Path;
use std::process::Command;

fn capture(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let text = text.trim();
    if text.is_empty() {
        None
    } else {
        Some(text.to_string())
    }
}

fn main() {
    let git_rev = capture("git", &["rev-parse", "HEAD"]).map_or_else(
        || "unknown".to_string(),
        |rev| {
            let dirty = capture("git", &["status", "--porcelain"]).is_some_and(|s| !s.is_empty());
            if dirty {
                format!("{rev}-dirty")
            } else {
                rev
            }
        },
    );
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let rustc_version = capture(&rustc, &["-V"]).unwrap_or_else(|| "unknown".to_string());
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".to_string());

    println!("cargo:rustc-env=REPRO_GIT_REVISION={git_rev}");
    println!("cargo:rustc-env=REPRO_RUSTC_VERSION={rustc_version}");
    println!("cargo:rustc-env=REPRO_BUILD_PROFILE={profile}");
    // Re-run when HEAD moves so the embedded revision tracks commits. A
    // commit on a branch moves the branch's ref, not HEAD, so also watch
    // the ref HEAD names and `packed-refs`, where `git pack-refs` moves
    // it. Cargo re-runs the script on every build while a watched file is
    // missing: `packed-refs` is watched only once it exists, and a tree
    // without `.git`, whose revision stays "unknown", watches this script.
    if !Path::new("../../.git").exists() {
        println!("cargo:rerun-if-changed=build.rs");
        return;
    }
    println!("cargo:rerun-if-changed=../../.git/HEAD");
    if let Ok(head) = std::fs::read_to_string("../../.git/HEAD") {
        if let Some(reference) = head.trim().strip_prefix("ref: ") {
            println!("cargo:rerun-if-changed=../../.git/{reference}");
            if Path::new("../../.git/packed-refs").exists() {
                println!("cargo:rerun-if-changed=../../.git/packed-refs");
            }
        }
    }
}
