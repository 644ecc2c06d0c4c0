//! Stamps the host-independent half of the benchmark's fingerprint into the
//! binary: the compiler version, the build profile and the git commit (or
//! `none` when the source is not a git checkout).

use std::path::PathBuf;
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let rustc_version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let profile = format!(
        "{} opt-level={}",
        std::env::var("PROFILE").unwrap_or_default(),
        std::env::var("OPT_LEVEL").unwrap_or_default()
    );
    let manifest = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let root = manifest.parent().expect("the benchmark lives inside the repository").to_path_buf();
    // The ceiling keeps git from reporting an enclosing repository's commit
    // when the source is a plain copy.
    let commit = Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(&root)
        .env("GIT_CEILING_DIRECTORIES", root.parent().unwrap_or(&root))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "none".into());

    println!("cargo:rerun-if-changed=build.rs");
    for git in [".git/HEAD", ".git/refs", ".git/packed-refs"] {
        if root.join(git).exists() {
            println!("cargo:rerun-if-changed={}", root.join(git).display());
        }
    }
    println!("cargo:rustc-env=FLEETBENCH_RUSTC={rustc_version}");
    println!("cargo:rustc-env=FLEETBENCH_PROFILE={profile}");
    println!("cargo:rustc-env=FLEETBENCH_COMMIT={commit}");
}
