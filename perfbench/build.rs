//! Records the build envelope: git revision when the checkout has one,
//! a digest of the sources the benchmark builds, the compiler version and
//! the profile.

use std::path::{Path, PathBuf};
use std::process::Command;

fn files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return;
    };
    for e in rd.flatten() {
        let p = e.path();
        if p.is_dir() {
            files(&p, out);
        } else if matches!(p.extension().and_then(|x| x.to_str()), Some("rs" | "toml")) {
            out.push(p);
        }
    }
}

fn main() {
    let manifest = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let repo = manifest
        .parent()
        .expect("benchmark sits inside the repository")
        .to_path_buf();
    let roots = [
        repo.join("crates"),
        repo.join("shims"),
        manifest.join("src"),
    ];
    let mut all = vec![repo.join("Cargo.toml"), manifest.join("Cargo.toml")];
    for r in &roots {
        println!("cargo:rerun-if-changed={}", r.display());
        files(r, &mut all);
    }
    all.sort();
    // FNV-1a over relative path and contents of every source file.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in &all {
        let rel = p
            .strip_prefix(&repo)
            .unwrap_or(p)
            .to_string_lossy()
            .into_owned();
        let body = std::fs::read(p).unwrap_or_default();
        for b in rel.bytes().chain(body) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    println!("cargo:rustc-env=PERFBENCH_SOURCE_DIGEST={h:016x}");

    let git_rev = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(&repo)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unavailable".to_owned());
    // HEAD names a branch, and a commit moves the branch, not HEAD: watch
    // the branch's ref and the packed refs as well.
    let git = repo.join(".git");
    let mut watched = vec![git.join("HEAD"), git.join("packed-refs")];
    if let Ok(head) = std::fs::read_to_string(git.join("HEAD")) {
        if let Some(branch) = head.trim().strip_prefix("ref: ") {
            watched.push(git.join(branch));
        }
    }
    for p in watched.iter().filter(|p| p.exists()) {
        println!("cargo:rerun-if-changed={}", p.display());
    }
    println!("cargo:rustc-env=PERFBENCH_GIT_REV={git_rev}");

    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!(
        "cargo:rustc-env=PERFBENCH_PROFILE={}",
        std::env::var("PROFILE").unwrap_or_default()
    );
}
