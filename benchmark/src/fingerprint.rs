//! Where and on what a result was measured: carried by every result file
//! so two files can be told apart before their numbers are compared.

use crate::json::Json;
use std::process::Command;

fn first_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    Some(
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()?
            .trim()
            .to_string(),
    )
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// Seed, git revision, CPU count and model, kernel, compiler. Anything
/// that cannot be found out (a checkout that is not a git repository)
/// reads `"unknown"`.
pub fn fingerprint(seed: u64) -> Json {
    let unknown = || "unknown".to_string();
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| unknown());
    Json::obj([
        ("seed", Json::Num(seed as f64)),
        (
            "git_rev",
            Json::Str(first_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        ),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, usize::from) as f64),
        ),
        ("cpu_model", Json::Str(cpu_model().unwrap_or_else(unknown))),
        ("kernel", Json::Str(kernel)),
        (
            "rustc",
            Json::Str(first_line("rustc", &["--version"]).unwrap_or_else(unknown)),
        ),
    ])
}
