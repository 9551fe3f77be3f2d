//! `click-profile`: profile-guided configuration optimization.
//!
//! Reads a router configuration on stdin and a runtime profile (produced
//! by `click-report`) from `--profile`, hoists hot `Classifier` branches
//! first where provably semantics-preserving, rewires the downstream
//! connections to follow, and flags cold branches for `click-undead`.
//!
//! Usage: `click-profile --profile PROFILE.json < router.click`
//!
//! Composes with the static tool chain; profile first so element names
//! still match the profile, then optimize:
//!
//! ```text
//! click-profile --profile p.json < ip.click \
//!   | click-xform | click-fastclassifier | click-devirtualize
//! ```

use click_opt::profile::{apply_profile, Profile};
use click_opt::tool::{filter_args, run_tool};

const USAGE: &str = "click-profile --profile PROFILE.json < router.click";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (flags, positional) = filter_args(USAGE, &args, &["profile"], &[]);
    // The last `--profile` wins; the profile may be a bare positional
    // argument too.
    let path = flags
        .into_iter()
        .filter_map(|(_, v)| v)
        .next_back()
        .or_else(|| positional.first().cloned())
        .unwrap_or_else(|| {
            eprintln!("usage: {USAGE}");
            std::process::exit(2);
        });
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("click-profile: reading {path}: {e}");
        std::process::exit(1);
    });
    let profile = Profile::from_json(&text).unwrap_or_else(|e| {
        eprintln!("click-profile: {e}");
        std::process::exit(1);
    });
    run_tool("click-profile", |graph| {
        let report = apply_profile(graph, &profile)?;
        Ok(report.summary())
    });
}
