//! End-to-end checks on the built binary: the `--quick` smoke mode and the
//! contract file.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_click-spine");

/// `--suite --quick` runs every workload through the same code paths as a
/// full run in well under a minute, fails nothing, and marks its result
/// as not comparable.
#[test]
fn quick_suite_runs_every_workload_and_marks_itself_non_comparable() {
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("quick-{}.json", std::process::id()));
    let started = std::time::Instant::now();
    let run = Command::new(BIN)
        .args(["--suite", "--quick", "--out"])
        .arg(&out)
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(run.status.success(), "quick suite failed:\n{stdout}");
    assert!(
        started.elapsed().as_secs() < 60,
        "quick mode took {:?}",
        started.elapsed()
    );
    assert!(stdout.contains("not comparable"));
    let doc = std::fs::read_to_string(&out).expect("result file written");
    let _ = std::fs::remove_file(&out);
    assert!(doc.contains("\"comparable\": false"));
    let two_cpus = std::thread::available_parallelism().map_or(1, usize::from) >= 2;
    for workload in [
        "ip_base",
        "ip_all",
        "wire_all",
        "sharded_all",
        "tables",
        "reconfig",
        "toolchain",
    ] {
        let skipped = workload == "sharded_all" && !two_cpus;
        let line = stdout
            .lines()
            .find(|l| l.contains(workload))
            .unwrap_or_else(|| panic!("{workload} missing from:\n{stdout}"));
        assert!(skipped || line.ends_with("failed 0"), "{line}");
    }
}

/// `BENCHMARK.json` at the repository root is exactly what `--manifest`
/// prints, so metric names, units and bounds live in one place.
#[test]
fn benchmark_json_matches_the_manifest() {
    let printed = Command::new(BIN)
        .arg("--manifest")
        .output()
        .expect("binary runs");
    let committed = std::fs::read(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    assert_eq!(
        String::from_utf8_lossy(&printed.stdout),
        String::from_utf8_lossy(&committed)
    );
}

/// An unknown workload or option, a bad flag value or no mode at all is
/// an error (exit 2), never a result.
#[test]
fn bad_command_lines_exit_with_2_and_print_no_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "ip_all", "--trace", "7"],
        &["--workload", "ip_all", "--seconds", "0"],
        &["--workload", "ip_all", "--rounds", "5"],
        &[],
    ] {
        let run = Command::new(BIN).args(args).output().expect("binary runs");
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        assert!(run.stdout.is_empty(), "{args:?} printed a result");
    }
}
