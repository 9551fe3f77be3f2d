//! Checkpoint integration on the optimizer side: the v4 profile schema
//! (with back-compat for v≤3 documents), the reopt daemon cutting
//! checkpoints after kept swaps and at traffic intervals, warm restarts
//! resuming the *optimized* configuration, and the `click-pcap` crash
//! drill end to end as a real process.

use click_core::lang::{read_config, write_config};
use click_elements::engine;
use click_elements::parallel::ParallelOpts;
use click_elements::persist::{config_hash, CheckpointDaemon, CheckpointStore};
use click_opt::profile::{Profile, PROFILE_VERSION};
use click_opt::reopt::{
    demo_graph, optimize_pipeline, DemoTrace, MorphDaemon, ReoptPolicy, WindowOutcome,
    DEMO_BRANCHES,
};
use std::path::PathBuf;
use std::process::Command;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("click-ckpt-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::create_dir_all(&dir);
    dir
}

// ---------------------------------------------------------------------
// Profile schema
// ---------------------------------------------------------------------

#[test]
fn profile_v3_documents_still_parse() {
    // A pre-checkpoint document (as click-pcap emitted before the drill
    // existed) must keep parsing: version preserved, checkpoints absent.
    let v3 = r#"{
  "version": 3,
  "source": "ip-router-4",
  "shards": 1,
  "telemetry": true,
  "elements": [
    {"name": "c", "class": "Counter", "packets": 10, "self_ns": 100, "pulls": 0, "pushes": 10}
  ],
  "devices": []
}"#;
    let parsed = Profile::from_json(v3).expect("v3 JSON parses");
    assert_eq!(parsed.version, 3);
    assert_eq!(parsed.source, "ip-router-4");
    assert!(parsed.checkpoints.is_none());
    assert_eq!(parsed.elements.len(), 1);
}

#[test]
fn profile_v1_minimal_document_still_parses() {
    let v1 = r#"{"version": 1, "source": "old", "shards": 2, "telemetry": false, "elements": []}"#;
    let parsed = Profile::from_json(v1).expect("v1 JSON parses");
    assert_eq!(parsed.version, 1);
    assert_eq!(parsed.shards, 2);
    assert!(parsed.checkpoints.is_none());
}

// ---------------------------------------------------------------------
// Reopt daemon integration
// ---------------------------------------------------------------------

/// Interval checkpoints fire from the morph loop's traffic accounting —
/// no telemetry feature required — and a warm restart from one resumes
/// the *optimized* artifact, verified by the installed-config hash.
#[test]
fn morph_interval_checkpoint_restores_the_optimized_config() {
    let dir = scratch("morph-interval");
    let source = demo_graph(DEMO_BRANCHES).unwrap();
    let artifact = optimize_pipeline(&source).unwrap();
    let router = engine::open(&artifact, true, ParallelOpts::new(1)).unwrap();
    let mut daemon = MorphDaemon::new(router, source, artifact.clone(), ReoptPolicy::default());

    let store = CheckpointStore::open(&dir, 4).unwrap();
    // Interval below one window: every step cuts.
    daemon.attach_checkpoints(CheckpointDaemon::new(store, 100, String::new()));

    let mut trace = DemoTrace::new();
    for _ in 0..3 {
        let frames = trace.window(460, 0, DEMO_BRANCHES);
        daemon.step(&frames).expect("window steps cleanly");
    }
    let gauges = daemon
        .checkpoint_daemon()
        .expect("daemon attached")
        .gauges();
    assert_eq!(gauges.checkpoints_written, 3);
    assert_eq!(gauges.checkpoint_failures, 0);

    // "Crash" the morph loop and warm-restart from its newest cut.
    let mut ckpt_daemon = daemon.take_checkpoints().expect("daemon detachable");
    drop(daemon);
    let ckpt = ckpt_daemon.recover().expect("generation 3 recovers");
    assert_eq!(ckpt.ledger.injected, 3 * 460);

    // The checkpointed config is the installed *artifact*, not the
    // source: the restart resumes optimized.
    assert_eq!(
        config_hash(&ckpt.config),
        config_hash(&write_config(&artifact)),
        "checkpoint must carry the optimized artifact"
    );
    assert_eq!(config_hash(&ckpt.config), ckpt.config_hash);
    let (r2, stats) = engine::restore(&ckpt, true, ParallelOpts::new(1)).expect("warm restart");
    assert_eq!(stats.unmatched, 0, "artifact elements all match");
    assert_eq!(r2.total_drops(), ckpt.ledger.drops);
}

/// A kept swap cuts a checkpoint immediately, stamped with the
/// *newly installed* (hoisted) configuration — the acceptance gate
/// for "restart after a kept reopt swap resumes the optimized
/// config".
#[test]
fn kept_swap_cuts_a_checkpoint_carrying_the_new_artifact() {
    let dir = scratch("morph-swap");
    let source = demo_graph(DEMO_BRANCHES).unwrap();
    let artifact = optimize_pipeline(&source).unwrap();
    let router = engine::open(&artifact, true, ParallelOpts::new(1)).unwrap();
    let policy = ReoptPolicy {
        min_improvement: 0.2,
        ..ReoptPolicy::default()
    };
    let mut daemon = MorphDaemon::new(router, source, artifact, policy);
    let store = CheckpointStore::open(&dir, 8).unwrap();
    // Interval 0: only kept swaps cut checkpoints.
    daemon.attach_checkpoints(CheckpointDaemon::new(store, 0, String::new()));

    let mut trace = DemoTrace::new();
    let mut kept_at = None;
    for w in 0..10 {
        let hot = if w < 5 { 0 } else { DEMO_BRANCHES - 1 };
        let frames = trace.window(460, hot, DEMO_BRANCHES);
        if let WindowOutcome::SwapKept { .. } = daemon.step(&frames).unwrap() {
            kept_at = Some(w);
            break;
        }
    }
    assert!(
        kept_at.is_some(),
        "the traffic shift must produce a kept swap"
    );

    let gauges = daemon.checkpoint_daemon().unwrap().gauges();
    assert_eq!(
        gauges.checkpoints_written, 1,
        "exactly the post-swap checkpoint, nothing else"
    );

    // The cut carries the freshly-hoisted artifact (the optimized
    // graph now running), not the one the daemon started on.
    let installed = write_config(daemon.artifact());
    let mut ckpt_daemon = daemon.take_checkpoints().unwrap();
    let ckpt = ckpt_daemon.recover().expect("post-swap cut recovers");
    assert_eq!(
        config_hash(&ckpt.config),
        config_hash(&installed),
        "checkpoint config must hash to the installed (hoisted) artifact"
    );
    let parsed = read_config(&ckpt.config).expect("checkpointed config parses");
    let (r2, stats) = engine::restore(&ckpt, true, ParallelOpts::new(1)).unwrap();
    assert_eq!(stats.unmatched, 0);
    drop(parsed);
    drop(r2);
}

// ---------------------------------------------------------------------
// The click-pcap crash drill, end to end
// ---------------------------------------------------------------------

fn run_pcap(args: &[&str]) -> (String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_click-pcap"))
        .args(args)
        .output()
        .expect("click-pcap runs");
    (
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn crash_drill_restores_with_bounded_loss() {
    let dir = scratch("cli-drill");
    let trace = dir.join("t.pcap").to_string_lossy().into_owned();
    let ckpts = dir.join("ck").to_string_lossy().into_owned();
    let json = dir.join("p.json").to_string_lossy().into_owned();

    let (err, ok) = run_pcap(&["--gen", "1024", "--in", &trace]);
    assert!(ok, "{err}");

    // Incarnation 1: dies hard at frame 700, cuts every 128.
    let (err, ok) = run_pcap(&[
        "--in",
        &trace,
        "--ckpt-dir",
        &ckpts,
        "--ckpt-every",
        "128",
        "--crash-at",
        "700",
        "--check",
    ]);
    assert!(ok, "crash exit is clean: {err}");
    assert!(err.contains("dying hard after frame 700"), "{err}");

    // Incarnation 2: warm restart, resume at the crash point, exact
    // bounded ledger gated by --check, gauges exported to JSON.
    let (err, ok) = run_pcap(&[
        "--in",
        &trace,
        "--ckpt-dir",
        &ckpts,
        "--ckpt-every",
        "128",
        "--restore",
        "--resume-at",
        "700",
        "--check",
        "--json",
        &json,
    ]);
    assert!(ok, "restored drill passes --check: {err}");
    assert!(err.contains("restored generation"), "{err}");
    assert!(err.contains("-> exact"), "{err}");

    let profile = Profile::from_json(&std::fs::read_to_string(&json).unwrap()).unwrap();
    assert_eq!(profile.version, PROFILE_VERSION);
    let gauges = profile
        .checkpoints
        .expect("drill exports checkpoint gauges");
    assert_eq!(gauges.restores, 1);
    assert!(gauges.checkpoints_written >= 1);
    assert!(
        gauges.quiesce_ns_last > 0,
        "quiesce pause lands in the JSON"
    );
}

#[test]
fn crash_drill_without_restore_flag_cold_starts_with_warning() {
    let dir = scratch("cli-cold");
    let trace = dir.join("t.pcap").to_string_lossy().into_owned();
    let ckpts = dir.join("empty-ck").to_string_lossy().into_owned();

    let (err, ok) = run_pcap(&["--gen", "256", "--in", &trace]);
    assert!(ok, "{err}");
    // --restore over an empty store degrades to a counted cold start —
    // and the full-trace run closes with zero loss.
    let (err, ok) = run_pcap(&[
        "--in",
        &trace,
        "--ckpt-dir",
        &ckpts,
        "--ckpt-every",
        "64",
        "--restore",
        "--check",
    ]);
    assert!(ok, "{err}");
    assert!(err.contains("no valid checkpoint"), "{err}");
    assert!(err.contains("counted-loss 0"), "{err}");
}
