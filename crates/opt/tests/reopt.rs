//! Continuous-reoptimization drill: the `click-morph` loop observed end
//! to end. A mid-trace traffic shift must produce exactly one kept swap
//! (no thrash, per-flow order preserved, every packet accounted for)
//! that lowers the loop's own objective on the shifted traffic; a hot
//! branch that flips every window must be held to the dwell bound; a
//! fault-injected recompile must roll back and freeze the loop in
//! cooldown.

use click_core::graph::RouterGraph;
use click_core::lang::read_config;
use click_elements::batch::PacketBatch;
use click_elements::engine::{self, Engine};
use click_elements::packet::Packet;
use click_elements::parallel::ParallelOpts;
use click_elements::steer::flow_key;
use click_opt::reopt::{
    demo_config, demo_graph, optimize_pipeline, DemoTrace, MorphDaemon, ReoptPolicy,
    SuppressReason, WindowOutcome, DEMO_BRANCHES, DEMO_FLOWS,
};

const WINDOW_PACKETS: usize = 460;

/// The shift drill's policy: a demanding improvement threshold so cold
/// round-robin jitter can never justify a swap — only the real shift
/// (which models a ~90% win) acts.
fn strict_policy() -> ReoptPolicy {
    ReoptPolicy {
        min_improvement: 0.2,
        ..ReoptPolicy::default()
    }
}

/// Drives `windows` demo windows through the daemon, window `w` with
/// hot branch `hot(w)`. Returns the outcomes.
fn drive_schedule(
    daemon: &mut MorphDaemon,
    trace: &mut DemoTrace,
    windows: usize,
    hot: impl Fn(usize) -> usize,
) -> Vec<WindowOutcome> {
    (0..windows)
        .map(|w| {
            let frames = trace.window(WINDOW_PACKETS, hot(w), DEMO_BRANCHES);
            daemon.step(&frames).expect("window steps cleanly")
        })
        .collect()
}

/// [`drive_schedule`] shifting the hot branch from 0 to the last at
/// `shift_at`.
fn drive(
    daemon: &mut MorphDaemon,
    trace: &mut DemoTrace,
    windows: usize,
    shift_at: usize,
) -> Vec<WindowOutcome> {
    drive_schedule(daemon, trace, windows, |w| {
        if w < shift_at {
            0
        } else {
            DEMO_BRANCHES - 1
        }
    })
}

/// A daemon over the demo artifact on the compiled engine (serial for
/// `shards <= 1`), under `policy`.
fn demo_daemon(shards: usize, policy: ReoptPolicy) -> MorphDaemon {
    let source = demo_graph(DEMO_BRANCHES).unwrap();
    let artifact = optimize_pipeline(&source).unwrap();
    let router = engine::open(&artifact, true, ParallelOpts::new(shards)).unwrap();
    MorphDaemon::new(router, source, artifact, policy)
}

/// Drains every device's TX queue.
fn drain_tx(target: &mut dyn Engine) -> Vec<Packet> {
    let mut tx = PacketBatch::new();
    target.drain_all_tx_into(&mut tx);
    tx.take_all()
}

/// Asserts sequence markers (last payload byte) appear in increasing
/// order for each selected packet stream. The marker wraps at 256, so
/// the check is on wrapping deltas: each consecutive pair must advance
/// by 1..128 (gaps are fine — a rolled-back window's packets may be
/// dropped — but going backwards is not).
fn assert_seq_order(label: &str, seqs: &[u8]) {
    assert!(!seqs.is_empty(), "{label} vanished");
    for pair in seqs.windows(2) {
        let delta = pair[1].wrapping_sub(pair[0]);
        assert!(
            (1..128).contains(&delta),
            "{label} reordered around {} -> {}",
            pair[0],
            pair[1]
        );
    }
}

/// Serial engine: a FIFO end to end, so each demo flow (source port)
/// stays ordered regardless of which branch its packets matched.
fn assert_per_flow_order(tx: &[Packet]) {
    for flow in 0..DEMO_FLOWS {
        let sport = 2000 + flow;
        let seqs: Vec<u8> = tx
            .iter()
            .filter(|p| flow_key(p.data()).map(|k| k.3) == Some(sport))
            .map(|p| p.data()[p.len() - 1])
            .collect();
        assert_seq_order(&format!("flow {flow}"), &seqs);
    }
}

/// Sharded engine: RSS steering orders traffic per 5-tuple (a demo
/// "flow" fans its packets out over per-branch destination ports, which
/// may steer to different shards). Check the hot sub-flows — dense
/// enough that the byte-wide marker's wrapping deltas stay under 128.
fn assert_per_subflow_order(tx: &[Packet], hot_branches: &[usize]) {
    for flow in 0..DEMO_FLOWS {
        let sport = 2000 + flow;
        for &branch in hot_branches {
            let dport = 3000 + branch as u16;
            let seqs: Vec<u8> = tx
                .iter()
                .filter(|p| flow_key(p.data()).is_some_and(|k| k.3 == sport && k.4 == dport))
                .map(|p| p.data()[p.len() - 1])
                .collect();
            assert_seq_order(&format!("flow {flow} -> b{branch}"), &seqs);
        }
    }
}

/// The reopt controller's objective, recomputed from outside it: a
/// first-match classifier tries its patterns in order, so a frame
/// matched by pattern `p` (0-based) costs `p + 1` tests. Summed over one
/// window of demo traffic with the last branch hot, for the classifier
/// of `graph`.
fn first_match_work_after_shift(graph: &RouterGraph) -> usize {
    let cls = graph.find("cls").expect("demo classifier");
    let rules = click_classifier::parse_rules("Classifier", graph.element(cls).config())
        .expect("demo patterns parse");
    DemoTrace::new()
        .window(WINDOW_PACKETS, DEMO_BRANCHES - 1, DEMO_BRANCHES)
        .iter()
        .map(|(_, p)| {
            1 + rules
                .iter()
                .position(|r| r.cond.eval(p.data()))
                .expect("the catch-all matches")
        })
        .sum()
}

/// The kept swap of the shift drill must pay by the loop's own measure:
/// less modeled first-match work on the shifted traffic for the graph
/// now installed than for the one it replaced.
fn assert_swap_lowered_the_objective(daemon: &MorphDaemon) {
    let before = first_match_work_after_shift(&demo_graph(DEMO_BRANCHES).unwrap());
    let after = first_match_work_after_shift(daemon.installed());
    assert!(
        after < before,
        "installed ordering costs {after} pattern tests on the shifted window, \
         the replaced one {before}"
    );
}

/// The thrash drill: the hot branch flips every window. Hysteresis must
/// hold installs to one per `dwell + 1` windows (well inside the run's
/// swap budget), visibly suppress at least one divergence, and lose no
/// packet while doing so.
fn alternating_hot_branch_cannot_thrash(shards: usize) {
    const WINDOWS: usize = 12;
    let policy = strict_policy();
    let mut daemon = demo_daemon(shards, policy);
    let drops_start = daemon.target().total_drops();
    let mut trace = DemoTrace::new();
    drive_schedule(&mut daemon, &mut trace, WINDOWS, |w| {
        if w.is_multiple_of(2) {
            0
        } else {
            DEMO_BRANCHES - 1
        }
    });

    let g = daemon.gauges();
    let installs = g.swaps_kept + g.rollbacks;
    assert!(installs >= 1, "the drill never diverged: {g:?}");
    assert!(g.swaps_kept <= policy.max_swaps, "{g:?}");
    assert!(
        installs <= WINDOWS as u64 / u64::from(policy.dwell_windows + 1),
        "installs outran the dwell bound: {g:?}"
    );
    assert!(g.thrash_suppressed >= 1, "nothing was suppressed: {g:?}");

    let mut router = daemon.into_target();
    let tx = drain_tx(&mut *router).len() as u64;
    let offered = (WINDOWS * WINDOW_PACKETS) as u64;
    assert_eq!(offered, tx + (router.total_drops() - drops_start));
}

/// The demo artifact with a deterministic all-drop `FaultInject` spliced
/// onto the push path right after ingress — a "recompile" that regresses
/// catastrophically.
fn faulty_artifact() -> RouterGraph {
    let cfg = demo_config(DEMO_BRANCHES).replace(
        "src -> cls;",
        "src -> flt :: FaultInject(DROP 1, SEED 3) -> cls;",
    );
    assert!(cfg.contains("FaultInject"), "splice point moved");
    optimize_pipeline(&read_config(&cfg).expect("faulty config parses"))
        .expect("faulty config optimizes")
}

/// One traffic shift → exactly one recompile and one kept swap, with
/// per-flow order and exact packet accounting, on the serial router.
#[test]
fn shift_yields_exactly_one_kept_swap_serial() {
    let mut daemon = demo_daemon(1, strict_policy());

    let mut trace = DemoTrace::new();
    let outcomes = drive(&mut daemon, &mut trace, 12, 6);

    // Pre-shift windows are stable; the shift schedules one
    // recompile; the next window keeps the swap; then stable again.
    for (w, o) in outcomes.iter().enumerate() {
        match w {
            6 => assert!(
                matches!(o, WindowOutcome::Scheduled { improvement } if *improvement > 0.5),
                "window 6: {o:?}"
            ),
            7 => assert!(
                matches!(o, WindowOutcome::SwapKept { .. }),
                "window 7: {o:?}"
            ),
            _ => assert!(matches!(o, WindowOutcome::Stable), "window {w}: {o:?}"),
        }
    }
    let g = daemon.gauges();
    assert_eq!(g.windows_observed, 12);
    assert_eq!(g.recompiles, 1);
    assert_eq!(g.swaps_kept, 1);
    assert_eq!(g.rollbacks, 0);
    assert_eq!(g.thrash_suppressed, 0);

    // The kept artifact now lists the shifted hot branch first.
    let installed = daemon.installed().clone();
    let cls = installed
        .element_ids()
        .find(|&id| installed.element(id).class() == "Classifier")
        .expect("classifier survives");
    let hot_pattern = format!("36/{:04x}", 3000 + DEMO_BRANCHES - 1);
    assert!(
        installed
            .element(cls)
            .config()
            .trim_start()
            .starts_with(&hot_pattern),
        "hot branch not hoisted: {}",
        installed.element(cls).config()
    );
    assert_swap_lowered_the_objective(&daemon);

    // Exact accounting and per-flow order across the swap.
    let mut router = daemon.into_target();
    let tx = drain_tx(&mut *router);
    assert_eq!(tx.len(), 12 * WINDOW_PACKETS, "every packet forwarded");
    assert_eq!(router.total_drops(), 0, "nothing dropped");
    assert_per_flow_order(&tx);
}

/// The same drill on the 4-shard runtime: the install is judged by
/// the canary and kept, accounting stays exact.
#[test]
fn shift_yields_exactly_one_kept_swap_sharded() {
    let mut daemon = demo_daemon(4, strict_policy());
    let drops_start = daemon.target().total_drops();

    let mut trace = DemoTrace::new();
    let outcomes = drive(&mut daemon, &mut trace, 12, 6);

    let kept: Vec<usize> = outcomes
        .iter()
        .enumerate()
        .filter(|(_, o)| matches!(o, WindowOutcome::SwapKept { .. }))
        .map(|(w, _)| w)
        .collect();
    assert_eq!(kept, vec![7], "exactly one kept swap, at window 7");
    let WindowOutcome::SwapKept { report, .. } = &outcomes[7] else {
        unreachable!()
    };
    assert!(!report.rolled_back);
    assert_eq!(report.swapped_shards, 4, "rollout reached every shard");

    let g = daemon.gauges();
    assert_eq!(g.recompiles, 1);
    assert_eq!(g.swaps_kept, 1);
    assert_eq!(g.rollbacks, 0);
    assert_swap_lowered_the_objective(&daemon);

    let mut router = daemon.into_target();
    let tx = drain_tx(&mut *router);
    let drops = router.total_drops() - drops_start;
    assert_eq!(
        tx.len() as u64 + drops,
        (12 * WINDOW_PACKETS) as u64,
        "exact accounting across the canary rollout"
    );
    assert_per_subflow_order(&tx, &[0, DEMO_BRANCHES - 1]);
}

#[test]
fn alternating_hot_branch_cannot_thrash_serial() {
    alternating_hot_branch_cannot_thrash(1);
}

#[test]
fn alternating_hot_branch_cannot_thrash_sharded() {
    alternating_hot_branch_cannot_thrash(4);
}

/// A regressed recompile (all-drop `FaultInject` spliced into the
/// candidate) is rolled back by the serial drop-rate probation; the
/// loop enters cooldown, then recovers with a clean swap once the
/// chaos hook is removed.
#[test]
fn faulty_recompile_rolls_back_then_recovers_serial() {
    let mut daemon = demo_daemon(1, strict_policy());
    let bad = faulty_artifact();
    daemon.mutate_candidate = Some(Box::new(move |g| *g = bad.clone()));

    let mut trace = DemoTrace::new();
    // Shift immediately: window 0 stable-ish baseline, window 1
    // diverges and schedules the (sabotaged) candidate.
    let outcomes = drive(&mut daemon, &mut trace, 3, 1);
    assert!(
        matches!(outcomes[1], WindowOutcome::Scheduled { .. }),
        "{outcomes:?}"
    );
    assert!(
        matches!(outcomes[2], WindowOutcome::SwapRolledBack { report: None }),
        "serial probation must roll the faulty install back: {:?}",
        outcomes[2]
    );
    let g = daemon.gauges();
    assert_eq!(g.rollbacks, 1);
    assert_eq!(g.swaps_kept, 0);

    // The probation window was forwarded through the faulty graph:
    // its packets died at the FaultInject, and the retired element's
    // drop counter must survive the rollback (monotonic gauge).
    assert_eq!(daemon.target().total_drops(), WINDOW_PACKETS as u64);

    // Divergence persists, but the cooldown (3 windows) freezes the
    // loop before it may recompile again.
    daemon.mutate_candidate = None;
    let after = drive(&mut daemon, &mut trace, 5, 0);
    for (i, o) in after.iter().take(3).enumerate() {
        assert!(
            matches!(o, WindowOutcome::Suppressed(SuppressReason::Cooldown)),
            "cooldown window {i}: {o:?}"
        );
    }
    assert!(
        matches!(after[3], WindowOutcome::Scheduled { .. }),
        "{after:?}"
    );
    assert!(
        matches!(after[4], WindowOutcome::SwapKept { .. }),
        "{after:?}"
    );
    let g = daemon.gauges();
    assert_eq!(g.rollbacks, 1);
    assert_eq!(g.swaps_kept, 1);
    assert_eq!(g.thrash_suppressed, 3);

    // Exact accounting: everything injected was transmitted except
    // the probation window the fault dropped.
    let mut router = daemon.into_target();
    let tx = drain_tx(&mut *router);
    let injected = 8 * WINDOW_PACKETS as u64;
    assert_eq!(tx.len() as u64 + router.total_drops(), injected);
    assert_per_flow_order(&tx);
}

/// The same sabotage on the sharded runtime: the canary shard judges
/// the faulty graph, rolls it back, and the loop cools down.
#[test]
fn faulty_recompile_is_canaried_out_sharded() {
    let mut daemon = demo_daemon(4, strict_policy());
    let drops_start = daemon.target().total_drops();
    let bad = faulty_artifact();
    daemon.mutate_candidate = Some(Box::new(move |g| *g = bad.clone()));

    let mut trace = DemoTrace::new();
    let outcomes = drive(&mut daemon, &mut trace, 3, 1);
    assert!(
        matches!(outcomes[1], WindowOutcome::Scheduled { .. }),
        "{outcomes:?}"
    );
    let WindowOutcome::SwapRolledBack {
        report: Some(report),
    } = &outcomes[2]
    else {
        panic!("canary must catch the faulty install: {:?}", outcomes[2]);
    };
    assert!(report.rolled_back);
    assert!(
        report.canary_drops > 0,
        "the canary saw the fault drop packets"
    );
    let g = daemon.gauges();
    assert_eq!(g.rollbacks, 1);
    assert_eq!(g.swaps_kept, 0);

    // Only the canary shard ran the faulty graph; its losses stay on
    // the monotonic gauge after the rollback retires the fault.
    let mut router = daemon.into_target();
    let drops = router.total_drops() - drops_start;
    assert!(drops > 0, "canary losses survive the rollback");
    let tx = drain_tx(&mut *router);
    assert_eq!(
        tx.len() as u64 + drops,
        3 * WINDOW_PACKETS as u64,
        "exact accounting across the canary rollback"
    );
    assert_per_subflow_order(&tx, &[0]);
}
