//! `click-morph`: the continuous-reoptimization daemon, closing the
//! profile → re-optimize → canary-swap loop against a live router.
//!
//! Usage:
//!
//! ```text
//! click-morph [--shards K] [--branches N] [--windows W]
//!             [--window-packets P] [--shift-at W'] [--alternate]
//!             [--dwell D] [--cooldown C] [--min-improvement F]
//!             [--max-swaps M] [--source LABEL] [--out FILE]
//! ```
//!
//! The tool runs the demo workload from [`click_opt::reopt`]: a
//! classifier fanning out on the UDP destination port, compiled through
//! the paper's optimizer pipeline and driven window by window. The
//! traffic starts with branch 0 hot; at `--shift-at` (default half the
//! windows) the hot branch jumps to the last one, so the installed
//! hottest-first ordering is suddenly pessimal. The daemon notices the
//! divergence from its telemetry window, recompiles (profile hoisting +
//! fastclassifier + devirtualize) in the background, and installs the
//! result through hot swap — judged by the sharded runtime's canary
//! (`--shards > 1`) or a serial drop-rate probation — rolling back
//! automatically on regression. `--alternate` flips the hot branch
//! every window instead, demonstrating that dwell/cooldown hysteresis
//! keeps an oscillating workload from thrashing the swap path.
//!
//! The exported profile JSON carries the always-live
//! [`click_elements::telemetry::ReoptGauges`] in its `"reopt"` section
//! (windows observed, recompiles, swaps kept, rollbacks, thrash
//! suppressed) — the CI `reopt-drill` job greps them.

use click_elements::batch::PacketBatch;
use click_elements::engine;
use click_elements::parallel::ParallelOpts;
use click_elements::telemetry::summary;
use click_opt::profile::Profile;
use click_opt::reopt::{
    demo_graph, optimize_pipeline, DemoTrace, MorphDaemon, ReoptPolicy, WindowOutcome,
    DEMO_BRANCHES, DEMO_FLOWS,
};
use click_opt::tool::{filter_args, number, refuse};

const USAGE: &str = "click-morph [--shards K] [--branches N] [--windows W] \
    [--window-packets P] [--shift-at W'] [--alternate] [--dwell D] \
    [--cooldown C] [--min-improvement F] [--max-swaps M] [--source LABEL] \
    [--out FILE]";

/// One run's accounting, for the stderr summary and exit checks.
struct RunSummary {
    injected: u64,
    tx: u64,
    drops: u64,
    profile: Profile,
}

#[allow(clippy::too_many_arguments)]
fn drive(
    mut daemon: MorphDaemon,
    trace: &mut DemoTrace,
    windows: usize,
    window_packets: usize,
    shift_at: usize,
    alternate: bool,
    branches: usize,
    shards: usize,
    label: &str,
) -> RunSummary {
    let drops_start = daemon.target().total_drops();
    let mut injected = 0u64;
    for w in 0..windows {
        let hot = if alternate {
            if w % 2 == 0 {
                0
            } else {
                branches - 1
            }
        } else if w < shift_at {
            0
        } else {
            branches - 1
        };
        let frames = trace.window(window_packets, hot, branches);
        injected += frames.len() as u64;
        let outcome = daemon.step(&frames).unwrap_or_else(|e| {
            eprintln!("click-morph: window {w}: {e}");
            std::process::exit(1);
        });
        let line = match &outcome {
            WindowOutcome::Quiet => "quiet".to_owned(),
            WindowOutcome::Stable => "stable".to_owned(),
            WindowOutcome::Suppressed(r) => format!("divergent, suppressed ({r:?})"),
            WindowOutcome::Scheduled { improvement } => {
                format!(
                    "divergent, recompiled (modeled -{:.0}% work)",
                    improvement * 100.0
                )
            }
            WindowOutcome::SwapKept {
                improvement,
                report,
            } => format!(
                "swap kept (modeled -{:.0}% work, {} pkts transferred)",
                improvement * 100.0,
                report.packets_transferred
            ),
            WindowOutcome::SwapRolledBack { .. } => "swap rolled back".to_owned(),
        };
        eprintln!("click-morph: window {w:>3} hot=b{hot:<2} {line}");
    }
    let gauges = daemon.gauges();
    let mut target = daemon.into_target();
    let tx = target.drain_all_tx_into(&mut PacketBatch::new()) as u64;
    let drops = target.total_drops() - drops_start;
    let profile = Profile {
        source: label.to_owned(),
        shards,
        telemetry: true,
        elements: target.profiles(),
        reopt: Some(gauges),
        ..Profile::default()
    };
    RunSummary {
        injected,
        tx,
        drops,
        profile,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (flags, positional) = filter_args(
        USAGE,
        &args,
        &[
            "shards",
            "branches",
            "windows",
            "window-packets",
            "shift-at",
            "dwell",
            "cooldown",
            "min-improvement",
            "max-swaps",
            "source",
            "out",
        ],
        &["alternate"],
    );
    if !positional.is_empty() {
        refuse(USAGE, "click-morph takes no configuration");
    }
    let mut shards = 1usize;
    let mut branches = DEMO_BRANCHES;
    let mut windows = 12usize;
    let mut window_packets = 460usize;
    let mut shift_at: Option<usize> = None;
    let mut alternate = false;
    let mut policy = ReoptPolicy::default();
    let mut source: Option<String> = None;
    let mut out: Option<String> = None;
    for (flag, value) in &flags {
        let num = || number::<usize>(USAGE, flag, value);
        match flag.as_str() {
            "shards" => shards = num().max(1),
            "branches" => branches = num().clamp(2, 31),
            "windows" => windows = num().max(1),
            "window-packets" => window_packets = num().max(1),
            "shift-at" => shift_at = Some(num()),
            "alternate" => alternate = true,
            "dwell" => policy.dwell_windows = num() as u32,
            "cooldown" => policy.cooldown_windows = num() as u32,
            "min-improvement" => policy.min_improvement = number(USAGE, flag, value),
            "max-swaps" => policy.max_swaps = num() as u64,
            "source" => source = value.clone(),
            "out" => out = value.clone(),
            _ => unreachable!("filter_args admits only the flags above"),
        }
    }
    let shift_at = shift_at.unwrap_or(windows / 2);

    let graph = demo_graph(branches).unwrap_or_else(|e| {
        eprintln!("click-morph: demo config: {e}");
        std::process::exit(1);
    });
    let artifact = optimize_pipeline(&graph).unwrap_or_else(|e| {
        eprintln!("click-morph: optimizer pipeline: {e}");
        std::process::exit(1);
    });
    let label = source.unwrap_or_else(|| format!("morph-demo-{branches}"));
    eprintln!(
        "click-morph: {branches}-branch classifier, {windows} windows x \
         {window_packets} packets, {DEMO_FLOWS} flows, {} \
         (dwell {}, cooldown {}, min improvement {:.0}%)",
        if alternate {
            "alternating hot branch".to_owned()
        } else {
            format!("shift at window {shift_at}")
        },
        policy.dwell_windows,
        policy.cooldown_windows,
        policy.min_improvement * 100.0
    );

    let mut trace = DemoTrace::new();
    // The loop installs devirtualized artifacts: compiled engine.
    let router = engine::open(&artifact, true, ParallelOpts::new(shards)).unwrap_or_else(|e| {
        eprintln!("click-morph: {e}");
        std::process::exit(1);
    });
    let run = drive(
        MorphDaemon::new(router, graph, artifact, policy),
        &mut trace,
        windows,
        window_packets,
        shift_at,
        alternate,
        branches,
        shards,
        &label,
    );

    let json = run.profile.to_json();
    match &out {
        Some(path) => {
            std::fs::write(path, &json).unwrap_or_else(|e| {
                eprintln!("click-morph: writing {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("click-morph: wrote {path}");
        }
        None => print!("{json}"),
    }
    eprintln!(
        "click-morph: {} packets in, {} out, {} dropped; {}",
        run.injected,
        run.tx,
        run.drops,
        summary(&run.profile.reopt.unwrap_or_default())
    );
    // Exact accounting: every injected packet either transmitted or is
    // covered by the monotonic drop counter (swap loss included).
    if run.tx + run.drops < run.injected {
        eprintln!(
            "click-morph: accounting hole: {} injected != {} tx + {} drops",
            run.injected, run.tx, run.drops
        );
        std::process::exit(1);
    }
}
