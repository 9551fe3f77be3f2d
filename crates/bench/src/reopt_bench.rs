//! Figure-12-style closed-loop evaluation: does continuous
//! reoptimization pay? Three drills against the `click-morph` demo
//! workload (a 24-branch first-match classifier):
//!
//! 1. **Shift** (serial): the hot branch jumps mid-trace. A no-reopt
//!    baseline keeps walking the now-pessimal chain; the daemon
//!    recompiles and swaps autonomously. Verdicts: the daemon's
//!    steady-state ns/pkt in the post-shift half beats the baseline,
//!    and the loop performed exactly one kept swap (no thrash, no
//!    rollback).
//! 2. **Alternate** (serial): the hot branch flips every window — a
//!    workload that would thrash a naive loop. Verdict: installs stay
//!    within the dwell bound (at most one per `dwell + 1` windows) and
//!    hysteresis visibly suppressed at least one divergence.
//! 3. **Sharded** (4 shards): the shift drill on the parallel runtime,
//!    install judged by the canary. Verdict: exact packet accounting —
//!    everything injected is transmitted or on the monotonic drop gauge.
//!
//! All three need live counters: built without the `telemetry` feature
//! the loop never sees divergence and every verdict reads `false`.

use click_elements::batch::PacketBatch;
use click_elements::engine::{self, Engine};
use click_elements::parallel::ParallelOpts;
use click_elements::telemetry::{self, ReoptGauges};
use click_opt::reopt::{
    demo_graph, optimize_pipeline, DemoTrace, MorphDaemon, ReoptPolicy, WindowOutcome,
    DEMO_BRANCHES,
};
use std::time::Instant;

/// Hot-branch schedule of a drill.
#[derive(Debug, Clone, Copy)]
enum Schedule {
    /// Branch 0 until the given window, then the last branch.
    ShiftAt(usize),
    /// Branch 0 on even windows, the last branch on odd ones.
    Alternate,
}

impl Schedule {
    fn hot(self, window: usize) -> usize {
        match self {
            Schedule::ShiftAt(at) if window < at => 0,
            Schedule::ShiftAt(_) => DEMO_BRANCHES - 1,
            Schedule::Alternate if window.is_multiple_of(2) => 0,
            Schedule::Alternate => DEMO_BRANCHES - 1,
        }
    }
}

/// The drills share one policy: a demanding improvement threshold so
/// cold-branch jitter can never justify an install — only a real shift
/// (which models a ~90% win on the demo workload) acts.
fn policy() -> ReoptPolicy {
    ReoptPolicy {
        min_improvement: 0.2,
        ..ReoptPolicy::default()
    }
}

/// One windowed run: wall-clock ns/pkt per window plus loop accounting.
#[derive(Debug, Clone, Default)]
pub struct WindowedRun {
    /// Wall-clock nanoseconds per packet, one entry per window
    /// (injection excluded; for daemon runs the control loop's own
    /// decision/recompile time is included — that cost is real).
    pub ns_per_window: Vec<f64>,
    /// Packets injected over the run.
    pub injected: u64,
    /// Packets transmitted over the run.
    pub tx: u64,
    /// Drop-gauge delta over the run (monotonic across swaps).
    pub drops: u64,
    /// Loop gauges (all zero for no-reopt baseline runs).
    pub gauges: ReoptGauges,
    /// Windows that installed a kept swap.
    pub swap_windows: Vec<usize>,
}

/// Drives `windows` windows of the demo trace through an [`Engine`],
/// optionally under a reoptimization daemon.
fn run_windows(
    target: Box<dyn Engine>,
    daemon_policy: Option<ReoptPolicy>,
    windows: usize,
    window_packets: usize,
    schedule: Schedule,
) -> WindowedRun {
    let source = demo_graph(DEMO_BRANCHES).expect("demo config parses");
    let artifact = optimize_pipeline(&source).expect("demo config optimizes");
    let mut run = WindowedRun::default();
    let mut trace = DemoTrace::new();

    // The daemon owns the target; a baseline run is a daemon with an
    // install-blocking policy substitute — simpler: drive raw.
    match daemon_policy {
        Some(policy) => {
            let mut daemon = MorphDaemon::new(target, source, artifact, policy);
            let drops_start = daemon.target().total_drops();
            for w in 0..windows {
                let frames = trace.window(window_packets, schedule.hot(w), DEMO_BRANCHES);
                run.injected += frames.len() as u64;
                let t = Instant::now();
                let outcome = daemon.step(&frames).expect("window steps cleanly");
                run.ns_per_window
                    .push(t.elapsed().as_nanos() as f64 / frames.len() as f64);
                if matches!(outcome, WindowOutcome::SwapKept { .. }) {
                    run.swap_windows.push(w);
                }
                run.tx += drain_tx(daemon.target());
            }
            run.gauges = daemon.gauges();
            let mut target = daemon.into_target();
            run.tx += drain_tx(&mut *target);
            run.drops = target.total_drops() - drops_start;
        }
        None => {
            let mut target = target;
            let drops_start = target.total_drops();
            for w in 0..windows {
                let frames = trace.window(window_packets, schedule.hot(w), DEMO_BRANCHES);
                run.injected += frames.len() as u64;
                for (dev, p) in &frames {
                    if let Some(id) = target.device(dev) {
                        target.inject(id, p.clone());
                    }
                }
                let t = Instant::now();
                target.settle();
                run.ns_per_window
                    .push(t.elapsed().as_nanos() as f64 / frames.len() as f64);
                run.tx += drain_tx(&mut *target);
            }
            run.drops = target.total_drops() - drops_start;
        }
    }
    run
}

/// Drains every device's TX queue, returning the packet count.
fn drain_tx(target: &mut dyn Engine) -> u64 {
    target.drain_all_tx_into(&mut PacketBatch::new()) as u64
}

/// The demo artifact running on the compiled engine, serial for
/// `shards <= 1`.
fn demo_target(shards: usize) -> Box<dyn Engine> {
    let artifact =
        optimize_pipeline(&demo_graph(DEMO_BRANCHES).expect("demo config parses")).unwrap();
    engine::open(&artifact, true, ParallelOpts::new(shards)).expect("demo artifact builds")
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v[v.len() / 2]
}

/// Everything `fig12_reopt` measures and judges.
#[derive(Debug)]
pub struct ReoptResults {
    /// Smoke-run sizes were used.
    pub quick: bool,
    /// Live telemetry counters were compiled in (all verdicts require it).
    pub telemetry: bool,
    /// Windows per drill.
    pub windows: usize,
    /// Packets per window in the serial shift drill.
    pub window_packets: usize,
    /// Window at which the shift drill moves the hot branch.
    pub shift_at: usize,
    /// The shift drill without a daemon (the installed ordering goes
    /// stale and stays stale).
    pub baseline: WindowedRun,
    /// The shift drill under the daemon.
    pub reopt: WindowedRun,
    /// The alternating drill under the daemon.
    pub alternate: WindowedRun,
    /// The shift drill on the 4-shard runtime under the daemon.
    pub sharded: WindowedRun,
    /// Shards of the sharded drill.
    pub shards: usize,
}

impl ReoptResults {
    /// Steady-state post-shift windows: everything after the daemon's
    /// swap settles (`shift_at + 2` onward — divergence window, then the
    /// judgment window, then steady state).
    fn steady_range(&self) -> std::ops::Range<usize> {
        (self.shift_at + 2)..self.windows
    }

    /// Median baseline ns/pkt over the steady post-shift windows.
    pub fn baseline_steady_ns(&self) -> f64 {
        median(&self.baseline.ns_per_window[self.steady_range()])
    }

    /// Median daemon ns/pkt over the same windows.
    pub fn reopt_steady_ns(&self) -> f64 {
        median(&self.reopt.ns_per_window[self.steady_range()])
    }

    /// The loop's post-swap steady state outperforms never reoptimizing.
    pub fn verdict_reopt_beats_baseline(&self) -> bool {
        self.telemetry && self.reopt_steady_ns() < self.baseline_steady_ns()
    }

    /// One shift produced exactly one recompile and one kept swap.
    pub fn verdict_single_swap(&self) -> bool {
        let g = self.reopt.gauges;
        self.telemetry
            && g.recompiles == 1
            && g.swaps_kept == 1
            && g.rollbacks == 0
            && self.reopt.swap_windows == vec![self.shift_at + 1]
    }

    /// An oscillating mix cannot thrash: installs are bounded by one per
    /// `dwell + 1` windows and hysteresis visibly suppressed divergences.
    pub fn verdict_no_thrash(&self) -> bool {
        let g = self.alternate.gauges;
        let bound = (self.windows as u64) / u64::from(policy().dwell_windows + 1);
        self.telemetry && g.swaps_kept + g.rollbacks <= bound && g.thrash_suppressed > 0
    }

    /// Sharded rollout accounting is exact: injected = tx + drops.
    pub fn verdict_accounting_exact(&self) -> bool {
        let s = &self.sharded;
        self.telemetry
            && s.injected == s.tx + s.drops
            && s.gauges.swaps_kept == 1
            && self.reopt.injected == self.reopt.tx + self.reopt.drops
    }
}

/// Runs the three drills. `quick` trims window sizes for CI smoke runs.
/// Window sizes are multiples of 460 so every window sees an identical
/// cold-branch spread (460 packets = 46 cold = 2 per cold branch) and
/// steady-state windows read as exactly stable.
pub fn run_fig12_reopt(quick: bool) -> ReoptResults {
    let windows = 12;
    let shift_at = windows / 2;
    let window_packets = if quick { 2300 } else { 9200 };
    let sharded_packets = if quick { 920 } else { 2300 };

    let baseline = run_windows(
        demo_target(1),
        None,
        windows,
        window_packets,
        Schedule::ShiftAt(shift_at),
    );
    let reopt = run_windows(
        demo_target(1),
        Some(policy()),
        windows,
        window_packets,
        Schedule::ShiftAt(shift_at),
    );
    let alternate = run_windows(
        demo_target(1),
        Some(policy()),
        windows,
        if quick { 460 } else { 1380 },
        Schedule::Alternate,
    );
    let shards = 4;
    let sharded = run_windows(
        demo_target(shards),
        Some(policy()),
        windows,
        sharded_packets,
        Schedule::ShiftAt(shift_at),
    );

    ReoptResults {
        quick,
        telemetry: telemetry::ENABLED,
        windows,
        window_packets,
        shift_at,
        baseline,
        reopt,
        alternate,
        sharded,
        shards,
    }
}

fn run_json(r: &WindowedRun) -> String {
    let g = r.gauges;
    format!(
        "{{\"injected\": {}, \"tx\": {}, \"drops\": {}, \"swap_windows\": {:?}, \
         \"windows_observed\": {}, \"recompiles\": {}, \"swaps_kept\": {}, \
         \"rollbacks\": {}, \"thrash_suppressed\": {}, \"ns_per_window\": [{}]}}",
        r.injected,
        r.tx,
        r.drops,
        r.swap_windows,
        g.windows_observed,
        g.recompiles,
        g.swaps_kept,
        g.rollbacks,
        g.thrash_suppressed,
        r.ns_per_window
            .iter()
            .map(|n| format!("{n:.1}"))
            .collect::<Vec<_>>()
            .join(", ")
    )
}

/// Serializes the results as the `BENCH_fig12_reopt.json` document, with
/// the four grep-able verdict keys the CI `reopt-drill` job checks.
pub fn to_json(r: &ReoptResults) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"figure\": \"fig12_reopt\",\n");
    s.push_str(&format!("  \"quick\": {},\n", r.quick));
    s.push_str(&format!("  \"telemetry\": {},\n", r.telemetry));
    s.push_str(&format!("  \"windows\": {},\n", r.windows));
    s.push_str(&format!("  \"window_packets\": {},\n", r.window_packets));
    s.push_str(&format!("  \"shift_at\": {},\n", r.shift_at));
    s.push_str(&format!("  \"shards\": {},\n", r.shards));
    s.push_str(&format!(
        "  \"baseline_steady_ns\": {:.1},\n  \"reopt_steady_ns\": {:.1},\n",
        r.baseline_steady_ns(),
        r.reopt_steady_ns()
    ));
    s.push_str(&format!(
        "  \"verdict_reopt_beats_baseline\": {},\n",
        r.verdict_reopt_beats_baseline()
    ));
    s.push_str(&format!(
        "  \"verdict_single_swap\": {},\n",
        r.verdict_single_swap()
    ));
    s.push_str(&format!(
        "  \"verdict_no_thrash\": {},\n",
        r.verdict_no_thrash()
    ));
    s.push_str(&format!(
        "  \"verdict_accounting_exact\": {},\n",
        r.verdict_accounting_exact()
    ));
    s.push_str(
        "  \"methodology\": \"demo 24-branch first-match classifier, 90/10 hot/cold mix; \
         ns_per_window is wall-clock settle time per packet (daemon runs include the \
         control loop's own decision and recompile time); steady-state medians are taken \
         over the windows after the swap settles; the alternating drill flips the hot \
         branch every window to attack the hysteresis\",\n",
    );
    s.push_str(&format!("  \"baseline\": {},\n", run_json(&r.baseline)));
    s.push_str(&format!("  \"reopt\": {},\n", run_json(&r.reopt)));
    s.push_str(&format!("  \"alternate\": {},\n", run_json(&r.alternate)));
    s.push_str(&format!("  \"sharded\": {}\n", run_json(&r.sharded)));
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_shapes() {
        assert_eq!(Schedule::ShiftAt(3).hot(2), 0);
        assert_eq!(Schedule::ShiftAt(3).hot(3), DEMO_BRANCHES - 1);
        assert_eq!(Schedule::Alternate.hot(4), 0);
        assert_eq!(Schedule::Alternate.hot(5), DEMO_BRANCHES - 1);
    }

    #[test]
    fn baseline_run_forwards_everything() {
        let run = run_windows(demo_target(1), None, 4, 460, Schedule::ShiftAt(2));
        assert_eq!(run.injected, 4 * 460);
        assert_eq!(run.tx, 4 * 460);
        assert_eq!(run.drops, 0);
        assert_eq!(run.gauges, ReoptGauges::default());
        assert_eq!(run.ns_per_window.len(), 4);
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn quick_drills_reach_their_verdicts() {
        let r = run_fig12_reopt(true);
        assert!(r.verdict_single_swap(), "{:?}", r.reopt.gauges);
        assert!(r.verdict_no_thrash(), "{:?}", r.alternate.gauges);
        assert!(r.verdict_accounting_exact(), "{:?}", r.sharded);
        let j = to_json(&r);
        assert!(j.contains("\"verdict_single_swap\": true"));
        assert!(j.contains("\"verdict_accounting_exact\": true"));
    }
}
