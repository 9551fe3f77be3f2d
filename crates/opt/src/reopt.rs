//! Continuous reoptimization: the `click-morph` control loop.
//!
//! The paper's optimizer is offline — profile a run, rewrite the
//! configuration, restart. Morpheus (PAPERS.md) shows the same loop run
//! *continuously* against a live data plane; this module composes the
//! pieces that already exist in-tree into that loop:
//!
//! 1. **Sample** a telemetry window: diff cumulative [`ElementProfile`]
//!    snapshots, so no counter reset (and no control-plane race) is
//!    needed.
//! 2. **Decide** via [`ReoptPolicy`]: does the window's hot-branch
//!    ordering diverge enough from the installed configuration that a
//!    recompile would cut expected first-match work by at least the
//!    improvement threshold — and do dwell/cooldown/budget hysteresis
//!    allow acting on it?
//! 3. **Recompile** in the background: re-run profile hoisting
//!    ([`apply_profile`]) on the *source-level* installed graph, then
//!    the optimizer pipeline ([`fastclassifier`] + [`devirtualize`])
//!    to produce the install artifact.
//! 4. **Install** through hot swap on the next window, judged by the
//!    canary (sharded) or a drop-rate probation (serial), rolling back
//!    automatically on regression — then go to 1.
//!
//! The split between [`ReoptController`] (pure decision logic over
//! profile snapshots — no router, fully unit-testable) and
//! [`MorphDaemon`] (drives a live [`Engine`] window by window) keeps the
//! hysteresis edges testable without threads.
//!
//! Always-live [`ReoptGauges`] count what the loop did; `click-morph`
//! exports them in the profile JSON's `"reopt"` section.

use crate::devirtualize::devirtualize;
use crate::fastclassifier::fastclassifier;
use crate::profile::{apply_profile, Profile, ProfileReport};
use click_core::error::Result;
use click_core::graph::RouterGraph;
use click_core::lang::{read_config, write_config};
use click_core::registry::Library;
use click_elements::engine::Engine;
use click_elements::headers::build_udp_packet;
use click_elements::packet::Packet;
use click_elements::persist::CheckpointDaemon;
use click_elements::swap::SwapReport;
use click_elements::telemetry::{ElementProfile, ReoptGauges};
use std::collections::HashSet;

// ---- policy --------------------------------------------------------------

/// Hysteresis knobs of the reoptimization loop. The defaults favor
/// stability: a recompile needs a ≥5% modeled win, installs are at least
/// two windows apart, a rollback freezes the loop for three windows, and
/// the loop performs at most eight installs per run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReoptPolicy {
    /// Minimum modeled first-match-work reduction (fraction, `0.05` =
    /// 5%) a candidate ordering must promise before it is compiled.
    pub min_improvement: f64,
    /// Minimum observation windows between installs (dwell time): a
    /// divergent window inside the dwell is suppressed, not acted on.
    pub dwell_windows: u32,
    /// Observation windows the loop stays quiet after a rollback before
    /// it may recompile again.
    pub cooldown_windows: u32,
    /// Hard ceiling on installs (kept + rolled back) per run — the
    /// bounded swap rate.
    pub max_swaps: u64,
    /// Windows with fewer classified packets than this are too quiet to
    /// judge and never trigger a recompile.
    pub min_window_packets: u64,
    /// Serial self-judge margin: a just-installed configuration whose
    /// window drop rate exceeds the previous window's by more than this
    /// fraction is rolled back. (The sharded runtime's canary applies
    /// its own margin, see `SwapOpts`.)
    pub drop_margin: f64,
}

impl Default for ReoptPolicy {
    fn default() -> ReoptPolicy {
        ReoptPolicy {
            min_improvement: 0.05,
            dwell_windows: 2,
            cooldown_windows: 3,
            max_swaps: 8,
            min_window_packets: 64,
            drop_margin: 0.05,
        }
    }
}

// ---- controller ----------------------------------------------------------

/// Why a divergent window was not acted on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuppressReason {
    /// Inside the minimum dwell after the last install.
    Dwell,
    /// Inside the cooldown after a rollback.
    Cooldown,
    /// The run's install budget ([`ReoptPolicy::max_swaps`]) is spent.
    SwapBudget,
}

/// A compiled install candidate: the re-hoisted source graph and its
/// optimized artifact, with the modeled win that justified it.
#[derive(Debug, Clone)]
pub struct ReoptPlan {
    /// The source-level graph with the new hottest-first ordering
    /// applied — becomes the controller's `installed` graph if the swap
    /// is kept.
    pub hoisted: RouterGraph,
    /// The optimized artifact (fastclassifier + devirtualize over
    /// `hoisted`) that actually gets installed.
    pub artifact: RouterGraph,
    /// Modeled fractional reduction in expected first-match work under
    /// the window's traffic (1 − candidate/installed).
    pub improvement: f64,
    /// What the hoisting pass did (reorders, cold branches).
    pub report: ProfileReport,
}

/// What the controller concluded from one observation window.
#[derive(Debug)]
pub enum WindowDecision {
    /// Too few classified packets to judge ([`ReoptPolicy::min_window_packets`]).
    Quiet,
    /// The installed ordering is (close enough to) optimal for this
    /// window's traffic.
    Stable,
    /// Divergence justified a recompile but hysteresis suppressed it.
    Suppressed(SuppressReason),
    /// Divergence crossed the threshold: here is the compiled candidate
    /// (boxed: a plan carries two router graphs, far larger than the
    /// other variants).
    Recompile(Box<ReoptPlan>),
}

/// The decision core of the loop: pure logic over cumulative profile
/// snapshots. Owns the *source-level* installed graph (plain
/// `Classifier` elements, current hoisting applied) and the hysteresis
/// state; knows nothing about live routers, so every policy edge is
/// unit-testable with hand-built profiles.
#[derive(Debug)]
pub struct ReoptController {
    policy: ReoptPolicy,
    installed: RouterGraph,
    baseline: Vec<ElementProfile>,
    /// Observation windows since the last install (starts at the dwell
    /// so the first divergence is actionable immediately).
    windows_since_install: u32,
    cooldown: u32,
    gauges: ReoptGauges,
}

impl ReoptController {
    /// A controller managing `source` (a graph whose classifiers are
    /// plain `Classifier` elements) under `policy`.
    pub fn new(source: RouterGraph, policy: ReoptPolicy) -> ReoptController {
        ReoptController {
            windows_since_install: policy.dwell_windows,
            policy,
            installed: source,
            baseline: Vec::new(),
            cooldown: 0,
            gauges: ReoptGauges::default(),
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> &ReoptPolicy {
        &self.policy
    }

    /// The source-level graph currently considered installed.
    pub fn installed(&self) -> &RouterGraph {
        &self.installed
    }

    /// Current loop gauges.
    pub fn gauges(&self) -> ReoptGauges {
        self.gauges
    }

    /// Feeds one observation window: `cumulative` is the router's
    /// current (monotonic) profile snapshot; the window is its diff
    /// against the previous snapshot. Returns what the controller
    /// concluded — on [`WindowDecision::Recompile`] the caller should
    /// install the plan's artifact on the *next* window and report the
    /// outcome via [`ReoptController::swap_kept`] or
    /// [`ReoptController::swap_rolled_back`].
    ///
    /// # Errors
    ///
    /// Propagates pattern-parse failures from the hoisting pass (only
    /// possible if the installed graph holds invalid classifier
    /// configurations).
    pub fn observe_window(&mut self, cumulative: &[ElementProfile]) -> Result<WindowDecision> {
        self.gauges.windows_observed += 1;
        self.windows_since_install = self.windows_since_install.saturating_add(1);
        let cooling = self.cooldown > 0;
        self.cooldown = self.cooldown.saturating_sub(1);

        let window = diff_profiles(cumulative, &self.baseline);
        self.baseline = cumulative.to_vec();

        // Only packets that crossed a classifier of the installed graph
        // can justify reordering it.
        let classifiers: Vec<String> = self
            .installed
            .element_ids()
            .filter(|&id| self.installed.element(id).class() == "Classifier")
            .map(|id| self.installed.element(id).name().to_owned())
            .collect();
        let classified: u64 = window
            .iter()
            .filter(|e| classifiers.contains(&e.name))
            .map(|e| e.packets)
            .sum();
        if classified < self.policy.min_window_packets {
            return Ok(WindowDecision::Quiet);
        }

        // Model the candidate ordering on a scratch copy of the
        // installed source graph.
        let window_profile = Profile {
            source: "reopt-window".into(),
            shards: 1,
            telemetry: true,
            elements: window.clone(),
            ..Profile::default()
        };
        let mut hoisted = self.installed.clone();
        let report = apply_profile(&mut hoisted, &window_profile)?;
        if report.reordered.is_empty() {
            return Ok(WindowDecision::Stable);
        }
        let improvement = modeled_improvement(&report, &window);
        if improvement < self.policy.min_improvement {
            return Ok(WindowDecision::Stable);
        }

        // Divergence is real — now hysteresis decides whether to act.
        if self.gauges.swaps_kept + self.gauges.rollbacks >= self.policy.max_swaps {
            self.gauges.thrash_suppressed += 1;
            return Ok(WindowDecision::Suppressed(SuppressReason::SwapBudget));
        }
        if cooling {
            self.gauges.thrash_suppressed += 1;
            return Ok(WindowDecision::Suppressed(SuppressReason::Cooldown));
        }
        if self.windows_since_install <= self.policy.dwell_windows {
            self.gauges.thrash_suppressed += 1;
            return Ok(WindowDecision::Suppressed(SuppressReason::Dwell));
        }

        let artifact = optimize_pipeline(&hoisted)?;
        self.gauges.recompiles += 1;
        Ok(WindowDecision::Recompile(Box::new(ReoptPlan {
            hoisted,
            artifact,
            improvement,
            report,
        })))
    }

    /// Records a kept install: `hoisted` becomes the installed source
    /// graph and `cumulative` (a post-swap snapshot) the new diff
    /// baseline — hot-swap state transfer folds predecessor counters in
    /// under the *old* port numbering, so pre-swap baselines are not
    /// comparable. The judgment window counts as observed.
    pub fn swap_kept(&mut self, hoisted: RouterGraph, cumulative: &[ElementProfile]) {
        self.installed = hoisted;
        self.baseline = cumulative.to_vec();
        self.windows_since_install = 0;
        self.gauges.windows_observed += 1;
        self.gauges.swaps_kept += 1;
    }

    /// Records a rolled-back (or rejected) install: the previous graph
    /// stays installed, the cooldown starts, and `cumulative` (post-
    /// rollback snapshot) becomes the new diff baseline. The judgment
    /// window counts as observed.
    pub fn swap_rolled_back(&mut self, cumulative: &[ElementProfile]) {
        self.baseline = cumulative.to_vec();
        self.windows_since_install = 0;
        self.cooldown = self.policy.cooldown_windows;
        self.gauges.windows_observed += 1;
        self.gauges.rollbacks += 1;
    }
}

/// Per-element window = cumulative − baseline, matched by name
/// (saturating: a counter that shrank — e.g. across an engine restart —
/// reads as zero activity rather than underflowing).
fn diff_profiles(
    cumulative: &[ElementProfile],
    baseline: &[ElementProfile],
) -> Vec<ElementProfile> {
    cumulative
        .iter()
        .map(|c| {
            let mut w = c.clone();
            if let Some(b) = baseline.iter().find(|b| b.name == c.name) {
                w.calls = c.calls.saturating_sub(b.calls);
                w.packets = c.packets.saturating_sub(b.packets);
                w.bytes = c.bytes.saturating_sub(b.bytes);
                w.self_ns = c.self_ns.saturating_sub(b.self_ns);
                w.out_ports = c
                    .out_ports
                    .iter()
                    .enumerate()
                    .map(|(i, &n)| n.saturating_sub(b.out_ports.get(i).copied().unwrap_or(0)))
                    .collect();
            }
            w
        })
        .collect()
}

/// Modeled fractional reduction in expected first-match work: a
/// classifier tries patterns in order, so a packet matched at position
/// `p` (0-based) costs `p + 1` pattern tests. Summed over every
/// reordered classifier under the window's per-port counts.
fn modeled_improvement(report: &ProfileReport, window: &[ElementProfile]) -> f64 {
    let mut installed_cost = 0u64;
    let mut candidate_cost = 0u64;
    for r in &report.reordered {
        let Some(e) = window.iter().find(|e| e.name == r.element) else {
            continue;
        };
        let count = |port: usize| e.out_ports.get(port).copied().unwrap_or(0);
        for (new_pos, &old_port) in r.order.iter().enumerate() {
            installed_cost += count(old_port) * (old_port as u64 + 1);
            candidate_cost += count(old_port) * (new_pos as u64 + 1);
        }
    }
    if installed_cost == 0 {
        return 0.0;
    }
    1.0 - candidate_cost as f64 / installed_cost as f64
}

/// The paper's static pipeline as one call: clone-free fastclassifier +
/// devirtualize over a copy of `source`, returning the install artifact.
///
/// # Errors
///
/// Propagates pattern-parse or partitioning failures from the passes.
pub fn optimize_pipeline(source: &RouterGraph) -> Result<RouterGraph> {
    let mut artifact = source.clone();
    fastclassifier(&mut artifact)?;
    devirtualize(&mut artifact, &Library::standard(), &HashSet::new())?;
    Ok(artifact)
}

// ---- the daemon ----------------------------------------------------------

/// What one daemon window did, for logs and verdict checks.
#[derive(Debug)]
pub enum WindowOutcome {
    /// Too quiet to judge.
    Quiet,
    /// Ordering already (near-)optimal.
    Stable,
    /// Divergence seen but suppressed by hysteresis.
    Suppressed(SuppressReason),
    /// A candidate was compiled; it installs on the next window.
    Scheduled {
        /// The candidate's modeled improvement.
        improvement: f64,
    },
    /// The pending candidate was installed and kept.
    SwapKept {
        /// Modeled improvement of the kept candidate.
        improvement: f64,
        /// The runtime's transfer/canary report.
        report: SwapReport,
    },
    /// The pending candidate was installed and rolled back (canary or
    /// probation regression), or rejected outright.
    SwapRolledBack {
        /// The runtime's report, if the install got far enough to
        /// produce one (`None` for validation rejections).
        report: Option<SwapReport>,
    },
}

/// A [`MorphDaemon::mutate_candidate`] hook: mutates a compiled
/// candidate graph before it is scheduled for install.
pub type CandidateHook = Box<dyn FnMut(&mut RouterGraph)>;

/// The live half of the loop: owns an [`Engine`] plus a
/// [`ReoptController`], and advances one traffic window per
/// [`MorphDaemon::step`] call. A candidate compiled in window *N*
/// installs at the *start* of window *N + 1*, so that window's buffered
/// traffic becomes the canary/probation workload judging it.
pub struct MorphDaemon {
    target: Box<dyn Engine>,
    ctrl: ReoptController,
    /// The optimized artifact currently running — retained so a serial
    /// probation failure can swap back to it.
    artifact: RouterGraph,
    last_drop_rate: f64,
    pending: Option<Box<ReoptPlan>>,
    /// Test/chaos hook: mutates each compiled candidate before it is
    /// scheduled for install (e.g. splicing a `FaultInject` in, to drill
    /// the rollback path).
    pub mutate_candidate: Option<CandidateHook>,
    /// The attached checkpoint daemon, if any: cuts a snapshot after
    /// every kept swap (so a restart resumes on the new artifact) and on
    /// the daemon's own traffic interval.
    ckpt: Option<CheckpointDaemon>,
    /// Cumulative packets injected through [`MorphDaemon::step`] — the
    /// `injected` side of the checkpoints' ledger.
    ckpt_injected: u64,
}

impl MorphDaemon {
    /// A daemon driving `target`, which must already be running
    /// `artifact` (= [`optimize_pipeline`] of `source`). Arms the
    /// target's telemetry: the windows the loop judges are diffs of its
    /// per-element profiles.
    pub fn new(
        mut target: Box<dyn Engine>,
        source: RouterGraph,
        artifact: RouterGraph,
        policy: ReoptPolicy,
    ) -> Self {
        target.set_telemetry(true);
        MorphDaemon {
            target,
            ctrl: ReoptController::new(source, policy),
            artifact,
            last_drop_rate: 0.0,
            pending: None,
            mutate_candidate: None,
            ckpt: None,
            ckpt_injected: 0,
        }
    }

    /// Attaches a checkpoint daemon: from now on the loop cuts a
    /// snapshot after every kept swap — stamped with the new artifact's
    /// configuration text, so a warm restart resumes *optimized* — and
    /// whenever the daemon's traffic interval elapses. The daemon's
    /// installed config is (re)set to the current artifact.
    pub fn attach_checkpoints(&mut self, mut daemon: CheckpointDaemon) {
        daemon.set_config(write_config(&self.artifact));
        self.ckpt = Some(daemon);
    }

    /// The attached checkpoint daemon, if any.
    pub fn checkpoint_daemon(&self) -> Option<&CheckpointDaemon> {
        self.ckpt.as_ref()
    }

    /// Detaches and returns the checkpoint daemon (to hand to a
    /// successor incarnation).
    pub fn take_checkpoints(&mut self) -> Option<CheckpointDaemon> {
        self.ckpt.take()
    }

    /// The driven router.
    pub fn target(&mut self) -> &mut dyn Engine {
        &mut *self.target
    }

    /// Consumes the daemon, returning the router (to drain TX, shut
    /// down, ...).
    pub fn into_target(self) -> Box<dyn Engine> {
        self.target
    }

    /// The controller's source-level installed graph.
    pub fn installed(&self) -> &RouterGraph {
        self.ctrl.installed()
    }

    /// The optimized artifact currently running.
    pub fn artifact(&self) -> &RouterGraph {
        &self.artifact
    }

    /// Current loop gauges.
    pub fn gauges(&self) -> ReoptGauges {
        self.ctrl.gauges()
    }

    /// Runs one traffic window through the router and the control loop:
    /// injects `frames`, installs any pending candidate (judged against
    /// this window's traffic), settles, and — on plain observation
    /// windows — asks the controller for the next decision.
    ///
    /// # Errors
    ///
    /// Propagates controller errors and failures re-installing the
    /// retained artifact after a probation regression. A *candidate*
    /// rejected at install is not an error — it is reported as
    /// [`WindowOutcome::SwapRolledBack`] and starts the cooldown.
    pub fn step(&mut self, frames: &[(String, Packet)]) -> Result<WindowOutcome> {
        let drops_before = self.target.total_drops();
        let mut injected = 0u64;
        for (dev, p) in frames {
            if let Some(id) = self.target.device(dev) {
                self.target.inject(id, p.clone());
                injected += 1;
            }
        }
        let outcome = if let Some(plan) = self.pending.take() {
            self.judge_install(plan, drops_before, injected)?
        } else {
            self.target.settle();
            self.last_drop_rate = drop_rate(self.target.total_drops() - drops_before, injected);
            let decision = self.ctrl.observe_window(&self.target.profiles())?;
            match decision {
                WindowDecision::Quiet => WindowOutcome::Quiet,
                WindowDecision::Stable => WindowOutcome::Stable,
                WindowDecision::Suppressed(r) => WindowOutcome::Suppressed(r),
                WindowDecision::Recompile(mut plan) => {
                    if let Some(hook) = &mut self.mutate_candidate {
                        hook(&mut plan.artifact);
                    }
                    let improvement = plan.improvement;
                    self.pending = Some(plan);
                    WindowOutcome::Scheduled { improvement }
                }
            }
        };
        self.checkpoint_after(injected, matches!(outcome, WindowOutcome::SwapKept { .. }));
        Ok(outcome)
    }

    /// End-of-window checkpoint hook: after a kept swap the daemon's
    /// installed config advances to the new artifact and a snapshot is
    /// cut immediately; otherwise one is cut when the daemon's traffic
    /// interval elapses. Checkpoint failures are counted in the gauges,
    /// never propagated — durability must not take the loop down.
    /// Ledger note: these checkpoints carry the loop's cumulative
    /// `injected` count and a zero `tx` (the daemon does not drain TX;
    /// the harness that does also runs its own ledgered checkpoints).
    fn checkpoint_after(&mut self, injected: u64, kept: bool) {
        self.ckpt_injected += injected;
        let Some(daemon) = self.ckpt.as_mut() else {
            return;
        };
        let due = daemon.note_traffic(injected);
        if !(kept || due) {
            return;
        }
        if kept {
            daemon.set_config(write_config(&self.artifact));
        }
        let _ = daemon.checkpoint_now(&mut *self.target, self.ckpt_injected, 0);
    }

    /// Judgment window: the candidate installs against the traffic just
    /// buffered; the sharded runtime's canary (or the serial probation)
    /// decides its fate.
    fn judge_install(
        &mut self,
        plan: Box<ReoptPlan>,
        drops_before: u64,
        injected: u64,
    ) -> Result<WindowOutcome> {
        // A rejected candidate leaves the old graph draining the window;
        // it counts as a rollback (cooldown) so a broken recompile
        // cannot spin.
        let report = self.target.hot_swap(&plan.artifact).ok();
        self.target.settle();
        let rate = drop_rate(self.target.total_drops() - drops_before, injected);
        // No canary shard means the runtime did not judge the install
        // (serial): compare the window's drop rate under the new
        // configuration against the previous window's, plus the margin.
        let probation = report.as_ref().is_some_and(|r| r.canary_shard.is_none());
        let kept = match &report {
            Some(_) if probation => rate <= self.last_drop_rate + self.ctrl.policy().drop_margin,
            Some(r) => !r.rolled_back,
            None => false,
        };
        match report {
            Some(report) if kept => {
                self.last_drop_rate = rate;
                self.ctrl.swap_kept(plan.hoisted, &self.target.profiles());
                self.artifact = plan.artifact;
                Ok(WindowOutcome::SwapKept {
                    improvement: plan.improvement,
                    report,
                })
            }
            report => {
                if probation {
                    // Nobody rolled back for us: reinstall the retained
                    // artifact.
                    self.target.hot_swap(&self.artifact)?;
                    self.target.settle();
                } else {
                    self.last_drop_rate = rate;
                }
                self.ctrl.swap_rolled_back(&self.target.profiles());
                Ok(WindowOutcome::SwapRolledBack {
                    report: report.filter(|_| !probation),
                })
            }
        }
    }
}

fn drop_rate(drops: u64, injected: u64) -> f64 {
    if injected == 0 {
        0.0
    } else {
        drops as f64 / injected as f64
    }
}

// ---- the demo workload ---------------------------------------------------

/// Classifier branches (excluding the catch-all) in the demo
/// configuration. Deliberately below the fastclassifier
/// decision-diagram threshold (32), so the compiled matcher keeps the
/// paper's order-sensitive first-match chain and branch ordering has a
/// measurable cost.
pub const DEMO_BRANCHES: usize = 24;

/// Distinct UDP flows (source ports 2000..) in the demo trace, for RSS
/// steering on the sharded runtime.
pub const DEMO_FLOWS: u16 = 8;

/// The demo configuration: one classifier fanning out on the UDP
/// destination port (byte offset 36) to `branches` per-branch counters
/// that funnel into a queue and out one device, plus a catch-all to
/// `Discard`. Branch `i` matches destination port `3000 + i`.
pub fn demo_config(branches: usize) -> String {
    let patterns: Vec<String> = (0..branches)
        .map(|i| format!("36/{:04x}", 3000 + i))
        .chain(std::iter::once("-".to_owned()))
        .collect();
    let mut s = String::new();
    s.push_str("src :: FromDevice(in0);\n");
    s.push_str(&format!("cls :: Classifier({});\n", patterns.join(", ")));
    s.push_str("q :: Queue(8192);\nsink :: ToDevice(out0);\ndsc :: Discard;\n");
    s.push_str("src -> cls;\n");
    for i in 0..branches {
        s.push_str(&format!("b{i} :: Counter;\ncls [{i}] -> b{i} -> q;\n"));
    }
    s.push_str(&format!("cls [{branches}] -> dsc;\nq -> sink;\n"));
    s
}

/// [`demo_config`] parsed into a graph.
///
/// # Errors
///
/// Never in practice — the configuration is generated; an error means
/// the generator and the language disagree.
pub fn demo_graph(branches: usize) -> Result<RouterGraph> {
    read_config(&demo_config(branches))
}

/// Deterministic trace generator for the demo configuration: 90% of
/// packets hit one *hot* branch, the rest round-robin across the cold
/// branches; flows cycle over [`DEMO_FLOWS`] source ports, and each
/// flow's packets carry an increasing sequence byte (last payload byte)
/// so per-flow ordering is checkable end to end.
#[derive(Debug, Default)]
pub struct DemoTrace {
    idx: u64,
    seqs: Vec<u8>,
}

impl DemoTrace {
    /// A fresh generator (flow sequence numbers start at 0).
    pub fn new() -> DemoTrace {
        DemoTrace {
            idx: 0,
            seqs: vec![0; DEMO_FLOWS as usize],
        }
    }

    /// Generates the next `packets` frames with `hot` as the hot branch
    /// (of `branches` total). Frames are `("in0", packet)` pairs ready
    /// for the demo configuration's ingress device.
    pub fn window(&mut self, packets: usize, hot: usize, branches: usize) -> Vec<(String, Packet)> {
        (0..packets)
            .map(|_| {
                let i = self.idx;
                self.idx += 1;
                let flow = (i % u64::from(DEMO_FLOWS)) as usize;
                let branch = if !i.is_multiple_of(10) {
                    hot
                } else {
                    // Cold traffic round-robins over the other branches.
                    let c = ((i / 10) % (branches as u64 - 1)) as usize;
                    if c >= hot {
                        c + 1
                    } else {
                        c
                    }
                };
                let sport = 2000 + flow as u16;
                let dport = 3000 + branch as u16;
                let mut p = build_udp_packet(
                    [2; 6],
                    [1; 6],
                    0x0A00_0002,
                    0x0A00_0102,
                    sport,
                    dport,
                    18,
                    64,
                );
                let n = p.len();
                p.data_mut()[n - 1] = self.seqs[flow];
                self.seqs[flow] = self.seqs[flow].wrapping_add(1);
                ("in0".to_owned(), p)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cumulative snapshot for the demo classifier: `per_port[i]` is the
    /// lifetime count on port `i` of the *installed* numbering.
    fn snapshot(per_port: &[u64]) -> Vec<ElementProfile> {
        let mut e = ElementProfile::new("cls", "Classifier");
        e.out_ports = per_port.to_vec();
        e.packets = per_port.iter().sum();
        vec![e]
    }

    fn tiny_graph() -> RouterGraph {
        read_config(
            "src :: Idle; cls :: Classifier(36/0bb8, 36/0bb9, 36/0bba, -); \
             a :: Discard; b :: Discard; c :: Discard; d :: Discard; \
             src -> cls; cls [0] -> a; cls [1] -> b; cls [2] -> c; cls [3] -> d;",
        )
        .unwrap()
    }

    fn policy() -> ReoptPolicy {
        ReoptPolicy {
            min_window_packets: 10,
            ..ReoptPolicy::default()
        }
    }

    #[test]
    fn quiet_and_stable_windows_do_not_recompile() {
        let mut ctrl = ReoptController::new(tiny_graph(), policy());
        // Below min_window_packets: quiet.
        assert!(matches!(
            ctrl.observe_window(&snapshot(&[3, 1, 0, 0])).unwrap(),
            WindowDecision::Quiet
        ));
        // Hot branch already first: stable (identity order).
        assert!(matches!(
            ctrl.observe_window(&snapshot(&[103, 11, 5, 0])).unwrap(),
            WindowDecision::Stable
        ));
        let g = ctrl.gauges();
        assert_eq!(g.windows_observed, 2);
        assert_eq!(g.recompiles, 0);
        assert_eq!(g.thrash_suppressed, 0);
    }

    #[test]
    fn divergent_window_recompiles_with_modeled_improvement() {
        let mut ctrl = ReoptController::new(tiny_graph(), policy());
        let dec = ctrl.observe_window(&snapshot(&[1, 2, 97, 0])).unwrap();
        let WindowDecision::Recompile(plan) = dec else {
            panic!("expected a recompile, got {dec:?}");
        };
        // Hottest-first among mutually disjoint ports: 97, then 2, then 1.
        assert_eq!(plan.report.reordered[0].order, vec![2, 1, 0, 3]);
        // installed cost = 1*1 + 2*2 + 97*3 = 296; candidate = 97*1 +
        // 2*2 + 1*3 = 104 → improvement ≈ 0.649.
        assert!((plan.improvement - (1.0 - 104.0 / 296.0)).abs() < 1e-9);
        assert!(plan.artifact.has_requirement("devirtualize"));
        assert_eq!(ctrl.gauges().recompiles, 1);
    }

    #[test]
    fn improvement_threshold_edge_suppresses_marginal_reorders() {
        // Two cold ports trade places: a real reorder, but a tiny win.
        let mut ctrl = ReoptController::new(
            tiny_graph(),
            ReoptPolicy {
                min_improvement: 0.20,
                ..policy()
            },
        );
        // Port 1 slightly hotter than port 0: reorder = [1,0,2,3],
        // improvement = 1 − (60+55·2+3)/(55+60·2+3) ≈ 0.028 < 0.20.
        assert!(matches!(
            ctrl.observe_window(&snapshot(&[55, 60, 1, 0])).unwrap(),
            WindowDecision::Stable
        ));
        // At a permissive threshold the same window recompiles.
        let mut eager = ReoptController::new(
            tiny_graph(),
            ReoptPolicy {
                min_improvement: 0.01,
                ..policy()
            },
        );
        assert!(matches!(
            eager.observe_window(&snapshot(&[55, 60, 1, 0])).unwrap(),
            WindowDecision::Recompile(_)
        ));
    }

    #[test]
    fn dwell_suppresses_back_to_back_installs() {
        let mut ctrl = ReoptController::new(
            tiny_graph(),
            ReoptPolicy {
                dwell_windows: 2,
                ..policy()
            },
        );
        let WindowDecision::Recompile(plan) =
            ctrl.observe_window(&snapshot(&[1, 2, 97, 0])).unwrap()
        else {
            panic!("first divergence should recompile")
        };
        // Install kept: counters keep accumulating from the snapshot.
        ctrl.swap_kept(plan.hoisted, &snapshot(&[1, 2, 197, 0]));
        // The mix flips back immediately — within the dwell, suppressed.
        // (Port numbering followed the install: old port 2 is now 0, so
        // "hot on old port 0" is hot on new port 1.)
        assert!(matches!(
            ctrl.observe_window(&snapshot(&[2, 200, 200, 1])).unwrap(),
            WindowDecision::Suppressed(SuppressReason::Dwell)
        ));
        assert_eq!(ctrl.gauges().thrash_suppressed, 1);
        // One more window inside the dwell: still suppressed.
        assert!(matches!(
            ctrl.observe_window(&snapshot(&[3, 400, 202, 2])).unwrap(),
            WindowDecision::Suppressed(SuppressReason::Dwell)
        ));
        // Past the dwell, the divergence is actionable again.
        assert!(matches!(
            ctrl.observe_window(&snapshot(&[4, 600, 204, 3])).unwrap(),
            WindowDecision::Recompile(_)
        ));
        assert_eq!(ctrl.gauges().thrash_suppressed, 2);
        assert_eq!(ctrl.gauges().recompiles, 2);
    }

    #[test]
    fn cooldown_after_rollback_freezes_the_loop() {
        let mut ctrl = ReoptController::new(
            tiny_graph(),
            ReoptPolicy {
                dwell_windows: 0,
                cooldown_windows: 2,
                ..policy()
            },
        );
        let WindowDecision::Recompile(_) = ctrl.observe_window(&snapshot(&[1, 2, 97, 0])).unwrap()
        else {
            panic!("expected recompile")
        };
        ctrl.swap_rolled_back(&snapshot(&[2, 3, 197, 0]));
        assert_eq!(ctrl.gauges().rollbacks, 1);
        // Divergence persists (counters keep growing each window), but
        // the cooldown holds for two windows...
        for round in 1..=2u64 {
            let snap = snapshot(&[2 + round, 3 + round, 197 + 200 * round, 0]);
            assert!(matches!(
                ctrl.observe_window(&snap).unwrap(),
                WindowDecision::Suppressed(SuppressReason::Cooldown)
            ));
        }
        // ...then the loop may try again.
        assert!(matches!(
            ctrl.observe_window(&snapshot(&[5, 6, 800, 0])).unwrap(),
            WindowDecision::Recompile(_)
        ));
    }

    #[test]
    fn swap_budget_bounds_install_rate() {
        let mut ctrl = ReoptController::new(
            tiny_graph(),
            ReoptPolicy {
                dwell_windows: 0,
                max_swaps: 1,
                ..policy()
            },
        );
        let WindowDecision::Recompile(plan) =
            ctrl.observe_window(&snapshot(&[1, 2, 97, 0])).unwrap()
        else {
            panic!("expected recompile")
        };
        ctrl.swap_kept(plan.hoisted, &snapshot(&[1, 2, 197, 0]));
        // Budget of one install is spent: every later divergence is
        // suppressed, forever.
        for round in 0..3 {
            let hot = 300 + 100 * round;
            assert!(matches!(
                ctrl.observe_window(&snapshot(&[2, hot, 198, 0])).unwrap(),
                WindowDecision::Suppressed(SuppressReason::SwapBudget)
            ));
        }
    }

    #[test]
    fn window_diff_is_saturating_and_name_matched() {
        let base = snapshot(&[10, 20, 30, 0]);
        let now = snapshot(&[15, 20, 45, 0]);
        let w = diff_profiles(&now, &base);
        assert_eq!(w[0].out_ports, vec![5, 0, 15, 0]);
        assert_eq!(w[0].packets, 20);
        // A shrunken counter (restarted engine) clamps to zero.
        let w = diff_profiles(&base, &now);
        assert_eq!(w[0].out_ports, vec![0, 0, 0, 0]);
    }

    #[test]
    fn demo_trace_mix_and_ordering() {
        let mut t = DemoTrace::new();
        let mut frames = t.window(200, 5, DEMO_BRANCHES);
        assert_eq!(frames.len(), 200);
        // UDP destination port 3000 + 5 = 0x0BBD sits at bytes 36..38.
        let hot = frames
            .iter()
            .filter(|(_, p)| p.data()[36] == 0x0b && p.data()[37] == 0xbd)
            .count();
        assert_eq!(hot, 180, "90% of the window hits the hot branch");
        // Sequence bytes increase per flow, across window boundaries and
        // hot-branch changes (source port 2000 + flow at bytes 34..36).
        frames.extend(t.window(40, 9, DEMO_BRANCHES));
        for flow in 0..DEMO_FLOWS {
            let sport = 2000 + flow;
            let seqs: Vec<u8> = frames
                .iter()
                .filter(|(_, p)| {
                    p.data()[34] == (sport >> 8) as u8 && p.data()[35] == (sport & 0xff) as u8
                })
                .map(|(_, p)| p.data()[p.len() - 1])
                .collect();
            assert!(!seqs.is_empty());
            assert!(
                seqs.windows(2).all(|w| w[1] == w[0] + 1),
                "flow {flow} sequence gap: {seqs:?}"
            );
        }
    }

    #[test]
    fn demo_config_parses_and_optimizes() {
        let g = demo_graph(DEMO_BRANCHES).unwrap();
        let art = optimize_pipeline(&g).unwrap();
        assert!(art.has_requirement("devirtualize"));
    }
}
