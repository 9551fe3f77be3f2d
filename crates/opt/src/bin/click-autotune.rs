//! `click-autotune`: search the parallel runtime's knobs against a real
//! measurement and emit the best config per workload as JSON.
//!
//! Usage:
//!
//! ```text
//! click-autotune [--workload base|all|both] [--budget N] [--passes P]
//!                [--ifaces N] [--max-shards K] [--out FILE]
//! ```
//!
//! The tool rebuilds the benchmark's Base and All (xform +
//! fastclassifier + devirtualize) IP-router variants, replays the
//! standard 64-flow UDP trace through the threaded
//! [`click_elements::parallel::ParallelRouter`], and hill-climbs the
//! knob space ({shard count, ring capacity, burst}) from the
//! hand-picked default — Parasol-style search-the-knobs, with the
//! runtime itself as the objective (see
//! [`click_opt::autotune`]). The default config is always the first
//! candidate, so the emitted best is never slower than it.
//!
//! The report is checked by the CI `autotune-smoke` job (which asserts
//! `best <= default`).

use click_core::error::Result;
use click_core::graph::RouterGraph;
use click_core::lang::read_config;
use click_core::registry::Library;
use click_elements::element::{DeviceId, Element};
use click_elements::fast::FastElement;
use click_elements::ip_router::{test_packet_flow, IpRouterSpec};
use click_elements::packet::Packet;
use click_elements::parallel::ParallelRouter;
use click_elements::router::Slot;
use click_opt::autotune::{hill_climb, AutotuneReport, SearchSpace, TuneConfig, TunedWorkload};
use click_opt::devirtualize::devirtualize;
use click_opt::fastclassifier::fastclassifier;
use click_opt::tool::{filter_args, number, refuse};
use click_opt::xform::{apply_patterns, ip_combo_patterns};
use std::collections::HashSet;
use std::time::Instant;

/// Distinct UDP flows in the tuning trace (matches the bench trace).
const FLOWS: usize = 64;
/// Packets per flow per trace pass (matches the bench trace).
const PACKETS_PER_FLOW: usize = 16;
/// The bench's standard batched transfer burst (the default config).
const DEFAULT_BURST: usize = 64;
/// Default shard count of the hand-picked config the search starts at.
const DEFAULT_SHARDS: usize = 4;

const USAGE: &str = "click-autotune [--workload base|all|both] [--budget N] \
    [--passes P] [--ifaces N] [--max-shards K] [--out FILE]";

/// The tuning trace: `FLOWS` cross-interface UDP flows of
/// `PACKETS_PER_FLOW` frames each, interleaved round-robin.
fn flow_frames(spec: &IpRouterSpec, ifaces: usize) -> Vec<(usize, Packet)> {
    let mut out = Vec::with_capacity(FLOWS * PACKETS_PER_FLOW);
    for _ in 0..PACKETS_PER_FLOW {
        for f in 0..FLOWS {
            let src = f % (ifaces / 2);
            let dst = src + ifaces / 2;
            out.push((src, test_packet_flow(spec, src, dst, 1024 + f as u16, 5678)));
        }
    }
    out
}

/// Builds the Base and All variants the benches measure (All = xform +
/// fastclassifier + devirtualize, the paper's full static pipeline).
fn build_workloads(ifaces: usize) -> Result<(RouterGraph, RouterGraph)> {
    let spec = IpRouterSpec::standard(ifaces);
    let base = read_config(&spec.config())?;
    let mut all = base.clone();
    apply_patterns(&mut all, &ip_combo_patterns()?)?;
    fastclassifier(&mut all)?;
    devirtualize(&mut all, &Library::standard(), &HashSet::new())?;
    Ok((base, all))
}

/// Measures one config's wall-clock ns/packet: median of `passes` timed
/// trace passes through the threaded runtime (one warm-up pass first).
fn measure<S: Slot + 'static>(
    graph: &RouterGraph,
    frames: &[(usize, Packet)],
    ifaces: usize,
    cfg: &TuneConfig,
    passes: usize,
) -> f64 {
    let mut router = match ParallelRouter::from_graph::<S>(graph, cfg.to_opts()) {
        Ok(r) => r,
        Err(_) => return f64::INFINITY, // unbuildable configs lose
    };
    let devs: Vec<DeviceId> = (0..ifaces)
        .map(|i| router.device_id(&format!("eth{i}")).expect("device"))
        .collect();
    let mut drain = click_elements::batch::PacketBatch::default();
    let mut pass = |router: &mut ParallelRouter| {
        for (src, p) in frames {
            router.inject(devs[*src], p.clone());
        }
        let got = router.run_until_idle();
        assert_eq!(got, frames.len(), "runtime dropped packets while tuning");
        for &d in &devs {
            router.drain_tx_into(d, &mut drain);
        }
        drain.recycle_packets();
    };
    pass(&mut router); // warm the shard engines and pools
    let mut samples: Vec<f64> = (0..passes.max(1))
        .map(|_| {
            let t = Instant::now();
            pass(&mut router);
            t.elapsed().as_nanos() as f64 / frames.len() as f64
        })
        .collect();
    router.shutdown();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn tune_workload(
    label: &str,
    graph: &RouterGraph,
    frames: &[(usize, Packet)],
    ifaces: usize,
    space: &SearchSpace,
    budget: usize,
    passes: usize,
) -> TunedWorkload {
    let devirt = graph.has_requirement("devirtualize");
    let mut eval = |c: &TuneConfig| {
        let ns = if devirt {
            measure::<FastElement>(graph, frames, ifaces, c, passes)
        } else {
            measure::<Box<dyn Element>>(graph, frames, ifaces, c, passes)
        };
        eprintln!(
            "click-autotune:   {label}: {} -> {ns:.1} ns/pkt",
            c.describe()
        );
        ns
    };
    let default = TuneConfig::default_for(DEFAULT_SHARDS.min(space.max_shards), DEFAULT_BURST);
    let (best, best_ns, default_ns, evaluations) = hill_climb(default, space, budget, &mut eval);
    eprintln!(
        "click-autotune: {label}: default {default_ns:.1} ns/pkt -> best {best_ns:.1} ns/pkt \
         ({evaluations} evaluations): {}",
        best.describe()
    );
    TunedWorkload {
        workload: label.to_string(),
        default,
        default_ns,
        best,
        best_ns,
        evaluations,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (flags, positional) = filter_args(
        USAGE,
        &args,
        &[
            "workload",
            "budget",
            "passes",
            "ifaces",
            "max-shards",
            "out",
        ],
        &[],
    );
    if !positional.is_empty() {
        refuse(USAGE, "click-autotune takes no configuration");
    }
    let mut workload = "both".to_string();
    let mut budget = 40usize;
    let mut passes = 5usize;
    let mut ifaces = 4usize;
    let mut space = SearchSpace::default();
    let mut out: Option<String> = None;
    for (flag, value) in &flags {
        let num = || number::<usize>(USAGE, flag, value);
        match flag.as_str() {
            "workload" => workload = value.as_deref().unwrap_or_default().to_lowercase(),
            "budget" => budget = num().max(1),
            "passes" => passes = num().max(1),
            "ifaces" => ifaces = num().max(2),
            "max-shards" => space.max_shards = num().max(1),
            "out" => out = value.clone(),
            _ => unreachable!("filter_args admits only the flags above"),
        }
    }
    let (tune_base, tune_all) = match workload.as_str() {
        "base" => (true, false),
        "all" => (false, true),
        "both" => (true, true),
        _ => refuse(USAGE, "--workload is base, all or both"),
    };

    let (base, all) = build_workloads(ifaces).unwrap_or_else(|e| {
        eprintln!("click-autotune: building workloads: {e}");
        std::process::exit(1);
    });
    let spec = IpRouterSpec::standard(ifaces);
    let frames = flow_frames(&spec, ifaces);
    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
    eprintln!(
        "click-autotune: {FLOWS} flows x {PACKETS_PER_FLOW} packets, {ifaces} interfaces, \
         budget {budget} evaluations x {passes} passes, host has {host_cpus} CPU(s)"
    );

    let mut report = AutotuneReport {
        budget,
        host_cpus,
        workloads: Vec::new(),
    };
    if tune_base {
        report.workloads.push(tune_workload(
            "Base+batched",
            &base,
            &frames,
            ifaces,
            &space,
            budget,
            passes,
        ));
    }
    if tune_all {
        report.workloads.push(tune_workload(
            "All+batched",
            &all,
            &frames,
            ifaces,
            &space,
            budget,
            passes,
        ));
    }

    let json = report.to_json();
    match &out {
        Some(path) => {
            std::fs::write(path, &json).unwrap_or_else(|e| {
                eprintln!("click-autotune: writing {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("click-autotune: wrote {path}");
        }
        None => print!("{json}"),
    }

    // The search starts at the default and only moves on improvement,
    // so a regression here means the measurement itself is broken.
    for w in &report.workloads {
        assert!(
            w.best_ns <= w.default_ns,
            "autotune chose a slower config for {}",
            w.workload
        );
    }
}
