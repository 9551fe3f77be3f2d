//! The seven workloads and why each exists.
//!
//! A workload is a generated router, the engine and path it runs on, and
//! its traffic. What differs between them is which layer the time goes
//! to, so a change to one layer has a workload that shows it and a
//! workload on which the prediction is "no change". All traffic is
//! 60-byte UDP frames (64 with CRC).
//!
//! Each workload exists for a few end-to-end metrics ([`Spec::owns`]) and
//! most of its run goes to those. The benchmark driver's contract wants
//! every metric in every run's result, so a run also measures the others
//! on the workload's own router, in a small share of its time; `--suite`
//! and `--compare` leave them out.

use crate::gen::{Plan, Rng};

/// Which engine runs the element graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Unoptimized graph, `Box<dyn Element>` dispatch, scalar transfers.
    Dyn,
    /// XF+FC+DV graph on the compiled (enum) engine, batched at burst 64.
    Compiled,
}

/// How frames reach the engine (see [`crate::paths`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathKind {
    /// `DeviceBank::inject` / `recycle_tx`.
    Inject,
    /// `MemBackend` devices and `run_with_devices`.
    Wire,
    /// `ParallelRouter` with one worker shard.
    Sharded,
}

/// How a run's measuring time is split between the three phases.
#[derive(Debug, Clone, Copy)]
pub struct Shares {
    /// Closed-loop forwarding (`ns_per_pkt`).
    pub forward: f64,
    /// Open-loop latency (`lat_p50_us`).
    pub latency: f64,
    /// Control plane: compile, swap, checkpoint.
    pub control: f64,
}

/// One workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it exists, as in `BENCHMARK.json`.
    pub why: &'static str,
    /// Engine the router runs on.
    pub engine: Engine,
    /// Path frames take to it.
    pub path: PathKind,
    /// Interleave control-plane writes with forwarding (every 1024
    /// frames: recompile, hot swap, checkpoint).
    pub churn: bool,
    /// Phase split.
    pub shares: Shares,
    /// The end-to-end metrics this workload exists to measure.
    pub owns: &'static [&'static str],
}

const FORWARDS: &[&str] = &["ns_per_pkt", "setup_s", "peak_rss_mb"];
const FORWARDS_WITH_LATENCY: &[&str] = &["ns_per_pkt", "lat_p50_us", "setup_s", "peak_rss_mb"];

/// A workload that exists for its forwarding cost. A control cycle on a
/// Figure-1 configuration takes 2.5 ms, so 15 % still gives the
/// contract-only metrics hundreds of repetitions.
const FORWARDING: Shares = Shares {
    forward: 0.6,
    latency: 0.25,
    control: 0.15,
};
/// A workload that also exists for its open-loop latency.
const FORWARDING_AND_LATENCY: Shares = Shares {
    forward: 0.45,
    latency: 0.4,
    control: 0.15,
};

/// All workloads, in reporting order.
pub const ALL: [Spec; 7] = [
    Spec {
        name: "ip_base",
        why: "Figure-1 router unoptimized on the dyn engine, scalar: the paper's denominator; vtable dispatch through 16 generic elements is nearly all the work",
        engine: Engine::Dyn,
        path: PathKind::Inject,
        churn: false,
        shares: FORWARDING,
        owns: FORWARDS,
    },
    Spec {
        name: "ip_all",
        why: "same traffic, XF+FC+DV graph on the compiled engine, batched: the fastest path; generic elements are bypassed, per-batch engine overhead and the pool dominate",
        engine: Engine::Compiled,
        path: PathKind::Inject,
        churn: false,
        shares: FORWARDING,
        owns: FORWARDS,
    },
    Spec {
        name: "wire_all",
        why: "the ip_all router driven wire-to-wire through MemBackend devices and run_with_devices: about half the time is device I/O and frame copies, none of which ip_all sees",
        engine: Engine::Compiled,
        path: PathKind::Wire,
        churn: false,
        shares: FORWARDING_AND_LATENCY,
        owns: FORWARDS_WITH_LATENCY,
    },
    Spec {
        name: "sharded_all",
        why: "the ip_all graph on ParallelRouter with exactly one worker shard (2 threads): inject-ring-worker-ring-collect hand-off is the extra cost; shows what 'serial is the 1-shard case' would cost",
        engine: Engine::Compiled,
        path: PathKind::Sharded,
        churn: false,
        shares: FORWARDING_AND_LATENCY,
        owns: FORWARDS_WITH_LATENCY,
    },
    Spec {
        name: "tables",
        why: "ip_all chain over 100000 seeded /24 routes and a 200-rule IPFilter, 16384 destination prefixes: LPM and classifier data structures, not dispatch, are about half the time",
        engine: Engine::Compiled,
        path: PathKind::Inject,
        churn: false,
        shares: Shares {
            // One control cycle on 100 000 routes takes 0.4 s, and the
            // open loop's steps miss the caches of the big tables, which
            // makes its windows the noisiest there are.
            forward: 0.5,
            latency: 0.25,
            control: 0.25,
        },
        owns: FORWARDS,
    },
    Spec {
        name: "reconfig",
        why: "the ip_all router with writes beside reads: every 1024 frames recompile, hot swap and checkpoint; a forwarding gain bought with heavier per-element state or from_graph shows here",
        engine: Engine::Compiled,
        path: PathKind::Inject,
        churn: true,
        shares: Shares {
            // The forwarding phase is where the writes happen (`churn`);
            // the control phase only adds `compile_s`.
            forward: 0.8,
            latency: 0.15,
            control: 0.05,
        },
        owns: &[
            "ns_per_pkt",
            "swap_pause_us",
            "ckpt_cut_us",
            "setup_s",
            "peak_rss_mb",
        ],
    },
    Spec {
        name: "toolchain",
        why: "compile-bound: the optimizer chain over fw200 (fastclassifier-bound), ip64 (xform-bound) and rt100k (parse/check/build-bound); forwarding runs on the fw200 output",
        engine: Engine::Compiled,
        path: PathKind::Inject,
        churn: false,
        shares: Shares {
            forward: 0.2,
            latency: 0.15,
            control: 0.65,
        },
        owns: &["compile_s", "setup_s", "peak_rss_mb"],
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Spec> {
    ALL.iter().find(|s| s.name == name)
}

/// A configuration to generate: the plan, plus how many flows and frames
/// its traffic has.
#[derive(Debug, Clone)]
pub struct Input {
    /// Short name (`own`, `ip64`, ...), used in messages.
    pub name: &'static str,
    /// The router.
    pub plan: Plan,
    /// Distinct flows in its traffic.
    pub flows: usize,
    /// Frames in its trace.
    pub trace_len: usize,
}

/// Routes of the big-table configurations.
pub const BIG_ROUTES: usize = 100_000;
/// Rules of the firewall configurations.
pub const FILTER_RULES: usize = 200;

/// The configurations a workload uses, generated from the run's seed.
/// The first is the router the workload forwards on; the rest (only
/// `toolchain` has any) are additional inputs to the compile chain, each
/// with a short probe trace to check its output by.
pub fn inputs(spec: &Spec, rng: &mut Rng) -> Vec<Input> {
    let figure1 = |name, plan| Input {
        name,
        plan,
        flows: 1024,
        trace_len: 4096,
    };
    match spec.name {
        "tables" => vec![Input {
            name: "own",
            plan: Plan::figure1(4)
                .with_routes(rng, BIG_ROUTES)
                .with_filter(rng, FILTER_RULES),
            flows: 16_384,
            trace_len: 16_384,
        }],
        "toolchain" => vec![
            figure1("fw200", Plan::figure1(4).with_filter(rng, FILTER_RULES)),
            Input {
                name: "ip64",
                plan: Plan::figure1(64),
                flows: 256,
                trace_len: 256,
            },
            Input {
                name: "rt100k",
                plan: Plan::figure1(4).with_routes(rng, BIG_ROUTES),
                flows: 256,
                trace_len: 256,
            },
        ],
        _ => vec![figure1("own", Plan::figure1(4))],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::END_TO_END;

    #[test]
    fn every_owned_metric_is_an_end_to_end_metric_and_each_has_an_owner() {
        for w in &ALL {
            for m in w.owns {
                assert!(END_TO_END.iter().any(|e| e.name == *m), "{}: {m}", w.name);
            }
        }
        for e in &END_TO_END {
            assert!(ALL.iter().any(|w| w.owns.contains(&e.name)), "{}", e.name);
        }
    }
}
