//! Parasol-style knob search for the sharded runtime
//! (`click-autotune`).
//!
//! The parallel runtime exposes three performance knobs — shard count,
//! ring capacity, transfer burst — whose best values depend on the host
//! (core count, scheduler quantum) and the workload (flow count,
//! per-packet cost). Hand-picking them bakes
//! one host's trade-offs into every run. Following the approach of
//! "Automated Optimization of Parameterized Data-Plane Programs with
//! Parasol" (PAPERS.md), this module searches the knob space against a
//! real measurement instead: a greedy hill-climb from the hand-picked
//! default, evaluating each candidate's wall-clock ns/packet on the
//! in-tree benchmark trace and moving while an evaluation budget lasts.
//!
//! Two properties the consumers rely on:
//!
//! * **The chosen config is never slower than the default.** The climb
//!   starts at the default and only moves to a strictly better
//!   neighbor, so `best_ns <= default_ns` by construction (ties keep
//!   the default).
//! * **The report is plain JSON**, rendered by the same zero-dependency
//!   writer as the profile format; the CI smoke job reads it.
//!
//! The search itself is measurement-agnostic: [`hill_climb`] takes the
//! evaluation function as a callback, so unit tests drive it with
//! synthetic cost surfaces and the `click-autotune` binary drives it
//! with the threaded runtime.

use crate::json::Json;
use click_elements::parallel::ParallelOpts;

/// One point in the knob space: everything [`ParallelOpts`] lets a
/// caller tune, minus fault-recovery policy (tuning recovery would
/// trade correctness, not time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TuneConfig {
    /// Worker shard count.
    pub shards: usize,
    /// SPSC ring capacity, in batches.
    pub ring_capacity: usize,
    /// Transfer burst (batch size): the floor of the adaptive bursts.
    pub burst: usize,
}

impl TuneConfig {
    /// The hand-picked default the benches use: `shards` workers with
    /// [`ParallelOpts::new`]'s ring default and the standard batched
    /// transfer burst.
    pub fn default_for(shards: usize, burst: usize) -> TuneConfig {
        let o = ParallelOpts::new(shards).batched(burst);
        TuneConfig {
            shards: o.shards,
            ring_capacity: o.ring_capacity,
            burst: o.burst,
        }
    }

    /// Materializes the config as runtime options (batched engine mode —
    /// the tuned workloads are the batched ones).
    pub fn to_opts(&self) -> ParallelOpts {
        ParallelOpts::new(self.shards)
            .batched(self.burst)
            .with_ring_capacity(self.ring_capacity)
    }

    /// Compact one-line rendering for logs: `shards=4 ring=256 burst=64`.
    pub fn describe(&self) -> String {
        format!(
            "shards={} ring={} burst={}",
            self.shards, self.ring_capacity, self.burst
        )
    }

    /// The config and its measured cost, as the report carries them.
    fn measured(self, ns: f64) -> Json {
        Json::obj([
            ("shards", Json::Int(self.shards as u64)),
            ("ring_capacity", Json::Int(self.ring_capacity as u64)),
            ("burst", Json::Int(self.burst as u64)),
            ("wall_ns_per_packet", Json::Num(ns)),
        ])
    }
}

/// Bounds of the search: how far each knob may wander. The defaults are
/// generous without being silly (rings and bursts move in powers of
/// two, so the whole space is small enough for a tiny budget to cover
/// its interesting corner).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchSpace {
    /// Highest shard count to consider.
    pub max_shards: usize,
    /// Ring capacity bounds (batches).
    pub min_ring: usize,
    /// Ring capacity bounds (batches).
    pub max_ring: usize,
    /// Burst bounds.
    pub min_burst: usize,
    /// Burst bounds.
    pub max_burst: usize,
}

impl Default for SearchSpace {
    fn default() -> SearchSpace {
        SearchSpace {
            max_shards: 8,
            min_ring: 2,
            max_ring: 4096,
            min_burst: 1,
            max_burst: 256,
        }
    }
}

impl SearchSpace {
    fn clamp(&self, mut c: TuneConfig) -> TuneConfig {
        c.shards = c.shards.clamp(1, self.max_shards);
        c.ring_capacity = c.ring_capacity.clamp(self.min_ring, self.max_ring);
        c.burst = c.burst.clamp(self.min_burst, self.max_burst);
        c
    }

    /// Single-knob moves from `c`: each knob halved/doubled, clamped to
    /// the space. Duplicates of `c` itself
    /// are filtered out, so a config at a bound produces fewer moves.
    fn neighbors(&self, c: &TuneConfig) -> Vec<TuneConfig> {
        let mut out = Vec::new();
        let mut push = |n: TuneConfig| {
            let n = self.clamp(n);
            if n != *c && !out.contains(&n) {
                out.push(n);
            }
        };
        push(TuneConfig {
            shards: c.shards * 2,
            ..*c
        });
        push(TuneConfig {
            shards: (c.shards / 2).max(1),
            ..*c
        });
        push(TuneConfig {
            ring_capacity: c.ring_capacity * 2,
            ..*c
        });
        push(TuneConfig {
            ring_capacity: (c.ring_capacity / 2).max(1),
            ..*c
        });
        push(TuneConfig {
            burst: c.burst * 2,
            ..*c
        });
        push(TuneConfig {
            burst: (c.burst / 2).max(1),
            ..*c
        });
        out
    }
}

/// Outcome of one workload's search.
#[derive(Debug, Clone, PartialEq)]
pub struct TunedWorkload {
    /// Workload label (e.g. `All+batched`).
    pub workload: String,
    /// The hand-picked starting config.
    pub default: TuneConfig,
    /// Its measured wall-clock ns/packet.
    pub default_ns: f64,
    /// The best config found (== `default` if nothing beat it).
    pub best: TuneConfig,
    /// Its measured wall-clock ns/packet (`<= default_ns`).
    pub best_ns: f64,
    /// Evaluations spent (each is one measured candidate).
    pub evaluations: usize,
}

impl TunedWorkload {
    /// Speedup of the chosen config over the default (>= 1.0 minus
    /// measurement noise, by construction of the search).
    pub fn improvement(&self) -> f64 {
        if self.best_ns > 0.0 {
            self.default_ns / self.best_ns
        } else {
            1.0
        }
    }
}

/// Greedy hill-climb from `default`: evaluate the default, then
/// repeatedly evaluate every unvisited neighbor of the current config
/// (while `budget` evaluations last) and move to the best one if it
/// strictly improves. Deterministic given a deterministic evaluator.
///
/// `eval` returns the config's cost in wall-clock ns/packet (lower is
/// better). It is called at most `budget` times.
pub fn hill_climb(
    default: TuneConfig,
    space: &SearchSpace,
    budget: usize,
    eval: &mut dyn FnMut(&TuneConfig) -> f64,
) -> (TuneConfig, f64, f64, usize) {
    let start = space.clamp(default);
    let default_ns = eval(&start);
    let mut evals = 1usize;
    let mut visited = vec![start];
    let (mut cur, mut cur_ns) = (start, default_ns);
    loop {
        let mut best_move: Option<(TuneConfig, f64)> = None;
        for n in space.neighbors(&cur) {
            if evals >= budget {
                break;
            }
            if visited.contains(&n) {
                continue;
            }
            let ns = eval(&n);
            evals += 1;
            visited.push(n);
            if ns < cur_ns && best_move.as_ref().is_none_or(|(_, b)| ns < *b) {
                best_move = Some((n, ns));
            }
        }
        match best_move {
            Some((n, ns)) => {
                cur = n;
                cur_ns = ns;
            }
            None => break,
        }
        if evals >= budget {
            break;
        }
    }
    (cur, cur_ns, default_ns, evals)
}

/// The autotune report: one [`TunedWorkload`] per tuned workload, plus
/// the run's budget and host shape. Written by `click-autotune`,
/// checked by the CI smoke job.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AutotuneReport {
    /// Evaluation budget per workload the run was given.
    pub budget: usize,
    /// `available_parallelism()` of the measuring host.
    pub host_cpus: usize,
    /// Per-workload outcomes.
    pub workloads: Vec<TunedWorkload>,
}

impl AutotuneReport {
    /// Renders the report as JSON.
    pub fn to_json(&self) -> String {
        let workloads = self.workloads.iter().map(|w| {
            Json::obj([
                ("workload", Json::Str(w.workload.clone())),
                ("default", w.default.measured(w.default_ns)),
                ("best", w.best.measured(w.best_ns)),
                ("evaluations", Json::Int(w.evaluations as u64)),
                ("improvement", Json::Num(w.improvement())),
            ])
        });
        Json::obj([
            ("report", Json::Str("click-autotune".into())),
            ("budget", Json::Int(self.budget as u64)),
            ("host_cpus", Json::Int(self.host_cpus as u64)),
            ("workloads", Json::Arr(workloads.collect())),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A smooth synthetic cost surface with its minimum inside the
    /// space: best at 4 shards, ring 512, burst 32.
    fn synthetic_cost(c: &TuneConfig) -> f64 {
        let dist = |a: usize, b: usize| ((a as f64).log2() - (b as f64).log2()).abs();
        100.0
            + 40.0 * dist(c.shards, 4)
            + 10.0 * dist(c.ring_capacity, 512)
            + 10.0 * dist(c.burst.max(1), 32)
    }

    #[test]
    fn hill_climb_improves_on_the_default() {
        let default = TuneConfig::default_for(1, 8);
        let mut evals = 0usize;
        let (best, best_ns, default_ns, used) =
            hill_climb(default, &SearchSpace::default(), 200, &mut |c| {
                evals += 1;
                synthetic_cost(c)
            });
        assert_eq!(evals, used);
        assert!(used <= 200);
        assert!(best_ns < default_ns, "{best_ns} vs {default_ns}");
        // The smooth surface's optimum is reachable by single-knob moves.
        assert_eq!(best.shards, 4);
        assert_eq!(best.ring_capacity, 512);
        assert_eq!(best.burst, 32);
    }

    #[test]
    fn best_is_never_worse_than_default() {
        // Adversarial surface: the default is the global minimum.
        let default = TuneConfig::default_for(2, 64);
        let (best, best_ns, default_ns, _) =
            hill_climb(default, &SearchSpace::default(), 50, &mut |c| {
                if *c == SearchSpace::default().clamp(default) {
                    10.0
                } else {
                    1000.0
                }
            });
        assert_eq!(best, default);
        assert!(best_ns <= default_ns);
    }

    #[test]
    fn budget_bounds_evaluations() {
        let default = TuneConfig::default_for(1, 8);
        let mut evals = 0usize;
        let (_, _, _, used) = hill_climb(default, &SearchSpace::default(), 5, &mut |c| {
            evals += 1;
            synthetic_cost(c)
        });
        assert_eq!(evals, used);
        assert!(used <= 5);
    }

    #[test]
    fn neighbors_stay_in_bounds_and_move_one_knob() {
        let space = SearchSpace::default();
        let c = TuneConfig::default_for(8, 256); // shards and burst at the cap
        for n in space.neighbors(&c) {
            assert!(n.shards >= 1 && n.shards <= space.max_shards);
            assert!(n.ring_capacity >= space.min_ring && n.ring_capacity <= space.max_ring);
            assert!(n.burst >= space.min_burst && n.burst <= space.max_burst);
            assert_ne!(n, c);
        }
    }

    /// The report is JSON whatever the workload is called, with the keys
    /// CI's `autotune-smoke` job reads.
    #[test]
    fn report_parses_and_carries_the_keys_ci_reads() {
        let default = TuneConfig::default_for(4, 64);
        let report = AutotuneReport {
            budget: 48,
            host_cpus: 2,
            workloads: vec![TunedWorkload {
                workload: "All+\"batched\"".into(),
                default,
                default_ns: 412.25,
                best: TuneConfig {
                    ring_capacity: 512,
                    ..default
                },
                best_ns: 333.5,
                evaluations: 37,
            }],
        };
        let v = crate::json::parse(&report.to_json()).unwrap();
        let Some(Json::Arr(workloads)) = v.get("workloads") else {
            panic!("no workloads array: {v:?}")
        };
        let w = &workloads[0];
        assert_eq!(
            w.get("workload").and_then(Json::as_str),
            Some("All+\"batched\"")
        );
        assert_eq!(w.get("improvement"), Some(&Json::Num(1.24)));
        for (side, ring, ns) in [("default", 256, 412.25), ("best", 512, 333.5)] {
            let expect = Json::obj([
                ("shards", Json::Int(4)),
                ("ring_capacity", Json::Int(ring)),
                ("burst", Json::Int(64)),
                ("wall_ns_per_packet", Json::Num(ns)),
            ]);
            assert_eq!(w.get(side), Some(&expect), "{side}");
        }
    }

    #[test]
    fn configs_materialize_as_runtime_options() {
        let c = TuneConfig {
            shards: 4,
            ring_capacity: 128,
            burst: 16,
        };
        let o = c.to_opts();
        assert_eq!(o.shards, 4);
        assert_eq!(o.ring_capacity, 128);
        assert_eq!(o.burst, 16);
        assert!(o.batching);
    }
}
