//! The benchmark's contract in one place: metric names, units, directions
//! and regression bounds. `BENCHMARK.json` at the repository root is this
//! table printed (`--manifest`); a unit test keeps the two equal.

use crate::json::Json;
use crate::workloads;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, sizes).
    Lower,
    /// Larger values are better (hit rates, gains).
    Higher,
}

impl Better {
    fn text(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the router would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// Seconds one run measures for.
pub const RUN_SECONDS: u64 = 12;

/// The end-to-end metrics. Every single run reports every one; which
/// workload each belongs to is [`crate::workloads::Spec::owns`].
///
/// The bounds come from back-to-back runs of one commit on the 2-vCPU
/// pipeline host (figures in `README.md`): each is about three times the
/// widest run-to-run spread any workload showed there, capped at the
/// contract's 0.25 — which every timing reaches, because a neighbour that
/// takes a CPU for a whole run slows it by 15 % whatever the estimator.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "ns_per_pkt",
        unit: "ns",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "lat_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "compile_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "swap_pause_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ckpt_cut_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.20,
    },
];

/// `BENCHMARK.json`, given the per-layer metric table.
pub fn benchmark_json(per_layer: &[(&'static str, &'static str, Better)]) -> String {
    let workloads = workloads::ALL
        .iter()
        .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
        .collect();
    let e2e = END_TO_END
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.text())),
                ("bound", Json::Num(m.bound)),
            ])
        })
        .collect();
    let layers = per_layer
        .iter()
        .map(|&(name, unit, better)| {
            Json::obj([
                ("name", Json::str(name)),
                ("unit", Json::str(unit)),
                ("better", Json::str(better.text())),
            ])
        })
        .collect();
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let top = [
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        ("workloads", Json::Arr(workloads)),
        ("end_to_end", Json::Arr(e2e)),
        ("per_layer", Json::Arr(layers)),
    ];
    // One top-level key per line keeps the file reviewable.
    let body: Vec<String> = top
        .iter()
        .map(|(k, v)| format!("  {}: {}", Json::str(*k).render(), pretty(v)))
        .collect();
    format!("{{\n{}\n}}\n", body.join(",\n"))
}

/// Arrays of objects one element per line; everything else compact.
fn pretty(v: &Json) -> String {
    match v {
        Json::Arr(a) if a.iter().any(|e| matches!(e, Json::Obj(_))) => {
            let lines: Vec<String> = a.iter().map(|e| format!("    {}", e.render())).collect();
            format!("[\n{}\n  ]", lines.join(",\n"))
        }
        other => other.render(),
    }
}
