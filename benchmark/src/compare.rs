//! `--compare BASE.json NEW.json`: judges one suite result against
//! another, metric by metric and workload by workload.
//!
//! The rule is the one every later change is held to: the new median may
//! not be worse than the base median by more than the metric's bound.
//! When it is, but the two sets of runs overlap (their q1–q3 ranges
//! intersect), the difference is no bigger than the runs' own spread and
//! the verdict is *unresolved*, not *regressed*. *Improved* is only said
//! when the new runs are better by more than the base's own spread and
//! the ranges do not overlap.

use crate::json::Json;
use crate::manifest::{self, Better};

/// The four verdicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better than base by more than base's spread, ranges apart.
    Improved,
    /// No worse than the bound allows.
    WithinBound,
    /// Worse than the bound allows, ranges apart.
    Regressed,
    /// Worse than the bound allows, but the runs overlap.
    Unresolved,
}

impl Verdict {
    fn text(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Median and quartiles of one (metric, workload) over a suite's rounds.
#[derive(Debug, Clone, Copy)]
pub struct Runs {
    /// Median over rounds.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

/// Judges `new` against `base`.
pub fn judge(base: Runs, new: Runs, better: Better, bound: f64) -> Verdict {
    // Turn "higher is better" around so that larger always means worse.
    let flip = |r: Runs| match better {
        Better::Lower => r,
        Better::Higher => Runs {
            median: -r.median,
            q1: -r.q3,
            q3: -r.q1,
        },
    };
    let (b, n) = (flip(base), flip(new));
    let scale = b.median.abs();
    let worse_by = (n.median - b.median) / scale;
    // One run a side has no spread to judge by: a zero-width range can
    // neither prove a regression nor an improvement.
    let single = b.q1 == b.q3 || n.q1 == n.q3;
    let overlap = single || (n.q1 <= b.q3 && b.q1 <= n.q3);
    if worse_by > bound {
        if overlap {
            Verdict::Unresolved
        } else {
            Verdict::Regressed
        }
    } else if !overlap && n.median < b.median && (b.median - n.median) > (b.q3 - b.q1) {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    }
}

fn runs_of(metric: &Json) -> Option<Runs> {
    let num = |k| metric.get(k).and_then(Json::as_f64);
    Some(Runs {
        median: num("median")?,
        q1: num("q1")?,
        q3: num("q3")?,
    })
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Entry point of `--compare`. Exit code 1 if anything regressed or the
/// new run had failed operations.
pub fn main(args: &[String]) -> Result<i32, String> {
    let i = args
        .iter()
        .position(|a| a == "--compare")
        .expect("dispatched on --compare");
    let (Some(base_path), Some(new_path)) = (args.get(i + 1), args.get(i + 2)) else {
        return Err("--compare needs BASE.json NEW.json".into());
    };
    let (base, new) = (load(base_path)?, load(new_path)?);
    for (doc, path) in [(&base, base_path), (&new, new_path)] {
        if doc.get("comparable") != Some(&Json::Bool(true)) {
            println!("note: {path} is a --quick result; its numbers are not comparable");
        }
    }
    for key in ["cpu_model", "nproc", "kernel", "rustc"] {
        let of = |d: &Json| d.get("fingerprint").and_then(|f| f.get(key)).cloned();
        if of(&base) != of(&new) {
            println!("note: {key} differs between the two results");
        }
    }
    let workloads = |d: &'_ Json| d.get("workloads").and_then(Json::as_obj).map(<[_]>::to_vec);
    let base_w = workloads(&base).ok_or("BASE has no workloads")?;
    let mut bad = false;
    println!(
        "{:<12} {:<14} {:>14} {:>14} {:>7}  verdict",
        "workload", "metric", "base", "new", "ratio"
    );
    for (name, bw) in &base_w {
        let Some(nw) = new.get("workloads").and_then(|w| w.get(name)) else {
            println!("{name:<12} missing from NEW");
            bad = true;
            continue;
        };
        if nw.get("failed").and_then(Json::as_f64).unwrap_or(0.0) > 0.0 {
            println!("{name:<12} NEW has failed operations");
            bad = true;
        }
        for m in &manifest::END_TO_END {
            let metric = |w: &Json| {
                w.get("metrics")
                    .and_then(|ms| ms.get(m.name))
                    .and_then(runs_of)
            };
            let (Some(b), Some(n)) = (metric(bw), metric(nw)) else {
                continue; // not this workload's metric, or a skipped workload
            };
            let verdict = judge(b, n, m.better, m.bound);
            bad |= verdict == Verdict::Regressed;
            println!(
                "{name:<12} {:<14} {:>14.4} {:>14.4} {:>7.3}  {} (bound {:.0} %, base q1..q3 {:.4}..{:.4}, new {:.4}..{:.4})",
                m.name,
                b.median,
                n.median,
                n.median / b.median,
                verdict.text(),
                m.bound * 100.0,
                b.q1,
                b.q3,
                n.q1,
                n.q3,
            );
        }
    }
    Ok(i32::from(bad))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(q1: f64, median: f64, q3: f64) -> Runs {
        Runs { median, q1, q3 }
    }

    #[test]
    fn lower_is_better_verdicts() {
        let base = runs(98.0, 100.0, 102.0);
        let j = |new| judge(base, new, Better::Lower, 0.10);
        assert_eq!(j(runs(99.0, 101.0, 103.0)), Verdict::WithinBound);
        assert_eq!(
            j(runs(107.0, 109.0, 111.0)),
            Verdict::WithinBound,
            "9 % worse: allowed"
        );
        assert_eq!(j(runs(113.0, 115.0, 117.0)), Verdict::Regressed);
        // 15 % worse on the medians, but the new runs are so spread out
        // that they overlap the base's: cannot tell.
        assert_eq!(j(runs(101.0, 115.0, 130.0)), Verdict::Unresolved);
        assert_eq!(j(runs(88.0, 90.0, 92.0)), Verdict::Improved);
        // Better, but by less than the base's own q1..q3 width.
        assert_eq!(j(runs(96.5, 97.0, 97.5)), Verdict::WithinBound);
    }

    #[test]
    fn single_runs_are_never_resolved() {
        let one = |v| runs(v, v, v);
        assert_eq!(
            judge(one(100.0), one(150.0), Better::Lower, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(one(100.0), one(50.0), Better::Lower, 0.10),
            Verdict::WithinBound
        );
    }

    #[test]
    fn higher_is_better_is_the_mirror_image() {
        let base = runs(0.98, 1.0, 1.02);
        let j = |new| judge(base, new, Better::Higher, 0.10);
        assert_eq!(j(runs(0.83, 0.85, 0.87)), Verdict::Regressed);
        assert_eq!(j(runs(1.18, 1.2, 1.22)), Verdict::Improved);
        assert_eq!(j(runs(0.7, 0.85, 1.0)), Verdict::Unresolved);
    }
}
