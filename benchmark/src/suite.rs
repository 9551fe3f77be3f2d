//! The whole benchmark in one command: every workload, each run in its
//! own child process, in interleaved rounds (A B C … A B C …) so that a
//! slow phase of the host spreads over all workloads.
//!
//! The result file keeps, per workload, the end-to-end metrics the
//! workload exists for ([`crate::workloads::Spec::owns`]) — a metric a
//! workload does not exercise is left out, not stored as a number — with
//! every round's value and estimator diagnostics, and the median and
//! quartiles over rounds, which is what `--compare` judges by.

use crate::cli::Flags;
use crate::estimator::quartiles;
use crate::fingerprint::fingerprint;
use crate::json::Json;
use crate::manifest;
use crate::run::out_dir;
use crate::workloads;
use std::process::Command;

/// Interleaved rounds of a full suite; `--quick` makes one.
const ROUNDS: usize = 3;

#[derive(Default)]
struct Collected {
    skipped: bool,
    attempted: f64,
    failed: f64,
    /// The factor the round's times were divided by, so the wall-clock
    /// values can be had back.
    host_speed: Vec<f64>,
    /// `(metric, unit, one value per round, one diagnostics object per
    /// round)`, in first-seen order.
    metrics: Vec<(String, String, Vec<f64>, Vec<Json>)>,
}

/// The result object a child printed as its last line.
fn last_line_json(stdout: &[u8]) -> Result<Json, String> {
    let text = String::from_utf8_lossy(stdout);
    let line = text.lines().last().ok_or("child printed nothing")?;
    Json::parse(line)
}

/// Runs the suite. Returns the exit code: 0 only if nothing failed.
pub fn main(flags: &Flags<'_>) -> Result<i32, String> {
    let quick = flags.has("--quick");
    let rounds = if quick { 1 } else { ROUNDS };
    let seconds: f64 = flags.parsed(
        "--seconds",
        if quick {
            1.0
        } else {
            manifest::RUN_SECONDS as f64
        },
    )?;
    let seed: u64 = flags.parsed("--seed", 1)?;
    let out = flags
        .value("--out")
        .map_or_else(|| out_dir().join("suite.json"), std::path::PathBuf::from);
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;

    let mut collected: Vec<Collected> = workloads::ALL
        .iter()
        .map(|_| Collected::default())
        .collect();
    let mut ok = true;
    for round in 0..rounds {
        for (w, c) in workloads::ALL.iter().zip(&mut collected) {
            // The child's detail file carries the estimator diagnostics;
            // one left by an earlier run must not be taken for this one's.
            let detail_path = out_dir().join(format!("run.{}.trace0.json", w.name));
            let _ = std::fs::remove_file(&detail_path);
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name, "--trace", "0"])
                .args(["--seed", &(seed + round as u64).to_string()])
                .args(["--seconds", &seconds.to_string()]);
            if quick {
                cmd.arg("--quick");
            }
            let child = cmd
                .output()
                .map_err(|e| format!("spawning {}: {e}", w.name))?;
            if child.status.code() == Some(3) {
                c.skipped = true;
                println!("round {round} {:<12} skipped (needs 2 CPUs)", w.name);
                continue;
            }
            let result = last_line_json(&child.stdout);
            let Ok(result) = result else {
                ok = false;
                c.failed += 1.0;
                c.attempted += 1.0;
                println!(
                    "round {round} {:<12} NO RESULT (exit {:?})",
                    w.name,
                    child.status.code()
                );
                eprint!("{}", String::from_utf8_lossy(&child.stderr));
                continue;
            };
            let detail = std::fs::read_to_string(&detail_path)
                .ok()
                .and_then(|t| Json::parse(&t).ok())
                .unwrap_or(Json::Null);
            let num = |k: &str| result.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            c.attempted += num("attempted");
            c.failed += num("failed");
            ok &= child.status.success() && num("failed") == 0.0;
            c.host_speed.push(
                detail
                    .get("host_speed")
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN),
            );
            let mut line = format!("round {round} {:<12}", w.name);
            for (name, v) in result.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
                if !w.owns.contains(&name.as_str()) {
                    continue;
                }
                let value = v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let unit = v.get("unit").and_then(Json::as_str).unwrap_or("");
                let diagnostics = detail
                    .get("metrics")
                    .and_then(|m| m.get(name))
                    .cloned()
                    .unwrap_or(Json::Null);
                line += &format!(" {name} {value:.4} {unit};");
                match c.metrics.iter_mut().find(|m| m.0 == *name) {
                    Some(m) => {
                        m.2.push(value);
                        m.3.push(diagnostics);
                    }
                    None => c.metrics.push((
                        name.clone(),
                        unit.to_string(),
                        vec![value],
                        vec![diagnostics],
                    )),
                }
            }
            println!("{line} failed {}", num("failed"));
        }
    }

    let doc = Json::obj([
        ("comparable", Json::Bool(!quick)),
        ("rounds", Json::Num(rounds as f64)),
        ("seconds", Json::Num(seconds)),
        ("fingerprint", fingerprint(seed)),
        (
            "workloads",
            Json::Obj(
                workloads::ALL
                    .iter()
                    .zip(&collected)
                    .map(|(w, c)| (w.name.to_string(), workload_json(c)))
                    .collect(),
            ),
        ),
    ]);
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out, doc.render() + "\n").map_err(|e| format!("{}: {e}", out.display()))?;
    println!(
        "wrote {}{}",
        out.display(),
        if quick {
            " (QUICK: not comparable)"
        } else {
            ""
        }
    );
    Ok(i32::from(!ok))
}

fn workload_json(c: &Collected) -> Json {
    let nums = |values: &[f64]| Json::Arr(values.iter().map(|&v| Json::Num(v)).collect());
    let metrics = c
        .metrics
        .iter()
        .map(|(name, unit, values, per_round)| {
            let (q1, median, q3) = quartiles(values);
            let m = Json::obj([
                ("unit", Json::str(unit.as_str())),
                ("median", Json::Num(median)),
                ("q1", Json::Num(q1)),
                ("q3", Json::Num(q3)),
                ("runs", Json::Num(values.len() as f64)),
                ("values", nums(values)),
                ("per_round", Json::Arr(per_round.clone())),
            ]);
            (name.clone(), m)
        })
        .collect();
    Json::obj([
        ("skipped", Json::Bool(c.skipped)),
        ("attempted", Json::Num(c.attempted)),
        ("failed", Json::Num(c.failed)),
        ("failed_share", Json::Num(c.failed / c.attempted.max(1.0))),
        ("host_speed", nums(&c.host_speed)),
        ("metrics", Json::Obj(metrics)),
    ])
}
