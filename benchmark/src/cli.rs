//! Command-line front end.
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one run of one
//!   workload (the form the benchmark driver uses); last line of standard
//!   output is the result object.
//! * `--suite` — every workload, each in its own child process, in
//!   interleaved rounds; writes a result file `--compare` can read.
//! * `--compare A.json B.json` — judges B against A by the bounds.
//! * `--manifest` — prints `BENCHMARK.json`.

use crate::compare;
use crate::fingerprint::fingerprint;
use crate::json::Json;
use crate::layers;
use crate::manifest;
use crate::run::{self, Metric};
use crate::suite;
use crate::workloads;

const USAGE: &str = "usage:
  click-spine --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]
  click-spine --suite [--seed N] [--seconds S] [--out FILE] [--quick]
  click-spine --compare BASE.json NEW.json
  click-spine --manifest";

/// Parsed flags: `--name value` pairs and bare `--name` switches.
pub struct Flags<'a> {
    args: &'a [String],
}

impl<'a> Flags<'a> {
    /// Wraps an argument list.
    pub fn new(args: &'a [String]) -> Flags<'a> {
        Flags { args }
    }

    /// True if the switch is present.
    pub fn has(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }

    /// The value after `name`, if the flag is present.
    pub fn value(&self, name: &str) -> Option<&'a str> {
        let i = self.args.iter().position(|a| a == name)?;
        self.args.get(i + 1).map(String::as_str)
    }

    /// The value after `name` parsed, or `default` when absent.
    ///
    /// # Errors
    ///
    /// A message naming the flag when the value does not parse.
    pub fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None if self.has(name) => Err(format!("{name} needs a value")),
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{name}: cannot read {v:?}")),
        }
    }
}

fn read_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(f64::NAN)
}

fn metric_json(m: &Metric) -> Json {
    Json::obj([
        ("value", Json::Num(m.summary.value)),
        ("unit", Json::str(m.unit)),
        ("median", Json::Num(m.summary.median)),
        ("q1", Json::Num(m.summary.q1)),
        ("q3", Json::Num(m.summary.q3)),
        ("n", Json::Num(m.summary.n as f64)),
    ])
}

/// Runs one workload and prints its result. Returns the exit code.
fn run_one(flags: &Flags<'_>) -> Result<i32, String> {
    let name = flags.value("--workload").ok_or("--workload needs a name")?;
    let spec = workloads::find(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed: u64 = flags.parsed("--seed", 1)?;
    let seconds: f64 = flags.parsed("--seconds", manifest::RUN_SECONDS as f64)?;
    let traced = match flags.parsed("--trace", 0u8)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace is 0 or 1, not {other}")),
    };
    let quick = flags.has("--quick");
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], not {seconds}"));
    }
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    if spec.path == workloads::PathKind::Sharded && nproc < 2 {
        // One worker shard plus the calling thread need two CPUs; on one
        // CPU the number would measure the scheduler. Not a failure of
        // the program under test, but there is nothing to report.
        println!("skipped {name}: needs 2 CPUs, host has {nproc}");
        return Ok(3);
    }

    // A traced run shares its time between the workload's own phases and
    // the layer suite.
    let own = if traced {
        seconds * layers::WORKLOAD_SHARE
    } else {
        seconds
    };
    let measured = run::run(spec, seed, own, traced, quick).map_err(|e| e.to_string())?;
    let metrics = if traced {
        layers::per_layer(&measured, seed, seconds)
    } else {
        run::end_to_end(&measured, read_kb("VmHWM:") / 1024.0)
    };
    let speed = run::host_speed(&measured);

    let out = run::out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    if traced {
        let path = out.join(format!("trace.{name}.jsonl"));
        measured
            .tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }

    let failed_share = measured.tally.failed as f64 / measured.tally.attempted.max(1) as f64;
    println!(
        "# click-spine {name} seed {seed} seconds {seconds} trace {} {}",
        u8::from(traced),
        if quick { "QUICK (not comparable)" } else { "" }
    );
    for m in &metrics {
        // The driver's contract puts every end-to-end metric in every
        // result; the ones this workload does not exist for say so.
        let note = if traced || spec.owns.contains(&m.name.as_str()) {
            ""
        } else {
            "  (not this workload's metric: left out of --suite and --compare)"
        };
        println!(
            "{name:<12} {:<44} {:>14.4} {:<6} median {:.4} q1 {:.4} q3 {:.4} n {}{note}",
            m.name,
            m.summary.value,
            m.unit,
            m.summary.median,
            m.summary.q1,
            m.summary.q3,
            m.summary.n
        );
    }
    if traced {
        for &(row, _, _) in layers::table() {
            if !metrics.iter().any(|m| m.name == row) {
                println!("{name:<12} {row:<44} skipped: needs 2 CPUs, host has {nproc}");
            }
        }
    } else {
        // The traced run has this row in its table.
        println!(
            "{name:<12} {:<44} {:>14.4} ratio  median {:.4} (end-to-end times are divided by this)",
            "host.speed", speed.value, speed.median
        );
    }
    println!(
        "{name:<12} {:<44} {failed_share:>14.6} ratio  ({} of {} operations)",
        "failed_share", measured.tally.failed, measured.tally.attempted
    );

    let detail = Json::obj([
        ("workload", Json::str(name)),
        ("trace", Json::Bool(traced)),
        ("seconds", Json::Num(seconds)),
        ("comparable", Json::Bool(!quick)),
        ("fingerprint", fingerprint(seed)),
        ("correct", Json::Bool(measured.correct)),
        ("attempted", Json::Num(measured.tally.attempted as f64)),
        ("failed", Json::Num(measured.tally.failed as f64)),
        ("failed_share", Json::Num(failed_share)),
        ("host_speed", Json::Num(speed.value)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|m| (m.name.clone(), metric_json(m)))
                    .collect(),
            ),
        ),
    ]);
    let path = out.join(format!("run.{name}.trace{}.json", u8::from(traced)));
    std::fs::write(&path, detail.render() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;

    // A metric that could not be measured (no window completed) must not
    // be printed as a number; without it the run has no result.
    if let Some(m) = metrics.iter().find(|m| !m.summary.value.is_finite()) {
        return Err(format!("{} could not be measured in {seconds} s", m.name));
    }
    let result = Json::obj([
        ("correct", Json::Bool(measured.correct)),
        ("attempted", Json::Num(measured.tally.attempted as f64)),
        ("failed", Json::Num(measured.tally.failed as f64)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|m| {
                        let v = Json::obj([
                            ("value", Json::Num(m.summary.value)),
                            ("unit", Json::str(m.unit)),
                        ]);
                        (m.name.clone(), v)
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.render());
    Ok(if measured.correct { 0 } else { 1 })
}

/// Every option there is. Anything else that looks like one is refused,
/// so a mistyped flag cannot silently run the default instead.
const OPTIONS: [&str; 9] = [
    "--workload",
    "--seed",
    "--seconds",
    "--trace",
    "--quick",
    "--suite",
    "--out",
    "--compare",
    "--manifest",
];

/// Entry point; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let flags = Flags::new(args);
    let unknown = args
        .iter()
        .find(|a| a.starts_with("--") && !OPTIONS.contains(&a.as_str()));
    let outcome = if let Some(bad) = unknown {
        Err(format!("unknown option {bad}\n{USAGE}"))
    } else if flags.has("--manifest") {
        print!("{}", manifest::benchmark_json(layers::table()));
        Ok(0)
    } else if flags.has("--compare") {
        compare::main(args)
    } else if flags.has("--suite") {
        suite::main(&flags)
    } else if flags.has("--workload") {
        run_one(&flags)
    } else {
        Err(USAGE.to_string())
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("click-spine: {e}");
        2
    })
}
