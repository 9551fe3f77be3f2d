//! `click-pcap`: replay a pcap trace through a router configuration over
//! the real-I/O backend layer, with optional mid-trace fault injection.
//!
//! Usage:
//!
//! ```text
//! click-pcap --gen N --in TRACE.pcap [--ifaces M]
//! click-pcap --in TRACE.pcap [--out FWD.pcap] [--ifaces M] [--shards K]
//!            [--batched BURST] [--flap CLAUSES] [--check]
//!            [--json FILE] [--source LABEL] [CONFIG.click]
//! ```
//!
//! `--gen N` writes a synthetic `N`-packet trace for the paper's
//! Figure-1 IP router (valid MACs, IPs, checksums for `eth0` ingress on
//! an `M`-interface router) and exits — so the pcap pipeline is
//! self-contained with no external capture files.
//!
//! Replay attaches a [`click_elements::iodev::PcapBackend`] to the
//! configuration's first input device under full supervision (retry,
//! backoff, health state machine, drain deadline — see
//! [`click_elements::iodev::SupervisedDevice`]), pumps it to exhaustion,
//! and reports throughput as ns/packet plus the exact loss ledger.
//! `--out FWD.pcap` records everything the router transmitted: frames
//! sent back out the attached device land in the capture as the run
//! goes, and frames left on simulated egress devices are appended after
//! it finishes, in device order.
//!
//! ```text
//! injected == forwarded(backend) + forwarded(simulated) + drops
//! ```
//!
//! `--flap CLAUSES` wraps the trace in a
//! [`click_elements::iodev::FaultInjectBackend`] (the `FaultInject`
//! element's clause syntax, comma- and/or space-separated, with device
//! keys: `DOWN-AFTER n`, `DOWN-FOR n`, `EAGAIN p`, `STORM n`, `DROP p`,
//! `TRUNCATE p`, `WEDGE-AFTER n`, `SEED n`), so a mid-trace
//! device flap — kill, storm, re-open — runs against the supervision
//! layer with the ledger still required to balance. `--check` makes an
//! unbalanced ledger a hard failure (exit 1), which is how CI asserts
//! "injected == tx + drops, exactly" after chaos.
//!
//! `--json FILE` exports a profile whose `"devices"` section carries
//! the per-device supervision gauges (flaps, reopens, drain losses,
//! retries) next to the per-element telemetry, which only this flag
//! arms: a replay that exports nothing times no element call.
//!
//! # Crash drill
//!
//! ```text
//! click-pcap --in TRACE.pcap --ckpt-dir DIR [--ckpt-every N] [--retain K]
//!            [--crash-at N] [--restore [--resume-at N]] ...
//! ```
//!
//! `--ckpt-dir` switches to the checkpointed drill: the trace is read
//! into memory and replayed in windows of `--ckpt-every` frames; after
//! each window the router is settled, every TX queue drained (appended
//! to `--out`), and a checkpoint generation cut. `--crash-at N` kills
//! the process dead (`exit`, no drain, no final cut) the instant the
//! `N`-th frame has been fed — everything since the last cut dies with
//! it. A second invocation with `--restore` warm-starts from the newest
//! valid generation (torn files are skipped and counted; any restore
//! failure degrades to a cold start with a warning), resumes on the
//! *checkpoint's* config, and re-feeds from `--resume-at` (default: the
//! checkpoint's own injected count, which replays the dead window and
//! loses nothing). The cross-incarnation ledger is then exact:
//!
//! ```text
//! offered == tx(all incarnations) + drops + counted-loss
//! 0 <= counted-loss <= resume-at - checkpoint.injected
//! ```
//!
//! and `--check` turns any violation into exit 1.

use click_core::error::{Error, Result};
use click_core::graph::RouterGraph;
use click_core::lang::{read_config, write_config};
use click_elements::batch::PacketBatch;
use click_elements::element::DeviceId;
use click_elements::engine::{self, Engine};
use click_elements::iodev::{
    append_pcap, read_pcap, write_pcap, FaultInjectBackend, PcapBackend, SupervisedDevice,
};
use click_elements::ip_router::{test_packet_flow, IpRouterSpec};
use click_elements::packet::Packet;
use click_elements::parallel::ParallelOpts;
use click_elements::persist::{config_hash, Checkpoint, CheckpointDaemon, CheckpointStore};
use click_elements::telemetry::{summary, DeviceGauges, ElementProfile, Gauges};
use click_opt::profile::Profile;
use click_opt::tool::{filter_args, number, refuse};
use std::time::Instant;

const USAGE: &str = "click-pcap --gen N --in TRACE.pcap [--ifaces M]\n\
    \x20      click-pcap --in TRACE.pcap [--out FWD.pcap] [--ifaces M] \
    [--shards K] [--batched BURST] [--flap CLAUSES] \
    [--check] [--json FILE] [--source LABEL] [CONFIG.click]\n\
    \x20      click-pcap --in TRACE.pcap --ckpt-dir DIR [--ckpt-every N] \
    [--retain K] [--crash-at N] [--restore [--resume-at N]] \
    [--shards K] [--check] [--json FILE] [CONFIG.click]";

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("click-pcap: {msg}");
    std::process::exit(1);
}

/// The Figure-1 replay workload: `eth0`-ingress frames fanned across the
/// other interfaces' subnets, round-robin ports for flow diversity.
fn gen_trace(path: &str, ifaces: usize, packets: usize) -> Result<()> {
    let spec = IpRouterSpec::standard(ifaces);
    let frames: Vec<Vec<u8>> = (0..packets)
        .map(|i| {
            let dst = 1 + (i % (ifaces - 1));
            let sport = 2000 + (i as u16 % 64);
            test_packet_flow(&spec, 0, dst, sport, 7000).data().to_vec()
        })
        .collect();
    write_pcap(path, &frames)
}

/// Builds the supervised replay backend: the pcap source (with optional
/// forwarded-frame capture), wrapped in the fault shim when `--flap` is
/// given.
fn replay_device(
    input: &str,
    output: Option<&str>,
    flap: Option<&str>,
) -> Result<SupervisedDevice> {
    let pcap = PcapBackend::open(input, output)?;
    Ok(match flap {
        Some(clauses) => SupervisedDevice::new(Box::new(FaultInjectBackend::parse(
            clauses,
            Box::new(pcap),
        )?)),
        None => SupervisedDevice::new(Box::new(pcap)),
    })
}

/// What a replay run measured.
struct Replay {
    /// The device the trace entered on: the configuration's first.
    dev_name: String,
    injected: u64,
    tx_backend: u64,
    tx_sim: u64,
    drops: u64,
    elapsed_ns: u64,
    elements: Vec<ElementProfile>,
    devices: Vec<DeviceGauges>,
    /// Frames left in simulated TX queues, in device order — what
    /// `--out` appends after the backend-written capture.
    forwarded: Vec<Vec<u8>>,
}

impl Replay {
    fn balances(&self) -> bool {
        self.injected == self.tx_backend + self.tx_sim + self.drops
    }
}

/// The configuration's first device — where the trace enters (`eth0`
/// for the generated IP router).
fn ingress(engine: &dyn Engine) -> Result<(String, DeviceId)> {
    let first = engine.device_names().into_iter().next();
    first
        .and_then(|name| engine.device(&name).map(|dev| (name, dev)))
        .ok_or_else(|| Error::runtime("configuration has no devices"))
}

/// Drains every device's TX queue, in device order, to raw frames.
fn drain_tx_frames(engine: &mut dyn Engine) -> Vec<Vec<u8>> {
    let mut batch = PacketBatch::new();
    engine.drain_all_tx_into(&mut batch);
    batch.drain().map(|p| p.data().to_vec()).collect()
}

/// Replays `sup` into the configuration's first device until the trace
/// is exhausted and every forwarded frame is sent or counted lost;
/// `profile` arms telemetry for the `--json` export.
fn run(mut engine: Box<dyn Engine>, sup: SupervisedDevice, profile: bool) -> Result<Replay> {
    engine.set_telemetry(profile);
    let (dev_name, dev) = ingress(&*engine)?;
    engine.attach_supervised(dev, sup);
    let start = Instant::now();
    let stats = engine.run_devices(10_000_000)?;
    let elapsed_ns = start.elapsed().as_nanos() as u64;
    // Forwarded frames that stayed in simulated TX queues (devices with
    // no backend attached).
    let forwarded = drain_tx_frames(&mut *engine);
    Ok(Replay {
        dev_name,
        injected: stats.rx as u64,
        tx_backend: stats.tx as u64,
        tx_sim: forwarded.len() as u64,
        drops: engine.total_drops(),
        elapsed_ns,
        elements: engine.profiles(),
        devices: engine.gauges().devices,
        forwarded,
    })
}

// ---------------------------------------------------------------------
// Crash drill
// ---------------------------------------------------------------------

/// The drill's knobs, parsed from `--ckpt-*` / `--crash-at` /
/// `--restore` / `--resume-at`.
struct DrillOpts {
    ckpt_dir: String,
    ckpt_every: u64,
    retain: usize,
    crash_at: Option<u64>,
    restore: bool,
    resume_at: Option<u64>,
    /// `--json` was given: arm telemetry so the export has counters.
    profile: bool,
}

/// What one drill incarnation measured.
struct DrillOutcome {
    /// The device the trace entered on: the configuration's first.
    dev_name: String,
    /// Frames fed by this incarnation.
    fed: u64,
    /// Frames offered to the stream overall: resume point + fed now.
    offered: u64,
    /// Frames whose effects survive in router state (checkpoint-carried
    /// plus fed now) — balances *exactly* against `tx + drops`.
    accounted: u64,
    /// Cumulative TX across incarnations.
    tx: u64,
    drops: u64,
    /// `offered - tx - drops`: frames that died with a crashed
    /// incarnation.
    loss: u64,
    /// Upper bound on `loss`: frames fed after the recovered cut.
    loss_bound: u64,
    restored_generation: Option<u64>,
    elapsed_ns: u64,
    elements: Vec<ElementProfile>,
}

/// One drill incarnation: builds the engine — warm from `boot`, where a
/// failed restore degrades to a cold start with a warning, since a torn
/// world must never stop the router from coming back up — then runs the
/// windowed feed/settle/drain/cut loop on it. Exits the process (without
/// draining or cutting) at `--crash-at`.
fn drill(
    graph: &RouterGraph,
    opts: ParallelOpts,
    boot: Option<&Checkpoint>,
    daemon: &mut CheckpointDaemon,
    frames: &[Vec<u8>],
    output: Option<&str>,
    d: &DrillOpts,
) -> Result<DrillOutcome> {
    let restored = boot.and_then(|ckpt| match engine::restore(ckpt, opts.clone()) {
        Ok((engine, stats)) => {
            note_restored(daemon, ckpt, &stats);
            Some(engine)
        }
        Err(e) => {
            eprintln!("click-pcap: warning: restore failed ({e}); degrading to cold start");
            daemon.note_cold_start();
            None
        }
    });
    let warm = boot.filter(|_| restored.is_some());
    let mut engine = match restored {
        Some(engine) => engine,
        None => engine::open(graph, opts)?,
    };
    engine.set_telemetry(d.profile);
    let (dev_name, dev) = ingress(&*engine)?;

    // Cross-incarnation baseline. Without `--resume-at` the dead window
    // is replayed from the checkpoint's own injected count, so nothing
    // is lost and the prior TX is exactly what the checkpoint recorded.
    // With `--resume-at N` the window [checkpoint.injected, N) died with
    // the crashed process; prior TX is what actually reached the `--out`
    // capture (== the checkpoint's TX, since drains and cuts are
    // paired), and the loss bound is the window's width.
    let (injected_prior, tx_prior, start) = match warm {
        Some(ckpt) => {
            let start = d.resume_at.unwrap_or(ckpt.ledger.injected);
            let tx_prior = match (d.resume_at.is_some(), output) {
                (true, Some(out)) => read_pcap(out)
                    .map(|f| f.len() as u64)
                    .unwrap_or(ckpt.ledger.tx),
                _ => ckpt.ledger.tx,
            };
            (ckpt.ledger.injected, tx_prior, start)
        }
        None => {
            // Incarnation 1 owns the capture: start it empty.
            if let Some(out) = output {
                write_pcap(out, &[])?;
            }
            (0, 0, 0)
        }
    };
    if start < injected_prior {
        return Err(Error::runtime(format!(
            "drill: --resume-at {start} precedes the checkpoint's injected count \
             {injected_prior} (frames would be double-counted)"
        )));
    }

    let every = d.ckpt_every.max(1);
    let end = frames.len() as u64;
    let mut next = start.min(end);
    let mut fed = 0u64;
    let mut tx = tx_prior;
    let t0 = Instant::now();
    while next < end {
        let burst = every.min(end - next);
        for i in 0..burst {
            engine.inject(dev, Packet::from_data(&frames[(next + i) as usize]));
            fed += 1;
            // A real crash: no settle, no drain, no final cut. State
            // since the last generation dies with the process.
            if d.crash_at == Some(next + i + 1) {
                eprintln!(
                    "click-pcap: crash drill: dying hard after frame {} \
                     (last cut: generation {})",
                    next + i + 1,
                    daemon.gauges().last_generation
                );
                std::process::exit(0);
            }
        }
        next += burst;
        engine.settle();
        let drained = drain_tx_frames(&mut *engine);
        if !drained.is_empty() {
            if let Some(out) = output {
                append_pcap(out, &drained)?;
            }
            tx += drained.len() as u64;
        }
        // Cut at interval boundaries and always once at trace end, so
        // the final ledger is recoverable. A failed cut is a warning
        // (counted in the gauges), never a stop.
        if daemon.note_traffic(burst) || next >= end {
            match daemon.checkpoint_now(&mut *engine, injected_prior + fed, tx) {
                Ok(generation) => eprintln!(
                    "click-pcap: checkpoint generation {generation}: {} frame(s) accounted, \
                     quiesce {} ns",
                    injected_prior + fed,
                    daemon.gauges().quiesce_ns_last
                ),
                Err(e) => eprintln!("click-pcap: warning: checkpoint failed: {e}"),
            }
        }
    }
    let elapsed_ns = t0.elapsed().as_nanos() as u64;
    let drops = engine.total_drops();
    let offered = start + fed;
    let accounted = injected_prior + fed;
    Ok(DrillOutcome {
        dev_name,
        fed,
        offered,
        accounted,
        tx,
        drops,
        loss: offered.saturating_sub(tx + drops),
        loss_bound: start - injected_prior,
        restored_generation: warm.map(|c| c.generation),
        elapsed_ns,
        elements: engine.profiles(),
    })
}

fn note_restored(
    daemon: &mut CheckpointDaemon,
    ckpt: &Checkpoint,
    stats: &click_elements::persist::RestoreStats,
) {
    daemon.note_restored(ckpt.generation);
    daemon.set_config(ckpt.config.clone());
    eprintln!(
        "click-pcap: restored generation {} (config hash {:016x}): {} element(s) matched, \
         {} unmatched, {} packet(s) re-queued, {} orphaned",
        ckpt.generation,
        ckpt.config_hash,
        stats.matched,
        stats.unmatched,
        stats.packets_restored,
        stats.packets_orphaned
    );
}

/// The drill entry point: loads the trace, recovers (or not), runs the
/// windowed loop, prints the cross-incarnation ledger, and gates it under
/// `--check`. Never returns.
#[allow(clippy::too_many_arguments)]
fn drill_main(
    graph: &RouterGraph,
    label: &str,
    input: &str,
    output: Option<&str>,
    opts: ParallelOpts,
    check: bool,
    json: Option<&str>,
    source: Option<String>,
    d: DrillOpts,
) -> ! {
    let frames = read_pcap(input).unwrap_or_else(|e| fail(format!("reading {input}: {e}")));
    let store = CheckpointStore::open(&d.ckpt_dir, d.retain).unwrap_or_else(|e| fail(e));
    let mut daemon = CheckpointDaemon::new(store, d.ckpt_every, write_config(graph));

    let boot = if d.restore {
        match daemon.recover() {
            // The store's CRC already vetted the payload; the config
            // hash is a second, independent seal on the text we are
            // about to re-parse and run.
            Some(ckpt) if config_hash(&ckpt.config) == ckpt.config_hash => Some(ckpt),
            Some(ckpt) => {
                eprintln!(
                    "click-pcap: warning: generation {} config hash mismatch; cold start",
                    ckpt.generation
                );
                daemon.note_cold_start();
                None
            }
            None => {
                eprintln!(
                    "click-pcap: warning: no valid checkpoint in {}; cold start",
                    d.ckpt_dir
                );
                None
            }
        }
    } else {
        None
    };

    let shards = opts.shards;
    let outcome = drill(graph, opts, boot.as_ref(), &mut daemon, &frames, output, &d)
        .unwrap_or_else(|e| fail(e));
    let dev_name = &outcome.dev_name;

    let g = daemon.gauges();
    let ledger_ok =
        outcome.accounted == outcome.tx + outcome.drops && outcome.loss <= outcome.loss_bound;
    eprintln!(
        "click-pcap: drill: {} frame(s) this incarnation on `{dev_name}` \
         ({} shard(s), {:.1} ns/pkt){}",
        outcome.fed,
        shards,
        if outcome.fed == 0 {
            0.0
        } else {
            outcome.elapsed_ns as f64 / outcome.fed as f64
        },
        match outcome.restored_generation {
            Some(generation) => format!(", warm from generation {generation}"),
            None => String::from(", cold start"),
        }
    );
    eprintln!(
        "click-pcap: drill ledger: offered {} == tx {} + drops {} + counted-loss {} \
         (bound {}) -> {}",
        outcome.offered,
        outcome.tx,
        outcome.drops,
        outcome.loss,
        outcome.loss_bound,
        if ledger_ok { "exact" } else { "VIOLATION" }
    );
    eprintln!("click-pcap: checkpoints: {}", summary(&g));

    if let Some(path) = json {
        let profile = Profile {
            source: source.unwrap_or_else(|| label.to_string()),
            shards,
            telemetry: true,
            elements: outcome.elements,
            checkpoints: Some(g),
            ..Profile::default()
        };
        std::fs::write(path, profile.to_json())
            .unwrap_or_else(|e| fail(format!("writing {path}: {e}")));
        eprintln!("click-pcap: wrote {path}");
    }
    if check && !ledger_ok {
        fail("drill ledger violation (--check)");
    }
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (flags, positional) = filter_args(
        USAGE,
        &args,
        &[
            "gen",
            "in",
            "out",
            "ifaces",
            "shards",
            "batched",
            "flap",
            "json",
            "source",
            "ckpt-dir",
            "ckpt-every",
            "retain",
            "crash-at",
            "resume-at",
        ],
        &["check", "restore"],
    );
    let mut gen: Option<usize> = None;
    let mut input: Option<String> = None;
    let mut output: Option<String> = None;
    let mut ifaces = 4usize;
    let mut shards = 1usize;
    let mut batched = 0usize;
    let mut flap: Option<String> = None;
    let mut check = false;
    let mut json: Option<String> = None;
    let mut source: Option<String> = None;
    let mut ckpt_dir: Option<String> = None;
    let mut ckpt_every = 256u64;
    let mut retain = 4usize;
    let mut crash_at: Option<u64> = None;
    let mut restore = false;
    let mut resume_at: Option<u64> = None;
    for (flag, value) in &flags {
        let num = || number::<usize>(USAGE, flag, value);
        match flag.as_str() {
            "gen" => gen = Some(num().max(1)),
            "in" => input = value.clone(),
            "out" => output = value.clone(),
            "ifaces" => ifaces = num().max(2),
            "shards" => shards = num().max(1),
            "batched" => batched = num(),
            "flap" => flap = value.clone(),
            "check" => check = true,
            "json" => json = value.clone(),
            "source" => source = value.clone(),
            "ckpt-dir" => ckpt_dir = value.clone(),
            "ckpt-every" => ckpt_every = num() as u64,
            "retain" => retain = num().max(1),
            "crash-at" => crash_at = Some(num() as u64),
            "restore" => restore = true,
            "resume-at" => resume_at = Some(num() as u64),
            _ => unreachable!("filter_args admits only the flags above"),
        }
    }
    if positional.len() > 1 {
        refuse(USAGE, "more than one configuration");
    }
    let Some(input) = input else {
        refuse(USAGE, "--in is required")
    };

    if let Some(n) = gen {
        gen_trace(&input, ifaces, n).unwrap_or_else(|e| fail(e));
        eprintln!("click-pcap: wrote {n} frame(s) to {input}");
        return;
    }

    // Build the graph; the trace enters on the configuration's first
    // input device (eth0 for the generated IP router).
    let (graph, label) = match positional.first() {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(format!("reading {path}: {e}")));
            let graph = read_config(&text).unwrap_or_else(|e| fail(format!("parsing {path}: {e}")));
            (graph, path.clone())
        }
        None => {
            let spec = IpRouterSpec::standard(ifaces);
            let graph = read_config(&spec.config()).expect("generated config parses");
            (graph, format!("ip-router-{ifaces}"))
        }
    };
    let opts = match batched {
        0 => ParallelOpts::new(shards),
        burst => ParallelOpts::new(shards).batched(burst),
    };

    if let Some(dir) = ckpt_dir {
        if flap.is_some() {
            fail("--flap runs the backend path; it does not combine with --ckpt-dir");
        }
        drill_main(
            &graph,
            &label,
            &input,
            output.as_deref(),
            opts,
            check,
            json.as_deref(),
            source,
            DrillOpts {
                ckpt_dir: dir,
                ckpt_every,
                retain,
                crash_at,
                restore,
                resume_at,
                profile: json.is_some(),
            },
        );
    }

    let sup = replay_device(&input, output.as_deref(), flap.as_deref()).unwrap_or_else(|e| fail(e));

    let replay = engine::open(&graph, opts)
        .and_then(|engine| run(engine, sup, json.is_some()))
        .unwrap_or_else(|e| fail(e));
    let dev_name = &replay.dev_name;

    let ns_per_pkt = if replay.injected == 0 {
        0.0
    } else {
        replay.elapsed_ns as f64 / replay.injected as f64
    };
    eprintln!(
        "click-pcap: {} frame(s) replayed on `{dev_name}` ({} shard(s)): {:.1} ns/pkt",
        replay.injected, shards, ns_per_pkt
    );
    eprintln!(
        "click-pcap: ledger: injected {} == tx(backend) {} + tx(simulated) {} + drops {} -> {}",
        replay.injected,
        replay.tx_backend,
        replay.tx_sim,
        replay.drops,
        if replay.balances() {
            "balanced"
        } else {
            "IMBALANCED"
        }
    );
    for d in &replay.devices {
        eprintln!("click-pcap: {}", summary(d));
    }

    // The forwarded capture: the attached device's own TX was recorded
    // by the backend during the run; simulated egress is appended after,
    // in device order, so `--out` holds everything the router sent.
    if let Some(out) = &output {
        if !replay.forwarded.is_empty() {
            append_pcap(out, &replay.forwarded).unwrap_or_else(|e| fail(e));
        }
        eprintln!(
            "click-pcap: wrote {} forwarded frame(s) to {out}",
            replay.tx_backend + replay.tx_sim
        );
    }

    let balanced = replay.balances();
    if let Some(path) = &json {
        let profile = Profile {
            source: source.unwrap_or(label),
            shards,
            telemetry: true,
            elements: replay.elements,
            gauges: Gauges {
                devices: replay.devices,
                ..Gauges::default()
            },
            ..Profile::default()
        };
        std::fs::write(path, profile.to_json())
            .unwrap_or_else(|e| fail(format!("writing {path}: {e}")));
        eprintln!("click-pcap: wrote {path}");
    }

    if check && !balanced {
        fail("ledger imbalance (--check)");
    }
}
