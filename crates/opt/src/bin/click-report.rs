//! `click-report`: run a router under the telemetry layer and export a
//! merged per-element JSON profile (the input of `click-profile`).
//!
//! Usage:
//!
//! ```text
//! click-report [--ifaces N] [--shards K] [--packets P] [--batched BURST]
//!              [--source LABEL] [--out FILE] [--emit-config] [--faults]
//!              [--swap NEW.click] [CONFIG.click]
//! ```
//!
//! Without a positional configuration file the tool profiles the paper's
//! `N`-interface IP router (`click_elements::ip_router`) under its
//! standard cross-interface UDP workload; with one, it loads the
//! configuration and injects a generic UDP trace on every device. With
//! `--shards K > 1` the trace runs on the sharded runtime and the
//! per-shard counters are merged by the control plane — packet totals
//! equal the serial run, so a profile is engine-independent.
//!
//! `--faults` includes the sharded runtime's supervisor gauges (shard
//! deaths, restarts, degraded-mode entries, in-flight loss — see
//! [`click_elements::telemetry::FaultGauges`]) in the exported JSON, so
//! `click-profile` consumers can see the run's fault history: a
//! configuration carrying a `FaultInject(PANIC …)` element profiles its
//! own chaos run.
//!
//! `--devices` opens a real I/O backend for every device name that
//! carries a backend scheme (`pcap:trace.pcap`, `udp:ADDR>PEER`,
//! `tap:NAME`, `fault:…` — see [`click_elements::iodev`]), pumps them
//! under supervision for the duration of the run, and exports the
//! per-device [`click_elements::telemetry::DeviceGauges`] in the
//! profile's `"devices"` section. Scheme-bearing devices are fed by
//! their backends; the synthetic trace only reaches scheme-less ones.
//!
//! `--swap NEW.click` exercises live reconfiguration: the first half of
//! the trace runs under the starting configuration, the router is
//! hot-swapped to `NEW.click` (validated, state-transferring, canary +
//! rollback on the sharded runtime — see
//! [`click_elements::parallel::ParallelRouter::hot_swap`]), and the
//! second half runs under whichever configuration survived. The
//! engine's own [`click_elements::telemetry::SwapGauges`] are exported in
//! the profile's `"swap"` section and summarized on stderr. A `NEW.click`
//! that fails `click-check` is rejected; the run continues (and the
//! profile records it) under the old configuration.
//!
//! `--checkpoints DIR` inspects a checkpoint directory (as written by
//! `click-pcap --ckpt-dir` or the reopt daemon): generations on disk,
//! the newest valid one, how many torn files sit above it, and the
//! recovered ledger. The resulting
//! [`click_elements::telemetry::CheckpointGauges`] land in the profile's
//! `"checkpoints"` section and on stderr.
//!
//! `--emit-config` prints the generated IP-router configuration to
//! stdout instead of profiling, so the profile-guided pipeline is
//! self-contained:
//!
//! ```text
//! click-report --emit-config > ip.click
//! click-report --out p.json
//! click-profile --profile p.json < ip.click | click-fastclassifier | ...
//! ```

use click_core::error::Result;
use click_core::graph::RouterGraph;
use click_core::lang::read_config;
use click_elements::batch::PacketBatch;
use click_elements::engine::{self, Engine};
use click_elements::headers::build_udp_packet;
use click_elements::iodev::backend_scheme;
use click_elements::ip_router::{test_packet_flow, IpRouterSpec};
use click_elements::packet::Packet;
use click_elements::parallel::ParallelOpts;
use click_elements::persist::CheckpointStore;
use click_elements::telemetry::{summary, CheckpointGauges, ElementProfile};
use click_opt::profile::Profile;
use click_opt::tool::{filter_args, number, refuse};

/// Distinct UDP source ports in the generated trace (distinct flows for
/// RSS steering).
const FLOWS: u16 = 64;

const USAGE: &str = "click-report [--ifaces N] [--shards K] [--packets P] \
    [--batched BURST] [--source LABEL] [--out FILE] [--emit-config] [--faults] \
    [--devices] [--swap NEW.click] [--checkpoints DIR] [CONFIG.click]";

/// One frame of the trace: (receiving device name, packet).
type Frame = (String, Packet);

/// What `--checkpoints DIR` reports: the directory's state mapped onto
/// the always-live gauge structure, plus a stderr ledger line for the
/// newest recoverable generation. A missing or empty directory is not
/// an error — it reports as zero generations.
fn inspect_checkpoints(dir: &str) -> CheckpointGauges {
    let mut g = CheckpointGauges::default();
    let store = match CheckpointStore::open(dir, 1) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("click-report: checkpoints: {e}");
            return g;
        }
    };
    let generations = store.generations();
    let (latest, torn) = store.latest_valid();
    g.checkpoints_written = generations.len() as u64;
    g.torn_discarded = torn;
    match latest {
        Some(ckpt) => {
            g.last_generation = ckpt.generation;
            g.quiesce_ns_last = ckpt.quiesce_ns;
            g.packets_persisted = ckpt.packet_count();
            eprintln!(
                "click-report: checkpoints: {} generation(s) in {dir}, newest valid {} \
                 ({} torn above it), config hash {:016x}",
                generations.len(),
                ckpt.generation,
                torn,
                ckpt.config_hash
            );
            eprintln!(
                "click-report: checkpoints: ledger at generation {}: injected {} == tx {} \
                 + drops {} (+ in-flight {} packet(s) persisted), quiesce {} ns",
                ckpt.generation,
                ckpt.ledger.injected,
                ckpt.ledger.tx,
                ckpt.ledger.drops,
                ckpt.packet_count(),
                ckpt.quiesce_ns
            );
        }
        None => {
            g.cold_starts = 1;
            eprintln!(
                "click-report: checkpoints: no valid generation in {dir} \
                 ({} file(s), {} torn) — a restart here cold-starts",
                generations.len(),
                torn
            );
        }
    }
    g
}

/// The IP-router workload: cross-interface UDP flows, as in the benches.
fn ip_router_frames(spec: &IpRouterSpec, n: usize, packets: usize) -> Vec<Frame> {
    (0..packets)
        .map(|i| {
            let src = i % (n / 2);
            let dst = src + n / 2;
            let sport = 2000 + (i as u16 % FLOWS);
            (
                format!("eth{src}"),
                test_packet_flow(spec, src, dst, sport, 7000),
            )
        })
        .collect()
}

/// A generic workload for arbitrary configurations: UDP frames injected
/// round-robin across the configuration's devices.
fn generic_frames(devices: &[String], packets: usize) -> Vec<Frame> {
    (0..packets)
        .map(|i| {
            let dev = devices[i % devices.len()].clone();
            let sport = 2000 + (i as u16 % FLOWS);
            let p = build_udp_packet([2; 6], [1; 6], 0x0A00_0002, 0x0A00_0102, sport, 9, 18, 64);
            (dev, p)
        })
        .collect()
}

/// Runs the trace — with `--swap`, the first half on the starting
/// configuration and the second half across the hot swap — and returns
/// the frames transmitted: delivered to a backend or left on a simulated
/// device.
fn run(
    engine: &mut dyn Engine,
    swap_to: Option<&RouterGraph>,
    frames: &[Frame],
    devices_flag: bool,
) -> Result<u64> {
    if devices_flag {
        let opened = engine.open_backends()?;
        eprintln!("click-report: opened {opened} device backend(s)");
    }
    let mut tx = 0u64;
    // Feeds a slice of the trace and runs it out. Scheme-bearing devices
    // are fed by their backends, not the synthetic trace; `swap` installs
    // the new configuration over the buffered slice, which on the
    // sharded runtime is the canary-window traffic the rollout is
    // judged against. A refused swap is the engine's to count.
    let mut play = |part: &[Frame], swap: Option<&RouterGraph>| -> Result<()> {
        for (dev, p) in part {
            if devices_flag && backend_scheme(dev).is_some() {
                continue;
            }
            if let Some(id) = engine.device(dev) {
                engine.inject(id, p.clone());
            }
        }
        if let Some(Err(e)) = swap.map(|new_graph| engine.hot_swap(new_graph)) {
            eprintln!("click-report: hot swap rejected: {e}");
        }
        engine.settle();
        if devices_flag {
            tx += engine.run_devices(1_000_000)?.tx as u64;
        }
        Ok(())
    };
    let split = match swap_to {
        Some(_) => frames.len() / 2,
        None => frames.len(),
    };
    play(&frames[..split], None)?;
    if swap_to.is_some() {
        play(&frames[split..], swap_to)?;
    }
    let mut left = PacketBatch::new();
    tx += engine.drain_all_tx_into(&mut left) as u64;
    Ok(tx)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (flags, positional) = filter_args(
        USAGE,
        &args,
        &[
            "ifaces",
            "shards",
            "packets",
            "batched",
            "source",
            "out",
            "swap",
            "checkpoints",
        ],
        &["emit-config", "faults", "devices"],
    );
    let mut ifaces = 4usize;
    let mut shards = 1usize;
    let mut packets = 2048usize;
    let mut batched = 0usize;
    let mut source: Option<String> = None;
    let mut out: Option<String> = None;
    let mut swap_path: Option<String> = None;
    let mut checkpoints_dir: Option<String> = None;
    let mut emit_config = false;
    let mut faults_flag = false;
    let mut devices_flag = false;
    for (flag, value) in &flags {
        let num = || number::<usize>(USAGE, flag, value);
        match flag.as_str() {
            "ifaces" => ifaces = num().max(2),
            "shards" => shards = num().max(1),
            "packets" => packets = num().max(1),
            "batched" => batched = num(),
            "source" => source = value.clone(),
            "out" => out = value.clone(),
            "swap" => swap_path = value.clone(),
            "checkpoints" => checkpoints_dir = value.clone(),
            "emit-config" => emit_config = true,
            "faults" => faults_flag = true,
            "devices" => devices_flag = true,
            _ => unreachable!("filter_args admits only the flags above"),
        }
    }
    if positional.len() > 1 {
        refuse(USAGE, "more than one configuration");
    }
    if emit_config {
        print!("{}", IpRouterSpec::standard(ifaces).config());
        return;
    }

    let die = |msg: String| -> ! {
        eprintln!("click-report: {msg}");
        std::process::exit(1);
    };
    let load = |path: &str| -> RouterGraph {
        let text =
            std::fs::read_to_string(path).unwrap_or_else(|e| die(format!("reading {path}: {e}")));
        read_config(&text).unwrap_or_else(|e| die(format!("parsing {path}: {e}")))
    };
    let spec = IpRouterSpec::standard(ifaces);
    let (graph, label) = match positional.first() {
        Some(path) => (load(path), path.clone()),
        None => (
            read_config(&spec.config()).expect("generated config parses"),
            format!("ip-router-{ifaces}"),
        ),
    };
    let swap_graph: Option<RouterGraph> = swap_path.as_deref().map(load);

    let mut opts = ParallelOpts::new(shards);
    if batched > 0 {
        opts = opts.batched(batched);
    }
    let mut engine = engine::open(&graph, opts).unwrap_or_else(|e| die(e.to_string()));
    engine.set_telemetry(true);

    // The trace: the IP router's own workload, or a generic one on every
    // device of a loaded configuration.
    let frames = if positional.is_empty() {
        ip_router_frames(&spec, ifaces, packets)
    } else {
        let devices = engine.device_names();
        if devices.is_empty() {
            die("configuration has no devices to inject on".into());
        }
        generic_frames(&devices, packets)
    };
    let tx = run(&mut *engine, swap_graph.as_ref(), &frames, devices_flag)
        .unwrap_or_else(|e| die(e.to_string()));
    // The engine's own books; `faults` and `swap` are exported on request.
    let mut gauges = engine.gauges();
    if faults_flag && gauges.faults.is_none() {
        eprintln!(
            "click-report: warning: --faults with a serial run (--shards 1); \
             no supervisor gauges to export"
        );
    }
    if !faults_flag {
        gauges.faults = None;
    }
    if swap_graph.is_none() {
        gauges.swap = None;
    }
    let profile = Profile {
        source: source.unwrap_or(label),
        shards,
        telemetry: true,
        elements: engine.profiles(),
        gauges,
        checkpoints: checkpoints_dir.as_deref().map(inspect_checkpoints),
        ..Profile::default()
    };
    let json = profile.to_json();
    match &out {
        Some(path) => {
            std::fs::write(path, &json).unwrap_or_else(|e| {
                eprintln!("click-report: writing {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("click-report: wrote {path}");
        }
        None => print!("{json}"),
    }

    if let Some(f) = &profile.gauges.faults {
        eprintln!("click-report: faults: {}", summary(f));
    }
    if let Some(w) = &profile.gauges.swap {
        eprintln!("click-report: swap: {}", summary(w));
    }
    for d in &profile.gauges.devices {
        eprintln!("click-report: {}", summary(d));
    }

    // Human summary: where the cycles went.
    eprintln!(
        "click-report: {} packets in, {tx} out, {} shard(s), {} element(s)",
        frames.len(),
        profile.shards,
        profile.elements.len()
    );
    let mut by_cost: Vec<&ElementProfile> = profile.elements.iter().collect();
    by_cost.sort_by_key(|e| std::cmp::Reverse(e.self_ns));
    for e in by_cost.iter().take(5) {
        eprintln!(
            "click-report:   {:<12} {:<16} {:>8} pkts  {:>8.1} ns/pkt",
            e.name,
            e.class,
            e.packets,
            e.ns_per_packet()
        );
    }
    // Where ingress time goes: the steering stage sits in front of
    // every element above, so its self time is the hand-off tax.
    if let Some(g) = &profile.gauges.steering {
        let ns_per_pkt = if g.packets == 0 {
            0.0
        } else {
            g.steer_ns as f64 / g.packets as f64
        };
        eprintln!(
            "click-report:   steering     ingress          {:>8} pkts  {:>8.1} ns/pkt",
            g.packets, ns_per_pkt
        );
    }
}
