//! Per-layer metrics of the traced run.
//!
//! Two kinds. Metrics *of the workload* come from spans the traced run
//! recorded around its own calls (compile passes, swap, checkpoint cut,
//! the closed loop). Metrics *of a layer* come from a fixed suite of
//! micro-measurements that calls one layer's public functions directly,
//! on seeded inputs of the same shape as the workloads' — so every traced
//! run, whatever its workload, reports every layer. A layer is a
//! `crate.module` of the repository.
//!
//! The suite does not depend on the workload, and still runs in every
//! traced run: the benchmark driver's contract wants every per-layer
//! metric in every traced run's result, and one run cannot borrow
//! another's numbers.
//!
//! Per-layer values are wall-clock as measured (unlike the end-to-end
//! times they are *not* divided by the host's speed); `host.speed` beside
//! them says how fast the host ran.
//!
//! Everything is timed from outside; nothing in the crates is
//! instrumented, so counters that only exist under the crates'
//! `telemetry` feature (ring high-water marks, backoff parks, mean batch
//! size) are deliberately absent.

use crate::estimator::{fast_decile, Summary};
use crate::gen::{
    ip_text as ip, mac_text as mac, neighbor_ip, neighbor_mac, router_ip, router_mac, trace, Frame,
    Plan, Rng,
};
use crate::manifest::Better::{self, Higher, Lower};
use crate::paths::{Inject, Path, Sharded, Wire};
use crate::run::{Measured, Metric, ITER};
use crate::span::{Tracer, NO_PARENT};
use crate::workloads::{BIG_ROUTES, FILTER_RULES};
use click_classifier::{
    build_diagram, build_tree, optimize, parse_rules, rules_noutputs, ClassifierProgram,
    FastMatcher, TreeClassifier,
};
use click_core::graph::RouterGraph;
use click_core::lang::read_config;
use click_core::registry::Library;
use click_elements::element::{CreateCtx, DeviceId, Emitter};
use click_elements::elements::create_element;
use click_elements::fast::FastElement;
use click_elements::iodev::{write_pcap, DeviceBackend, MemBackend, PcapBackend, SupervisedDevice};
use click_elements::ip_router::IpRouterSpec;
use click_elements::packet::{drain_pool, pool_stats, reset_pool_stats};
use click_elements::ring::spsc;
use click_elements::router::Slot;
use click_elements::routing::MultibitTrie;
use click_elements::steer::FlowHashCache;
use click_elements::{Element, Packet, RssSteering};
use click_opt::devirtualize::devirtualize;
use click_opt::fastclassifier::fastclassifier;
use click_opt::xform::{apply_patterns, ip_combo_patterns};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// The Figure-1 forwarding-path classes timed stand-alone, in path order,
/// and the two combo classes `xform` replaces them with.
const ELEMENT_CLASSES: [&str; 15] = [
    "Classifier",
    "Paint",
    "Strip",
    "CheckIPHeader",
    "GetIPAddress",
    "StaticIPLookup",
    "DropBroadcasts",
    "PaintTee",
    "IPGWOptions",
    "FixIPSrc",
    "DecIPTTL",
    "IPFragmenter",
    "ARPQuerier",
    "IPInputCombo",
    "IPOutputCombo",
];

/// Figure-9 rows: optimization level × transfer mode.
const FIG09_LEVELS: [&str; 5] = ["Base", "FC", "DV", "XF", "All"];
const FIG09_MODES: [&str; 2] = ["scalar", "batched"];

/// One row of the per-layer table: `(name, unit, which way is better)`.
pub type Row = (&'static str, &'static str, Better);

/// Every per-layer metric, in reporting order.
pub fn table() -> &'static [Row] {
    static TABLE: std::sync::OnceLock<Vec<Row>> = std::sync::OnceLock::new();
    TABLE.get_or_init(build_table)
}

fn build_table() -> Vec<Row> {
    // Leaked once per process: the names are static data spelled out from
    // a few constant lists.
    fn name(s: String) -> &'static str {
        Box::leak(s.into_boxed_str())
    }
    let mut t: Vec<Row> = vec![
        ("core.parse_ms", "ms", Lower),
        ("core.check_ms", "ms", Lower),
        ("core.unparse_ms", "ms", Lower),
        ("core.elements_out", "count", Lower),
        ("opt.xform_ms", "ms", Lower),
        ("opt.xform_rewrites", "count", Higher),
        ("opt.fastclassifier_ms", "ms", Lower),
        ("opt.fastclassifier_classes", "count", Higher),
        ("opt.devirtualize_ms", "ms", Lower),
        ("opt.devirtualize_classes", "count", Lower),
        ("opt.reopt_compile_ms", "ms", Lower),
    ];
    for level in FIG09_LEVELS {
        for mode in FIG09_MODES {
            t.push((name(format!("opt.fig09.{level}-{mode}")), "ns", Lower));
        }
    }
    t.extend([
        ("opt.measured_gain", "ratio", Higher),
        ("classifier.tree_ns", "ns", Lower),
        ("classifier.program_ns", "ns", Lower),
        ("classifier.fast_ns", "ns", Lower),
        ("classifier.diagram_ns", "ns", Lower),
        ("classifier.build_tree_ms", "ms", Lower),
        ("classifier.optimize_ms", "ms", Lower),
        ("classifier.build_diagram_ms", "ms", Lower),
        ("classifier.tree_nodes", "count", Lower),
        ("classifier.diagram_nodes", "count", Lower),
        ("elements.routing.lookup_ns", "ns", Lower),
        ("elements.routing.lookup_steps", "count", Lower),
        ("elements.routing.build_ms", "ms", Lower),
        ("elements.router.inject_ns", "ns", Lower),
        ("elements.router.run_ns", "ns", Lower),
        ("elements.router.drain_ns", "ns", Lower),
        ("elements.router.build_ms", "ms", Lower),
    ]);
    for class in ELEMENT_CLASSES {
        t.push((name(format!("elements.elem_ns.{class}")), "ns", Lower));
    }
    t.extend([
        ("elements.packet.pool_hit_rate", "ratio", Higher),
        ("elements.packet.clone_recycle_ns", "ns", Lower),
        ("elements.iodev.rx_ns", "ns", Lower),
        ("elements.iodev.tx_ns", "ns", Lower),
        ("elements.iodev.mem_recv_ns", "ns", Lower),
        ("elements.iodev.mem_send_ns", "ns", Lower),
        ("elements.iodev.supervised_overhead_ns", "ns", Lower),
        ("elements.iodev.pcap_read_ns", "ns", Lower),
        ("elements.iodev.pcap_write_ns", "ns", Lower),
        ("elements.iodev.retries", "count", Lower),
        ("elements.iodev.lost", "count", Lower),
        ("elements.ring.push_pop_ns", "ns", Lower),
        ("elements.steer.hash_ns", "ns", Lower),
        ("elements.steer.cached_hash_ns", "ns", Lower),
        ("elements.parallel.inject_ns", "ns", Lower),
        ("elements.parallel.settle_ns", "ns", Lower),
        ("elements.parallel.drain_ns", "ns", Lower),
        ("elements.parallel.handoff_ns", "ns", Lower),
        ("elements.parallel.spawn_ms", "ms", Lower),
        ("elements.swap.build_ms", "ms", Lower),
        ("elements.swap.transfer_us", "us", Lower),
        ("elements.swap.pkts_transferred", "count", Higher),
        ("elements.persist.snapshot_us", "us", Lower),
        ("elements.persist.encode_us", "us", Lower),
        ("elements.persist.save_us", "us", Lower),
        ("elements.persist.bytes", "bytes", Lower),
        ("sim.pred_base_ns", "ns", Lower),
        ("sim.pred_all_ns", "ns", Lower),
        ("sim.pred_gain", "ratio", Higher),
        ("mem.allocs_per_pkt", "count", Lower),
        ("mem.alloc_bytes_per_pkt", "bytes", Lower),
        ("trace.coverage_share", "ratio", Higher),
        ("trace.overhead_share", "ratio", Lower),
        ("gen.late_share", "ratio", Lower),
        ("gen.late_max_us", "us", Lower),
        ("e2e.ns_per_pkt_median", "ns", Lower),
        ("e2e.ns_per_pkt_iqr", "ratio", Lower),
        ("e2e.lat_p99_us", "us", Lower),
        ("host.ref_ns", "ns", Lower),
        ("host.speed", "ratio", Lower),
    ]);
    t
}

/// Collects metrics by name and hands them back in [`table`] order.
struct Sheet(Vec<Metric>);

impl Sheet {
    fn put(&mut self, name: impl Into<String>, summary: Summary) {
        self.0.push(Metric::new(name, "", summary));
    }
    fn exact(&mut self, name: impl Into<String>, value: f64) {
        self.put(name, Summary::exact(value));
    }
    /// The rows that were measured, in [`table`] order. A row nothing
    /// was put for (the one-shard rows on a one-CPU host) is left out
    /// rather than reported as a number.
    fn finish(mut self) -> Vec<Metric> {
        table()
            .iter()
            .filter_map(|&(name, unit, _)| {
                let i = self.0.iter().position(|m| m.name == name)?;
                Some(Metric::new(name, unit, self.0.swap_remove(i).summary))
            })
            .collect()
    }
}

/// Times `f`, which does `units` units of work per call, again and again
/// for `budget` (at least three calls); cost per unit in nanoseconds.
fn bench(budget: Duration, units: usize, mut f: impl FnMut()) -> Summary {
    f(); // warm: lazy tables, pool, caches
    let start = Instant::now();
    let mut samples = Vec::new();
    while start.elapsed() < budget || samples.len() < 3 {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_nanos() as f64 / units as f64);
    }
    Summary::fast(&samples)
}

/// Like [`bench`], with an untimed `prepare` before every timed call.
fn bench_prepared(
    budget: Duration,
    units: usize,
    mut prepare: impl FnMut(),
    mut f: impl FnMut(),
) -> Summary {
    let start = Instant::now();
    let mut samples = Vec::new();
    while start.elapsed() < budget || samples.len() < 3 {
        prepare();
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_nanos() as f64 / units as f64);
    }
    Summary::fast(&samples)
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// `a − b` on the headline values, keeping `a`'s diagnostics shifted by
/// the same amount (a stand-alone cost with its harness baseline taken
/// out).
fn minus(a: Summary, b: f64) -> Summary {
    Summary {
        value: a.value - b,
        median: a.median - b,
        q1: a.q1 - b,
        q3: a.q3 - b,
        n: a.n,
    }
}

fn figure1_graphs() -> Vec<(&'static str, RouterGraph)> {
    let lib = Library::standard();
    let base = read_config(&Plan::figure1(4).config_text()).expect("generated config parses");
    let patterns = ip_combo_patterns().expect("built-in patterns parse");
    let pass = |xf: bool, fc: bool, dv: bool| {
        let mut g = base.clone();
        if xf {
            apply_patterns(&mut g, &patterns).expect("xform");
        }
        if fc {
            fastclassifier(&mut g).expect("fastclassifier");
        }
        if dv {
            devirtualize(&mut g, &lib, &HashSet::new()).expect("devirtualize");
        }
        g
    };
    vec![
        ("Base", pass(false, false, false)),
        ("FC", pass(false, true, false)),
        ("DV", pass(false, false, true)),
        ("XF", pass(true, false, false)),
        ("All", pass(true, true, true)),
    ]
}

/// A closed loop over `path` with a span around each of the three calls;
/// returns per-packet `(feed, settle, drain)` means and the fast-decile
/// cost of the whole iteration.
fn closed_loop(path: &mut dyn Path, frames: &[Frame], budget: Duration) -> ([f64; 3], Summary) {
    let mut tr = Tracer::new(true);
    let mut pos = 0;
    drain_pool();
    let whole = bench(budget, ITER, || {
        let batch = &frames[pos..pos + ITER];
        pos = (pos + ITER) % frames.len();
        let s = tr.begin("feed", NO_PARENT, 0);
        path.feed(batch);
        tr.end(s, ITER as u32);
        let s = tr.begin("settle", NO_PARENT, 0);
        path.settle();
        tr.end(s, ITER as u32);
        let s = tr.begin("drain", NO_PARENT, 0);
        let n = path.drain_count();
        tr.end(s, n as u32);
    });
    let per_pkt = |name| {
        let t = tr.total(name);
        t.ns as f64 / t.pkts as f64
    };
    (
        [per_pkt("feed"), per_pkt("settle"), per_pkt("drain")],
        whole,
    )
}

fn fig09_row<S: Slot + 'static>(
    graph: &RouterGraph,
    batched: bool,
    frames: &[Frame],
    budget: Duration,
) -> Summary {
    let mut path = Inject::<S>::new(graph, 4, batched).expect("Figure-1 variant builds");
    closed_loop(&mut path, frames, budget).1
}

fn classifier_layer(sheet: &mut Sheet, rng: &mut Rng, frames: &[Frame], budget: Duration) {
    let plan = Plan::figure1(4).with_filter(rng, FILTER_RULES);
    let rules = parse_rules("IPFilter", &plan.filter.join(", ")).expect("generated rules parse");
    let nout = rules_noutputs(&rules);
    let t = Instant::now();
    let raw = build_tree(&rules, nout);
    sheet.exact("classifier.build_tree_ms", ms_since(t));
    let t = Instant::now();
    let tree = optimize(&raw);
    sheet.exact("classifier.optimize_ms", ms_since(t));
    let t = Instant::now();
    let diagram = build_diagram(&rules, nout);
    sheet.exact("classifier.build_diagram_ms", ms_since(t));
    sheet.exact("classifier.tree_nodes", tree.reachable_count() as f64);
    sheet.exact("classifier.diagram_nodes", diagram.nodes.len() as f64);

    // The filter runs after Strip(14): it sees the IP header onward.
    let headers: Vec<&[u8]> = frames.iter().map(|f| &f.bytes[14..]).collect();
    let interp = TreeClassifier::new(&tree);
    let program = ClassifierProgram::compile(&tree);
    let fast = FastMatcher::compile(&tree);
    let mut sink = 0usize;
    let mut run = |name: &str, f: &dyn Fn(&[u8]) -> Option<usize>| {
        let s = bench(budget, headers.len(), || {
            for h in &headers {
                sink += std::hint::black_box(f(h)).map_or(0, |o| o + 1);
            }
        });
        sheet.put(name, s);
    };
    run("classifier.tree_ns", &|h| interp.classify(h));
    run("classifier.program_ns", &|h| program.classify(h));
    run("classifier.fast_ns", &|h| fast.classify(h));
    run("classifier.diagram_ns", &|h| diagram.classify(h));
    // Every header is allowed (output 0), by construction of the rules.
    assert_eq!(
        sink % headers.len(),
        0,
        "a runtime disagreed on the generated rules"
    );
}

fn routing_layer(sheet: &mut Sheet, rng: &mut Rng, budget: Duration) {
    let plan = Plan::figure1(4).with_routes(rng, BIG_ROUTES);
    let t = Instant::now();
    let mut trie = MultibitTrie::new();
    for &(prefix, port) in &plan.routes {
        trie.insert(prefix, 24, (Some(neighbor_ip(port)), port));
    }
    sheet.exact("elements.routing.build_ms", ms_since(t));
    let addrs: Vec<u32> = plan.routes[..16_384]
        .iter()
        .map(|&(prefix, _)| prefix | (1 + rng.below(254) as u32))
        .collect();
    let steps: usize = addrs.iter().map(|&a| trie.lookup_steps(a).1).sum();
    sheet.exact(
        "elements.routing.lookup_steps",
        steps as f64 / addrs.len() as f64,
    );
    let mut hits = 0usize;
    let s = bench(budget, addrs.len(), || {
        for &a in &addrs {
            hits += usize::from(std::hint::black_box(trie.lookup(a)).is_some());
        }
    });
    sheet.put("elements.routing.lookup_ns", s);
    assert_eq!(
        hits % addrs.len(),
        0,
        "a generated destination had no route"
    );
}

/// Stand-alone cost of each forwarding-path element: `create_element`,
/// then `push` over 256 packets in the state the previous element left
/// them in. Each push needs its own packet, so the clone (and the
/// recycling of whatever comes out) is timed separately and taken out.
fn element_layer(sheet: &mut Sheet, frames: &[Frame], budget: Duration) {
    let mut ctx = CreateCtx::new();
    let neighbors: Vec<String> = (0..4)
        .map(|i| format!("{} {}", ip(neighbor_ip(i)), mac(neighbor_mac(i))))
        .collect();
    let arp = format!(
        "{}, {}, {}",
        ip(router_ip(0)),
        mac(router_mac(0)),
        neighbors.join(", ")
    );
    let out_combo = format!("99, {}, 1500", ip(router_ip(0)));
    let config = |class: &str| -> String {
        match class {
            "Classifier" => "12/0806 20/0001, 12/0806 20/0002, 12/0800, -".into(),
            "Paint" | "IPInputCombo" => "1".into(),
            "Strip" => "14".into(),
            "GetIPAddress" => "16".into(),
            "StaticIPLookup" => "10.0.0.0/24 0, 10.0.1.0/24 1, 10.0.2.0/24 2, 10.0.3.0/24 3".into(),
            "PaintTee" => "99".into(), // no packet carries this color: no redirect copies
            "FixIPSrc" => ip(router_ip(0)),
            "IPFragmenter" => "1500".into(),
            "ARPQuerier" => arp.clone(),
            "IPOutputCombo" => out_combo.clone(),
            _ => String::new(),
        }
    };

    let mut out = Emitter::new();
    let mut stage: Vec<Packet> = frames[..ITER]
        .iter()
        .map(|f| Packet::from_data(&f.bytes))
        .collect();
    let baseline = bench(budget, ITER, || {
        for p in &stage {
            p.clone().recycle();
        }
    });
    sheet.put("elements.packet.clone_recycle_ns", baseline);

    let mut measure = |class: &str, stage: &[Packet], sheet: &mut Sheet| -> Vec<Packet> {
        let mut el = create_element(class, &config(class), &mut ctx).expect("element builds");
        let cost = bench(budget, ITER, || {
            for p in stage {
                el.push(0, p.clone(), &mut out);
                for (_, q) in out.drain() {
                    q.recycle();
                }
            }
        });
        sheet.put(
            format!("elements.elem_ns.{class}"),
            minus(cost, baseline.value),
        );
        let mut next = Vec::with_capacity(stage.len());
        for p in stage {
            el.push(0, p.clone(), &mut out);
            next.extend(out.drain().map(|(_, q)| q));
        }
        assert_eq!(
            next.len(),
            stage.len(),
            "{class} dropped or duplicated a packet"
        );
        next
    };
    for class in &ELEMENT_CLASSES[..13] {
        let next = measure(class, &stage, sheet);
        // The combos replace the chains that start after these two.
        match *class {
            "Classifier" => drop(measure("IPInputCombo", &next, sheet)),
            "StaticIPLookup" => drop(measure("IPOutputCombo", &next, sheet)),
            _ => {}
        }
        for p in std::mem::replace(&mut stage, next) {
            p.recycle();
        }
    }
}

/// The device path in pieces: raw backend calls, the supervision wrapper,
/// the two pumps of a hand-rolled `run_with_devices` round, and a pcap
/// file written and replayed.
fn iodev_layer(sheet: &mut Sheet, all: &RouterGraph, frames: &[Frame], budget: Duration) {
    let batch = &frames[..ITER];
    // Frames are queued on the far side before the clock starts, so only
    // the backend's (or the supervised device's) receive is timed.
    let (mut raw, raw_q) = MemBackend::with_handles();
    let queue =
        |q: &click_elements::iodev::MemQueues| batch.iter().for_each(|f| q.push_rx(&f.bytes));
    let recv = bench_prepared(
        budget,
        ITER,
        || queue(&raw_q),
        || {
            while let Ok(Some(p)) = raw.recv() {
                p.recycle();
            }
        },
    );
    sheet.put("elements.iodev.mem_recv_ns", recv);
    let send = bench(budget, ITER, || {
        for f in batch {
            raw.send(&f.bytes).expect("mem backend accepts frames");
        }
        raw_q.take_tx();
    });
    sheet.put("elements.iodev.mem_send_ns", send);

    let (inner, q) = MemBackend::with_handles();
    let mut sup = SupervisedDevice::new(Box::new(inner));
    let supervised = bench_prepared(
        budget,
        ITER,
        || queue(&q),
        || {
            while let Some(p) = sup.recv() {
                p.recycle();
            }
        },
    );
    sheet.put(
        "elements.iodev.supervised_overhead_ns",
        minus(supervised, recv.value),
    );

    let mut wire = Wire::<FastElement>::new(all, 4, true).expect("Figure-1 router builds");
    let (mut rx, mut tx) = (Vec::new(), Vec::new());
    let start = Instant::now();
    drain_pool();
    while start.elapsed() < budget || rx.len() < 3 {
        wire.feed(batch);
        let t = Instant::now();
        let first = wire.router.devices.pump(ITER);
        rx.push(t.elapsed().as_nanos() as f64 / first.rx as f64);
        wire.router.run_until_idle(10_000);
        let t = Instant::now();
        let second = wire.router.devices.pump(ITER);
        tx.push(t.elapsed().as_nanos() as f64 / second.tx as f64);
        assert_eq!(
            (first.rx, second.tx),
            (ITER, wire.drain_count()),
            "pump lost frames"
        );
    }
    sheet.put("elements.iodev.rx_ns", Summary::fast(&rx));
    sheet.put("elements.iodev.tx_ns", Summary::fast(&tx));
    sheet.exact("elements.iodev.retries", wire.ledger().retries as f64);
    sheet.exact(
        "elements.iodev.lost",
        wire.router.devices.lost_packets() as f64,
    );

    let path = crate::run::out_dir().join(format!("layers.{}.pcap", std::process::id()));
    let name = path.to_string_lossy().into_owned();
    let bytes: Vec<Vec<u8>> = frames.iter().map(|f| f.bytes.to_vec()).collect();
    let _ = std::fs::create_dir_all(crate::run::out_dir());
    let write = bench(budget, bytes.len(), || {
        write_pcap(&name, &bytes).expect("pcap file is writable");
    });
    sheet.put("elements.iodev.pcap_write_ns", write);
    let read = bench(budget, bytes.len(), || {
        let mut replay = PcapBackend::open(&name, None).expect("pcap file opens");
        let mut n = 0;
        while let Ok(Some(p)) = replay.recv() {
            p.recycle();
            n += 1;
        }
        assert_eq!(n, bytes.len(), "pcap replay lost frames");
    });
    sheet.put("elements.iodev.pcap_read_ns", read);
    let _ = std::fs::remove_file(&path);
}

fn ring_and_steer_layer(sheet: &mut Sheet, frames: &[Frame], budget: Duration) {
    let (producer, consumer) = spsc::<u64>(256);
    let s = bench(budget, ITER, || {
        for i in 0..ITER as u64 {
            let _ = producer.try_push(i);
            std::hint::black_box(consumer.try_pop());
        }
    });
    sheet.put("elements.ring.push_pop_ns", s);

    // 1024 flows against a 256-slot hash cache: mostly misses, as a busy
    // ingress would see.
    let steering = RssSteering::new(4);
    let mut picked = 0usize;
    let s = bench(budget, frames.len(), || {
        for f in frames {
            picked += steering.shard_for(&f.bytes, DeviceId(f.iface));
        }
    });
    sheet.put("elements.steer.hash_ns", s);
    let mut cache = FlowHashCache::default();
    let s = bench(budget, frames.len(), || {
        for f in frames {
            picked += steering
                .live_shard_for_cached(&f.bytes, DeviceId(f.iface), &mut cache)
                .unwrap_or(0);
        }
    });
    sheet.put("elements.steer.cached_hash_ns", s);
    std::hint::black_box(picked);
}

/// The workload-independent suite. `budget` is per timed measurement.
fn suite(sheet: &mut Sheet, seed: u64, budget: Duration) {
    let mut rng = Rng::new(seed ^ 0x5EED_1A7E);
    let frames = trace(&Plan::figure1(4), &mut rng, 1024, 4096);
    let graphs = figure1_graphs();
    let (base, all) = (&graphs[0].1, &graphs[4].1);

    classifier_layer(sheet, &mut rng, &frames, budget);
    routing_layer(sheet, &mut rng, budget);
    element_layer(sheet, &frames, budget);
    iodev_layer(sheet, all, &frames, budget);
    ring_and_steer_layer(sheet, &frames, budget);

    // Figure 9 on the real engines: each variant on its natural engine.
    let mut fig09 = std::collections::HashMap::new();
    for (level, graph) in &graphs {
        for (mode, batched) in [("scalar", false), ("batched", true)] {
            let row = if graph.has_requirement("devirtualize") {
                fig09_row::<FastElement>(graph, batched, &frames, budget * 2)
            } else {
                fig09_row::<Box<dyn Element>>(graph, batched, &frames, budget * 2)
            };
            fig09.insert((*level, mode), row.value);
            sheet.put(format!("opt.fig09.{level}-{mode}"), row);
        }
    }
    sheet.exact(
        "opt.measured_gain",
        fig09[&("Base", "scalar")] / fig09[&("All", "scalar")],
    );

    // The serial engine, call by call, and the pool under it.
    let mut serial = Inject::<FastElement>::new(all, 4, true).expect("Figure-1 router builds");
    let (parts, serial_whole) = closed_loop(&mut serial, &frames, budget * 2);
    sheet.exact("elements.router.inject_ns", parts[0]);
    sheet.exact("elements.router.run_ns", parts[1]);
    sheet.exact("elements.router.drain_ns", parts[2]);
    reset_pool_stats();
    closed_loop(&mut serial, &frames, budget);
    sheet.exact("elements.packet.pool_hit_rate", pool_stats().hit_rate());

    // The same graph behind one worker shard, which needs a CPU of its
    // own; without one these rows are left out.
    if std::thread::available_parallelism().map_or(1, usize::from) >= 2 {
        let t = Instant::now();
        let mut sharded = Sharded::new::<FastElement>(all, 4, true).expect("sharded router spawns");
        sheet.exact("elements.parallel.spawn_ms", ms_since(t));
        let (parts, sharded_whole) = closed_loop(&mut sharded, &frames, budget * 2);
        sheet.exact("elements.parallel.inject_ns", parts[0]);
        sheet.exact("elements.parallel.settle_ns", parts[1]);
        sheet.exact("elements.parallel.drain_ns", parts[2]);
        sheet.exact(
            "elements.parallel.handoff_ns",
            sharded_whole.value - serial_whole.value,
        );
    }

    // The Figure-8/9 cost model's prediction for the same two graphs.
    let spec = IpRouterSpec::standard(4);
    let p0 = click_sim::Platform::p0();
    let pred = |g| click_sim::total_cpu_ns(g, &p0, &spec).unwrap_or(f64::NAN);
    let (pred_base, pred_all) = (pred(base), pred(all));
    sheet.exact("sim.pred_base_ns", pred_base);
    sheet.exact("sim.pred_all_ns", pred_all);
    sheet.exact("sim.pred_gain", pred_base / pred_all);
}

/// Share of a traced run's time its workload's own phases get; the rest
/// goes to the layer suite.
pub const WORKLOAD_SHARE: f64 = 0.6;

/// Every per-layer metric of a traced run, in [`table`] order.
pub fn per_layer(m: &Measured, seed: u64, seconds: f64) -> Vec<Metric> {
    let mut sheet = Sheet(Vec::new());
    let tr = &m.tracer;
    let reps = m.compile_s.len().max(1) as f64;
    let pass_ms =
        |names: &[&str]| names.iter().map(|n| tr.total(n).ns as f64).sum::<f64>() / reps / 1e6;

    sheet.exact(
        "core.parse_ms",
        pass_ms(&["compile.parse", "compile.reparse"]),
    );
    sheet.exact("core.check_ms", pass_ms(&["compile.check"]));
    sheet.exact("core.unparse_ms", pass_ms(&["compile.unparse"]));
    sheet.exact("core.elements_out", m.counts.elements_out as f64);
    sheet.exact("opt.xform_ms", pass_ms(&["compile.xform"]));
    sheet.exact("opt.xform_rewrites", m.counts.xform_rewrites as f64);
    sheet.exact(
        "opt.fastclassifier_ms",
        pass_ms(&["compile.fastclassifier"]),
    );
    sheet.exact(
        "opt.fastclassifier_classes",
        m.counts.fastclassifier_classes as f64,
    );
    sheet.exact("opt.devirtualize_ms", pass_ms(&["compile.devirtualize"]));
    sheet.exact(
        "opt.devirtualize_classes",
        m.counts.devirtualize_classes as f64,
    );
    sheet.put("opt.reopt_compile_ms", Summary::fast(&m.reopt_ms));
    sheet.exact("elements.router.build_ms", pass_ms(&["compile.build"]));

    let build = Summary::fast(&m.swap_build_ms);
    sheet.put("elements.swap.build_ms", build);
    sheet.exact(
        "elements.swap.transfer_us",
        fast_decile(&m.swap_us) - build.value * 1e3,
    );
    sheet.exact(
        "elements.swap.pkts_transferred",
        m.swap_pkts.iter().sum::<f64>() / m.swap_pkts.len() as f64,
    );
    for step in ["snapshot", "encode", "save"] {
        sheet.exact(
            format!("elements.persist.{step}_us"),
            tr.mean_ns(&format!("cut.{step}")) / 1e3,
        );
    }
    sheet.exact(
        "elements.persist.bytes",
        m.ckpt_bytes.iter().sum::<f64>() / m.ckpt_bytes.len() as f64,
    );
    sheet.exact("mem.allocs_per_pkt", m.allocs_per_pkt.0);
    sheet.exact("mem.alloc_bytes_per_pkt", m.allocs_per_pkt.1);

    sheet.exact(
        "trace.coverage_share",
        tr.coverage("iter", &["gen", "rx", "run", "tx", "sink"]),
    );
    let plain = Summary::fast(&m.fwd_ns);
    sheet.exact(
        "trace.overhead_share",
        fast_decile(&m.fwd_traced_ns) / plain.value - 1.0,
    );
    sheet.exact("gen.late_share", m.lateness.late_share());
    sheet.exact("gen.late_max_us", m.lateness.max_ns as f64 / 1e3);
    sheet.exact("e2e.ns_per_pkt_median", plain.median);
    sheet.exact("e2e.ns_per_pkt_iqr", (plain.q3 - plain.q1) / plain.median);
    sheet.put("e2e.lat_p99_us", Summary::typical(&m.lat_p99_us));
    sheet.put("host.ref_ns", Summary::fast(&m.ref_ns));
    sheet.put("host.speed", crate::run::host_speed(m));

    // Some sixty budgets' worth of timed measurements (a few take two)
    // share what the workload's own phases left.
    let budget = Duration::from_secs_f64(seconds * (1.0 - WORKLOAD_SHARE) / 60.0);
    suite(&mut sheet, seed, budget);
    sheet.finish()
}
