//! Live-reconfiguration drill: hot-swapping a running router to a
//! `click-profile`-optimized configuration, rejecting configurations
//! that fail `click-check`, and rolling back a canary whose drop gauge
//! regresses. Exercises the full stack — serial [`Router::hot_swap`],
//! sharded [`ParallelRouter::hot_swap`] with canary + rollback, the
//! always-live [`SwapGauges`], and the JSON profile round-trip.

use click_core::graph::RouterGraph;
use click_core::lang::read_config;
use click_core::registry::Library;
use click_elements::element::Element;
use click_elements::engine::Engine;
use click_elements::headers::build_udp_packet;
use click_elements::ip_router::{test_packet_flow, IpRouterSpec};
use click_elements::packet::Packet;
use click_elements::parallel::{ParallelOpts, ParallelRouter, SwapOpts};
use click_elements::persist::ElementRecord;
use click_elements::router::{DynRouter, Router};
use click_elements::steer::flow_key;
use click_elements::swap::SwapReport;
use click_elements::telemetry::ElementProfile;
use click_opt::profile::{apply_profile, Profile};

// ---- workloads -----------------------------------------------------------

/// A UDP packet with a sequence marker in its last payload byte.
fn udp(sport: u16, seq: u8) -> Packet {
    let mut p = build_udp_packet([1; 6], [2; 6], 0x0A00_0002, 0x0A00_0102, sport, 9, 18, 64);
    let n = p.len();
    p.data_mut()[n - 1] = seq;
    p
}

/// A forwarded IP-router packet (src interface's neighbor to dst's) with
/// a sequence marker.
fn router_udp(spec: &IpRouterSpec, src: usize, dst: usize, sport: u16, seq: u8) -> Packet {
    let mut p = test_packet_flow(spec, src, dst, sport, 7000);
    let n = p.len();
    p.data_mut()[n - 1] = seq;
    p
}

/// Asserts each flow's sequence markers appear in increasing order.
fn assert_per_flow_order(tx: &[Packet], flows: std::ops::Range<u16>) {
    for flow in flows {
        let seqs: Vec<u8> = tx
            .iter()
            .filter(|p| flow_key(p.data()).map(|k| k.3) == Some(flow))
            .map(|p| p.data()[p.len() - 1])
            .collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted, "flow {flow} reordered: {seqs:?}");
    }
}

const SERIAL_GRAPH: &str = "FromDevice(in0) -> c :: Counter -> q :: Queue(4096) -> ToDevice(out0);";

/// The swapped-in serial configuration: same pipeline plus a second,
/// fresh counter on the pull side (so the swap mixes matched, fresh, and
/// device adoption).
const SERIAL_GRAPH_V2: &str =
    "FromDevice(in0) -> c :: Counter -> q :: Queue(2048) -> c2 :: Counter -> ToDevice(out0);";

/// The `click-profile`-optimized Figure-1 configuration: every
/// per-interface classifier's hot IP branch hoisted first, with a
/// handcrafted profile so the test needs no profiling run.
fn optimized_figure1(spec: &IpRouterSpec, graph: &RouterGraph) -> RouterGraph {
    let n = spec.interfaces.len();
    let elements = (0..n)
        .map(|i| {
            let mut e = ElementProfile::new(&format!("c{i}"), "Classifier");
            // ARP trickle on ports 0/1, the IP torrent on port 2, and a
            // cold catch-all: the profile pass hoists port 2 first.
            e.out_ports = vec![1, 1, 60, 0];
            e.packets = e.out_ports.iter().sum();
            e
        })
        .collect();
    let profile = Profile {
        source: "hot-swap-drill".into(),
        shards: 1,
        telemetry: true,
        elements,
        ..Profile::default()
    };
    let mut optimized = graph.clone();
    let report = apply_profile(&mut optimized, &profile).expect("profile applies");
    assert_eq!(report.reordered.len(), n, "every classifier reorders");
    for r in &report.reordered {
        assert_eq!(r.order, vec![2, 0, 1, 3], "{}", r.element);
    }
    optimized
}

// ---- (a) state transfer --------------------------------------------------

#[test]
fn quiesced_serial_swap_loses_nothing() {
    let old = read_config(SERIAL_GRAPH).unwrap();
    let new = read_config(SERIAL_GRAPH_V2).unwrap();
    let mut r: DynRouter = Router::from_graph(&old, &Library::standard()).unwrap();

    // Push 50 packets through the push side only: the Counter sees them
    // and the Queue holds them (nothing runs the pull side yet).
    let c = r.find("c").unwrap();
    for i in 0..50u8 {
        r.push_to(c, 0, udp(5000 + u16::from(i % 4), i));
    }
    assert_eq!(r.stat("c", "count"), Some(50));
    assert_eq!(r.stat("q", "length"), Some(50));

    let rep = r.hot_swap(&new, &Library::standard()).unwrap();
    assert!(!rep.rolled_back);
    assert_eq!(rep.packets_transferred, 50, "queue contents carry over");
    assert_eq!(rep.packets_dropped, 0, "a quiesced swap loses zero packets");
    assert!(rep.matched >= 2, "c and q match by name + class");
    assert!(rep.fresh >= 1, "c2 is new");

    // Counter totals and Queue contents survived the swap.
    assert_eq!(r.stat("c", "count"), Some(50));
    assert_eq!(r.stat("q", "length"), Some(50));

    // Draining the new pipeline forwards every held packet — zero loss.
    r.run_until_idle(100_000);
    let out0 = r.devices.id("out0").unwrap();
    assert_eq!(r.devices.tx_len(out0), 50);
    assert_eq!(
        r.stat("c2", "count"),
        Some(50),
        "fresh counter sees the drain"
    );
    assert_eq!(r.total_drops(), 0);
}

#[test]
fn sharded_swap_to_profiled_figure1_preserves_order_and_accounting() {
    let spec = IpRouterSpec::standard(4);
    let graph = read_config(&spec.config()).unwrap();
    let optimized = optimized_figure1(&spec, &graph);

    let mut r =
        ParallelRouter::from_graph::<Box<dyn Element>>(&graph, ParallelOpts::new(4).batched(8))
            .unwrap();
    let eth0 = r.device_id("eth0").unwrap();
    let eth1 = r.device_id("eth1").unwrap();

    // Wave 1 under the original configuration: 16 flows × 8 packets.
    let mut injected = 0u64;
    for seq in 0..8u8 {
        for flow in 0..16u16 {
            let src = usize::from(flow % 2);
            let dev = if src == 0 { eth0 } else { eth1 };
            r.inject(dev, router_udp(&spec, src, src + 2, 2000 + flow, seq));
            injected += 1;
        }
    }
    r.run_until_idle();

    // Wave 2 buffered before the swap: it becomes the canary-window
    // traffic and drains through whichever configuration each shard runs.
    for seq in 8..16u8 {
        for flow in 0..16u16 {
            let src = usize::from(flow % 2);
            let dev = if src == 0 { eth0 } else { eth1 };
            r.inject(dev, router_udp(&spec, src, src + 2, 2000 + flow, seq));
            injected += 1;
        }
    }

    let rep = r.hot_swap(&optimized).unwrap();
    assert!(!rep.rolled_back, "identical semantics must not regress");
    assert_eq!(rep.canary_shard, Some(0));
    assert_eq!(rep.swapped_shards, 4, "canary + the three survivors");
    r.run_until_idle();

    // Exact accounting: everything injected is transmitted; the swap
    // itself lost nothing (in-flight bound is zero without faults).
    let eth2 = r.device_id("eth2").unwrap();
    let eth3 = r.device_id("eth3").unwrap();
    let mut tx = r.take_tx(eth2);
    tx.extend(r.take_tx(eth3));
    let faults = r.fault_gauges();
    assert_eq!(
        tx.len() as u64 + faults.lost_packets,
        injected,
        "injected == tx + lost"
    );
    assert_eq!(faults.lost_packets, 0);
    assert_per_flow_order(&tx, 2000..2016);

    let gauges = r.swap_gauges();
    assert_eq!(gauges.swaps, 1);
    assert_eq!(gauges.rollbacks, 0);
    assert_eq!(gauges.canary_failures, 0);
    assert_eq!(gauges.packets_transferred, rep.packets_transferred);
    r.shutdown();
}

// ---- (b) big-table carry -------------------------------------------------

/// Routes in the big-table drill (a realistically sized FIB).
const BIG_ROUTES: usize = 100_000;

fn ip_str(a: u32) -> String {
    format!(
        "{}.{}.{}.{}",
        a >> 24,
        (a >> 16) & 255,
        (a >> 8) & 255,
        a & 255
    )
}

/// A deterministic 100k-prefix route table (default route first, /16–/28
/// mix, ports alternating 0/1) and a covered probe set.
fn big_table() -> (String, Vec<u32>) {
    let mut lcg = click_core::Lcg::new(0x100A);
    let mut seen = std::collections::HashSet::new();
    let mut prefixes: Vec<(u32, u8)> = vec![(0, 0)];
    seen.insert((0u32, 0u8));
    while prefixes.len() < BIG_ROUTES {
        let plen = 16 + (lcg.next() as u32 % 13) as u8;
        let addr = lcg.next() as u32 & (u32::MAX << (32 - u32::from(plen)));
        if seen.insert((addr, plen)) {
            prefixes.push((addr, plen));
        }
    }
    let config = prefixes
        .iter()
        .enumerate()
        .map(|(i, &(a, l))| format!("{}/{l} {}", ip_str(a), i % 2))
        .collect::<Vec<_>>()
        .join(", ");
    let probes = (0..512)
        .map(|_| {
            let (a, l) = prefixes[lcg.next() as u32 as usize % prefixes.len()];
            if l >= 32 {
                a
            } else {
                a | (lcg.next() as u32 & (u32::MAX >> l))
            }
        })
        .collect();
    (config, probes)
}

fn big_graph(routes: &str, v2: bool) -> RouterGraph {
    // v2 keeps the identical StaticIPLookup config (so rt is reused) but
    // re-plumbs the egress side.
    let tail = if v2 {
        "rt [0] -> c0 :: Counter -> q0 :: Queue(4096) -> ToDevice(out0);\n\
         rt [1] -> c1 :: Counter -> q1 :: Queue(4096) -> ToDevice(out1);"
    } else {
        "rt [0] -> q0 :: Queue(8192) -> ToDevice(out0);\n\
         rt [1] -> q1 :: Queue(8192) -> ToDevice(out1);"
    };
    read_config(&format!(
        "FromDevice(in0) -> Strip(14) -> rt :: StaticIPLookup({routes});\n{tail}"
    ))
    .unwrap()
}

/// Marked probe frame: destination `dst`, flow port `sport`, probe index
/// in the last two payload bytes.
fn probe_frame(dst: u32, sport: u16, idx: u16) -> Packet {
    let mut p = build_udp_packet([1; 6], [2; 6], 0x0A00_0002, dst, sport, 9, 18, 64);
    let n = p.len();
    p.data_mut()[n - 2..n].copy_from_slice(&idx.to_be_bytes());
    p
}

/// `marker -> egress port` map from the drained TX rings.
fn port_map(tx0: &[Packet], tx1: &[Packet]) -> std::collections::HashMap<u16, usize> {
    let mut map = std::collections::HashMap::new();
    for (port, tx) in [(0usize, tx0), (1, tx1)] {
        for p in tx {
            let n = p.len();
            let idx = u16::from_be_bytes([p.data()[n - 2], p.data()[n - 1]]);
            assert!(map.insert(idx, port).is_none(), "duplicate marker {idx}");
        }
    }
    map
}

#[test]
fn serial_swap_carries_100k_route_table_without_rebuild() {
    let (routes, probes) = big_table();
    let old = big_graph(&routes, false);
    let new = big_graph(&routes, true);
    let mut r: DynRouter = Router::from_graph(&old, &Library::standard()).unwrap();
    let in0 = r.devices.id("in0").unwrap();
    let out0 = r.devices.id("out0").unwrap();
    let out1 = r.devices.id("out1").unwrap();

    // Wave 1 builds the table (lazily, on first lookup) and records
    // every probe's egress port.
    for (i, &dst) in probes.iter().enumerate() {
        r.devices
            .inject(in0, probe_frame(dst, 4000 + (i as u16 % 32), i as u16));
    }
    r.run_until_idle(1_000_000);
    let before = port_map(&r.devices.take_tx(out0), &r.devices.take_tx(out1));
    assert_eq!(before.len(), probes.len(), "default route covers all");

    let rep = r.hot_swap(&new, &Library::standard()).unwrap();
    assert!(!rep.rolled_back);
    assert_eq!(rep.packets_dropped, 0, "quiesced swap loses nothing");
    assert!(rep.matched >= 3, "rt and both queues match");

    // rt moved over, live table and all, instead of being rebuilt from
    // 100k routes.
    assert!(rep.reused >= 1, "{rep:?}");

    // Wave 2 through the new plumbing: identical lookups, port for port.
    for (i, &dst) in probes.iter().enumerate() {
        r.devices
            .inject(in0, probe_frame(dst, 4000 + (i as u16 % 32), i as u16));
    }
    r.run_until_idle(1_000_000);
    let after = port_map(&r.devices.take_tx(out0), &r.devices.take_tx(out1));
    assert_eq!(before, after, "lookup divergence across the swap");
    assert_eq!(
        r.stat("c0", "count").unwrap() + r.stat("c1", "count").unwrap(),
        512
    );
}

#[test]
fn sharded_swap_carries_100k_route_table_on_every_shard() {
    let (routes, probes) = big_table();
    let old = big_graph(&routes, false);
    let new = big_graph(&routes, true);
    let mut r =
        ParallelRouter::from_graph::<Box<dyn Element>>(&old, ParallelOpts::new(4).batched(8))
            .unwrap();
    let in0 = r.device_id("in0").unwrap();
    let out0 = r.device_id("out0").unwrap();
    let out1 = r.device_id("out1").unwrap();

    // Wave 1: every shard serves lookups (and therefore builds its
    // table) under the old configuration.
    for (i, &dst) in probes.iter().enumerate() {
        r.inject(in0, probe_frame(dst, 4000 + (i as u16 % 32), i as u16));
    }
    r.run_until_idle();
    let before = port_map(&r.take_tx(out0), &r.take_tx(out1));
    assert_eq!(before.len(), probes.len());

    // Wave 2 buffered: canary-window traffic, served mid-rollout.
    for (i, &dst) in probes.iter().enumerate() {
        r.inject(in0, probe_frame(dst, 4000 + (i as u16 % 32), i as u16));
    }

    let rep = r.hot_swap(&new).unwrap();
    assert!(!rep.rolled_back, "identical routing must not regress");
    assert_eq!(rep.canary_shard, Some(0));
    assert_eq!(rep.swapped_shards, 4);
    r.run_until_idle();

    // Zero lookup divergence across the swap, on every shard.
    let after = port_map(&r.take_tx(out0), &r.take_tx(out1));
    assert_eq!(before, after, "lookup divergence across the swap");

    // Every shard reused its rt, live table and all, and the accounting
    // is intact.
    assert!(rep.reused >= 1, "{rep:?}");
    assert_eq!(r.fault_gauges().lost_packets, 0);
    let gauges = r.swap_gauges();
    assert_eq!(gauges.swaps, 1);
    assert_eq!(gauges.rollbacks, 0);
    assert_eq!(gauges.packets_transferred, rep.packets_transferred);
    r.shutdown();
}

// ---- (c) validation gate -------------------------------------------------

const BAD_GRAPH: &str = "FromDevice(in0) -> ToDevice(out0);";

#[test]
fn serial_swap_rejects_invalid_config_on_both_engines() {
    let old = read_config(SERIAL_GRAPH).unwrap();
    let bad = read_config(BAD_GRAPH).unwrap();

    // Per-packet engine.
    let mut dy: DynRouter = Router::from_graph(&old, &Library::standard()).unwrap();
    let err = dy.hot_swap(&bad, &Library::standard()).unwrap_err();
    assert!(
        err.to_string().contains("push/pull conflict"),
        "diagnostics surface: {err}"
    );
    let swap = Engine::gauges(&dy)
        .swap
        .expect("the serial runtime counts too");
    assert_eq!((swap.rejected_configs, swap.swaps), (1, 0));
    // The old configuration is untouched and still forwards.
    let in0 = dy.devices.id("in0").unwrap();
    let out0 = dy.devices.id("out0").unwrap();
    for i in 0..10u8 {
        dy.devices.inject(in0, udp(6000, i));
    }
    dy.run_until_idle(100_000);
    assert_eq!(dy.devices.tx_len(out0), 10);
    assert_eq!(dy.stat("c", "count"), Some(10));

    // Batched engine.
    let mut batched: DynRouter = Router::from_graph(&old, &Library::standard()).unwrap();
    batched.set_batching(true);
    let err = batched.hot_swap(&bad, &Library::standard()).unwrap_err();
    assert!(err.to_string().contains("push/pull conflict"), "{err}");
    assert!(
        batched.batching(),
        "a refused swap leaves the engine as it was"
    );
    let in0 = batched.devices.id("in0").unwrap();
    let out0 = batched.devices.id("out0").unwrap();
    for i in 0..10u8 {
        batched.devices.inject(in0, udp(6100, i));
    }
    batched.run_until_idle(100_000);
    assert_eq!(batched.devices.tx_len(out0), 10);
}

#[test]
fn sharded_swap_rejects_invalid_config_and_keeps_forwarding() {
    let old = read_config(SERIAL_GRAPH).unwrap();
    let bad = read_config(BAD_GRAPH).unwrap();
    let mut r =
        ParallelRouter::from_graph::<Box<dyn Element>>(&old, ParallelOpts::new(4).batched(8))
            .unwrap();
    let in0 = r.device_id("in0").unwrap();
    let out0 = r.device_id("out0").unwrap();

    let err = r.hot_swap(&bad).unwrap_err();
    assert!(err.to_string().contains("push/pull conflict"), "{err}");
    assert_eq!(r.swap_gauges().rejected_configs, 1);
    assert_eq!(r.swap_gauges().swaps, 0);

    // Only the canary's engine saw the bad graph, and it refused it
    // before moving any state; the fleet keeps forwarding.
    for seq in 0..8u8 {
        for flow in 0..8u16 {
            r.inject(in0, udp(7000 + flow, seq));
        }
    }
    assert_eq!(r.run_until_idle(), 64);
    assert_eq!(r.tx_len(out0), 64);
    assert_eq!(r.stat("c", "count"), Some(64));
    r.shutdown();
}

// ---- (d) canary rollback -------------------------------------------------

#[test]
fn regressing_canary_rolls_back_with_exact_accounting() {
    let old = read_config(SERIAL_GRAPH).unwrap();
    // The candidate checks clean but drops every packet: the canary's
    // drop gauge regresses against the surviving shards and the rollout
    // must abort.
    let faulty = read_config(
        "FromDevice(in0) -> FaultInject(DROP 1, SEED 3) -> c :: Counter \
         -> q :: Queue(8192) -> ToDevice(out0);",
    )
    .unwrap();

    let mut r =
        ParallelRouter::from_graph::<Box<dyn Element>>(&old, ParallelOpts::new(4).batched(8))
            .unwrap();
    let in0 = r.device_id("in0").unwrap();
    let out0 = r.device_id("out0").unwrap();

    // Wave 1: warm every shard under the old configuration.
    let mut injected = 0u64;
    for seq in 0..8u8 {
        for flow in 0..16u16 {
            r.inject(in0, udp(8000 + flow, seq));
            injected += 1;
        }
    }
    r.run_until_idle();

    // Wave 2 buffered: the canary's share drains under the faulty
    // configuration (and drops), the survivors' shares under the old one.
    for seq in 8..72u8 {
        for flow in 0..16u16 {
            r.inject(in0, udp(8000 + flow, seq));
            injected += 1;
        }
    }

    let rep = r
        .hot_swap_with(
            &faulty,
            SwapOpts {
                canary_window: 64,
                drop_margin: 0.05,
            },
        )
        .unwrap();
    assert!(rep.rolled_back, "a 100% drop rate must trigger rollback");
    assert_eq!(rep.canary_shard, Some(0));
    assert_eq!(rep.swapped_shards, 0, "no survivor ever ran the bad graph");
    assert!(
        rep.canary_drops > 0,
        "the regression is measured, not guessed"
    );
    r.run_until_idle();

    // Read as a tool reads them: the engine's one gauge read-out.
    let gauges = Engine::gauges(&r);
    let swap = gauges.swap.expect("the runtime counts its own swaps");
    assert_eq!(
        (
            swap.swaps,
            swap.rollbacks,
            swap.canary_failures,
            swap.rejected_configs
        ),
        (0, 1, 1, 0)
    );

    // Exact accounting: every injected packet either made it out or is
    // visible in the canary's measured faulty-regime drops.
    let tx = r.take_tx(out0);
    assert_eq!(
        tx.len() as u64 + rep.canary_drops,
        injected,
        "injected == tx + canary drops"
    );
    assert!(
        (tx.len() as u64) < injected,
        "the canary really dropped traffic while regressing"
    );
    // Survivors' flows stay ordered through the whole drill.
    assert_per_flow_order(&tx, 8000..8016);

    // The read-out is what `click-report --swap --faults` exports.
    let profile = Profile {
        source: "rollback-drill".into(),
        shards: 4,
        gauges,
        ..Profile::default()
    };
    let json = profile.to_json();
    assert!(json.contains("\"rollbacks\": 1"), "{json}");
    assert!(json.contains("\"canary_failures\": 1"), "{json}");
    assert_eq!(Profile::from_json(&json).unwrap(), profile);
    r.shutdown();
}

#[test]
fn canary_counts_a_lost_route_as_drops() {
    // The candidate forgets the 192.168/16 route: the canary's no-route
    // drops are drops like any other, so the judge sees them.
    let graph = |extra: &str| {
        read_config(&format!(
            "FromDevice(in0) -> Strip(14) -> rt :: StaticIPLookup(10.0.0.0/8 0{extra}) \
             -> q :: Queue(8192) -> ToDevice(out0);"
        ))
        .unwrap()
    };
    let mut r = ParallelRouter::from_graph::<Box<dyn Element>>(
        &graph(", 192.168.0.0/16 0"),
        ParallelOpts::new(4).batched(8),
    )
    .unwrap();
    let in0 = r.device_id("in0").unwrap();
    let out0 = r.device_id("out0").unwrap();
    let frame = |i: u16| {
        let dst = if i.is_multiple_of(2) {
            0x0A00_0001
        } else {
            0xC0A8_0001
        };
        build_udp_packet([1; 6], [2; 6], 0x0A00_0002, dst, 9000 + i % 16, 9, 18, 64)
    };
    let mut injected = 0u64;
    for i in 0..1024u16 {
        r.inject(in0, frame(i));
        injected += 1;
    }
    let rep = r
        .hot_swap_with(
            &graph(""),
            SwapOpts {
                canary_window: 64,
                drop_margin: 0.05,
            },
        )
        .unwrap();
    assert!(rep.rolled_back, "{rep:?}");
    assert!(rep.canary_drops > 0, "{rep:?}");
    r.run_until_idle();
    assert_eq!(r.take_tx(out0).len() as u64 + rep.canary_drops, injected);
    r.shutdown();
}

// ---- (e) reuse -----------------------------------------------------------

/// Figure 1 with a `FaultInject` and a `Counter` on interface 0's input,
/// so a swap has an RNG cursor and counter totals to keep.
fn figure1_with_fault(spec: &IpRouterSpec) -> RouterGraph {
    let text = spec.config().replace(
        "pd0 -> c0;",
        "pd0 -> fi :: FaultInject(DROP 0.25, SEED 9) -> n0 :: Counter -> c0;",
    );
    read_config(&text).unwrap()
}

/// What a run leaves behind: the frames each device sent, every stateful
/// element's checkpoint record (counters, queue contents, FaultInject's
/// LCG cursor), each element's telemetry counts, and the drop gauge.
#[derive(Debug, PartialEq)]
struct Outcome {
    tx: Vec<Vec<Vec<u8>>>,
    records: Vec<ElementRecord>,
    telemetry: Vec<(String, u64, u64, u64, Vec<u64>)>,
    drops: u64,
}

/// Eight waves of 32 flows through [`figure1_with_fault`], with five
/// frames parked in `q0` after the fourth; with `swap`, the router is
/// hot-swapped to its own graph right there.
fn figure1_run(batched: bool, swap: bool) -> (Outcome, Option<SwapReport>) {
    let spec = IpRouterSpec::standard(4);
    let graph = figure1_with_fault(&spec);
    let lib = Library::standard();
    let mut r: Router = Router::from_graph(&graph, &lib).unwrap();
    r.set_telemetry(true);
    r.set_batching(batched);
    let wave = |r: &mut Router, seq: u8| {
        for flow in 0..32u16 {
            let src = usize::from(flow % 4);
            let dev = r.devices.id(&format!("eth{src}")).unwrap();
            let p = router_udp(&spec, src, (src + 1) % 4, 3000 + flow, seq);
            r.devices.inject(dev, p);
        }
        r.run_until_idle(100_000);
    };
    for seq in 0..4 {
        wave(&mut r, seq);
    }
    let q0 = r.find("q0").unwrap();
    for seq in 0..5 {
        r.push_to(q0, 0, router_udp(&spec, 1, 0, 3999, seq));
    }
    let report = swap.then(|| {
        let drops = r.total_drops();
        let rep = r.hot_swap(&graph, &lib).unwrap();
        assert_eq!(r.total_drops(), drops, "total_drops is monotonic");
        assert_eq!(r.stat("q0", "length"), Some(5), "the queue kept its frames");
        rep
    });
    for seq in 4..8 {
        wave(&mut r, seq);
    }
    let tx = (0..4)
        .map(|i| {
            let dev = r.devices.id(&format!("eth{i}")).unwrap();
            let tx = r.devices.take_tx(dev);
            tx.iter().map(|p| p.data().to_vec()).collect()
        })
        .collect();
    let telemetry = r
        .telemetry_profiles()
        .into_iter()
        .map(|p| (p.name, p.calls, p.packets, p.bytes, p.out_ports))
        .collect();
    let outcome = Outcome {
        tx,
        records: r.checkpoint_snapshot().elements,
        telemetry,
        drops: r.total_drops(),
    };
    (outcome, report)
}

#[test]
fn identity_swap_of_figure1_reuses_all_but_the_devices_on_both_engines() {
    for batched in [false, true] {
        let (plain, _) = figure1_run(batched, false);
        let (swapped, rep) = figure1_run(batched, true);
        let rep = rep.unwrap();
        // Four PollDevices and four ToDevices are rebuilt; nothing else.
        assert_eq!((rep.matched, rep.fresh, rep.retired), (8, 0, 0), "{rep:?}");
        assert_eq!(rep.reused + rep.matched, plain.telemetry.len());
        let fi = plain.records.iter().find(|e| e.name == "fi").unwrap();
        assert!(fi.counters.iter().any(|(n, v)| n == "drops" && *v > 0));
        assert_eq!(swapped, plain, "a swap to the same graph changes nothing");
    }
}

#[test]
fn a_failing_constructor_leaves_the_old_router_as_it_was() {
    // `check` accepts the graph; only IPFragmenter's constructor refuses
    // an MTU of 10, after `c` and `q` were lined up for reuse.
    const WITH_BAD: &str =
        "FromDevice(in0) -> c :: Counter -> q :: Queue(4096) -> ToDevice(out0); \
                            Idle -> bad :: IPFragmenter(10) -> Discard;";
    let lib = Library::standard();
    let old = read_config(SERIAL_GRAPH).unwrap();
    let bad = read_config(WITH_BAD).unwrap();
    assert!(click_core::check::check(&bad, &lib).is_ok());
    let mut twin: Router = Router::from_graph(&old, &lib).unwrap();
    let mut r: Router = Router::from_graph(&old, &lib).unwrap();
    let feed = |r: &mut Router, seqs: std::ops::Range<u8>| {
        let in0 = r.devices.id("in0").unwrap();
        for seq in seqs {
            r.devices.inject(in0, udp(6200, seq));
        }
        let q = r.find("q").unwrap();
        r.push_to(q, 0, udp(6201, 0));
        r.run_until_idle(100_000);
        let out0 = r.devices.id("out0").unwrap();
        let tx = r.devices.take_tx(out0);
        let bytes: Vec<Vec<u8>> = tx.iter().map(|p| p.data().to_vec()).collect();
        (bytes, r.stat("c", "count"), r.stat("q", "highwater"))
    };
    assert_eq!(feed(&mut r, 0..10), feed(&mut twin, 0..10));
    let err = r.hot_swap(&bad, &lib).unwrap_err();
    assert!(err.to_string().contains("IPFragmenter"), "{err}");
    let swap = Engine::gauges(&r).swap.unwrap();
    assert_eq!((swap.rejected_configs, swap.swaps), (1, 0));
    assert_eq!(feed(&mut r, 10..30), feed(&mut twin, 10..30));
    assert_eq!(r.stat("c", "count"), Some(30));
    let rep = r.hot_swap(&old, &lib).unwrap();
    assert_eq!((rep.reused, rep.matched), (2, 2), "{rep:?}");
}

#[test]
fn rebuilt_red_reads_the_reused_queue() {
    let graph =
        read_config("Idle -> red :: RED(2, 4, 1.0) -> q :: Queue(100) -> ToDevice(out0);").unwrap();
    let lib = Library::standard();
    let mut r: DynRouter = Router::from_graph(&graph, &lib).unwrap();
    let q = r.find("q").unwrap();
    for seq in 0..20 {
        r.push_to(q, 0, udp(5100, seq));
    }
    let rep = r.hot_swap(&graph, &lib).unwrap();
    assert_eq!(
        (rep.reused, rep.matched),
        (2, 2),
        "Idle and q stay; red and ToDevice rebuild"
    );
    assert_eq!(r.stat("q", "length"), Some(20));
    // Twenty queued is past max_thresh: the new RED must see that depth
    // and drop everything, where a RED wired to nothing reads 0.
    let red = r.find("red").unwrap();
    for seq in 0..10 {
        r.push_to(red, 0, udp(5101, seq));
    }
    assert_eq!(r.stat("red", "drops"), Some(10));
    assert_eq!(r.stat("q", "length"), Some(20));
}
