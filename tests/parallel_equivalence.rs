//! Parallel/serial equivalence: the sharded runtime must be
//! observationally identical to the serial engine. The same input trace
//! through `Router` and `ParallelRouter` (at 1, 2, and 4 shards) must
//! produce identical per-class statistics and identical per-flow packet
//! order, on both the dynamic and the compiled engine.
//!
//! Cross-shard (total) output order is *not* compared — shards complete
//! independently and the runtime only promises per-flow FIFO, the same
//! guarantee hardware RSS gives a multi-queue NIC.

use click::core::RouterGraph;
use click::elements::ip_router::{test_packet_flow, IpRouterSpec};
use click::elements::packet::Packet;
use click::elements::parallel::{ParallelOpts, ParallelRouter};
use click::elements::router::Slot;
use click::elements::steer::flow_key;
use click::elements::Router;
use click_bench::ip_router_variants;

const N: usize = 4;
const FLOWS: u16 = 12;
const PER_FLOW: u8 = 6;

/// The trace: FLOWS cross-interface UDP flows, PER_FLOW packets each,
/// interleaved round-robin, with a per-flow sequence number in the
/// payload.
fn trace(spec: &IpRouterSpec) -> Vec<(usize, Packet)> {
    let mut out = Vec::new();
    for seq in 0..PER_FLOW {
        for flow in 0..FLOWS {
            let src = usize::from(flow) % (N / 2);
            let dst = src + N / 2;
            let mut p = test_packet_flow(spec, src, dst, 2000 + flow, 7000);
            let n = p.len();
            p.data_mut()[n - 1] = seq;
            out.push((src, p));
        }
    }
    out
}

/// What equivalence compares: per-class stats that must match exactly,
/// and each flow's observed payload sequence on each output device.
#[derive(Debug, PartialEq)]
struct Observation {
    counters: Vec<(String, u64)>,
    unconnected_drops: u64,
    reentrant_drops: u64,
    /// (output device, flow source port) → payload sequence numbers.
    flows: Vec<((usize, u16), Vec<u8>)>,
}

const CLASSES: [(&str, &str); 3] = [
    ("Queue", "drops"),
    ("Discard", "count"),
    ("IPFragmenter", "drops"),
];

fn flows_of(outputs: Vec<(usize, Vec<Packet>)>) -> Vec<((usize, u16), Vec<u8>)> {
    let mut flows: Vec<((usize, u16), Vec<u8>)> = Vec::new();
    for (dev, packets) in outputs {
        for p in packets {
            let sport = flow_key(p.data()).map_or(0, |k| k.3);
            let seq = p.data()[p.len() - 1];
            match flows.iter_mut().find(|(k, _)| *k == (dev, sport)) {
                Some((_, seqs)) => seqs.push(seq),
                None => flows.push(((dev, sport), vec![seq])),
            }
        }
    }
    flows.sort_by_key(|(k, _)| *k);
    flows
}

fn run_serial<S: Slot>(graph: &RouterGraph, batched: bool) -> Observation {
    let spec = IpRouterSpec::standard(N);
    let lib = click::core::registry::Library::standard();
    let mut router: Router<S> = Router::from_graph(graph, &lib).expect("router builds");
    if batched {
        router.set_batching(true);
        router.set_batch_burst(8);
    }
    for (src, p) in trace(&spec) {
        let id = router.devices.id(&format!("eth{src}")).expect("device");
        router.devices.inject(id, p);
    }
    router.run_until_idle(100_000);
    let outputs = (0..N)
        .map(|d| {
            let id = router.devices.id(&format!("eth{d}")).expect("device");
            (d, router.devices.take_tx(id))
        })
        .collect();
    Observation {
        counters: CLASSES
            .iter()
            .map(|(c, s)| (format!("{c}.{s}"), router.class_stat(c, s)))
            .collect(),
        unconnected_drops: router.unconnected_drops(),
        reentrant_drops: router.reentrant_drops(),
        flows: flows_of(outputs),
    }
}

fn run_parallel<S: Slot + 'static>(
    graph: &RouterGraph,
    shards: usize,
    batched: bool,
) -> Observation {
    let spec = IpRouterSpec::standard(N);
    let mut opts = ParallelOpts::new(shards);
    if batched {
        opts = opts.batched(8);
    }
    let mut router = ParallelRouter::from_graph::<S>(graph, opts).expect("parallel router builds");
    for (src, p) in trace(&spec) {
        let id = router.device_id(&format!("eth{src}")).expect("device");
        router.inject(id, p);
    }
    router.run_until_idle();
    let outputs = (0..N)
        .map(|d| {
            let id = router.device_id(&format!("eth{d}")).expect("device");
            (d, router.take_tx(id))
        })
        .collect();
    Observation {
        counters: CLASSES
            .iter()
            .map(|(c, s)| (format!("{c}.{s}"), router.class_stat(c, s)))
            .collect(),
        unconnected_drops: router.unconnected_drops(),
        reentrant_drops: router.reentrant_drops(),
        flows: flows_of(outputs),
    }
}

fn check_engine<S: Slot + 'static>(graph: &RouterGraph, batched: bool) {
    let reference = run_serial::<S>(graph, batched);
    // Sanity: every packet of every flow was forwarded, in order.
    assert_eq!(reference.flows.len(), usize::from(FLOWS));
    for ((_, sport), seqs) in &reference.flows {
        assert_eq!(
            *seqs,
            (0..PER_FLOW).collect::<Vec<u8>>(),
            "serial reference reordered flow {sport}"
        );
    }
    for shards in [1usize, 2, 4] {
        let got = run_parallel::<S>(graph, shards, batched);
        assert_eq!(
            got, reference,
            "{shards}-shard runtime diverges from serial (batched={batched})"
        );
    }
}

#[test]
fn dyn_engine_parallel_matches_serial() {
    let variants = ip_router_variants(N).expect("variants build");
    let base = &variants.iter().find(|v| v.name == "Base").unwrap().graph;
    check_engine::<Box<dyn click::elements::Element>>(base, false);
}

#[test]
fn dyn_engine_parallel_matches_serial_batched() {
    let variants = ip_router_variants(N).expect("variants build");
    let base = &variants.iter().find(|v| v.name == "Base").unwrap().graph;
    check_engine::<Box<dyn click::elements::Element>>(base, true);
}

#[test]
fn compiled_engine_parallel_matches_serial() {
    let variants = ip_router_variants(N).expect("variants build");
    let all = &variants.iter().find(|v| v.name == "All").unwrap().graph;
    check_engine::<click::elements::fast::FastElement>(all, false);
}

#[test]
fn compiled_engine_parallel_matches_serial_batched() {
    let variants = ip_router_variants(N).expect("variants build");
    let all = &variants.iter().find(|v| v.name == "All").unwrap().graph;
    check_engine::<click::elements::fast::FastElement>(all, true);
}

#[test]
fn parallel_and_serial_agree_across_optimization_levels() {
    // The optimizer-equivalence property and the sharding-equivalence
    // property compose: optimized graphs on the sharded runtime still
    // match the unoptimized serial reference.
    let variants = ip_router_variants(N).expect("variants build");
    let base = &variants.iter().find(|v| v.name == "Base").unwrap().graph;
    let all = &variants.iter().find(|v| v.name == "All").unwrap().graph;
    let reference = run_serial::<Box<dyn click::elements::Element>>(base, false);
    let got = run_parallel::<click::elements::fast::FastElement>(all, 4, true);
    assert_eq!(got, reference);
}
