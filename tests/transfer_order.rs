//! Order and drop accounting of the transfer engines, against a model.
//!
//! Random tree-shaped push graphs built from the multi-emitters (`Tee`,
//! `PaintTee`, a `Classifier` fan, the error outputs of `CheckIPHeader`
//! and `DecIPTTL`, `ICMPError`, `IPFragmenter`) run on the scalar engine,
//! on the batched engine, and on a reference inside this file that
//! delivers depth-first by plain recursion. Per-device TX byte sequences
//! and the drop gauges must agree. A deliberate push loop, which the
//! reference cannot run, pins the hop-budget count to a constant.
//!
//! Randomness is a fixed-seed LCG: deterministic and dependency-free.

use click::core::lang::read_config;
use click::core::registry::Library;
use click::core::Lcg;
use click::core::RouterGraph;
use click::elements::element::{CreateCtx, DeviceId, Element, Emitter};
use click::elements::elements::create_element;
use click::elements::headers::ipv4;
use click::elements::ip_router::{test_packet, IpRouterSpec};
use click::elements::packet::Packet;
use click::elements::{DynRouter, PacketBatch, Router};
use std::collections::HashMap;

/// Inner nodes: `(class and configuration, output ports)`.
const NODES: &[(&str, usize)] = &[
    ("Tee(2)", 2),
    ("Tee(3)", 3),
    ("Paint(1)", 1),
    ("PaintTee(1)", 2),
    ("Classifier(12/0800, 9/11, -)", 3),
    ("Strip(14)", 1),
    ("CheckIPHeader", 2),
    ("DecIPTTL", 2),
    ("ICMPError(10.0.0.1, 11, 0)", 1),
    ("IPFragmenter(68)", 2),
    ("Counter", 1),
];

/// A random tree below `n0`: every output of every node leads to another
/// node, a `Queue -> ToDevice` of its own, a `Discard`, or nothing.
/// Returns the configuration text.
fn random_tree(r: &mut Lcg) -> String {
    // Declarations first: a name used before its declaration would be
    // read as a class.
    let mut decl_text = String::from("src :: Idle;\n");
    let mut wire_text = String::from("src -> n0;\n");
    let mut decls = vec![NODES[r.below(NODES.len())]];
    let mut next = 0;
    while next < decls.len() {
        let (class, nout) = decls[next];
        decl_text.push_str(&format!("n{next} :: {class};\n"));
        // Trailing ports may stay unconnected (the checker allows no gap
        // below a connected port): what they emit is an engine drop.
        let connected = if r.below(3) == 0 {
            1 + r.below(nout)
        } else {
            nout
        };
        for port in 0..connected {
            let from = format!("n{next} [{port}]");
            let leaf = decls.len() >= 12 || r.below(3) == 0;
            match (leaf, r.below(4)) {
                (false, _) => {
                    wire_text.push_str(&format!("{from} -> n{};\n", decls.len()));
                    decls.push(NODES[r.below(NODES.len())]);
                }
                (true, 0) => wire_text.push_str(&format!("{from} -> Discard;\n")),
                (true, _) => wire_text.push_str(&format!(
                    "{from} -> Queue(4096) -> ToDevice(d{next}_{port});\n"
                )),
            }
        }
        next += 1;
    }
    decl_text + &wire_text
}

/// Ethernet/IP frames, bare IP packets of several lengths, expiring TTLs,
/// corrupt headers and runts.
fn random_packet(spec: &IpRouterSpec, r: &mut Lcg) -> Packet {
    let mut p = test_packet(spec, r.below(4), r.below(4));
    if r.below(2) == 0 {
        p.pull(14);
        if r.below(2) == 0 {
            let grow = 40 + r.below(200);
            p.put(grow);
            let len = p.len() as u16;
            let ip = p.data_mut();
            ip[2..4].copy_from_slice(&len.to_be_bytes());
            ip[8] = 1 + r.below(3) as u8;
            ipv4::set_checksum(ip);
        }
    }
    match r.below(8) {
        0 => p.data_mut()[r.below(20)] ^= 0xFF,
        1 => {
            let keep = r.below(p.len());
            p.take(p.len() - keep);
        }
        _ => {}
    }
    p
}

type Tx = Vec<(String, Vec<Vec<u8>>)>;

/// What a run leaves behind: per-device TX bytes in order, then
/// `(unconnected, reentrant, total)` drops.
type Outcome = (Tx, (u64, u64, u64));

fn engine_outcome(r: &mut DynRouter) -> Outcome {
    r.run_until_idle(10_000);
    let mut tx: Tx = (0..r.devices.len())
        .map(|i| {
            let frames = r.devices.take_tx(DeviceId(i));
            let bytes = frames.iter().map(|p| p.data().to_vec()).collect();
            (r.devices.names()[i].to_owned(), bytes)
        })
        .collect();
    tx.sort();
    let drops = (r.unconnected_drops(), r.reentrant_drops(), r.total_drops());
    (tx, drops)
}

fn run_scalar(graph: &RouterGraph, packets: &[Packet]) -> Outcome {
    let mut r: DynRouter = Router::from_graph(graph, &Library::standard()).unwrap();
    let root = r.find("n0").unwrap();
    for p in packets {
        r.push_to(root, 0, p.clone());
    }
    engine_outcome(&mut r)
}

fn run_batched(graph: &RouterGraph, packets: &[Packet], r: &mut Lcg) -> Outcome {
    let mut router: DynRouter = Router::from_graph(graph, &Library::standard()).unwrap();
    router.set_batching(true);
    let root = router.find("n0").unwrap();
    let mut rest = packets;
    while !rest.is_empty() {
        let (now, later) = rest.split_at((1 + r.below(8)).min(rest.len()));
        router.push_batch_to(root, 0, now.iter().cloned().collect::<PacketBatch>());
        rest = later;
    }
    engine_outcome(&mut router)
}

/// The model: real elements, wired by a map, delivered by recursion in
/// emission order. A `Queue` stands for the device it feeds.
struct Reference {
    elems: Vec<Box<dyn Element>>,
    wires: HashMap<(usize, usize), (usize, usize)>,
    device_of: HashMap<usize, usize>,
    tx: Tx,
    unconnected: u64,
}

impl Reference {
    fn new(graph: &RouterGraph) -> Reference {
        let ids: Vec<_> = graph.element_ids().collect();
        let slot = |id| ids.iter().position(|&i| i == id).unwrap();
        let mut ctx = CreateCtx::new();
        let mut m = Reference {
            elems: Vec::new(),
            wires: HashMap::new(),
            device_of: HashMap::new(),
            tx: Vec::new(),
            unconnected: 0,
        };
        for &id in &ids {
            let decl = graph.element(id);
            m.elems
                .push(create_element(decl.class(), decl.config(), &mut ctx).unwrap());
            if decl.class() == "ToDevice" {
                let queue = graph.connections_to(id, 0).next().unwrap().from.element;
                m.device_of.insert(slot(queue), m.tx.len());
                m.tx.push((decl.config().to_owned(), Vec::new()));
            }
        }
        for c in graph.connections() {
            let from = (slot(c.from.element), c.from.port);
            m.wires.insert(from, (slot(c.to.element), c.to.port));
        }
        m
    }

    fn deliver(&mut self, e: usize, port: usize, p: Packet) {
        if let Some(&dev) = self.device_of.get(&e) {
            self.tx[dev].1.push(p.data().to_vec());
            return;
        }
        let mut out = Emitter::new();
        self.elems[e].push(port, p, &mut out);
        let emitted: Vec<_> = out.drain().collect();
        for (oport, q) in emitted {
            match self.wires.get(&(e, oport)) {
                Some(&(te, tp)) => self.deliver(te, tp, q),
                None => self.unconnected += 1,
            }
        }
    }

    fn outcome(mut self) -> Outcome {
        self.tx.sort();
        let drops: u64 = self.elems.iter().filter_map(|e| e.stat("drops")).sum();
        let unconnected = self.unconnected;
        (self.tx, (unconnected, 0, drops + unconnected))
    }
}

#[test]
fn engines_agree_with_recursive_delivery_on_random_trees() {
    let spec = IpRouterSpec::standard(4);
    let mut r = Lcg::new(0x5EED_0014);
    let (mut delivered, mut engine_drops) = (0, 0);
    for case in 0..60 {
        let text = random_tree(&mut r);
        let graph = read_config(&text).unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
        let packets: Vec<Packet> = (0..48).map(|_| random_packet(&spec, &mut r)).collect();

        let mut model = Reference::new(&graph);
        let root = graph
            .element_ids()
            .position(|id| graph.element(id).name() == "n0");
        for p in &packets {
            model.deliver(root.unwrap(), 0, p.clone());
        }
        let want = model.outcome();
        assert_eq!(
            run_scalar(&graph, &packets),
            want,
            "scalar, case {case}:\n{text}"
        );
        assert_eq!(
            run_batched(&graph, &packets, &mut r),
            want,
            "batched, case {case}:\n{text}"
        );
        delivered += want.0.iter().map(|(_, frames)| frames.len()).sum::<usize>();
        engine_drops += want.1 .0;
    }
    // The generator must reach what it is there to test.
    assert!(delivered > 1000, "only {delivered} frames transmitted");
    assert!(engine_drops > 100, "only {engine_drops} unconnected drops");
}

#[test]
fn push_loop_ends_on_the_hop_budget_with_the_same_count() {
    // t -> n -> t never ends, and every lap (t, c, Discard, n) hands `c`
    // one copy. With 5 elements the budget is 64 + 5 * 64 = 384 hops: 96
    // laps, then the packet still circulating is dropped as re-entrant.
    // The counts are those of the engine before the flat wiring table.
    let text = "src :: Idle; t :: Tee(2); n :: Null; c :: Counter; \
                src -> t; t [0] -> n -> t; t [1] -> c -> Discard;";
    let graph = read_config(text).unwrap();
    let packet = Packet::new(60);
    for batched in [false, true] {
        let mut r: DynRouter = Router::from_graph(&graph, &Library::standard()).unwrap();
        r.set_batching(batched);
        let t = r.find("t").unwrap();
        if batched {
            r.push_batch_to(t, 0, std::iter::once(packet.clone()).collect());
        } else {
            r.push_to(t, 0, packet.clone());
        }
        let got = (r.reentrant_drops(), r.stat("c", "count"), r.total_drops());
        assert_eq!(got, LOOP_COUNTS, "batched: {batched}");
    }
}

/// `(reentrant_drops, c.count, total_drops)` of the loop above.
const LOOP_COUNTS: (u64, Option<u64>, u64) = (1, Some(96), 1);
