//! Property tests for the batched (vector-transfer) engine: on the
//! Figure-1 IP router it must be output- and stats-equivalent to the
//! scalar per-packet engine at every batch size — and the packet pool must
//! serve (nearly) every steady-state allocation.
//!
//! Randomness comes from a fixed-seed LCG so the suite is deterministic
//! and dependency-free.

mod common;

use click::core::registry::Library;
use click::core::Lcg;
use click::core::RouterGraph;
use click::elements::element::{CreateCtx, Element, Emitter};
use click::elements::elements::ip::StaticIPLookup;
use click::elements::headers::{build_udp_packet, ether, ipv4};
use click::elements::ip_router::{test_packet, IpRouterSpec};
use click::elements::packet::{pool_stats, reset_pool_stats, Packet};
use click::elements::{BatchEmitter, PacketBatch, Router};

const N: usize = 4;

/// A pure-forwarding workload: valid cross-interface UDP only, all from
/// one input so even inter-device scheduling order is fixed.
fn pure_workload(spec: &IpRouterSpec, r: &mut Lcg, count: usize) -> Vec<(usize, Packet)> {
    (0..count)
        .map(|_| {
            let mut p = test_packet(spec, 0, 2 + r.below(2));
            p.data_mut()[50] = r.next() as u8;
            (0, p)
        })
        .collect()
}

/// A branchy workload: forwarding mixed with TTL expiries (ICMP errors),
/// non-IP junk, and runts, spread over every input interface.
fn branchy_workload(spec: &IpRouterSpec, r: &mut Lcg, count: usize) -> Vec<(usize, Packet)> {
    (0..count)
        .map(|_| {
            let src = r.below(N);
            match r.below(10) {
                0 => {
                    // TTL 1: expires at the router, ICMP error back out.
                    let mut p = test_packet(spec, src, (src + 1) % N);
                    {
                        let ip = &mut p.data_mut()[14..];
                        ip[8] = 1;
                        ipv4::set_checksum(ip);
                    }
                    (src, p)
                }
                1 => {
                    // Non-IP ethertype: classified out and discarded.
                    let mut p = Packet::new(60);
                    p.data_mut()[12] = 0x86;
                    p.data_mut()[13] = 0xDD;
                    (src, p)
                }
                2 => {
                    // Runt frame.
                    (src, Packet::new(r.below(34)))
                }
                _ => {
                    let mut dst = r.below(N);
                    if dst == src {
                        dst = (dst + 1) % N;
                    }
                    let mut p = test_packet(spec, src, dst);
                    p.data_mut()[50] = r.next() as u8;
                    (src, p)
                }
            }
        })
        .collect()
}

/// Runs a workload through one engine, returning per-device output frames
/// and the stats the ISSUE names as the equivalence surface.
fn run(
    graph: &RouterGraph,
    workload: &[(usize, Packet)],
    batch: Option<usize>,
) -> (Vec<Vec<Vec<u8>>>, [u64; 3]) {
    let lib = Library::standard();
    let mut router: Router = Router::from_graph(graph, &lib).expect("router builds");
    if let Some(b) = batch {
        router.set_batching(true);
        router.set_batch_burst(b);
    }
    for (src, p) in workload {
        let id = router.devices.id(&format!("eth{src}")).expect("device");
        router.devices.inject(id, p.clone());
    }
    router.run_until_idle(100_000);
    let outputs = (0..N)
        .map(|d| {
            let id = router.devices.id(&format!("eth{d}")).expect("device");
            router
                .devices
                .take_tx(id)
                .iter()
                .map(|p| p.data().to_vec())
                .collect()
        })
        .collect();
    let stats = [
        router.class_stat("Discard", "count"),
        router.class_stat("Queue", "drops"),
        router.class_stat("CheckIPHeader", "bad"),
    ];
    (outputs, stats)
}

fn sorted(mut outputs: Vec<Vec<Vec<u8>>>) -> Vec<Vec<Vec<u8>>> {
    for dev in &mut outputs {
        dev.sort();
    }
    outputs
}

#[test]
fn batched_engine_matches_scalar_exactly_on_pure_forwarding() {
    let spec = IpRouterSpec::standard(N);
    let graph = click::core::lang::read_config(&spec.config()).unwrap();
    let mut r = Lcg::new(0xBA7C4);
    let workload = pure_workload(&spec, &mut r, 96);
    let (reference, ref_stats) = run(&graph, &workload, None);
    assert!(
        reference.iter().map(Vec::len).sum::<usize>() == 96,
        "reference forwards all"
    );
    for batch in [1usize, 8, 64] {
        let (out, stats) = run(&graph, &workload, Some(batch));
        assert_eq!(
            out, reference,
            "batched({batch}) reorders or alters packets"
        );
        assert_eq!(stats, ref_stats, "batched({batch}) stats");
    }
}

#[test]
fn batched_engine_matches_scalar_on_branchy_mixes() {
    // Error paths (ICMP generation, discards) make cross-device task
    // interleaving visible, so compare per-device multisets plus the
    // drop/discard counters rather than global arrival order.
    let spec = IpRouterSpec::standard(N);
    let graph = click::core::lang::read_config(&spec.config()).unwrap();
    for seed in [1u64, 0xFEED, 0xD00D] {
        let mut r = Lcg::new(seed);
        let workload = branchy_workload(&spec, &mut r, 128);
        let (reference, ref_stats) = run(&graph, &workload, None);
        let reference = sorted(reference);
        for batch in [1usize, 8, 64] {
            let (out, stats) = run(&graph, &workload, Some(batch));
            assert_eq!(sorted(out), reference, "batched({batch}), seed {seed:#x}");
            assert_eq!(stats, ref_stats, "batched({batch}) stats, seed {seed:#x}");
        }
    }
}

#[test]
fn pool_serves_steady_state_allocations() {
    // After warmup, a forwarding loop that recycles what it drains should
    // allocate >= 99% of its packets from the pool, in both modes.
    let spec = IpRouterSpec::standard(N);
    let graph = click::core::lang::read_config(&spec.config()).unwrap();
    let lib = Library::standard();
    for batch in [None, Some(64usize)] {
        let mut router: Router = Router::from_graph(&graph, &lib).unwrap();
        if let Some(b) = batch {
            router.set_batching(true);
            router.set_batch_burst(b);
        }
        let mut r = Lcg::new(0x9001);
        let devs: Vec<_> = (0..N)
            .map(|i| router.devices.id(&format!("eth{i}")).unwrap())
            .collect();
        let iteration = |router: &mut Router, r: &mut Lcg| {
            for _ in 0..32 {
                let src = r.below(N);
                let p = test_packet(&spec, src, (src + 2) % N);
                router.devices.inject(devs[src], p);
            }
            router.run_until_idle(10_000);
            for &d in &devs {
                router.devices.recycle_tx(d);
            }
        };
        for _ in 0..32 {
            iteration(&mut router, &mut r);
        }
        reset_pool_stats();
        for _ in 0..64 {
            iteration(&mut router, &mut r);
        }
        let s = pool_stats();
        assert!(
            s.hit_rate() >= 0.99,
            "steady-state pool hit rate {:.4} (batch {batch:?}): {s:?}",
            s.hit_rate()
        );
    }
}

/// Per-device output frames and every counter of a task-only graph:
/// `InfiniteSource` pushes, `RouterLink` pulls one queue into another, and
/// `ToDevice` drains to the wire, so each task kind's burst crosses the
/// engine in the given mode.
fn run_tasks(batch: Option<usize>) -> (Vec<Vec<Vec<u8>>>, Vec<Option<u64>>) {
    let graph = click::core::lang::read_config(
        "s0 :: InfiniteSource(203, 60) -> c0 :: Counter -> q0 :: Queue(1024) \
           -> l0 :: RouterLink -> t :: Tee(2); \
         t [0] -> qa :: Queue(1024) -> ta :: ToDevice(out0); \
         t [1] -> Strip(14) -> c1 :: Counter -> qb :: Queue(1024) -> tb :: ToDevice(out1); \
         s1 :: InfiniteSource(37, 90) -> q1 :: Queue(1024) -> l1 :: RouterLink \
           -> c2 :: Counter -> qc :: Queue(1024) -> tc :: ToDevice(out2);",
    )
    .unwrap();
    let mut router: Router = Router::from_graph(&graph, &Library::standard()).unwrap();
    if let Some(b) = batch {
        router.set_batching(true);
        router.set_batch_burst(b);
    }
    router.run_until_idle(100_000);
    let outputs = ["out0", "out1", "out2"]
        .map(|d| {
            let id = router.devices.id(d).unwrap();
            let frames = router.devices.take_tx(id);
            frames.iter().map(|p| p.data().to_vec()).collect()
        })
        .to_vec();
    let stats = [
        ("s0", "count"),
        ("s1", "count"),
        ("c0", "count"),
        ("c1", "count"),
        ("c2", "count"),
        ("l0", "count"),
        ("l1", "count"),
        ("ta", "count"),
        ("tb", "count"),
        ("tc", "count"),
        ("q0", "drops"),
        ("qc", "drops"),
    ]
    .iter()
    .map(|&(e, s)| router.stat(e, s))
    .chain([Some(router.total_drops())])
    .collect();
    (outputs, stats)
}

#[test]
fn source_and_link_tasks_match_across_modes() {
    let (reference, ref_stats) = run_tasks(None);
    assert_eq!(
        reference.iter().map(Vec::len).collect::<Vec<_>>(),
        [203, 203, 37]
    );
    assert_eq!(reference[1][0].len(), 46, "out1 carries the stripped copy");
    for batch in [1usize, 8, 64] {
        let (out, stats) = run_tasks(Some(batch));
        assert_eq!(out, reference, "batched({batch}) outputs");
        assert_eq!(stats, ref_stats, "batched({batch}) stats");
    }
}

/// What a route lookup sent out of each port, in order: every packet's
/// next-hop annotation and bytes.
type PortLog = Vec<Vec<(Option<u32>, Vec<u8>)>>;

fn log_packet(log: &mut PortLog, port: usize, p: Packet) {
    log[port].push((p.anno.dst_ip, p.data().to_vec()));
}

/// IP packets to `dsts` (data at the IP header); every other one also
/// carries its destination as an annotation, as `GetIPAddress` leaves it.
fn lookup_traffic(dsts: &[u32]) -> Vec<Packet> {
    dsts.iter()
        .enumerate()
        .map(|(i, &dst)| {
            let mut p = build_udp_packet([2; 6], [4; 6], 0x0A00_0002, dst, 1234, i as u16, 18, 64);
            p.pull(ether::HLEN);
            if i % 2 == 0 {
                p.anno.dst_ip = Some(dst);
            }
            p
        })
        .collect()
}

/// `StaticIPLookup`'s batch body against its scalar one over a big table
/// of deeply nested routes: batches longer than the lookup's lanes, with
/// destinations that end at every trie level and some that have no
/// route in each batch. Each port's packet sequence, their next-hop
/// annotations and the `drops` stat are the scalar element's.
#[test]
fn big_table_lookup_batches_as_it_pushes() {
    let (routes, prefixes) = common::deep_routes(0x7AB1E, 20_000);
    let dsts = common::destinations(0xDE57, &prefixes, 3000);
    let mut scalar = StaticIPLookup::from_config(&routes, &mut CreateCtx::new()).unwrap();
    let depths: Vec<usize> = dsts.iter().map(|&d| scalar.route_steps(d).1).collect();
    for depth in 0..=3 {
        assert!(
            depths.contains(&depth),
            "no destination ends at trie level {depth}"
        );
    }
    let mut want: PortLog = vec![Vec::new(); common::PORTS];
    let mut out = Emitter::new();
    for p in lookup_traffic(&dsts) {
        scalar.push(0, p, &mut out);
        for (port, q) in out.drain() {
            log_packet(&mut want, port, q);
        }
    }
    let drops = scalar.stat("drops").unwrap();
    assert!(drops >= dsts.len() as u64 / 7, "{drops} drops");
    for len in [65usize, 200, 333] {
        let mut batched = StaticIPLookup::from_config(&routes, &mut CreateCtx::new()).unwrap();
        let mut got: PortLog = vec![Vec::new(); common::PORTS];
        let mut out = BatchEmitter::new();
        let mut traffic = lookup_traffic(&dsts).into_iter().peekable();
        while traffic.peek().is_some() {
            let batch: PacketBatch = traffic.by_ref().take(len).collect();
            batched.push_batch(0, batch, &mut out);
            // One group per port and call, so per-port order is the
            // order within each group.
            while let Some((port, mut group)) = out.pop_group() {
                for q in group.drain() {
                    log_packet(&mut got, port, q);
                }
            }
        }
        assert!(got == want, "batches of {len}: per-port output differs");
        assert_eq!(batched.stat("drops"), Some(drops), "batches of {len}");
    }
}
