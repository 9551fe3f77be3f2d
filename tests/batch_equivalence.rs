//! Property tests for the batched (vector-transfer) engine: on the
//! Figure-1 IP router it must be output- and stats-equivalent to the
//! scalar per-packet engine at every batch size — and the packet pool must
//! serve (nearly) every steady-state allocation.
//!
//! Randomness comes from a fixed-seed LCG so the suite is deterministic
//! and dependency-free.

use click::core::registry::Library;
use click::core::Lcg;
use click::core::RouterGraph;
use click::elements::headers::ipv4;
use click::elements::ip_router::{test_packet, IpRouterSpec};
use click::elements::packet::{pool_stats, reset_pool_stats, Packet};
use click::elements::Router;

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
                for p in router.devices.take_tx(d) {
                    p.recycle();
                }
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
