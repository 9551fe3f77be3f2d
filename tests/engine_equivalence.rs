//! The central correctness property of the whole reproduction: every
//! optimizer preserves router semantics. Each Figure-9 variant of the IP
//! router must forward an identical packet set to byte-identical outputs.

use click::core::registry::Library;
use click::elements::ip_router::{test_packet, IpRouterSpec};
use click::elements::packet::Packet;
use click::elements::Router;
use click_bench::ip_router_variants;

const N: usize = 4;

/// The workload: cross-interface UDP, an ARP request for the router, and
/// a TTL-expiring packet. Returns (per-output-device frames, discards).
fn run_workload(graph: &click::core::RouterGraph) -> (Vec<Vec<Vec<u8>>>, u64) {
    let spec = IpRouterSpec::standard(N);
    let lib = Library::standard();
    let mut router: Router = Router::from_graph(graph, &lib).expect("router builds");
    let mut inject = |dev: usize, p: Packet| {
        let id = router.devices.id(&format!("eth{dev}")).expect("device");
        router.devices.inject(id, p);
    };
    // Normal forwarding, several flows.
    for i in 0..8usize {
        let src = i % 2;
        let dst = 2 + (i % 2);
        let mut p = test_packet(&spec, src, dst);
        p.data_mut()[50] = i as u8;
        inject(src, p);
    }
    // A TTL-1 packet: generates an ICMP error back out the source side.
    let mut dying = test_packet(&spec, 0, 2);
    {
        let ip = &mut dying.data_mut()[14..];
        ip[8] = 1;
        click::elements::headers::ipv4::set_checksum(ip);
    }
    inject(0, dying);
    // A non-IP frame: discarded.
    let mut junk = Packet::new(60);
    junk.data_mut()[12] = 0x86;
    junk.data_mut()[13] = 0xDD;
    inject(1, junk);

    router.run_until_idle(50_000);
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
    (outputs, router.class_stat("Discard", "count"))
}

#[test]
fn every_variant_forwards_identically() {
    let variants = ip_router_variants(N).expect("variants build");
    let base = variants.iter().find(|v| v.name == "Base").unwrap();
    let (reference, _) = run_workload(&base.graph);
    // Sanity on the reference itself: 8 forwarded + 1 ICMP error.
    let forwarded: usize = reference.iter().map(Vec::len).sum();
    assert_eq!(forwarded, 9, "reference forwarded {forwarded}");

    for v in &variants {
        if v.name == "Simple" || v.name == "Base" {
            continue; // Simple is a different topology
        }
        let (outputs, _) = run_workload(&v.graph);
        assert_eq!(outputs, reference, "variant {} diverges from Base", v.name);
    }
}

#[test]
fn devirtualized_variants_also_run_on_dyn_engine() {
    // The generated `Class__DVn` names resolve to their base behavior in
    // the element factory, so a devirtualized config is still portable.
    let variants = ip_router_variants(N).expect("variants build");
    let base = variants.iter().find(|v| v.name == "Base").unwrap();
    let all = variants.iter().find(|v| v.name == "All").unwrap();
    let (reference, _) = run_workload(&base.graph);
    let (outputs, _) = run_workload(&all.graph);
    assert_eq!(outputs, reference);
}
