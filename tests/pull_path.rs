//! Agnostic elements on a pull path do their work, on both transfer
//! engines (per-packet and batched).
//!
//! A pulled element runs the same per-packet `action` as a pushed one:
//! `DecIPTTL` decrements and expires, `CheckIPHeader` sends a bad packet
//! out of its push-side output 1, and a packet the element consumes does
//! not end the pull, so the router is not taken for idle while packets
//! still wait in the queue.

use click::core::lang::read_config;
use click::core::registry::Library;
use click::elements::headers::{build_udp_packet, ether, ipv4};
use click::elements::packet::Packet;
use click::elements::{DynRouter, Router};

fn router(src: &str, batching: bool) -> DynRouter {
    let graph = read_config(src).unwrap();
    let mut r: DynRouter = Router::from_graph(&graph, &Library::standard()).unwrap();
    r.set_batching(batching);
    r
}

/// A bare IP/UDP packet (no Ethernet header) with the given TTL.
fn ip_packet(ttl: u8) -> Packet {
    let mut p = build_udp_packet([1; 6], [2; 6], 0x0A00_0001, 0x0A00_0102, 7, 9, 18, ttl);
    p.pull(ether::HLEN);
    p
}

/// Sent bytes per device, in order.
fn sent(r: &mut DynRouter, dev: &str) -> Vec<Vec<u8>> {
    let dev = r.devices.id(dev).unwrap();
    r.devices
        .take_tx(dev)
        .iter()
        .map(|p| p.data().to_vec())
        .collect()
}

#[test]
fn pulled_ttl_and_header_checks_do_their_work() {
    const SRC: &str = "FromDevice(in0) -> Queue(64) -> ttl :: DecIPTTL \
                       -> chk :: CheckIPHeader -> ToDevice(out0); \
                       ttl [1] -> Queue(64) -> ToDevice(expired0); \
                       chk [1] -> Queue(64) -> ToDevice(bad0);";
    for batching in [false, true] {
        let mut r = router(SRC, batching);
        let in0 = r.devices.id("in0").unwrap();
        let mut bad_sum = ip_packet(64);
        bad_sum.data_mut()[10] ^= 0xFF;
        let bad_bytes = bad_sum.data().to_vec();
        let (fresh, dying) = (ip_packet(64), ip_packet(1));
        let dying_bytes = dying.data().to_vec();
        for p in [fresh, dying, Packet::new(10), bad_sum] {
            r.devices.inject(in0, p);
        }
        r.run_until_idle(100);

        let out = sent(&mut r, "out0");
        assert_eq!(out.len(), 1, "batching {batching}: one packet forwarded");
        assert_eq!(
            ipv4::ttl(&out[0]),
            63,
            "batching {batching}: TTL decremented"
        );
        assert!(
            ipv4::checksum_ok(&out[0]),
            "batching {batching}: checksum updated"
        );
        assert_eq!(
            sent(&mut r, "expired0"),
            vec![dying_bytes, vec![0; 10]],
            "batching {batching}: the TTL-1 packet and the runt expire"
        );
        let mut bad_after_ttl = bad_bytes;
        ipv4::dec_ttl(&mut bad_after_ttl);
        assert_eq!(
            sent(&mut r, "bad0"),
            vec![bad_after_ttl],
            "batching {batching}: the bad checksum leaves by output 1"
        );
        assert_eq!(r.stat("ttl", "expired"), Some(2), "batching {batching}");
        assert_eq!(r.stat("chk", "bad"), Some(1), "batching {batching}");
    }
}

#[test]
fn consumed_packets_do_not_stall_a_pull_path() {
    const SRC: &str = "FromDevice(in0) -> q :: Queue(64) -> db :: DropBroadcasts \
                       -> ToDevice(out0);";
    for batching in [false, true] {
        let mut r = router(SRC, batching);
        let in0 = r.devices.id("in0").unwrap();
        let mut unicasts = Vec::new();
        for i in 0..6u8 {
            let mut p = build_udp_packet([1; 6], [2; 6], 1, 2, 7, 9, 18, 64);
            if i < 3 {
                p.data_mut()[..6].copy_from_slice(&ether::BROADCAST);
            } else {
                p.data_mut()[40] = i;
                unicasts.push(p.data().to_vec());
            }
            r.devices.inject(in0, p);
        }
        r.run_until_idle(100);
        assert_eq!(sent(&mut r, "out0"), unicasts, "batching {batching}");
        assert_eq!(r.stat("db", "drops"), Some(3), "batching {batching}");
        assert_eq!(
            r.stat("q", "length"),
            Some(0),
            "batching {batching}: nothing stranded"
        );
    }
}

#[test]
fn fault_inject_is_refused_on_a_pull_path() {
    // One pull could not return its duplicate or a delayed packet, so
    // the configuration check refuses it rather than run it as a wire.
    let graph =
        read_config("FromDevice(in0) -> Queue -> FaultInject(DUP 1) -> ToDevice(out0);").unwrap();
    assert!(DynRouter::from_graph(&graph, &Library::standard()).is_err());
    let graph =
        read_config("FromDevice(in0) -> FaultInject(DUP 1) -> Queue -> ToDevice(out0);").unwrap();
    assert!(DynRouter::from_graph(&graph, &Library::standard()).is_ok());
}
