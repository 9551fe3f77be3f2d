//! Ethernet-layer elements: `EtherEncap`, `ARPQuerier`, `ARPResponder`,
//! `HostEtherFilter`.

use crate::batch::{BatchEmitter, PacketBatch};
use crate::element::{args, config_err, CreateCtx, Element, Emitter};
use crate::headers::{arp, ether, ipv4, parse_mac};
use crate::packet::Packet;
use click_core::config::parse_ipv4;
use click_core::error::Result;
use std::collections::HashMap;

fn parse_ethertype(s: &str) -> Option<u16> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x") {
        u16::from_str_radix(hex, 16).ok()
    } else {
        u16::from_str_radix(s, 16).ok()
    }
}

/// `EtherEncap(ethertype, src, dst)`: prepends a fixed Ethernet header.
///
/// This is what ARP elimination (paper §7.2) substitutes for an
/// `ARPQuerier` on a point-to-point link.
#[derive(Debug)]
pub struct EtherEncap {
    ethertype: u16,
    src: [u8; 6],
    dst: [u8; 6],
}

impl EtherEncap {
    /// Creates from a configuration string: `ethertype, src_mac, dst_mac`.
    pub fn from_config(config: &str, _ctx: &mut CreateCtx) -> Result<EtherEncap> {
        let a = args(config);
        if a.len() != 3 {
            return Err(config_err("EtherEncap", "expects `ethertype, src, dst`"));
        }
        let ethertype = parse_ethertype(&a[0])
            .ok_or_else(|| config_err("EtherEncap", format!("bad ethertype {:?}", a[0])))?;
        let src = parse_mac(&a[1])
            .ok_or_else(|| config_err("EtherEncap", format!("bad source MAC {:?}", a[1])))?;
        let dst = parse_mac(&a[2])
            .ok_or_else(|| config_err("EtherEncap", format!("bad destination MAC {:?}", a[2])))?;
        Ok(EtherEncap {
            ethertype,
            src,
            dst,
        })
    }
}

impl Element for EtherEncap {
    fn class_name(&self) -> &str {
        "EtherEncap"
    }
    fn action(&mut self, mut p: Packet) -> Option<(usize, Packet)> {
        p.push(ether::HLEN);
        ether::write(p.data_mut(), self.dst, self.src, self.ethertype);
        Some((0, p))
    }
}

/// `ARPQuerier(ip, eth [, neighbor_ip neighbor_eth ...])`.
///
/// Input 0 takes IP packets (destination annotation set by the routing
/// lookup); packets whose next hop is known get an Ethernet header and go
/// out output 0. Unknown next hops trigger a broadcast ARP query on output
/// 0, with one packet held awaiting the reply. Input 1 takes ARP replies
/// (still Ethernet-encapsulated), which populate the table.
///
/// Extra `ip eth` config pairs pre-seed the table — the closed-testbed
/// equivalent of a warmed ARP cache.
///
/// Every packet on input 0 leaves as exactly one packet on output 0 (its
/// framed self or its query), so the batch body resolves a batch in place
/// and hands it on whole.
#[derive(Debug)]
pub struct ArpQuerier {
    ip: u32,
    eth: [u8; 6],
    table: HashMap<u32, [u8; 6]>,
    pending: Option<(u32, Packet)>,
    queries: u64,
    drops: u64,
}

impl ArpQuerier {
    /// Creates from a configuration string.
    pub fn from_config(config: &str, _ctx: &mut CreateCtx) -> Result<ArpQuerier> {
        let a = args(config);
        if a.len() < 2 {
            return Err(config_err("ARPQuerier", "expects at least `ip, eth`"));
        }
        let ip = parse_ipv4(&a[0])
            .ok_or_else(|| config_err("ARPQuerier", format!("bad IP address {:?}", a[0])))?;
        let eth = parse_mac(&a[1])
            .ok_or_else(|| config_err("ARPQuerier", format!("bad MAC address {:?}", a[1])))?;
        let mut table = HashMap::new();
        for pair in &a[2..] {
            let mut it = pair.split_whitespace();
            let (Some(ip_s), Some(mac_s), None) = (it.next(), it.next(), it.next()) else {
                return Err(config_err(
                    "ARPQuerier",
                    format!("bad table entry {pair:?}"),
                ));
            };
            let nip = parse_ipv4(ip_s)
                .ok_or_else(|| config_err("ARPQuerier", format!("bad IP in entry {pair:?}")))?;
            let neth = parse_mac(mac_s)
                .ok_or_else(|| config_err("ARPQuerier", format!("bad MAC in entry {pair:?}")))?;
            table.insert(nip, neth);
        }
        Ok(ArpQuerier {
            ip,
            eth,
            table,
            pending: None,
            queries: 0,
            drops: 0,
        })
    }

    fn encap(&self, p: &mut Packet, dst: [u8; 6]) {
        p.push(ether::HLEN);
        ether::write(p.data_mut(), dst, self.eth, ether::TYPE_IP);
    }

    fn make_query(&self, target_ip: u32) -> Packet {
        let mut q = Packet::new(ether::HLEN + arp::LEN);
        let data = q.data_mut();
        ether::write(data, ether::BROADCAST, self.eth, ether::TYPE_ARP);
        arp::write(
            &mut data[ether::HLEN..],
            arp::OP_REQUEST,
            self.eth,
            self.ip,
            [0; 6],
            target_ip,
        );
        q
    }

    /// Readies the input-0 packet in `slot` for output 0: frames it in
    /// place if its next hop is known, or else [`hold`](Self::hold)s it.
    /// `last` is the neighbour last found in the table during this call
    /// to the element: a run of packets to one next hop probes the table
    /// once. Only input 1 changes the table, so it cannot go stale.
    fn resolve(&mut self, slot: &mut Packet, last: &mut Option<(u32, [u8; 6])>) {
        // Next hop: destination annotation, falling back to the IP
        // header's destination.
        let dst_ip = slot.anno.dst_ip.unwrap_or_else(|| {
            if slot.len() >= ipv4::HLEN {
                ipv4::dst(slot.data())
            } else {
                0
            }
        });
        let mac = match *last {
            Some((ip, mac)) if ip == dst_ip => mac,
            _ => match self.table.get(&dst_ip) {
                Some(&mac) => {
                    *last = Some((dst_ip, mac));
                    mac
                }
                None => return self.hold(slot, dst_ip),
            },
        };
        self.encap(slot, mac);
    }

    /// Swaps the ARP query for `dst_ip` into `slot` and holds the packet
    /// it replaces, recycling the waiter that one displaces. Out of line,
    /// so the warm-cache path stays small.
    #[cold]
    #[inline(never)]
    fn hold(&mut self, slot: &mut Packet, dst_ip: u32) {
        self.queries += 1;
        let held = std::mem::replace(slot, self.make_query(dst_ip));
        if let Some((_, displaced)) = self.pending.replace((dst_ip, held)) {
            self.drops += 1;
            displaced.recycle();
        }
    }

    /// Learns from an input-1 ARP reply (Ethernet header still present),
    /// which is consumed, and returns the held packet if it was waiting
    /// for this neighbour, framed.
    #[cold]
    #[inline(never)]
    fn reply(&mut self, p: Packet) -> Option<Packet> {
        let learned = p
            .data()
            .get(ether::HLEN..ether::HLEN + arp::LEN)
            .filter(|a| arp::opcode(a) == arp::OP_REPLY)
            .map(|a| (arp::sender_ip(a), arp::sender_eth(a)));
        p.recycle();
        let (sip, seth) = learned?;
        self.table.insert(sip, seth);
        let (_, mut held) = self.pending.take_if(|(wip, _)| *wip == sip)?;
        self.encap(&mut held, seth);
        Some(held)
    }
}

impl Element for ArpQuerier {
    fn class_name(&self) -> &str {
        "ARPQuerier"
    }
    fn push(&mut self, port: usize, mut p: Packet, out: &mut Emitter) {
        if port == 0 {
            self.resolve(&mut p, &mut None);
            out.emit(0, p);
        } else if let Some(released) = self.reply(p) {
            out.emit(0, released);
        }
    }
    fn push_batch(&mut self, port: usize, mut batch: PacketBatch, out: &mut BatchEmitter) {
        if port != 0 {
            for p in batch.drain() {
                if let Some(released) = self.reply(p) {
                    out.emit(0, released);
                }
            }
            out.recycle_storage(batch);
            return;
        }
        let mut last = None;
        for p in batch.iter_mut() {
            self.resolve(p, &mut last);
        }
        out.emit_batch(0, batch);
    }
    fn stat(&self, name: &str) -> Option<u64> {
        match name {
            "queries" => Some(self.queries),
            "drops" => Some(self.drops),
            "table_size" => Some(self.table.len() as u64),
            _ => None,
        }
    }
}

/// `ARPResponder(ip eth [, ip eth ...])`: answers ARP requests for the
/// configured addresses.
#[derive(Debug)]
pub struct ArpResponder {
    entries: Vec<(u32, [u8; 6])>,
    replies: u64,
}

impl ArpResponder {
    /// Creates from a configuration string of `ip eth` pairs.
    pub fn from_config(config: &str, _ctx: &mut CreateCtx) -> Result<ArpResponder> {
        let a = args(config);
        if a.is_empty() {
            return Err(config_err(
                "ARPResponder",
                "expects at least one `ip eth` entry",
            ));
        }
        let mut entries = Vec::new();
        for pair in &a {
            let mut it = pair.split_whitespace();
            let (Some(ip_s), Some(mac_s), None) = (it.next(), it.next(), it.next()) else {
                return Err(config_err("ARPResponder", format!("bad entry {pair:?}")));
            };
            let ip = parse_ipv4(ip_s)
                .ok_or_else(|| config_err("ARPResponder", format!("bad IP in {pair:?}")))?;
            let mac = parse_mac(mac_s)
                .ok_or_else(|| config_err("ARPResponder", format!("bad MAC in {pair:?}")))?;
            entries.push((ip, mac));
        }
        Ok(ArpResponder {
            entries,
            replies: 0,
        })
    }

    /// The reply to `frame` if it is an ARP request for one of our
    /// addresses.
    fn reply_to(&mut self, frame: &[u8]) -> Option<Packet> {
        if frame.len() < ether::HLEN + arp::LEN {
            return None;
        }
        let a = &frame[ether::HLEN..];
        if arp::opcode(a) != arp::OP_REQUEST {
            return None;
        }
        let target = arp::target_ip(a);
        let &(_, our_mac) = self.entries.iter().find(|(ip, _)| *ip == target)?;
        let requester_eth = arp::sender_eth(a);
        let requester_ip = arp::sender_ip(a);
        self.replies += 1;
        let mut r = Packet::new(ether::HLEN + arp::LEN);
        let rd = r.data_mut();
        ether::write(rd, requester_eth, our_mac, ether::TYPE_ARP);
        arp::write(
            &mut rd[ether::HLEN..],
            arp::OP_REPLY,
            our_mac,
            target,
            requester_eth,
            requester_ip,
        );
        Some(r)
    }
}

impl Element for ArpResponder {
    fn class_name(&self) -> &str {
        "ARPResponder"
    }
    fn action(&mut self, p: Packet) -> Option<(usize, Packet)> {
        // The request is consumed, answered or not.
        let reply = self.reply_to(p.data());
        p.recycle();
        reply.map(|r| (0, r))
    }
    fn stat(&self, name: &str) -> Option<u64> {
        (name == "replies").then_some(self.replies)
    }
}

/// `HostEtherFilter(eth)`: output 0 for frames addressed to us (or
/// broadcast), output 1 (or drop) otherwise.
#[derive(Debug)]
pub struct HostEtherFilter {
    mac: [u8; 6],
}

impl HostEtherFilter {
    /// Creates from a configuration string: our MAC address.
    pub fn from_config(config: &str, _ctx: &mut CreateCtx) -> Result<HostEtherFilter> {
        let a = args(config);
        if a.len() != 1 {
            return Err(config_err(
                "HostEtherFilter",
                "expects exactly one MAC argument",
            ));
        }
        let mac = parse_mac(&a[0])
            .ok_or_else(|| config_err("HostEtherFilter", format!("bad MAC {:?}", a[0])))?;
        Ok(HostEtherFilter { mac })
    }
}

impl Element for HostEtherFilter {
    fn class_name(&self) -> &str {
        "HostEtherFilter"
    }
    fn action(&mut self, p: Packet) -> Option<(usize, Packet)> {
        let data = p.data();
        let ours = data.len() >= ether::HLEN
            && (ether::dst(data) == self.mac || ether::dst(data) == ether::BROADCAST);
        Some((usize::from(!ours), p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::headers::build_udp_packet;
    use crate::packet::pool_stats;

    fn ctx() -> CreateCtx {
        CreateCtx::new()
    }

    fn push_on(e: &mut dyn Element, port: usize, p: Packet) -> Vec<(usize, Packet)> {
        let mut out = Emitter::new();
        e.push(port, p, &mut out);
        out.drain().collect()
    }

    fn ip_only_packet(dst_ip: u32) -> Packet {
        let mut p = build_udp_packet([1; 6], [2; 6], 0x0A000001, dst_ip, 1, 2, 18, 64);
        p.pull(ether::HLEN);
        p.anno.dst_ip = Some(dst_ip);
        p
    }

    #[test]
    fn ether_encap_prepends_header() {
        let mut e =
            EtherEncap::from_config("0x0800, 00:00:00:00:00:01, 00:00:00:00:00:02", &mut ctx())
                .unwrap();
        let p = ip_only_packet(0x0A000002);
        let framed = e.action(p).unwrap().1;
        let d = framed.data();
        assert_eq!(ether::ethertype(d), 0x0800);
        assert_eq!(ether::src(d), [0, 0, 0, 0, 0, 1]);
        assert_eq!(ether::dst(d), [0, 0, 0, 0, 0, 2]);
        assert_eq!(ipv4::dst(&d[14..]), 0x0A000002);
    }

    #[test]
    fn arp_querier_uses_preseeded_table() {
        let mut q = ArpQuerier::from_config(
            "10.0.0.1, 00:00:00:00:00:01, 10.0.0.2 00:00:00:00:00:22",
            &mut ctx(),
        )
        .unwrap();
        let outs = push_on(&mut q, 0, ip_only_packet(0x0A000002));
        assert_eq!(outs.len(), 1);
        let d = outs[0].1.data();
        assert_eq!(ether::ethertype(d), ether::TYPE_IP);
        assert_eq!(ether::dst(d), [0, 0, 0, 0, 0, 0x22]);
        assert_eq!(q.stat("queries"), Some(0));
    }

    #[test]
    fn arp_querier_queries_then_releases_on_reply() {
        let mut q = ArpQuerier::from_config("10.0.0.1, 00:00:00:00:00:01", &mut ctx()).unwrap();
        let outs = push_on(&mut q, 0, ip_only_packet(0x0A000002));
        // The query goes out; the IP packet is held.
        assert_eq!(outs.len(), 1);
        let d = outs[0].1.data();
        assert_eq!(ether::ethertype(d), ether::TYPE_ARP);
        assert_eq!(ether::dst(d), ether::BROADCAST);
        assert_eq!(arp::opcode(&d[14..]), arp::OP_REQUEST);
        assert_eq!(arp::target_ip(&d[14..]), 0x0A000002);
        assert_eq!(q.stat("queries"), Some(1));

        let outs = push_on(&mut q, 1, arp_reply(0x0A000002, [9; 6]));
        assert_eq!(outs.len(), 1, "held packet released");
        let d = outs[0].1.data();
        assert_eq!(ether::ethertype(d), ether::TYPE_IP);
        assert_eq!(ether::dst(d), [9; 6]);
        assert_eq!(q.stat("table_size"), Some(1));
    }

    #[test]
    fn arp_querier_displacement_counts_drop() {
        let mut q = ArpQuerier::from_config("10.0.0.1, 00:00:00:00:00:01", &mut ctx()).unwrap();
        push_on(&mut q, 0, ip_only_packet(0x0A000002));
        let recycled = pool_stats().recycled;
        push_on(&mut q, 0, ip_only_packet(0x0A000003));
        assert_eq!(q.stat("drops"), Some(1));
        assert_eq!(
            pool_stats().recycled,
            recycled + 1,
            "displaced waiter recycled"
        );
    }

    /// An ARP reply from `ip` at `mac`, addressed to the querier.
    fn arp_reply(ip: u32, mac: [u8; 6]) -> Packet {
        let mut reply = Packet::new(ether::HLEN + arp::LEN);
        let rd = reply.data_mut();
        ether::write(rd, [0, 0, 0, 0, 0, 1], mac, ether::TYPE_ARP);
        arp::write(
            &mut rd[14..],
            arp::OP_REPLY,
            mac,
            ip,
            [0, 0, 0, 0, 0, 1],
            0x0A000001,
        );
        reply
    }

    /// Hits on the seeded 10.0.0.2, misses to 10.0.0.7 (twice) and
    /// 10.0.0.9, and a hit found through the header for lack of a
    /// destination annotation; distinct source ports tell them apart.
    fn mixed_inputs() -> Vec<Packet> {
        let dsts = [0x0A000002, 0x0A000007, 0x0A000002, 0x0A000009, 0x0A000007];
        let mut ps: Vec<Packet> = dsts
            .iter()
            .enumerate()
            .map(|(k, &dst)| {
                let mut p = build_udp_packet([1; 6], [2; 6], 0x0A000001, dst, k as u16, 2, 18, 64);
                p.pull(ether::HLEN);
                p.anno.dst_ip = Some(dst);
                p
            })
            .collect();
        let mut bare = ip_only_packet(0x0A000002);
        bare.anno.dst_ip = None;
        ps.push(bare);
        ps
    }

    fn seeded_querier() -> ArpQuerier {
        ArpQuerier::from_config(
            "10.0.0.1, 00:00:00:00:00:01, 10.0.0.2 00:00:00:00:00:22",
            &mut ctx(),
        )
        .unwrap()
    }

    fn stats(q: &ArpQuerier) -> [Option<u64>; 3] {
        ["queries", "drops", "table_size"].map(|n| q.stat(n))
    }

    #[test]
    fn arp_querier_batch_resolves_in_place_like_scalar() {
        let mut scalar = seeded_querier();
        let mut expect = Vec::new();
        for p in mixed_inputs() {
            for (port, out) in push_on(&mut scalar, 0, p) {
                expect.push((port, out.data().to_vec()));
            }
        }

        let mut batched = seeded_querier();
        let mut out = BatchEmitter::new();
        batched.push_batch(0, mixed_inputs().into_iter().collect(), &mut out);
        let (port, group) = out.pop_group().expect("one port-0 group");
        assert!(out.pop_group().is_none(), "exactly one group");
        let got: Vec<(usize, Vec<u8>)> = group.iter().map(|p| (port, p.data().to_vec())).collect();
        assert_eq!(got, expect);
        assert_eq!(got.len(), 6, "one packet out per packet in");
        let types: Vec<u16> = got.iter().map(|(_, d)| ether::ethertype(d)).collect();
        let (ip, arp_) = (ether::TYPE_IP, ether::TYPE_ARP);
        assert_eq!(types, [ip, arp_, ip, arp_, arp_, ip]);
        assert_eq!(stats(&batched), stats(&scalar));
        assert_eq!(stats(&batched), [Some(3), Some(2), Some(1)]);

        // The last miss (10.0.0.7, source port 4) is the one held; its
        // neighbour's reply releases it with the learned MAC, both modes.
        let expect = push_on(&mut scalar, 1, arp_reply(0x0A000007, [7; 6]));
        assert_eq!(expect.len(), 1);
        let mut replies = PacketBatch::new();
        replies.push(arp_reply(0x0A000007, [7; 6]));
        batched.push_batch(1, replies, &mut out);
        let (port, group) = out.pop_group().expect("released packet");
        assert_eq!(port, 0);
        let released: Vec<&Packet> = group.iter().collect();
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].data(), expect[0].1.data());
        let d = released[0].data();
        assert_eq!(ether::dst(d), [7; 6]);
        assert_eq!(ether::ethertype(d), ether::TYPE_IP);
        assert_eq!(&d[ether::HLEN + ipv4::HLEN..][..2], &4u16.to_be_bytes());
        assert_eq!(stats(&batched), stats(&scalar));
        assert_eq!(batched.stat("table_size"), Some(2));
    }

    #[test]
    fn arp_querier_reply_overwrites_known_neighbour() {
        let mut q = seeded_querier();
        let mut out = BatchEmitter::new();
        let batch_dst = |q: &mut ArpQuerier, out: &mut BatchEmitter| {
            q.push_batch(0, [ip_only_packet(0x0A000002)].into_iter().collect(), out);
            let (_, group) = out.pop_group().expect("framed");
            let p = group.iter().next().expect("one packet");
            ether::dst(p.data())
        };
        assert_eq!(batch_dst(&mut q, &mut out), [0, 0, 0, 0, 0, 0x22]);
        assert!(push_on(&mut q, 1, arp_reply(0x0A000002, [5; 6])).is_empty());
        assert_eq!(q.stat("table_size"), Some(1));
        let outs = push_on(&mut q, 0, ip_only_packet(0x0A000002));
        assert_eq!(ether::dst(outs[0].1.data()), [5; 6]);
        assert_eq!(batch_dst(&mut q, &mut out), [5; 6], "no stale hop");
        assert_eq!(q.stat("queries"), Some(0));
    }

    #[test]
    fn arp_querier_batch_frames_each_neighbour_with_its_own_mac() {
        let mut q = ArpQuerier::from_config(
            "10.0.0.1, 00:00:00:00:00:01, 10.0.0.2 00:00:00:00:00:22, 10.0.0.3 00:00:00:00:00:33",
            &mut ctx(),
        )
        .unwrap();
        let hops = [2, 2, 3, 2, 3, 3];
        let batch = hops
            .iter()
            .map(|&h| ip_only_packet(0x0A000000 | h))
            .collect();
        let mut out = BatchEmitter::new();
        q.push_batch(0, batch, &mut out);
        let (_, group) = out.pop_group().expect("framed");
        let macs: Vec<u8> = group.iter().map(|p| ether::dst(p.data())[5]).collect();
        assert_eq!(macs, [0x22, 0x22, 0x33, 0x22, 0x33, 0x33]);
        assert_eq!(q.stat("queries"), Some(0));
    }

    #[test]
    fn arp_responder_answers_matching_requests() {
        let mut r = ArpResponder::from_config("10.0.0.1 00:00:00:00:00:01", &mut ctx()).unwrap();
        let mut req = Packet::new(ether::HLEN + arp::LEN);
        let rd = req.data_mut();
        ether::write(rd, ether::BROADCAST, [7; 6], ether::TYPE_ARP);
        arp::write(
            &mut rd[14..],
            arp::OP_REQUEST,
            [7; 6],
            0x0A000002,
            [0; 6],
            0x0A000001,
        );
        let reply = r.action(req).expect("should reply").1;
        let d = reply.data();
        assert_eq!(ether::dst(d), [7; 6]);
        let a = &d[14..];
        assert_eq!(arp::opcode(a), arp::OP_REPLY);
        assert_eq!(arp::sender_eth(a), [0, 0, 0, 0, 0, 1]);
        assert_eq!(arp::sender_ip(a), 0x0A000001);
        assert_eq!(r.stat("replies"), Some(1));
    }

    #[test]
    fn arp_responder_ignores_other_targets() {
        let mut r = ArpResponder::from_config("10.0.0.1 00:00:00:00:00:01", &mut ctx()).unwrap();
        let mut req = Packet::new(ether::HLEN + arp::LEN);
        let rd = req.data_mut();
        ether::write(rd, ether::BROADCAST, [7; 6], ether::TYPE_ARP);
        arp::write(
            &mut rd[14..],
            arp::OP_REQUEST,
            [7; 6],
            0x0A000002,
            [0; 6],
            0x0A000009,
        );
        assert!(r.action(req).is_none());
    }

    #[test]
    fn host_ether_filter() {
        let mut f = HostEtherFilter::from_config("00:00:00:00:00:05", &mut ctx()).unwrap();
        let mut ours = Packet::new(20);
        ether::write(ours.data_mut(), [0, 0, 0, 0, 0, 5], [1; 6], 0x0800);
        assert_eq!(push_on(&mut f, 0, ours)[0].0, 0);
        let mut bcast = Packet::new(20);
        ether::write(bcast.data_mut(), ether::BROADCAST, [1; 6], 0x0800);
        assert_eq!(push_on(&mut f, 0, bcast)[0].0, 0);
        let mut other = Packet::new(20);
        ether::write(other.data_mut(), [3; 6], [1; 6], 0x0800);
        assert_eq!(push_on(&mut f, 0, other)[0].0, 1);
    }

    #[test]
    fn config_validation() {
        assert!(EtherEncap::from_config("0x0800, junk, 00:00:00:00:00:02", &mut ctx()).is_err());
        assert!(ArpQuerier::from_config("10.0.0.1", &mut ctx()).is_err());
        assert!(
            ArpQuerier::from_config("10.0.0.1, 00:00:00:00:00:01, badentry", &mut ctx()).is_err()
        );
        assert!(ArpResponder::from_config("", &mut ctx()).is_err());
        assert!(HostEtherFilter::from_config("nope", &mut ctx()).is_err());
    }
}
