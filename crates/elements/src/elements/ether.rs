//! Ethernet-layer elements: `EtherEncap`, `ARPQuerier`, `ARPResponder`,
//! `HostEtherFilter`.

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
    fn simple_action(&mut self, mut p: Packet) -> Option<Packet> {
        p.push(ether::HLEN);
        ether::write(p.data_mut(), self.dst, self.src, self.ethertype);
        Some(p)
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

    fn encap(&self, mut p: Packet, dst: [u8; 6]) -> Packet {
        p.push(ether::HLEN);
        ether::write(p.data_mut(), dst, self.eth, ether::TYPE_IP);
        p
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
}

impl Element for ArpQuerier {
    fn class_name(&self) -> &str {
        "ARPQuerier"
    }
    fn push(&mut self, port: usize, p: Packet, out: &mut Emitter) {
        match port {
            0 => {
                // Next hop: destination annotation, falling back to the IP
                // header's destination.
                let dst_ip = p.anno.dst_ip.unwrap_or_else(|| {
                    if p.len() >= ipv4::HLEN {
                        ipv4::dst(p.data())
                    } else {
                        0
                    }
                });
                if let Some(&mac) = self.table.get(&dst_ip) {
                    let framed = self.encap(p, mac);
                    out.emit(0, framed);
                } else {
                    self.queries += 1;
                    out.emit(0, self.make_query(dst_ip));
                    if self.pending.replace((dst_ip, p)).is_some() {
                        self.drops += 1; // displaced an older waiter
                    }
                }
            }
            _ => {
                // An ARP reply, Ethernet header still present.
                let data = p.data();
                if data.len() >= ether::HLEN + arp::LEN {
                    let a = &data[ether::HLEN..];
                    if arp::opcode(a) == arp::OP_REPLY {
                        let sip = arp::sender_ip(a);
                        let seth = arp::sender_eth(a);
                        self.table.insert(sip, seth);
                        if let Some((wip, held)) = self.pending.take() {
                            if wip == sip {
                                let framed = self.encap(held, seth);
                                out.emit(0, framed);
                            } else {
                                self.pending = Some((wip, held));
                            }
                        }
                    }
                }
                // The reply itself is consumed.
            }
        }
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
}

impl Element for ArpResponder {
    fn class_name(&self) -> &str {
        "ARPResponder"
    }
    fn simple_action(&mut self, p: Packet) -> Option<Packet> {
        let data = p.data();
        if data.len() < ether::HLEN + arp::LEN {
            return None;
        }
        let a = &data[ether::HLEN..];
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
    fn push(&mut self, _port: usize, p: Packet, out: &mut Emitter) {
        let data = p.data();
        let ours = data.len() >= ether::HLEN
            && (ether::dst(data) == self.mac || ether::dst(data) == ether::BROADCAST);
        out.emit(usize::from(!ours), p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::headers::build_udp_packet;

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
        let framed = e.simple_action(p).unwrap();
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

        // Craft the reply.
        let mut reply = Packet::new(ether::HLEN + arp::LEN);
        let rd = reply.data_mut();
        ether::write(rd, [0, 0, 0, 0, 0, 1], [9; 6], ether::TYPE_ARP);
        arp::write(
            &mut rd[14..],
            arp::OP_REPLY,
            [9; 6],
            0x0A000002,
            [0, 0, 0, 0, 0, 1],
            0x0A000001,
        );
        let outs = push_on(&mut q, 1, reply);
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
        push_on(&mut q, 0, ip_only_packet(0x0A000003));
        assert_eq!(q.stat("drops"), Some(1));
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
        let reply = r.simple_action(req).expect("should reply");
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
        assert!(r.simple_action(req).is_none());
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
