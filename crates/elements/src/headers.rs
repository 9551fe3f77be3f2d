//! Protocol header helpers: Ethernet, IPv4, UDP, ARP, ICMP.
//!
//! These are deliberately simple free functions over byte slices — the
//! elements that use them do "only rudimentary input checking" (paper §3),
//! with protocol dispatch made explicit in router configurations.

use crate::packet::Packet;

/// Ethernet constants and accessors.
pub mod ether {
    /// Header length.
    pub const HLEN: usize = 14;
    /// Ethertype for IPv4.
    pub const TYPE_IP: u16 = 0x0800;
    /// Ethertype for ARP.
    pub const TYPE_ARP: u16 = 0x0806;
    /// The broadcast address.
    pub const BROADCAST: [u8; 6] = [0xFF; 6];

    /// Destination MAC (first 6 bytes).
    pub fn dst(data: &[u8]) -> [u8; 6] {
        data[0..6].try_into().expect("6 bytes")
    }

    /// Source MAC.
    pub fn src(data: &[u8]) -> [u8; 6] {
        data[6..12].try_into().expect("6 bytes")
    }

    /// Ethertype field.
    pub fn ethertype(data: &[u8]) -> u16 {
        u16::from_be_bytes([data[12], data[13]])
    }

    /// Writes an Ethernet header into the first 14 bytes of `data`.
    pub fn write(data: &mut [u8], dst: [u8; 6], src: [u8; 6], ethertype: u16) {
        data[0..6].copy_from_slice(&dst);
        data[6..12].copy_from_slice(&src);
        data[12..14].copy_from_slice(&ethertype.to_be_bytes());
    }
}

/// IPv4 header accessors. All offsets are relative to the start of the IP
/// header.
pub mod ipv4 {
    /// Minimum header length.
    pub const HLEN: usize = 20;
    /// Protocol number for ICMP.
    pub const PROTO_ICMP: u8 = 1;
    /// Protocol number for TCP.
    pub const PROTO_TCP: u8 = 6;
    /// Protocol number for UDP.
    pub const PROTO_UDP: u8 = 17;
    /// Don't-fragment flag (in the flags/fragment-offset field).
    pub const FLAG_DF: u16 = 0x4000;
    /// More-fragments flag.
    pub const FLAG_MF: u16 = 0x2000;

    /// Version field (should be 4).
    pub fn version(h: &[u8]) -> u8 {
        h[0] >> 4
    }

    /// Header length in bytes.
    pub fn header_len(h: &[u8]) -> usize {
        ((h[0] & 0x0F) as usize) * 4
    }

    /// Total length field.
    pub fn total_len(h: &[u8]) -> u16 {
        u16::from_be_bytes([h[2], h[3]])
    }

    /// TTL field.
    pub fn ttl(h: &[u8]) -> u8 {
        h[8]
    }

    /// Protocol field.
    pub fn protocol(h: &[u8]) -> u8 {
        h[9]
    }

    /// Header checksum field.
    pub fn checksum(h: &[u8]) -> u16 {
        u16::from_be_bytes([h[10], h[11]])
    }

    /// Source address as a `u32` (network order interpreted big-endian).
    pub fn src(h: &[u8]) -> u32 {
        u32::from_be_bytes([h[12], h[13], h[14], h[15]])
    }

    /// Destination address.
    pub fn dst(h: &[u8]) -> u32 {
        u32::from_be_bytes([h[16], h[17], h[18], h[19]])
    }

    /// Flags/fragment-offset field.
    pub fn frag_field(h: &[u8]) -> u16 {
        u16::from_be_bytes([h[6], h[7]])
    }

    /// Computes the ones-complement header checksum over `header_len`
    /// bytes, treating the checksum field itself as zero.
    pub fn compute_checksum(h: &[u8]) -> u16 {
        let hlen = header_len(h).min(h.len());
        let mut sum = 0u32;
        let mut i = 0;
        while i + 1 < hlen {
            if i != 10 {
                sum += u32::from(u16::from_be_bytes([h[i], h[i + 1]]));
            }
            i += 2;
        }
        while sum >> 16 != 0 {
            sum = (sum & 0xFFFF) + (sum >> 16);
        }
        !(sum as u16)
    }

    /// Recomputes and stores the header checksum.
    pub fn set_checksum(h: &mut [u8]) {
        let c = compute_checksum(h);
        h[10..12].copy_from_slice(&c.to_be_bytes());
    }

    /// Verifies the stored checksum.
    pub fn checksum_ok(h: &[u8]) -> bool {
        checksum(h) == compute_checksum(h)
    }

    /// Decrements the TTL and incrementally updates the checksum (RFC
    /// 1624), the same trick `DecIPTTL` uses to avoid a full recompute.
    pub fn dec_ttl(h: &mut [u8]) {
        h[8] -= 1;
        // RFC 1624 eqn. 3: HC' = ~(~HC + ~m + m'). The TTL is the high
        // byte of the word m at offset 8, so m' = m - 0x0100 and
        // ~m + m' = 0xFEFF whatever m is. (RFC 1141's HC + 0x0100 stores
        // 0xFFFF where recomputation gives 0x0000, and `checksum_ok`
        // compares the two.)
        let sum = u32::from(!checksum(h)) + 0xFEFF;
        let folded = (sum & 0xFFFF) + (sum >> 16);
        h[10..12].copy_from_slice(&(!(folded as u16)).to_be_bytes());
    }

    /// Sets the source address and recomputes the checksum.
    pub fn set_src(h: &mut [u8], addr: u32) {
        h[12..16].copy_from_slice(&addr.to_be_bytes());
        set_checksum(h);
    }
}

/// UDP header accessors (offsets relative to UDP header start).
pub mod udp {
    /// Header length.
    pub const HLEN: usize = 8;

    /// Source port.
    pub fn src_port(h: &[u8]) -> u16 {
        u16::from_be_bytes([h[0], h[1]])
    }

    /// Destination port.
    pub fn dst_port(h: &[u8]) -> u16 {
        u16::from_be_bytes([h[2], h[3]])
    }
}

/// ARP packet helpers (Ethernet/IPv4 ARP only).
pub mod arp {
    /// ARP payload length for Ethernet/IPv4.
    pub const LEN: usize = 28;
    /// Request opcode.
    pub const OP_REQUEST: u16 = 1;
    /// Reply opcode.
    pub const OP_REPLY: u16 = 2;

    /// Opcode of an ARP payload.
    pub fn opcode(a: &[u8]) -> u16 {
        u16::from_be_bytes([a[6], a[7]])
    }

    /// Sender hardware address.
    pub fn sender_eth(a: &[u8]) -> [u8; 6] {
        a[8..14].try_into().expect("6 bytes")
    }

    /// Sender protocol (IP) address.
    pub fn sender_ip(a: &[u8]) -> u32 {
        u32::from_be_bytes([a[14], a[15], a[16], a[17]])
    }

    /// Target protocol (IP) address.
    pub fn target_ip(a: &[u8]) -> u32 {
        u32::from_be_bytes([a[24], a[25], a[26], a[27]])
    }

    /// Writes an ARP payload into `a` (28 bytes).
    pub fn write(
        a: &mut [u8],
        opcode: u16,
        sender_eth: [u8; 6],
        sender_ip: u32,
        target_eth: [u8; 6],
        target_ip: u32,
    ) {
        a[0..2].copy_from_slice(&1u16.to_be_bytes()); // hardware: Ethernet
        a[2..4].copy_from_slice(&0x0800u16.to_be_bytes()); // protocol: IP
        a[4] = 6; // hardware size
        a[5] = 4; // protocol size
        a[6..8].copy_from_slice(&opcode.to_be_bytes());
        a[8..14].copy_from_slice(&sender_eth);
        a[14..18].copy_from_slice(&sender_ip.to_be_bytes());
        a[18..24].copy_from_slice(&target_eth);
        a[24..28].copy_from_slice(&target_ip.to_be_bytes());
    }
}

/// ICMP helpers.
pub mod icmp {
    /// Destination unreachable.
    pub const TYPE_UNREACH: u8 = 3;
    /// Redirect.
    pub const TYPE_REDIRECT: u8 = 5;
    /// Time exceeded.
    pub const TYPE_TIME_EXCEEDED: u8 = 11;
    /// Parameter problem.
    pub const TYPE_PARAM_PROBLEM: u8 = 12;
    /// Code for "fragmentation needed and DF set" under TYPE_UNREACH.
    pub const CODE_NEEDS_FRAG: u8 = 4;
}

/// Formats an IPv4 address as dotted quad.
pub fn ip_to_string(ip: u32) -> String {
    format!(
        "{}.{}.{}.{}",
        ip >> 24,
        (ip >> 16) & 0xFF,
        (ip >> 8) & 0xFF,
        ip & 0xFF
    )
}

/// Parses a colon-separated MAC address (`00:11:22:33:44:55`).
pub fn parse_mac(s: &str) -> Option<[u8; 6]> {
    let mut mac = [0u8; 6];
    let mut n = 0;
    for part in s.split(':') {
        if n >= 6 {
            return None;
        }
        mac[n] = u8::from_str_radix(part, 16).ok()?;
        n += 1;
    }
    if n == 6 {
        Some(mac)
    } else {
        None
    }
}

/// Formats a MAC address.
pub fn mac_to_string(mac: [u8; 6]) -> String {
    mac.iter()
        .map(|b| format!("{b:02x}"))
        .collect::<Vec<_>>()
        .join(":")
}

/// Builds a complete Ethernet+IPv4+UDP packet, the 64-byte shape the
/// paper's evaluation traffic uses (14 Ethernet + 20 IP + 8 UDP + payload).
///
/// The Ethernet CRC is not modeled; a `payload_len` of 18 yields the
/// 60-byte on-wire frame that, with CRC, is the evaluation's 64-byte
/// packet.
#[allow(clippy::too_many_arguments)]
pub fn build_udp_packet(
    src_mac: [u8; 6],
    dst_mac: [u8; 6],
    src_ip: u32,
    dst_ip: u32,
    src_port: u16,
    dst_port: u16,
    payload_len: usize,
    ttl: u8,
) -> Packet {
    let ip_len = ipv4::HLEN + udp::HLEN + payload_len;
    let mut p = Packet::new(ether::HLEN + ip_len);
    let data = p.data_mut();
    ether::write(data, dst_mac, src_mac, ether::TYPE_IP);
    let ip = &mut data[ether::HLEN..];
    ip[0] = 0x45;
    ip[2..4].copy_from_slice(&(ip_len as u16).to_be_bytes());
    ip[8] = ttl;
    ip[9] = ipv4::PROTO_UDP;
    ip[12..16].copy_from_slice(&src_ip.to_be_bytes());
    ip[16..20].copy_from_slice(&dst_ip.to_be_bytes());
    ipv4::set_checksum(ip);
    let u = &mut ip[ipv4::HLEN..];
    u[0..2].copy_from_slice(&src_port.to_be_bytes());
    u[2..4].copy_from_slice(&dst_port.to_be_bytes());
    u[4..6].copy_from_slice(&((udp::HLEN + payload_len) as u16).to_be_bytes());
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use click_core::config::parse_ipv4;

    #[test]
    fn ip_parse_and_format() {
        assert_eq!(parse_ipv4("10.0.0.1"), Some(0x0A000001));
        assert_eq!(ip_to_string(0x0A000001), "10.0.0.1");
        assert_eq!(parse_ipv4("1.2.3"), None);
        assert_eq!(parse_ipv4("256.0.0.1"), None);
        assert_eq!(parse_ipv4("1.2.3.4.5"), None);
    }

    #[test]
    fn mac_parse_and_format() {
        assert_eq!(
            parse_mac("00:11:22:aa:bb:cc"),
            Some([0, 0x11, 0x22, 0xAA, 0xBB, 0xCC])
        );
        assert_eq!(
            mac_to_string([0, 0x11, 0x22, 0xAA, 0xBB, 0xCC]),
            "00:11:22:aa:bb:cc"
        );
        assert_eq!(parse_mac("00:11"), None);
        assert_eq!(parse_mac("zz:11:22:33:44:55"), None);
    }

    #[test]
    fn udp_packet_shape() {
        let p = build_udp_packet(
            [1; 6],
            [2; 6],
            parse_ipv4("10.0.0.1").unwrap(),
            parse_ipv4("10.0.1.1").unwrap(),
            1234,
            5678,
            18,
            64,
        );
        assert_eq!(p.len(), 60); // 64 on the wire including CRC
        let d = p.data();
        assert_eq!(ether::ethertype(d), ether::TYPE_IP);
        assert_eq!(ether::dst(d), [2; 6]);
        let ip = &d[14..];
        assert_eq!(ipv4::version(ip), 4);
        assert_eq!(ipv4::header_len(ip), 20);
        assert_eq!(ipv4::protocol(ip), ipv4::PROTO_UDP);
        assert_eq!(ipv4::ttl(ip), 64);
        assert_eq!(ipv4::total_len(ip), 46);
        assert!(ipv4::checksum_ok(ip));
        let u = &ip[20..];
        assert_eq!(udp::src_port(u), 1234);
        assert_eq!(udp::dst_port(u), 5678);
    }

    #[test]
    fn checksum_detects_corruption() {
        let mut p = build_udp_packet([1; 6], [2; 6], 1, 2, 3, 4, 18, 64);
        let ip = &mut p.data_mut()[14..];
        assert!(ipv4::checksum_ok(ip));
        ip[16] ^= 0xFF;
        assert!(!ipv4::checksum_ok(ip));
    }

    #[test]
    fn dec_ttl_matches_full_recompute() {
        for ttl in [1u8, 2, 64, 255] {
            let mut p = build_udp_packet([1; 6], [2; 6], 0x01020304, 0x05060708, 1, 2, 18, ttl);
            let ip = &mut p.data_mut()[14..34];
            // Sweeping the ID field takes the checksum through every value
            // it can have, the one where the update wraps included.
            for id in 0..=u16::MAX {
                ip[4..6].copy_from_slice(&id.to_be_bytes());
                ip[8] = ttl;
                ipv4::set_checksum(ip);
                ipv4::dec_ttl(ip);
                assert_eq!(ipv4::ttl(ip), ttl - 1);
                let stored = ipv4::checksum(ip);
                ipv4::set_checksum(ip);
                assert_eq!(stored, ipv4::checksum(ip), "ttl {ttl}, id {id:#06x}");
                assert!(ipv4::checksum_ok(ip));
            }
        }
    }

    #[test]
    fn set_src_updates_checksum() {
        let mut p = build_udp_packet([1; 6], [2; 6], 0x01020304, 0x05060708, 1, 2, 18, 9);
        let ip = &mut p.data_mut()[14..];
        ipv4::set_src(ip, 0x0A0B0C0D);
        assert_eq!(ipv4::src(ip), 0x0A0B0C0D);
        assert!(ipv4::checksum_ok(ip));
    }

    #[test]
    fn arp_round_trip() {
        let mut buf = [0u8; arp::LEN];
        arp::write(
            &mut buf,
            arp::OP_REQUEST,
            [1; 6],
            0xC0A80001,
            [0; 6],
            0xC0A80002,
        );
        assert_eq!(arp::opcode(&buf), arp::OP_REQUEST);
        assert_eq!(arp::sender_eth(&buf), [1; 6]);
        assert_eq!(arp::sender_ip(&buf), 0xC0A80001);
        assert_eq!(arp::target_ip(&buf), 0xC0A80002);
    }
}
