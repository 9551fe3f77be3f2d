//! Seeded input generation: router configuration text and frame traces.
//!
//! Everything the program under test sees is produced here from the seed:
//! Click configuration *text* (the Figure-1 IP router, optionally with a
//! large routing table and a firewall) and raw Ethernet frames. Nothing in
//! this module calls into the crates under test, so [`crate::oracle`] can
//! derive the expected output from the same [`Plan`] independently.

use std::fmt::Write as _;

/// Bytes in every generated frame: 14 Ethernet + 20 IPv4 + 8 UDP + 18
/// payload (the paper's 64-byte packet, CRC not modeled).
pub const FRAME_LEN: usize = 60;
/// Offset of the 4-byte big-endian sequence number in the UDP payload.
pub const SEQ_OFFSET: usize = 42;

/// splitmix64: the benchmark's only random source.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose whole output is a function of `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` ≥ 1; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Router address on interface `i`: `10.0.i.1`.
pub fn router_ip(i: usize) -> u32 {
    u32::from_be_bytes([10, 0, i as u8, 1])
}
/// Router MAC on interface `i`.
pub fn router_mac(i: usize) -> [u8; 6] {
    [0x00, 0x00, 0xC0, 0x01, i as u8, 0x01]
}
/// The single ARP-known neighbor on interface `i`: `10.0.i.2`.
pub fn neighbor_ip(i: usize) -> u32 {
    u32::from_be_bytes([10, 0, i as u8, 2])
}
/// The neighbor's MAC.
pub fn neighbor_mac(i: usize) -> [u8; 6] {
    [0x00, 0x00, 0xAA, 0x02, i as u8, 0x02]
}

/// Dotted-quad text of an address.
pub fn ip_text(ip: u32) -> String {
    let b = ip.to_be_bytes();
    format!("{}.{}.{}.{}", b[0], b[1], b[2], b[3])
}

/// Colon-separated text of a MAC address.
pub fn mac_text(m: [u8; 6]) -> String {
    m.map(|b| format!("{b:02x}")).join(":")
}

/// What a generated router looks like. The configuration text and the
/// oracle's expectations are both functions of this.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Number of interfaces (`eth0..`), at most 256.
    pub ifaces: usize,
    /// Extra `/24` routes beyond the per-interface subnets, as
    /// `(prefix, output interface)`; each goes via that interface's
    /// neighbor as gateway, so the ARP table stays warm.
    pub routes: Vec<(u32, usize)>,
    /// `IPFilter` rules placed after `GetIPAddress`; empty = no filter.
    pub filter: Vec<String>,
}

impl Plan {
    /// The bare Figure-1 router.
    pub fn figure1(ifaces: usize) -> Plan {
        assert!((2..=256).contains(&ifaces), "2..=256 interfaces");
        Plan {
            ifaces,
            routes: Vec::new(),
            filter: Vec::new(),
        }
    }

    /// Adds `n` distinct seeded `/24` routes outside `10.0.0.0/8`.
    pub fn with_routes(mut self, rng: &mut Rng, n: usize) -> Plan {
        let mut seen = std::collections::HashSet::with_capacity(n * 2);
        while self.routes.len() < n {
            let r = rng.next_u64();
            let first = 11 + (r % 200) as u32; // 11..=210
            if first == 127 {
                continue;
            }
            let prefix = (first << 24) | (((r >> 8) as u32 & 0xFFFF) << 8);
            if seen.insert(prefix) {
                self.routes.push((prefix, rng.below(self.ifaces)));
            }
        }
        self
    }

    /// Adds an `n`-rule firewall: `n - 1` seeded deny rules over
    /// (source net, destination net, TCP destination port) that the
    /// generated UDP traffic never matches, then `allow all` — so every
    /// frame walks the whole classifier and is forwarded.
    pub fn with_filter(mut self, rng: &mut Rng, n: usize) -> Plan {
        for _ in 1..n {
            let r = rng.next_u64();
            self.filter.push(format!(
                "deny src net 172.{}.{}.0/24 && dst net 192.168.{}.0/24 && tcp dst port {}",
                16 + (r % 16),
                (r >> 8) % 48,
                (r >> 16) % 48,
                1 + (r >> 24) % 1024,
            ));
        }
        self.filter.push("allow all".to_string());
        self
    }

    /// The Click source of this router: the paper's Figure 1 per
    /// interface, one shared `StaticIPLookup`, one shared `IPFilter`.
    pub fn config_text(&self) -> String {
        let mut out = String::with_capacity(1024 * self.ifaces + 40 * self.routes.len());
        let _ = write!(out, "rt :: StaticIPLookup(");
        for i in 0..self.ifaces {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}10.0.{i}.0/24 {i}");
        }
        for &(prefix, port) in &self.routes {
            let _ = write!(
                out,
                ", {}/24 {} {port}",
                ip_text(prefix),
                ip_text(neighbor_ip(port))
            );
        }
        out.push_str(");\n");
        let lookup = if self.filter.is_empty() {
            "rt"
        } else {
            let _ = writeln!(
                out,
                "fw :: IPFilter({});\nfw -> rt;",
                self.filter.join(", ")
            );
            "fw"
        };
        for i in 0..self.ifaces {
            let ip = ip_text(router_ip(i));
            let mac = mac_text(router_mac(i));
            let nip = ip_text(neighbor_ip(i));
            let nmac = mac_text(neighbor_mac(i));
            let _ = writeln!(
                out,
                "pd{i} :: PollDevice(eth{i});\n\
                 c{i} :: Classifier(12/0806 20/0001, 12/0806 20/0002, 12/0800, -);\n\
                 pd{i} -> c{i};\n\
                 ar{i} :: ARPResponder({ip} {mac});\n\
                 c{i} [0] -> ar{i} -> q{i} :: Queue(1000);\n\
                 c{i} [1] -> [1] aq{i} :: ARPQuerier({ip}, {mac}, {nip} {nmac});\n\
                 c{i} [2] -> Paint({paint}) -> Strip(14) -> CheckIPHeader -> GetIPAddress(16) -> {lookup};\n\
                 c{i} [3] -> Discard;\n\
                 rt [{i}] -> DropBroadcasts -> pt{i} :: PaintTee({paint});\n\
                 pt{i} [1] -> ICMPError({ip}, 5, 1) -> rt;\n\
                 pt{i} [0] -> gio{i} :: IPGWOptions;\n\
                 gio{i} [1] -> ICMPError({ip}, 12, 0) -> rt;\n\
                 gio{i} [0] -> FixIPSrc({ip}) -> dt{i} :: DecIPTTL;\n\
                 dt{i} [1] -> ICMPError({ip}, 11, 0) -> rt;\n\
                 dt{i} [0] -> fr{i} :: IPFragmenter(1500);\n\
                 fr{i} [1] -> ICMPError({ip}, 3, 4) -> rt;\n\
                 fr{i} [0] -> [0] aq{i};\n\
                 aq{i} -> q{i};\n\
                 q{i} -> ToDevice(eth{i});",
                paint = i + 1,
            );
        }
        out
    }
}

/// One generated frame and the interface it arrives on.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Ingress interface index.
    pub iface: usize,
    /// The wire bytes.
    pub bytes: [u8; FRAME_LEN],
}

impl Frame {
    /// Stamps the sequence number into the UDP payload.
    pub fn stamp(&mut self, seq: u32) {
        self.bytes[SEQ_OFFSET..SEQ_OFFSET + 4].copy_from_slice(&seq.to_be_bytes());
    }
}

/// Reads the sequence number back out of a (forwarded) frame.
pub fn seq_of(frame: &[u8]) -> Option<u32> {
    let b = frame.get(SEQ_OFFSET..SEQ_OFFSET + 4)?;
    Some(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
}

/// RFC 1071 checksum of an IPv4 header whose checksum field is zero.
pub fn ip_checksum(header: &[u8]) -> u16 {
    let mut sum = 0u32;
    for w in header.chunks(2) {
        sum += u32::from(u16::from_be_bytes([w[0], *w.get(1).unwrap_or(&0)]));
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

fn build_frame(
    src_if: usize,
    src_ip: u32,
    dst_ip: u32,
    sport: u16,
    dport: u16,
    fill: u64,
) -> Frame {
    let mut b = [0u8; FRAME_LEN];
    b[0..6].copy_from_slice(&router_mac(src_if));
    b[6..12].copy_from_slice(&neighbor_mac(src_if));
    b[12..14].copy_from_slice(&[0x08, 0x00]);
    let ip_len = (FRAME_LEN - 14) as u16;
    b[14] = 0x45;
    b[16..18].copy_from_slice(&ip_len.to_be_bytes());
    b[22] = 64; // TTL
    b[23] = 17; // UDP
    b[26..30].copy_from_slice(&src_ip.to_be_bytes());
    b[30..34].copy_from_slice(&dst_ip.to_be_bytes());
    let csum = ip_checksum(&b[14..34]);
    b[24..26].copy_from_slice(&csum.to_be_bytes());
    b[34..36].copy_from_slice(&sport.to_be_bytes());
    b[36..38].copy_from_slice(&dport.to_be_bytes());
    b[38..40].copy_from_slice(&(ip_len - 20).to_be_bytes());
    // UDP checksum 0 = not computed. Payload: 4 bytes of sequence number
    // (stamped per send), then seeded filler the router must not touch.
    b[46..54].copy_from_slice(&fill.to_be_bytes());
    b[54..60].copy_from_slice(&fill.rotate_left(17).to_be_bytes()[..6]);
    Frame {
        iface: src_if,
        bytes: b,
    }
}

/// A seeded trace of `len` frames drawn from `flows` UDP flows. Each flow
/// enters on a random interface and leaves on a different one (so no
/// ICMP redirect is triggered). Without extra routes the destination is
/// the egress neighbor itself; with them, flow `f` targets a random host
/// inside route `f`'s prefix (so `flows` distinct prefixes are hit), and
/// enters on an interface other than that route's.
pub fn trace(plan: &Plan, rng: &mut Rng, flows: usize, len: usize) -> Vec<Frame> {
    assert!(plan.routes.is_empty() || flows <= plan.routes.len());
    let protos: Vec<Frame> = (0..flows)
        .map(|f| {
            let r = rng.next_u64();
            let (dst_if, dst_ip) = match plan.routes.get(f) {
                Some(&(prefix, port)) => (port, prefix | (1 + (r >> 40) as u32 % 254)),
                None => {
                    let d = rng.below(plan.ifaces);
                    (d, neighbor_ip(d))
                }
            };
            let src_if = (dst_if + 1 + rng.below(plan.ifaces - 1)) % plan.ifaces;
            let src_ip = u32::from_be_bytes([10, 0, src_if as u8, 3 + (r % 250) as u8]);
            let sport = 1024 + ((r >> 8) % 60000) as u16;
            let dport = 1024 + ((r >> 24) % 60000) as u16;
            build_frame(src_if, src_ip, dst_ip, sport, dport, rng.next_u64())
        })
        .collect();
    (0..len)
        .map(|k| {
            // The first lap visits every flow once, then flows repeat at
            // random: every flow is exercised whatever the trace length.
            let f = if k < flows { k } else { rng.below(flows) };
            protos[f].clone()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let make = |seed| {
            let mut rng = Rng::new(seed);
            let plan = Plan::figure1(4)
                .with_routes(&mut rng, 50)
                .with_filter(&mut rng, 5);
            let t = trace(&plan, &mut rng, 50, 200);
            (
                plan.config_text(),
                t.iter().map(|f| f.bytes).collect::<Vec<_>>(),
            )
        };
        assert_eq!(make(7), make(7));
        assert_ne!(make(7), make(8));
    }

    #[test]
    fn frames_never_leave_by_their_ingress() {
        let mut rng = Rng::new(3);
        let plan = Plan::figure1(4);
        for f in trace(&plan, &mut rng, 64, 256) {
            let dst = u32::from_be_bytes([f.bytes[30], f.bytes[31], f.bytes[32], f.bytes[33]]);
            assert_ne!(dst, neighbor_ip(f.iface));
            assert_eq!(
                ip_checksum(&f.bytes[14..34]),
                0,
                "header sums to zero with checksum in"
            );
        }
    }
}
