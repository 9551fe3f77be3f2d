//! RSS-style flow steering: hash the IP 5-tuple of an incoming frame to
//! pick a worker shard.
//!
//! Hardware NICs spread receive traffic across cores with Receive Side
//! Scaling: a hash of the connection 5-tuple selects an RX queue, so
//! every packet of one flow lands on the same core and per-flow ordering
//! is preserved without cross-core locking. [`crate::parallel`] steers
//! injected frames the same way. The simulator's cost model
//! (`click-sim`) calls [`RssSteering`] on its traffic specs too, so the
//! predicted shard loads come from the *same* hash the runtime uses.
//!
//! Frames that are not IPv4 (ARP requests/replies, junk) have no
//! 5-tuple; they steer by receiving device instead, which keeps ARP
//! handling for one interface on one deterministic shard.

use crate::element::DeviceId;
use crate::headers::{ether, ipv4, udp};

/// The parsed steering key of an IPv4 frame: `(src, dst, proto, sport,
/// dport)`. Ports are zero for protocols without them (or truncated
/// transport headers).
pub type FlowKey = (u32, u32, u8, u16, u16);

/// Extracts the 5-tuple from an Ethernet frame, or `None` when the frame
/// is not IPv4 (or too short to carry a full IP header).
#[inline]
pub fn flow_key(frame: &[u8]) -> Option<FlowKey> {
    // Fast path for the overwhelmingly common shape — untagged IPv4,
    // no options, full transport header present. One length check
    // covers every fixed-offset read below (ports end at byte 38);
    // everything else falls through to the general parser.
    if let Some(f) = frame.get(..ether::HLEN + ipv4::HLEN + udp::HLEN) {
        if f[12] == 0x08
            && f[13] == 0x00
            && f[14] == 0x45
            && matches!(f[23], ipv4::PROTO_TCP | ipv4::PROTO_UDP)
        {
            return Some((
                u32::from_be_bytes([f[26], f[27], f[28], f[29]]),
                u32::from_be_bytes([f[30], f[31], f[32], f[33]]),
                f[23],
                u16::from_be_bytes([f[34], f[35]]),
                u16::from_be_bytes([f[36], f[37]]),
            ));
        }
    }
    flow_key_slow(frame)
}

/// The general parser behind [`flow_key`]: VLAN-less but tolerant of IP
/// options, truncated transport headers, and runt frames.
fn flow_key_slow(frame: &[u8]) -> Option<FlowKey> {
    if frame.len() < ether::HLEN + ipv4::HLEN || ether::ethertype(frame) != ether::TYPE_IP {
        return None;
    }
    let ip = &frame[ether::HLEN..];
    if ipv4::version(ip) != 4 {
        return None;
    }
    let ihl = ipv4::header_len(ip);
    if ihl < ipv4::HLEN || ip.len() < ihl {
        // Runt or lying header: the IHL field claims more header than the
        // frame carries (or less than the minimum 20 bytes). Treat it like
        // non-IP rather than reading past the options area.
        return None;
    }
    let proto = ipv4::protocol(ip);
    let (sport, dport) =
        if matches!(proto, ipv4::PROTO_TCP | ipv4::PROTO_UDP) && ip.len() >= ihl + udp::HLEN {
            // TCP and UDP both start with source/destination ports.
            (udp::src_port(&ip[ihl..]), udp::dst_port(&ip[ihl..]))
        } else {
            (0, 0)
        };
    Some((ipv4::src(ip), ipv4::dst(ip), proto, sport, dport))
}

/// FNV-1a over the 5-tuple bytes. Not Toeplitz (no per-NIC key to
/// reproduce), but the properties RSS needs hold: deterministic, spreads
/// nearby tuples, and cheap enough to charge per packet.
///
/// The 13 multiplies are a dependent chain, but per-packet hashes are
/// independent, so out-of-order execution overlaps them with each other
/// and with the batch bookkeeping: `shard_for` in a loop is ~11 ns a
/// frame on the bench host. (It read ~35 ns while the bytes came from
/// five chained array iterators; the tuple is laid into one array
/// instead.) A word-at-a-time multiply-mix variant measured no faster
/// end to end, and spread the bench's sequential-port flows measurably
/// worse (19/18/16/11 over 4 shards vs FNV's near-even split). Byte-wise
/// FNV's strong dispersion of small sequential inputs is a feature here,
/// not an accident.
pub fn flow_hash(key: FlowKey) -> u64 {
    let (src, dst, proto, sport, dport) = key;
    let mut bytes = [0u8; 13];
    bytes[..4].copy_from_slice(&src.to_be_bytes());
    bytes[4..8].copy_from_slice(&dst.to_be_bytes());
    bytes[8] = proto;
    bytes[9..11].copy_from_slice(&sport.to_be_bytes());
    bytes[11..].copy_from_slice(&dport.to_be_bytes());
    click_core::fnv1a(&bytes)
}

/// Slots in a [`FlowHashCache`].
const FLOW_CACHE_SLOTS: usize = 256;

/// A direct-mapped, caller-owned memo of [`flow_hash`] results (a
/// collision recomputes, so the hash is always exact).
///
/// No runtime path uses it: the spine's layer rows show it costs more
/// than the hash it saves (`steer.cached_hash_ns` against
/// `steer.hash_ns`), so [`crate::parallel::ParallelRouter::inject`]
/// steers uncached. It stays only because the frozen
/// `steer.cached_hash_ns` row names it; it goes with that row when the
/// spine is thawed (ROADMAP.md item 1(a)).
#[derive(Debug, Clone)]
pub struct FlowHashCache {
    slots: Vec<(FlowKey, u64)>,
}

impl Default for FlowHashCache {
    fn default() -> FlowHashCache {
        let zero: FlowKey = (0, 0, 0, 0, 0);
        FlowHashCache {
            // Seed every slot with the genuine hash of the all-zero key,
            // so even a pathological all-zero flow reads a correct value.
            slots: vec![(zero, flow_hash(zero)); FLOW_CACHE_SLOTS],
        }
    }
}

impl FlowHashCache {
    /// Returns [`flow_hash`]`(key)`, from cache when the flow was seen
    /// recently.
    #[inline]
    pub fn hash(&mut self, key: FlowKey) -> u64 {
        let (src, dst, proto, sport, dport) = key;
        let idx = (src ^ dst ^ u32::from(proto) ^ u32::from(sport) ^ u32::from(dport)) as usize
            % FLOW_CACHE_SLOTS;
        let slot = &mut self.slots[idx];
        if slot.0 != key {
            *slot = (key, flow_hash(key));
        }
        slot.1
    }
}

/// A shard picker: `shards` workers, 5-tuple hash for IPv4, receiving
/// device otherwise.
///
/// Carries a live-shard bitmask for degraded-mode operation: when the
/// supervisor marks a shard dead ([`RssSteering::mark_dead`]), flows
/// homed on it are deterministically re-steered across the survivors,
/// while flows homed on live shards keep their original assignment (and
/// therefore their per-flow order).
#[derive(Debug, Clone, Copy)]
pub struct RssSteering {
    shards: usize,
    /// Bit `k` set ⇔ shard `k` accepts traffic. Sized for up to 128
    /// shards, which keeps the struct `Copy` for the simulator's cost
    /// model.
    live: u128,
}

/// Upper bound on shard count imposed by the `u128` liveness mask.
pub const MAX_SHARDS: usize = 128;

impl RssSteering {
    /// A steering stage over `shards` workers, all initially live.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or exceeds [`MAX_SHARDS`].
    pub fn new(shards: usize) -> RssSteering {
        assert!(shards >= 1, "steering needs at least one shard");
        assert!(
            shards <= MAX_SHARDS,
            "steering supports at most {MAX_SHARDS} shards"
        );
        let live = if shards == MAX_SHARDS {
            u128::MAX
        } else {
            (1u128 << shards) - 1
        };
        RssSteering { shards, live }
    }

    /// Number of shards steered across (live or not).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Marks `shard` as dead: its flows re-steer across the survivors.
    pub fn mark_dead(&mut self, shard: usize) {
        if shard < self.shards {
            self.live &= !(1u128 << shard);
        }
    }

    /// Marks `shard` as accepting traffic again (after a restart).
    pub fn mark_live(&mut self, shard: usize) {
        if shard < self.shards {
            self.live |= 1u128 << shard;
        }
    }

    /// Whether `shard` currently accepts traffic.
    pub fn is_live(&self, shard: usize) -> bool {
        shard < self.shards && self.live & (1u128 << shard) != 0
    }

    /// Number of live shards.
    pub fn live_count(&self) -> usize {
        self.live.count_ones() as usize
    }

    /// Maps a home shard onto a live one: the home itself when alive,
    /// otherwise the `hash % live_count`-th live shard. Returns `None`
    /// when every shard is dead.
    fn remap(&self, home: usize, hash: u64) -> Option<usize> {
        if self.live & (1u128 << home) != 0 {
            return Some(home);
        }
        let alive = self.live.count_ones() as u64;
        if alive == 0 {
            return None;
        }
        let mut k = hash % alive;
        for shard in 0..self.shards {
            if self.live & (1u128 << shard) != 0 {
                if k == 0 {
                    return Some(shard);
                }
                k -= 1;
            }
        }
        None
    }

    /// Picks a live shard for a frame received on `dev`, or `None` when
    /// no shard is live.
    pub fn live_shard_for(&self, frame: &[u8], dev: DeviceId) -> Option<usize> {
        if self.shards == 1 {
            return if self.live & 1 != 0 { Some(0) } else { None };
        }
        let (home, hash) = match flow_key(frame) {
            Some(key) => {
                let h = flow_hash(key);
                ((h % self.shards as u64) as usize, h)
            }
            None => (dev.0 % self.shards, dev.0 as u64),
        };
        self.remap(home, hash)
    }

    /// [`RssSteering::live_shard_for`] with the hash served from a
    /// caller-owned [`FlowHashCache`] — identical result. Kept only for
    /// the frozen `steer.cached_hash_ns` row (see [`FlowHashCache`]).
    pub fn live_shard_for_cached(
        &self,
        frame: &[u8],
        dev: DeviceId,
        cache: &mut FlowHashCache,
    ) -> Option<usize> {
        if self.shards == 1 {
            return if self.live & 1 != 0 { Some(0) } else { None };
        }
        let (home, hash) = match flow_key(frame) {
            Some(key) => {
                let h = cache.hash(key);
                ((h % self.shards as u64) as usize, h)
            }
            None => (dev.0 % self.shards, dev.0 as u64),
        };
        self.remap(home, hash)
    }

    /// Picks the shard for a frame received on `dev`, ignoring liveness
    /// (the historical single-owner mapping; still what the simulator's
    /// cost model charges).
    pub fn shard_for(&self, frame: &[u8], dev: DeviceId) -> usize {
        if self.shards == 1 {
            return 0;
        }
        match flow_key(frame) {
            Some(key) => (flow_hash(key) % self.shards as u64) as usize,
            None => dev.0 % self.shards,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::headers::build_udp_packet;
    use crate::packet::Packet;

    fn udp_frame(sip: u32, dip: u32, sport: u16, dport: u16) -> Packet {
        build_udp_packet([1; 6], [2; 6], sip, dip, sport, dport, 18, 64)
    }

    #[test]
    fn flow_key_parses_udp() {
        let p = udp_frame(0x0A000001, 0x0A000102, 1234, 5678);
        assert_eq!(
            flow_key(p.data()),
            Some((0x0A000001, 0x0A000102, ipv4::PROTO_UDP, 1234, 5678))
        );
    }

    #[test]
    fn non_ip_has_no_flow_key() {
        let mut p = Packet::new(60);
        p.data_mut()[12] = 0x08;
        p.data_mut()[13] = 0x06; // ARP
        assert_eq!(flow_key(p.data()), None);
        assert_eq!(flow_key(&[0u8; 10]), None);
    }

    #[test]
    fn same_flow_same_shard_for_every_shard_count() {
        let p = udp_frame(0x0A000002, 0x0A000302, 1000, 53);
        let q = p.clone();
        for shards in [1usize, 2, 3, 4, 8] {
            let s = RssSteering::new(shards);
            assert_eq!(
                s.shard_for(p.data(), DeviceId(0)),
                s.shard_for(q.data(), DeviceId(3)),
                "steering must ignore the device for IP frames"
            );
        }
    }

    #[test]
    fn non_ip_steers_by_device() {
        let mut arp = Packet::new(60);
        arp.data_mut()[12] = 0x08;
        arp.data_mut()[13] = 0x06;
        let s = RssSteering::new(4);
        for d in 0..8usize {
            assert_eq!(s.shard_for(arp.data(), DeviceId(d)), d % 4);
        }
    }

    #[test]
    #[ignore = "diagnostic: prints flow distribution per shard count (--ignored --nocapture)"]
    fn dist_probe() {
        use crate::ip_router::{test_packet_flow, IpRouterSpec};
        for ifaces in [4usize, 8] {
            let spec = IpRouterSpec::standard(ifaces);
            let frames: Vec<_> = (0..64)
                .map(|f| {
                    let src = f % (ifaces / 2);
                    let dst = src + ifaces / 2;
                    test_packet_flow(&spec, src, dst, 1024 + f as u16, 5678)
                })
                .collect();
            for shards in [2usize, 4, 8, 1024] {
                let mut bins = vec![0usize; shards];
                for p in &frames {
                    let h = flow_hash(flow_key(p.data()).unwrap());
                    bins[(h % shards as u64) as usize] += 1;
                }
                bins.sort_unstable_by(|a, b| b.cmp(a));
                println!(
                    "ifaces={ifaces} shards={shards}: top8={:?}",
                    &bins[..8.min(bins.len())]
                );
            }
        }
    }

    #[test]
    fn distinct_flows_spread_across_shards() {
        // 64 flows over 4 shards: no shard may be empty or hog more than
        // half the flows — the balance the parallel bench relies on.
        let s = RssSteering::new(4);
        let mut bins = [0usize; 4];
        for f in 0..64u16 {
            let p = udp_frame(0x0A000002, 0x0A000302, 1000 + f, 5678);
            bins[s.shard_for(p.data(), DeviceId(0))] += 1;
        }
        assert!(bins.iter().all(|&b| b > 0), "empty shard: {bins:?}");
        assert!(bins.iter().all(|&b| b <= 32), "hot shard: {bins:?}");
    }

    #[test]
    fn single_shard_short_circuits() {
        let s = RssSteering::new(1);
        assert_eq!(s.shard_for(&[0u8; 1], DeviceId(9)), 0);
    }

    #[test]
    fn truncated_headers_have_no_flow_key() {
        // Frame long enough for Ethernet + minimal IP, but the IHL field
        // claims a 60-byte header the frame doesn't carry.
        let p = udp_frame(0x0A000001, 0x0A000102, 1, 2);
        let mut lying = p.clone();
        lying.data_mut()[ether::HLEN] = 0x4F; // version 4, IHL 15 (60 bytes)
        let truncated = &lying.data()[..ether::HLEN + ipv4::HLEN + 4];
        assert_eq!(flow_key(truncated), None);
        // IHL below the legal minimum of 5 words.
        let mut runt = p.clone();
        runt.data_mut()[ether::HLEN] = 0x43; // version 4, IHL 3 (12 bytes)
        assert_eq!(flow_key(runt.data()), None);
    }

    #[test]
    fn dead_shard_flows_remap_to_survivors() {
        let mut s = RssSteering::new(4);
        assert_eq!(s.live_count(), 4);
        // Record every flow's home, then kill shard 2.
        let frames: Vec<_> = (0..64u16)
            .map(|f| udp_frame(0x0A000002, 0x0A000302, 1000 + f, 5678))
            .collect();
        let homes: Vec<_> = frames
            .iter()
            .map(|p| s.shard_for(p.data(), DeviceId(0)))
            .collect();
        s.mark_dead(2);
        assert_eq!(s.live_count(), 3);
        assert!(!s.is_live(2));
        for (p, &home) in frames.iter().zip(&homes) {
            let now = s.live_shard_for(p.data(), DeviceId(0)).unwrap();
            assert_ne!(now, 2, "dead shard must receive nothing");
            if home != 2 {
                assert_eq!(now, home, "live-homed flows must not move");
            }
        }
        // Revival restores the original mapping exactly.
        s.mark_live(2);
        for (p, &home) in frames.iter().zip(&homes) {
            assert_eq!(s.live_shard_for(p.data(), DeviceId(0)), Some(home));
        }
    }

    #[test]
    fn all_dead_steers_nowhere() {
        let mut s = RssSteering::new(2);
        s.mark_dead(0);
        s.mark_dead(1);
        let p = udp_frame(1, 2, 3, 4);
        assert_eq!(s.live_shard_for(p.data(), DeviceId(0)), None);
        assert_eq!(s.live_count(), 0);
    }

    #[test]
    fn non_ip_also_avoids_dead_shards() {
        let mut arp = Packet::new(60);
        arp.data_mut()[12] = 0x08;
        arp.data_mut()[13] = 0x06;
        let mut s = RssSteering::new(4);
        s.mark_dead(1);
        for d in 0..8usize {
            let shard = s.live_shard_for(arp.data(), DeviceId(d)).unwrap();
            assert_ne!(shard, 1);
            if d % 4 != 1 {
                assert_eq!(shard, d % 4);
            }
        }
    }
}
