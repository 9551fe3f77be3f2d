//! IP-layer elements of the Figure-1 router: header validation, TTL,
//! options, source fixing, routing lookup, fragmentation, and ICMP errors.
//!
//! All of these operate on packets whose data begins at the IP header
//! (i.e. downstream of `Strip(14)`).

use crate::batch::{BatchEmitter, PacketBatch};
use crate::element::{args, config_err, int_arg, CreateCtx, Element, Emitter};
use crate::headers::ipv4;
use crate::packet::Packet;
use crate::routing::{MultibitTrie, LANES};
use crate::swap::ElementState;
use click_core::config::{arg_slices, parse_ipv4, parse_route, Route, RouteError};
use click_core::error::Result;
use std::cell::OnceCell;

/// `CheckIPHeader`: validates the IP header; bad packets go to output 1
/// (or are dropped if output 1 is unconnected).
#[derive(Debug, Default)]
pub struct CheckIPHeader {
    bad: u64,
}

impl CheckIPHeader {
    /// Creates from a configuration string (must be empty).
    pub fn from_config(config: &str, _ctx: &mut CreateCtx) -> Result<CheckIPHeader> {
        if !config.trim().is_empty() {
            return Err(config_err("CheckIPHeader", "takes no configuration"));
        }
        Ok(CheckIPHeader::default())
    }

    /// The validation itself, shared with `IPInputCombo`.
    pub fn header_ok(data: &[u8]) -> bool {
        if data.len() < ipv4::HLEN {
            return false;
        }
        if ipv4::version(data) != 4 {
            return false;
        }
        let hlen = ipv4::header_len(data);
        if !(ipv4::HLEN..=data.len()).contains(&hlen) {
            return false;
        }
        let tlen = ipv4::total_len(data) as usize;
        if tlen < hlen || tlen > data.len() {
            return false;
        }
        ipv4::checksum_ok(data)
    }
}

impl Element for CheckIPHeader {
    fn class_name(&self) -> &str {
        "CheckIPHeader"
    }
    fn action(&mut self, p: Packet) -> Option<(usize, Packet)> {
        if Self::header_ok(p.data()) {
            Some((0, p))
        } else {
            self.bad += 1;
            Some((1, p))
        }
    }
    fn stat(&self, name: &str) -> Option<u64> {
        (name == "bad").then_some(self.bad)
    }
}

/// `MarkIPHeader`: annotation-only in real Click; a no-op here.
#[derive(Debug, Default)]
pub struct MarkIPHeader;

impl MarkIPHeader {
    /// Creates from a configuration string (offset argument accepted and
    /// ignored).
    pub fn from_config(_config: &str, _ctx: &mut CreateCtx) -> Result<MarkIPHeader> {
        Ok(MarkIPHeader)
    }
}

impl Element for MarkIPHeader {
    fn class_name(&self) -> &str {
        "MarkIPHeader"
    }
}

/// `GetIPAddress(offset)`: copies 4 bytes at `offset` into the
/// destination-IP annotation (offset 16 = the IP destination field).
#[derive(Debug)]
pub struct GetIPAddress {
    offset: usize,
}

impl GetIPAddress {
    /// Creates from a configuration string: the byte offset.
    pub fn from_config(config: &str, _ctx: &mut CreateCtx) -> Result<GetIPAddress> {
        let a = args(config);
        if a.len() != 1 {
            return Err(config_err(
                "GetIPAddress",
                "expects exactly one offset argument",
            ));
        }
        Ok(GetIPAddress {
            offset: int_arg("GetIPAddress", "offset", &a[0])?,
        })
    }
}

impl Element for GetIPAddress {
    fn class_name(&self) -> &str {
        "GetIPAddress"
    }
    fn action(&mut self, mut p: Packet) -> Option<(usize, Packet)> {
        let field = p.data().get(self.offset..self.offset + 4);
        if let Some(&[a, b, c, d]) = field {
            p.anno.dst_ip = Some(u32::from_be_bytes([a, b, c, d]));
        }
        Some((0, p))
    }
}

/// `SetIPAddress(ip)`: sets the destination-IP annotation to a constant.
#[derive(Debug)]
pub struct SetIPAddress {
    ip: u32,
}

impl SetIPAddress {
    /// Creates from a configuration string: the address.
    pub fn from_config(config: &str, _ctx: &mut CreateCtx) -> Result<SetIPAddress> {
        let a = args(config);
        if a.len() != 1 {
            return Err(config_err(
                "SetIPAddress",
                "expects exactly one address argument",
            ));
        }
        let ip = parse_ipv4(&a[0])
            .ok_or_else(|| config_err("SetIPAddress", format!("bad address {:?}", a[0])))?;
        Ok(SetIPAddress { ip })
    }
}

impl Element for SetIPAddress {
    fn class_name(&self) -> &str {
        "SetIPAddress"
    }
    fn action(&mut self, mut p: Packet) -> Option<(usize, Packet)> {
        p.anno.dst_ip = Some(self.ip);
        Some((0, p))
    }
}

/// `DropBroadcasts`: drops packets that arrived as link-level broadcasts.
#[derive(Debug, Default)]
pub struct DropBroadcasts {
    drops: u64,
}

impl DropBroadcasts {
    /// Creates from a configuration string (must be empty).
    pub fn from_config(config: &str, _ctx: &mut CreateCtx) -> Result<DropBroadcasts> {
        if !config.trim().is_empty() {
            return Err(config_err("DropBroadcasts", "takes no configuration"));
        }
        Ok(DropBroadcasts::default())
    }
}

impl Element for DropBroadcasts {
    fn class_name(&self) -> &str {
        "DropBroadcasts"
    }
    fn action(&mut self, p: Packet) -> Option<(usize, Packet)> {
        if p.anno.link_broadcast {
            self.drops += 1;
            p.recycle();
            None
        } else {
            Some((0, p))
        }
    }
    fn stat(&self, name: &str) -> Option<u64> {
        (name == "drops").then_some(self.drops)
    }
}

/// `IPGWOptions`: processes IP options a gateway must handle. Packets with
/// malformed options go to output 1; option-less packets pass untouched.
#[derive(Debug, Default)]
pub struct IPGWOptions {
    bad: u64,
}

impl IPGWOptions {
    /// Creates from a configuration string (must be empty).
    pub fn from_config(config: &str, _ctx: &mut CreateCtx) -> Result<IPGWOptions> {
        if !config.trim().is_empty() {
            return Err(config_err("IPGWOptions", "takes no configuration"));
        }
        Ok(IPGWOptions::default())
    }

    /// Returns false if the options area is malformed, or if the frame is
    /// too short to carry the IHL byte at all.
    pub fn options_ok(data: &[u8]) -> bool {
        if data.is_empty() {
            return false;
        }
        let hlen = ipv4::header_len(data);
        if hlen <= ipv4::HLEN {
            return true; // no options
        }
        if hlen > data.len() {
            return false; // the header claims options the frame does not carry
        }
        let mut i = ipv4::HLEN;
        while i < hlen {
            match data[i] {
                0 => return true, // end of options
                1 => i += 1,      // no-op
                _ => {
                    if i + 1 >= hlen {
                        return false;
                    }
                    let olen = data[i + 1] as usize;
                    if olen < 2 || i + olen > hlen {
                        return false;
                    }
                    i += olen;
                }
            }
        }
        true
    }
}

impl Element for IPGWOptions {
    fn class_name(&self) -> &str {
        "IPGWOptions"
    }
    fn action(&mut self, p: Packet) -> Option<(usize, Packet)> {
        if Self::options_ok(p.data()) {
            Some((0, p))
        } else {
            self.bad += 1;
            Some((1, p))
        }
    }
    fn stat(&self, name: &str) -> Option<u64> {
        (name == "bad").then_some(self.bad)
    }
}

/// `FixIPSrc(ip)`: rewrites the source address of packets flagged by
/// `ICMPError` (so locally generated errors carry the router's address).
#[derive(Debug)]
pub struct FixIPSrc {
    ip: u32,
}

impl FixIPSrc {
    /// Creates from a configuration string: the router's address on this
    /// interface.
    pub fn from_config(config: &str, _ctx: &mut CreateCtx) -> Result<FixIPSrc> {
        let a = args(config);
        if a.len() != 1 {
            return Err(config_err(
                "FixIPSrc",
                "expects exactly one address argument",
            ));
        }
        let ip = parse_ipv4(&a[0])
            .ok_or_else(|| config_err("FixIPSrc", format!("bad address {:?}", a[0])))?;
        Ok(FixIPSrc { ip })
    }
}

impl Element for FixIPSrc {
    fn class_name(&self) -> &str {
        "FixIPSrc"
    }
    fn action(&mut self, mut p: Packet) -> Option<(usize, Packet)> {
        if p.anno.fix_ip_src && p.len() >= ipv4::HLEN {
            ipv4::set_src(p.data_mut(), self.ip);
            p.anno.fix_ip_src = false;
        }
        Some((0, p))
    }
}

/// `DecIPTTL`: decrements the TTL with an incremental checksum update;
/// expired packets go to output 1.
#[derive(Debug, Default)]
pub struct DecIPTTL {
    expired: u64,
}

impl DecIPTTL {
    /// Creates from a configuration string (must be empty).
    pub fn from_config(config: &str, _ctx: &mut CreateCtx) -> Result<DecIPTTL> {
        if !config.trim().is_empty() {
            return Err(config_err("DecIPTTL", "takes no configuration"));
        }
        Ok(DecIPTTL::default())
    }
}

impl Element for DecIPTTL {
    fn class_name(&self) -> &str {
        "DecIPTTL"
    }
    fn action(&mut self, mut p: Packet) -> Option<(usize, Packet)> {
        if p.len() < ipv4::HLEN || ipv4::ttl(p.data()) <= 1 {
            self.expired += 1;
            Some((1, p))
        } else {
            ipv4::dec_ttl(p.data_mut());
            Some((0, p))
        }
    }
    fn stat(&self, name: &str) -> Option<u64> {
        (name == "expired").then_some(self.expired)
    }
}

/// `IPFragmenter(mtu)`: fragments packets larger than the MTU; packets
/// with DF set that would need fragmentation go to output 1, and packets
/// whose header cannot be fragmented (see `fragment`) are dropped and
/// counted in `drops`.
#[derive(Debug)]
pub struct IPFragmenter {
    mtu: usize,
    fragments: u64,
    must_frag: u64,
    drops: u64,
}

impl IPFragmenter {
    /// Creates from a configuration string: the MTU in bytes.
    pub fn from_config(config: &str, _ctx: &mut CreateCtx) -> Result<IPFragmenter> {
        let a = args(config);
        if a.len() != 1 {
            return Err(config_err(
                "IPFragmenter",
                "expects exactly one MTU argument",
            ));
        }
        let mtu: usize = int_arg("IPFragmenter", "MTU", &a[0])?;
        if mtu < ipv4::HLEN + 8 {
            return Err(config_err("IPFragmenter", "MTU too small"));
        }
        Ok(IPFragmenter {
            mtu,
            fragments: 0,
            must_frag: 0,
            drops: 0,
        })
    }
}

/// Splits an IP packet longer than `mtu` (DF clear) into fragments of at
/// most `mtu` bytes on port 0 of `out`, retires the original, and returns
/// how many fragments it emitted. The one fragmenting routine:
/// [`IPFragmenter`] and `IPOutputCombo` both call it.
///
/// With no `CheckIPHeader` upstream the header fields are whatever came
/// off the wire, so they are validated before anything is sized from
/// them: `None` — nothing emitted, the caller counts a drop — unless
/// `20 ≤ IHL·4 < min(total length, frame length)` and the MTU leaves room
/// for one 8-byte payload unit after the header. (A datagram with no
/// payload has nothing to fragment; emitting zero fragments would lose it
/// unaccounted.)
pub(crate) fn fragment(p: Packet, mtu: usize, out: &mut Emitter) -> Option<u64> {
    let data = p.data();
    let hlen = ipv4::header_len(data);
    let total = (ipv4::total_len(data) as usize).min(data.len());
    if hlen < ipv4::HLEN || hlen >= total || mtu < hlen + 8 {
        p.recycle();
        return None;
    }
    let payload = &data[hlen..total];
    // Fragment payload size: multiple of 8 bytes.
    let step = (mtu - hlen) / 8 * 8;
    let orig_frag_field = ipv4::frag_field(data);
    let orig_offset_units = (orig_frag_field & 0x1FFF) as usize;
    let orig_mf = orig_frag_field & ipv4::FLAG_MF != 0;
    let mut fragments = 0;
    let mut pos = 0usize;
    while pos < payload.len() {
        let this_len = step.min(payload.len() - pos);
        let last = pos + this_len >= payload.len();
        let mut frag = Packet::new(hlen + this_len);
        frag.anno = p.anno.clone();
        let fd = frag.data_mut();
        fd[..hlen].copy_from_slice(&data[..hlen]);
        fd[hlen..].copy_from_slice(&payload[pos..pos + this_len]);
        fd[2..4].copy_from_slice(&((hlen + this_len) as u16).to_be_bytes());
        let mf = !last || orig_mf;
        let offset_units = orig_offset_units + pos / 8;
        let field = (offset_units as u16 & 0x1FFF) | if mf { ipv4::FLAG_MF } else { 0 };
        fd[6..8].copy_from_slice(&field.to_be_bytes());
        ipv4::set_checksum(fd);
        fragments += 1;
        out.emit(0, frag);
        pos += this_len;
    }
    p.recycle();
    Some(fragments)
}

impl Element for IPFragmenter {
    fn class_name(&self) -> &str {
        "IPFragmenter"
    }
    fn push(&mut self, _port: usize, p: Packet, out: &mut Emitter) {
        if p.len() <= self.mtu {
            out.emit(0, p);
        } else if ipv4::frag_field(p.data()) & ipv4::FLAG_DF != 0 {
            self.must_frag += 1;
            out.emit(1, p);
        } else {
            match fragment(p, self.mtu, out) {
                Some(n) => self.fragments += n,
                None => self.drops += 1,
            }
        }
    }
    fn push_batch(&mut self, port: usize, batch: PacketBatch, out: &mut BatchEmitter) {
        out.push_each(batch, |p, e| self.push(port, p, e));
    }
    fn stat(&self, name: &str) -> Option<u64> {
        match name {
            "fragments" => Some(self.fragments),
            "must_frag" => Some(self.must_frag),
            "drops" => Some(self.drops),
            _ => None,
        }
    }
}

/// `ICMPError(src_ip, type, code)`: turns a problem packet into an ICMP
/// error addressed to its sender, which re-enters the routing lookup.
#[derive(Debug)]
pub struct ICMPError {
    src_ip: u32,
    icmp_type: u8,
    code: u8,
    generated: u64,
}

impl ICMPError {
    /// Creates from a configuration string: `src_ip, type, code`.
    pub fn from_config(config: &str, _ctx: &mut CreateCtx) -> Result<ICMPError> {
        let a = args(config);
        if a.len() != 3 {
            return Err(config_err("ICMPError", "expects `src_ip, type, code`"));
        }
        let src_ip = parse_ipv4(&a[0])
            .ok_or_else(|| config_err("ICMPError", format!("bad address {:?}", a[0])))?;
        Ok(ICMPError {
            src_ip,
            icmp_type: int_arg("ICMPError", "type", &a[1])?,
            code: int_arg("ICMPError", "code", &a[2])?,
            generated: 0,
        })
    }

    /// The ICMP error quoting `data`, an IP packet; `None` if it is
    /// shorter than an IP header.
    fn error_for(&mut self, data: &[u8]) -> Option<Packet> {
        if data.len() < ipv4::HLEN {
            return None;
        }
        let orig_src = ipv4::src(data);
        // ICMP payload: type, code, checksum, unused + original header + 8.
        let quoted = (ipv4::header_len(data) + 8).min(data.len());
        let icmp_len = 8 + quoted;
        let total = ipv4::HLEN + icmp_len;
        let mut e = Packet::new(total);
        e.anno.dst_ip = Some(orig_src);
        e.anno.fix_ip_src = true;
        let ed = e.data_mut();
        ed[0] = 0x45;
        ed[2..4].copy_from_slice(&(total as u16).to_be_bytes());
        ed[8] = 255;
        ed[9] = ipv4::PROTO_ICMP;
        ed[12..16].copy_from_slice(&self.src_ip.to_be_bytes());
        ed[16..20].copy_from_slice(&orig_src.to_be_bytes());
        ipv4::set_checksum(ed);
        let icmp = &mut ed[ipv4::HLEN..];
        icmp[0] = self.icmp_type;
        icmp[1] = self.code;
        icmp[8..8 + quoted].copy_from_slice(&data[..quoted]);
        self.generated += 1;
        Some(e)
    }
}

impl Element for ICMPError {
    fn class_name(&self) -> &str {
        "ICMPError"
    }
    fn action(&mut self, p: Packet) -> Option<(usize, Packet)> {
        // The original is consumed, whether or not it can be quoted.
        let e = self.error_for(p.data());
        p.recycle();
        e.map(|e| (0, e))
    }
    fn stat(&self, name: &str) -> Option<u64> {
        (name == "count").then_some(self.generated)
    }
}

/// `ICMPPingResponder(ip)`: answers ICMP echo requests addressed to `ip`
/// with echo replies.
///
/// Unlike the rest of this module, it takes *full Ethernet frames* (its
/// home is directly behind a `FromDevice` on a live `tap:`/`raw:`
/// backend, where the kernel's `ping` is the traffic source): the reply
/// reuses the request's buffer with MAC and IP addresses swapped, TTL
/// refreshed, and both checksums recomputed. Non-echo-request frames go
/// to output 1, or are dropped (and counted) if output 1 is unconnected.
#[derive(Debug)]
pub struct ICMPPingResponder {
    ip: u32,
    replies: u64,
    ignored: u64,
}

impl ICMPPingResponder {
    /// Creates from a configuration string: the address to answer for.
    pub fn from_config(config: &str, _ctx: &mut CreateCtx) -> Result<ICMPPingResponder> {
        let a = args(config);
        if a.len() != 1 {
            return Err(config_err(
                "ICMPPingResponder",
                "expects exactly one address argument",
            ));
        }
        let ip = parse_ipv4(&a[0])
            .ok_or_else(|| config_err("ICMPPingResponder", format!("bad address {:?}", a[0])))?;
        Ok(ICMPPingResponder {
            ip,
            replies: 0,
            ignored: 0,
        })
    }

    /// Ones-complement sum over `data` (the ICMP message checksum).
    fn icmp_checksum(data: &[u8]) -> u16 {
        let mut sum = 0u32;
        let mut chunks = data.chunks_exact(2);
        for c in &mut chunks {
            sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
        }
        if let [last] = chunks.remainder() {
            sum += u32::from(u16::from_be_bytes([*last, 0]));
        }
        while sum >> 16 != 0 {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        !(sum as u16)
    }

    /// True if the frame is an IPv4 ICMP echo request for our address.
    fn is_echo_request(&self, f: &[u8]) -> bool {
        if f.len() < crate::headers::ether::HLEN + ipv4::HLEN + 8 {
            return false;
        }
        let ip = &f[crate::headers::ether::HLEN..];
        crate::headers::ether::ethertype(f) == 0x0800
            && ipv4::version(ip) == 4
            && ipv4::protocol(ip) == ipv4::PROTO_ICMP
            && ipv4::dst(ip) == self.ip
            && ip.len() > ipv4::header_len(ip)
            && ip[ipv4::header_len(ip)] == 8 // echo request
    }
}

impl Element for ICMPPingResponder {
    fn class_name(&self) -> &str {
        "ICMPPingResponder"
    }
    fn action(&mut self, mut p: Packet) -> Option<(usize, Packet)> {
        if !self.is_echo_request(p.data()) {
            self.ignored += 1;
            return Some((1, p));
        }
        let f = p.data_mut();
        let (req_dst, req_src) = (crate::headers::ether::dst(f), crate::headers::ether::src(f));
        let ethertype = crate::headers::ether::ethertype(f);
        crate::headers::ether::write(f, req_src, req_dst, ethertype);
        let ip = &mut f[crate::headers::ether::HLEN..];
        let hlen = ipv4::header_len(ip);
        let (src, dst) = (ipv4::src(ip), ipv4::dst(ip));
        ip[12..16].copy_from_slice(&dst.to_be_bytes());
        ip[16..20].copy_from_slice(&src.to_be_bytes());
        ip[8] = 64; // fresh TTL for the reply
        ipv4::set_checksum(ip);
        let total = (ipv4::total_len(ip) as usize).min(ip.len());
        let icmp = &mut ip[hlen..total];
        icmp[0] = 0; // echo reply
        icmp[2] = 0;
        icmp[3] = 0;
        let c = Self::icmp_checksum(icmp);
        icmp[2..4].copy_from_slice(&c.to_be_bytes());
        self.replies += 1;
        Some((0, p))
    }
    fn stat(&self, name: &str) -> Option<u64> {
        match name {
            "count" => Some(self.replies),
            "ignored" => Some(self.ignored),
            _ => None,
        }
    }
}

/// `StaticIPLookup` / `LookupIPRoute`: longest-prefix-match routing. Route
/// entries are `addr/prefix [gateway] output`; a destination with no
/// route is dropped and counted under `drops`.
///
/// Backed by a Poptrie-style [`MultibitTrie`], built lazily on first
/// lookup: building a router (or a hot swap that rebuilds this element
/// with new routes) parses the routes but does not pay for the table
/// until traffic needs it. A hot swap that keeps the routes reuses the
/// element, table and all.
#[derive(Debug)]
pub struct StaticIPLookup {
    /// Parsed route entries, in configuration order (later duplicates
    /// override earlier ones when the table is built).
    routes: Vec<Route>,
    table: OnceCell<MultibitTrie<(Option<u32>, usize)>>,
    class: &'static str,
    drops: u64,
}

impl StaticIPLookup {
    /// Creates from a configuration string of route entries.
    pub fn from_config(config: &str, _ctx: &mut CreateCtx) -> Result<StaticIPLookup> {
        Self::with_class(config, "StaticIPLookup")
    }

    /// Creates under the `LookupIPRoute` alias.
    pub fn lookup_ip_route(config: &str, _ctx: &mut CreateCtx) -> Result<StaticIPLookup> {
        Self::with_class(config, "LookupIPRoute")
    }

    fn with_class(config: &str, class: &'static str) -> Result<StaticIPLookup> {
        let a = arg_slices(config);
        if a.is_empty() {
            return Err(config_err(class, "expects at least one route"));
        }
        let routes = a
            .into_iter()
            .map(|route| {
                parse_route(route).map_err(|e| {
                    let what = match e {
                        RouteError::Shape => "route",
                        RouteError::Prefix => "prefix in",
                        RouteError::Address => "address in",
                        RouteError::Gateway => "gateway in",
                        RouteError::Port => "output port in",
                    };
                    config_err(class, format!("bad {what} {route:?}"))
                })
            })
            .collect::<Result<Vec<Route>>>()?;
        Ok(StaticIPLookup {
            routes,
            table: OnceCell::new(),
            class,
            drops: 0,
        })
    }

    /// The live table, built from the parsed routes on first use.
    fn table(&self) -> &MultibitTrie<(Option<u32>, usize)> {
        self.table.get_or_init(|| {
            MultibitTrie::from_prefixes(
                self.routes
                    .iter()
                    .map(|r| (r.addr, r.plen, (r.gateway, r.port))),
            )
        })
    }

    /// Looks up an address, returning `(next_hop_annotation, output port)`.
    pub fn route(&self, dst: u32) -> Option<(u32, usize)> {
        self.table()
            .lookup(dst)
            .map(|&(gw, port)| (gw.unwrap_or(dst), port))
    }

    /// [`StaticIPLookup::route`] for every address of `dsts`, into
    /// `out[i]` for `dsts[i]`, with one walk of the table over the batch
    /// ([`MultibitTrie::lookup_batch`]).
    fn route_batch(&self, dsts: &[u32], out: &mut [Option<(u32, usize)>]) {
        let mut hits = [None; LANES];
        for (dsts, out) in dsts.chunks(LANES).zip(out.chunks_mut(LANES)) {
            let hits = &mut hits[..dsts.len()];
            self.table().lookup_batch(dsts, hits);
            for ((o, hit), &dst) in out.iter_mut().zip(hits).zip(dsts) {
                *o = hit.map(|&(gw, port)| (gw.unwrap_or(dst), port));
            }
        }
    }

    /// Sends `p` along its route `hit` (`(next hop, output port)`, as
    /// [`StaticIPLookup::route`] answers), or, with no route, counts the
    /// drop and returns the packet to the pool.
    fn forward(&mut self, mut p: Packet, hit: Option<(u32, usize)>) -> Option<(usize, Packet)> {
        match hit {
            Some((next_hop, port)) => {
                p.anno.dst_ip = Some(next_hop);
                Some((port, p))
            }
            None => {
                self.drops += 1;
                p.recycle();
                None
            }
        }
    }

    /// Like [`StaticIPLookup::route`], also reporting the number of
    /// interior stride nodes the lookup visited (for the cost model).
    pub fn route_steps(&self, dst: u32) -> (Option<(u32, usize)>, usize) {
        let (v, steps) = self.table().lookup_steps(dst);
        (v.map(|&(gw, port)| (gw.unwrap_or(dst), port)), steps)
    }

    /// Incrementally adds (or updates) one route in the live table.
    pub fn insert_route(&mut self, addr: u32, plen: u8, gw: Option<u32>, port: usize) {
        self.table();
        self.table
            .get_mut()
            .expect("table just initialized")
            .insert(addr, plen, (gw, port));
    }

    /// Incrementally removes one exact prefix from the live table,
    /// returning true if it was present.
    pub fn remove_route(&mut self, addr: u32, plen: u8) -> bool {
        self.table();
        self.table
            .get_mut()
            .expect("table just initialized")
            .remove(addr, plen)
            .is_some()
    }

    /// Number of distinct prefixes in the live table.
    pub fn route_count(&self) -> usize {
        self.table().len()
    }
}

/// The address a packet is routed by: its destination annotation, else
/// its header's destination (0 for a runt).
fn destination(p: &Packet) -> u32 {
    p.anno.dst_ip.unwrap_or_else(|| {
        if p.len() >= ipv4::HLEN {
            ipv4::dst(p.data())
        } else {
            0
        }
    })
}

impl Element for StaticIPLookup {
    fn class_name(&self) -> &str {
        self.class
    }
    fn action(&mut self, p: Packet) -> Option<(usize, Packet)> {
        let hit = self.route(destination(&p));
        self.forward(p, hit)
    }
    fn push_batch(&mut self, _port: usize, mut batch: PacketBatch, out: &mut BatchEmitter) {
        // A lone packet (a latency-bound trickle) has no misses to
        // overlap: it takes `action`'s scalar walk and skips zeroing the
        // lane arrays below.
        if batch.len() == 1 {
            if let Some((port, p)) = batch.drain().next().and_then(|p| self.action(p)) {
                out.emit(port, p);
            }
            out.recycle_storage(batch);
            return;
        }
        // Up to LANES destinations are gathered and resolved in one walk
        // of the table; then each packet, in order, takes the step
        // `action` takes.
        let mut dsts = [0u32; LANES];
        let mut hits = [None; LANES];
        let mut pkts = batch.drain();
        while pkts.len() > 0 {
            let lanes = &pkts.as_slice()[..pkts.len().min(LANES)];
            let n = lanes.len();
            for (d, p) in dsts.iter_mut().zip(lanes) {
                *d = destination(p);
            }
            self.route_batch(&dsts[..n], &mut hits[..n]);
            for (p, &hit) in pkts.by_ref().take(n).zip(&hits[..n]) {
                if let Some((port, p)) = self.forward(p, hit) {
                    out.emit(port, p);
                }
            }
        }
        drop(pkts);
        out.recycle_storage(batch);
    }
    fn stat(&self, name: &str) -> Option<u64> {
        (name == "drops").then_some(self.drops)
    }
    fn take_state(&mut self) -> Option<ElementState> {
        Some(ElementState::new(self.class).counter("drops", self.drops))
    }
    fn restore_state(&mut self, state: ElementState) {
        self.drops += state.get("drops");
        state.recycle_packets();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::headers::build_udp_packet;
    use crate::headers::ether;

    fn ctx() -> CreateCtx {
        CreateCtx::new()
    }

    fn ip_packet(dst: u32, ttl: u8) -> Packet {
        let mut p = build_udp_packet([1; 6], [2; 6], 0x0A000001, dst, 1, 2, 18, ttl);
        p.pull(ether::HLEN);
        p
    }

    fn push_one(e: &mut dyn Element, p: Packet) -> Vec<(usize, Packet)> {
        let mut out = Emitter::new();
        e.push(0, p, &mut out);
        out.drain().collect()
    }

    #[test]
    fn checkipheader_accepts_valid() {
        let mut c = CheckIPHeader::from_config("", &mut ctx()).unwrap();
        let outs = push_one(&mut c, ip_packet(0x0A000002, 64));
        assert_eq!(outs[0].0, 0);
        assert_eq!(c.stat("bad"), Some(0));
    }

    #[test]
    fn checkipheader_rejects_corruption() {
        let mut c = CheckIPHeader::from_config("", &mut ctx()).unwrap();
        // Bad checksum.
        let mut p = ip_packet(0x0A000002, 64);
        p.data_mut()[16] ^= 0xFF;
        assert_eq!(push_one(&mut c, p)[0].0, 1);
        // Bad version.
        let mut p = ip_packet(0x0A000002, 64);
        p.data_mut()[0] = 0x65;
        assert_eq!(push_one(&mut c, p)[0].0, 1);
        // Truncated.
        let p = Packet::from_data(&[0x45, 0, 0, 5]);
        assert_eq!(push_one(&mut c, p)[0].0, 1);
        // Total length beyond packet.
        let mut p = ip_packet(0x0A000002, 64);
        p.data_mut()[2] = 0xFF;
        assert_eq!(push_one(&mut c, p)[0].0, 1);
        assert_eq!(c.stat("bad"), Some(4));
    }

    #[test]
    fn getipaddress_sets_annotation() {
        let mut g = GetIPAddress::from_config("16", &mut ctx()).unwrap();
        let p = g.action(ip_packet(0x0A020304, 64)).unwrap().1;
        assert_eq!(p.anno.dst_ip, Some(0x0A020304));
    }

    #[test]
    fn dropbroadcasts() {
        let mut d = DropBroadcasts::from_config("", &mut ctx()).unwrap();
        let mut p = ip_packet(1, 64);
        p.anno.link_broadcast = true;
        assert!(d.action(p).is_none());
        assert!(d.action(ip_packet(1, 64)).is_some());
        assert_eq!(d.stat("drops"), Some(1));
    }

    #[test]
    fn decipttl_decrements_and_expires() {
        let mut d = DecIPTTL::from_config("", &mut ctx()).unwrap();
        let outs = push_one(&mut d, ip_packet(1, 64));
        assert_eq!(outs[0].0, 0);
        assert_eq!(ipv4::ttl(outs[0].1.data()), 63);
        assert!(ipv4::checksum_ok(outs[0].1.data()));
        let outs = push_one(&mut d, ip_packet(1, 1));
        assert_eq!(outs[0].0, 1);
        assert_eq!(d.stat("expired"), Some(1));
    }

    #[test]
    fn fixipsrc_honors_annotation() {
        let mut f = FixIPSrc::from_config("10.0.0.254", &mut ctx()).unwrap();
        let mut p = ip_packet(1, 64);
        p.anno.fix_ip_src = true;
        let q = f.action(p).unwrap().1;
        assert_eq!(ipv4::src(q.data()), 0x0A0000FE);
        assert!(ipv4::checksum_ok(q.data()));
        assert!(!q.anno.fix_ip_src);
        // Without the flag: untouched.
        let q2 = f.action(ip_packet(1, 64)).unwrap().1;
        assert_eq!(ipv4::src(q2.data()), 0x0A000001);
    }

    #[test]
    fn ipgwoptions_passes_optionless_and_flags_bad() {
        let mut g = IPGWOptions::from_config("", &mut ctx()).unwrap();
        assert_eq!(push_one(&mut g, ip_packet(1, 64))[0].0, 0);
        // Craft hl=6 with a malformed option (length 0).
        let mut p = Packet::new(24);
        {
            let d = p.data_mut();
            d[0] = 0x46;
            d[2..4].copy_from_slice(&24u16.to_be_bytes());
            d[20] = 7; // some option type
            d[21] = 0; // invalid length
            ipv4::set_checksum(d);
        }
        assert_eq!(push_one(&mut g, p)[0].0, 1);
        assert_eq!(g.stat("bad"), Some(1));
    }

    #[test]
    fn fragmenter_passes_small_and_splits_large() {
        let mut f = IPFragmenter::from_config("576", &mut ctx()).unwrap();
        assert_eq!(push_one(&mut f, ip_packet(1, 64)).len(), 1);

        // A 1200-byte packet with MTU 576 → 3 fragments.
        let mut big = Packet::new(1200);
        {
            let d = big.data_mut();
            d[0] = 0x45;
            d[2..4].copy_from_slice(&1200u16.to_be_bytes());
            d[8] = 64;
            d[9] = 17;
            for (i, b) in d.iter_mut().enumerate().take(1200).skip(20) {
                *b = (i % 251) as u8;
            }
            ipv4::set_checksum(d);
        }
        let frags = push_one(&mut f, big.clone());
        assert_eq!(frags.len(), 3);
        // Each fragment valid and ≤ MTU; offsets contiguous; payload
        // reassembles to the original.
        let mut reassembled = vec![0u8; 1180];
        let mut mf_count = 0;
        for (port, frag) in &frags {
            assert_eq!(*port, 0);
            let fd = frag.data();
            assert!(fd.len() <= 576);
            assert!(ipv4::checksum_ok(fd));
            let field = ipv4::frag_field(fd);
            if field & ipv4::FLAG_MF != 0 {
                mf_count += 1;
            }
            let off = ((field & 0x1FFF) as usize) * 8;
            let payload = &fd[20..];
            reassembled[off..off + payload.len()].copy_from_slice(payload);
        }
        assert_eq!(mf_count, 2, "all but the last fragment set MF");
        assert_eq!(&reassembled[..], &big.data()[20..1200]);
    }

    #[test]
    fn fragmenter_df_goes_to_error_output() {
        let mut f = IPFragmenter::from_config("576", &mut ctx()).unwrap();
        let mut big = Packet::new(1200);
        {
            let d = big.data_mut();
            d[0] = 0x45;
            d[2..4].copy_from_slice(&1200u16.to_be_bytes());
            d[6..8].copy_from_slice(&ipv4::FLAG_DF.to_be_bytes());
            ipv4::set_checksum(d);
        }
        let outs = push_one(&mut f, big);
        assert_eq!(outs[0].0, 1);
        assert_eq!(f.stat("must_frag"), Some(1));
    }

    #[test]
    fn icmperror_builds_addressed_error() {
        let mut e = ICMPError::from_config("10.0.0.254, 11, 0", &mut ctx()).unwrap();
        let bad = ip_packet(0x0A020304, 1);
        let err = e.action(bad.clone()).unwrap().1;
        let d = err.data();
        assert_eq!(ipv4::protocol(d), ipv4::PROTO_ICMP);
        assert_eq!(ipv4::dst(d), 0x0A000001); // original source
        assert!(ipv4::checksum_ok(d));
        assert_eq!(d[20], 11); // type
        assert_eq!(d[21], 0); // code
                              // Quoted original header.
        assert_eq!(&d[28..48], &bad.data()[..20]);
        assert_eq!(err.anno.dst_ip, Some(0x0A000001));
        assert!(err.anno.fix_ip_src);
    }

    #[test]
    fn static_ip_lookup_routes_and_sets_annotation() {
        let mut r = StaticIPLookup::from_config(
            "10.0.1.0/24 0, 10.0.2.0/24 1, 0.0.0.0/0 10.0.2.9 2",
            &mut ctx(),
        )
        .unwrap();
        let mut p = ip_packet(0x0A000102, 64);
        p.anno.dst_ip = Some(0x0A000102);
        let outs = push_one(&mut r, p);
        assert_eq!(outs[0].0, 0);
        assert_eq!(outs[0].1.anno.dst_ip, Some(0x0A000102)); // direct: unchanged

        let mut p = ip_packet(0x01020304, 64);
        p.anno.dst_ip = Some(0x01020304);
        let outs = push_one(&mut r, p);
        assert_eq!(outs[0].0, 2);
        assert_eq!(outs[0].1.anno.dst_ip, Some(0x0A000209)); // via gateway
    }

    #[test]
    fn static_ip_lookup_incremental_updates() {
        let mut r = StaticIPLookup::from_config("10.0.0.0/8 0", &mut ctx()).unwrap();
        assert_eq!(r.route_count(), 1);
        r.insert_route(0x0A010000, 16, None, 1);
        assert_eq!(r.route(0x0A010203), Some((0x0A010203, 1)));
        assert_eq!(r.route_count(), 2);
        assert!(r.remove_route(0x0A010000, 16));
        assert!(!r.remove_route(0x0A010000, 16));
        assert_eq!(r.route(0x0A010203), Some((0x0A010203, 0)));
    }

    #[test]
    fn static_ip_lookup_without_route_drops() {
        let mut r = StaticIPLookup::from_config("10.0.1.0/24 0", &mut ctx()).unwrap();
        let mut p = ip_packet(0x01020304, 64);
        p.anno.dst_ip = Some(0x01020304);
        assert!(push_one(&mut r, p).is_empty());
        assert_eq!(r.stat("drops"), Some(1));
    }

    #[test]
    fn config_validation() {
        assert!(GetIPAddress::from_config("", &mut ctx()).is_err());
        assert!(SetIPAddress::from_config("1.2.3", &mut ctx()).is_err());
        assert!(IPFragmenter::from_config("10", &mut ctx()).is_err());
        assert!(ICMPError::from_config("10.0.0.1, 11", &mut ctx()).is_err());
        assert!(StaticIPLookup::from_config("", &mut ctx()).is_err());
        assert!(StaticIPLookup::from_config("10.0.0.0/40 1", &mut ctx()).is_err());
        assert!(StaticIPLookup::from_config("10.0.0.0/8 1 2 3", &mut ctx()).is_err());
    }

    #[test]
    fn static_ip_lookup_names_the_bad_field() {
        for (entry, message) in [
            ("10.0.0.0/8", "bad route \"10.0.0.0/8\""),
            ("10.0.0.0/33 1", "bad prefix in \"10.0.0.0/33 1\""),
            ("10.0.0/8 1", "bad address in \"10.0.0/8 1\""),
            (
                "10.0.0.0/8 1.2.3 1",
                "bad gateway in \"10.0.0.0/8 1.2.3 1\"",
            ),
            ("10.0.0.0/8 x", "bad output port in \"10.0.0.0/8 x\""),
        ] {
            let err = StaticIPLookup::from_config(entry, &mut ctx()).unwrap_err();
            assert!(err.to_string().ends_with(message), "{err}");
        }
    }
}
