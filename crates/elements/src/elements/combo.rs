//! Combination elements — the `click-xform` replacements of §6.2.
//!
//! "This optimization both lowers virtual function costs by reducing the
//! number of elements in a forwarding path, and reduces the overhead of
//! general-purpose code." `IPInputCombo` fuses the input-side
//! `Paint → Strip(14) → CheckIPHeader → GetIPAddress(16)` sequence;
//! `IPOutputCombo` fuses the output-side
//! `DropBroadcasts → PaintTee → IPGWOptions → FixIPSrc → DecIPTTL →
//! IPFragmenter` sequence. The paper discourages writing these by hand —
//! `click-xform` installs them automatically.

use crate::batch::{BatchEmitter, PacketBatch};
use crate::element::{args, config_err, int_arg, CreateCtx, Element, Emitter};
use crate::elements::ip::{fragment, CheckIPHeader, IPGWOptions};
use crate::headers::{ether, ipv4};
use crate::packet::Packet;
use click_core::config::parse_ipv4;
use click_core::error::Result;

/// `IPInputCombo(color)`: paints, strips the Ethernet header, validates
/// the IP header, and sets the destination annotation — in one pass.
/// Output 0: good packets; output 1: bad headers.
#[derive(Debug)]
pub struct IPInputCombo {
    color: u8,
    bad: u64,
}

impl IPInputCombo {
    /// Creates from a configuration string: the paint color.
    pub fn from_config(config: &str, _ctx: &mut CreateCtx) -> Result<IPInputCombo> {
        let a = args(config);
        if a.len() != 1 {
            return Err(config_err(
                "IPInputCombo",
                "expects exactly one color argument",
            ));
        }
        Ok(IPInputCombo {
            color: int_arg("IPInputCombo", "color", &a[0])?,
            bad: 0,
        })
    }
}

impl Element for IPInputCombo {
    fn class_name(&self) -> &str {
        "IPInputCombo"
    }
    fn action(&mut self, mut p: Packet) -> Option<(usize, Packet)> {
        p.anno.paint = self.color;
        p.pull(ether::HLEN);
        if !CheckIPHeader::header_ok(p.data()) {
            self.bad += 1;
            return Some((1, p));
        }
        p.anno.dst_ip = Some(ipv4::dst(p.data()));
        Some((0, p))
    }
    fn stat(&self, name: &str) -> Option<u64> {
        (name == "bad").then_some(self.bad)
    }
}

/// `IPOutputCombo(color, fix_src_ip, mtu)`: the fused output path.
///
/// Outputs:
/// 0. forwarded packets (fragmented if needed and permitted; a too-big
///    packet whose header cannot be fragmented is dropped and counted in
///    `drops`);
/// 1. copy of packets leaving via their arrival interface (paint match —
///    feeds an ICMP redirect);
/// 2. packets with bad gateway options (feeds ICMP parameter problem);
/// 3. TTL-expired packets (feeds ICMP time exceeded);
/// 4. too-big packets with DF set (feeds ICMP "fragmentation needed").
#[derive(Debug)]
pub struct IPOutputCombo {
    color: u8,
    fix_src: u32,
    mtu: usize,
    broadcasts: u64,
    redirects: u64,
    expired: u64,
    fragments: u64,
    drops: u64,
}

impl IPOutputCombo {
    /// Creates from a configuration string: `color, fix_src_ip, mtu`.
    pub fn from_config(config: &str, _ctx: &mut CreateCtx) -> Result<IPOutputCombo> {
        let a = args(config);
        if a.len() != 3 {
            return Err(config_err(
                "IPOutputCombo",
                "expects `color, fix_src_ip, mtu`",
            ));
        }
        let color = int_arg("IPOutputCombo", "color", &a[0])?;
        let fix_src = parse_ipv4(&a[1])
            .ok_or_else(|| config_err("IPOutputCombo", format!("bad address {:?}", a[1])))?;
        let mtu: usize = int_arg("IPOutputCombo", "mtu", &a[2])?;
        if mtu < ipv4::HLEN + 8 {
            return Err(config_err("IPOutputCombo", "MTU too small"));
        }
        Ok(IPOutputCombo {
            color,
            fix_src,
            mtu,
            broadcasts: 0,
            redirects: 0,
            expired: 0,
            fragments: 0,
            drops: 0,
        })
    }

    /// The IPFragmenter stage of the fused path.
    fn fragment_out(&mut self, p: Packet, out: &mut Emitter) {
        match fragment(p, self.mtu, out) {
            Some(n) => self.fragments += n,
            None => self.drops += 1,
        }
    }
}

impl Element for IPOutputCombo {
    fn class_name(&self) -> &str {
        "IPOutputCombo"
    }
    fn push(&mut self, _port: usize, mut p: Packet, out: &mut Emitter) {
        // DropBroadcasts
        if p.anno.link_broadcast {
            self.broadcasts += 1;
            p.recycle();
            return;
        }
        // PaintTee: copy to the redirect path.
        if p.anno.paint == self.color {
            self.redirects += 1;
            out.emit(1, p.clone());
        }
        // IPGWOptions
        if !IPGWOptions::options_ok(p.data()) {
            out.emit(2, p);
            return;
        }
        // FixIPSrc
        if p.anno.fix_ip_src && p.len() >= ipv4::HLEN {
            ipv4::set_src(p.data_mut(), self.fix_src);
            p.anno.fix_ip_src = false;
        }
        // DecIPTTL
        if p.len() < ipv4::HLEN || ipv4::ttl(p.data()) <= 1 {
            self.expired += 1;
            out.emit(3, p);
            return;
        }
        ipv4::dec_ttl(p.data_mut());
        // IPFragmenter
        if p.len() <= self.mtu {
            out.emit(0, p);
        } else if ipv4::frag_field(p.data()) & ipv4::FLAG_DF != 0 {
            out.emit(4, p);
        } else {
            self.fragment_out(p, out);
        }
    }
    fn push_batch(&mut self, _port: usize, mut batch: PacketBatch, out: &mut BatchEmitter) {
        // The fused output path per packet, one dispatch per batch.
        for mut p in batch.drain() {
            if p.anno.link_broadcast {
                self.broadcasts += 1;
                p.recycle();
                continue;
            }
            if p.anno.paint == self.color {
                self.redirects += 1;
                out.emit(1, p.clone());
            }
            if !IPGWOptions::options_ok(p.data()) {
                out.emit(2, p);
                continue;
            }
            if p.anno.fix_ip_src && p.len() >= ipv4::HLEN {
                ipv4::set_src(p.data_mut(), self.fix_src);
                p.anno.fix_ip_src = false;
            }
            if p.len() < ipv4::HLEN || ipv4::ttl(p.data()) <= 1 {
                self.expired += 1;
                out.emit(3, p);
                continue;
            }
            ipv4::dec_ttl(p.data_mut());
            if p.len() <= self.mtu {
                out.emit(0, p);
            } else if ipv4::frag_field(p.data()) & ipv4::FLAG_DF != 0 {
                out.emit(4, p);
            } else {
                out.with_scalar(|e| self.fragment_out(p, e));
            }
        }
        out.recycle_storage(batch);
    }
    fn stat(&self, name: &str) -> Option<u64> {
        match name {
            "broadcasts" => Some(self.broadcasts),
            "redirects" => Some(self.redirects),
            "expired" => Some(self.expired),
            "fragments" => Some(self.fragments),
            "drops" => Some(self.drops),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::basic::{Paint, PaintTee, Strip};
    use crate::elements::ip::{DecIPTTL, DropBroadcasts, FixIPSrc, GetIPAddress, IPFragmenter};
    use crate::headers::build_udp_packet;

    fn ctx() -> CreateCtx {
        CreateCtx::new()
    }

    fn push_one(e: &mut dyn Element, p: Packet) -> Vec<(usize, Packet)> {
        let mut out = Emitter::new();
        e.push(0, p, &mut out);
        out.drain().collect()
    }

    fn framed_packet(dst: u32, ttl: u8) -> Packet {
        build_udp_packet([1; 6], [2; 6], 0x0A000001, dst, 1000, 2000, 18, ttl)
    }

    /// The reference chain IPInputCombo replaces.
    fn input_chain(p: Packet, color: u8) -> Vec<(usize, Packet)> {
        let mut c = ctx();
        let mut paint = Paint::from_config(&color.to_string(), &mut c).unwrap();
        let mut strip = Strip::from_config("14", &mut c).unwrap();
        let mut chk = CheckIPHeader::from_config("", &mut c).unwrap();
        let mut get = GetIPAddress::from_config("16", &mut c).unwrap();
        let p = paint.action(p).unwrap().1;
        let p = strip.action(p).unwrap().1;
        let mut out = Emitter::new();
        chk.push(0, p, &mut out);
        let mut results = Vec::new();
        for (port, q) in out.drain() {
            if port == 0 {
                let q = get.action(q).unwrap().1;
                results.push((0, q));
            } else {
                results.push((1, q));
            }
        }
        results
    }

    #[test]
    fn input_combo_equals_chain_good_packet() {
        let p = framed_packet(0x0A000202, 64);
        let mut combo = IPInputCombo::from_config("3", &mut ctx()).unwrap();
        let a = push_one(&mut combo, p.clone());
        let b = input_chain(p, 3);
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
        assert_eq!(a[0].0, b[0].0);
        assert_eq!(a[0].1.data(), b[0].1.data());
        assert_eq!(a[0].1.anno.paint, b[0].1.anno.paint);
        assert_eq!(a[0].1.anno.dst_ip, b[0].1.anno.dst_ip);
        assert_eq!(a[0].1.anno.dst_ip, Some(0x0A000202));
    }

    #[test]
    fn input_combo_equals_chain_bad_packet() {
        let mut p = framed_packet(0x0A000202, 64);
        p.data_mut()[14] = 0x55; // corrupt version/hl
        let mut combo = IPInputCombo::from_config("3", &mut ctx()).unwrap();
        let a = push_one(&mut combo, p.clone());
        let b = input_chain(p, 3);
        assert_eq!(a[0].0, 1);
        assert_eq!(b[0].0, 1);
        assert_eq!(a[0].1.data(), b[0].1.data());
        assert_eq!(combo.stat("bad"), Some(1));
    }

    /// The reference chain IPOutputCombo replaces.
    fn output_chain(p: Packet, color: u8, fix_ip: &str, mtu: usize) -> Vec<(usize, Packet)> {
        let mut c = ctx();
        let mut db = DropBroadcasts::from_config("", &mut c).unwrap();
        let mut pt = PaintTee::from_config(&color.to_string(), &mut c).unwrap();
        let mut gw = IPGWOptions::from_config("", &mut c).unwrap();
        let mut fix = FixIPSrc::from_config(fix_ip, &mut c).unwrap();
        let mut ttl = DecIPTTL::from_config("", &mut c).unwrap();
        let mut frag = IPFragmenter::from_config(&mtu.to_string(), &mut c).unwrap();
        let mut results = Vec::new();
        let Some((_, p)) = db.action(p) else {
            return results;
        };
        let mut out = Emitter::new();
        pt.push(0, p, &mut out);
        let mut forward = None;
        for (port, q) in out.drain() {
            if port == 0 {
                forward = Some(q);
            } else {
                results.push((1, q));
            }
        }
        let Some(p) = forward else { return results };
        let mut out = Emitter::new();
        gw.push(0, p, &mut out);
        let mut forward = None;
        for (port, q) in out.drain() {
            if port == 0 {
                forward = Some(q);
            } else {
                results.push((2, q));
            }
        }
        let Some(p) = forward else { return results };
        let p = fix.action(p).unwrap().1;
        let mut out = Emitter::new();
        ttl.push(0, p, &mut out);
        let mut forward = None;
        for (port, q) in out.drain() {
            if port == 0 {
                forward = Some(q);
            } else {
                results.push((3, q));
            }
        }
        let Some(p) = forward else { return results };
        let mut out = Emitter::new();
        frag.push(0, p, &mut out);
        for (port, q) in out.drain() {
            results.push(if port == 0 { (0, q) } else { (4, q) });
        }
        results
    }

    fn ip_packet(dst: u32, ttl: u8, paint: u8) -> Packet {
        let mut p = framed_packet(dst, ttl);
        p.pull(14);
        p.anno.paint = paint;
        p
    }

    fn compare(p: Packet) {
        let mut combo = IPOutputCombo::from_config("2, 10.0.0.254, 576", &mut ctx()).unwrap();
        let a = push_one(&mut combo, p.clone());
        let b = output_chain(p, 2, "10.0.0.254", 576);
        assert_eq!(a.len(), b.len(), "combo {a:?} vs chain {b:?}");
        for ((pa, qa), (pb, qb)) in a.iter().zip(&b) {
            assert_eq!(pa, pb);
            assert_eq!(qa.data(), qb.data());
        }
    }

    #[test]
    fn output_combo_equals_chain_normal() {
        compare(ip_packet(0x0A000202, 64, 0));
    }

    #[test]
    fn output_combo_equals_chain_redirect() {
        compare(ip_packet(0x0A000202, 64, 2));
    }

    #[test]
    fn output_combo_equals_chain_ttl_expired() {
        compare(ip_packet(0x0A000202, 1, 0));
    }

    #[test]
    fn output_combo_equals_chain_broadcast_dropped() {
        let mut p = ip_packet(0x0A000202, 64, 0);
        p.anno.link_broadcast = true;
        compare(p);
    }

    #[test]
    fn output_combo_equals_chain_fix_src() {
        let mut p = ip_packet(0x0A000202, 64, 0);
        p.anno.fix_ip_src = true;
        compare(p);
    }

    #[test]
    fn output_combo_fragments_like_chain() {
        let mut big = Packet::new(1200);
        {
            let d = big.data_mut();
            d[0] = 0x45;
            d[2..4].copy_from_slice(&1200u16.to_be_bytes());
            d[8] = 64;
            d[9] = 17;
            ipv4::set_checksum(d);
        }
        compare(big);
    }

    #[test]
    fn config_validation() {
        assert!(IPInputCombo::from_config("", &mut ctx()).is_err());
        assert!(IPOutputCombo::from_config("1, 10.0.0.1", &mut ctx()).is_err());
        assert!(IPOutputCombo::from_config("1, bad, 1500", &mut ctx()).is_err());
        assert!(IPOutputCombo::from_config("1, 10.0.0.1, 5", &mut ctx()).is_err());
    }
}
