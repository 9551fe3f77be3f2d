//! The independent output oracle.
//!
//! Given the [`Plan`] a router was generated from and an ingress frame,
//! computes the frame a standards-compliant IP router must emit and the
//! interface it must leave by — without calling into the crates under
//! test. Expected egress = ingress with the Ethernet addresses rewritten
//! to the (out-interface, next-hop) pair, TTL − 1, the IP checksum
//! recomputed from scratch, and everything after the IP header intact.

use crate::gen::{ip_checksum, neighbor_mac, router_mac, seq_of, Frame, Plan, FRAME_LEN};
use std::collections::HashMap;

/// Longest-prefix match over a [`Plan`]: the per-interface `/24`s plus
/// the extra `/24` routes (later duplicates win, as in the element).
#[derive(Debug)]
pub struct Oracle {
    by_prefix: HashMap<u32, usize>,
}

impl Oracle {
    /// Indexes the plan's routes.
    pub fn new(plan: &Plan) -> Oracle {
        let mut by_prefix = HashMap::with_capacity(plan.ifaces + plan.routes.len());
        for i in 0..plan.ifaces {
            by_prefix.insert(u32::from_be_bytes([10, 0, i as u8, 0]), i);
        }
        for &(prefix, port) in &plan.routes {
            by_prefix.insert(prefix, port);
        }
        Oracle { by_prefix }
    }

    /// The expected `(egress interface, egress frame)` for an ingress
    /// frame, or `None` if the router has no route (the generator never
    /// produces such a frame).
    pub fn expect(&self, ingress: &[u8; FRAME_LEN]) -> Option<(usize, [u8; FRAME_LEN])> {
        let dst = u32::from_be_bytes([ingress[30], ingress[31], ingress[32], ingress[33]]);
        let out_if = *self.by_prefix.get(&(dst & 0xFFFF_FF00))?;
        let mut e = *ingress;
        e[0..6].copy_from_slice(&neighbor_mac(out_if));
        e[6..12].copy_from_slice(&router_mac(out_if));
        e[22] = ingress[22].checked_sub(1)?;
        e[24] = 0;
        e[25] = 0;
        let csum = ip_checksum(&e[14..34]);
        e[24..26].copy_from_slice(&csum.to_be_bytes());
        Some((out_if, e))
    }
}

/// Frame equality, up to the two encodings of a zero checksum.
///
/// One's-complement arithmetic has two zeros. Recomputing a checksum from
/// scratch can only produce `0x0000`; updating it incrementally for the
/// TTL decrement (RFC 1141) produces `0xFFFF` in the same case (RFC 1624
/// §3). Every receiver accepts both, so the oracle does too — about one
/// frame in 65 536 is affected.
fn same_frame(want: &[u8; FRAME_LEN], got: &[u8]) -> bool {
    if want[..] == *got {
        return true;
    }
    got.len() == FRAME_LEN
        && want[..24] == got[..24]
        && want[26..] == got[26..]
        && want[24..26] == [0x00, 0x00]
        && got[24..26] == [0xFF, 0xFF]
}

/// Checks a set of egress frames against a stamped ingress trace.
///
/// Every ingress frame carries a distinct sequence number `base + k` in
/// its payload; an egress frame is *good* when its sequence number names
/// an ingress frame not yet seen and its interface and bytes equal the
/// oracle's. Anything else — wrong bytes, wrong interface, a duplicate,
/// an unknown sequence number, a missing frame — is a failure.
#[derive(Debug)]
pub struct Verifier {
    expected: Vec<Option<(usize, [u8; FRAME_LEN])>>,
    base: u32,
    /// Egress frames that matched.
    pub good: u64,
    /// Egress frames that did not.
    pub bad: u64,
    /// The first frame that did not, described for the error message.
    pub first_bad: Option<String>,
}

impl Verifier {
    /// Expectation table for `frames`, stamped `base..base + len`.
    pub fn new(oracle: &Oracle, frames: &[Frame], base: u32) -> Verifier {
        let expected = frames
            .iter()
            .enumerate()
            .map(|(k, f)| {
                let mut g = f.clone();
                g.stamp(base + k as u32);
                oracle.expect(&g.bytes)
            })
            .collect();
        Verifier {
            expected,
            base,
            good: 0,
            bad: 0,
            first_bad: None,
        }
    }

    /// Judges one egress frame seen on interface `iface`.
    pub fn see(&mut self, iface: usize, frame: &[u8]) {
        let slot = seq_of(frame)
            .and_then(|s| s.checked_sub(self.base))
            .and_then(|k| self.expected.get_mut(k as usize));
        let hex = |b: &[u8]| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
        match slot.and_then(Option::take) {
            Some((want_if, want)) if want_if == iface && same_frame(&want, frame) => self.good += 1,
            other => {
                self.bad += 1;
                self.first_bad.get_or_insert_with(|| match other {
                    Some((want_if, want)) => format!(
                        "on eth{iface} got {}, want on eth{want_if} {}",
                        hex(frame),
                        hex(&want)
                    ),
                    None => format!(
                        "on eth{iface} got {}, which answers no frame sent",
                        hex(frame)
                    ),
                });
            }
        }
    }

    /// Frames offered that never came out correctly.
    pub fn failed(&self) -> u64 {
        self.expected.len() as u64 - self.good
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        let s: String = s.split_whitespace().collect();
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn frame(s: &str) -> [u8; FRAME_LEN] {
        hex(s).try_into().expect("60 bytes")
    }

    // Three frames written out by hand (checksums worked out separately,
    // not by `ip_checksum`): a neighbor-destined frame, a frame via an
    // extra route, and one whose checksum update carries.

    #[test]
    fn neighbor_frame_eth0_to_eth1() {
        // 10.0.0.7 -> 10.0.1.2, TTL 64, in on eth0.
        let ingress = frame(
            "0000c0010001 0000aa020002 0800
             4500002e 00000000 4011 65b7 0a000007 0a000102
             04d2162e 001a0000
             00000001 1111111111111111 222222222222",
        );
        let egress = frame(
            "0000aa020102 0000c0010101 0800
             4500002e 00000000 3f11 66b7 0a000007 0a000102
             04d2162e 001a0000
             00000001 1111111111111111 222222222222",
        );
        let o = Oracle::new(&Plan::figure1(4));
        assert_eq!(o.expect(&ingress), Some((1, egress)));
    }

    #[test]
    fn routed_frame_goes_via_the_routes_interface() {
        // 10.0.2.9 -> 55.66.77.88 via route 55.66.77.0/24 on eth3.
        let mut plan = Plan::figure1(4);
        plan.routes.push((0x3742_4D00, 3));
        let ingress = frame(
            "0000c0010201 0000aa020202 0800
             4500002e 00000000 4011 ea1c 0a000209 37424d58
             04d2162e 001a0000
             0000002a aaaaaaaaaaaaaaaa bbbbbbbbbbbb",
        );
        let egress = frame(
            "0000aa020302 0000c0010301 0800
             4500002e 00000000 3f11 eb1c 0a000209 37424d58
             04d2162e 001a0000
             0000002a aaaaaaaaaaaaaaaa bbbbbbbbbbbb",
        );
        assert_eq!(Oracle::new(&plan).expect(&ingress), Some((3, egress)));
        assert_eq!(Oracle::new(&Plan::figure1(4)).expect(&ingress), None);
    }

    #[test]
    fn checksum_carry_wraps_around() {
        // TTL 2 -> 1 with a checksum whose +0x0100 update carries out of
        // 16 bits: 0xfffe + 0x0100 = 0x100fe -> 0x00ff.
        let ingress = frame(
            "0000c0010301 0000aa020302 0800
             4500002e 00000000 0211 fffe ab0003bf 0a000002
             04d2162e 001a0000
             00000000 0000000000000000 000000000000",
        );
        let egress = frame(
            "0000aa020002 0000c0010001 0800
             4500002e 00000000 0111 00ff ab0003bf 0a000002
             04d2162e 001a0000
             00000000 0000000000000000 000000000000",
        );
        let o = Oracle::new(&Plan::figure1(4));
        assert_eq!(o.expect(&ingress), Some((0, egress)));
    }

    #[test]
    fn both_encodings_of_a_zero_checksum_are_the_same_frame() {
        // The frame seed 106 turned up: 10.0.0.248 -> 185.244.182.211,
        // TTL 64 -> 63, whose recomputed checksum is 0x0000.
        let want = frame(
            "0000aa020102 0000c0010101 0800
             4500002e 00000000 3f11 0000 0a0000f8 b9f4b6d3
             130e7732 001a0000
             400000db 43c44d28a18bea92 9a514317d524",
        );
        let mut got = want;
        got[24..26].copy_from_slice(&[0xFF, 0xFF]);
        assert!(same_frame(&want, &got), "-0 is 0");
        assert!(
            !same_frame(&got, &want),
            "only where the true checksum is zero"
        );
        got[24..26].copy_from_slice(&[0xFF, 0xFE]);
        assert!(!same_frame(&want, &got));
        assert_eq!(
            ip_checksum(
                &{
                    let mut h = want;
                    h[24] = 0;
                    h[25] = 0;
                    h
                }[14..34]
            ),
            0
        );
    }

    #[test]
    fn verifier_counts_each_way_of_being_wrong() {
        let mut rng = crate::gen::Rng::new(1);
        let plan = Plan::figure1(4);
        let frames = crate::gen::trace(&plan, &mut rng, 8, 8);
        let oracle = Oracle::new(&plan);
        let mut v = Verifier::new(&oracle, &frames, 100);
        let mut stamped = frames[0].clone();
        stamped.stamp(100);
        let (out_if, good) = oracle.expect(&stamped.bytes).unwrap();
        v.see(out_if, &good);
        v.see(out_if, &good); // duplicate
        let mut s1 = frames[1].clone();
        s1.stamp(101);
        let (if1, mut e1) = oracle.expect(&s1.bytes).unwrap();
        v.see((if1 + 1) % 4, &e1); // wrong interface (and consumed)
        e1[50] ^= 1;
        v.see(if1, &e1); // corrupt payload
        assert_eq!((v.good, v.bad), (1, 3));
        assert_eq!(v.failed(), 7);
    }
}
