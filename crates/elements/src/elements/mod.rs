//! The element library and the dynamic-dispatch element factory.

pub mod basic;
pub mod classify;
pub mod combo;
pub mod device;
pub mod ether;
pub mod fault;
pub mod ip;
pub mod queueing;

use crate::element::{CreateCtx, Element};
use click_core::error::{Error, Result};
use click_core::registry::{devirt_base, FASTCLASSIFIER_PREFIX, FASTIPFILTER_PREFIX};

/// Creates a boxed element of the given class.
///
/// Understands tool-generated class names: `Class__DVn` (devirtualized)
/// behaves like `Class`; `FastClassifier@@x` / `FastIPFilter@@x` build
/// specialized classifiers from their serialized configuration.
///
/// # Errors
///
/// Returns an error for unknown classes or malformed configurations.
///
/// # Examples
///
/// ```
/// use click_elements::element::CreateCtx;
/// use click_elements::elements::create_element;
///
/// let mut ctx = CreateCtx::new();
/// let q = create_element("Queue", "128", &mut ctx)?;
/// assert_eq!(q.class_name(), "Queue");
/// # Ok::<(), click_core::Error>(())
/// ```
pub fn create_element(class: &str, config: &str, ctx: &mut CreateCtx) -> Result<Box<dyn Element>> {
    // Generated classifier classes.
    if class.starts_with(FASTCLASSIFIER_PREFIX) || class.starts_with(FASTIPFILTER_PREFIX) {
        return Ok(Box::new(classify::FastClassifierElement::from_config(
            class, config, ctx,
        )?));
    }
    // Devirtualized classes behave like their base class.
    let base = devirt_base(class).unwrap_or(class);
    let element: Box<dyn Element> = match base {
        "Discard" => Box::new(basic::Discard::from_config(config, ctx)?),
        "Counter" => Box::new(basic::Counter::from_config(config, ctx)?),
        "Tee" => Box::new(basic::Tee::from_config(config, ctx)?),
        "Paint" => Box::new(basic::Paint::from_config(config, ctx)?),
        "PaintTee" => Box::new(basic::PaintTee::from_config(config, ctx)?),
        "CheckPaint" => Box::new(basic::CheckPaint::from_config(config, ctx)?),
        "Strip" => Box::new(basic::Strip::from_config(config, ctx)?),
        "Unstrip" => Box::new(basic::Unstrip::from_config(config, ctx)?),
        "Align" => Box::new(basic::Align::from_config(config, ctx)?),
        "AlignmentInfo" => Box::new(basic::AlignmentInfo::from_config(config, ctx)?),
        "Switch" | "StaticSwitch" => Box::new(basic::Switch::from_config(config, ctx)?),
        "StaticPullSwitch" => Box::new(basic::StaticPullSwitch::from_config(config, ctx)?),
        "RoundRobinSched" => Box::new(basic::RoundRobinSched::from_config(config, ctx)?),
        "PrioSched" => Box::new(basic::PrioSched::from_config(config, ctx)?),
        "Idle" => Box::new(basic::Idle::from_config(config, ctx)?),
        "Null" => Box::new(basic::Null::from_config(config, ctx)?),
        "FaultInject" => Box::new(fault::FaultInject::from_config(config, ctx)?),
        "InfiniteSource" | "RatedSource" | "TimedSource" => {
            Box::new(basic::InfiniteSource::from_config(config, ctx)?)
        }
        "Queue" => Box::new(queueing::Queue::from_config(config, ctx)?),
        "RED" => Box::new(queueing::Red::from_config(config, ctx)?),
        "EtherEncap" => Box::new(ether::EtherEncap::from_config(config, ctx)?),
        "ARPQuerier" => Box::new(ether::ArpQuerier::from_config(config, ctx)?),
        "ARPResponder" => Box::new(ether::ArpResponder::from_config(config, ctx)?),
        "HostEtherFilter" => Box::new(ether::HostEtherFilter::from_config(config, ctx)?),
        "CheckIPHeader" => Box::new(ip::CheckIPHeader::from_config(config, ctx)?),
        "MarkIPHeader" => Box::new(ip::MarkIPHeader::from_config(config, ctx)?),
        "GetIPAddress" => Box::new(ip::GetIPAddress::from_config(config, ctx)?),
        "SetIPAddress" => Box::new(ip::SetIPAddress::from_config(config, ctx)?),
        "DropBroadcasts" => Box::new(ip::DropBroadcasts::from_config(config, ctx)?),
        "IPGWOptions" => Box::new(ip::IPGWOptions::from_config(config, ctx)?),
        "FixIPSrc" => Box::new(ip::FixIPSrc::from_config(config, ctx)?),
        "DecIPTTL" => Box::new(ip::DecIPTTL::from_config(config, ctx)?),
        "IPFragmenter" => Box::new(ip::IPFragmenter::from_config(config, ctx)?),
        "ICMPError" => Box::new(ip::ICMPError::from_config(config, ctx)?),
        "ICMPPingResponder" => Box::new(ip::ICMPPingResponder::from_config(config, ctx)?),
        "StaticIPLookup" => Box::new(ip::StaticIPLookup::from_config(config, ctx)?),
        "LookupIPRoute" => Box::new(ip::StaticIPLookup::lookup_ip_route(config, ctx)?),
        "Classifier" => Box::new(classify::ClassifierElement::classifier(config, ctx)?),
        "IPClassifier" => Box::new(classify::ClassifierElement::ip_classifier(config, ctx)?),
        "IPFilter" => Box::new(classify::ClassifierElement::ip_filter(config, ctx)?),
        "IPInputCombo" => Box::new(combo::IPInputCombo::from_config(config, ctx)?),
        "IPOutputCombo" => Box::new(combo::IPOutputCombo::from_config(config, ctx)?),
        "EtherEncapCombo" => Box::new(ether::EtherEncap::from_config(config, ctx)?),
        "FromDevice" => Box::new(device::FromDevice::from_config(config, ctx)?),
        "PollDevice" => Box::new(device::FromDevice::poll_device(config, ctx)?),
        "ToDevice" => Box::new(device::ToDevice::from_config(config, ctx)?),
        "RouterLink" | "Unqueue" => Box::new(device::RouterLink::from_config(config, ctx)?),
        "ScheduleInfo" | "AddressInfo" => Box::new(basic::AlignmentInfo::from_config(config, ctx)?),
        other => {
            return Err(Error::config(
                other,
                "unknown element class (not in the runtime factory)".to_string(),
            ))
        }
    };
    Ok(element)
}

#[cfg(test)]
#[path = "../../tests/common/mod.rs"]
mod common;

#[cfg(test)]
mod tests {
    use super::common::sample_config;
    use super::*;
    use crate::batch::BatchEmitter;
    use crate::element::{Emitter, PullContext};
    use crate::headers::{arp, build_udp_packet, ether, ipv4};
    use crate::packet::{Anno, Packet};
    use click_core::spec::PortKind;
    use click_core::Lcg;
    use std::collections::{BTreeMap, VecDeque};

    #[test]
    fn factory_covers_every_standard_runtime_class() {
        // Every non-information class in the core registry must be
        // constructible (the paper's "common understanding between tools
        // and Click" applies to us too).
        let lib = click_core::registry::Library::standard();
        for spec in lib.iter() {
            let mut ctx = CreateCtx::new();
            let result = create_element(&spec.name, sample_config(&spec.name), &mut ctx);
            assert!(
                result.is_ok(),
                "class {:?} failed: {:?}",
                spec.name,
                result.err()
            );
            // A hot swap hands an unchanged element to the next router as
            // it is, so a class whose construction reads the graph's
            // device map must be rebuilt every time.
            assert!(
                ctx.devices.is_empty() || crate::swap::ALWAYS_REBUILT.contains(&spec.name.as_str()),
                "{:?} registers a device: list it in swap::ALWAYS_REBUILT",
                spec.name
            );
        }
    }

    /// What an element sent out of each output port, as bytes and
    /// annotations, in order.
    type PortLog = BTreeMap<usize, Vec<(Vec<u8>, Anno)>>;

    fn log(into: &mut PortLog, port: usize, p: Packet) {
        into.entry(port)
            .or_default()
            .push((p.data().to_vec(), p.anno.clone()));
    }

    /// Packets per port, for a failure message that fits on a screen.
    fn shape(log: &PortLog) -> String {
        format!(
            "{:?}",
            log.iter()
                .map(|(port, v)| (port, v.len()))
                .collect::<Vec<_>>()
        )
    }

    /// Every statistic name an element of this library answers.
    const STATS: &str = "count byte_count drops bad expired matched realigned replies ignored \
                         fragments must_frag queries table_size seen corrupted duplicated \
                         delayed length highwater capacity broadcasts redirects";

    fn stats(e: &dyn Element) -> Vec<Option<u64>> {
        STATS.split_whitespace().map(|name| e.stat(name)).collect()
    }

    /// A seeded mix of Ethernet frames and bare IP packets: good UDP, TTL
    /// 1, bad checksum, runt, non-IP, link broadcast, ARP request and
    /// reply, and oversize datagrams with and without DF, with random
    /// paint, destination and fix-source annotations.
    fn mixed_traffic(seed: u64, n: usize) -> Vec<Packet> {
        let mut r = Lcg::new(seed);
        let (us, peer) = ([0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 2]);
        (0..n)
            .map(|_| {
                let dst = if r.below(4) == 0 {
                    0xC0A8_0001
                } else {
                    0x0A00_0002
                };
                let udp = |r: &mut Lcg, len, ttl| {
                    let sport = r.below(64) as u16;
                    build_udp_packet(peer, us, 0x0A00_0009, dst, sport, 9, len, ttl)
                };
                let (mut p, ip) = match r.below(9) {
                    0 => (udp(&mut r, 18, 1), true),
                    1 => {
                        let mut p = udp(&mut r, 18, 64);
                        p.data_mut()[ether::HLEN + 10] ^= 0xFF;
                        (p, true)
                    }
                    2 => (Packet::new(r.below(34)), false),
                    3 => {
                        let mut p = udp(&mut r, 18, 64);
                        p.data_mut()[12..14].copy_from_slice(&0x86DDu16.to_be_bytes());
                        (p, false)
                    }
                    4 => {
                        let mut p = udp(&mut r, 18, 64);
                        p.data_mut()[..6].copy_from_slice(&ether::BROADCAST);
                        p.anno.link_broadcast = true;
                        (p, true)
                    }
                    k @ (5 | 6) => {
                        let (op, to) = if k == 5 {
                            (arp::OP_REQUEST, ether::BROADCAST)
                        } else {
                            (arp::OP_REPLY, us)
                        };
                        let mut p = Packet::new(ether::HLEN + arp::LEN);
                        let d = p.data_mut();
                        ether::write(d, to, peer, ether::TYPE_ARP);
                        arp::write(
                            &mut d[ether::HLEN..],
                            op,
                            peer,
                            0x0A00_0002,
                            us,
                            0x0A00_0001,
                        );
                        (p, false)
                    }
                    7 | 8 => {
                        let mut p = udp(&mut r, 1600, 64);
                        if r.below(2) == 0 {
                            let ip = &mut p.data_mut()[ether::HLEN..];
                            ip[6] |= 0x40; // DF
                            ipv4::set_checksum(ip);
                        }
                        (p, true)
                    }
                    _ => (udp(&mut r, 18, 64), true),
                };
                if ip && r.below(2) == 0 {
                    p.pull(ether::HLEN);
                }
                p.anno.paint = r.below(2) as u8;
                p.anno.fix_ip_src = r.below(3) == 0;
                if r.below(2) == 0 {
                    p.anno.dst_ip = Some(dst);
                }
                p
            })
            .collect()
    }

    /// The standard classes with a push or agnostic input 0, sorted,
    /// with that input's kind.
    fn pushable_classes() -> Vec<(String, PortKind)> {
        let lib = click_core::registry::Library::standard();
        let mut classes: Vec<_> = (lib.iter())
            .filter(|s| !s.information && s.port_count.inputs.max != Some(0))
            .map(|s| (s.name.clone(), s.processing.input_kind(0)))
            .filter(|(_, kind)| *kind != PortKind::Pull)
            .collect();
        classes.sort_by(|a, b| a.0.cmp(&b.0));
        classes
    }

    fn build(class: &str) -> Box<dyn Element> {
        create_element(class, sample_config(class), &mut CreateCtx::new()).unwrap()
    }

    #[test]
    fn every_class_batches_as_it_pushes() {
        let sizes = [1, 3, 8, 64, 5];
        for (class, _) in pushable_classes() {
            let (mut scalar, mut batched) = (build(&class), build(&class));
            let mut want = PortLog::new();
            let mut out = Emitter::new();
            for p in mixed_traffic(41, 400) {
                scalar.push(0, p, &mut out);
                for (port, q) in out.drain() {
                    log(&mut want, port, q);
                }
            }
            let mut got = PortLog::new();
            let mut out = BatchEmitter::new();
            let mut traffic = mixed_traffic(41, 400).into_iter().peekable();
            for &n in sizes.iter().cycle() {
                if traffic.peek().is_none() {
                    break;
                }
                batched.push_batch(0, traffic.by_ref().take(n).collect(), &mut out);
                let mut groups = Vec::new();
                while let Some(group) = out.pop_group() {
                    groups.push(group);
                }
                for (port, mut b) in groups.into_iter().rev() {
                    for q in b.drain() {
                        log(&mut got, port, q);
                    }
                }
            }
            assert!(
                got == want,
                "{class}: batched {} != scalar {}",
                shape(&got),
                shape(&want)
            );
            assert_eq!(
                stats(&*batched),
                stats(&*scalar),
                "{class}: batched stats differ"
            );
        }
    }

    /// A pull context over a fixed input that logs what the element
    /// pushes out of its push-side outputs.
    struct Feed {
        input: VecDeque<Packet>,
        pushed: PortLog,
    }

    impl PullContext for Feed {
        fn pull(&mut self, port: usize) -> Option<Packet> {
            assert_eq!(port, 0);
            self.input.pop_front()
        }
        fn push_out(&mut self, port: usize, p: Packet) {
            log(&mut self.pushed, port, p);
        }
        fn ninputs(&self) -> usize {
            1
        }
    }

    #[test]
    fn every_agnostic_class_pulls_as_it_pushes() {
        let agnostic = pushable_classes()
            .into_iter()
            .filter(|(_, kind)| *kind == PortKind::Agnostic);
        for (class, _) in agnostic {
            let (mut pushed, mut pulled) = (build(&class), build(&class));
            let mut want = PortLog::new();
            let mut out = Emitter::new();
            for p in mixed_traffic(43, 400) {
                pushed.push(0, p, &mut out);
                for (port, q) in out.drain() {
                    log(&mut want, port, q);
                }
            }
            let mut feed = Feed {
                input: mixed_traffic(43, 400).into(),
                pushed: PortLog::new(),
            };
            let mut got = PortLog::new();
            while let Some(p) = pulled.pull(0, &mut feed) {
                log(&mut got, 0, p);
            }
            got.append(&mut feed.pushed);
            assert!(
                got == want,
                "{class}: pulled {} != pushed {}",
                shape(&got),
                shape(&want)
            );
            assert_eq!(
                stats(&*pulled),
                stats(&*pushed),
                "{class}: pulled stats differ"
            );
        }
    }

    #[test]
    fn factory_rejects_unknown_class() {
        let mut ctx = CreateCtx::new();
        assert!(create_element("Zorp", "", &mut ctx).is_err());
    }

    #[test]
    fn factory_resolves_devirtualized_names() {
        let mut ctx = CreateCtx::new();
        let e = create_element("Counter__DV7", "", &mut ctx).unwrap();
        assert_eq!(e.class_name(), "Counter");
    }

    #[test]
    fn factory_builds_fast_classifiers() {
        let mut ctx = CreateCtx::new();
        let e = create_element("FastClassifier@@c", "fast diag 1 out0", &mut ctx).unwrap();
        assert!(e.class_name().starts_with("FastClassifier@@"));
    }
}
